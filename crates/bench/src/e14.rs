//! E14 — kernel fast-path throughput: the epoch-invalidated route cache.
//!
//! The paper's vision of dynamic, adaptive systems presumes the runtime
//! substrate is cheap enough to interpose on every interaction; a kernel
//! that re-runs Dijkstra and re-allocates on every message caps how much
//! adaptation logic can sit on top. This experiment measures raw kernel
//! throughput (events/sec: one send + one delivery each count as an
//! event) under steady traffic and under a fault/flap storm, on a dense
//! 16-node clique and a sparse 64-node ring-with-chords.
//!
//! The fast path under test: `Kernel::send` resolves routes through a
//! `RouteCache` keyed `(src, dst, size)` that serves `Arc<Route>` clones
//! while the topology epoch is unchanged and fully invalidates when any
//! routing-affecting mutation bumps it; cache misses run Dijkstra into
//! reusable scratch buffers, so steady-state sends are allocation-free
//! (proven by `crates/sim/tests/alloc_free.rs`). Fault cells are the
//! adversarial case — every flap invalidates the whole cache — so their
//! hit ratio and throughput bound the cost of the epoch-granularity
//! invalidation choice.
//!
//! Set `E14_SMOKE=1` to run a reduced message count (CI smoke mode).

use crate::table::{f2, Table};
use aas_sim::fault::FaultProcess;
use aas_sim::kernel::Kernel;
use aas_sim::link::{LinkId, LinkSpec};
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use std::time::Instant;

const SEED: u64 = 1401;
/// The two message sizes interleaved by the workload; distinct sizes are
/// distinct cache keys, so the cache holds two entries per live pair.
const SIZES: [u64; 2] = [256, 4096];
/// Concurrent channel pairs per workload.
const PAIRS: usize = 128;

/// Messages per cell: full run by default, reduced when `E14_SMOKE` is
/// set (the CI smoke mode).
#[must_use]
pub fn msgs_per_cell() -> u64 {
    if std::env::var_os("E14_SMOKE").is_some() {
        20_000
    } else {
        200_000
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `"clique16"` or `"sparse64"`.
    pub workload: &'static str,
    /// Whether a fault/flap storm ran alongside the traffic.
    pub faults: bool,
    /// Messages sent.
    pub msgs: u64,
    /// Kernel events processed (sends + deliveries + fault applications).
    pub events: u64,
    /// Wall-clock kernel events per second.
    pub events_per_sec: f64,
    /// Route-cache hit ratio over the run, in percent.
    pub cache_hit_pct: f64,
    /// Full cache invalidations (epoch bumps observed by the cache).
    pub invalidations: u64,
}

/// Dense workload: every pair one hop apart, routing trivially cheap —
/// isolates the per-event bookkeeping cost.
fn clique16() -> Topology {
    Topology::clique(16, 100.0, SimDuration::from_millis(2), 1e7)
}

/// Sparse workload: 64-node ring with `i → i+8` chords — multi-hop
/// routes, so each cache miss pays a real Dijkstra.
fn sparse64() -> Topology {
    let mut topo = Topology::new();
    let ids: Vec<NodeId> = (0..64)
        .map(|i| topo.add_node(NodeSpec::new(format!("s{i}"), 100.0)))
        .collect();
    for i in 0..64usize {
        topo.add_link(LinkSpec::new(
            ids[i],
            ids[(i + 1) % 64],
            SimDuration::from_millis(2),
            1e7,
        ));
    }
    for i in 0..64usize {
        topo.add_link(LinkSpec::new(
            ids[i],
            ids[(i + 8) % 64],
            SimDuration::from_millis(5),
            1e7,
        ));
    }
    topo
}

fn pairs_for(topo: &Topology, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = topo.node_count() as u64;
    let mut rng = SimRng::seed_from(seed);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let a = NodeId(rng.below(n) as u32);
        let b = NodeId(rng.below(n) as u32);
        if a != b {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Runs one cell: `msgs` sends round-robined over 128 pairs, one kernel
/// step per send, then a full drain. Fault cells add four node-crash and
/// four link-flap renewal processes running for the whole horizon.
#[must_use]
pub fn run_cell(workload: &'static str, faults: bool, msgs: u64) -> Cell {
    let topo = match workload {
        "clique16" => clique16(),
        "sparse64" => sparse64(),
        other => panic!("unknown workload `{other}`"),
    };
    let link_count = topo.link_count();
    let pairs = pairs_for(&topo, PAIRS, SEED ^ 0x5eed);
    let mut k: Kernel<u64> = Kernel::new(topo, SEED);
    let chs: Vec<_> = pairs.iter().map(|&(a, b)| k.open_channel(a, b)).collect();
    if faults {
        let mut storm = FaultProcess::new();
        for n in 0..4u32 {
            storm = storm.crash_node(NodeId(n * 3 + 1), 2.0, 0.5);
        }
        for l in 0..4usize {
            storm = storm.flap_link(LinkId((l * (link_count / 4)) as u32), 1.5, 0.4);
        }
        let horizon = SimTime::from_secs(3600);
        let schedule = storm.generate(horizon, &mut SimRng::seed_from(SEED ^ 0xfa));
        k.inject_faults(schedule);
    }
    let t0 = Instant::now();
    let mut events: u64 = 0;
    for i in 0..msgs {
        let ch = chs[(i % chs.len() as u64) as usize];
        let size = SIZES[(i % SIZES.len() as u64) as usize];
        k.send(ch, i, size);
        events += 1;
        if k.step().is_some() {
            events += 1;
        }
    }
    while k.step().is_some() {
        events += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = k.route_cache_stats();
    Cell {
        workload,
        faults,
        msgs,
        events,
        events_per_sec: events as f64 / secs,
        cache_hit_pct: stats.hit_ratio() * 100.0,
        invalidations: stats.invalidations,
    }
}

/// Runs the 2×2 grid: {clique16, sparse64} × {steady, fault storm}.
#[must_use]
pub fn run() -> Table {
    let msgs = msgs_per_cell();
    let mut table = Table::new(
        format!(
            "E14: kernel throughput, route cache on \
             ({msgs} msgs over {PAIRS} pairs, sizes {SIZES:?}, seed {SEED})"
        ),
        &[
            "workload",
            "faults",
            "events",
            "events/s",
            "cache-hit(%)",
            "invalidations",
        ],
    );
    for cell in cells() {
        table.row(vec![
            cell.workload.to_owned(),
            if cell.faults { "storm" } else { "none" }.to_owned(),
            cell.events.to_string(),
            format!("{:.0}", cell.events_per_sec),
            f2(cell.cache_hit_pct),
            cell.invalidations.to_string(),
        ]);
    }
    table
}

/// Runs all four cells in table order.
#[must_use]
pub fn cells() -> Vec<Cell> {
    let msgs = msgs_per_cell();
    let mut out = Vec::with_capacity(4);
    for workload in ["clique16", "sparse64"] {
        for faults in [false, true] {
            out.push(run_cell(workload, faults, msgs));
        }
    }
    out
}

/// Renders cells as the `BENCH_e14.json` artifact (the shape is flat
/// enough to emit by hand).
#[must_use]
pub fn to_json(cells: &[Cell]) -> String {
    let mut s = String::from("{\n  \"experiment\": \"e14\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"faults\": {}, \"msgs\": {}, \
             \"events\": {}, \"events_per_sec\": {:.0}, \
             \"cache_hit_pct\": {:.2}, \"invalidations\": {}}}{}\n",
            c.workload,
            c.faults,
            c.msgs,
            c.events,
            c.events_per_sec,
            c.cache_hit_pct,
            c.invalidations,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_cells_hit_the_cache_and_never_invalidate() {
        for workload in ["clique16", "sparse64"] {
            let c = run_cell(workload, false, 4_000);
            assert_eq!(c.events, 2 * c.msgs, "every send delivered");
            assert_eq!(c.invalidations, 0, "{workload}: no mutation, no flush");
            assert!(
                c.cache_hit_pct > 90.0,
                "{workload}: hit ratio {}",
                c.cache_hit_pct
            );
        }
    }

    #[test]
    fn fault_cells_invalidate_but_still_deliver() {
        let c = run_cell("clique16", true, 4_000);
        assert!(c.invalidations > 0, "storm must flush the cache");
        assert!(c.events > c.msgs, "deliveries besides the sends");
        // Event count is virtual-time deterministic: re-running the cell
        // must reproduce it exactly even though wall-clock timing varies.
        let again = run_cell("clique16", true, 4_000);
        assert_eq!(c.events, again.events);
        assert_eq!(c.invalidations, again.invalidations);
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let cells = vec![run_cell("clique16", false, 1_000)];
        let json = to_json(&cells);
        assert!(json.contains("\"experiment\": \"e14\""));
        assert!(json.contains("\"workload\": \"clique16\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
