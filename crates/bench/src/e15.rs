//! E15 — sharded-kernel scaling: events/s vs shard count.
//!
//! The sharded kernel partitions nodes over K shards and lets each
//! shard's event loop run on its own worker thread, exchanging
//! cross-shard messages only at deterministic epoch barriers
//! (conservative lookahead = the minimum cross-shard link latency). The
//! merged event order is byte-identical to the serial kernel for the
//! same schedule — proven by `crates/sim/tests/shard_determinism.rs` —
//! so this experiment measures only what parallelism buys: throughput at
//! K ∈ {1, 2, 4, 8} on the dense `clique16` and sparse `sparse64`
//! workloads of E14, steady and under a fault storm (every fault is a
//! serialized coordinator sync step, so the storm cells bound the cost
//! of barrier-heavy churn).
//!
//! Two throughput figures per cell:
//!
//! * **modeled events/s** — events ÷ (critical path + serial time),
//!   where the critical path sums each window's *slowest shard* and the
//!   serial term is the coordinator's merge/exchange time. This is the
//!   throughput a K-core host would see, measured from real per-shard
//!   busy time, and is meaningful even when the bench host has fewer
//!   cores than K.
//! * **wall events/s** — elapsed wall clock, i.e. what this particular
//!   host actually achieved with real worker threads.
//!
//! Two barrier-cost columns per cell:
//!
//! * **ns/window** — coordinator-serial nanoseconds per window (batch
//!   exchange + K-way merge + metric flush), the per-barrier tax.
//! * **exch/op** — cross-shard entries per exchange operation: batches
//!   move between shards as whole struct-of-arrays buffers, so one O(1)
//!   buffer move carries this many entries.
//!
//! Set `E15_SMOKE=1` to run a reduced message count (CI smoke mode).

use crate::table::{f2, Table};
use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::fault::FaultProcess;
use aas_sim::link::{LinkId, LinkSpec};
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use std::time::Instant;

const SEED: u64 = 1501;
/// Message sizes interleaved by the workload (same as E14).
const SIZES: [u64; 2] = [256, 4096];
/// Concurrent channel pairs per workload.
const PAIRS: usize = 128;
/// Shard counts measured per workload.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Messages per cell: full run by default, reduced when `E15_SMOKE` is
/// set (the CI smoke mode).
#[must_use]
pub fn msgs_per_cell() -> u64 {
    if std::env::var_os("E15_SMOKE").is_some() {
        10_000
    } else {
        100_000
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `"clique16"` or `"sparse64"`.
    pub workload: &'static str,
    /// Whether a fault/flap storm ran alongside the traffic.
    pub faults: bool,
    /// Shard count K.
    pub shards: u32,
    /// Messages sent.
    pub msgs: u64,
    /// Kernel events processed across all shards.
    pub events: u64,
    /// Epoch windows executed.
    pub windows: u64,
    /// Cross-shard messages exchanged at barriers.
    pub exchanged: u64,
    /// Whole-batch exchange operations (entries ÷ ops = batch size).
    pub exchange_ops: u64,
    /// Coordinator-serial nanoseconds per window (exchange, merge,
    /// flush).
    pub barrier_ns_per_window: f64,
    /// Modeled (critical-path) events per second.
    pub modeled_events_per_sec: f64,
    /// Wall-clock events per second on this host.
    pub wall_events_per_sec: f64,
}

impl Cell {
    /// Cross-shard entries carried per whole-batch exchange operation.
    #[must_use]
    pub fn entries_per_exchange_op(&self) -> f64 {
        self.exchanged as f64 / self.exchange_ops.max(1) as f64
    }
}

/// Dense workload: every pair one hop apart (same as E14).
fn clique16() -> Topology {
    Topology::clique(16, 100.0, SimDuration::from_millis(2), 1e7)
}

/// Sparse workload: 64-node ring with `i → i+8` chords (same as E14).
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

/// Runs one cell: `msgs` sends round-robined over 128 pairs at a 1 µs
/// cadence (so each lookahead window batches thousands of events), then
/// a full drain on K worker threads. Fault cells add the E14 storm.
#[must_use]
pub fn run_cell(workload: &'static str, faults: bool, shards: u32, msgs: u64) -> Cell {
    let topo = match workload {
        "clique16" => clique16(),
        "sparse64" => sparse64(),
        other => panic!("unknown workload `{other}`"),
    };
    let link_count = topo.link_count();
    let pairs = pairs_for(&topo, PAIRS, SEED ^ 0x5eed);
    let mode = if shards == 1 {
        ExecMode::Inline
    } else {
        ExecMode::Threads
    };
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, mode);
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
    for i in 0..msgs {
        let ch = chs[(i % chs.len() as u64) as usize];
        let size = SIZES[(i % SIZES.len() as u64) as usize];
        k.send_at(SimTime::from_micros(i), ch, i, size);
    }
    let t0 = Instant::now();
    let merged = k.drain();
    let secs = t0.elapsed().as_secs_f64();
    drop(merged);
    let stats = k.stats();
    assert_eq!(stats.early_crossings, 0, "safety violated during bench");
    assert_eq!(stats.overrun_events, 0, "safety violated during bench");
    Cell {
        workload,
        faults,
        shards,
        msgs,
        events: stats.events,
        windows: stats.windows,
        exchanged: stats.exchanged,
        exchange_ops: stats.exchange_ops,
        barrier_ns_per_window: stats.barrier_ns as f64 / stats.windows.max(1) as f64,
        modeled_events_per_sec: stats.modeled_events_per_sec(),
        wall_events_per_sec: stats.events as f64 / secs,
    }
}

/// Runs the full grid: {clique16, sparse64} × {steady, storm} × K.
#[must_use]
pub fn cells() -> Vec<Cell> {
    let msgs = msgs_per_cell();
    let mut out = Vec::new();
    for workload in ["clique16", "sparse64"] {
        for faults in [false, true] {
            for k in SHARD_COUNTS {
                out.push(run_cell(workload, faults, k, msgs));
            }
        }
    }
    out
}

/// Renders the scaling table; the speedup column is modeled events/s
/// relative to the K=1 cell of the same (workload, faults) group.
#[must_use]
pub fn run() -> Table {
    let msgs = msgs_per_cell();
    let all = cells();
    render(&all, msgs)
}

/// Renders a table from pre-computed cells (so bench targets can reuse
/// the cells for the JSON artifact without re-running the grid).
#[must_use]
pub fn render(all: &[Cell], msgs: u64) -> Table {
    let mut table = Table::new(
        format!(
            "E15: sharded-kernel scaling, epoch barriers \
             ({msgs} msgs over {PAIRS} pairs, sizes {SIZES:?}, seed {SEED})"
        ),
        &[
            "workload",
            "faults",
            "K",
            "events",
            "windows",
            "exchanged",
            "exch/op",
            "ns/window",
            "modeled ev/s",
            "speedup",
            "wall ev/s",
        ],
    );
    for cell in all {
        let base = all
            .iter()
            .find(|c| c.workload == cell.workload && c.faults == cell.faults && c.shards == 1)
            .map_or(cell.modeled_events_per_sec, |c| c.modeled_events_per_sec);
        table.row(vec![
            cell.workload.to_owned(),
            if cell.faults { "storm" } else { "none" }.to_owned(),
            cell.shards.to_string(),
            cell.events.to_string(),
            cell.windows.to_string(),
            cell.exchanged.to_string(),
            format!("{:.0}", cell.entries_per_exchange_op()),
            format!("{:.0}", cell.barrier_ns_per_window),
            format!("{:.0}", cell.modeled_events_per_sec),
            f2(cell.modeled_events_per_sec / base),
            format!("{:.0}", cell.wall_events_per_sec),
        ]);
    }
    table
}

/// Renders cells as the `BENCH_e15.json` artifact (the shape is flat
/// enough to emit by hand).
#[must_use]
pub fn to_json(cells: &[Cell]) -> String {
    let mut s = String::from("{\n  \"experiment\": \"e15\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"faults\": {}, \"shards\": {}, \
             \"msgs\": {}, \"events\": {}, \"windows\": {}, \
             \"exchanged\": {}, \"exchange_ops\": {}, \
             \"barrier_ns_per_window\": {:.0}, \
             \"modeled_events_per_sec\": {:.0}, \
             \"wall_events_per_sec\": {:.0}}}{}\n",
            c.workload,
            c.faults,
            c.shards,
            c.msgs,
            c.events,
            c.windows,
            c.exchanged,
            c.exchange_ops,
            c.barrier_ns_per_window,
            c.modeled_events_per_sec,
            c.wall_events_per_sec,
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
    fn event_counts_are_shard_invariant() {
        // The same schedule must process the same virtual events at any
        // K — only wall/modeled time may differ.
        let c1 = run_cell("clique16", false, 1, 3_000);
        let c4 = run_cell("clique16", false, 4, 3_000);
        assert_eq!(c1.events, c4.events);
        assert!(c4.exchanged > 0, "K=4 clique must exchange across shards");
        assert!(c1.modeled_events_per_sec > 0.0);
        assert!(c4.wall_events_per_sec > 0.0);
    }

    #[test]
    fn storm_cells_run_sync_steps() {
        let c = run_cell("clique16", true, 2, 3_000);
        assert!(c.events >= c.msgs, "sends all processed");
        assert!(c.windows > 0);
    }

    #[test]
    fn exchange_is_batched() {
        let c = run_cell("clique16", false, 4, 30_000);
        assert!(c.exchanged > 0, "clique at K=4 must cross shards");
        assert!(
            c.exchange_ops < c.exchanged,
            "batches must carry more than one entry on average: {} ops for {} entries",
            c.exchange_ops,
            c.exchanged
        );
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let cells = vec![run_cell("clique16", false, 2, 1_000)];
        let json = to_json(&cells);
        assert!(json.contains("\"experiment\": \"e15\""));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"barrier_ns_per_window\": "));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
