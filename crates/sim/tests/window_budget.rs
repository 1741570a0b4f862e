//! Regression guard for the sharded kernel's window schedule.
//!
//! Wall-clock timing is flaky in CI, but the *window count* of a fixed
//! workload is deterministic: it depends only on the schedule and the
//! lookahead, not on the host. Every window is one coordinator barrier,
//! so this count is the host-independent proxy for barrier cost. It is
//! pinned exactly: a lookahead regression (say, a shard map change that
//! shrinks the minimum cross-shard latency) or any extra barrier shows up
//! here long before anyone notices wall-clock drift.

use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

/// Windows for the fixed workload below at K=1 and K=4 (inline
/// execution). Update deliberately — a change here must come with an
/// explanation, not a regression.
const EXPECTED_WINDOWS: [(u32, u64); 2] = [(1, 1), (4, 56)];

/// The fixed workload: 10k sends over 8 cross-shard channels on a
/// 2 ms-lookahead clique, 11 µs apart. At K=4 the 110 ms send span plus
/// the last 2 ms transit is covered by one window per lookahead: 56. At
/// K=1 everything is shard-local, the lookahead is unbounded and the
/// whole schedule runs in a single window — any K=1 count above 1 means
/// windowing kicked in where none is needed.
fn run_workload(shards: u32) -> aas_sim::coordinator::ShardedStats {
    let topo = Topology::clique(8, 100.0, SimDuration::from_millis(2), 1e7);
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, ExecMode::Inline);
    let chans: Vec<_> = (0..8u32)
        .map(|i| k.open_channel(NodeId(i), NodeId((i + 3) % 8)))
        .collect();
    for i in 0..10_000u64 {
        k.send_at(
            SimTime::from_micros(i * 11),
            chans[(i % 8) as usize],
            i,
            256,
        );
    }
    let events = k.drain();
    assert_eq!(events.len(), 10_000, "every message must be delivered");
    k.stats()
}

#[test]
fn window_count_matches_the_one_lookahead_schedule() {
    for (shards, expected) in EXPECTED_WINDOWS {
        let stats = run_workload(shards);
        assert_eq!(stats.early_crossings, 0);
        assert_eq!(stats.overrun_events, 0);
        assert_eq!(
            stats.windows, expected,
            "K={shards}: {} windows, expected exactly {expected} — the \
             window schedule changed",
            stats.windows,
        );
    }
}
