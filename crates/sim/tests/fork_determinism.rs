//! Differential determinism harness for kernel forking.
//!
//! The snapshot-and-fork contract (`Kernel::fork`, and
//! `ShardedKernel::fork_serial` for the sharded kernel) is what the
//! digital-twin layer in `aas-core` stands on, so it gets the strongest
//! check we can write:
//!
//! 1. **Byte-identical replay** — run a seeded random schedule to a
//!    midpoint, fork, then feed the *identical* remaining script to the
//!    mainline and the fork. The rendered occurrence streams, counters,
//!    channel stats and subsequent RNG draws must match byte for byte,
//!    across ≥128 seeds (the deep tier runs 10×).
//! 2. **Inertness** — taking a fork, even stepping it forward, then
//!    dropping it must leave the mainline's stream, counters and RNG
//!    stream exactly as if the fork never existed.
//! 3. **Serial projection fidelity** — at a barrier, a sharded kernel's
//!    `fork_serial()` projection drained serially must fire the same
//!    occurrences at the same times as draining the sharded mainline.
//! 4. **Projection refusal** — with un-routed send commands or pending
//!    synchronous commands in flight, `fork_serial()` returns `None`
//!    instead of a lossy snapshot.

use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::kernel::{Fired, Kernel};
use aas_sim::link::LinkId;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::shard::ShardFired;
use aas_sim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

const NODES: u64 = 6;

fn topology(seed: u64) -> Topology {
    let mut rng = SimRng::seed_from(seed ^ 0xF0_4C);
    let lat = SimDuration::from_millis(1 + rng.below(4));
    Topology::clique(NODES as usize, 100.0, lat, 1e7)
}

/// One scripted caller action against a serial kernel. The script is the
/// "identical inputs" of the fork contract: applying the same ops to a
/// mainline and its fork must produce byte-identical observations.
#[derive(Debug, Clone)]
enum Op {
    Send { ch: usize, msg: u64, size: u64 },
    Timer { delay_us: u64 },
    Block { ch: usize },
    Unblock { ch: usize },
    Steps { n: u32 },
    RngDraw,
}

struct Case {
    seed: u64,
    channels: Vec<(NodeId, NodeId)>,
    faults: Vec<(SimTime, FaultKind)>,
    first: Vec<Op>,
    second: Vec<Op>,
}

fn build_case(seed: u64) -> Case {
    let mut rng = SimRng::seed_from(seed ^ 0xD1FF);
    let mut channels = Vec::new();
    for _ in 0..3 + rng.below(3) {
        channels.push((
            NodeId(rng.below(NODES) as u32),
            NodeId(rng.below(NODES) as u32),
        ));
    }
    let mut faults = Vec::new();
    for _ in 0..rng.below(4) {
        let node = NodeId(rng.below(NODES) as u32);
        let kind = if rng.chance(0.5) {
            FaultKind::NodeCrash(node)
        } else {
            FaultKind::NodeRecover(node)
        };
        faults.push((SimTime::from_micros(rng.below(120_000)), kind));
    }
    let first_count = 25 + rng.below(25);
    let second_count = 25 + rng.below(25);
    let mut ops = |count: u64, seqs: &mut Vec<u64>| {
        let mut v = Vec::new();
        for _ in 0..count {
            let ch = rng.below(channels.len() as u64) as usize;
            match rng.below(12) {
                0 => v.push(Op::Block { ch }),
                1 => v.push(Op::Unblock { ch }),
                2 => v.push(Op::Timer {
                    delay_us: 100 + rng.below(20_000),
                }),
                3 => v.push(Op::RngDraw),
                4..=6 => v.push(Op::Steps {
                    n: 1 + rng.below(6) as u32,
                }),
                _ => {
                    let msg = ((ch as u64) << 40) | seqs[ch];
                    seqs[ch] += 1;
                    v.push(Op::Send {
                        ch,
                        msg,
                        size: [64, 1024, 16384][rng.below(3) as usize],
                    });
                }
            }
        }
        // Surface held messages and drain fully so every case ends at a
        // quiescent point with exact conservation accounting.
        for ch in 0..channels.len() {
            v.push(Op::Unblock { ch });
        }
        v.push(Op::Steps { n: u32::MAX });
        v
    };
    let mut seqs = vec![0u64; channels.len()];
    let first = ops(first_count, &mut seqs);
    let second = ops(second_count, &mut seqs);
    Case {
        seed,
        channels,
        faults,
        first,
        second,
    }
}

fn fresh_kernel(case: &Case) -> (Kernel<u64>, Vec<aas_sim::ChannelId>) {
    let mut k: Kernel<u64> = Kernel::new(topology(case.seed), case.seed ^ 0x5EED);
    let chans: Vec<_> = case
        .channels
        .iter()
        .map(|&(s, d)| k.open_channel(s, d))
        .collect();
    let mut sched = FaultSchedule::new();
    for &(at, kind) in &case.faults {
        sched.at(at, kind);
    }
    k.inject_faults(sched);
    (k, chans)
}

/// Applies `ops`, rendering every observable outcome (send outcomes,
/// fired events, RNG draws) into `log`.
fn apply_ops(k: &mut Kernel<u64>, chans: &[aas_sim::ChannelId], ops: &[Op], log: &mut String) {
    for op in ops {
        match *op {
            Op::Send { ch, msg, size } => {
                let out = k.send(chans[ch], msg, size);
                let _ = writeln!(log, "send ch{ch} msg{msg} {out:?}");
            }
            Op::Timer { delay_us } => {
                let tag = k.set_timer(SimDuration::from_micros(delay_us));
                let _ = writeln!(log, "timer tag{tag} +{delay_us}us");
            }
            Op::Block { ch } => k.block_channel(chans[ch]),
            Op::Unblock { ch } => k.unblock_channel(chans[ch]),
            Op::Steps { n } => {
                for _ in 0..n {
                    match k.step() {
                        Some((at, fired)) => {
                            let _ = writeln!(log, "{at} {fired:?}");
                        }
                        None => break,
                    }
                }
            }
            Op::RngDraw => {
                let _ = writeln!(log, "rng {}", k.rng().below(1 << 30));
            }
        }
    }
}

/// Every observable facet of a kernel, rendered for byte comparison.
fn observe(k: &mut Kernel<u64>, chans: &[aas_sim::ChannelId]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "now {}", k.now());
    for (name, v) in k.counters().iter() {
        let _ = writeln!(s, "counter {name} {v}");
    }
    for &ch in chans {
        let _ = writeln!(
            s,
            "chan {ch:?} {:?} {:?}",
            k.channel_endpoints(ch),
            k.channel_stats(ch)
        );
    }
    // Three post-hoc draws prove the RNG stream position matches too.
    for _ in 0..3 {
        let _ = writeln!(s, "rng {}", k.rng().below(1 << 30));
    }
    s
}

fn check_fork_replay(seed: u64) {
    let case = build_case(seed);

    let (mut main, chans) = fresh_kernel(&case);
    let mut pre = String::new();
    apply_ops(&mut main, &chans, &case.first, &mut pre);

    let mut fork = main.fork();

    // Identical remaining inputs into both sides.
    let mut main_log = String::new();
    let mut fork_log = String::new();
    apply_ops(&mut main, &chans, &case.second, &mut main_log);
    apply_ops(&mut fork, &chans, &case.second, &mut fork_log);
    main_log.push_str(&observe(&mut main, &chans));
    fork_log.push_str(&observe(&mut fork, &chans));

    assert_eq!(
        main_log, fork_log,
        "seed {seed}: fork fed identical inputs diverged from mainline"
    );
    assert!(
        !main_log.is_empty(),
        "seed {seed}: schedule observed nothing"
    );
}

fn check_fork_inertness(seed: u64) {
    let case = build_case(seed);

    // Reference: no fork ever taken.
    let (mut a, chans_a) = fresh_kernel(&case);
    let mut log_a = String::new();
    apply_ops(&mut a, &chans_a, &case.first, &mut log_a);
    apply_ops(&mut a, &chans_a, &case.second, &mut log_a);
    log_a.push_str(&observe(&mut a, &chans_a));

    // Same schedule, but a fork is taken at the midpoint, stepped forward
    // through the rest of the script, and dropped.
    let (mut b, chans_b) = fresh_kernel(&case);
    let mut log_b = String::new();
    apply_ops(&mut b, &chans_b, &case.first, &mut log_b);
    {
        let mut fork = b.fork();
        let mut scratch = String::new();
        apply_ops(&mut fork, &chans_b, &case.second, &mut scratch);
        // fork dropped here
    }
    apply_ops(&mut b, &chans_b, &case.second, &mut log_b);
    log_b.push_str(&observe(&mut b, &chans_b));

    assert_eq!(
        log_a, log_b,
        "seed {seed}: taking/stepping/dropping a fork perturbed the mainline"
    );
}

#[test]
fn fork_replays_byte_identically_across_128_schedules() {
    for seed in 0..128 {
        check_fork_replay(seed);
    }
}

#[test]
fn dropped_fork_never_perturbs_mainline() {
    for seed in 0..128 {
        check_fork_inertness(seed);
    }
}

/// Deep tier: 10× the seeds. Run explicitly (nightly CI):
/// `cargo test -p aas-sim --test fork_determinism -- --ignored`.
#[test]
#[ignore = "deep tier: 1280 seeds, minutes of runtime"]
fn fork_replay_and_inertness_deep() {
    for seed in 128..1280 {
        check_fork_replay(seed);
        check_fork_inertness(seed);
    }
}

// ---------------------------------------------------------------------
// Serial projection of the sharded kernel.
// ---------------------------------------------------------------------

/// Renders a serial `Fired` and a sharded `ShardFired` into one common
/// line format so the two streams can be compared byte for byte. Send-time
/// drops never appear after the projection point (all sends have routed by
/// then — `fork_serial` refuses otherwise), so the two shapes align.
fn render_serial(at: SimTime, fired: &Fired<u64>) -> String {
    match fired {
        Fired::Delivered {
            channel,
            msg,
            size,
            sent_at,
        } => format!("{at} deliver {channel:?} {msg} {size} {sent_at}"),
        Fired::Timer { tag } => format!("{at} timer {tag}"),
        Fired::Fault(kind) => format!("{at} fault {kind:?}"),
        Fired::DroppedAtDelivery {
            channel,
            msg,
            reason,
        } => format!("{at} drop {channel:?} {msg} {reason:?}"),
    }
}

fn render_sharded(at: SimTime, what: &ShardFired<u64>) -> Option<String> {
    match what {
        ShardFired::Delivered {
            channel,
            msg,
            size,
            sent_at,
        } => Some(format!("{at} deliver {channel:?} {msg} {size} {sent_at}")),
        ShardFired::Timer { tag } => Some(format!("{at} timer {tag}")),
        ShardFired::Fault(kind) => Some(format!("{at} fault {kind:?}")),
        ShardFired::Dropped {
            channel,
            msg,
            reason,
            at_send,
        } => {
            assert!(!at_send, "send-time drop after the projection point");
            Some(format!("{at} drop {channel:?} {msg} {reason:?}"))
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs a case's whole script on a fresh serial kernel and hashes the
/// rendered log: every send outcome and every `Fired` occurrence in order.
/// With `grid`, every event lands on a whole millisecond (faults snapped,
/// timers rounded, zero-size sends over whole-millisecond links), so
/// deliveries, timers, faults and releases often share an instant.
fn mainline_log_hash(seed: u64, grid: bool) -> u64 {
    let mut case = build_case(seed);
    if grid {
        for (at, _) in &mut case.faults {
            *at = SimTime::from_millis(at.as_micros() / 1_000);
        }
    }
    let (mut k, chans) = fresh_kernel(&case);
    let mut log = String::new();
    for op in case.first.iter().chain(&case.second) {
        match *op {
            Op::Send { ch, msg, size } => {
                let size = if grid { 0 } else { size };
                let _ = writeln!(log, "send ch{ch} {:?}", k.send(chans[ch], msg, size));
            }
            Op::Timer { delay_us } => {
                let _ = k.set_timer(if grid {
                    SimDuration::from_millis(delay_us / 5_000)
                } else {
                    SimDuration::from_micros(delay_us)
                });
            }
            Op::Block { ch } => k.block_channel(chans[ch]),
            Op::Unblock { ch } => k.unblock_channel(chans[ch]),
            Op::Steps { n } => {
                for _ in 0..n {
                    let Some((at, fired)) = k.step() else { break };
                    log.push_str(&render_serial(at, &fired));
                    log.push('\n');
                }
            }
            Op::RngDraw => {
                let _ = k.rng().below(1 << 30);
            }
        }
    }
    fnv1a(log.as_bytes())
}

/// Golden event order across kernel versions: the rendered occurrence log
/// of a handful of scripted schedules must hash to the values recorded
/// when they were first pinned. A tie-break change in the event core
/// (same-instant deliveries, timers, faults and releases) fails here
/// rather than only shifting a fingerprint further downstream.
#[test]
fn mainline_event_order_matches_golden_hashes() {
    const GOLDEN: [(u64, u64); 6] = [
        (0, 0xd921caf84db43f7a),
        (1, 0x0b771166b752d663),
        (7, 0x784cc860034d473b),
        (42, 0xac22eb7945c60589),
        (99, 0xc58e1b83593a2250),
        (127, 0xa627f2ee598b805d),
    ];
    let got: Vec<(u64, u64)> = GOLDEN
        .iter()
        .map(|&(seed, _)| (seed, mainline_log_hash(seed, false)))
        .collect();
    assert_eq!(got, GOLDEN.to_vec(), "event order changed");
}

/// The same golden check with every event on a millisecond grid, so the
/// tie-break between same-instant events of every kind is what is pinned.
#[test]
fn same_instant_event_order_matches_golden_hashes() {
    const GOLDEN: [(u64, u64); 6] = [
        (0, 0xd2396f54aa4793bf),
        (1, 0x87f39fae84c5584d),
        (7, 0x30be5ea423f114d5),
        (42, 0x71a35bbb13ec8447),
        (99, 0x104a87292ff1028e),
        (127, 0x24dab887d4d85380),
    ];
    let got: Vec<(u64, u64)> = GOLDEN
        .iter()
        .map(|&(seed, _)| (seed, mainline_log_hash(seed, true)))
        .collect();
    assert_eq!(got, GOLDEN.to_vec(), "same-instant event order changed");
}

/// Drives a sharded kernel to a mid-run barrier, projects it onto a
/// serial fork, then drains both: the remaining streams, final counters
/// and channel stats must agree.
fn check_serial_projection(seed: u64, shards: u32, mode: ExecMode) {
    let mut rng = SimRng::seed_from(seed ^ 0x9A7);
    let topo = topology(seed);
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, mode);
    let chans: Vec<_> = (0..4)
        .map(|_| {
            k.open_channel(
                NodeId(rng.below(NODES) as u32),
                NodeId(rng.below(NODES) as u32),
            )
        })
        .collect();

    let mid = SimTime::from_micros(60_000);
    // All caller inputs land strictly before the projection point so that
    // by `run_until(mid)` every send has routed and every sync command
    // (fault) has executed.
    for i in 0..60u64 {
        let at = SimTime::from_micros(rng.below(55_000));
        let ch = chans[rng.below(chans.len() as u64) as usize];
        match rng.below(10) {
            0 => {
                let node = NodeId(rng.below(NODES) as u32);
                let kind = if rng.chance(0.5) {
                    FaultKind::NodeCrash(node)
                } else {
                    FaultKind::NodeRecover(node)
                };
                k.fault_at(at, kind);
            }
            1 => {
                let _ = k.set_timer_at(SimTime::from_micros(55_000 + rng.below(60_000)));
            }
            _ => k.send_at(at, ch, i, [64, 1024, 16384][rng.below(3) as usize]),
        }
    }

    let mut sharded_log: Vec<String> = Vec::new();
    let _ = k.run_until(mid); // pre-fork stream, not compared
    let fork = k.fork_serial();
    let mut fork = fork.unwrap_or_else(|| panic!("seed {seed}: projection refused at a barrier"));

    // Counters agree at the projection point...
    let at_fork: Vec<(String, u64)> = k
        .counters()
        .iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect();
    let fork_at: Vec<(String, u64)> = fork
        .counters()
        .iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect();
    assert_eq!(at_fork, fork_at, "seed {seed}: counters diverge at fork");

    // ...and the remaining event streams are identical.
    for e in k.drain() {
        if let Some(line) = render_sharded(e.at, &e.what) {
            sharded_log.push(line);
        }
    }
    let mut fork_log: Vec<String> = Vec::new();
    while let Some((at, fired)) = fork.step() {
        fork_log.push(render_serial(at, &fired));
    }
    assert_eq!(
        sharded_log, fork_log,
        "seed {seed} K={shards}: serial projection stream diverged from sharded drain"
    );
    assert!(
        !sharded_log.is_empty(),
        "seed {seed}: nothing pending at the projection point"
    );

    let final_sharded: Vec<(String, u64)> = k
        .counters()
        .iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect();
    let final_fork: Vec<(String, u64)> = fork
        .counters()
        .iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect();
    assert_eq!(
        final_sharded, final_fork,
        "seed {seed}: final counters diverge"
    );
    for &ch in &chans {
        assert_eq!(
            k.channel_stats(ch),
            fork.channel_stats(ch),
            "seed {seed}: channel stats diverge on {ch:?}"
        );
        assert_eq!(
            k.channel_endpoints(ch),
            fork.channel_endpoints(ch),
            "seed {seed}: channel endpoints diverge on {ch:?}"
        );
    }
    let _ = k.link_bytes(LinkId(0));
}

#[test]
fn serial_projection_matches_sharded_drain() {
    for seed in 0..32 {
        check_serial_projection(seed, 4, ExecMode::Inline);
    }
    for seed in 0..4 {
        check_serial_projection(seed, 4, ExecMode::Threads);
    }
}

#[test]
fn serial_projection_refuses_unrouted_sends_and_pending_sync() {
    let topo = topology(1);
    let mut k: ShardedKernel<u64> = ShardedKernel::new(topo, 4);
    let ch = k.open_channel(NodeId(0), NodeId(1));

    // A send scheduled beyond the horizon stays an un-routed command.
    k.send_at(SimTime::from_micros(50_000), ch, 7, 64);
    let _ = k.run_until(SimTime::from_micros(10));
    assert!(
        k.fork_serial().is_none(),
        "projection must refuse while a send command is un-routed"
    );
    let _ = k.drain();
    assert!(
        k.fork_serial().is_some(),
        "projection must succeed once quiescent"
    );

    // A pending synchronous command (future fault) also refuses.
    k.fault_at(
        SimTime::from_micros(90_000),
        FaultKind::NodeCrash(NodeId(2)),
    );
    assert!(
        k.fork_serial().is_none(),
        "projection must refuse while sync commands are queued"
    );
}
