//! End-to-end and per-layer benchmark of `aas_core::runtime::Runtime`.
//!
//! ```text
//! aas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer split; see `README.md` beside this package.

mod alloc;
mod calib;
mod report;
mod trace;
mod workload;

use aas_sim::time::SimTime;
use report::{median, Metric, Record};
use std::time::Instant;
use trace::Traced;
use workload::{drive, time_setups, Kind, Plain, RunOut, Rung, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest rounds of a traced run.
const MIN_ROUNDS: usize = 4;
/// Set-ups timed before each repetition.
const SETUPS_PER_REP: usize = 16;
/// Fewest measured repetitions of a workload in one run: two of each
/// instance.
const MIN_REPS: usize = 2 * workload::INSTANCES as usize;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u32 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        kind,
        seed,
        seconds: f64::from(seconds),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aas-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut record = Record::new(args.kind.name(), args.seed, args.seconds, args.trace);
    let result = alloc::self_test().and_then(|()| {
        let ws = Workload::instances(args.kind, args.seed);
        if args.trace {
            traced(&ws, args.seconds, &mut record)
        } else {
            untraced(&ws, args.seconds, &mut record)
        }
    });
    let ok = result.is_ok();
    if let Err(e) = result {
        eprintln!("aas-perfbench: check failed: {e}");
        record.failure(&e);
    }
    println!("{}", record.render_record());
    println!("{}", record.render_result());
    std::process::exit(if ok { 0 } else { 1 });
}

/// Runs `w` once on a fresh runtime with the untraced probe.
fn plain_rep(w: &Workload, rung: Rung) -> Result<RunOut, String> {
    let mut rt = w.build(false, rung);
    drive(w, &mut rt, &mut Plain)
}

/// Fails unless `out` simulated exactly what `base` did.
fn same_outcome(what: &str, base: &RunOut, out: &RunOut) -> Result<(), String> {
    if out.fingerprint != base.fingerprint {
        return Err(format!(
            "{what}: simulated outcome {:016x} differs from {:016x}",
            out.fingerprint, base.fingerprint
        ));
    }
    Ok(())
}

/// Fails unless `out` also allocated exactly as `base` did.
fn same_allocs(what: &str, base: &RunOut, out: &RunOut) -> Result<(), String> {
    same_outcome(what, base, out)?;
    if out.allocs != base.allocs {
        return Err(format!(
            "{what}: {} run-phase allocations, {} before",
            out.allocs, base.allocs
        ));
    }
    Ok(())
}

fn ns_per_msg(out: &RunOut) -> f64 {
    out.run_s * 1e9 / out.injected as f64
}

/// The per-instance reference outcome: the first repetition of each
/// instance. Later repetitions must simulate and allocate exactly as it
/// did.
struct References(Vec<Option<RunOut>>);

impl References {
    fn new() -> Self {
        References(vec![None; workload::INSTANCES as usize])
    }

    fn check(&mut self, what: &str, i: usize, out: &RunOut) -> Result<(), String> {
        match &self.0[i] {
            Some(base) => same_allocs(what, base, out),
            None => {
                self.0[i] = Some(out.clone());
                Ok(())
            }
        }
    }

    /// Every instance's reference, once each has run.
    fn all(&self) -> Vec<&RunOut> {
        self.0.iter().flatten().collect()
    }

    /// One fingerprint over all instances' outcomes.
    fn fingerprint(&self) -> u64 {
        self.all()
            .iter()
            .fold(0, |acc, r| acc.rotate_left(17) ^ r.fingerprint)
    }
}

fn untraced(ws: &[Workload], seconds: f64, record: &mut Record) -> Result<(), String> {
    let mut setups = Vec::new();
    // Warm-up: faults code and allocator pools in before timing.
    plain_rep(&ws[0], Rung::default())?;
    let start = Instant::now();
    let mut refs = References::new();
    let (mut reps, mut rates, mut raw_rates, mut speeds) = (0, Vec::new(), Vec::new(), Vec::new());
    let mut before = calib::reference_s();
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let i = reps % ws.len();
        let w = &ws[i];
        let scale = calib::REFERENCE_S / before;
        setups.extend(time_setups(w, SETUPS_PER_REP).iter().map(|s| s * scale));
        let out = plain_rep(w, Rung::default())?;
        let after = calib::reference_s();
        let rate = out.injected as f64 / out.run_s;
        rates.push(rate * (before + after) / 2.0 / calib::REFERENCE_S);
        raw_rates.push(rate);
        speeds.push(after);
        before = after;
        refs.check("repetition", i, &out)?;
        record.attempted += out.injected;
        record.late += out.late;
        reps += 1;
    }
    record.reps = reps;
    record.fingerprint = refs.fingerprint();
    let all = refs.all();
    let sum = |f: fn(&RunOut) -> u64| all.iter().map(|r| f(r) as f64).sum::<f64>();
    let injected = sum(|r| r.injected);
    let failed_frac = sum(|r| r.failures) / injected;
    record.push(Metric::new("msgs_per_s", "1/s", rates));
    record.push(Metric::new(
        "allocs_per_msg",
        "count",
        vec![sum(|r| r.allocs) / injected],
    ));
    record.push(Metric::new(
        "peak_rss_mb",
        "MB",
        vec![report::peak_rss_mb()?],
    ));
    record.push(Metric::new("setup_s", "s", setups));
    record.push(Metric::new(
        "sim_goodput_frac",
        "frac",
        vec![sum(|r| r.goodput) / sum(|r| r.owed)],
    ));
    record.push(Metric::new("ok_frac", "frac", vec![1.0 - failed_frac]));
    record.note("failed_frac", failed_frac);
    let p99: Vec<f64> = all.iter().map(|r| r.p99_ms).collect();
    record.note("sim_p99_ms", median(&p99));
    record.note("unscaled_msgs_per_s", median(&raw_rates));
    record.note("reference_s", median(&speeds));
    Ok(())
}

/// Simulated horizon of the ladder's pipeline runs.
const LADDER_HORIZON: SimTime = SimTime::from_secs(2);
/// Ladder triples (full, aspects stripped, detector added) per round.
const LADDER_TRIPLES: usize = 10;

/// The `pipeline_steady` ladder: host ns per message of the full run
/// minus the run with aspects stripped, and of the run with a detector
/// added minus the full run. The three rungs run back to back, in
/// rotating order, [`LADDER_TRIPLES`] times; each figure is the median of
/// the per-triple differences, so drift of the host's speed cancels.
/// Both rungs must simulate exactly what the full run does.
fn ladder(pipe: &Workload, i: usize, refs: &mut [References; 3]) -> Result<(f64, f64), String> {
    let rungs = [
        Rung::default(),
        Rung {
            strip_aspects: true,
            ..Rung::default()
        },
        Rung {
            add_detector: true,
            ..Rung::default()
        },
    ];
    let (mut aspects, mut detector) = (Vec::new(), Vec::new());
    for t in 0..LADDER_TRIPLES {
        let mut ns = [0.0; 3];
        for k in 0..3 {
            let r = (t + k) % 3;
            let out = plain_rep(pipe, rungs[r])?;
            refs[r].check("ladder rung", i, &out)?;
            let full = refs[0].0[i]
                .as_ref()
                .expect("each triple's first run is full");
            same_outcome("ladder rung", full, &out)?;
            ns[r] = ns_per_msg(&out);
        }
        aspects.push(ns[0] - ns[1]);
        detector.push(ns[2] - ns[0]);
    }
    Ok((median(&aspects), median(&detector)))
}

/// One round of the traced run's measurements: name, unit, value.
type Round = Vec<(&'static str, &'static str, f64)>;

fn traced(ws: &[Workload], seconds: f64, record: &mut Record) -> Result<(), String> {
    // The ladder rungs run on a short `pipeline_steady` whatever the
    // workload.
    let pipes: Vec<Workload> = Workload::instances(Kind::PipelineSteady, record.seed())
        .into_iter()
        .map(|p| p.truncated(LADDER_HORIZON))
        .collect();
    plain_rep(&ws[0], Rung::default())?;
    let start = Instant::now();
    let mut refs = References::new();
    let mut pipe_refs = [References::new(), References::new(), References::new()];
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let i = rounds.len() % ws.len();
        let (w, pipe) = (&ws[i], &pipes[i]);
        let plain = plain_rep(w, Rung::default())?;
        refs.check("untraced repetition", i, &plain)?;

        let mut probe = Traced::with_capacity(plain.steps as usize);
        let mut rt = w.build(true, Rung::default());
        let (comp_ns0, calls0) = workload::component_totals();
        let out = drive(w, &mut rt, &mut probe)?;
        let (comp_ns, calls) = workload::component_totals();
        let (comp_ns, calls) = ((comp_ns - comp_ns0) as f64, (calls - calls0) as f64);
        same_allocs("traced repetition", &plain, &out)?;

        let (aspects_ns, detector_ns) = ladder(pipe, i, &mut pipe_refs)?;

        let (hop_ns, hop_allocs) = trace::kernel_replay(w, out.kernel_sent);
        let [direct, aspects, broadcast] = trace::mediate_ns(&w.frame);
        record.attempted += plain.injected + out.injected;

        let n = out.injected as f64;
        let mut step_ns = probe.step_ns.clone();
        step_ns.sort_unstable();
        let pct = |q: f64| report::percentile(&step_ns, q);
        let med = |v: &[u64]| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let self_ns =
            probe.msg_ns as f64 - probe.msg_component_ns as f64 - hop_ns * out.kernel_sent as f64;
        rounds.push(vec![
            ("runtime.step_ns.p50", "ns", pct(0.50)),
            ("runtime.step_ns.p99", "ns", pct(0.99)),
            ("runtime.steps_per_msg", "count", out.steps as f64 / n),
            ("runtime.self_ns_per_msg", "ns", self_ns / n),
            (
                "runtime.allocs_per_msg",
                "count",
                (out.allocs - out.component_allocs) as f64 / n,
            ),
            ("kernel.ns_per_hop", "ns", hop_ns),
            ("kernel.allocs_per_hop", "count", hop_allocs),
            (
                "kernel.dropped_frac",
                "frac",
                ratio(out.kernel_dropped as f64, out.kernel_sent as f64),
            ),
            ("connector.mediate_ns.direct", "ns", direct),
            ("connector.mediate_ns.aspects", "ns", aspects),
            ("connector.mediate_ns.broadcast", "ns", broadcast),
            ("ladder.aspects.ns_per_msg", "ns", aspects_ns),
            ("component.ns_per_call", "ns", ratio(comp_ns, calls)),
            ("component.calls_per_msg", "count", calls / n),
            (
                "component.allocs_per_call",
                "count",
                ratio(out.component_allocs as f64, calls),
            ),
            ("negotiate.round_ns.p50", "ns", med(&probe.round_ns)),
            ("negotiate.rounds", "count", out.rounds as f64),
            ("negotiate.shed_frac", "frac", out.shed as f64 / n),
            ("detector.ns_per_msg", "ns", detector_ns),
            ("detector.suspicions", "count", out.suspicions as f64),
            (
                "reconfig.ns_per_plan",
                "ns",
                ratio(probe.reconfig_ns as f64, out.plans as f64),
            ),
            (
                "reconfig.plans_committed",
                "count",
                out.plans_committed as f64,
            ),
            (
                "reconfig.commit_ratio",
                "frac",
                ratio(out.plans_committed as f64, out.plans as f64),
            ),
            ("heal.mttr_ms", "ms", out.mttr_ms),
            ("twin.fork_ns", "ns", med(&probe.fork_ns)),
            ("twin.incident_ns", "ns", med(&probe.twin_ns)),
            ("twin.predictions", "count", out.predictions as f64),
            ("meta.observe_ns", "ns", med(&probe.observe_ns)),
            ("trace.overhead_frac", "frac", 1.0 - plain.run_s / out.run_s),
        ]);
    }
    record.reps = rounds.len();
    record.fingerprint = refs.fingerprint();
    for (i, &(name, unit, _)) in rounds[0].iter().enumerate() {
        let values = rounds.iter().map(|r| r[i].2).collect();
        record.push(Metric::new(name, unit, values));
    }
    Ok(())
}
