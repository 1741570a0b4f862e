//! E20 — GORNA negotiation control plane: graceful degradation under
//! 10× overload.
//!
//! The same seeded overload trajectory (10,000 f/s against a stage that
//! sustains ~1,000) is replayed twice per seed: once with every agent
//! running its own reactive admission loop (the uncoordinated baseline)
//! and once with the GORNA coordinator arbitrating a global budget into
//! per-agent grants (floors first, then weighted water-filling).
//! Reported per seed: deadline goodput, availability (deadline-met
//! fraction of admitted frames), Jain fairness over grant fractions, and
//! whether the negotiator *strictly dominates* — more goodput AND no
//! availability collapse while the baseline does collapse. On top of the
//! frontier, the negotiator mutation tier (inflated requests, ignored
//! floors, stale situational model) reports its kill score, and the
//! negotiation coverage sweep its visited adaptation cells.
//!
//! Every number is a pure function of the seed set; the differential,
//! mutation and coverage fingerprints pin that — the `BENCH_e20.json`
//! artifact records them and `tests/negotiation_props.rs` re-derives the
//! acceptance predicate from the same seeds on every run.
//!
//! Set `E20_SMOKE=1` for the single-seed CI grid; `E20_FULL=1` for the
//! nightly grid.

use crate::table::Table;
use aas_scenario::{negotiation_coverage, run_differential, run_negotiation_mutants};
use std::time::Instant;

/// The reference fast-tier seed set (validated: negotiator dominates on
/// every seed, baseline clean, all three mutants killed).
pub const FAST_SEEDS: [u64; 3] = [11, 23, 47];

/// The nightly deep-tier seed set (a superset of [`FAST_SEEDS`]).
pub const DEEP_SEEDS: [u64; 6] = [11, 23, 47, 59, 71, 83];

/// Seed grid: `E20_SMOKE` → one seed, `E20_FULL` → the deep six,
/// otherwise the fast three.
#[must_use]
pub fn seeds() -> Vec<u64> {
    if std::env::var_os("E20_SMOKE").is_some() {
        vec![FAST_SEEDS[0]]
    } else if std::env::var_os("E20_FULL").is_some() {
        DEEP_SEEDS.to_vec()
    } else {
        FAST_SEEDS.to_vec()
    }
}

/// One seed's point on the overload degradation frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The trajectory seed.
    pub seed: u64,
    /// Baseline deadline goodput (frames).
    pub baseline_goodput: u64,
    /// Baseline availability (deadline-met / admitted).
    pub baseline_availability: f64,
    /// Negotiated deadline goodput (frames).
    pub negotiated_goodput: u64,
    /// Negotiated availability.
    pub negotiated_availability: f64,
    /// Jain fairness over the final round's grant fractions.
    pub jain: f64,
    /// Whether the negotiator strictly dominated on this seed.
    pub dominates: bool,
    /// FNV-1a hash of the full differential fingerprint.
    pub fingerprint: u64,
}

/// The E20 measurement: frontier + mutation tier + coverage.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The seeds the differential, mutation tier and coverage sweep ran.
    pub seeds: Vec<u64>,
    /// One frontier point per seed, in seed order.
    pub frontier: Vec<FrontierPoint>,
    /// Whether the negotiator dominated on every seed.
    pub all_dominate: bool,
    /// Whether the unmutated coordinator passed every oracle.
    pub baseline_clean: bool,
    /// Negotiator mutants killed.
    pub killed: usize,
    /// Negotiator mutants run.
    pub total: usize,
    /// `killed / total`.
    pub kill_rate: f64,
    /// FNV-1a hash of the mutation report fingerprint.
    pub mutation_fingerprint: u64,
    /// Reachable adaptation cells visited by the negotiation sweep.
    pub coverage_visited: usize,
    /// Size of the reachable-cell model.
    pub coverage_reachable: usize,
    /// FNV-1a hash of the coverage report fingerprint.
    pub coverage_fingerprint: u64,
    /// Overload runs executed (2 differential + 4 mutation-tier + 2
    /// coverage runs per seed).
    pub scenario_runs: u64,
    /// Overload runs per wall-clock second.
    pub runs_per_sec: f64,
}

/// Runs the differential, the mutation tier and the coverage sweep over
/// one seed set.
#[must_use]
pub fn run_summary(seeds: &[u64]) -> Summary {
    let t0 = Instant::now();
    let frontier: Vec<FrontierPoint> = seeds
        .iter()
        .map(|&seed| {
            let d = run_differential(seed);
            FrontierPoint {
                seed,
                baseline_goodput: d.baseline.goodput(),
                baseline_availability: d.baseline.availability(),
                negotiated_goodput: d.negotiated.goodput(),
                negotiated_availability: d.negotiated.availability(),
                jain: d.negotiated.jain,
                dominates: d.negotiated_dominates(),
                fingerprint: d.fingerprint_hash(),
            }
        })
        .collect();
    let mutants = run_negotiation_mutants(seeds);
    let cov = negotiation_coverage(seeds);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    // Differential: 2 runs per seed; mutation tier: baseline + 3 mutants
    // per seed; coverage: overload + storm run per seed.
    let scenario_runs = (seeds.len() * (2 + 4 + 2)) as u64;
    Summary {
        seeds: seeds.to_vec(),
        all_dominate: frontier.iter().all(|p| p.dominates),
        frontier,
        baseline_clean: mutants.baseline_clean(),
        killed: mutants.killed(),
        total: mutants.verdicts.len(),
        kill_rate: mutants.kill_rate(),
        mutation_fingerprint: mutants.fingerprint_hash(),
        coverage_visited: cov.visited,
        coverage_reachable: cov.reachable,
        coverage_fingerprint: cov.fingerprint_hash(),
        scenario_runs,
        runs_per_sec: scenario_runs as f64 / wall,
    }
}

/// Runs the default grid and renders the report table.
#[must_use]
pub fn run() -> Table {
    render(&run_summary(&seeds()))
}

/// Renders the overload frontier table from a pre-computed summary.
#[must_use]
pub fn render(s: &Summary) -> Table {
    let mut table = Table::new(
        format!(
            "E20: GORNA negotiation vs independent loops at 10x overload \
             (seeds {:?}; baseline {}, mutants {}/{}, coverage {}/{})",
            s.seeds,
            if s.baseline_clean { "clean" } else { "DIRTY" },
            s.killed,
            s.total,
            s.coverage_visited,
            s.coverage_reachable,
        ),
        &[
            "seed",
            "base goodput",
            "base avail",
            "nego goodput",
            "nego avail",
            "jain",
            "dominates",
        ],
    );
    for p in &s.frontier {
        table.row(vec![
            p.seed.to_string(),
            p.baseline_goodput.to_string(),
            format!("{:.3}", p.baseline_availability),
            p.negotiated_goodput.to_string(),
            format!("{:.3}", p.negotiated_availability),
            format!("{:.3}", p.jain),
            if p.dominates { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    table
}

/// Renders the summary as the `BENCH_e20.json` artifact (emitted by
/// hand). Fingerprints are hex strings so
/// reproduction checks can compare them textually.
#[must_use]
pub fn to_json(s: &Summary) -> String {
    let seeds: Vec<String> = s.seeds.iter().map(u64::to_string).collect();
    let frontier: Vec<String> = s
        .frontier
        .iter()
        .map(|p| {
            format!(
                "{{\"seed\": {}, \"baseline_goodput\": {}, \
                 \"baseline_availability\": {:.4}, \"negotiated_goodput\": {}, \
                 \"negotiated_availability\": {:.4}, \"jain\": {:.4}, \
                 \"dominates\": {}, \"fingerprint\": \"{:#018x}\"}}",
                p.seed,
                p.baseline_goodput,
                p.baseline_availability,
                p.negotiated_goodput,
                p.negotiated_availability,
                p.jain,
                p.dominates,
                p.fingerprint,
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"e20\",\n  \"seeds\": [{}],\n  \
         \"all_dominate\": {},\n  \"baseline_clean\": {},\n  \
         \"mutants_killed\": {},\n  \"mutants_total\": {},\n  \
         \"kill_rate\": {:.3},\n  \"mutation_fingerprint\": \"{:#018x}\",\n  \
         \"coverage_visited\": {},\n  \"coverage_reachable\": {},\n  \
         \"coverage_fingerprint\": \"{:#018x}\",\n  \"scenario_runs\": {},\n  \
         \"runs_per_sec\": {:.1},\n  \"frontier\": [\n    {}\n  ]\n}}\n",
        seeds.join(", "),
        s.all_dominate,
        s.baseline_clean,
        s.killed,
        s.total,
        s.kill_rate,
        s.mutation_fingerprint,
        s.coverage_visited,
        s.coverage_reachable,
        s.coverage_fingerprint,
        s.scenario_runs,
        s.runs_per_sec,
        frontier.join(",\n    "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_summary_is_sound_and_deterministic() {
        let a = run_summary(&[FAST_SEEDS[0]]);
        assert!(a.all_dominate, "frontier: {:?}", a.frontier);
        assert!(a.baseline_clean);
        assert_eq!((a.killed, a.total), (3, 3));
        assert_eq!(a.coverage_reachable, 25);
        let b = run_summary(&[FAST_SEEDS[0]]);
        assert_eq!(
            a.frontier[0].fingerprint, b.frontier[0].fingerprint,
            "differential not byte-identical across replays"
        );
        assert_eq!(a.mutation_fingerprint, b.mutation_fingerprint);
        assert_eq!(a.coverage_fingerprint, b.coverage_fingerprint);
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let json = to_json(&run_summary(&[FAST_SEEDS[0]]));
        assert!(json.contains("\"experiment\": \"e20\""));
        assert!(json.contains("\"mutation_fingerprint\": \"0x"));
        assert!(json.contains("\"dominates\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
