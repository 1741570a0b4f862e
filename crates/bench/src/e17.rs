//! E17 — adversarial scenario factory: mutation-kill score, adaptation
//! state-space coverage, and scenario throughput.
//!
//! The scenario factory (`aas-scenario`) compiles seeded shaking-table
//! trajectories — diurnal + flash-crowd load with a load-correlated
//! crash storm — and the mutation engine replays them against eleven
//! named corruptions of the adaptation logic (detector thresholds,
//! repair planning, failover targeting, guard filters, strategy switch
//! rules). Reported here: the mutation-kill score (the fraction of
//! mutants at least one oracle flags), the adaptation-coverage
//! percentage (visited cells of the detector-phase × repair-policy ×
//! plan-outcome space under an unmutated four-policy sweep), and
//! scenario throughput.
//!
//! Every number except `scenarios_per_sec` is a pure function of the
//! seed set; the engine and coverage fingerprints pin that — the
//! `BENCH_e17.json` artifact records them and
//! `tests/adversarial_scenarios.rs` re-derives them from the recorded
//! seeds on every run.
//!
//! Set `E17_SMOKE=1` for the single-seed CI grid; `E17_FULL=1` for the
//! ten-seed nightly grid.

use crate::table::Table;
use aas_scenario::mutation::run_engine;
use aas_scenario::{coverage_sweep, Mutation};
use std::time::Instant;

/// The reference fast-tier seed set (validated: baseline clean, ten of
/// eleven mutants killed, `reverse-repair-actions` the sole survivor).
pub const FAST_SEEDS: [u64; 3] = [11, 23, 47];

/// The nightly deep-tier seed set (a superset of [`FAST_SEEDS`]).
pub const DEEP_SEEDS: [u64; 10] = [11, 23, 47, 59, 71, 83, 97, 109, 131, 151];

/// Seed grid: `E17_SMOKE` → one seed, `E17_FULL` → the deep ten,
/// otherwise the fast three.
#[must_use]
pub fn seeds() -> Vec<u64> {
    if std::env::var_os("E17_SMOKE").is_some() {
        vec![FAST_SEEDS[0]]
    } else if std::env::var_os("E17_FULL").is_some() {
        DEEP_SEEDS.to_vec()
    } else {
        FAST_SEEDS.to_vec()
    }
}

/// The E17 measurement: engine verdicts + coverage + throughput.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The seeds the engine and the coverage sweep ran.
    pub seeds: Vec<u64>,
    /// Whether the unmutated baseline passed every oracle on every seed.
    pub baseline_clean: bool,
    /// Mutants flagged by at least one seed.
    pub killed: usize,
    /// Mutants run.
    pub total: usize,
    /// `killed / total`.
    pub kill_rate: f64,
    /// Labels of the surviving mutants.
    pub survivors: Vec<&'static str>,
    /// FNV-1a hash of the engine report fingerprint.
    pub engine_fingerprint: u64,
    /// Reachable adaptation cells visited by the four-policy sweep.
    pub coverage_visited: usize,
    /// Size of the reachable-cell model.
    pub coverage_reachable: usize,
    /// `coverage_visited / coverage_reachable`.
    pub coverage_percent: f64,
    /// FNV-1a hash of the coverage report fingerprint.
    pub coverage_fingerprint: u64,
    /// Harness runs executed (baseline + mutants + coverage policies).
    pub scenario_runs: u64,
    /// Harness runs per wall-clock second.
    pub scenarios_per_sec: f64,
}

/// Runs the engine and the coverage sweep over one seed set.
#[must_use]
pub fn run_summary(seeds: &[u64]) -> Summary {
    let t0 = Instant::now();
    let report = run_engine(seeds);
    let cov = coverage_sweep(seeds);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    // Engine: one baseline + |ALL| mutants per seed; sweep: four repair
    // policies per seed.
    let scenario_runs = (seeds.len() * (1 + Mutation::ALL.len() + 4)) as u64;
    Summary {
        seeds: seeds.to_vec(),
        baseline_clean: report.baseline_clean(),
        killed: report.killed(),
        total: report.total(),
        kill_rate: report.kill_rate(),
        survivors: report.survivors().iter().map(|m| m.label()).collect(),
        engine_fingerprint: report.fingerprint_hash(),
        coverage_visited: cov.visited,
        coverage_reachable: cov.reachable,
        coverage_percent: cov.percent,
        coverage_fingerprint: cov.fingerprint_hash(),
        scenario_runs,
        scenarios_per_sec: scenario_runs as f64 / wall,
    }
}

/// Runs the default grid and renders the report table.
#[must_use]
pub fn run() -> Table {
    render(&run_summary(&seeds()))
}

/// Renders the table from a pre-computed summary (bench targets reuse
/// it for the JSON artifact without re-running the grid).
#[must_use]
pub fn render(s: &Summary) -> Table {
    let mut table = Table::new(
        format!(
            "E17: adversarial scenario factory — mutation kill score and \
             adaptation coverage (seeds {:?})",
            s.seeds
        ),
        &[
            "seeds",
            "baseline",
            "killed",
            "kill rate",
            "survivors",
            "coverage",
            "coverage %",
            "runs",
            "scenarios/s",
        ],
    );
    table.row(vec![
        s.seeds.len().to_string(),
        if s.baseline_clean { "clean" } else { "DIRTY" }.to_owned(),
        format!("{}/{}", s.killed, s.total),
        format!("{:.3}", s.kill_rate),
        if s.survivors.is_empty() {
            "-".to_owned()
        } else {
            s.survivors.join(",")
        },
        format!("{}/{}", s.coverage_visited, s.coverage_reachable),
        format!("{:.1}", s.coverage_percent * 100.0),
        s.scenario_runs.to_string(),
        format!("{:.1}", s.scenarios_per_sec),
    ]);
    table
}

/// Renders the summary as the `BENCH_e17.json` artifact (emitted by
/// hand). Fingerprints are hex strings so
/// the reproduction test can compare them textually.
#[must_use]
pub fn to_json(s: &Summary) -> String {
    let seeds: Vec<String> = s.seeds.iter().map(u64::to_string).collect();
    let survivors: Vec<String> = s.survivors.iter().map(|l| format!("\"{l}\"")).collect();
    format!(
        "{{\n  \"experiment\": \"e17\",\n  \"seeds\": [{}],\n  \
         \"baseline_clean\": {},\n  \"mutants_killed\": {},\n  \
         \"mutants_total\": {},\n  \"kill_rate\": {:.3},\n  \
         \"survivors\": [{}],\n  \"engine_fingerprint\": \"{:#018x}\",\n  \
         \"coverage_visited\": {},\n  \"coverage_reachable\": {},\n  \
         \"coverage_percent\": {:.3},\n  \"coverage_fingerprint\": \"{:#018x}\",\n  \
         \"scenario_runs\": {},\n  \"scenarios_per_sec\": {:.1}\n}}\n",
        seeds.join(", "),
        s.baseline_clean,
        s.killed,
        s.total,
        s.kill_rate,
        survivors.join(", "),
        s.engine_fingerprint,
        s.coverage_visited,
        s.coverage_reachable,
        s.coverage_percent,
        s.coverage_fingerprint,
        s.scenario_runs,
        s.scenarios_per_sec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_summary_is_sound_and_deterministic() {
        let a = run_summary(&[FAST_SEEDS[0]]);
        assert!(a.baseline_clean);
        assert!(a.kill_rate >= 0.9, "kill rate {:.3}", a.kill_rate);
        assert_eq!(a.survivors, vec!["reverse-repair-actions"]);
        assert!(a.coverage_percent >= 0.7);
        let b = run_summary(&[FAST_SEEDS[0]]);
        assert_eq!(a.engine_fingerprint, b.engine_fingerprint);
        assert_eq!(a.coverage_fingerprint, b.coverage_fingerprint);
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let json = to_json(&run_summary(&[FAST_SEEDS[0]]));
        assert!(json.contains("\"experiment\": \"e17\""));
        assert!(json.contains("\"engine_fingerprint\": \"0x"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
