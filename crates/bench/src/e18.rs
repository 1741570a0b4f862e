//! E18 — digital-twin plan verification: twin-guided repair vs the
//! static E12 failover policy under the scenario-factory storm corpus.
//!
//! Each seed compiles one `aas-scenario` oracle trajectory (diurnal +
//! flash-crowd load with a load-correlated crash storm) and replays it
//! through two otherwise-identical runtimes: the static leg repairs with
//! the fixed failover-migrate policy E12 measured best, the twin leg
//! lets `Runtime::enable_twin` play every candidate repair forward on a
//! forked runtime first and commit the best scorer. Reported here: how
//! often the twin leg beats or ties the static leg on chaos-path
//! availability (the E18 acceptance predicate demands ≥ 90 %), both
//! legs' mean MTTR, the number of twin decisions actually committed, and
//! the mean predicted-vs-actual MTTR error across reconciled
//! `twin_predicted`/`twin_actual` audit pairs.
//!
//! Everything except `scenarios_per_sec` is a pure function of the seed
//! set (both legs are fully deterministic); the corpus fingerprint pins
//! that and lands in the `BENCH_e18.json` artifact.
//!
//! Set `E18_SMOKE=1` for the single-seed CI grid; `E18_FULL=1` for the
//! ten-seed nightly grid.

use crate::table::Table;
use aas_scenario::run_twin_corpus;
use std::time::Instant;

/// The reference fast-tier seed set.
pub const FAST_SEEDS: [u64; 3] = [11, 23, 47];

/// The nightly deep-tier seed set (a superset of [`FAST_SEEDS`]).
pub const DEEP_SEEDS: [u64; 10] = [11, 23, 47, 59, 71, 83, 97, 109, 131, 151];

/// Seed grid: `E18_SMOKE` → one seed, `E18_FULL` → the deep ten,
/// otherwise the fast three.
#[must_use]
pub fn seeds() -> Vec<u64> {
    if std::env::var_os("E18_SMOKE").is_some() {
        vec![FAST_SEEDS[0]]
    } else if std::env::var_os("E18_FULL").is_some() {
        DEEP_SEEDS.to_vec()
    } else {
        FAST_SEEDS.to_vec()
    }
}

/// The E18 measurement: twin-vs-static verdicts over one seed grid.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The seeds the corpus ran.
    pub seeds: Vec<u64>,
    /// Scenarios where the twin leg beat or tied static availability.
    pub wins_or_ties: usize,
    /// Scenarios where the twin leg strictly improved availability.
    pub strict_wins: usize,
    /// `wins_or_ties / seeds` — the E18 acceptance number.
    pub win_or_tie_rate: f64,
    /// Mean chaos-path availability of the static leg.
    pub static_availability: f64,
    /// Mean chaos-path availability of the twin leg.
    pub twin_availability: f64,
    /// Mean static-leg MTTR over completed repairs, in milliseconds.
    pub static_mttr_ms: f64,
    /// Mean twin-leg MTTR over completed repairs, in milliseconds.
    pub twin_mttr_ms: f64,
    /// Twin decisions committed (one `twin_predicted` audit entry each).
    pub twin_decisions: u64,
    /// Predictions reconciled against a completed repair.
    pub twin_reconciled: u64,
    /// Mean |predicted − actual| MTTR over reconciled incidents, in
    /// milliseconds (`None` when nothing reconciled).
    pub mttr_error_ms: Option<f64>,
    /// FNV-1a hash of the corpus fingerprint.
    pub corpus_fingerprint: u64,
    /// Harness runs executed (two legs per seed).
    pub scenario_runs: u64,
    /// Harness runs per wall-clock second.
    pub scenarios_per_sec: f64,
}

/// Runs the twin corpus over one seed set.
#[must_use]
pub fn run_summary(seeds: &[u64]) -> Summary {
    let t0 = Instant::now();
    let report = run_twin_corpus(seeds);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let n = report.comparisons.len().max(1) as f64;
    let mean = |f: &dyn Fn(&aas_scenario::TwinComparison) -> f64| {
        report.comparisons.iter().map(f).sum::<f64>() / n
    };
    let scenario_runs = (seeds.len() * 2) as u64;
    Summary {
        seeds: seeds.to_vec(),
        wins_or_ties: report
            .comparisons
            .iter()
            .filter(|c| c.twin_at_least_as_good())
            .count(),
        strict_wins: report.strict_wins(),
        win_or_tie_rate: report.win_or_tie_rate(),
        static_availability: mean(&|c| c.static_leg.availability),
        twin_availability: mean(&|c| c.twin_leg.availability),
        static_mttr_ms: mean(&|c| c.static_leg.mean_mttr_ms),
        twin_mttr_ms: mean(&|c| c.twin_leg.mean_mttr_ms),
        twin_decisions: report.total_decisions(),
        twin_reconciled: report.comparisons.iter().map(|c| c.twin_reconciled).sum(),
        mttr_error_ms: report.mean_mttr_error_ms(),
        corpus_fingerprint: report.fingerprint_hash(),
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
            "E18: digital-twin plan verification — twin-guided vs static \
             failover repair (seeds {:?})",
            s.seeds
        ),
        &[
            "seeds",
            "win/tie",
            "rate",
            "static avail",
            "twin avail",
            "static mttr ms",
            "twin mttr ms",
            "decisions",
            "mttr err ms",
            "scenarios/s",
        ],
    );
    table.row(vec![
        s.seeds.len().to_string(),
        format!("{}/{}", s.wins_or_ties, s.seeds.len()),
        format!("{:.3}", s.win_or_tie_rate),
        format!("{:.4}", s.static_availability),
        format!("{:.4}", s.twin_availability),
        format!("{:.3}", s.static_mttr_ms),
        format!("{:.3}", s.twin_mttr_ms),
        format!("{}/{}", s.twin_reconciled, s.twin_decisions),
        s.mttr_error_ms
            .map_or("-".to_owned(), |e| format!("{e:.3}")),
        format!("{:.2}", s.scenarios_per_sec),
    ]);
    table
}

/// Renders the summary as the `BENCH_e18.json` artifact (emitted by
/// hand).
#[must_use]
pub fn to_json(s: &Summary) -> String {
    let seeds: Vec<String> = s.seeds.iter().map(u64::to_string).collect();
    format!(
        "{{\n  \"experiment\": \"e18\",\n  \"seeds\": [{}],\n  \
         \"wins_or_ties\": {},\n  \"strict_wins\": {},\n  \
         \"win_or_tie_rate\": {:.3},\n  \"static_availability\": {:.4},\n  \
         \"twin_availability\": {:.4},\n  \"static_mttr_ms\": {:.3},\n  \
         \"twin_mttr_ms\": {:.3},\n  \"twin_decisions\": {},\n  \
         \"twin_reconciled\": {},\n  \"mttr_error_ms\": {},\n  \
         \"corpus_fingerprint\": \"{:#018x}\",\n  \"scenario_runs\": {},\n  \
         \"scenarios_per_sec\": {:.2}\n}}\n",
        seeds.join(", "),
        s.wins_or_ties,
        s.strict_wins,
        s.win_or_tie_rate,
        s.static_availability,
        s.twin_availability,
        s.static_mttr_ms,
        s.twin_mttr_ms,
        s.twin_decisions,
        s.twin_reconciled,
        s.mttr_error_ms
            .map_or("null".to_owned(), |e| format!("{e:.3}")),
        s.corpus_fingerprint,
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
        assert!(
            a.win_or_tie_rate >= 0.9,
            "twin lost to static: {:.3}",
            a.win_or_tie_rate
        );
        assert!(a.static_availability > 0.0);
        assert!(a.twin_availability > 0.0);
        let b = run_summary(&[FAST_SEEDS[0]]);
        assert_eq!(a.corpus_fingerprint, b.corpus_fingerprint);
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let json = to_json(&run_summary(&[FAST_SEEDS[0]]));
        assert!(json.contains("\"experiment\": \"e18\""));
        assert!(json.contains("\"corpus_fingerprint\": \"0x"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
