//! Fuzzy-logic (Mamdani) control.
//!
//! The paper's "intelligent controllers" for systems "which cannot be
//! expressed using mathematical models such as differential equations":
//! this module implements the fuzzy-logic representative of the soft
//! computing triad the paper names (fuzzy logic, neural networks, genetic
//! algorithms — see DESIGN.md §4 for why one representative suffices).
//!
//! The pieces are general: [`Membership`] functions, [`FuzzySet`]s,
//! [`LinguisticVar`]s and a Mamdani [`FuzzyEngine`] with min-AND, max
//! aggregation and centroid defuzzification. [`FuzzyController`] assembles
//! them into a ready-made two-input (error, Δerror) controller with the
//! classic 5×5 rule matrix.

use crate::Controller;

/// A membership function over ℝ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Membership {
    /// Triangle with feet `a`, `c` and peak `b`.
    Tri(f64, f64, f64),
    /// Trapezoid with feet `a`, `d` and plateau `[b, c]`.
    Trap(f64, f64, f64, f64),
}

impl Membership {
    /// Degree of membership of `x`, in `[0, 1]`.
    #[must_use]
    pub fn degree(&self, x: f64) -> f64 {
        match *self {
            Membership::Tri(a, b, c) => {
                if x <= a || x >= c {
                    0.0
                } else if x == b {
                    1.0
                } else if x < b {
                    (x - a) / (b - a)
                } else {
                    (c - x) / (c - b)
                }
            }
            Membership::Trap(a, b, c, d) => {
                if x <= a || x >= d {
                    0.0
                } else if x < b {
                    (x - a) / (b - a)
                } else if x <= c {
                    1.0
                } else {
                    (d - x) / (d - c)
                }
            }
        }
    }
}

/// A named fuzzy set.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzySet {
    /// Linguistic label, e.g. `"negative-large"`.
    pub name: String,
    /// Its membership function.
    pub mf: Membership,
}

impl FuzzySet {
    /// A new named set.
    #[must_use]
    pub fn new(name: impl Into<String>, mf: Membership) -> Self {
        FuzzySet {
            name: name.into(),
            mf,
        }
    }
}

/// A linguistic variable: a name, a universe of discourse and its sets.
#[derive(Debug, Clone, PartialEq)]
pub struct LinguisticVar {
    /// Variable name, e.g. `"error"`.
    pub name: String,
    /// Universe lower bound.
    pub min: f64,
    /// Universe upper bound.
    pub max: f64,
    /// The fuzzy partition.
    pub sets: Vec<FuzzySet>,
}

impl LinguisticVar {
    /// A new variable over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max`.
    #[must_use]
    pub fn new(name: impl Into<String>, min: f64, max: f64, sets: Vec<FuzzySet>) -> Self {
        assert!(min < max, "universe must satisfy min < max");
        LinguisticVar {
            name: name.into(),
            min,
            max,
            sets,
        }
    }

    /// The standard symmetric 5-set partition (NL, NS, ZE, PS, PL) over
    /// `[-scale, scale]`.
    #[must_use]
    pub fn standard5(name: impl Into<String>, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        let s = scale;
        LinguisticVar::new(
            name,
            -s,
            s,
            vec![
                FuzzySet::new("NL", Membership::Trap(-s * 2.0, -s * 1.5, -s, -s / 2.0)),
                FuzzySet::new("NS", Membership::Tri(-s, -s / 2.0, 0.0)),
                FuzzySet::new("ZE", Membership::Tri(-s / 2.0, 0.0, s / 2.0)),
                FuzzySet::new("PS", Membership::Tri(0.0, s / 2.0, s)),
                FuzzySet::new("PL", Membership::Trap(s / 2.0, s, s * 1.5, s * 2.0)),
            ],
        )
    }

    /// Index of the set named `name`.
    #[must_use]
    pub fn set_index(&self, name: &str) -> Option<usize> {
        self.sets.iter().position(|s| s.name == name)
    }

    /// Fuzzifies `x` (clamped to the universe): degrees per set.
    #[must_use]
    pub fn fuzzify(&self, x: f64) -> Vec<f64> {
        let x = x.clamp(self.min, self.max);
        self.sets.iter().map(|s| s.mf.degree(x)).collect()
    }
}

/// One Mamdani rule: IF in1 is A AND in2 is B THEN out is C, by set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzyRule {
    /// Antecedent set index on input 1.
    pub in1: usize,
    /// Antecedent set index on input 2.
    pub in2: usize,
    /// Consequent set index on the output.
    pub out: usize,
}

/// A two-input, one-output Mamdani inference engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyEngine {
    input1: LinguisticVar,
    input2: LinguisticVar,
    output: LinguisticVar,
    rules: Vec<FuzzyRule>,
    resolution: usize,
}

impl FuzzyEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if any rule references a set out of range, or if there are no
    /// rules.
    #[must_use]
    pub fn new(
        input1: LinguisticVar,
        input2: LinguisticVar,
        output: LinguisticVar,
        rules: Vec<FuzzyRule>,
    ) -> Self {
        assert!(!rules.is_empty(), "engine needs at least one rule");
        for r in &rules {
            assert!(r.in1 < input1.sets.len(), "rule in1 out of range");
            assert!(r.in2 < input2.sets.len(), "rule in2 out of range");
            assert!(r.out < output.sets.len(), "rule out out of range");
        }
        FuzzyEngine {
            input1,
            input2,
            output,
            rules,
            resolution: 101,
        }
    }

    /// Runs one inference: fuzzify, fire rules (min-AND), aggregate (max),
    /// defuzzify (centroid). Returns a crisp output in the output universe.
    #[must_use]
    pub fn infer(&self, x1: f64, x2: f64) -> f64 {
        let d1 = self.input1.fuzzify(x1);
        let d2 = self.input2.fuzzify(x2);
        // Firing strength per output set (max over rules).
        let mut strength = vec![0.0_f64; self.output.sets.len()];
        for r in &self.rules {
            let w = d1[r.in1].min(d2[r.in2]);
            if w > strength[r.out] {
                strength[r.out] = w;
            }
        }
        // Centroid of the clipped, aggregated output surface.
        let (lo, hi) = (self.output.min, self.output.max);
        let step = (hi - lo) / (self.resolution - 1) as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..self.resolution {
            let y = lo + step * i as f64;
            let mut mu: f64 = 0.0;
            for (k, set) in self.output.sets.iter().enumerate() {
                mu = mu.max(set.mf.degree(y).min(strength[k]));
            }
            num += y * mu;
            den += mu;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

/// The classic 5×5 rule matrix for an (error, Δerror) → output controller:
/// rows are error sets, columns Δerror sets, entries output sets.
/// Set order everywhere is `[NL, NS, ZE, PS, PL]`.
const RULE_MATRIX: [[usize; 5]; 5] = [
    // derror:  NL  NS  ZE  PS  PL        error:
    [0, 0, 0, 1, 2], // NL
    [0, 1, 1, 2, 3], // NS
    [0, 1, 2, 3, 4], // ZE
    [1, 2, 3, 3, 4], // PS
    [2, 3, 4, 4, 4], // PL
];

/// A ready-made Mamdani controller over (error, Δerror/dt).
///
/// # Examples
///
/// ```
/// use aas_control::fuzzy::FuzzyController;
/// use aas_control::Controller;
///
/// let mut f = FuzzyController::standard(10.0, 100.0, 5.0);
/// let u1 = f.update(8.0, 0.1);   // large positive error -> push up
/// assert!(u1 > 0.0);
/// let u2 = f.update(-8.0, 0.1);  // large negative error -> push down
/// assert!(u2 < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct FuzzyController {
    engine: FuzzyEngine,
    last_error: Option<f64>,
}

impl FuzzyController {
    /// Builds the standard controller: error over `[-error_scale,
    /// error_scale]`, error derivative over `[-derror_scale, derror_scale]`
    /// and output over `[-output_scale, output_scale]`, with the classic
    /// 5×5 rule matrix.
    #[must_use]
    pub fn standard(error_scale: f64, derror_scale: f64, output_scale: f64) -> Self {
        let input1 = LinguisticVar::standard5("error", error_scale);
        let input2 = LinguisticVar::standard5("derror", derror_scale);
        let output = LinguisticVar::standard5("output", output_scale);
        let mut rules = Vec::with_capacity(25);
        for (i, row) in RULE_MATRIX.iter().enumerate() {
            for (j, &out) in row.iter().enumerate() {
                rules.push(FuzzyRule {
                    in1: i,
                    in2: j,
                    out,
                });
            }
        }
        FuzzyController {
            engine: FuzzyEngine::new(input1, input2, output, rules),
            last_error: None,
        }
    }

    /// Builds a controller from a custom engine.
    #[must_use]
    pub fn from_engine(engine: FuzzyEngine) -> Self {
        FuzzyController {
            engine,
            last_error: None,
        }
    }
}

impl Controller for FuzzyController {
    fn update(&mut self, error: f64, dt: f64) -> f64 {
        if dt <= 0.0 || !dt.is_finite() || !error.is_finite() {
            return 0.0;
        }
        let derror = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);
        self.engine.infer(error, derror)
    }

    fn reset(&mut self) {
        self.last_error = None;
    }

    fn name(&self) -> &str {
        "fuzzy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_membership_shape() {
        let m = Membership::Tri(0.0, 1.0, 2.0);
        assert_eq!(m.degree(-1.0), 0.0);
        assert_eq!(m.degree(0.0), 0.0);
        assert!((m.degree(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(m.degree(1.0), 1.0);
        assert!((m.degree(1.5) - 0.5).abs() < 1e-12);
        assert_eq!(m.degree(2.0), 0.0);
    }

    #[test]
    fn trapezoid_membership_shape() {
        let m = Membership::Trap(0.0, 1.0, 2.0, 3.0);
        assert_eq!(m.degree(0.5), 0.5);
        assert_eq!(m.degree(1.5), 1.0);
        assert_eq!(m.degree(2.5), 0.5);
        assert_eq!(m.degree(5.0), 0.0);
    }

    #[test]
    fn standard5_partition_covers_universe() {
        let v = LinguisticVar::standard5("e", 10.0);
        // Every point in the universe belongs somewhere.
        for i in 0..=100 {
            let x = -10.0 + 0.2 * f64::from(i);
            let total: f64 = v.fuzzify(x).iter().sum();
            assert!(total > 0.0, "uncovered point {x}");
        }
        assert_eq!(v.sets.len(), 5);
        assert_eq!(v.set_index("ZE"), Some(2));
    }

    #[test]
    fn fuzzify_clamps_out_of_range() {
        let v = LinguisticVar::standard5("e", 1.0);
        let far = v.fuzzify(100.0);
        let edge = v.fuzzify(1.0);
        assert_eq!(far, edge);
    }

    #[test]
    fn zero_error_zero_derror_gives_zero_output() {
        let mut f = FuzzyController::standard(10.0, 10.0, 5.0);
        let u = f.update(0.0, 0.1);
        assert!(u.abs() < 1e-9, "output was {u}");
    }

    #[test]
    fn output_is_monotone_in_error() {
        let mut outputs = Vec::new();
        for e in [-10.0, -5.0, 0.0, 5.0, 10.0] {
            let mut f = FuzzyController::standard(10.0, 10.0, 5.0);
            outputs.push(f.update(e, 0.1));
        }
        for w in outputs.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "not monotone: {outputs:?}");
        }
        assert!(outputs[0] < -3.0 && outputs[4] > 3.0);
    }

    #[test]
    fn output_is_antisymmetric() {
        let mut a = FuzzyController::standard(10.0, 10.0, 5.0);
        let mut b = FuzzyController::standard(10.0, 10.0, 5.0);
        let ua = a.update(4.0, 0.1);
        let ub = b.update(-4.0, 0.1);
        assert!((ua + ub).abs() < 1e-6, "{ua} vs {ub}");
    }

    #[test]
    fn derror_damps_response() {
        // Same error, but error is *falling* fast: controller should push
        // less hard than with steady error.
        let mut steady = FuzzyController::standard(10.0, 100.0, 5.0);
        steady.update(5.0, 0.1);
        let u_steady = steady.update(5.0, 0.1);
        let mut falling = FuzzyController::standard(10.0, 100.0, 5.0);
        falling.update(10.0, 0.1);
        let u_falling = falling.update(5.0, 0.1); // derror = -50
        assert!(
            u_falling < u_steady,
            "falling {u_falling} !< steady {u_steady}"
        );
    }

    #[test]
    fn output_bounded_by_universe() {
        let mut f = FuzzyController::standard(1.0, 1.0, 2.0);
        for e in [-100.0, -1.0, 0.3, 50.0] {
            let u = f.update(e, 0.1);
            assert!((-2.0..=2.0).contains(&u), "out of bounds: {u}");
        }
    }

    #[test]
    fn garbage_inputs_yield_zero() {
        let mut f = FuzzyController::standard(1.0, 1.0, 1.0);
        assert_eq!(f.update(f64::INFINITY, 0.1), 0.0);
        assert_eq!(f.update(1.0, 0.0), 0.0);
    }

    #[test]
    fn reset_clears_derivative_memory() {
        let mut f = FuzzyController::standard(10.0, 10.0, 5.0);
        f.update(10.0, 0.1);
        f.reset();
        let mut g = FuzzyController::standard(10.0, 10.0, 5.0);
        assert_eq!(f.update(3.0, 0.1), g.update(3.0, 0.1));
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn empty_rulebase_rejected() {
        let v = LinguisticVar::standard5("x", 1.0);
        let _ = FuzzyEngine::new(v.clone(), v.clone(), v, Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rule_index_rejected() {
        let v = LinguisticVar::standard5("x", 1.0);
        let _ = FuzzyEngine::new(
            v.clone(),
            v.clone(),
            v,
            vec![FuzzyRule {
                in1: 9,
                in2: 0,
                out: 0,
            }],
        );
    }
}
