//! Ground-truth Pareto fronts and the search-quality harness.
//!
//! The paper's deliverable is the energy / delay / PRD *trade-off
//! front*, so the correctness contract worth machine-checking is front
//! **quality**, not merely searcher determinism. At batch-kernel speed
//! the reduced scenario spaces below are exhaustively enumerable in
//! well under a second each, which makes the exact front computable,
//! snapshotable (`benchmarks/golden/truth_*.txt`, bitwise-tested) and
//! usable as the reference that NSGA-II and MOSA are gated against
//! (`crates/dse/tests/search_quality.rs`, also a named CI step).
//!
//! # Scenarios
//!
//! Each scenario is a *reduced, fully on-axis* slice of the canonical
//! case study — every axis value sits on the dense-interning axes, so
//! the exhaustive sweep runs entirely through the `SoA` fast path:
//!
//! - **paper-2node** — the full canonical axes on a 2-node deployment
//!   (813 120 points): the complete per-node trade space at the
//!   smallest deployment, no slicing at all.
//! - **coarse-3node** — 3 nodes with the CR axis thinned to four
//!   canonical values (430 080 points): deeper deployment, coarser
//!   per-node grid.
//! - **wide-6node-slice** — the paper's 6-node deployment with the
//!   extreme CR/fµC corners and the largest payload (86 016 points):
//!   full network width, corner-of-the-space resolution.
//!
//! # Reference-point convention
//!
//! Quality is measured inside the box `[ideal, reference]` derived from
//! the **truth** front alone (never from a searcher front, which would
//! let a bad front move its own goalposts): `ideal` is the
//! componentwise best (minimum) over the true front, and `reference`
//! sits [`REFERENCE_MARGIN`] of the front's span beyond the
//! componentwise worst. The margin keeps worst-corner points from
//! contributing exactly zero volume (the standard nadir + ε
//! convention), while staying tight enough that the volume is dominated
//! by real trade-off structure rather than empty box.
//!
//! # Threshold rationale
//!
//! Both searchers are gated on two complementary statistics against the
//! truth inside that box, estimated with the *same* seeded Monte-Carlo
//! sampler ([`MC_SAMPLES`] / [`MC_SEED`]) so sampling error largely
//! cancels in the ratio:
//!
//! - **Hypervolume ratio** (searcher HV / truth HV) measures how much
//!   of the dominated volume the searcher recovered — insensitive to
//!   missing a few extreme points, sensitive to missing whole regions.
//! - **Front coverage** (`coverage(searcher, truth)`) measures what
//!   fraction of the individual true trade-offs the searcher weakly
//!   dominates — sensitive to exactly the point-level misses that
//!   hypervolume forgives.
//!
//! The floors ([`NSGA2_MIN_HYPERVOLUME_RATIO`] &c.) are set from
//! measured runs (see `benchmarks/BENCH_dse.json` and the ROADMAP
//! ground-truth item). At the default seeded budgets the measurements
//! are deterministic: NSGA-II recovers 100 % hypervolume and
//! 98.6–100 % front coverage on every scenario; MOSA (one annealing
//! walk, much smaller archive) recovers 95.8–99.97 % hypervolume but
//! only 8.6–41.7 % coverage. The floors sit below the measured minima
//! with headroom for benign seed/budget changes — they are tripwires
//! for *searcher regressions* (selection, crossover, archive bugs),
//! not tight SLOs on stochastic search performance; `bench_gate`
//! enforces them as absolute lower bounds, not tolerance bands around
//! a baseline.

use crate::evaluator::Evaluator;
use crate::exhaustive::exhaustive_incremental;
use crate::objective::ObjectiveVector;
use crate::quality::{coverage, hypervolume_monte_carlo};
use wbsn_model::space::DesignSpace;
use wbsn_model::units::Hertz;

/// Hard cap on scenario size: truth computation is a tier-1 test, so
/// every scenario must stay exhaustively enumerable in sub-second time.
pub const TRUTH_LIMIT: u128 = 2_000_000;

/// Fraction of the truth front's per-axis span added beyond its worst
/// corner to place the hypervolume reference point.
pub const REFERENCE_MARGIN: f64 = 0.10;

/// Monte-Carlo samples per hypervolume estimate. With the quality box
/// normalized to the truth front's span, the estimator's absolute error
/// is ≈ `volume / sqrt(samples)` ≈ 0.5 % of the box — far inside the
/// headroom between measured quality and the gate floors.
pub const MC_SAMPLES: usize = 50_000;

/// Seed of every harness hypervolume estimate: truth and searcher
/// volumes are sampled with the identical stream, so the ratio's
/// sampling error largely cancels.
pub const MC_SEED: u64 = 0x0DAC_2012;

/// NSGA-II must recover at least this hypervolume fraction of truth.
pub const NSGA2_MIN_HYPERVOLUME_RATIO: f64 = 0.95;
/// NSGA-II must weakly dominate at least this fraction of true points.
pub const NSGA2_MIN_FRONT_COVERAGE: f64 = 0.60;
/// MOSA must recover at least this hypervolume fraction of truth.
pub const MOSA_MIN_HYPERVOLUME_RATIO: f64 = 0.90;
/// MOSA must weakly dominate at least this fraction of true points.
pub const MOSA_MIN_FRONT_COVERAGE: f64 = 0.05;

/// One ground-truth scenario: a named, reduced, fully on-axis design
/// space small enough to enumerate exhaustively.
#[derive(Debug, Clone)]
pub struct TruthScenario {
    /// Stable name — keys the golden snapshot file and bench fields.
    pub name: &'static str,
    /// The (reduced) space the truth front is exact over.
    pub space: DesignSpace,
}

/// The full canonical axes on a 2-node deployment.
#[must_use]
pub fn paper_2node() -> TruthScenario {
    TruthScenario { name: "paper-2node", space: DesignSpace::case_study(2) }
}

/// Three nodes over a four-value CR sub-axis (all on-axis).
#[must_use]
pub fn coarse_3node() -> TruthScenario {
    let mut space = DesignSpace::case_study(3);
    space.cr_values = vec![0.17, 0.24, 0.31, 0.38];
    TruthScenario { name: "coarse-3node", space }
}

/// The 6-node deployment at the CR/fµC corners, largest payload only.
#[must_use]
pub fn wide_6node_slice() -> TruthScenario {
    let mut space = DesignSpace::case_study(6);
    space.cr_values = vec![0.17, 0.38];
    space.f_mcu_values = vec![Hertz::from_mhz(4.0), Hertz::from_mhz(8.0)];
    space.payload_values = vec![114];
    TruthScenario { name: "wide-6node-slice", space }
}

/// All harness scenarios, in golden-snapshot order.
#[must_use]
pub fn scenarios() -> Vec<TruthScenario> {
    vec![paper_2node(), coarse_3node(), wide_6node_slice()]
}

/// The exact Pareto front of one scenario, with the sweep statistics
/// the golden snapshot records.
#[derive(Debug, Clone)]
pub struct TruthFront {
    /// Scenario name.
    pub scenario: &'static str,
    /// Points enumerated (the space's cardinality).
    pub cardinality: u128,
    /// Feasible points among them.
    pub feasible: u64,
    /// The non-dominated objective vectors, sorted lexicographically by
    /// `total_cmp` per axis — a canonical order independent of the
    /// enumeration (payloads are deliberately excluded: objective ties
    /// keep the first-enumerated point, which is order-dependent).
    pub objectives: Vec<ObjectiveVector>,
}

impl TruthFront {
    /// Computes the exact front by exhaustive enumeration through the
    /// axis-major incremental sweep. The sweep is fused and parallel:
    /// each worker decodes, evaluates and Pareto-filters its own
    /// 1024-point chunks, and the chunk fronts merge in chunk order, so
    /// the front equals a one-point-at-a-time serial pass through the
    /// scalar model (tested at several thread counts) and, as a set,
    /// the canonical sweep's.
    ///
    /// # Panics
    ///
    /// Panics if the scenario exceeds [`TRUTH_LIMIT`] points or if its
    /// space has no feasible point.
    #[must_use]
    pub fn compute(scenario: &TruthScenario, evaluator: &dyn Evaluator) -> Self {
        let result = exhaustive_incremental(&scenario.space, evaluator, TRUTH_LIMIT);
        let mut objectives: Vec<ObjectiveVector> = result.front.objectives().copied().collect();
        objectives.sort_by(|a, b| {
            a.values()
                .iter()
                .zip(b.values())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        assert!(!objectives.is_empty(), "truth scenario {} has no feasible point", scenario.name);
        Self {
            scenario: scenario.name,
            cardinality: scenario.space.cardinality(),
            feasible: result.evaluations - result.infeasible,
            objectives,
        }
    }

    /// Componentwise best (minimum) corner of the true front.
    #[must_use]
    pub fn ideal(&self) -> Vec<f64> {
        self.corner(f64::min)
    }

    /// Hypervolume reference point: componentwise worst corner pushed
    /// [`REFERENCE_MARGIN`] of the front's span outward (see the module
    /// docs for the convention and why it never derives from searcher
    /// fronts).
    #[must_use]
    pub fn reference(&self) -> Vec<f64> {
        let best = self.corner(f64::min);
        let worst = self.corner(f64::max);
        best.iter()
            .zip(&worst)
            .map(|(b, w)| {
                let span = w - b;
                assert!(span > 0.0, "degenerate truth front axis (span {span})");
                w + REFERENCE_MARGIN * span
            })
            .collect()
    }

    /// Seeded Monte-Carlo hypervolume of `front` inside this truth's
    /// quality box.
    #[must_use]
    pub fn hypervolume_of(&self, front: &[ObjectiveVector]) -> f64 {
        hypervolume_monte_carlo(front, &self.ideal(), &self.reference(), MC_SAMPLES, MC_SEED)
    }

    /// Quality of a searcher front against this truth.
    #[must_use]
    pub fn quality_of(&self, front: &[ObjectiveVector]) -> SearchQuality {
        let truth_hv = self.hypervolume_of(&self.objectives);
        assert!(truth_hv > 0.0, "truth front must dominate part of its own quality box");
        SearchQuality {
            hypervolume_ratio: self.hypervolume_of(front) / truth_hv,
            front_coverage: coverage(front, &self.objectives),
        }
    }

    /// Renders the canonical golden-snapshot text: a self-describing
    /// header plus one `energy delay prd` line per front point, each
    /// value in Rust's shortest-round-trip `{}` form (bit-exact: two
    /// runs producing the same front produce identical bytes).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# truth front: {}", self.scenario);
        let _ = writeln!(out, "# space points: {}", self.cardinality);
        let _ = writeln!(out, "# feasible: {}", self.feasible);
        let _ = writeln!(out, "# front size: {}", self.objectives.len());
        let _ = writeln!(out, "# columns: energy delay prd (sorted lexicographically)");
        for o in &self.objectives {
            let v = o.values();
            let _ = writeln!(out, "{} {} {}", v[0], v[1], v[2]);
        }
        out
    }

    fn corner(&self, pick: fn(f64, f64) -> f64) -> Vec<f64> {
        let dims = self.objectives[0].len();
        let mut corner = self.objectives[0].values().to_vec();
        for o in &self.objectives {
            for d in 0..dims {
                corner[d] = pick(corner[d], o.values()[d]);
            }
        }
        corner
    }
}

/// The two gated statistics of one searcher front vs one truth front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchQuality {
    /// Searcher hypervolume / truth hypervolume (same box, same seed).
    pub hypervolume_ratio: f64,
    /// Fraction of true points the searcher weakly dominates.
    pub front_coverage: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ModelEvaluator;

    #[test]
    fn scenario_sizes_stay_enumerable() {
        for s in scenarios() {
            let n = s.space.cardinality();
            assert!(n <= TRUTH_LIMIT, "{}: {n} points", s.name);
            assert!(n >= 10_000, "{}: {n} points — too small to mean anything", s.name);
        }
    }

    #[test]
    fn scenario_axes_are_canonical() {
        use wbsn_model::space::{cr_axis_index, f_mcu_axis_index};
        for s in scenarios() {
            for &cr in &s.space.cr_values {
                assert!(cr_axis_index(cr).is_some(), "{}: off-axis CR {cr}", s.name);
            }
            for &f in &s.space.f_mcu_values {
                assert!(f_mcu_axis_index(f).is_some(), "{}: off-axis fµC {f:?}", s.name);
            }
        }
    }

    #[test]
    fn truth_front_is_sorted_deduped_and_self_consistent() {
        // The smallest scenario keeps this a fast tier-1 test; the full
        // set runs in the search_quality harness and the golden test.
        let scenario = wide_6node_slice();
        let truth = TruthFront::compute(&scenario, &ModelEvaluator::shimmer());
        assert_eq!(truth.cardinality, scenario.space.cardinality());
        assert!(truth.feasible > 0);
        assert!(u128::from(truth.feasible) <= truth.cardinality);
        for w in truth.objectives.windows(2) {
            let le = w[0]
                .values()
                .iter()
                .zip(w[1].values())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal);
            assert_ne!(le, std::cmp::Ordering::Greater, "front must be sorted");
        }
        // Perfect self-quality: identical front, identical sampling.
        let q = truth.quality_of(&truth.objectives);
        assert!((q.hypervolume_ratio - 1.0).abs() < 1e-12);
        assert!((q.front_coverage - 1.0).abs() < 1e-12);
        // The box is well-formed.
        let (ideal, reference) = (truth.ideal(), truth.reference());
        assert!(ideal.iter().zip(&reference).all(|(i, r)| i < r && i.is_finite() && r.is_finite()));
        // Render round-trips deterministically.
        assert_eq!(truth.render(), truth.render());
        assert!(truth.render().lines().count() == truth.objectives.len() + 5);
    }
}
