//! Bridges between design points and objective vectors.
//!
//! [`ModelEvaluator`] is the paper's proposal: the three-objective
//! (energy, delay, PRD) analytical model. [`EnergyDelayEvaluator`] is the
//! state-of-the-art baseline the paper compares against ([26]): the same
//! energy/delay physics but *blind to application quality* — the reason
//! it recovers only ~7 % of the true trade-offs (Fig. 5).
//!
//! Both model-backed evaluators override [`Evaluator::evaluate_batch`]
//! with a parallel implementation whose per-worker engine is the
//! struct-of-arrays kernel (`wbsn_model::soa`), **keyed on the batch's
//! node count**: narrow networks (the ≈6-node case study) run the
//! straight per-point [`WbsnModel::evaluate_objectives_batch`] walk,
//! while wide deployments (≥ [`GROUPED_MIN_NODES`] nodes) run the
//! MAC-grouped [`WbsnModel::evaluate_objectives_batch_grouped`] variant
//! whose transposed `node × point` tiles only pay off once networks are
//! wide enough to amortize the permutation. Both run through interned
//! dense node/MAC tables held in a pooled [`SoaScratch`]. Small batches
//! fall back to the scalar per-point [`WbsnModel::evaluate_objectives`]
//! path on the calling thread (one pooled [`EvalScratch`]) — the `SoA`
//! tables only pay off once a chunk amortizes them, and a thread spawn
//! costs more than the few microseconds of scalar work it would split.
//! All engines are bit-identical to the full model evaluation, so the
//! choice is invisible to callers.
//! [`SerialEvaluator`] opts any evaluator back into the one-at-a-time
//! default — the baseline the speedup is measured against and the
//! reference for determinism tests.

use crate::objective::ObjectiveVector;
use crate::parallel::parallel_map_with_block;
use std::sync::{Arc, Mutex};
use wbsn_model::evaluate::{EvalScratch, WbsnModel};
use wbsn_model::lifetime::Battery;
use wbsn_model::soa::{FullEvalOut, SoaScratch};
use wbsn_model::space::DesignPoint;
use wbsn_model::units::MilliWatts;
use wbsn_model::NetworkObjectives;

/// Maps a design point to objectives; `None` marks infeasibility.
///
/// Evaluators are shared across threads (`Sync` is a supertrait): the
/// exhaustive sweep's workers call [`Evaluator::evaluate_batch`] and
/// [`Evaluator::evaluate_batch_axis_runs`] on one evaluator
/// concurrently, each with its own chunk, and `mosa_restarts` runs its
/// chains against one evaluator in parallel.
pub trait Evaluator: Sync {
    /// Evaluates one configuration; `None` when infeasible (duty-cycle
    /// overflow, GTS overflow, bandwidth shortfall).
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector>;

    /// Evaluates a batch of configurations, preserving order:
    /// `result[i]` corresponds to `points[i]`.
    ///
    /// Evaluation is a pure function of the point, so implementations may
    /// reorder or parallelize *execution* freely — the returned vector is
    /// indistinguishable from mapping [`Evaluator::evaluate`] serially.
    /// The default implementation does exactly that; model-backed
    /// evaluators override it with a multi-core fast path.
    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        points.iter().map(|p| self.evaluate(p)).collect()
    }

    /// Evaluates a batch whose points arrive in **axis-run order**:
    /// stretches of consecutive points sharing the MAC configuration
    /// and every node but the last (the layout the axis-major
    /// exhaustive sweep produces by construction). The contract is
    /// unchanged from [`Evaluator::evaluate_batch`] — `result[i]`
    /// corresponds to `points[i]`, bit-identical to the serial map —
    /// but implementations may exploit the layout to reuse shared-
    /// prefix work. The layout is a *hint*: any point order is valid
    /// input. The default simply delegates to `evaluate_batch`.
    fn evaluate_batch_axis_runs(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        self.evaluate_batch(points)
    }

    /// Number of objectives produced.
    fn num_objectives(&self) -> usize;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Wrapper forcing the default serial [`Evaluator::evaluate_batch`] on
/// any evaluator: the reference implementation for determinism tests and
/// the baseline for speedup measurements.
#[derive(Debug, Clone)]
pub struct SerialEvaluator<E>(pub E);

impl<E: Evaluator> Evaluator for SerialEvaluator<E> {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.0.evaluate(point)
    }

    // evaluate_batch deliberately NOT overridden: inherits the serial
    // default even when `E` has a parallel override.

    fn num_objectives(&self) -> usize {
        self.0.num_objectives()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Pool of warm per-worker states shared by the batch workers of one
/// evaluator: `evaluate_batch` is called once per NSGA-II generation, and
/// without a pool each call would rebuild its scratches and re-derive the
/// interned tables / `(kind, CR, fµC)` memo from scratch. Workers take a
/// state on start and return it (tables intact) when the batch ends.
#[derive(Debug, Default)]
struct Pool<T>(Mutex<Vec<T>>);

impl<T: Default> Pool<T> {
    fn take(self: &Arc<Self>) -> Pooled<T> {
        let state =
            self.0.lock().map_or_else(|_| T::default(), |mut p| p.pop().unwrap_or_default());
        Pooled { state, pool: Arc::clone(self) }
    }
}

/// RAII handle returning its state to the pool on drop (i.e. when the
/// worker thread finishes its share of the batch).
///
/// The drop guard is panic-aware: when the owning thread is unwinding
/// (a model bug or injected fault fired mid-evaluation), the leased
/// state is **discarded** instead of returned — a scratch abandoned
/// halfway through an evaluation may hold inconsistent tables, and
/// recycling it would poison every later batch served from the warm
/// pool. The pool lazily rebuilds a fresh state on the next take.
struct Pooled<T: Default> {
    state: T,
    pool: Arc<Pool<T>>,
}

impl<T: Default> Drop for Pooled<T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if let Ok(mut pool) = self.pool.0.lock() {
            pool.push(std::mem::take(&mut self.state));
        }
    }
}

/// Batches below this size take the scalar per-point path on the
/// calling thread: the `SoA` kernel's per-chunk table walk only pays off
/// once a chunk amortizes it, searchers routinely evaluate a handful of
/// stragglers (an NSGA-II generation after memo dedup is mostly 17–63
/// points), and spawning workers for such a batch costs more than the
/// scalar work it would split.
const SOA_MIN_BATCH: usize = 64;

/// Points per `SoA` chunk: one work unit handed to a pooled kernel
/// scratch. Large enough to amortize chunk bookkeeping, small enough to
/// split a generation-sized batch across every core. A single-node-count
/// batch of at most one chunk runs on the calling thread, which is what
/// lets the exhaustive sweep's workers call the evaluator without
/// fanning out again.
pub(crate) const SOA_CHUNK: usize = 1024;

/// Node count at which the per-chunk engine switches from the ungrouped
/// `SoA` kernel to the MAC-grouped one. With interning reduced to dense
/// loads, the straight walk wins on narrow networks; the grouped
/// engine's counting-sort permutation and transposed tiles only out-run
/// it once networks are wide enough (crossover measured ≈16 nodes on
/// the case-study sweeps — see `dse_throughput`'s 16-node section and
/// the ROADMAP crossover note). Both engines are bit-identical, so the
/// threshold is pure tuning.
const GROUPED_MIN_NODES: usize = 16;

/// Shared warm state of the two model-backed evaluators: a pool of `SoA`
/// kernel scratches for real batches and a pool of scalar scratches for
/// the small-batch fallback.
#[derive(Debug, Clone, Default)]
struct ModelPools {
    soa: Arc<Pool<SoaScratch>>,
    scalar: Arc<Pool<EvalScratch>>,
}

/// Order-preserving parallel batch evaluation through the `SoA` kernel:
/// the batch is cut into [`SOA_CHUNK`]-point chunks, each worker runs
/// whole chunks through a pooled [`SoaScratch`] and projects the
/// per-point outcomes with `project`. The per-chunk engine is keyed on
/// the batch's node count (first point) — ungrouped walk below
/// [`GROUPED_MIN_NODES`], MAC-grouped transposition at or above it.
/// Falls back to the scalar [`WbsnModel::evaluate_objectives`]
/// per-point path, on the calling thread with one pooled
/// [`EvalScratch`], for batches too small to amortize the kernel. All
/// engines are bit-identical to the full model evaluation, so results
/// do not depend on the path taken.
fn batch_through_soa(
    model: &WbsnModel,
    pools: &ModelPools,
    points: &[DesignPoint],
    axis_runs: bool,
    project: impl Fn(&NetworkObjectives) -> ObjectiveVector + Sync,
) -> Vec<Option<ObjectiveVector>> {
    if points.len() < SOA_MIN_BATCH {
        let mut pooled = pools.scalar.take();
        return points
            .iter()
            .map(|point| {
                model
                    .evaluate_objectives(&point.mac, &point.nodes, &mut pooled.state)
                    .ok()
                    .map(|o| project(&o))
            })
            .collect();
    }
    // Node-count-keyed engine choice: grouped only pays off on wide
    // networks. The batch is split into homogeneous node-count runs
    // (coalesced super-batches mix request shapes; search batches decode
    // from one space, so they are a single run) and chunks never span a
    // run boundary, so each chunk's engine is keyed on its *own* first
    // point — a 6-node member never drags an 18-node sibling onto the
    // ungrouped walk. Both engines are bit-identical, so the split is
    // pure dispatch. `axis_runs` (the caller's layout hint) selects the
    // shared-prefix kernel on narrow networks; the grouped engine
    // already amortizes across points its own way, so the hint defers
    // to it on wide ones.
    let run_kernel =
        |scratch: &mut SoaScratch, chunk: &[DesignPoint]| -> Vec<Option<ObjectiveVector>> {
            let grouped = chunk.first().is_some_and(|p| p.nodes.len() >= GROUPED_MIN_NODES);
            let outcomes = if grouped {
                model.evaluate_objectives_batch_grouped(chunk, scratch)
            } else if axis_runs {
                model.evaluate_objectives_batch_axis_runs(chunk, scratch)
            } else {
                model.evaluate_objectives_batch(chunk, scratch)
            };
            outcomes.iter().map(|outcome| outcome.as_ref().ok().map(&project)).collect()
        };
    let runs = crate::parallel::homogeneous_runs(points, |p| p.nodes.len());
    if crate::parallel::num_threads() == 1 {
        // No workers to feed: run the kernel over each whole run in one
        // call, skipping the chunk partition and the flatten copy.
        let mut pooled = pools.soa.take();
        let mut out = Vec::with_capacity(points.len());
        for &(start, end) in &runs {
            out.extend(run_kernel(&mut pooled.state, &points[start..end]));
        }
        return out;
    }
    let chunks: Vec<&[DesignPoint]> =
        runs.iter().flat_map(|&(start, end)| points[start..end].chunks(SOA_CHUNK)).collect();
    let per_chunk: Vec<Vec<Option<ObjectiveVector>>> = parallel_map_with_block(
        &chunks,
        1,
        || pools.soa.take(),
        |pooled, chunk| run_kernel(&mut pooled.state, chunk),
    );
    per_chunk.into_iter().flatten().collect()
}

/// The proposed multi-layer model: objectives `(Enet, delay, PRD)`.
#[derive(Debug, Clone)]
pub struct ModelEvaluator {
    model: WbsnModel,
    pools: ModelPools,
}

impl ModelEvaluator {
    /// Uses the Shimmer case-study model.
    #[must_use]
    pub fn shimmer() -> Self {
        Self::new(WbsnModel::shimmer())
    }

    /// Uses a custom model (e.g. different ϑ).
    #[must_use]
    pub fn new(model: WbsnModel) -> Self {
        Self { model, pools: ModelPools::default() }
    }
}

impl Evaluator for ModelEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.model
            .evaluate(&point.mac, &point.nodes)
            .ok()
            .map(|e| ObjectiveVector::from_slice(&e.objectives.to_array()))
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        batch_through_soa(&self.model, &self.pools, points, false, |o| {
            ObjectiveVector::from_slice(&o.to_array())
        })
    }

    fn evaluate_batch_axis_runs(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        batch_through_soa(&self.model, &self.pools, points, true, |o| {
            ObjectiveVector::from_slice(&o.to_array())
        })
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn name(&self) -> &'static str {
        "proposed-model"
    }
}

/// The energy/delay-only baseline model ([26]): same physics, no
/// application-quality axis.
#[derive(Debug, Clone)]
pub struct EnergyDelayEvaluator {
    model: WbsnModel,
    pools: ModelPools,
}

impl EnergyDelayEvaluator {
    /// Uses the Shimmer case-study model.
    #[must_use]
    pub fn shimmer() -> Self {
        Self::new(WbsnModel::shimmer())
    }

    /// Uses a custom model (e.g. different ϑ).
    #[must_use]
    pub fn new(model: WbsnModel) -> Self {
        Self { model, pools: ModelPools::default() }
    }
}

impl Evaluator for EnergyDelayEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.model
            .evaluate(&point.mac, &point.nodes)
            .ok()
            .map(|e| ObjectiveVector::from_slice(&e.objectives.energy_delay()))
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        batch_through_soa(&self.model, &self.pools, points, false, |o| {
            ObjectiveVector::from_slice(&o.energy_delay())
        })
    }

    fn evaluate_batch_axis_runs(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        batch_through_soa(&self.model, &self.pools, points, true, |o| {
            ObjectiveVector::from_slice(&o.energy_delay())
        })
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "energy-delay-baseline"
    }
}

/// Warm per-worker state of the lifetime lane: the kernel scratch plus
/// the full per-node output buffer its batch path reads the `Enode`
/// lane from.
#[derive(Debug, Default)]
struct FullState {
    soa: SoaScratch,
    full: FullEvalOut,
}

/// The four-objective extension lane: the paper's `(Enet, delay, PRD)`
/// plus a battery-lifetime axis from [`wbsn_model::lifetime`].
///
/// The lifetime objective is **negated days** until the *first* node
/// drains its battery (the network is dead once any node is): smaller
/// is better, like every other axis, so the searchers need no special
/// casing. The first three components are produced by the exact same
/// kernel walk as [`ModelEvaluator`] and are bit-identical to it —
/// dropping the lane recovers the three-objective projection exactly
/// (tested below). A zero-draw configuration maps to `-∞`, which
/// [`ObjectiveVector`] accepts deliberately.
///
/// The batch path runs [`WbsnModel::evaluate_batch_full`] (or its
/// MAC-grouped variant on wide networks) because the lifetime axis
/// needs the per-node `Enode` lane — the aggregate objectives only
/// carry the network mean.
#[derive(Debug, Clone)]
pub struct LifetimeEvaluator {
    model: WbsnModel,
    battery: Battery,
    full_pool: Arc<Pool<FullState>>,
}

impl LifetimeEvaluator {
    /// Uses the Shimmer case-study model and its 450 mAh / 3.7 V cell.
    #[must_use]
    pub fn shimmer() -> Self {
        Self::new(WbsnModel::shimmer(), Battery::shimmer())
    }

    /// Uses a custom model and battery.
    #[must_use]
    pub fn new(model: WbsnModel, battery: Battery) -> Self {
        Self { model, battery, full_pool: Arc::default() }
    }

    /// Negated lifetime-days at the worst per-node draw: the fourth
    /// objective value.
    fn lifetime_objective(&self, max_draw_mw: f64) -> f64 {
        -self.battery.lifetime_days(MilliWatts::new(max_draw_mw))
    }
}

impl Evaluator for LifetimeEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.model.evaluate(&point.mac, &point.nodes).ok().map(|e| {
            let max_draw =
                e.per_node.iter().map(|n| n.energy.total().value()).fold(0.0f64, f64::max);
            let [energy, delay, prd] = e.objectives.to_array();
            ObjectiveVector::from_slice(&[energy, delay, prd, self.lifetime_objective(max_draw)])
        })
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        if points.len() < SOA_MIN_BATCH {
            // The scalar path needs the full per-node evaluation (the
            // lifetime axis reads every node's draw), which allocates
            // its own output — no scratch to pool.
            return points.iter().map(|point| self.evaluate(point)).collect();
        }
        let run_kernel =
            |state: &mut FullState, chunk: &[DesignPoint]| -> Vec<Option<ObjectiveVector>> {
                let grouped = chunk.first().is_some_and(|p| p.nodes.len() >= GROUPED_MIN_NODES);
                if grouped {
                    self.model.evaluate_batch_full_grouped(chunk, &mut state.soa, &mut state.full);
                } else {
                    self.model.evaluate_batch_full(chunk, &mut state.soa, &mut state.full);
                }
                let full = &state.full;
                full.outcomes()
                    .iter()
                    .enumerate()
                    .map(|(i, outcome)| {
                        outcome.as_ref().ok().map(|o| {
                            let max_draw = full.energy()[full.node_range(i)]
                                .iter()
                                .copied()
                                .fold(0.0f64, f64::max);
                            let [energy, delay, prd] = o.to_array();
                            ObjectiveVector::from_slice(&[
                                energy,
                                delay,
                                prd,
                                self.lifetime_objective(max_draw),
                            ])
                        })
                    })
                    .collect()
            };
        let runs = crate::parallel::homogeneous_runs(points, |p| p.nodes.len());
        if crate::parallel::num_threads() == 1 {
            let mut pooled = self.full_pool.take();
            let mut out = Vec::with_capacity(points.len());
            for &(start, end) in &runs {
                out.extend(run_kernel(&mut pooled.state, &points[start..end]));
            }
            return out;
        }
        let chunks: Vec<&[DesignPoint]> =
            runs.iter().flat_map(|&(start, end)| points[start..end].chunks(SOA_CHUNK)).collect();
        let per_chunk: Vec<Vec<Option<ObjectiveVector>>> = parallel_map_with_block(
            &chunks,
            1,
            || self.full_pool.take(),
            |pooled, chunk| run_kernel(&mut pooled.state, chunk),
        );
        per_chunk.into_iter().flatten().collect()
    }

    fn num_objectives(&self) -> usize {
        4
    }

    fn name(&self) -> &'static str {
        "lifetime-extended"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_model::space::DesignSpace;

    #[test]
    fn model_evaluator_produces_three_objectives() {
        let space = DesignSpace::case_study(6);
        let eval = ModelEvaluator::shimmer();
        // The all-last point uses fµC = 8 MHz: feasible.
        let point = space.point_with(|n| n - 1);
        let obj = eval.evaluate(&point).expect("feasible");
        assert_eq!(obj.len(), 3);
        assert_eq!(eval.num_objectives(), 3);
        assert!(obj.values().iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn baseline_drops_prd_axis() {
        let space = DesignSpace::case_study(6);
        let point = space.point_with(|n| n - 1);
        let full = ModelEvaluator::shimmer().evaluate(&point).expect("feasible");
        let base = EnergyDelayEvaluator::shimmer().evaluate(&point).expect("feasible");
        assert_eq!(base.len(), 2);
        assert_eq!(base.values()[0], full.values()[0]);
        assert_eq!(base.values()[1], full.values()[1]);
    }

    #[test]
    fn infeasible_points_map_to_none() {
        let space = DesignSpace::case_study(6);
        // First index everywhere ⇒ fµC = 1 MHz on DWT nodes ⇒ infeasible.
        let point = space.point_with(|_| 0);
        assert!(ModelEvaluator::shimmer().evaluate(&point).is_none());
    }

    #[test]
    fn names() {
        assert_eq!(ModelEvaluator::shimmer().name(), "proposed-model");
        assert_eq!(EnergyDelayEvaluator::shimmer().name(), "energy-delay-baseline");
    }

    #[test]
    fn batch_is_bit_identical_to_serial_for_both_evaluators() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(300);
        let model = ModelEvaluator::shimmer();
        let baseline = EnergyDelayEvaluator::shimmer();
        let serial_model = SerialEvaluator(model.clone());
        let serial_baseline = SerialEvaluator(baseline.clone());
        assert_eq!(model.evaluate_batch(&points), serial_model.evaluate_batch(&points));
        assert_eq!(baseline.evaluate_batch(&points), serial_baseline.evaluate_batch(&points));
        // And the serial default really is a map of `evaluate`.
        for (p, o) in points.iter().zip(serial_model.evaluate_batch(&points)) {
            assert_eq!(o, model.evaluate(p));
        }
    }

    #[test]
    fn batch_marks_infeasible_points_as_none() {
        let space = DesignSpace::case_study(6);
        let feasible = space.point_with(|n| n - 1);
        let infeasible = space.point_with(|_| 0);
        let batch =
            ModelEvaluator::shimmer().evaluate_batch(&[feasible.clone(), infeasible, feasible]);
        assert!(batch[0].is_some());
        assert!(batch[1].is_none());
        assert_eq!(batch[0], batch[2]);
    }

    #[test]
    fn empty_batch() {
        assert!(ModelEvaluator::shimmer().evaluate_batch(&[]).is_empty());
    }

    /// Batches under [`SOA_MIN_BATCH`] run the scalar per-point engine,
    /// larger ones the `SoA` kernel; both must produce identical vectors.
    #[test]
    fn soa_and_scalar_batch_paths_agree_across_the_size_threshold() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(200);
        let eval = ModelEvaluator::shimmer();
        let soa_path = eval.evaluate_batch(&points);
        let scalar_path: Vec<_> =
            points.chunks(SOA_MIN_BATCH - 1).flat_map(|chunk| eval.evaluate_batch(chunk)).collect();
        assert_eq!(soa_path, scalar_path);
    }

    /// The node-count-keyed engine choice (ungrouped below
    /// [`GROUPED_MIN_NODES`], grouped at or above) must be invisible:
    /// batches on either side of the threshold equal the serial map.
    #[test]
    fn node_count_keyed_engine_choice_is_invisible() {
        let eval = ModelEvaluator::shimmer();
        let serial = SerialEvaluator(eval.clone());
        for n_nodes in [GROUPED_MIN_NODES - 1, GROUPED_MIN_NODES, GROUPED_MIN_NODES + 1] {
            let space = DesignSpace::case_study(n_nodes);
            let points = space.sample_sweep(200);
            assert_eq!(
                eval.evaluate_batch(&points),
                serial.evaluate_batch(&points),
                "{n_nodes} nodes"
            );
        }
        // A mixed batch is split into homogeneous node-count runs and
        // each run keys its own engine; still invisible whichever side
        // of the threshold leads.
        for lead in [6usize, GROUPED_MIN_NODES + 2] {
            let mut points = DesignSpace::case_study(lead).sample_sweep(100);
            let other = 6 + GROUPED_MIN_NODES + 2 - lead;
            points.extend(DesignSpace::case_study(other).sample_sweep(100));
            assert_eq!(eval.evaluate_batch(&points), serial.evaluate_batch(&points));
        }
        // A coalesced-super-batch shape: several short alternating runs,
        // so narrow and wide members take turns within one batch. Each
        // run must dispatch its own kernel without perturbing siblings.
        let narrow = DesignSpace::case_study(6).sample_sweep(40);
        let wide = DesignSpace::case_study(GROUPED_MIN_NODES + 2).sample_sweep(40);
        let mut points = Vec::new();
        for (a, b) in narrow.chunks(10).zip(wide.chunks(10)) {
            points.extend_from_slice(a);
            points.extend_from_slice(b);
        }
        assert_eq!(eval.evaluate_batch(&points), serial.evaluate_batch(&points));
        let lifetime = LifetimeEvaluator::shimmer();
        assert_eq!(
            lifetime.evaluate_batch(&points),
            SerialEvaluator(lifetime.clone()).evaluate_batch(&points)
        );
    }

    /// A state leased while its thread panics must be discarded, not
    /// recycled: the warm pool only ever holds states that completed
    /// their batch share cleanly.
    #[test]
    fn panicking_lease_discards_state_instead_of_poisoning_the_pool() {
        let pool: Arc<Pool<Vec<u8>>> = Arc::default();

        // Clean lease/return round-trip: the state comes back warm.
        {
            let mut lease = pool.take();
            lease.state.push(42);
        }
        assert_eq!(pool.take().state, vec![42], "clean drops recycle the state");

        // Lease the warm state again, corrupt it, and panic holding it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = pool.take();
            lease.state.push(99); // half-written "poisoned" scratch
            panic!("evaluation died mid-batch");
        }));
        assert!(result.is_err());

        // The poisoned state was discarded: the next take builds fresh.
        assert!(pool.take().state.is_empty(), "panicked lease must not re-enter the pool");
    }

    /// Satellite: with the lifetime lane disabled (i.e. using
    /// [`ModelEvaluator`]), results are bit-identical to the first three
    /// components of the four-objective lane — the extension axis rides
    /// on the same kernel walk and cannot perturb the paper's
    /// objectives.
    #[test]
    fn lifetime_lane_first_three_objectives_are_bit_identical_to_model() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(300);
        let three = ModelEvaluator::shimmer();
        let four = LifetimeEvaluator::shimmer();
        assert_eq!(four.num_objectives(), 4);
        for (a, b) in three.evaluate_batch(&points).iter().zip(four.evaluate_batch(&points)) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(b.len(), 4);
                    for k in 0..3 {
                        assert_eq!(
                            a.values()[k].to_bits(),
                            b.values()[k].to_bits(),
                            "objective {k} must be bit-identical with the lane enabled"
                        );
                    }
                }
                (None, None) => {}
                (a, b) => panic!("feasibility disagreement: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn lifetime_batch_is_bit_identical_to_serial() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(300);
        let eval = LifetimeEvaluator::shimmer();
        let serial = SerialEvaluator(eval.clone());
        assert_eq!(eval.evaluate_batch(&points), serial.evaluate_batch(&points));
        // Wide networks run the grouped full kernel: still invisible.
        let wide = DesignSpace::case_study(GROUPED_MIN_NODES + 2).sample_sweep(150);
        assert_eq!(eval.evaluate_batch(&wide), SerialEvaluator(eval.clone()).evaluate_batch(&wide));
    }

    #[test]
    fn lifetime_objective_is_negated_days_of_the_worst_node() {
        let space = DesignSpace::case_study(6);
        let point = space.point_with(|n| n - 1);
        let eval = LifetimeEvaluator::shimmer();
        let obj = eval.evaluate(&point).expect("feasible");
        let lifetime = obj.values()[3];
        // Negated, finite, and bounded by the battery: no node draws
        // little enough to last a year, none so much it dies in a day.
        assert!(lifetime < 0.0, "{lifetime}");
        assert!((-365.0..=-1.0).contains(&lifetime), "{lifetime}");
        assert_eq!(eval.name(), "lifetime-extended");
    }

    #[test]
    fn dyn_evaluator_dispatches_batch_override() {
        let space = DesignSpace::case_study(6);
        let points = space.sample_sweep(50);
        let concrete = ModelEvaluator::shimmer();
        let as_dyn: &dyn Evaluator = &concrete;
        assert_eq!(as_dyn.evaluate_batch(&points), concrete.evaluate_batch(&points));
    }
}
