//! `truth_sweep`: exact Pareto fronts of the three `wbsn_dse::truth`
//! scenarios (≈1.33 M points per round) through one warm
//! `ModelEvaluator`, round after round. The seed only rotates the
//! scenario order. Large axis-ordered batches: the kernel and the
//! parallel fan-out do most of the work; the coalescer and memo none.

use crate::forward::Forwarding;
use crate::heap;
use crate::host::HostProbe;
use crate::report::Report;
use crate::search::parse_golden;
use crate::stats::{median, ratio};
use crate::trace::{self_time, Tracer};
use std::time::Instant;
use wbsn_dse::evaluator::{Evaluator, ModelEvaluator};
use wbsn_dse::exhaustive::point_at_axis_major;
use wbsn_dse::pareto::ParetoArchive;
use wbsn_dse::truth::{scenarios, TruthFront, TruthScenario};

/// Golden front snapshots, keyed by scenario name.
pub const GOLDEN: [(&str, &str); 3] = [
    (
        "paper-2node",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../benchmarks/golden/truth_paper-2node.txt"
        )),
    ),
    (
        "coarse-3node",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../benchmarks/golden/truth_coarse-3node.txt"
        )),
    ),
    (
        "wide-6node-slice",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../benchmarks/golden/truth_wide-6node-slice.txt"
        )),
    ),
];

/// The golden snapshot of scenario `name`.
///
/// # Panics
///
/// Panics for a name that has no snapshot.
#[must_use]
pub fn golden(name: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, g)| *g)
        .expect("every scenario has a golden front")
}

/// Points of each scenario answered by the cold set-up, in one batch:
/// four of the sweep's own batches, so that kernel work rather than the
/// first page faults and thread spawns sets most of the figure.
const SETUP_BATCH: u128 = 16_384;

/// The scenarios in the seed's rotation.
#[must_use]
pub fn rotated_scenarios(seed: u64) -> Vec<TruthScenario> {
    let mut all = scenarios();
    let shift = (seed % all.len() as u64) as usize;
    all.rotate_left(shift);
    all
}

/// One cold set-up: a fresh evaluator answers its first batch of every
/// scenario (empty scratch pools, cold interning tables).
fn cold_setup() -> f64 {
    let t = Instant::now();
    let eval = ModelEvaluator::shimmer();
    for s in scenarios() {
        let n = s.space.cardinality().min(SETUP_BATCH);
        let batch: Vec<_> = (0..n).map(|i| point_at_axis_major(&s.space, i)).collect();
        std::hint::black_box(eval.evaluate_batch_axis_runs(&batch));
    }
    t.elapsed().as_secs_f64()
}

/// Median of [`crate::SETUPS`] cold set-ups, in seconds, unscaled.
pub fn setup_s(probe: &mut HostProbe) -> f64 {
    crate::median_setup(probe, cold_setup)
}

/// Points per batch of the heap pass: one kernel chunk, which the batch
/// evaluator runs on the calling thread with one pooled scratch.
const HEAP_PASS_BATCH: u128 = 1024;

/// Peak live heap, in MiB, of one sweep of every truth scenario, in the
/// scenarios' own order, through a fresh evaluator in axis-ordered
/// batches of [`HEAP_PASS_BATCH`] points, keeping each Pareto front.
///
/// The timed sweep's own peak is not reported: its 4096-point batches
/// fan out to two workers, each with a pooled kernel scratch whose
/// tables grow with the chunks it happens to get, so its peak depended
/// on scheduling (on a two-vCPU runner, 4.7 MiB when one worker did
/// nearly all the work, 6.4 MiB when both did). One-chunk batches keep one scratch and make
/// the figure repeatable. Each front's size and feasible count are
/// checked against the golden snapshot.
fn heap_pass_mb(report: &mut Report) -> f64 {
    heap::reset_peak();
    let eval = ModelEvaluator::shimmer();
    let mut fronts = Vec::new();
    for s in scenarios() {
        let mut front = ParetoArchive::new();
        let mut feasible = 0u64;
        let n = s.space.cardinality();
        let mut next = 0;
        while next < n {
            let end = (next + HEAP_PASS_BATCH).min(n);
            let batch: Vec<_> = (next..end).map(|i| point_at_axis_major(&s.space, i)).collect();
            let outcomes = eval.evaluate_batch_axis_runs(&batch);
            for (point, outcome) in batch.into_iter().zip(outcomes) {
                if let Some(objectives) = outcome {
                    feasible += 1;
                    front.insert(objectives, point);
                }
            }
            next = end;
        }
        fronts.push((s.name, front.len(), feasible));
    }
    let peak = heap::peak_mb();
    for (name, len, feasible) in fronts {
        let golden = parse_golden(name);
        report.attempted += 1;
        if len != golden.objectives.len() || feasible != golden.feasible {
            report.fail(true, format!("heap pass over {name} disagrees with its golden front"));
        }
    }
    peak
}

/// Timings of a sequence of sweep rounds.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Seconds per untraced round.
    pub plain: Vec<f64>,
    /// Seconds per traced round.
    pub traced: Vec<f64>,
    /// Seconds per untraced front.
    pub fronts: Vec<f64>,
    /// Seconds per untraced front of each scenario, in round order.
    pub by_scenario: Vec<(&'static str, Vec<f64>)>,
    /// Points in one round.
    pub points_per_round: u128,
    /// Fronts computed.
    pub attempted: u64,
    /// Fronts computed through the forwarding evaluator.
    pub traced_fronts: u64,
}

/// Runs rounds for at least `seconds` and `min_rounds`, checking every
/// front against its golden snapshot. With `trace`, every second round
/// goes through the forwarding evaluator under `dse.truth` spans; the
/// others run untraced, so traced and untraced rounds interleave. With
/// `probe`, the host probe is timed after every untraced round.
pub fn run_rounds(
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    eval: &ModelEvaluator,
    trace: Option<(&Tracer, &Forwarding<'_>)>,
    mut probe: Option<&mut HostProbe>,
    report: &mut Report,
) -> Rounds {
    let order = rotated_scenarios(seed);
    let mut out = Rounds {
        points_per_round: order.iter().map(|s| s.space.cardinality()).sum(),
        by_scenario: order.iter().map(|s| (s.name, Vec::new())).collect(),
        ..Rounds::default()
    };
    let start = Instant::now();
    let mut round = 0u64;
    while (round as usize) < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let traced = trace.filter(|_| round % 2 == 1);
        let mut fronts = Vec::with_capacity(order.len());
        let round_start = Instant::now();
        for (i, s) in order.iter().enumerate() {
            let t = Instant::now();
            let front = match traced {
                Some((tracer, fw)) => {
                    let root = tracer.root_span("dse.truth");
                    fw.enter(Some(root.id()), root.id());
                    TruthFront::compute(s, fw)
                }
                None => TruthFront::compute(s, eval),
            };
            let took = t.elapsed().as_secs_f64();
            if traced.is_some() {
                out.traced_fronts += 1;
            } else {
                out.fronts.push(took);
                out.by_scenario[i].1.push(took);
            }
            fronts.push(front);
        }
        let took = round_start.elapsed().as_secs_f64();
        if traced.is_some() {
            out.traced.push(took);
        } else {
            out.plain.push(took);
            if let Some(p) = probe.as_deref_mut() {
                p.sample();
            }
        }
        for front in fronts {
            out.attempted += 1;
            if front.render() != golden(front.scenario) {
                report.fail(
                    true,
                    format!("truth front {} differs from its golden snapshot", front.scenario),
                );
            }
        }
        round += 1;
    }
    out
}

/// The untraced end-to-end run. Every timing is scaled to the nominal
/// host by the host probe timed between set-ups and between rounds.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let mut probe = HostProbe::new();
    let setup = setup_s(&mut probe);
    let peak_mb = heap_pass_mb(report);
    let eval = ModelEvaluator::shimmer();
    // Warm the evaluator's pools on the smallest scenario.
    let _ = TruthFront::compute(&wbsn_dse::truth::wide_6node_slice(), &eval);
    let r = run_rounds(seed, seconds, 3, &eval, None, Some(&mut probe), report);
    report.attempted += r.attempted;
    let scale = probe.scale();
    let round_s = median(&r.plain) * scale;
    // Per-scenario medians, fastest first: `small_ms` is the fastest
    // front, `large_ms` the slowest, `p50_ms` the median of all fronts.
    let mut scenario_ms: Vec<(f64, &str, usize)> =
        r.by_scenario.iter().map(|(name, t)| (median(t) * 1e3, *name, t.len())).collect();
    scenario_ms.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (small, large) = (scenario_ms[0], scenario_ms[scenario_ms.len() - 1]);
    report.note(format!(
        "truth_sweep: {} rounds of {} points, order {:?}; rates from the round p50 over {} samples; \
         front p50 over {} samples; small is {} (p50 of {}), large is {} (p50 of {})",
        r.plain.len(),
        r.points_per_round,
        rotated_scenarios(seed).iter().map(|s| s.name).collect::<Vec<_>>(),
        r.plain.len(),
        r.fronts.len(),
        small.1,
        small.2,
        large.1,
        large.2,
    ));
    report.note(format!(
        "truth_sweep unscaled: round p50 {:.4} s, front p50 {:.3} ms, set-up {:.3} ms",
        median(&r.plain),
        median(&r.fronts) * 1e3,
        setup * 1e3
    ));
    report.host_note(&probe);
    report.metric("setup_s", setup * scale, "s");
    report.metric("peak_heap_mb", peak_mb, "MB");
    report.metric("points_per_s", r.points_per_round as f64 / round_s, "points/s");
    report.metric("ops_per_s", r.fronts.len() as f64 / r.plain.len() as f64 / round_s, "1/s");
    report.metric("p50_ms", median(&r.fronts) * 1e3 * scale, "ms");
    report.metric("small_ms", small.0 * scale, "ms");
    report.metric("large_ms", large.0 * scale, "ms");
}

/// The traced sweep: interleaved traced and untraced rounds for at
/// least `seconds` (one of each at minimum). Reports `dse.truth.self_s`
/// and, when `overhead` is set, the tracing overhead. Returns the fronts
/// computed through `fw`; the forwarding evaluator holds the layer
/// counters.
pub fn traced(
    seed: u64,
    seconds: f64,
    eval: &ModelEvaluator,
    tracer: &Tracer,
    fw: &Forwarding<'_>,
    overhead: bool,
    report: &mut Report,
) -> u64 {
    let before = tracer.spans().len();
    let r = run_rounds(seed, seconds, 2, eval, Some((tracer, fw)), None, report);
    let spans = tracer.spans();
    let (_, _, own) = self_time(&spans[before..], "dse.truth");
    report.metric("dse.truth.self_s", ratio(own as f64 / 1e9, r.traced.len() as f64), "s");
    report.note(format!(
        "dse.truth: {} traced and {} untraced rounds; self time per traced round",
        r.traced.len(),
        r.plain.len()
    ));
    report.attempted += r.attempted;
    if overhead {
        report.metric("trace.overhead_frac", median(&r.traced) / median(&r.plain) - 1.0, "ratio");
    }
    r.traced_fronts
}
