//! Kernel-level replays of the per-layer ledger: the batches a traced
//! workload handed the evaluator are replayed single-threaded, each
//! through the `SoA` kernel behind the trait method it came in through
//! (`model.soa`), and through the scalar reference (`model.evaluate`),
//! and `DesignSpace::point_at` is timed over the sweep indices
//! (`model.space`).

use crate::forward::{Method, Observed};
use crate::report::Report;
use crate::stats::{median, ratio};
use std::hint::black_box;
use std::time::Instant;
use wbsn_dse::truth::scenarios;
use wbsn_model::evaluate::WbsnModel;
use wbsn_model::soa::SoaScratch;
use wbsn_model::space::DesignPoint;

/// Timed passes per replay; the median pass is reported.
const PASSES: usize = 3;

/// Points of the scalar reference replay (the scalar model is the
/// slowest path; a few thousand points pin its per-point cost).
const SCALAR_POINTS: usize = 4096;

/// Indices timed per truth scenario for `model.space.ns_per_point`.
const SPACE_INDICES: u128 = 16_384;

/// Per-point costs of the kernel replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelReplay {
    /// Single-thread `SoA` kernel cost per point over the sampled
    /// batches, each replayed through the kernel of the method it came
    /// in through (`evaluate_objectives_batch` or
    /// `evaluate_objectives_batch_axis_runs`).
    pub soa_ns_per_point: f64,
    /// Scalar `WbsnModel::evaluate` cost per point.
    pub scalar_ns_per_point: f64,
    /// Single-thread cost per point of each method's samples, indexed
    /// like [`Method::ALL`] (`evaluate` calls replay through the scalar
    /// model, as the program runs them); 0 for a method never called.
    pub by_method: [f64; 3],
}

fn median_pass_ns(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&times)
}

/// Median single-thread time of one pass over `batches` through the
/// kernel of `method`, on one warm scratch.
fn replay_ns(model: &WbsnModel, method: Method, batches: &[&[DesignPoint]]) -> f64 {
    let mut scratch = SoaScratch::new();
    let mut pass = || {
        for &b in batches {
            match method {
                Method::Evaluate => b.iter().for_each(|p| {
                    let _ = black_box(model.evaluate(&p.mac, &p.nodes));
                }),
                Method::Batch => {
                    black_box(model.evaluate_objectives_batch(black_box(b), &mut scratch));
                }
                Method::AxisRuns => {
                    black_box(
                        model.evaluate_objectives_batch_axis_runs(black_box(b), &mut scratch),
                    );
                }
            }
        }
    };
    pass();
    median_pass_ns(pass)
}

/// Replays `batches` through the kernel of each one's method, and a
/// prefix of their points through the scalar model.
#[must_use]
pub fn replay_kernels(model: &WbsnModel, batches: &[(Method, Vec<DesignPoint>)]) -> KernelReplay {
    let mut by_method = [0.0; 3];
    let (mut soa_ns, mut soa_points) = (0.0, 0usize);
    for (i, method) in Method::ALL.into_iter().enumerate() {
        let mine: Vec<&[DesignPoint]> =
            batches.iter().filter(|(m, _)| *m == method).map(|(_, b)| b.as_slice()).collect();
        let points: usize = mine.iter().map(|b| b.len()).sum();
        if points == 0 {
            continue;
        }
        let ns = replay_ns(model, method, &mine);
        by_method[i] = ns / points as f64;
        if method != Method::Evaluate {
            soa_ns += ns;
            soa_points += points;
        }
    }
    let scalar: Vec<DesignPoint> =
        batches.iter().flat_map(|(_, b)| b).take(SCALAR_POINTS).cloned().collect();
    let scalar_ns = replay_ns(model, Method::Evaluate, &[&scalar]);
    KernelReplay {
        soa_ns_per_point: ratio(soa_ns, soa_points as f64),
        scalar_ns_per_point: ratio(scalar_ns, scalar.len() as f64),
        by_method,
    }
}

/// Cost per call of `DesignSpace::point_at` over evenly strided sweep
/// indices of every truth scenario.
#[must_use]
pub fn space_ns_per_point() -> f64 {
    let spaces: Vec<_> = scenarios().into_iter().map(|s| s.space).collect();
    let ns = median_pass_ns(|| {
        for space in &spaces {
            let stride = (space.cardinality() / SPACE_INDICES).max(1);
            let mut i = 0;
            while i < space.cardinality() {
                black_box(space.point_at(black_box(i)));
                i += stride;
            }
        }
    });
    let calls: u128 = spaces
        .iter()
        .map(|s| s.cardinality().div_ceil((s.cardinality() / SPACE_INDICES).max(1)))
        .sum();
    ns / calls as f64
}

/// Reports the `dse.evaluator`, `dse.parallel` and `model.*` ledger of
/// one workload from its forwarding-evaluator observations; `ops` is the
/// number of workload operations (fronts, searcher runs, requests) the
/// observed calls served.
pub fn report_layers(report: &mut Report, observed: &Observed, ops: u64) {
    let replay = replay_kernels(&WbsnModel::shimmer(), &observed.batches);
    let threads = wbsn_dse::parallel::num_threads();
    let total = observed.total();
    let busy_ns = total.busy_ns as f64;
    let points = total.points as f64;
    // Single-thread cost of every observed call, each method at its own
    // replayed per-point cost.
    let kernel_ns: f64 = Method::ALL
        .into_iter()
        .zip(replay.by_method)
        .map(|(m, ns)| ns * observed.of(m).points as f64)
        .sum();
    report.metric("dse.evaluator.calls_per_op", ratio(total.calls as f64, ops as f64), "count");
    report.metric("dse.evaluator.points_per_call", ratio(points, total.calls as f64), "points");
    report.metric("dse.evaluator.busy_s", busy_ns / 1e9, "s");
    report.metric("dse.evaluator.ns_per_point", ratio(busy_ns, points), "ns");
    report.metric("dse.parallel.efficiency", ratio(kernel_ns, busy_ns * threads as f64), "ratio");
    report.metric("dse.parallel.threads", threads as f64, "count");
    report.metric("model.soa.ns_per_point", replay.soa_ns_per_point, "ns");
    report.metric("model.evaluate.ns_per_point", replay.scalar_ns_per_point, "ns");
    report.metric(
        "model.soa.speedup_vs_scalar",
        ratio(replay.scalar_ns_per_point, replay.soa_ns_per_point),
        "ratio",
    );
    report.metric("model.soa.feasible_frac", ratio(total.feasible as f64, points), "ratio");
    report.metric("model.space.ns_per_point", space_ns_per_point(), "ns");
    let calls = |m: Method| observed.of(m).calls;
    report.note(format!(
        "ledger: {} evaluator calls ({} evaluate, {} evaluate_batch, {} evaluate_batch_axis_runs) over {ops} operations, \
         {} points ({} feasible), {} sampled batches replayed through their own method's kernel, {threads} threads",
        total.calls,
        calls(Method::Evaluate),
        calls(Method::Batch),
        calls(Method::AxisRuns),
        total.points,
        total.feasible,
        observed.batches.len()
    ));
}
