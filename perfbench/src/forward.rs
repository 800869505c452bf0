//! A forwarding [`Evaluator`] that measures the `dse.evaluator` layer
//! from outside: it forwards every trait method unchanged, times each
//! call, counts points and feasible outcomes, opens a `dse.evaluator`
//! span under the caller's current span, and keeps, per trait method, a
//! bounded reservoir sample of the batches it saw for the kernel replays
//! of the ledger.

use crate::trace::{Span, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::Instant;
use wbsn_dse::evaluator::Evaluator;
use wbsn_dse::objective::ObjectiveVector;
use wbsn_model::space::DesignPoint;

/// Batches kept by each method's reservoir.
const RESERVOIR_BATCHES: usize = 64;

/// Points kept per sampled batch. The batch evaluators hand the kernel
/// chunks of at most this size, so a truncated batch is still a batch
/// the kernel really runs.
const RESERVOIR_BATCH_POINTS: usize = 1024;

/// The trait method a call came in through. The program runs a
/// different kernel behind each, so the ledger replays each sampled
/// batch through the kernel of its own method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `Evaluator::evaluate`: one point.
    Evaluate,
    /// `Evaluator::evaluate_batch`.
    Batch,
    /// `Evaluator::evaluate_batch_axis_runs`.
    AxisRuns,
}

impl Method {
    /// Every method, in index order.
    pub const ALL: [Self; 3] = [Self::Evaluate, Self::Batch, Self::AxisRuns];

    const fn index(self) -> usize {
        match self {
            Self::Evaluate => 0,
            Self::Batch => 1,
            Self::AxisRuns => 2,
        }
    }
}

/// Counters of the calls of one method (or of all of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Trait calls that evaluate.
    pub calls: u64,
    /// Points passed in those calls.
    pub points: u64,
    /// Points that came back feasible.
    pub feasible: u64,
    /// Wall time spent inside the wrapped evaluator, nanoseconds.
    pub busy_ns: u64,
}

impl std::ops::AddAssign for CallStats {
    fn add_assign(&mut self, other: Self) {
        self.calls += other.calls;
        self.points += other.points;
        self.feasible += other.feasible;
        self.busy_ns += other.busy_ns;
    }
}

/// What forwarding evaluators saw: counters per method and the sampled
/// batches, each with the method it came in through.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Counters indexed like [`Method::ALL`].
    pub by_method: [CallStats; 3],
    /// Sampled batches.
    pub batches: Vec<(Method, Vec<DesignPoint>)>,
}

impl Observed {
    /// Counters of `method`.
    #[must_use]
    pub fn of(&self, method: Method) -> CallStats {
        self.by_method[method.index()]
    }

    /// Counters summed over every method.
    #[must_use]
    pub fn total(&self) -> CallStats {
        let mut total = CallStats::default();
        self.by_method.iter().for_each(|&s| total += s);
        total
    }

    /// Adds another evaluator's observations.
    pub fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.by_method.iter_mut().zip(other.by_method) {
            *mine += theirs;
        }
        self.batches.extend(other.batches);
    }
}

#[derive(Debug)]
struct Reservoir {
    rng: StdRng,
    seen: u64,
    batches: Vec<Vec<DesignPoint>>,
}

impl Reservoir {
    fn offer(&mut self, points: &[DesignPoint]) {
        self.seen += 1;
        let slot = if self.batches.len() < RESERVOIR_BATCHES {
            self.batches.push(Vec::new());
            self.batches.len() - 1
        } else {
            let j = self.rng.gen_range(0..self.seen);
            match usize::try_from(j) {
                Ok(j) if j < RESERVOIR_BATCHES => j,
                _ => return,
            }
        };
        let keep = points.len().min(RESERVOIR_BATCH_POINTS);
        self.batches[slot] = points[..keep].to_vec();
    }
}

/// The caller's position in the trace: evaluator spans are parented here.
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    parent: Option<u64>,
    request: u64,
}

/// Counters and a reservoir per method.
#[derive(Debug)]
struct PerMethod {
    stats: CallStats,
    reservoir: Reservoir,
}

/// Forwarding wrapper around any evaluator (see the module docs).
pub struct Forwarding<'a> {
    inner: &'a dyn Evaluator,
    tracer: &'a Tracer,
    context: Mutex<Context>,
    methods: [Mutex<PerMethod>; 3],
}

impl std::fmt::Debug for Forwarding<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Forwarding").field("inner", &self.inner.name()).finish_non_exhaustive()
    }
}

impl<'a> Forwarding<'a> {
    /// Wraps `inner`; spans go to `tracer`. `seed` drives the reservoir
    /// samples (one reservoir per method, so a method with few calls is
    /// still sampled).
    #[must_use]
    pub fn new(inner: &'a dyn Evaluator, tracer: &'a Tracer, seed: u64) -> Self {
        let method = |m: Method| {
            Mutex::new(PerMethod {
                stats: CallStats::default(),
                reservoir: Reservoir {
                    rng: StdRng::seed_from_u64(seed ^ m.index() as u64),
                    seen: 0,
                    batches: Vec::new(),
                },
            })
        };
        Self {
            inner,
            tracer,
            context: Mutex::new(Context::default()),
            methods: Method::ALL.map(method),
        }
    }

    /// Parents the following evaluator spans on `parent`, within `request`
    /// (the id of the request's root span).
    pub fn enter(&self, parent: Option<u64>, request: u64) {
        *self.context.lock().expect("context lock is never held across a panic") =
            Context { parent, request };
    }

    /// Counters and batch samples so far.
    #[must_use]
    pub fn observed(&self) -> Observed {
        let mut out = Observed::default();
        for (m, slot) in Method::ALL.into_iter().zip(&self.methods) {
            let per = slot.lock().expect("method lock is never held across a panic");
            out.by_method[m.index()] = per.stats;
            out.batches.extend(per.reservoir.batches.iter().map(|b| (m, b.clone())));
        }
        out
    }

    fn observe<T>(
        &self,
        method: Method,
        points: &[DesignPoint],
        call: impl FnOnce() -> T,
        feasible: impl Fn(&T) -> u64,
    ) -> T {
        let context = *self.context.lock().expect("context lock is never held across a panic");
        let id = self.tracer.next_id();
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.tracer.record(Span {
            id,
            parent: context.parent,
            request: context.request,
            name: "dse.evaluator",
            start_ns: self.tracer.at_ns(start),
            end_ns: self.tracer.at_ns(end),
        });
        let mut per =
            self.methods[method.index()].lock().expect("method lock is never held across a panic");
        per.stats += CallStats {
            calls: 1,
            points: points.len() as u64,
            feasible: feasible(&out),
            busy_ns: u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX),
        };
        per.reservoir.offer(points);
        out
    }
}

#[allow(clippy::ptr_arg, reason = "matches the `Fn(&T)` shape of `observe` with `T = Vec<_>`")]
fn count_feasible(outcomes: &Vec<Option<ObjectiveVector>>) -> u64 {
    outcomes.iter().filter(|o| o.is_some()).count() as u64
}

impl Evaluator for Forwarding<'_> {
    fn evaluate(&self, point: &DesignPoint) -> Option<ObjectiveVector> {
        self.observe(
            Method::Evaluate,
            std::slice::from_ref(point),
            || self.inner.evaluate(point),
            |o| u64::from(o.is_some()),
        )
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        self.observe(Method::Batch, points, || self.inner.evaluate_batch(points), count_feasible)
    }

    fn evaluate_batch_axis_runs(&self, points: &[DesignPoint]) -> Vec<Option<ObjectiveVector>> {
        self.observe(
            Method::AxisRuns,
            points,
            || self.inner.evaluate_batch_axis_runs(points),
            count_feasible,
        )
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
