//! Seeded serve traffic and open-loop accounting.
//!
//! A request stream is a pure function of its seed: requests are kept
//! as compact specs (design-space indices or genomes) and materialized
//! into [`ScenarioRequest`]s only when they are sent, so the stream can
//! be rendered byte for byte and regenerated for the correctness check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;
use wbsn_dse::genome::Genome;
use wbsn_model::space::DesignSpace;
use wbsn_serve::{Objectives, ScenarioRequest};

/// Points in a small `Evaluate` request.
pub const SMALL_POINTS: usize = 16;
/// Points in a large `Evaluate` request.
pub const LARGE_POINTS: usize = 512;
/// Genomes in an `EvaluateGenomes` request.
pub const GENOMES_PER_REQUEST: usize = 64;
/// Share of requests that are small `Evaluate` queries.
pub const SMALL_SHARE: f64 = 0.70;
/// Share of requests that are large `Evaluate` queries (the rest are
/// genome batches).
pub const LARGE_SHARE: f64 = 0.20;
/// Share of genomes in a genome batch drawn again from recently sent
/// genomes, so the engine's cross-request memo has work to do.
pub const REPEAT_SHARE: f64 = 0.30;
/// How many recent genomes repeats are drawn from.
const REPEAT_WINDOW: usize = 512;

/// Request class, for per-class latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A [`SMALL_POINTS`]-point `Evaluate` query.
    Small,
    /// A [`LARGE_POINTS`]-point `Evaluate` query.
    Large,
    /// A [`GENOMES_PER_REQUEST`]-genome `EvaluateGenomes` batch.
    Genomes,
}

/// What a request carries, in compact form.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Linear indices into the case-study space (`DesignSpace::point_at`).
    Points(Vec<u64>),
    /// Genomes over the case-study space.
    Genomes(Vec<Genome>),
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// Request class.
    pub kind: Kind,
    /// Objective lane.
    pub objectives: Objectives,
    /// Points or genomes.
    pub payload: Payload,
}

impl RequestSpec {
    /// Points (or genomes) the request asks for.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.payload {
            Payload::Points(p) => p.len(),
            Payload::Genomes(g) => g.len(),
        }
    }

    /// Whether the request asks for nothing (never true for generated ones).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The engine request this spec stands for.
    #[must_use]
    pub fn materialize(&self, space: &DesignSpace) -> ScenarioRequest {
        let request = match &self.payload {
            Payload::Points(indices) => ScenarioRequest::evaluate(
                indices.iter().map(|&i| space.point_at(u128::from(i))).collect(),
            ),
            Payload::Genomes(genomes) => {
                ScenarioRequest::evaluate_genomes(space.clone(), genomes.clone())
            }
        };
        request.with_objectives(self.objectives)
    }
}

/// Seeded generator of the serve traffic mix over one space.
#[derive(Debug)]
pub struct StreamGen {
    rng: StdRng,
    space: DesignSpace,
    cardinality: u64,
    recent: VecDeque<Genome>,
}

impl StreamGen {
    /// A generator whose stream is determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the space holds more than `u64::MAX` points.
    #[must_use]
    pub fn new(seed: u64, space: DesignSpace) -> Self {
        let cardinality = u64::try_from(space.cardinality()).expect("space indexable by u64");
        Self { rng: StdRng::seed_from_u64(seed), space, cardinality, recent: VecDeque::new() }
    }

    fn points(&mut self, n: usize) -> Payload {
        Payload::Points((0..n).map(|_| self.rng.gen_range(0..self.cardinality)).collect())
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> RequestSpec {
        let roll: f64 = self.rng.gen();
        if roll < SMALL_SHARE {
            let payload = self.points(SMALL_POINTS);
            RequestSpec { kind: Kind::Small, objectives: Objectives::default(), payload }
        } else if roll < SMALL_SHARE + LARGE_SHARE {
            let payload = self.points(LARGE_POINTS);
            RequestSpec { kind: Kind::Large, objectives: Objectives::default(), payload }
        } else {
            let objectives = Objectives::ALL[self.rng.gen_range(0..Objectives::ALL.len())];
            let mut genomes = Vec::with_capacity(GENOMES_PER_REQUEST);
            for _ in 0..GENOMES_PER_REQUEST {
                let repeat = !self.recent.is_empty() && self.rng.gen_bool(REPEAT_SHARE);
                let genome = if repeat {
                    self.recent[self.rng.gen_range(0..self.recent.len())].clone()
                } else {
                    let fresh = Genome::random(&self.space, &mut self.rng);
                    if self.recent.len() == REPEAT_WINDOW {
                        self.recent.pop_front();
                    }
                    self.recent.push_back(fresh.clone());
                    fresh
                };
                genomes.push(genome);
            }
            RequestSpec { kind: Kind::Genomes, objectives, payload: Payload::Genomes(genomes) }
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<RequestSpec> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// Canonical text of a stream: one line per request. Two streams are
/// the same traffic exactly when their renderings are byte-identical.
#[must_use]
pub fn render_stream(specs: &[RequestSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        let _ = write!(out, "{:?} {:?}", s.kind, s.objectives);
        match &s.payload {
            Payload::Points(p) => {
                for i in p {
                    let _ = write!(out, " {i}");
                }
            }
            Payload::Genomes(g) => {
                for genome in g {
                    let _ = write!(out, " {genome:?}");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Fixed-rate open-loop schedule: request `i` is due `i × interval`
/// after the loop starts, whether or not earlier ones have finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Gap between consecutive due times.
    pub interval: Duration,
}

impl Schedule {
    /// A schedule of `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    #[must_use]
    pub fn at_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "open-loop rate {rate} must be positive");
        Self { interval: Duration::from_secs_f64(1.0 / rate) }
    }

    /// Due time of request `i`, relative to the loop start.
    #[must_use]
    pub fn due(&self, i: usize) -> Duration {
        self.interval * u32::try_from(i).expect("open loops send fewer than 2^32 requests")
    }
}

/// Open-loop timing of one request, relative to the loop start. A late
/// generator does not skip requests; it sends them late, and their
/// latency is still counted from the due time, so a stall is charged to
/// every request it delayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said to send.
    pub due: Duration,
    /// When the generator actually sent.
    pub sent: Duration,
    /// When the response was observed.
    pub done: Duration,
}

impl Timing {
    /// How late the generator sent the request.
    #[must_use]
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Latency from the due time.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}
