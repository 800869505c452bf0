//! `serve_mixed`: one `ServeEngine` with coalescing on, fed seeded mixed
//! traffic (mostly 16-point `Evaluate` queries, some 512-point ones,
//! some 64-genome batches across all three objective lanes with a share
//! of repeated genomes) by one generator and one collector thread.
//! Open-loop segments at a fixed rate measure latency from each
//! request's due time; closed-loop segments with a fixed number of
//! requests in flight, alternating with them, measure capacity. The only
//! workload through queueing, coalescing, the cross-request memo and
//! serve overhead.
//!
//! Every response is checked bitwise against the lane evaluator's
//! outcome, computed before the request's timed window opens. The
//! collector waits on responses in submission order, so a response is
//! observed no earlier than every response sent before it.

use crate::forward::{Forwarding, Observed};
use crate::heap;
use crate::host::HostProbe;
use crate::loadgen::{Kind, Payload, RequestSpec, Schedule, StreamGen, Timing};
use crate::report::Report;
use crate::stats::{as_ms, median, nearest_rank, ratio};
use crate::trace::{Span, Tracer};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use wbsn_dse::evaluator::{EnergyDelayEvaluator, Evaluator, LifetimeEvaluator, ModelEvaluator};
use wbsn_dse::objective::ObjectiveVector;
use wbsn_model::space::{DesignPoint, DesignSpace};
use wbsn_serve::{Objectives, QueryHandle, ServeConfig, ServeEngine, ServeError};

/// Coalescing threshold: both small shapes merge, 512-point queries
/// bypass (the setting `serve_throughput` documents).
pub const COALESCE_MAX_POINTS: usize = 128;
/// Coalescer admission window (the setting `serve_throughput` documents).
pub const COALESCE_MAX_WAIT: Duration = Duration::from_micros(30);
/// Open-loop arrival rate, requests per second.
pub const OPEN_RATE: f64 = 4000.0;
/// Share of a run spent in the open loop; the rest is the closed loop.
pub const OPEN_SHARE: f64 = 0.4;
/// Requests kept in flight by the closed loop.
pub const IN_FLIGHT: usize = 32;
/// Requests generated and checked per closed-loop round.
const ROUND_REQUESTS: usize = 1024;
/// Requests sent one at a time to measure serve overhead, per class.
const OVERHEAD_SMALL: usize = 200;
const OVERHEAD_LARGE: usize = 50;

/// The engine configuration of the workload.
#[must_use]
pub fn engine_config() -> ServeConfig {
    ServeConfig {
        coalesce_max_points: COALESCE_MAX_POINTS,
        coalesce_max_wait: COALESCE_MAX_WAIT,
        ..ServeConfig::default()
    }
}

/// The space every request is drawn from.
#[must_use]
pub fn space() -> DesignSpace {
    DesignSpace::case_study(6)
}

/// Direct evaluators of the three objective lanes: the reference the
/// engine's answers must equal bit for bit.
pub struct Lanes {
    full: ModelEvaluator,
    energy_delay: EnergyDelayEvaluator,
    lifetime: LifetimeEvaluator,
}

impl Default for Lanes {
    fn default() -> Self {
        Self {
            full: ModelEvaluator::shimmer(),
            energy_delay: EnergyDelayEvaluator::shimmer(),
            lifetime: LifetimeEvaluator::shimmer(),
        }
    }
}

impl Lanes {
    /// The evaluator of lane `o`.
    #[must_use]
    pub fn get(&self, o: Objectives) -> &dyn Evaluator {
        match o {
            Objectives::EnergyDelayPrd => &self.full,
            Objectives::EnergyDelay => &self.energy_delay,
            Objectives::EnergyDelayPrdLifetime => &self.lifetime,
        }
    }
}

/// The design points a request resolves to.
#[must_use]
pub fn points_of(spec: &RequestSpec, space: &DesignSpace) -> Vec<DesignPoint> {
    match &spec.payload {
        Payload::Points(indices) => {
            indices.iter().map(|&i| space.point_at(u128::from(i))).collect()
        }
        Payload::Genomes(genomes) => genomes.iter().map(|g| g.decode(space)).collect(),
    }
}

/// FNV-1a digest of the exact bits of an outcome vector.
#[must_use]
pub fn digest(outcomes: &[Option<ObjectiveVector>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(outcomes.len() as u64);
    for o in outcomes {
        match o {
            None => eat(0),
            Some(v) => {
                eat(1 + v.len() as u64);
                v.values().iter().for_each(|x| eat(x.to_bits()));
            }
        }
    }
    h
}

/// Points evaluated per reference batch when computing expected outcomes.
const REFERENCE_BATCH: usize = 16_384;

/// Digests of the lane evaluator's outcome for each request. Each
/// lane's requests are evaluated in concatenated batches of about
/// [`REFERENCE_BATCH`] points and split back: `evaluate_batch` is
/// order-preserving and pure, so a request's slice is exactly its own
/// outcome.
#[must_use]
pub fn expected(specs: &[RequestSpec], space: &DesignSpace, lanes: &Lanes) -> Vec<u64> {
    let mut digests = vec![0; specs.len()];
    for lane in Objectives::ALL {
        let mut members: Vec<usize> = Vec::new();
        let mut points: Vec<DesignPoint> = Vec::new();
        let mut flush = |members: &mut Vec<usize>, points: &mut Vec<DesignPoint>| {
            let outcomes = lanes.get(lane).evaluate_batch(points);
            let mut at = 0;
            for &i in members.iter() {
                let n = specs[i].len();
                digests[i] = digest(&outcomes[at..at + n]);
                at += n;
            }
            members.clear();
            points.clear();
        };
        for (i, spec) in specs.iter().enumerate().filter(|(_, s)| s.objectives == lane) {
            members.push(i);
            points.extend(points_of(spec, space));
            if points.len() >= REFERENCE_BATCH {
                flush(&mut members, &mut points);
            }
        }
        flush(&mut members, &mut points);
    }
    digests
}

/// Checks one response; `Err` describes a failure and whether the
/// output was wrong (as opposed to refused or lost).
fn check(
    response: Result<wbsn_serve::ScenarioResponse, ServeError>,
    want: u64,
) -> Result<(), (bool, String)> {
    let response = response.map_err(|e| (false, format!("request failed: {e}")))?;
    let outcomes = response
        .result
        .evaluations()
        .ok_or_else(|| (true, "evaluation request answered with a front".to_string()))?;
    if digest(outcomes) == want {
        Ok(())
    } else {
        Err((true, "response differs from the lane evaluator's outcome".into()))
    }
}

/// One cold set-up: engine start, one request of every kind and lane
/// answered, engine shut down.
fn cold_setup(seed: u64) -> f64 {
    let space = space();
    let mut gen = StreamGen::new(seed, space.clone());
    let mut specs: Vec<RequestSpec> = Vec::new();
    while specs.len() < 5 {
        let s = gen.next_request();
        let new_class = match s.kind {
            Kind::Genomes => {
                specs.iter().all(|x| x.objectives != s.objectives || x.kind != Kind::Genomes)
            }
            kind => specs.iter().all(|x| x.kind != kind),
        };
        if new_class {
            specs.push(s);
        }
    }
    let requests: Vec<_> = specs.iter().map(|s| s.materialize(&space)).collect();
    let t = Instant::now();
    let engine = ServeEngine::start(engine_config());
    let handles: Vec<_> = requests.into_iter().filter_map(|r| engine.try_submit(r).ok()).collect();
    for h in handles {
        let _ = std::hint::black_box(h.wait());
    }
    drop(engine);
    t.elapsed().as_secs_f64()
}

/// Median of [`crate::SETUPS`] cold set-ups, in seconds, unscaled.
pub fn setup_s(seed: u64, probe: &mut HostProbe) -> f64 {
    crate::median_setup(probe, || cold_setup(seed))
}

/// What one open loop observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per-request class and timing.
    pub timings: Vec<(Kind, Timing)>,
    /// `submit` durations, microseconds.
    pub submit_us: Vec<f64>,
    /// Queue depth seen just before each submission.
    pub queue_depth: Vec<f64>,
    /// Genomes sent.
    pub genomes: u64,
}

fn record(report: &mut Report, result: Result<(), (bool, String)>) {
    report.attempted += 1;
    if let Err((wrong, why)) = result {
        report.fail(wrong, why);
    }
}

/// Sends `specs` at `rate` from one generator thread while one collector
/// thread waits for and checks the responses.
pub fn open_loop(
    engine: &ServeEngine,
    specs: &[RequestSpec],
    want: &[u64],
    rate: f64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> OpenLoop {
    let space = space();
    let schedule = Schedule::at_rate(rate);
    let (tx, rx) =
        mpsc::channel::<(usize, Result<QueryHandle, ServeError>, Duration, Duration, u64)>();
    let start = Instant::now();
    let mut out = OpenLoop::default();
    let mut results = Vec::with_capacity(specs.len());
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut submit_us = Vec::with_capacity(specs.len());
            let mut depth = Vec::with_capacity(specs.len());
            for (i, spec) in specs.iter().enumerate() {
                let request = spec.materialize(&space);
                let due = schedule.due(i);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let root = tracer.map_or(0, Tracer::next_id);
                depth.push(engine.queue_depth() as f64);
                let t = Instant::now();
                // Blocking submit: a full queue holds the generator back
                // instead of refusing the request, and the wait is charged
                // to the request's latency, which runs from its due time.
                let submitted = {
                    let _span = tracer.map(|tr| tr.span("serve.engine.submit", Some(root), root));
                    engine.submit(request)
                };
                submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                let sent = t.duration_since(start);
                if tx.send((i, submitted, due, sent, root)).is_err() {
                    break;
                }
            }
            drop(tx);
            (submit_us, depth)
        });
        for (i, submitted, due, sent, root) in rx {
            let response = match submitted {
                Ok(handle) => {
                    let _span = tracer.map(|tr| tr.span("serve.engine.wait", Some(root), root));
                    handle.wait()
                }
                Err(e) => Err(e),
            };
            let done = start.elapsed();
            if let Some(tr) = tracer {
                tr.record(request_span(tr, root, start + due, start + done));
            }
            out.timings.push((specs[i].kind, Timing { due, sent, done }));
            results.push((i, check(response, want[i])));
        }
        let (submit_us, depth) = generator.join().expect("the open-loop generator does not panic");
        out.submit_us = submit_us;
        out.queue_depth = depth;
    });
    for (i, r) in results {
        if specs[i].kind == Kind::Genomes {
            out.genomes += specs[i].len() as u64;
        }
        record(report, r);
    }
    out
}

/// What one closed loop observed.
#[derive(Debug, Default, Clone)]
pub struct ClosedLoop {
    /// Per round: requests per second and points per second.
    pub rounds: Vec<(f64, f64)>,
    /// Requests completed.
    pub requests: u64,
    /// Genomes sent.
    pub genomes: u64,
    /// Timed seconds (request windows only, generation and checks excluded).
    pub seconds: f64,
}

/// Keeps [`IN_FLIGHT`] requests in flight for at least `seconds` of
/// timed window, in rounds of [`ROUND_REQUESTS`] whose expected outcomes
/// are computed before the round's window opens. With `tracer`, every
/// request gets the same spans as in the open loop.
pub fn closed_loop(
    engine: &ServeEngine,
    gen: &mut StreamGen,
    lanes: &Lanes,
    seconds: f64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> ClosedLoop {
    let space = space();
    let mut out = ClosedLoop::default();
    while out.seconds < seconds || out.requests == 0 {
        let specs = gen.take(ROUND_REQUESTS);
        let want = expected(&specs, &space, lanes);
        let requests: Vec<_> = specs.iter().map(|s| s.materialize(&space)).collect();
        let (tx, rx) = mpsc::channel::<(usize, Result<QueryHandle, ServeError>, u64, Instant)>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut results = Vec::with_capacity(specs.len());
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut in_flight = 0;
                for (i, request) in requests.into_iter().enumerate() {
                    if in_flight == IN_FLIGHT {
                        if done_rx.recv().is_err() {
                            break;
                        }
                        in_flight -= 1;
                    }
                    in_flight += 1;
                    let root = tracer.map_or(0, Tracer::next_id);
                    let sent = Instant::now();
                    let submitted = {
                        let _span =
                            tracer.map(|tr| tr.span("serve.engine.submit", Some(root), root));
                        engine.try_submit(request)
                    };
                    if tx.send((i, submitted, root, sent)).is_err() {
                        break;
                    }
                }
            });
            for (i, submitted, root, sent) in rx {
                let response = submitted.and_then(|handle| {
                    let _span = tracer.map(|tr| tr.span("serve.engine.wait", Some(root), root));
                    handle.wait()
                });
                if let Some(tr) = tracer {
                    tr.record(request_span(tr, root, sent, Instant::now()));
                }
                let _ = done_tx.send(());
                results.push((i, response));
            }
        });
        let took = start.elapsed().as_secs_f64();
        out.seconds += took;
        let points: usize = specs.iter().map(RequestSpec::len).sum();
        out.rounds.push((specs.len() as f64 / took, points as f64 / took));
        for (i, response) in results {
            out.requests += 1;
            if specs[i].kind == Kind::Genomes {
                out.genomes += specs[i].len() as u64;
            }
            record(report, check(response, want[i]));
        }
    }
    out
}

/// The root span of one serve request, from `start` (its due time in the
/// open loop, its submission in the closed loop) until its response was
/// observed. The span's id doubles as the request id.
fn request_span(tracer: &Tracer, root: u64, start: Instant, end: Instant) -> Span {
    Span {
        id: root,
        parent: None,
        request: root,
        name: "serve.request",
        start_ns: tracer.at_ns(start),
        end_ns: tracer.at_ns(end),
    }
}

/// A warm engine: started with the workload configuration and fed a
/// short untimed warm-up stream.
fn warm_engine(seed: u64, lanes: &Lanes, report: &mut Report) -> ServeEngine {
    let engine = ServeEngine::start(engine_config());
    let mut warm = StreamGen::new(seed ^ 0x5EED_0F3A_7E00, space());
    closed_loop(&engine, &mut warm, lanes, 0.0, None, report);
    engine
}

/// Requests of an open loop of `seconds`.
fn open_requests(seconds: f64) -> usize {
    (OPEN_RATE * seconds).ceil() as usize
}

/// Open-loop segments of a run. The run alternates open- and
/// closed-loop segments, each percentile is taken per open segment and
/// the median segment is reported, so a stretch of the run in which the
/// runner stalls moves some segments, not the figure.
pub const SEGMENTS: usize = 8;

/// Median over open-loop `segments` of each segment's nearest-rank `p`
/// latency of class `kind` (all when `None`). Returns the value and the
/// smallest per-segment sample count and count beyond the rank.
fn segmented(segments: &[OpenLoop], kind: Option<Kind>, p: f64) -> (f64, usize, usize) {
    let tails: Vec<_> = segments
        .iter()
        .filter_map(|seg| {
            let v: Vec<Duration> = seg
                .timings
                .iter()
                .filter(|(k, _)| kind.is_none_or(|c| c == *k))
                .map(|(_, t)| t.latency())
                .collect();
            nearest_rank(&as_ms(&v), p)
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let samples = tails.iter().map(|t| t.samples).min().unwrap_or(0);
    let beyond = tails.iter().map(|t| t.beyond).min().unwrap_or(0);
    (median(&values), samples, beyond)
}

/// What an interleaved run observed.
#[derive(Debug, Default)]
pub struct Mixed {
    /// The open-loop segments.
    pub open: Vec<OpenLoop>,
    /// Requests the open loop sent.
    pub open_requests: usize,
    /// With a tracer, every request the open loop sent, in order, with
    /// its expected digest.
    pub open_specs: Vec<(RequestSpec, u64)>,
    /// Closed-loop segments run without spans.
    pub plain: ClosedLoop,
    /// Closed-loop segments run under spans (none without a tracer).
    pub traced: ClosedLoop,
}

/// [`SEGMENTS`] pairs of an open-loop segment (`open_s` in all) and a
/// closed-loop segment (`closed_s` in all). With `tracer`, the open
/// segments and every second closed segment run under spans, and the
/// open-loop requests are kept for the ledger's replays. With `probe`,
/// the host probe is timed after every pair of segments.
pub fn interleaved(
    engine: &ServeEngine,
    gen: &mut StreamGen,
    lanes: &Lanes,
    (open_s, closed_s): (f64, f64),
    tracer: Option<&Tracer>,
    mut probe: Option<&mut HostProbe>,
    report: &mut Report,
) -> Mixed {
    let space = space();
    let mut out = Mixed::default();
    for seg in 0..SEGMENTS {
        let specs = gen.take(open_requests(open_s / SEGMENTS as f64));
        let want = expected(&specs, &space, lanes);
        out.open.push(open_loop(engine, &specs, &want, OPEN_RATE, tracer, report));
        out.open_requests += specs.len();
        if tracer.is_some() {
            out.open_specs.extend(specs.into_iter().zip(want));
        }
        let closed_tracer = tracer.filter(|_| seg % 2 == 1);
        let closed =
            closed_loop(engine, gen, lanes, closed_s / SEGMENTS as f64, closed_tracer, report);
        let into = if closed_tracer.is_some() { &mut out.traced } else { &mut out.plain };
        into.rounds.extend(closed.rounds);
        into.requests += closed.requests;
        into.genomes += closed.genomes;
        into.seconds += closed.seconds;
        if let Some(p) = probe.as_deref_mut() {
            p.sample();
        }
    }
    out
}

/// The untraced end-to-end run: [`OPEN_SHARE`] of the time open loop,
/// the rest closed loop.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let mut probe = HostProbe::new();
    let setup = setup_s(seed, &mut probe);
    let lanes = Lanes::default();
    let engine = warm_engine(seed, &lanes, report);
    let mut gen = StreamGen::new(seed, space());
    let split = (seconds * OPEN_SHARE, seconds * (1.0 - OPEN_SHARE));
    heap::reset_peak();
    let mixed = interleaved(&engine, &mut gen, &lanes, split, None, Some(&mut probe), report);
    let peak_mb = heap::peak_mb();
    drop(engine);
    let (open, closed) = (&mixed.open, &mixed.plain);

    let (p50, p50_n, _) = segmented(open, None, 50.0);
    let (small, small_n, _) = segmented(open, Some(Kind::Small), 50.0);
    let (large, large_n, _) = segmented(open, Some(Kind::Large), 50.0);
    report.note(format!(
        "serve_mixed open loop: {} requests at {OPEN_RATE}/s in {SEGMENTS} segments, medians of per-segment figures; \
         per segment at least {p50_n} samples, {small_n} small and {large_n} large; \
         offered load {:.3} of the closed-loop capacity",
        mixed.open_requests,
        OPEN_RATE / median(&closed.rounds.iter().map(|r| r.0).collect::<Vec<_>>()),
    ));
    for (name, kind) in [("small", Kind::Small), ("large", Kind::Large), ("genomes", Kind::Genomes)]
    {
        for p in [90.0, 99.0] {
            let (v, n, beyond) = segmented(open, Some(kind), p);
            report.note(format!(
                "serve_mixed open loop {name} p{p} {v:.4} ms (median segment, per segment at least {n} samples, {beyond} beyond)"
            ));
        }
    }
    let late: Vec<Duration> =
        open.iter().flat_map(|seg| seg.timings.iter().map(|(_, t)| t.late())).collect();
    if let Some(l) = nearest_rank(&as_ms(&late), 99.0) {
        report.note(format!(
            "serve_mixed generator late p99 {:.4} ms over {} samples",
            l.value, l.samples
        ));
    }
    report.note(format!(
        "serve_mixed closed loop: {} requests in {} rounds of {ROUND_REQUESTS}, {IN_FLIGHT} in flight, {:.3} s timed; rates are the median round",
        closed.requests,
        closed.rounds.len(),
        closed.seconds
    ));
    let qps: Vec<f64> = closed.rounds.iter().map(|r| r.0).collect();
    let pps: Vec<f64> = closed.rounds.iter().map(|r| r.1).collect();
    report.note(format!(
        "serve_mixed unscaled: closed-loop {:.1} queries/s, open-loop p50 {p50:.4} ms, set-up {:.3} ms",
        median(&qps),
        setup * 1e3
    ));
    report.host_note(&probe);
    let scale = probe.scale();
    report.metric("setup_s", setup * scale, "s");
    report.metric("peak_heap_mb", peak_mb, "MB");
    report.metric("points_per_s", median(&pps) / scale, "points/s");
    report.metric("ops_per_s", median(&qps) / scale, "1/s");
    report.metric("p50_ms", p50 * scale, "ms");
    report.metric("small_ms", small * scale, "ms");
    report.metric("large_ms", large * scale, "ms");
}

/// Median serve round trip minus median direct lane call, in
/// microseconds, over requests sent one at a time.
fn overhead_us(
    engine: &ServeEngine,
    specs: &[&RequestSpec],
    lanes: &Lanes,
    report: &mut Report,
) -> f64 {
    let space = space();
    let mut serve = Vec::with_capacity(specs.len());
    let mut direct = Vec::with_capacity(specs.len());
    for spec in specs {
        let points = points_of(spec, &space);
        let lane = lanes.get(spec.objectives);
        let t = Instant::now();
        let want = std::hint::black_box(lane.evaluate_batch(&points));
        direct.push(t.elapsed().as_secs_f64() * 1e6);
        let request = spec.materialize(&space);
        let t = Instant::now();
        let response = engine.try_submit(request).and_then(QueryHandle::wait);
        serve.push(t.elapsed().as_secs_f64() * 1e6);
        record(report, check(response, digest(&want)));
    }
    median(&serve) - median(&direct)
}

/// The traced serve run: the interleaved run of [`run`] with spans on
/// every open-loop request and on every second closed-loop segment
/// (the others give the tracing overhead when `overhead` is set),
/// one-at-a-time overhead probes, and direct lane replays of the
/// open-loop stream through forwarding evaluators. Returns what the
/// replays' forwarding evaluators observed and the number of requests
/// replayed.
pub fn traced(
    seed: u64,
    split: (f64, f64),
    tracer: &Tracer,
    overhead: bool,
    report: &mut Report,
) -> (Observed, u64) {
    let lanes = Lanes::default();
    let engine = warm_engine(seed, &lanes, report);
    let mut gen = StreamGen::new(seed, space());
    let before = engine.stats();
    let mixed = interleaved(&engine, &mut gen, &lanes, split, Some(tracer), None, report);
    let after = engine.stats();
    let completed = (after.completed - before.completed) as f64;
    let coalesced = (after.coalesced_requests - before.coalesced_requests) as f64;
    let super_batches = (after.super_batches - before.super_batches) as f64;
    let memo_hits = after.memo_hits - before.memo_hits;
    let specs: Vec<&RequestSpec> = mixed.open_specs.iter().map(|(s, _)| s).collect();
    let small: Vec<&RequestSpec> =
        specs.iter().copied().filter(|s| s.kind == Kind::Small).take(OVERHEAD_SMALL).collect();
    let large: Vec<&RequestSpec> =
        specs.iter().copied().filter(|s| s.kind == Kind::Large).take(OVERHEAD_LARGE).collect();
    let overhead_small = overhead_us(&engine, &small, &lanes, report);
    let overhead_large = overhead_us(&engine, &large, &lanes, report);
    drop(engine);
    if overhead {
        let per_query = |c: &ClosedLoop| c.seconds / c.requests as f64;
        report.metric(
            "trace.overhead_frac",
            per_query(&mixed.traced) / per_query(&mixed.plain) - 1.0,
            "ratio",
        );
    }

    let pct = |v: &[f64], p: f64| nearest_rank(v, p).map_or(0.0, |x| x.value);
    let open = &mixed.open;
    let late: Vec<f64> = as_ms(
        &open.iter().flat_map(|seg| seg.timings.iter().map(|(_, t)| t.late())).collect::<Vec<_>>(),
    );
    let submit_us: Vec<f64> = open.iter().flat_map(|seg| seg.submit_us.iter().copied()).collect();
    let depth: Vec<f64> = open.iter().flat_map(|seg| seg.queue_depth.iter().copied()).collect();
    report.metric("serve.engine.submit_us_p99", pct(&submit_us, 99.0), "us");
    report.metric("serve.engine.queue_depth_p99", pct(&depth, 99.0), "count");
    report.metric("serve.engine.overhead_us_small", overhead_small, "us");
    report.metric("serve.engine.overhead_us_large", overhead_large, "us");
    report.metric("serve.coalesce.coalesced_frac", ratio(coalesced, completed), "ratio");
    report.metric("serve.coalesce.members_per_batch", ratio(coalesced, super_batches), "count");
    let genomes = open.iter().map(|seg| seg.genomes).sum::<u64>()
        + mixed.plain.genomes
        + mixed.traced.genomes;
    report.metric("serve.memo.hit_ratio", ratio(memo_hits as f64, genomes as f64), "ratio");
    report.metric("loadgen.late_p99_ms", pct(&late, 99.0), "ms");
    let capacity: Vec<f64> = mixed.plain.rounds.iter().map(|r| r.0).collect();
    report.metric("serve.open.offered_load", ratio(OPEN_RATE, median(&capacity)), "ratio");
    for (kind, metric) in
        [(Kind::Small, "serve.open.small_p99_ms"), (Kind::Large, "serve.open.large_p99_ms")]
    {
        report.metric(metric, segmented(open, Some(kind), 99.0).0, "ms");
    }
    report.note(format!(
        "serve ledger: {} open-loop requests ({} submit and queue-depth samples, late p99 over {}), {} + {} closed-loop requests, {} + {} one-at-a-time probes, {} completed / {} coalesced / {} super-batches / {} memo hits",
        specs.len(),
        submit_us.len(),
        late.len(),
        mixed.plain.requests,
        mixed.traced.requests,
        small.len(),
        large.len(),
        completed,
        coalesced,
        super_batches,
        memo_hits
    ));

    // Direct lane replays of the open-loop stream.
    let space = space();
    let forwards: Vec<Forwarding<'_>> =
        Objectives::ALL.iter().map(|&o| Forwarding::new(lanes.get(o), tracer, seed)).collect();
    let mut class_ns = [(0.0f64, 0u64); 2];
    for (spec, want) in &mixed.open_specs {
        let points = points_of(spec, &space);
        let fw = &forwards[spec.objectives.lane()];
        fw.enter(None, tracer.next_id());
        let t = Instant::now();
        let outcome = fw.evaluate_batch(&points);
        let took = t.elapsed().as_secs_f64() * 1e9;
        if digest(&outcome) != *want {
            report.fail(true, "a direct lane replay disagrees with the precomputed outcome");
        }
        let class = match spec.kind {
            Kind::Small => 0,
            Kind::Large => 1,
            Kind::Genomes => continue,
        };
        class_ns[class].0 += took;
        class_ns[class].1 += points.len() as u64;
    }
    report.metric(
        "dse.evaluator.ns_per_point_small",
        ratio(class_ns[0].0, class_ns[0].1 as f64),
        "ns",
    );
    report.metric(
        "dse.evaluator.ns_per_point_large",
        ratio(class_ns[1].0, class_ns[1].1 as f64),
        "ns",
    );
    let mut observed = Observed::default();
    for fw in &forwards {
        observed.merge(fw.observed());
    }
    (observed, mixed.open_specs.len() as u64)
}
