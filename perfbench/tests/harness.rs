//! The benchmark's own checks: seeded traffic is reproducible, open-loop
//! accounting charges stalls correctly, and the forwarding evaluator is
//! invisible to the results.

use std::time::Duration;
use wbsn_dse::evaluator::{EnergyDelayEvaluator, Evaluator, LifetimeEvaluator, ModelEvaluator};
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::truth::scenarios;
use wbsn_model::space::DesignSpace;
use wbsn_perfbench::forward::{Forwarding, Method};
use wbsn_perfbench::loadgen::{render_stream, Kind, Schedule, StreamGen, Timing};
use wbsn_perfbench::search::parse_golden;
use wbsn_perfbench::trace::Tracer;
use wbsn_perfbench::truth_sweep::golden;

fn stream(seed: u64, n: usize) -> String {
    render_stream(&StreamGen::new(seed, DesignSpace::case_study(6)).take(n))
}

#[test]
fn same_seed_gives_a_byte_identical_request_stream() {
    let a = stream(42, 400);
    assert_eq!(a.as_bytes(), stream(42, 400).as_bytes());
    assert_ne!(a, stream(43, 400), "another seed is other traffic");
    // A longer stream extends the shorter one: the stream is a sequence,
    // not a batch that depends on its length.
    assert!(stream(42, 500).starts_with(&a));
    // The materialized engine requests are reproducible too.
    let space = DesignSpace::case_study(6);
    let x: Vec<_> =
        StreamGen::new(7, space.clone()).take(40).iter().map(|s| s.materialize(&space)).collect();
    let y: Vec<_> =
        StreamGen::new(7, space.clone()).take(40).iter().map(|s| s.materialize(&space)).collect();
    assert_eq!(format!("{x:?}").as_bytes(), format!("{y:?}").as_bytes());
}

#[test]
fn the_stream_holds_every_request_kind_and_repeats_genomes() {
    let specs = StreamGen::new(1, DesignSpace::case_study(6)).take(2000);
    for kind in [Kind::Small, Kind::Large, Kind::Genomes] {
        assert!(specs.iter().any(|s| s.kind == kind), "{kind:?} missing");
    }
    let small = specs.iter().filter(|s| s.kind == Kind::Small).count();
    assert!(small > specs.len() / 2, "small queries dominate");
    let text = render_stream(&specs);
    let genome_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("Genomes")).collect();
    let mut seen = std::collections::HashSet::new();
    let mut repeats = 0;
    for line in genome_lines {
        for g in line.split(" Genome ").skip(1) {
            if !seen.insert(g.to_string()) {
                repeats += 1;
            }
        }
    }
    assert!(repeats > 0, "genome batches repeat earlier genomes");
}

#[test]
fn open_loop_lateness_is_charged_from_the_due_time() {
    let schedule = Schedule::at_rate(1000.0);
    assert_eq!(schedule.due(0), Duration::ZERO);
    assert_eq!(schedule.due(3), Duration::from_millis(3));
    let ms = Duration::from_millis;
    // A 4 ms stall at request 1: the generator sends 1, 2 and 3 late at
    // t = 5 ms, and each one's latency still runs from its due time.
    let sent = [ms(0), ms(5), ms(5), ms(5), ms(4)];
    let done = [ms(1), ms(6), ms(7), ms(8), ms(5)];
    let timings: Vec<Timing> =
        (0..5).map(|i| Timing { due: schedule.due(i), sent: sent[i], done: done[i] }).collect();
    let late: Vec<Duration> = timings.iter().map(Timing::late).collect();
    assert_eq!(late, [ms(0), ms(4), ms(3), ms(2), ms(0)]);
    let latency: Vec<Duration> = timings.iter().map(Timing::latency).collect();
    assert_eq!(latency, [ms(1), ms(5), ms(5), ms(5), ms(1)]);
    // Service time alone (done - sent) would hide the stall.
    assert_eq!(timings[2].done.checked_sub(timings[2].sent), Some(ms(2)));
}

fn bits(outcomes: &[Option<ObjectiveVector>]) -> Vec<Option<Vec<u64>>> {
    outcomes
        .iter()
        .map(|o| o.as_ref().map(|v| v.values().iter().map(|x| x.to_bits()).collect()))
        .collect()
}

#[test]
fn forwarding_evaluator_returns_bitwise_identical_outputs() {
    let tracer = Tracer::new();
    let space = DesignSpace::case_study(6);
    let points = space.sample_sweep(300);
    let lanes: [&dyn Evaluator; 3] = [
        &ModelEvaluator::shimmer(),
        &EnergyDelayEvaluator::shimmer(),
        &LifetimeEvaluator::shimmer(),
    ];
    for inner in lanes {
        let fw = Forwarding::new(inner, &tracer, 3);
        assert_eq!(bits(&fw.evaluate_batch(&points)), bits(&inner.evaluate_batch(&points)));
        assert_eq!(
            bits(&fw.evaluate_batch_axis_runs(&points)),
            bits(&inner.evaluate_batch_axis_runs(&points))
        );
        let small = &points[..16];
        assert_eq!(bits(&fw.evaluate_batch(small)), bits(&inner.evaluate_batch(small)));
        for p in &points[..20] {
            assert_eq!(bits(&[fw.evaluate(p)]), bits(&[inner.evaluate(p)]));
        }
        assert_eq!(fw.num_objectives(), inner.num_objectives());
        assert_eq!(fw.name(), inner.name());
        let observed = fw.observed();
        let stats = observed.total();
        assert_eq!(stats.calls, 3 + 20);
        assert_eq!(stats.points, 300 * 2 + 16 + 20);
        assert_eq!(observed.of(Method::Evaluate).calls, 20);
        assert_eq!(observed.of(Method::Batch).points, 300 + 16);
        assert_eq!(observed.of(Method::AxisRuns).points, 300);
        let feasible = inner.evaluate_batch(&points).iter().filter(|o| o.is_some()).count() as u64;
        assert!(feasible > 0 && feasible < 300, "the sample mixes feasible and infeasible points");
        assert!(stats.feasible >= 2 * feasible);
        // Every sampled batch keeps the method it came in through.
        for method in Method::ALL {
            assert!(observed.batches.iter().any(|(m, _)| *m == method), "{method:?} unsampled");
        }
        assert_eq!(observed.batches.len(), 3 + 20);
    }
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3 * 23);
    assert!(spans.iter().all(|s| s.name == "dse.evaluator"));
}

#[test]
fn golden_fronts_parse_back_to_their_snapshots() {
    for s in scenarios() {
        assert_eq!(parse_golden(s.name).render(), golden(s.name), "{}", s.name);
    }
}
