//! `search`: seeded NSGA-II and MOSA runs (default configurations) on
//! each truth scenario, plus one NSGA-II run on the 6-node case study,
//! repeated over seeds derived from the workload seed. NSGA-II sends
//! one mostly small batch per generation after memo dedup; MOSA makes
//! single-point `evaluate` calls. Search self time and the genome memo
//! matter here; the kernel barely does.

use crate::forward::Forwarding;
use crate::heap;
use crate::host::HostProbe;
use crate::report::Report;
use crate::stats::{median, ratio};
use crate::trace::{self_time, Tracer};
use crate::truth_sweep::golden;
use std::time::Instant;
use wbsn_dse::evaluator::{Evaluator, ModelEvaluator};
use wbsn_dse::genome::Genome;
use wbsn_dse::mosa::{mosa, MosaConfig};
use wbsn_dse::nsga2::{nsga2, Nsga2Config, SearchResult};
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::truth::{scenarios, TruthFront};
use wbsn_model::space::DesignSpace;

/// Searcher runs in one set.
pub const RUNS_PER_SET: usize = 7;

/// Sets whose fronts are scored for hypervolume in a traced run.
const SCORED_SETS: usize = 2;

/// Which searcher a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Searcher {
    /// NSGA-II, `Nsga2Config::default()` with the run's seed.
    Nsga2,
    /// MOSA, `MosaConfig::default()` with the run's seed.
    Mosa,
}

/// One run of a set: a searcher over a space, scored against `truth`
/// (an index into [`scenarios`]) when the space is a truth scenario.
#[derive(Debug, Clone)]
pub struct Run {
    /// The searcher.
    pub searcher: Searcher,
    /// The space searched.
    pub space: DesignSpace,
    /// Index of the truth scenario, if any.
    pub truth: Option<usize>,
    /// The run's seed.
    pub seed: u64,
}

/// `SplitMix64` finalizer: derives independent run seeds from the
/// workload seed.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The runs of set `k` for workload seed `seed`.
#[must_use]
pub fn set_runs(seed: u64, k: u64) -> Vec<Run> {
    let base = mix(seed ^ mix(k));
    let mut runs = Vec::with_capacity(RUNS_PER_SET);
    for (i, s) in scenarios().into_iter().enumerate() {
        for (j, searcher) in [Searcher::Nsga2, Searcher::Mosa].into_iter().enumerate() {
            let seed = mix(base.wrapping_add((2 * i + j) as u64));
            runs.push(Run { searcher, space: s.space.clone(), truth: Some(i), seed });
        }
    }
    runs.push(Run {
        searcher: Searcher::Nsga2,
        space: DesignSpace::case_study(6),
        truth: None,
        seed: mix(base.wrapping_add(6)),
    });
    runs
}

fn search(run: &Run, eval: &dyn Evaluator) -> SearchResult {
    match run.searcher {
        Searcher::Nsga2 => {
            nsga2(&run.space, eval, &Nsga2Config { seed: run.seed, ..Nsga2Config::default() })
        }
        Searcher::Mosa => {
            mosa(&run.space, eval, &MosaConfig { seed: run.seed, ..MosaConfig::default() })
        }
    }
}

/// Parses a golden truth snapshot back into its front.
///
/// # Panics
///
/// Panics on a malformed snapshot.
#[must_use]
pub fn parse_golden(scenario: &'static str) -> TruthFront {
    let text = golden(scenario);
    let header = |key: &str| -> u128 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .expect("golden header present")
    };
    let objectives = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let v: Vec<f64> =
                l.split_whitespace().map(|x| x.parse().expect("golden value")).collect();
            ObjectiveVector::from_slice(&v)
        })
        .collect();
    TruthFront {
        scenario,
        cardinality: header("# space points:"),
        feasible: u64::try_from(header("# feasible:")).expect("feasible count fits u64"),
        objectives,
    }
}

/// Checks that every front point re-evaluates, through the scalar
/// model, to exactly the objectives the front holds.
fn check_front(result: &SearchResult, reference: &ModelEvaluator) -> Result<(), String> {
    for entry in result.front.entries() {
        match reference.evaluate(&entry.payload) {
            Some(o) if bits(&o) == bits(&entry.objectives) => {}
            Some(_) => return Err("a front point re-evaluates to other objectives".into()),
            None => return Err("a front point is infeasible".into()),
        }
    }
    if result.front.is_empty() {
        return Err("empty front".into());
    }
    Ok(())
}

fn bits(o: &ObjectiveVector) -> Vec<u64> {
    o.values().iter().map(|v| v.to_bits()).collect()
}

/// One cold set-up: a fresh evaluator, the truth fronts parsed from
/// their snapshots, and the initial population of every run of the
/// first set drawn and evaluated, one batch per run.
fn cold_setup(seed: u64) -> f64 {
    let t = Instant::now();
    let eval = ModelEvaluator::shimmer();
    let truths: Vec<TruthFront> = scenarios().iter().map(|s| parse_golden(s.name)).collect();
    std::hint::black_box(truths);
    for run in set_runs(seed, 0) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(run.seed);
        let points: Vec<_> = (0..Nsga2Config::default().population)
            .map(|_| Genome::random(&run.space, &mut rng).decode(&run.space))
            .collect();
        std::hint::black_box(eval.evaluate_batch(&points));
    }
    t.elapsed().as_secs_f64()
}

/// Median of [`crate::SETUPS`] cold set-ups, in seconds, unscaled.
pub fn setup_s(seed: u64, probe: &mut HostProbe) -> f64 {
    crate::median_setup(probe, || cold_setup(seed))
}

/// Timings and counters of a sequence of sets.
#[derive(Debug, Default)]
pub struct Sets {
    /// Seconds per untraced set.
    pub plain: Vec<f64>,
    /// Seconds per traced set.
    pub traced: Vec<f64>,
    /// Candidate evaluations per untraced set (memo hits included).
    pub plain_evaluations: Vec<u64>,
    /// Seconds per untraced searcher run.
    pub runs: Vec<f64>,
    /// Seconds per untraced MOSA run.
    pub mosa: Vec<f64>,
    /// Seconds per untraced NSGA-II run.
    pub nsga2: Vec<f64>,
    /// Evaluations requested over all runs.
    pub evaluations: u64,
    /// Evaluations answered by the genome memo over all runs.
    pub memo_hits: u64,
    /// Hypervolume ratio of each scored run.
    pub hypervolume_ratios: Vec<f64>,
    /// Runs made.
    pub attempted: u64,
    /// Runs made through the forwarding evaluator.
    pub traced_runs: u64,
}

/// Runs sets for at least `seconds` and `min_sets`, checking every
/// front. With `trace`, every second set runs through the forwarding
/// evaluator under `dse.nsga2` / `dse.mosa` spans, and the first sets
/// are scored against the truth fronts. With `probe`, the host probe is
/// timed after every untraced set.
pub fn run_sets(
    seed: u64,
    seconds: f64,
    min_sets: usize,
    eval: &ModelEvaluator,
    trace: Option<(&Tracer, &Forwarding<'_>)>,
    mut probe: Option<&mut HostProbe>,
    report: &mut Report,
) -> Sets {
    let truths: Vec<(TruthFront, f64)> = if trace.is_some() {
        scenarios()
            .iter()
            .map(|s| {
                let t = parse_golden(s.name);
                let hv = t.hypervolume_of(&t.objectives);
                (t, hv)
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut out = Sets::default();
    let start = Instant::now();
    let mut k = 0u64;
    while (k as usize) < min_sets || start.elapsed().as_secs_f64() < seconds {
        let traced = trace.filter(|_| k % 2 == 1);
        let runs = set_runs(seed, k);
        let mut results = Vec::with_capacity(runs.len());
        let set_start = Instant::now();
        for run in &runs {
            let t = Instant::now();
            let result = match traced {
                Some((tracer, fw)) => {
                    let root = tracer.root_span(match run.searcher {
                        Searcher::Nsga2 => "dse.nsga2",
                        Searcher::Mosa => "dse.mosa",
                    });
                    fw.enter(Some(root.id()), root.id());
                    search(run, fw)
                }
                None => search(run, eval),
            };
            if traced.is_some() {
                out.traced_runs += 1;
            } else {
                let took = t.elapsed().as_secs_f64();
                out.runs.push(took);
                match run.searcher {
                    Searcher::Nsga2 => out.nsga2.push(took),
                    Searcher::Mosa => out.mosa.push(took),
                }
            }
            results.push(result);
        }
        let took = set_start.elapsed().as_secs_f64();
        let evaluations: u64 = results.iter().map(|r| r.evaluations).sum();
        if traced.is_some() {
            out.traced.push(took);
        } else {
            out.plain.push(took);
            out.plain_evaluations.push(evaluations);
            if let Some(p) = probe.as_deref_mut() {
                p.sample();
            }
        }
        for (run, result) in runs.iter().zip(&results) {
            out.attempted += 1;
            out.evaluations += result.evaluations;
            out.memo_hits += result.memo_hits;
            if let Err(why) = check_front(result, eval) {
                report.fail(true, format!("{:?} seed {}: {why}", run.searcher, run.seed));
            }
            if let (Some(i), true) = (run.truth, (k as usize) < SCORED_SETS && trace.is_some()) {
                let (truth, truth_hv) = &truths[i];
                let front: Vec<ObjectiveVector> = result.front.objectives().copied().collect();
                out.hypervolume_ratios.push(truth.hypervolume_of(&front) / truth_hv);
            }
        }
        k += 1;
    }
    out
}

/// The untraced end-to-end run. Every timing is scaled to the nominal
/// host by the host probe timed between set-ups and between sets.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let mut probe = HostProbe::new();
    let setup = setup_s(seed, &mut probe);
    let eval = ModelEvaluator::shimmer();
    heap::reset_peak();
    let s = run_sets(seed, seconds, 3, &eval, None, Some(&mut probe), report);
    let peak_mb = heap::peak_mb();
    report.attempted += s.attempted;
    let scale = probe.scale();
    let set_s = median(&s.plain);
    let rates: Vec<f64> =
        s.plain.iter().zip(&s.plain_evaluations).map(|(t, &e)| e as f64 / t).collect();
    report.note(format!(
        "search: {} sets of {RUNS_PER_SET} runs; runs/s from the set p50 over {} samples; run p50 over {}, \
         small (MOSA) p50 over {}, large (NSGA-II) p50 over {}",
        s.plain.len(),
        s.plain.len(),
        s.runs.len(),
        s.mosa.len(),
        s.nsga2.len()
    ));
    report.note(format!(
        "search unscaled: set p50 {:.4} s, run p50 {:.3} ms, set-up {:.3} ms",
        set_s,
        median(&s.runs) * 1e3,
        setup * 1e3
    ));
    report.host_note(&probe);
    report.metric("setup_s", setup * scale, "s");
    report.metric("peak_heap_mb", peak_mb, "MB");
    report.metric("points_per_s", median(&rates) / scale, "points/s");
    report.metric("ops_per_s", RUNS_PER_SET as f64 / set_s / scale, "1/s");
    report.metric("p50_ms", median(&s.runs) * 1e3 * scale, "ms");
    report.metric("small_ms", median(&s.mosa) * 1e3 * scale, "ms");
    report.metric("large_ms", median(&s.nsga2) * 1e3 * scale, "ms");
}

/// The traced search: interleaved traced and untraced sets for at least
/// `seconds` (two sets at minimum). Reports the searchers' self time,
/// the memo hit ratio and the hypervolume ratio against truth, and,
/// when `overhead` is set, the tracing overhead. Returns the runs made
/// through `fw`.
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
    let s = run_sets(seed, seconds, SCORED_SETS, eval, Some((tracer, fw)), None, report);
    let spans = tracer.spans();
    let spans = &spans[before..];
    for (name, metric) in [("dse.nsga2", "dse.nsga2.self_s"), ("dse.mosa", "dse.mosa.self_s")] {
        let (count, _, own) = self_time(spans, name);
        report.metric(metric, ratio(own as f64 / 1e9, count as f64), "s");
    }
    report.metric("dse.memo.hit_ratio", ratio(s.memo_hits as f64, s.evaluations as f64), "ratio");
    let hv = s.hypervolume_ratios.iter().sum::<f64>() / s.hypervolume_ratios.len().max(1) as f64;
    report.metric("dse.search.hypervolume_ratio", hv, "ratio");
    report.note(format!(
        "dse.search: {} traced and {} untraced sets; self time per traced run; hypervolume ratio is the mean of {} runs vs truth",
        s.traced.len(),
        s.plain.len(),
        s.hypervolume_ratios.len()
    ));
    report.attempted += s.attempted;
    if overhead {
        report.metric("trace.overhead_frac", median(&s.traced) / median(&s.plain) - 1.0, "ratio");
    }
    s.traced_runs
}
