//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints every metric with its unit, then the
//! JSON result as the last line of standard output. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ledger, whose spans are written to
//! `.bench_out/spans-<workload>.jsonl` (the latest traced run of each
//! workload).

use std::path::Path;
use std::process::ExitCode;
use wbsn_dse::evaluator::ModelEvaluator;
use wbsn_perfbench::fingerprint::Fingerprint;
use wbsn_perfbench::forward::Forwarding;
use wbsn_perfbench::heap::PeakHeap;
use wbsn_perfbench::report::Report;
use wbsn_perfbench::stats::ratio;
use wbsn_perfbench::trace::Tracer;
use wbsn_perfbench::{ledger, search, serve_mixed, truth_sweep, Workload};

/// Open- and closed-loop seconds of the serve probe a traced run of
/// another workload makes, so every layer appears in every ledger. The
/// workloads in `BENCHMARK.json` reach the serve layers only through it.
const SERVE_PROBE: (f64, f64) = (3.0, 3.0);

#[global_allocator]
static HEAP: PeakHeap = PeakHeap;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn untraced(args: &Args, report: &mut Report) {
    match args.workload {
        Workload::TruthSweep => truth_sweep::run(args.seed, args.seconds, report),
        Workload::Search => search::run(args.seed, args.seconds, report),
        Workload::ServeMixed => serve_mixed::run(args.seed, args.seconds, report),
    }
    report.metric(
        "ok_frac",
        ratio((report.attempted - report.failed) as f64, report.attempted as f64),
        "ratio",
    );
}

/// The per-layer ledger: the named workload traced for the run's
/// seconds (its forwarding evaluator gives the shared layers), then a
/// short traced probe of each layer the workload does not reach.
fn traced(args: &Args, tracer: &Tracer, report: &mut Report) {
    let (seed, seconds) = (args.seed, args.seconds);
    let eval = ModelEvaluator::shimmer();
    let probe = Forwarding::new(&eval, tracer, seed);
    match args.workload {
        Workload::TruthSweep => {
            let fw = Forwarding::new(&eval, tracer, seed);
            let fronts = truth_sweep::traced(seed, seconds, &eval, tracer, &fw, true, report);
            ledger::report_layers(report, &fw.observed(), fronts);
            search::traced(seed, 0.0, &eval, tracer, &probe, false, report);
            serve_mixed::traced(seed, SERVE_PROBE, tracer, false, report);
        }
        Workload::Search => {
            let fw = Forwarding::new(&eval, tracer, seed);
            let runs = search::traced(seed, seconds, &eval, tracer, &fw, true, report);
            ledger::report_layers(report, &fw.observed(), runs);
            truth_sweep::traced(seed, 0.0, &eval, tracer, &probe, false, report);
            serve_mixed::traced(seed, SERVE_PROBE, tracer, false, report);
        }
        Workload::ServeMixed => {
            let split =
                (seconds * serve_mixed::OPEN_SHARE, seconds * (1.0 - serve_mixed::OPEN_SHARE));
            let (observed, requests) = serve_mixed::traced(seed, split, tracer, true, report);
            ledger::report_layers(report, &observed, requests);
            truth_sweep::traced(seed, 0.0, &eval, tracer, &probe, false, report);
            search::traced(seed, 0.0, &eval, tracer, &probe, false, report);
        }
    }
    report.metric("trace.spans", tracer.spans().len() as f64, "count");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <truth_sweep|search|serve_mixed> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::capture(Path::new("."));
    println!(
        "fingerprint {} workload {} seed {} seconds {} trace {}",
        fingerprint.json(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::new();
    if args.trace {
        let tracer = Tracer::new();
        traced(&args, &tracer, &mut report);
        let path = Path::new(".bench_out").join(format!("spans-{}.jsonl", args.workload.name()));
        let header = format!(
            r#"{{"fingerprint": {}, "workload": "{}", "seed": {}, "seconds": {}}}"#,
            fingerprint.json(),
            args.workload.name(),
            args.seed,
            args.seconds
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        untraced(&args, &mut report);
    }
    report.print();
    ExitCode::SUCCESS
}
