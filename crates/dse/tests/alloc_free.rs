//! Zero-allocation guarantees of the batch decode + evaluate path.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! pass (which may allocate: the eval scratch builds its memo table, the
//! application models are boxed once per distinct `(kind, CR, fµC)`), the
//! steady-state loop of linear-index decode → objectives-only evaluation
//! must perform **zero** heap allocations per point:
//!
//! * `DesignSpace::point_at` decodes into a `NodeVec` (inline up to
//!   `INLINE_NODES` configs — the case study has 6);
//! * `Genome::decode` reads picks straight from the genome fields;
//! * `WbsnModel::evaluate_objectives` reuses the scratch buffers and the
//!   `(kind, CR, fµC)` memo;
//! * `WbsnModel::evaluate_objectives_batch` (the `SoA` kernel) reuses its
//!   interned grid/MAC/cell tables and per-batch buffers, as does the
//!   MAC-grouped `evaluate_objectives_batch_grouped` (plus its pending /
//!   permutation / transposed-lane buffers);
//! * `WbsnModel::evaluate_batch_full` and its grouped sibling write the
//!   per-node lanes into a reused `FullEvalOut`;
//! * `ObjectiveVector::from_slice` is an inline `Copy` value;
//! * NSGA-II's rank-and-crowding pass (`RankScratch::rank`) refills the
//!   dominance bit matrix, front and crowding buffers in place;
//! * a warm `GenomeMemo` hit (`contains`, `get_with_provenance`) hashes
//!   and probes without touching the heap;
//! * a rejected `ParetoArchive::insert` drops its candidate in place.
//!
//! The allocation counter is process-global, so the file is a plain
//! `main` (`harness = false` in `Cargo.toml`): libtest would run the
//! checks on a spawned thread while its own main thread allocates
//! concurrently, and those stray allocations land in the counted
//! windows. Here the checks run one after another on the only thread.
//! Each passing check prints a libtest-style `test <name> ... ok` line;
//! a failing one panics, which fails the test binary.
//!
//! ```text
//! cargo test -p wbsn-dse --test alloc_free
//! ```

use alloc_counter::{allocation_count as allocations, CountingAlloc};
use wbsn_dse::evaluator::{Evaluator, ModelEvaluator};
use wbsn_dse::genome::Genome;
use wbsn_dse::memo::GenomeMemo;
use wbsn_dse::nsga2::{nsga2, Nsga2Config, RankScratch};
use wbsn_dse::objective::ObjectiveVector;
use wbsn_dse::pareto::ParetoArchive;
use wbsn_model::evaluate::{EvalScratch, WbsnModel};
use wbsn_model::soa::SoaScratch;
use wbsn_model::space::{DesignPoint, DesignSpace};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The checks, run in order on the main thread.
const CHECKS: [(&str, fn()); 8] = [
    (
        "batch_decode_and_evaluate_are_allocation_free_in_steady_state",
        batch_decode_and_evaluate_are_allocation_free_in_steady_state,
    ),
    (
        "fastpath_sweep_loop_is_allocation_free_once_warm",
        fastpath_sweep_loop_is_allocation_free_once_warm,
    ),
    (
        "soa_batch_path_is_allocation_free_in_steady_state",
        soa_batch_path_is_allocation_free_in_steady_state,
    ),
    (
        "full_eval_batch_paths_are_allocation_free_in_steady_state",
        full_eval_batch_paths_are_allocation_free_in_steady_state,
    ),
    (
        "genome_decode_and_objective_construction_are_allocation_free",
        genome_decode_and_objective_construction_are_allocation_free,
    ),
    (
        "rank_and_crowding_pass_is_allocation_free_once_warm",
        rank_and_crowding_pass_is_allocation_free_once_warm,
    ),
    ("warm_memo_hits_are_allocation_free", warm_memo_hits_are_allocation_free),
    ("rejected_archive_insert_is_allocation_free", rejected_archive_insert_is_allocation_free),
];

fn main() {
    // `--list` follows libtest's listing format, so test runners can
    // enumerate the checks without running them.
    if std::env::args().any(|arg| arg == "--list") {
        for (name, _) in CHECKS {
            println!("{name}: test");
        }
        return;
    }
    let start = std::time::Instant::now();
    println!("\nrunning {} tests", CHECKS.len());
    for (name, check) in CHECKS {
        check();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; 0 filtered out; \
         finished in {:.2}s\n",
        CHECKS.len(),
        start.elapsed().as_secs_f64()
    );
}

fn batch_decode_and_evaluate_are_allocation_free_in_steady_state() {
    let model = WbsnModel::shimmer();
    let space = DesignSpace::case_study(6);
    let mut scratch = EvalScratch::new();
    let total = space.cardinality();
    // A multiplicative scramble picks 4096 well-spread indices (a plain
    // arithmetic stride aliases the mixed-radix digits and can dodge the
    // feasible region entirely).
    let sweep = |scratch: &mut EvalScratch| {
        let mut feasible = 0u64;
        for m in 0..4096u128 {
            let index = (m.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % total;
            let point = space.point_at(index);
            if model.evaluate_objectives(&point.mac, &point.nodes, scratch).is_ok() {
                feasible += 1;
            }
        }
        feasible
    };

    // Warmup: populates the (kind, CR, fµC) memo (boxed app models,
    // memo-table backing storage, scratch buffers).
    let feasible_warm = sweep(&mut scratch);
    assert!(feasible_warm > 0, "sweep must hit feasible configurations");

    // Steady state: the identical sweep must not allocate at all.
    let before = allocations();
    let feasible = sweep(&mut scratch);
    let delta = allocations() - before;
    assert_eq!(feasible, feasible_warm);
    assert_eq!(delta, 0, "decode+evaluate steady state performed {delta} heap allocations");
}

// Mirrors `dse_throughput`'s
// fast-path loop exactly — `sample_sweep(512)` cycled modulo through
// one warm `EvalScratch` — so the bench's `fastpath_allocs_per_eval`
// field is pinned at a hard 0 here, not a small amortized residue:
// one warmup pass over every distinct point retires the first-use memo
// growth that used to leak ~0.0006 allocs/eval into the counted window.
fn fastpath_sweep_loop_is_allocation_free_once_warm() {
    let model = WbsnModel::shimmer();
    let space = DesignSpace::case_study(6);
    let points = space.sample_sweep(512);
    let mut scratch = EvalScratch::new();

    let mut feasible_warm = 0u64;
    for p in &points {
        if model.evaluate_objectives(&p.mac, &p.nodes, &mut scratch).is_ok() {
            feasible_warm += 1;
        }
    }
    assert!(feasible_warm > 0, "sweep must hit feasible configurations");

    let before = allocations();
    let mut feasible = 0u64;
    for i in 0..4096usize {
        let p = &points[i % points.len()];
        if model.evaluate_objectives(&p.mac, &p.nodes, &mut scratch).is_ok() {
            feasible += 1;
        }
    }
    let delta = allocations() - before;
    assert_eq!(feasible % feasible_warm, 0, "cycling the sweep repeats the same outcomes");
    assert_eq!(delta, 0, "warm fast-path sweep performed {delta} heap allocations");
}

// The SoA kernel's first pass may allocate freely —
// interned grid/MAC tables, lazily grown cell blocks, per-batch buffers
// — but a warm scratch re-running the same batch must perform zero heap
// allocations: the batch evaluator pools these scratches and calls the
// kernel once per chunk for millions of chunks.
fn soa_batch_path_is_allocation_free_in_steady_state() {
    let model = WbsnModel::shimmer();
    let space = DesignSpace::case_study(6);
    // A sweep mixes feasible points with every cheap infeasibility
    // (duty-cycle and capacity errors); both outcome kinds must be
    // allocation-free in steady state.
    let points = space.sample_sweep(4096);
    let mut scratch = SoaScratch::new();

    let feasible_warm =
        model.evaluate_objectives_batch(&points, &mut scratch).iter().filter(|o| o.is_ok()).count();
    assert!(feasible_warm > 0, "sweep must hit feasible configurations");

    let before = allocations();
    let feasible =
        model.evaluate_objectives_batch(&points, &mut scratch).iter().filter(|o| o.is_ok()).count();
    let delta = allocations() - before;
    assert_eq!(feasible, feasible_warm);
    assert_eq!(delta, 0, "SoA batch steady state performed {delta} heap allocations");
}

// The full-evaluation batch
// kernels — ungrouped and MAC-grouped — write per-node energy
// breakdown / delay / PRD / slot lanes into a caller-owned `FullEvalOut`
// whose buffers (like the kernel scratch's pending records, permutation
// buffers and transposed lanes) are reused across batches: once warm,
// re-running the same-shaped batch must perform zero heap allocations.
fn full_eval_batch_paths_are_allocation_free_in_steady_state() {
    use wbsn_model::soa::FullEvalOut;

    let model = WbsnModel::shimmer();
    let space = DesignSpace::case_study(6);
    // Mixes feasible points with duty-cycle and capacity infeasibilities
    // (whose lanes are zero-filled — also allocation-free).
    let points = space.sample_sweep(4096);
    let mut scratch = SoaScratch::new();
    let mut out = FullEvalOut::new();
    let mut out_grouped = FullEvalOut::new();

    model.evaluate_batch_full(&points, &mut scratch, &mut out);
    let feasible_warm = out.outcomes().iter().filter(|o| o.is_ok()).count();
    assert!(feasible_warm > 0, "sweep must hit feasible configurations");

    let before = allocations();
    model.evaluate_batch_full(&points, &mut scratch, &mut out);
    let delta = allocations() - before;
    assert_eq!(out.outcomes().iter().filter(|o| o.is_ok()).count(), feasible_warm);
    assert_eq!(delta, 0, "full batch steady state performed {delta} heap allocations");

    // Two warmup passes: the grouped engine hands its outcome buffer to
    // `out` by swap, so the buffer pair only reaches its steady-state
    // capacities after the second call.
    model.evaluate_batch_full_grouped(&points, &mut scratch, &mut out_grouped);
    model.evaluate_batch_full_grouped(&points, &mut scratch, &mut out_grouped);
    let before = allocations();
    model.evaluate_batch_full_grouped(&points, &mut scratch, &mut out_grouped);
    let delta = allocations() - before;
    assert_eq!(out_grouped.outcomes().iter().filter(|o| o.is_ok()).count(), feasible_warm);
    assert_eq!(delta, 0, "grouped full batch steady state performed {delta} heap allocations");

    // The grouped objectives-only path shares the same machinery minus
    // the lanes; it is the production engine of `Evaluator::evaluate_batch`.
    let _ = model.evaluate_objectives_batch_grouped(&points, &mut scratch);
    let before = allocations();
    let feasible = model
        .evaluate_objectives_batch_grouped(&points, &mut scratch)
        .iter()
        .filter(|o| o.is_ok())
        .count();
    let delta = allocations() - before;
    assert_eq!(feasible, feasible_warm);
    assert_eq!(delta, 0, "grouped batch steady state performed {delta} heap allocations");
}

fn genome_decode_and_objective_construction_are_allocation_free() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let space = DesignSpace::case_study(6);
    let mut rng = StdRng::seed_from_u64(9);
    let genomes: Vec<Genome> = (0..256).map(|_| Genome::random(&space, &mut rng)).collect();

    // Warmup (first decode of each genome touches nothing heap-bound,
    // but keep the measurement honest about lazy runtime init).
    let mut checksum = 0usize;
    for g in &genomes {
        checksum += g.decode(&space).nodes.len();
    }

    let before = allocations();
    for g in &genomes {
        let point = g.decode(&space);
        checksum += point.nodes.len();
        let objectives = ObjectiveVector::from_slice(&[point.mac.sfo.into(), 1.0, 2.0]);
        checksum += objectives.len();
    }
    let delta = allocations() - before;
    assert!(checksum > 0);
    assert_eq!(delta, 0, "genome decode steady state performed {delta} heap allocations");
}

// A 200-individual population is
// NSGA-II's default (µ+λ) ranking size: once one pass has grown the
// scratch, ranking any population of that size allocates nothing. Each
// population mixes a searched Pareto front (one wide front, so the
// crowding pass sorts long runs) with sampled points, infeasible ones
// included.
fn rank_and_crowding_pass_is_allocation_free_once_warm() {
    let space = DesignSpace::case_study(6);
    let eval = ModelEvaluator::shimmer();
    let population = |seed: u64| -> Vec<ObjectiveVector> {
        let cfg = Nsga2Config { seed, ..Nsga2Config::default() };
        let mut objectives: Vec<ObjectiveVector> =
            nsga2(&space, &eval, &cfg).front.objectives().copied().collect();
        let sample = space.sample_sweep(200 - objectives.len());
        // Infeasible points take the all-`+∞` encoding, as in the search.
        objectives.extend(
            eval.evaluate_batch(&sample)
                .into_iter()
                .map(|o| o.unwrap_or_else(|| ObjectiveVector::from_slice(&[f64::INFINITY; 3]))),
        );
        objectives
    };
    let first = population(1);
    let second = population(2);
    assert_eq!((first.len(), second.len()), (200, 200));

    let mut scratch = RankScratch::new();
    scratch.rank(&first);
    let before = allocations();
    scratch.rank(&first);
    let widest = scratch.fronts().map(<[usize]>::len).max();
    scratch.rank(&second);
    let delta = allocations() - before;
    assert!(widest > Some(64), "the population must hold one wide front");
    assert_eq!(delta, 0, "rank-and-crowding steady state performed {delta} heap allocations");
}

// A warm memo hit is what most NSGA-II and MOSA candidates cost once a
// run has explored its neighborhood: hashing the genome and probing the
// map must not touch the heap, for known-feasible and known-infeasible
// entries alike.
fn warm_memo_hits_are_allocation_free() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    for nodes in [2, 6] {
        let space = DesignSpace::case_study(nodes);
        let mut rng = StdRng::seed_from_u64(17);
        let genomes: Vec<Genome> = (0..256).map(|_| Genome::random(&space, &mut rng)).collect();
        let mut memo = GenomeMemo::new(true);
        memo.begin_run();
        for (i, g) in genomes.iter().enumerate() {
            let outcome = (i % 4 != 0).then(|| ObjectiveVector::from_slice(&[i as f64, 1.0, 2.0]));
            memo.record(g.clone(), outcome);
        }

        let before = allocations();
        let mut feasible = 0usize;
        for g in &genomes {
            assert!(memo.contains(g));
            let (outcome, from_earlier_run) =
                memo.get_with_provenance(g).expect("every genome was recorded");
            assert!(!from_earlier_run);
            feasible += usize::from(outcome.is_some());
        }
        let delta = allocations() - before;
        assert_eq!(feasible, 192);
        assert_eq!(delta, 0, "warm {nodes}-node memo hits performed {delta} heap allocations");
    }
}

// Searchers offer the archive every feasible fresh outcome, and most are
// rejected as weakly dominated: a rejection must neither move nor copy
// an incumbent, nor allocate. The candidates (dominated and exact
// duplicates of incumbents) are built before the counted window and
// consumed by the inserts.
fn rejected_archive_insert_is_allocation_free() {
    let space = DesignSpace::case_study(6);
    let point = |i: u128| -> DesignPoint { space.point_at(i * 7919 % space.cardinality()) };
    let mut archive = ParetoArchive::new();
    for i in 0..64u32 {
        let x = f64::from(i);
        assert!(archive.insert(ObjectiveVector::from_slice(&[x, 64.0 - x, 1.0]), point(i.into())));
    }
    let snapshot = archive.clone();
    let candidates: Vec<(ObjectiveVector, DesignPoint)> = (0..128u32)
        .map(|i| {
            let x = f64::from(i % 64);
            let worse = if i < 64 { 0.5 } else { 0.0 };
            (ObjectiveVector::from_slice(&[x + worse, 64.0 - x, 1.0]), point(u128::from(i) + 100))
        })
        .collect();

    let before = allocations();
    let mut accepted = 0usize;
    for (objectives, payload) in candidates {
        accepted += usize::from(archive.insert(objectives, payload));
    }
    let delta = allocations() - before;
    assert_eq!(accepted, 0, "every candidate is dominated by or equal to an incumbent");
    assert_eq!(archive, snapshot, "rejections leave the archive untouched");
    assert_eq!(delta, 0, "rejected archive inserts performed {delta} heap allocations");
}
