//! Seeded NSGA-II trajectories, snapshotted bitwise under
//! `benchmarks/golden/nsga2_seeded.txt`.
//!
//! For three seeds on every [`wbsn_dse::truth`] scenario and on the
//! 6-node case study, a default-configuration run records its counters
//! (`evaluations`, `infeasible`, `memo_hits`) and its archive's
//! objective bits in archive order. The archive order is the order in
//! which survivors first appeared, so a change to ranking, crowding
//! tie-breaks, selection or variation moves at least one line — the
//! `search_quality` floors would let a reordered front slip through.
//!
//! To regenerate after an *intentional* search change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release -p wbsn-bench --test golden_nsga2
//! ```

use std::fmt::Write as _;
use wbsn_bench::golden::assert_matches_golden;
use wbsn_dse::evaluator::ModelEvaluator;
use wbsn_dse::nsga2::{nsga2, Nsga2Config};
use wbsn_dse::truth::scenarios;
use wbsn_model::space::DesignSpace;

const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn seeded_nsga2_runs_match_golden() {
    let eval = ModelEvaluator::shimmer();
    let mut spaces: Vec<(&str, DesignSpace)> =
        scenarios().into_iter().map(|s| (s.name, s.space)).collect();
    spaces.push(("case-study-6node", DesignSpace::case_study(6)));

    let mut out = String::from("# seeded NSGA-II runs (Nsga2Config::default() but the seed)\n");
    for (name, space) in &spaces {
        for seed in SEEDS {
            let r = nsga2(space, &eval, &Nsga2Config { seed, ..Nsga2Config::default() });
            let _ = writeln!(
                out,
                "# {name} seed {seed}: evaluations {} infeasible {} memo_hits {} front {}",
                r.evaluations,
                r.infeasible,
                r.memo_hits,
                r.front.len()
            );
            for objectives in r.front.objectives() {
                let bits: Vec<String> =
                    objectives.values().iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                let _ = writeln!(out, "{}", bits.join(" "));
            }
        }
    }
    assert_matches_golden("nsga2_seeded.txt", &out);
}
