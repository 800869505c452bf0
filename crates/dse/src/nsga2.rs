//! NSGA-II: elitist non-dominated sorting genetic algorithm.
//!
//! The paper employs genetic algorithms for the DSE (§5.2, citing [3]);
//! NSGA-II is the standard multi-objective variant: fast non-dominated
//! sorting into fronts, crowding-distance diversity preservation, binary
//! tournament selection and (µ+λ) elitism. Infeasible configurations are
//! assigned `+∞` objectives, which non-dominated sorting pushes to the
//! last fronts automatically.
//!
//! Evaluation is batched: each generation's offspring (and the initial
//! population) go through [`Evaluator::evaluate_batch`] as one batch, so
//! the evaluator picks the engine (and, for large batches, the thread
//! fan-out) per generation. Variation consumes the RNG, evaluation does
//! not — so a seeded run is bit-identical whether the evaluator executes
//! the batch serially or in parallel (see `SerialEvaluator`).
//!
//! # Cost per generation
//!
//! Ranking the `2µ` parents and offspring is one branch-free
//! O(n²·M) pass over the n(n−1)/2 pairs that builds a dominance bit
//! matrix (n = 2µ individuals, M objectives), plus a walk over its set
//! bits to peel the fronts and one stable sort per objective and front
//! for the crowding distances
//! (see [`fast_non_dominated_sort`]). The buffers live in a
//! [`RankScratch`] kept for the whole run, so once warm a generation's
//! ranking allocates nothing.
//!
//! Evaluation is also deduplicated: a [`GenomeMemo`] keyed by genome
//! replays the outcome of every previously seen candidate (elitism and
//! crossover of similar parents regenerate identical genomes constantly),
//! so only first-occurrence genomes are decoded and evaluated. Counters
//! and fronts are bit-identical with the memo on or off; disable via
//! [`Nsga2Config::memo`] to benchmark the difference.

use crate::evaluator::Evaluator;
use crate::genome::Genome;
use crate::memo::{GenomeHashBuilder, GenomeMemo};
use crate::objective::{ObjectiveVector, MAX_OBJECTIVES};
use crate::pareto::ParetoArchive;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use wbsn_model::space::{DesignPoint, DesignSpace};

/// NSGA-II hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Config {
    /// Population size (µ).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of crossover (else the child is a parent clone).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Memoize evaluation outcomes by genome so identical genomes are
    /// never re-evaluated across generations. Fronts and counters are
    /// bit-identical either way; disable only to measure the dedup win.
    pub memo: bool,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 100,
            crossover_rate: 0.9,
            mutation_rate: 0.08,
            seed: 42,
            memo: true,
        }
    }
}

/// Result of a run: the non-dominated feasible set over *every* visited
/// configuration (not just the final population) plus counters.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Non-dominated feasible design points with their objectives.
    pub front: ParetoArchive<DesignPoint>,
    /// Total candidate evaluations requested by the search (memo hits
    /// included — the number the evaluator would have run without dedup,
    /// which keeps evaluation budgets comparable across configurations).
    pub evaluations: u64,
    /// Evaluations that came back infeasible.
    pub infeasible: u64,
    /// Evaluations answered from the genome memo (evaluator calls
    /// actually skipped); 0 when memoization is off or not applicable.
    pub memo_hits: u64,
}

struct Individual {
    genome: Genome,
    objectives: ObjectiveVector,
    rank: usize,
    crowding: f64,
}

/// Runs NSGA-II over the design space with the given evaluator.
///
/// ```no_run
/// use wbsn_dse::evaluator::ModelEvaluator;
/// use wbsn_dse::nsga2::{nsga2, Nsga2Config};
/// use wbsn_model::space::DesignSpace;
///
/// let space = DesignSpace::case_study(6);
/// let result = nsga2(&space, &ModelEvaluator::shimmer(), &Nsga2Config::default());
/// println!("{} Pareto points", result.front.len());
/// ```
#[must_use]
pub fn nsga2(space: &DesignSpace, evaluator: &dyn Evaluator, cfg: &Nsga2Config) -> SearchResult {
    let mut memo = GenomeMemo::new(cfg.memo);
    nsga2_with_memo(space, evaluator, cfg, &mut memo)
}

/// [`nsga2`] running against a caller-provided [`GenomeMemo`], so
/// several runs (e.g. the optimizer-comparison experiment, or repeated
/// searches over the same space) share one deduplication cache. The
/// memo's own enabled flag governs memoization; [`Nsga2Config::memo`] is
/// ignored here. [`SearchResult::memo_hits`] counts only this run's
/// hits.
///
/// Sharing is observationally transparent: replayed outcomes are
/// re-inserted into the run's archive (a rejected no-op when the first
/// occurrence happened within the same run), so fronts and counters are
/// bit-identical to a run with a private memo — or with none at all.
#[must_use]
pub fn nsga2_with_memo(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    cfg: &Nsga2Config,
    memo: &mut GenomeMemo,
) -> SearchResult {
    memo.begin_run();
    let hits_before = memo.hits();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0u64;
    let mut infeasible = 0u64;
    let mut archive: ParetoArchive<DesignPoint> = ParetoArchive::new();
    let mut ranking = RankScratch::new();
    let infeasible_objectives =
        ObjectiveVector::new(vec![f64::INFINITY; evaluator.num_objectives()]);

    // Initial population: all genomes drawn first (evaluation consumes no
    // randomness), then evaluated as one batch.
    let genomes: Vec<Genome> =
        (0..cfg.population).map(|_| Genome::random(space, &mut rng)).collect();
    let mut population = evaluate_generation(
        genomes,
        space,
        evaluator,
        memo,
        infeasible_objectives,
        &mut evaluations,
        &mut infeasible,
        &mut archive,
    );
    assign_rank_and_crowding(&mut population, &mut ranking);

    for _ in 0..cfg.generations {
        // Offspring via binary tournament + crossover + mutation.
        let children: Vec<Genome> = (0..cfg.population)
            .map(|_| {
                let a = tournament(&population, &mut rng);
                let b = tournament(&population, &mut rng);
                let mut child = if rng.gen::<f64>() < cfg.crossover_rate {
                    population[a].genome.crossover(&population[b].genome, &mut rng)
                } else {
                    population[a].genome.clone()
                };
                child.mutate(space, cfg.mutation_rate, &mut rng);
                child
            })
            .collect();
        let mut offspring = evaluate_generation(
            children,
            space,
            evaluator,
            memo,
            infeasible_objectives,
            &mut evaluations,
            &mut infeasible,
            &mut archive,
        );
        // (µ+λ) elitism: best `population` individuals survive.
        population.append(&mut offspring);
        assign_rank_and_crowding(&mut population, &mut ranking);
        population.sort_by(|x, y| {
            x.rank.cmp(&y.rank).then(
                y.crowding.partial_cmp(&x.crowding).expect("crowding distances are comparable"),
            )
        });
        population.truncate(cfg.population);
    }

    SearchResult { front: archive, evaluations, infeasible, memo_hits: memo.hits() - hits_before }
}

/// Evaluates one generation's genomes as a single batch, answering
/// repeated genomes from the memo.
///
/// Only genomes the memo has never seen (first occurrence within this
/// batch included) are decoded and sent to [`Evaluator::evaluate_batch`];
/// everything else replays its recorded outcome. Feasible replayed
/// outcomes are re-inserted into the archive: within one run that is
/// always rejected as weakly dominated (see [`GenomeMemo`]), and when a
/// memo is shared across runs it seeds the fresh archive with outcomes
/// first seen by an earlier run — either way the archive is bit-identical
/// to the memo-free run.
#[allow(clippy::too_many_arguments)]
fn evaluate_generation(
    genomes: Vec<Genome>,
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    memo: &mut GenomeMemo,
    infeasible_objectives: ObjectiveVector,
    evaluations: &mut u64,
    infeasible: &mut u64,
    archive: &mut ParetoArchive<DesignPoint>,
) -> Vec<Individual> {
    *evaluations += genomes.len() as u64;

    // Pass 1: decode only genomes with no recorded (or pending in-batch)
    // outcome. `slots[i]` is the fresh-batch index individual `i` reads
    // its result from; genomes replayed from the memo — previously
    // recorded, or an in-batch duplicate whose first occurrence records
    // before pass 2 reaches the repeat — carry `None`.
    let mut fresh_points: Vec<DesignPoint> = Vec::with_capacity(genomes.len());
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(genomes.len());
    {
        let mut seen_in_batch: HashSet<&Genome, GenomeHashBuilder> =
            HashSet::with_capacity_and_hasher(genomes.len(), GenomeHashBuilder::default());
        for genome in &genomes {
            if memo.contains(genome) || (memo.enabled() && !seen_in_batch.insert(genome)) {
                slots.push(None);
                continue;
            }
            slots.push(Some(fresh_points.len()));
            fresh_points.push(genome.decode(space));
        }
    }
    let results = evaluator.evaluate_batch(&fresh_points);
    let mut fresh_points: Vec<Option<DesignPoint>> = fresh_points.into_iter().map(Some).collect();

    // Pass 2: resolve every individual in genome order. The first walk of
    // a fresh slot records the outcome and (if feasible) inserts into the
    // archive; later walks of the same genome hit the memo.
    genomes
        .into_iter()
        .zip(slots)
        .map(|(genome, slot)| {
            let outcome =
                if let Some((cached, from_earlier_run)) = memo.get_with_provenance(&genome) {
                    // A memo shared across runs must seed this run's fresh
                    // archive with outcomes an earlier run evaluated; the
                    // epoch confines the replay to exactly those hits
                    // (within-run repeats would only be rejected as weakly
                    // dominated).
                    if from_earlier_run {
                        if let Some(obj) = cached {
                            archive.insert(obj, genome.decode(space));
                        }
                    }
                    cached
                } else if let Some(slot) = slot {
                    let result = results[slot];
                    memo.record(genome.clone(), result);
                    if let Some(obj) = result {
                        let point = fresh_points[slot].take().expect("fresh slot consumed once");
                        archive.insert(obj, point);
                    }
                    result
                } else {
                    // Pass 1 saw this genome cached, but a pass-2
                    // `record` evicted it (LRU-capped memo). Re-evaluate
                    // in place: outcomes are pure, and the archive
                    // insertion is either rejected as weakly dominated
                    // (first seen this run) or exactly the cross-run
                    // replay the provenance hit would have performed —
                    // either way bit-identical to the uncapped memo.
                    let point = genome.decode(space);
                    let result = evaluator.evaluate(&point);
                    memo.record(genome.clone(), result);
                    if let Some(obj) = result {
                        archive.insert(obj, point);
                    }
                    result
                };
            let objectives = if let Some(obj) = outcome {
                obj
            } else {
                *infeasible += 1;
                infeasible_objectives
            };
            Individual { genome, objectives, rank: 0, crowding: 0.0 }
        })
        .collect()
}

/// Binary tournament by (rank, crowding): lower rank wins; ties prefer
/// the less crowded individual.
fn tournament<R: Rng + ?Sized>(pop: &[Individual], rng: &mut R) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if (pop[a].rank, -pop[a].crowding) <= (pop[b].rank, -pop[b].crowding) {
        a
    } else {
        b
    }
}

/// Ranks and crowding distances of the whole population, written into
/// the individuals through the run's warm [`RankScratch`].
fn assign_rank_and_crowding(pop: &mut [Individual], ranking: &mut RankScratch) {
    ranking.rank(pop.iter().map(|i| &i.objectives));
    for ((individual, &rank), &crowding) in
        pop.iter_mut().zip(ranking.ranks()).zip(ranking.crowding())
    {
        individual.rank = rank;
        individual.crowding = crowding;
    }
}

/// Reusable buffers of the non-dominated sort and the crowding pass.
///
/// One scratch lives for a whole NSGA-II run; once its buffers have
/// grown to the population size, [`RankScratch::rank`] allocates
/// nothing. The dominance relation is held as a bit matrix: bit `j` of
/// row `i` is set when individual `i` dominates individual `j`.
#[derive(Debug, Default)]
pub struct RankScratch {
    /// Objective values, one zero-padded row per individual.
    rows: Vec<[f64; MAX_OBJECTIVES]>,
    /// Active objectives (the common length of every vector).
    dims: usize,
    /// `u64` words per bit-matrix row.
    words: usize,
    /// The dominance bit matrix, `rows.len()` rows of `words` words,
    /// stored word-major: word `w` of row `i` is at `w * n + i`.
    dominates: Vec<u64>,
    /// How many not-yet-peeled individuals dominate each individual.
    dominated_by: Vec<u64>,
    /// Front members, front after front, in discovery order.
    members: Vec<usize>,
    /// Exclusive end of each front in `members`.
    front_ends: Vec<usize>,
    /// Front index of each individual.
    ranks: Vec<usize>,
    /// Crowding distance of each individual within its front.
    crowding: Vec<f64>,
    /// One front's members, re-sorted per objective by the crowding pass.
    order: Vec<usize>,
}

impl RankScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts `objectives` into non-dominated fronts and computes every
    /// individual's crowding distance within its front. Results are
    /// read back through [`RankScratch::fronts`], [`RankScratch::ranks`]
    /// and [`RankScratch::crowding`], indexed like `objectives`.
    ///
    /// # Panics
    ///
    /// Panics when the vectors differ in dimensionality.
    pub fn rank<'a>(&mut self, objectives: impl IntoIterator<Item = &'a ObjectiveVector>) {
        self.sort(objectives);
        self.crowd();
    }

    /// The fronts of the last [`RankScratch::rank`], best first, each in
    /// the order [`fast_non_dominated_sort`] documents.
    pub fn fronts(&self) -> impl Iterator<Item = &[usize]> {
        let starts = std::iter::once(0).chain(self.front_ends.iter().copied());
        starts.zip(&self.front_ends).map(|(start, &end)| &self.members[start..end])
    }

    /// Front index (rank) of each individual; 0 is the non-dominated front.
    #[must_use]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Crowding distance of each individual within its front; see
    /// [`crowding_distances`].
    #[must_use]
    pub fn crowding(&self) -> &[f64] {
        &self.crowding
    }

    /// Fills the dominance matrix and peels it into fronts.
    fn sort<'a>(&mut self, objectives: impl IntoIterator<Item = &'a ObjectiveVector>) {
        self.rows.clear();
        self.dims = 0;
        for o in objectives {
            if self.rows.is_empty() {
                self.dims = o.len();
            }
            assert_eq!(o.len(), self.dims, "objective dimensionality mismatch");
            // Padding lanes hold 0.0 on both sides of every comparison,
            // so they are neither `<` nor `>`.
            let mut row = [0.0; MAX_OBJECTIVES];
            row[..o.len()].copy_from_slice(o.values());
            self.rows.push(row);
        }
        let n = self.rows.len();
        self.words = n.div_ceil(64);
        self.dominates.clear();
        self.dominates.resize(n * self.words, 0);
        self.dominated_by.clear();
        self.dominated_by.resize(n, 0);
        self.members.clear();
        self.members.resize(n, 0);
        self.front_ends.clear();
        self.front_ends.resize(n, 0);
        self.ranks.clear();
        self.ranks.resize(n, 0);
        if n == 0 {
            return;
        }

        // Each unordered pair is compared once, at its lower index `i`:
        // "i dominates j" collects into row i's word for j's block, and
        // "j dominates i" is OR-ed into row j at bit i — with word-major
        // storage those mirrored words are contiguous in j, as are the
        // counts of j, so the loop has no branch and no gather.
        let rows = &self.rows;
        let words = self.words;
        // verify: hot-path-begin(dominance-matrix)
        for (i, a) in rows.iter().enumerate() {
            let mirror = (i / 64) * n;
            let shift = i % 64;
            let mut beaten = 0;
            let mut start = i + 1;
            while start < n {
                let w = start / 64;
                let end = n.min(w * 64 + 64);
                let mut bits = 0u64;
                let pairs = rows[start..end]
                    .iter()
                    .zip(&mut self.dominates[mirror + start..mirror + end])
                    .zip(&mut self.dominated_by[start..end]);
                for (bit, ((b, mirrored), count)) in (start % 64..).zip(pairs) {
                    let (lt, gt) = strict_lanes(a, b);
                    bits |= (lt & !gt) << bit;
                    *mirrored |= (gt & !lt) << shift;
                    *count += lt & !gt;
                    beaten += gt & !lt;
                }
                self.dominates[w * n + i] |= bits;
                start = end;
            }
            self.dominated_by[i] += beaten;
        }
        // Peel: front 0 is every undominated individual in index order;
        // each later front collects, in the order their counts reach
        // zero, the individuals the previous front dominated. Appends
        // are branch-free: the slot is always written, the length only
        // advances on a zero count (an individual still being counted
        // down is never the n-th member, so the slot is in bounds).
        let mut len = 0;
        for (i, &count) in self.dominated_by.iter().enumerate() {
            self.members[len] = i;
            len += usize::from(count == 0);
        }
        let mut fronts = 0;
        let mut start = 0;
        while start < len {
            let end = len;
            for k in start..end {
                let i = self.members[k];
                for w in 0..words {
                    let mut bits = self.dominates[w * n + i];
                    while bits != 0 {
                        let j = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.dominated_by[j] -= 1;
                        self.members[len] = j;
                        len += usize::from(self.dominated_by[j] == 0);
                    }
                }
            }
            self.front_ends[fronts] = end;
            fronts += 1;
            start = end;
        }
        // verify: hot-path-end(dominance-matrix)
        self.front_ends.truncate(fronts);
        let mut start = 0;
        for (rank, &end) in self.front_ends.iter().enumerate() {
            for &i in &self.members[start..end] {
                self.ranks[i] = rank;
            }
            start = end;
        }
    }

    /// Crowding distances of every front, as [`crowding_distances`]
    /// computes them.
    fn crowd(&mut self) {
        self.crowding.clear();
        self.crowding.resize(self.rows.len(), 0.0);
        let mut start = 0;
        for &end in &self.front_ends {
            self.order.clear();
            self.order.extend_from_slice(&self.members[start..end]);
            crowd_front(&mut self.order, &self.rows, self.dims, &mut self.crowding);
            start = end;
        }
    }
}

/// `(a < b on some axis, a > b on some axis)` as 0/1 words, evaluated
/// on every lane without short-circuiting. With 0/1 operands,
/// `lt & !gt` is 1 exactly when `a` dominates `b`.
#[inline]
fn strict_lanes(a: &[f64; MAX_OBJECTIVES], b: &[f64; MAX_OBJECTIVES]) -> (u64, u64) {
    let mut lt = false;
    let mut gt = false;
    for k in 0..MAX_OBJECTIVES {
        lt |= a[k] < b[k];
        gt |= a[k] > b[k];
    }
    (u64::from(lt), u64::from(gt))
}

/// Adds each member's crowding distance into `distance` (indexed by
/// individual, zero on entry). `order` holds the front's members in
/// front order and is re-sorted in place per objective. The sorts are
/// stable, so members tied on an objective keep the order the previous
/// objective left them in (front order for the first); that decides who
/// sits at a boundary and who is whose neighbour.
fn crowd_front(
    order: &mut [usize],
    rows: &[[f64; MAX_OBJECTIVES]],
    dims: usize,
    distance: &mut [f64],
) {
    let len = order.len();
    if len <= 2 {
        for &i in order.iter() {
            distance[i] = f64::INFINITY;
        }
        return;
    }
    for d in 0..dims {
        order
            .sort_by(|&x, &y| rows[x][d].partial_cmp(&rows[y][d]).expect("objectives are not NaN"));
        let lo = rows[order[0]][d];
        let hi = rows[order[len - 1]][d];
        distance[order[0]] = f64::INFINITY;
        distance[order[len - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 || !span.is_finite() {
            continue;
        }
        for w in 1..len - 1 {
            let prev = rows[order[w - 1]][d];
            let next = rows[order[w + 1]][d];
            distance[order[w]] += (next - prev) / span;
        }
    }
}

/// Deb's fast non-dominated sort: returns index fronts, best first.
///
/// **Front order is part of the contract.** Front 0 lists the
/// undominated individuals in index order. Each later front lists its
/// members in the order Deb's algorithm discovers them: walking the
/// previous front in its own order, and each member's dominated set in
/// ascending index order, an individual joins when its last dominator
/// is walked. The crowding pass depends on this order: its stable
/// per-objective sorts start from front order, so it breaks ties on an
/// objective and thereby decides boundary points and neighbours — a
/// reordered front changes crowding distances, survivor selection and
/// the whole seeded NSGA-II trajectory.
///
/// The dominance relation is built in one branch-free O(n²·M) pass,
/// comparing each unordered pair once, into a bit matrix (see
/// [`RankScratch`]); fronts are peeled by walking set bits in ascending
/// order, which reproduces the ascending adjacency lists of the
/// textbook formulation exactly.
///
/// # Panics
///
/// Panics when the vectors differ in dimensionality.
#[must_use]
pub fn fast_non_dominated_sort(objectives: &[ObjectiveVector]) -> Vec<Vec<usize>> {
    let mut scratch = RankScratch::new();
    scratch.sort(objectives);
    scratch.fronts().map(<[usize]>::to_vec).collect()
}

/// Crowding distance of each member of a front (boundary points get +∞).
///
/// `front` indexes into `objectives` (the whole population's vectors);
/// the returned distances are aligned with `front`.
///
/// Degenerate fronts are guarded: an objective whose values are constant
/// across the front (`max - min = 0`), or whose span is non-finite
/// (`±∞`-encoded infeasible individuals compared against each other, or
/// finite points coexisting with `∞`), contributes 0 to every interior
/// distance instead of dividing by the zero/non-finite range. Without the
/// guard such fronts produce NaN distances and the `partial_cmp(...)
/// .expect(...)` comparators in the selection loop panic.
#[must_use]
pub fn crowding_distances(front: &[usize], objectives: &[ObjectiveVector]) -> Vec<f64> {
    let Some(&first) = front.first() else {
        return Vec::new();
    };
    let dims = objectives[first].len();
    let rows: Vec<[f64; MAX_OBJECTIVES]> = front
        .iter()
        .map(|&i| {
            let mut row = [0.0; MAX_OBJECTIVES];
            row[..dims].copy_from_slice(objectives[i].values());
            row
        })
        .collect();
    let mut order: Vec<usize> = (0..front.len()).collect();
    let mut distance = vec![0.0; front.len()];
    crowd_front(&mut order, &rows, dims, &mut distance);
    distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ModelEvaluator;

    fn ov(v: &[f64]) -> ObjectiveVector {
        ObjectiveVector::new(v.to_vec())
    }

    #[test]
    fn sort_splits_known_fronts() {
        let objs = vec![
            ov(&[1.0, 4.0]), // front 0
            ov(&[4.0, 1.0]), // front 0
            ov(&[2.0, 5.0]), // front 1 (dominated by #0)
            ov(&[5.0, 5.0]), // front 2
            ov(&[2.0, 2.0]), // front 0
        ];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts[0], vec![0, 1, 4]);
        assert_eq!(fronts[1], vec![2]);
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn sort_handles_single_front() {
        let objs = vec![ov(&[1.0, 3.0]), ov(&[2.0, 2.0]), ov(&[3.0, 1.0])];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 3);
    }

    #[test]
    fn small_run_finds_feasible_front() {
        let space = DesignSpace::case_study(4);
        let cfg =
            Nsga2Config { population: 24, generations: 10, seed: 7, ..Nsga2Config::default() };
        let result = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        assert!(!result.front.is_empty(), "must find feasible points");
        assert_eq!(result.evaluations, 24 + 24 * 10);
        // The archive is mutually non-dominated by construction; check
        // objectives are finite.
        for e in result.front.entries() {
            assert!(e.objectives.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let space = DesignSpace::case_study(4);
        let cfg = Nsga2Config { population: 16, generations: 5, seed: 3, ..Nsga2Config::default() };
        let a = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        let b = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        let ao: Vec<_> = a.front.objectives().copied().collect();
        let bo: Vec<_> = b.front.objectives().copied().collect();
        assert_eq!(ao, bo);
    }

    /// Regression: a front constant on one objective used to divide by a
    /// zero range, yielding NaN crowding distances that made the
    /// `partial_cmp(...).expect(...)` survival comparator panic.
    #[test]
    fn crowding_handles_degenerate_constant_objective() {
        // All points share objective 1; objective 0 spreads them out.
        let objs = vec![ov(&[1.0, 7.0]), ov(&[2.0, 7.0]), ov(&[3.0, 7.0]), ov(&[4.0, 7.0])];
        let front: Vec<usize> = (0..objs.len()).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "degenerate front produced NaN: {d:?}");
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        // Interior distances come from objective 0 alone.
        assert!((d[1] - (3.0 - 1.0) / 3.0).abs() < 1e-12);
        assert!((d[2] - (4.0 - 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn crowding_handles_fully_constant_and_infinite_fronts() {
        // Entirely constant front: every distance must be finite-or-∞,
        // never NaN (0/0).
        let objs = vec![ov(&[5.0, 5.0]); 4];
        let front: Vec<usize> = (0..4).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "{d:?}");

        // All-infeasible front (+∞ everywhere): span is ∞ − ∞ = NaN and
        // must be guarded too.
        let objs = vec![ov(&[f64::INFINITY, f64::INFINITY]); 5];
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "{d:?}");

        // Mixed finite/∞ on one axis: non-finite span, guarded.
        let objs = vec![ov(&[1.0, 2.0]), ov(&[2.0, 1.0]), ov(&[0.5, f64::INFINITY])];
        let front: Vec<usize> = (0..3).collect();
        let d = crowding_distances(&front, &objs);
        assert!(d.iter().all(|v| !v.is_nan()), "{d:?}");
    }

    /// End-to-end regression: an evaluator that is constant on one axis
    /// forces every front to be degenerate; the run must not panic.
    #[test]
    fn nsga2_survives_constant_objective_evaluator() {
        struct ConstantAxis;
        impl crate::evaluator::Evaluator for ConstantAxis {
            fn evaluate(&self, point: &wbsn_model::space::DesignPoint) -> Option<ObjectiveVector> {
                Some(ObjectiveVector::from_slice(&[
                    f64::from(point.mac.payload_bytes),
                    1.0, // constant on every feasible point
                ]))
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn name(&self) -> &'static str {
                "constant-axis"
            }
        }
        let space = DesignSpace::case_study(4);
        let cfg = Nsga2Config { population: 16, generations: 4, seed: 1, ..Nsga2Config::default() };
        let result = nsga2(&space, &ConstantAxis, &cfg);
        assert!(!result.front.is_empty());
    }

    #[test]
    fn memo_counts_hits_and_preserves_counters() {
        let space = DesignSpace::case_study(4);
        let cfg =
            Nsga2Config { population: 24, generations: 10, seed: 7, ..Nsga2Config::default() };
        let memoized = nsga2(&space, &ModelEvaluator::shimmer(), &cfg);
        let plain = nsga2(&space, &ModelEvaluator::shimmer(), &Nsga2Config { memo: false, ..cfg });
        // Elitist re-selection guarantees repeats in a 10-generation run.
        assert!(memoized.memo_hits > 0, "expected genome repeats to hit the memo");
        assert_eq!(plain.memo_hits, 0);
        // Counters and front are bit-identical with and without the memo.
        assert_eq!(memoized.evaluations, plain.evaluations);
        assert_eq!(memoized.infeasible, plain.infeasible);
        assert_eq!(memoized.front.entries(), plain.front.entries());
    }

    #[test]
    fn more_generations_do_not_hurt_front_quality() {
        let space = DesignSpace::case_study(4);
        let eval = ModelEvaluator::shimmer();
        let short = nsga2(
            &space,
            &eval,
            &Nsga2Config { population: 24, generations: 2, seed: 9, ..Nsga2Config::default() },
        );
        let long = nsga2(
            &space,
            &eval,
            &Nsga2Config { population: 24, generations: 25, seed: 9, ..Nsga2Config::default() },
        );
        // Compare by best energy found (a scalar proxy that must not regress).
        let best = |r: &SearchResult| {
            r.front.objectives().map(|o| o.values()[0]).fold(f64::INFINITY, f64::min)
        };
        assert!(best(&long) <= best(&short) + 1e-9);
    }
}
