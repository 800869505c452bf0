//! Exhaustive enumeration for small design spaces: the ground truth the
//! metaheuristics are validated against.

use crate::evaluator::{Evaluator, SOA_CHUNK};
use crate::nsga2::SearchResult;
use crate::objective::ObjectiveVector;
use crate::parallel::parallel_map_with_block;
use crate::pareto::ParetoArchive;
use wbsn_model::space::{DesignPoint, DesignSpace};

/// Points per sweep chunk: one kernel chunk ([`SOA_CHUNK`]). A chunk is
/// the unit a sweep worker claims, decodes, evaluates and Pareto-filters
/// on its own thread, so the evaluator call inside it never fans out
/// again, and the decoded points of one chunk stay in cache while the
/// kernel and the chunk-local archive read them.
const BATCH: usize = SOA_CHUNK;

/// Total number of points the mixed-radix enumeration would visit.
#[must_use]
pub fn enumeration_size(space: &DesignSpace) -> u128 {
    space.cardinality()
}

/// Exhaustively evaluates every configuration of `space`, returning the
/// exact Pareto front.
///
/// # Panics
///
/// Panics if the space holds more than `limit` points — exhaustive search
/// is a ground-truth tool for reduced spaces, not a production explorer.
///
/// ```
/// use wbsn_dse::evaluator::ModelEvaluator;
/// use wbsn_dse::exhaustive::exhaustive;
/// use wbsn_model::space::DesignSpace;
///
/// let mut space = DesignSpace::case_study(2);
/// space.cr_values = vec![0.17, 0.38];
/// space.payload_values = vec![114];
/// space.order_pairs = vec![(6, 6)];
/// let result = exhaustive(&space, &ModelEvaluator::shimmer(), 10_000);
/// assert!(!result.front.is_empty());
/// ```
#[must_use]
pub fn exhaustive(space: &DesignSpace, evaluator: &dyn Evaluator, limit: u128) -> SearchResult {
    // Enumeration in `DesignSpace::point_at` order (first pick dimension
    // fastest) through `evaluate_batch`, whose SoA kernel is chosen by
    // the node count: ungrouped below `GROUPED_MIN_NODES`, MAC-grouped
    // at or above it. The result is bit-identical to inserting the
    // points one by one in index order (see `sweep`).
    sweep(space, evaluator, limit, Order::Canonical)
}

/// Decodes linear index `index` in **axis-major** order: the mirror of
/// [`DesignSpace::point_at`], with digit significance reversed so the
/// *last* pick dimension (the final node's fµC) varies fastest and the
/// first (the MAC payload) slowest.
///
/// This order is what makes single-axis deltas between consecutive
/// points structural: indices `i` and `i + 1` differ in exactly one
/// trailing dimension roll, so consecutive points share the MAC
/// configuration and every node but the last for runs of
/// `|CR| × |fµC|` points — the axis-run layout
/// `Evaluator::evaluate_batch_axis_runs` exploits. Both orders visit
/// exactly the same point set ([`enumeration_size`] indices, each
/// decoding a distinct digit vector).
///
/// # Panics
///
/// Panics if `index` is out of range.
#[must_use]
pub fn point_at_axis_major(space: &DesignSpace, index: u128) -> DesignPoint {
    let radices = space.dimension_radices();
    let mut digits = vec![0usize; radices.len()];
    Order::AxisMajor.decode(&radices, &mut digits, index);
    point_from_digits(space, &digits)
}

/// Exhaustively evaluates every configuration of `space` like
/// [`exhaustive`], but enumerating in **axis-major** order
/// ([`point_at_axis_major`]) and evaluating through
/// [`Evaluator::evaluate_batch_axis_runs`] — the incremental sweep
/// mode: consecutive points differ only in the last node's `(CR, fµC)`
/// pick, so the batch kernel re-evaluates only the lane that single
/// axis step changes and reuses the shared prefix of each run.
///
/// Visits exactly the same point set as [`exhaustive`] with the same
/// `evaluations`/`infeasible` counts and the same *set* of
/// non-dominated objective vectors. The archive's entry order (and
/// therefore which payload represents an objective tie) follows the
/// axis-major insertion order, which differs from `exhaustive`'s —
/// compare fronts as sets, the way the parity tests do.
///
/// # Panics
///
/// Panics if the space holds more than `limit` points.
#[must_use]
pub fn exhaustive_incremental(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    limit: u128,
) -> SearchResult {
    sweep(space, evaluator, limit, Order::AxisMajor)
}

/// Digit significance of a sweep's linear index, which also picks the
/// evaluator method the sweep calls.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// First pick dimension fastest ([`DesignSpace::point_at`]),
    /// evaluated through [`Evaluator::evaluate_batch`].
    Canonical,
    /// Last pick dimension fastest ([`point_at_axis_major`]), evaluated
    /// through [`Evaluator::evaluate_batch_axis_runs`].
    AxisMajor,
}

impl Order {
    /// Fills `digits` with the mixed-radix digits of `index`, one per
    /// pick dimension in [`DesignSpace::dimension_radices`] order.
    fn decode(self, radices: &[usize], digits: &mut [usize], index: u128) {
        let mut rem = index;
        let mut put = |(digit, &radix): (&mut usize, &usize)| {
            *digit = usize::try_from(rem % radix as u128).expect("digit below its radix");
            rem /= radix as u128;
        };
        match self {
            Self::Canonical => digits.iter_mut().zip(radices).for_each(&mut put),
            Self::AxisMajor => digits.iter_mut().zip(radices).rev().for_each(&mut put),
        }
        assert!(rem == 0, "index {index} out of range");
    }

    /// Steps `digits` to the next index: the odometer roll that replaces
    /// a full decode for every point after a chunk's first. Rolling past
    /// the last index wraps to all zeros.
    fn advance(self, radices: &[usize], digits: &mut [usize]) {
        // `all` stops at the first digit that does not carry; its result
        // (whether the roll wrapped past the last index) is not needed.
        let carry = |(digit, &radix): (&mut usize, &usize)| {
            *digit += 1;
            let wrapped = *digit == radix;
            if wrapped {
                *digit = 0;
            }
            wrapped
        };
        let _ = match self {
            Self::Canonical => digits.iter_mut().zip(radices).all(carry),
            Self::AxisMajor => digits.iter_mut().zip(radices).rev().all(carry),
        };
    }

    /// The evaluator method of this order.
    fn evaluate(
        self,
        evaluator: &dyn Evaluator,
        points: &[DesignPoint],
    ) -> Vec<Option<ObjectiveVector>> {
        match self {
            Self::Canonical => evaluator.evaluate_batch(points),
            Self::AxisMajor => evaluator.evaluate_batch_axis_runs(points),
        }
    }
}

/// Rebuilds the point whose pick digits are `digits`.
fn point_from_digits(space: &DesignSpace, digits: &[usize]) -> DesignPoint {
    let mut it = digits.iter().copied();
    space.point_with(|_| it.next().expect("one digit per dimension"))
}

/// Per-worker buffers of the sweep: the odometer digits and the decoded
/// points of the current chunk, reused across the chunks a worker claims.
struct SweepWorker {
    digits: Vec<usize>,
    points: Vec<DesignPoint>,
}

/// The sweep driver shared by [`exhaustive`] and
/// [`exhaustive_incremental`].
///
/// The index range is cut into [`BATCH`]-point chunks that workers claim
/// from the `parallel` chunk-claim loop. A worker decodes its chunk's
/// first index once and rolls an odometer for the rest, evaluates the
/// chunk in one evaluator call on its own thread, and keeps a
/// chunk-local [`ParetoArchive`] and infeasible count. The caller then
/// merges the chunk archives in chunk order through
/// [`ParetoArchive::merge`].
///
/// The merge is exact, not an approximation of the serial pass: a point
/// survives the serial insertion sequence iff no earlier point weakly
/// dominates it and no later point dominates it, and survivors keep
/// their insertion order. A point dropped inside its chunk is therefore
/// dropped by the serial pass too, and replaying each chunk's survivors
/// in chunk order yields the same entries, entry order and payloads as
/// inserting every point one by one in index order.
fn sweep(
    space: &DesignSpace,
    evaluator: &dyn Evaluator,
    limit: u128,
    order: Order,
) -> SearchResult {
    let total = enumeration_size(space);
    assert!(total <= limit, "space holds {total} points, above the exhaustive limit {limit}");
    let radices = space.dimension_radices();
    let chunk_starts: Vec<u128> = (0..total).step_by(BATCH).collect();
    let chunks = parallel_map_with_block(
        &chunk_starts,
        1,
        || SweepWorker { digits: vec![0; radices.len()], points: Vec::with_capacity(BATCH) },
        |worker, &start| {
            let count =
                usize::try_from((total - start).min(BATCH as u128)).expect("bounded by BATCH");
            order.decode(&radices, &mut worker.digits, start);
            for i in 0..count {
                if i > 0 {
                    order.advance(&radices, &mut worker.digits);
                }
                worker.points.push(point_from_digits(space, &worker.digits));
            }
            let results = order.evaluate(evaluator, &worker.points);
            let mut front = ParetoArchive::new();
            let mut infeasible = 0u64;
            for (point, result) in worker.points.drain(..).zip(results) {
                match result {
                    Some(obj) => {
                        front.insert(obj, point);
                    }
                    None => infeasible += 1,
                }
            }
            (front, infeasible)
        },
    );
    let mut front = ParetoArchive::new();
    let mut infeasible = 0u64;
    for (chunk_front, chunk_infeasible) in chunks {
        front.merge(chunk_front);
        infeasible += chunk_infeasible;
    }
    let evaluations = u64::try_from(total).expect("a space within the limit fits in u64");
    // Exhaustive enumeration never revisits a genome: no memo needed.
    SearchResult { front, evaluations, infeasible, memo_hits: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ModelEvaluator;
    use crate::nsga2::{nsga2, Nsga2Config};

    fn tiny_space() -> DesignSpace {
        let mut space = DesignSpace::case_study(2);
        space.cr_values = vec![0.17, 0.25, 0.33];
        space.f_mcu_values =
            vec![wbsn_model::units::Hertz::from_mhz(4.0), wbsn_model::units::Hertz::from_mhz(8.0)];
        space.payload_values = vec![70, 114];
        space.order_pairs = vec![(5, 5), (6, 6), (6, 8)];
        space
    }

    #[test]
    fn visits_every_point_exactly_once() {
        let space = tiny_space();
        let result = exhaustive(&space, &ModelEvaluator::shimmer(), 100_000);
        assert_eq!(u128::from(result.evaluations), space.cardinality());
        // All DWT/CS nodes at 4/8 MHz are feasible here.
        assert_eq!(result.infeasible, 0);
        assert!(!result.front.is_empty());
    }

    /// The linear-index enumeration visits exactly the point set (and
    /// sequence) of the retired serial odometer.
    #[test]
    fn linear_decode_enumerates_the_odometer_sequence() {
        let space = tiny_space();
        // Reference: the old mixed-radix odometer.
        let radices = space.dimension_radices();
        let mut digits = vec![0usize; radices.len()];
        let mut index: u128 = 0;
        loop {
            let mut it = digits.iter().copied();
            let odometer_point = space.point_with(|_| it.next().expect("digit per dimension"));
            assert_eq!(space.point_at(index), odometer_point, "index {index}");
            index += 1;
            let mut pos = 0;
            loop {
                if pos == digits.len() {
                    assert_eq!(index, space.cardinality(), "sequence lengths differ");
                    return;
                }
                digits[pos] += 1;
                if digits[pos] < radices[pos] {
                    break;
                }
                digits[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Batch-partitioned exhaustive search returns the identical archive
    /// (entries, order, payloads) as a point-by-point serial pass.
    #[test]
    fn batched_front_is_bit_identical_to_serial() {
        let space = tiny_space();
        let eval = ModelEvaluator::shimmer();
        let batched = exhaustive(&space, &eval, 100_000);
        let serial = exhaustive(&space, &crate::evaluator::SerialEvaluator(eval), 100_000);
        assert_eq!(batched.evaluations, serial.evaluations);
        assert_eq!(batched.infeasible, serial.infeasible);
        assert_eq!(batched.front.entries(), serial.front.entries());
    }

    #[test]
    fn nsga2_recovers_the_exact_front_on_a_tiny_space() {
        let space = tiny_space();
        let truth = exhaustive(&space, &ModelEvaluator::shimmer(), 100_000);
        let ga = nsga2(
            &space,
            &ModelEvaluator::shimmer(),
            &Nsga2Config { population: 60, generations: 40, seed: 11, ..Nsga2Config::default() },
        );
        // Every true Pareto point must be weakly dominated by (i.e.
        // present in) the GA's archive, and vice versa.
        for t in truth.front.objectives() {
            assert!(
                ga.front.objectives().any(|g| g.weakly_dominates(t)),
                "GA missed the true trade-off {t}"
            );
        }
        for g in ga.front.objectives() {
            assert!(
                truth.front.objectives().any(|t| t.weakly_dominates(g)),
                "GA returned a non-optimal point {g}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "above the exhaustive limit")]
    fn refuses_oversized_spaces() {
        let space = DesignSpace::case_study(6);
        let _ = exhaustive(&space, &ModelEvaluator::shimmer(), 1000);
    }

    /// A tiny space salted with infeasible axis values: 1 and 2 MHz
    /// clocks overflow the DWT duty cycle and tight superframe orders
    /// overflow bandwidth/GTS capacity, so the incremental sweep's
    /// fallback paths (dead run heads, per-variant infeasibility inside
    /// an alive run) are all exercised, not just the feasible fast path.
    fn error_heavy_space() -> DesignSpace {
        let mut space = DesignSpace::case_study(2);
        space.cr_values = vec![0.17, 0.38];
        space.f_mcu_values = vec![
            wbsn_model::units::Hertz::from_mhz(1.0),
            wbsn_model::units::Hertz::from_mhz(2.0),
            wbsn_model::units::Hertz::from_mhz(8.0),
        ];
        space.payload_values = vec![30, 114];
        space.order_pairs = vec![(4, 4), (4, 9), (9, 9)];
        space
    }

    /// Axis-major decode is a permutation of the canonical decode: every
    /// axis-major index maps back to a distinct canonical index (digit
    /// vectors reversed in significance, same digit set), and the two
    /// orders enumerate the same point sequence under that mapping.
    #[test]
    fn axis_major_decode_is_a_permutation_of_point_at() {
        let space = tiny_space();
        let radices = space.dimension_radices();
        let total = space.cardinality();
        for index in 0..total {
            // Recover the axis-major digits, then re-encode them in
            // canonical (first-dimension-fastest) significance.
            let mut rem = index;
            let mut digits = vec![0usize; radices.len()];
            for (digit, &radix) in digits.iter_mut().zip(&radices).rev() {
                *digit = usize::try_from(rem % radix as u128).expect("digit below radix");
                rem /= radix as u128;
            }
            let mut canonical: u128 = 0;
            let mut stride: u128 = 1;
            for (&digit, &radix) in digits.iter().zip(&radices) {
                canonical += digit as u128 * stride;
                stride *= radix as u128;
            }
            assert_eq!(
                point_at_axis_major(&space, index),
                space.point_at(canonical),
                "axis-major index {index}"
            );
        }
    }

    /// Consecutive axis-major points form axis runs: within a run of
    /// `|CR| × |fµC|` points, the MAC configuration and every node but
    /// the last are shared.
    #[test]
    fn axis_major_neighbors_share_the_prefix() {
        let space = tiny_space();
        let run = (space.cr_values.len() * space.f_mcu_values.len()) as u128;
        let total = space.cardinality();
        for index in 0..total - 1 {
            let a = point_at_axis_major(&space, index);
            let b = point_at_axis_major(&space, index + 1);
            if (index + 1) % run != 0 {
                let n = a.nodes.len();
                assert_eq!(a.mac, b.mac, "index {index}");
                assert_eq!(a.nodes[..n - 1], b.nodes[..n - 1], "index {index}");
            }
        }
    }

    /// The incremental sweep through the axis-run kernel is bit-identical
    /// (entries, order, payloads, counters) to the same axis-major
    /// enumeration through the serial reference evaluator — the run
    /// fast path must be invisible.
    #[test]
    fn incremental_sweep_is_bit_identical_to_serial_axis_major() {
        for space in [tiny_space(), error_heavy_space()] {
            let eval = ModelEvaluator::shimmer();
            let fast = exhaustive_incremental(&space, &eval, 100_000);
            let serial =
                exhaustive_incremental(&space, &crate::evaluator::SerialEvaluator(eval), 100_000);
            assert_eq!(fast.evaluations, serial.evaluations);
            assert_eq!(fast.infeasible, serial.infeasible);
            assert_eq!(fast.front.entries(), serial.front.entries());
        }
    }

    /// The incremental sweep finds exactly the canonical sweep's front
    /// *set* (insertion order legitimately differs between the two
    /// enumeration orders) with identical evaluation counts.
    #[test]
    fn incremental_sweep_front_matches_canonical_exhaustive() {
        for space in [tiny_space(), error_heavy_space()] {
            let eval = ModelEvaluator::shimmer();
            let canonical = exhaustive(&space, &eval, 100_000);
            let incremental = exhaustive_incremental(&space, &eval, 100_000);
            assert_eq!(incremental.evaluations, canonical.evaluations);
            assert_eq!(incremental.infeasible, canonical.infeasible);
            let sort = |r: &SearchResult| {
                let mut objs: Vec<String> =
                    r.front.objectives().map(|o| format!("{o:?}")).collect();
                objs.sort();
                objs
            };
            assert_eq!(sort(&incremental), sort(&canonical));
        }
    }

    /// Exactly one sweep chunk: 2 nodes × (4 CR × 2 fµC)² × 4 payloads
    /// × 4 superframe order pairs = 1024 points.
    fn one_chunk_space() -> DesignSpace {
        let mut space = DesignSpace::case_study(2);
        space.cr_values = vec![0.17, 0.24, 0.31, 0.38];
        space.f_mcu_values =
            vec![wbsn_model::units::Hertz::from_mhz(4.0), wbsn_model::units::Hertz::from_mhz(8.0)];
        space.payload_values = vec![30, 70, 100, 114];
        space.order_pairs = vec![(4, 4), (5, 5), (6, 6), (6, 8)];
        space
    }

    /// Several chunks and a partial last one: 3 nodes × (4 CR × 2 fµC)³
    /// × 3 payloads × 3 order pairs = 4608 points, 4.5 chunks.
    fn ragged_space() -> DesignSpace {
        let mut space = DesignSpace::case_study(3);
        space.cr_values = vec![0.17, 0.24, 0.31, 0.38];
        space.f_mcu_values =
            vec![wbsn_model::units::Hertz::from_mhz(4.0), wbsn_model::units::Hertz::from_mhz(8.0)];
        space.payload_values = vec![70, 100, 114];
        space.order_pairs = vec![(5, 5), (6, 6), (6, 8)];
        space
    }

    /// Independent reference for both sweeps: decode every index with
    /// the public decoder, evaluate it alone through the scalar
    /// `evaluate`, insert it into one archive, all on one thread.
    fn reference_sweep(space: &DesignSpace, axis_major: bool) -> SearchResult {
        let eval = ModelEvaluator::shimmer();
        let mut front = ParetoArchive::new();
        let mut infeasible = 0u64;
        for index in 0..space.cardinality() {
            let point =
                if axis_major { point_at_axis_major(space, index) } else { space.point_at(index) };
            match eval.evaluate(&point) {
                Some(obj) => {
                    front.insert(obj, point);
                }
                None => infeasible += 1,
            }
        }
        let evaluations = u64::try_from(space.cardinality()).expect("small space");
        SearchResult { front, evaluations, infeasible, memo_hits: 0 }
    }

    /// Both fused sweeps equal the single-threaded reference exactly —
    /// entries, entry order, payloads and counters — at 1, 2 and 4
    /// workers, on spaces below one chunk, of exactly one chunk, of a
    /// ragged number of chunks, and salted with infeasible points. The
    /// multi-chunk spaces at several workers are what catch a chunk
    /// merged out of order.
    #[test]
    fn sweeps_match_a_single_threaded_reference_at_every_thread_count() {
        type Sweep = fn(&DesignSpace, &dyn Evaluator, u128) -> SearchResult;
        assert_eq!(one_chunk_space().cardinality(), BATCH as u128);
        let ragged = ragged_space().cardinality();
        assert!(ragged > 4 * BATCH as u128 && !ragged.is_multiple_of(BATCH as u128));
        assert!(tiny_space().cardinality() < BATCH as u128);
        let eval = ModelEvaluator::shimmer();
        let sweeps: [(bool, Sweep); 2] = [(false, exhaustive), (true, exhaustive_incremental)];
        for space in [tiny_space(), one_chunk_space(), ragged_space(), error_heavy_space()] {
            for (axis_major, sweep) in sweeps {
                let expected = reference_sweep(&space, axis_major);
                assert!(expected.front.len() > 1, "a one-entry front cannot show an order bug");
                for threads in [1, 2, 4] {
                    let got =
                        crate::parallel::with_threads(threads, || sweep(&space, &eval, 100_000));
                    let case = format!(
                        "{} points, axis-major {axis_major}, {threads} threads",
                        space.cardinality()
                    );
                    assert_eq!(got.evaluations, expected.evaluations, "{case}");
                    assert_eq!(got.infeasible, expected.infeasible, "{case}");
                    assert_eq!(got.front.entries(), expected.front.entries(), "{case}");
                }
            }
        }
    }

    /// The error-heavy space really exercises the error paths.
    #[test]
    fn error_heavy_space_has_infeasible_points() {
        let result =
            exhaustive_incremental(&error_heavy_space(), &ModelEvaluator::shimmer(), 100_000);
        assert!(result.infeasible > 0, "space must exercise the dead paths");
        assert!(!result.front.is_empty());
    }
}
