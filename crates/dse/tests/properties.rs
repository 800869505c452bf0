//! Property-based tests of the DSE invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbsn_dse::evaluator::ModelEvaluator;
use wbsn_dse::memo::GenomeMemo;
use wbsn_dse::mosa::{mosa, mosa_with_memo, MosaConfig};
use wbsn_dse::nsga2::{fast_non_dominated_sort, nsga2, nsga2_with_memo, Nsga2Config, RankScratch};
use wbsn_dse::objective::{Dominance, ObjectiveVector};
use wbsn_dse::pareto::{non_dominated_indices, ArchiveEntry, ParetoArchive};
use wbsn_dse::quality::{coverage, hypervolume_2d};
use wbsn_model::space::DesignSpace;
use wbsn_model::units::Hertz;

fn objective_vec(dims: usize) -> impl Strategy<Value = ObjectiveVector> {
    prop::collection::vec(0.0f64..100.0, dims..=dims).prop_map(ObjectiveVector::new)
}

/// The retired `Vec`-backed dominance comparison, kept as the behavioral
/// reference for the inline `ObjectiveVector`.
fn reference_compare(a: &[f64], b: &[f64]) -> Dominance {
    assert_eq!(a.len(), b.len());
    let mut better = false;
    let mut worse = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            better = true;
        } else if x > y {
            worse = true;
        }
    }
    match (better, worse) {
        (true, false) => Dominance::Dominates,
        (false, true) => Dominance::DominatedBy,
        (false, false) => Dominance::Equal,
        (true, true) => Dominance::Incomparable,
    }
}

/// The retired adjacency-list fast non-dominated sort (Deb et al.),
/// kept as the index-for-index reference for the bit-matrix sort: front
/// membership *and* order within each front must match.
fn reference_sort(objectives: &[ObjectiveVector]) -> Vec<Vec<usize>> {
    let n = objectives.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if objectives[i].dominates(&objectives[j]) {
                dominated_by[i].push(j);
                domination_count[j] += 1;
            } else if objectives[j].dominates(&objectives[i]) {
                dominated_by[j].push(i);
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// The retired crowding-distance computation, aligned with `front`.
fn reference_crowding(front: &[usize], objectives: &[ObjectiveVector]) -> Vec<f64> {
    let len = front.len();
    if len <= 2 {
        return vec![f64::INFINITY; len];
    }
    let dims = objectives[front[0]].len();
    let mut distance = vec![0.0f64; len];
    let mut order: Vec<usize> = (0..len).collect();
    for d in 0..dims {
        order.sort_by(|&x, &y| {
            let a = objectives[front[x]].values()[d];
            let b = objectives[front[y]].values()[d];
            a.partial_cmp(&b).expect("objectives are not NaN")
        });
        let lo = objectives[front[order[0]]].values()[d];
        let hi = objectives[front[order[len - 1]]].values()[d];
        distance[order[0]] = f64::INFINITY;
        distance[order[len - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 || !span.is_finite() {
            continue;
        }
        for w in 1..len - 1 {
            let prev = objectives[front[order[w - 1]]].values()[d];
            let next = objectives[front[order[w + 1]]].values()[d];
            distance[order[w]] += (next - prev) / span;
        }
    }
    distance
}

/// A population shaped to stress the sort: values on a coarse grid (so
/// ties on single axes and many fronts are common) or continuous, exact
/// duplicates of earlier rows, and all-`+∞` infeasible rows.
fn stress_population(n: usize, dims: usize, rng: &mut StdRng) -> Vec<ObjectiveVector> {
    let coarse = rng.gen_bool(0.5);
    let mut points: Vec<ObjectiveVector> = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.gen::<f64>();
        let point = if roll < 0.15 {
            ObjectiveVector::from_slice(&[f64::INFINITY; 4][..dims])
        } else if roll < 0.3 && !points.is_empty() {
            points[rng.gen_range(0..points.len())]
        } else {
            let values: Vec<f64> = (0..dims)
                .map(|_| if coarse { f64::from(rng.gen_range(0u8..4)) } else { rng.gen::<f64>() })
                .collect();
            ObjectiveVector::from_slice(&values)
        };
        points.push(point);
    }
    points
}

/// The archive insertion before incumbents stayed in place until an
/// eviction: every incomparable incumbent was swapped forward, including
/// onto itself. Kept as the reference for entries, order and payloads.
fn always_swap_insert(
    entries: &mut Vec<ArchiveEntry<usize>>,
    objectives: ObjectiveVector,
    payload: usize,
) -> bool {
    let mut write = 0;
    for read in 0..entries.len() {
        match entries[read].objectives.compare(&objectives) {
            Dominance::Dominates | Dominance::Equal => return false,
            Dominance::DominatedBy => {}
            Dominance::Incomparable => {
                entries.swap(write, read);
                write += 1;
            }
        }
    }
    entries.truncate(write);
    entries.push(ArchiveEntry { objectives, payload });
    true
}

/// The next point of an insertion stream shaped to stress the archive:
/// coarse-grid points (exact ties on single axes, equal vectors), exact
/// duplicates of earlier points or of incumbents, an incumbent lowered
/// on one axis or on all (an eviction at that incumbent's position, and
/// a run of them when the lowered point is lowered again later), and an
/// occasional point below everything (the archive collapses to one).
fn stress_point(
    dims: usize,
    history: &[ObjectiveVector],
    front: &[ArchiveEntry<usize>],
    rng: &mut StdRng,
) -> ObjectiveVector {
    let roll = rng.gen::<f64>();
    if front.is_empty() || roll < 0.45 {
        let values: Vec<f64> = (0..dims).map(|_| f64::from(rng.gen_range(0u8..6))).collect();
        return ObjectiveVector::from_slice(&values);
    }
    let incumbent = front[rng.gen_range(0..front.len())].objectives;
    let mut values = incumbent.values().to_vec();
    if roll < 0.6 {
        history[rng.gen_range(0..history.len())]
    } else if roll < 0.7 {
        incumbent
    } else if roll < 0.88 {
        values[rng.gen_range(0..dims)] -= 0.5;
        ObjectiveVector::from_slice(&values)
    } else if roll < 0.98 {
        for v in &mut values {
            *v -= 0.25;
        }
        ObjectiveVector::from_slice(&values)
    } else {
        ObjectiveVector::from_slice(&[-10.0; 4][..dims])
    }
}

/// Random tiny design spaces: every grid axis truncated to a random
/// prefix, so radices (and their mixed-radix carries) vary per case.
fn tiny_space() -> impl Strategy<Value = DesignSpace> {
    (1usize..=3, 1usize..=2, 1usize..=2, 1usize..=3, 1usize..=3).prop_map(
        |(n_cr, n_f, n_payload, n_orders, n_nodes)| {
            let mut space = DesignSpace::case_study(n_nodes);
            space.cr_values.truncate(n_cr);
            space.f_mcu_values = [4.0, 8.0][..n_f].iter().map(|&m| Hertz::from_mhz(m)).collect();
            space.payload_values.truncate(n_payload);
            space.order_pairs.truncate(n_orders);
            space
        },
    )
}

proptest! {
    #[test]
    fn dominance_is_antisymmetric_and_consistent(
        a in objective_vec(3),
        b in objective_vec(3),
    ) {
        match a.compare(&b) {
            Dominance::Dominates => {
                prop_assert_eq!(b.compare(&a), Dominance::DominatedBy);
                prop_assert!(a.dominates(&b) && !b.dominates(&a));
            }
            Dominance::DominatedBy => {
                prop_assert_eq!(b.compare(&a), Dominance::Dominates);
            }
            Dominance::Incomparable => {
                prop_assert_eq!(b.compare(&a), Dominance::Incomparable);
                prop_assert!(!a.dominates(&b) && !b.dominates(&a));
            }
            Dominance::Equal => {
                prop_assert_eq!(b.compare(&a), Dominance::Equal);
                prop_assert!(a.weakly_dominates(&b) && b.weakly_dominates(&a));
            }
        }
    }

    #[test]
    fn archive_invariant_no_internal_domination(
        points in prop::collection::vec(objective_vec(2), 1..60),
    ) {
        let mut archive = ParetoArchive::new();
        for (i, p) in points.iter().enumerate() {
            archive.insert(*p, i);
        }
        let objs: Vec<_> = archive.objectives().copied().collect();
        for (i, a) in objs.iter().enumerate() {
            for (j, b) in objs.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.weakly_dominates(b), "{a} weakly dominates {b}");
                }
            }
        }
        // Every input point is weakly dominated by something in the archive.
        for p in &points {
            prop_assert!(objs.iter().any(|a| a.weakly_dominates(p)));
        }
    }

    #[test]
    fn archive_matches_batch_filter(
        points in prop::collection::vec(objective_vec(3), 1..40),
    ) {
        let mut archive = ParetoArchive::new();
        for (i, p) in points.iter().enumerate() {
            archive.insert(*p, i);
        }
        let batch = non_dominated_indices(&points);
        // Same cardinality (both deduplicate dominance-equivalent points).
        prop_assert_eq!(archive.len(), batch.len());
    }

    #[test]
    fn first_front_of_sort_is_the_non_dominated_set(
        points in prop::collection::vec(objective_vec(2), 1..40),
    ) {
        let fronts = fast_non_dominated_sort(&points);
        prop_assert!(!fronts.is_empty());
        // Every index appears exactly once across fronts.
        let mut seen: Vec<usize> = fronts.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..points.len()).collect::<Vec<_>>());
        // Front 0 members are never dominated.
        for &i in &fronts[0] {
            prop_assert!(!points.iter().any(|p| p.dominates(&points[i])));
        }
        // Members of front k+1 are dominated by someone in front ≤ k.
        for k in 1..fronts.len() {
            for &i in &fronts[k] {
                let dominated = fronts[..k]
                    .iter()
                    .flatten()
                    .any(|&j| points[j].dominates(&points[i]));
                prop_assert!(dominated, "front {k} member {i} undominated by earlier fronts");
            }
        }
    }

    // The bit-matrix sort reproduces Deb's fronts index for index
    // (front order decides crowding tie-breaks), across 64-bit word
    // boundaries, 2–4 objectives, duplicates and infeasible rows; one
    // reused scratch also reproduces every crowding distance bitwise
    // while it grows and shrinks between population sizes.
    #[test]
    fn bit_matrix_sort_matches_deb_index_for_index(seed in 0u64..u64::MAX, dims in 2usize..=4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = RankScratch::new();
        for n in [200usize, 0, 65, 1, 128, 2, 63, 129, 64, 127] {
            let points = stress_population(n, dims, &mut rng);
            let expected = reference_sort(&points);
            prop_assert_eq!(&fast_non_dominated_sort(&points), &expected, "n = {}", n);

            scratch.rank(&points);
            let fronts: Vec<Vec<usize>> = scratch.fronts().map(<[usize]>::to_vec).collect();
            prop_assert_eq!(&fronts, &expected, "n = {}", n);
            for (rank, front) in expected.iter().enumerate() {
                for (&i, d) in front.iter().zip(reference_crowding(front, &points)) {
                    prop_assert_eq!(scratch.ranks()[i], rank);
                    prop_assert_eq!(scratch.crowding()[i].to_bits(), d.to_bits(), "n = {}", n);
                }
            }
        }
    }

    #[test]
    fn hypervolume_monotone_under_point_addition(
        points in prop::collection::vec(objective_vec(2), 1..20),
        extra in objective_vec(2),
    ) {
        let reference = [120.0, 120.0];
        let hv1 = hypervolume_2d(&points, reference);
        let mut more = points.clone();
        more.push(extra);
        let hv2 = hypervolume_2d(&more, reference);
        prop_assert!(hv2 + 1e-9 >= hv1, "{hv2} < {hv1}");
    }

    #[test]
    fn linear_index_decode_equals_odometer_enumeration(
        space in tiny_space(),
    ) {
        // Reference sequence: the retired serial mixed-radix odometer
        // over the `point_with` pick dimensions.
        let radices = space.dimension_radices();
        let mut digits = vec![0usize; radices.len()];
        let mut odometer_points = Vec::new();
        'odometer: loop {
            let mut it = digits.iter().copied();
            odometer_points.push(space.point_with(|_| it.next().expect("digit")));
            let mut pos = 0;
            loop {
                if pos == digits.len() {
                    break 'odometer;
                }
                digits[pos] += 1;
                if digits[pos] < radices[pos] {
                    break;
                }
                digits[pos] = 0;
                pos += 1;
            }
        }
        prop_assert_eq!(odometer_points.len() as u128, space.cardinality());
        // The linear decode visits exactly the same points in the same
        // order — so chunked parallel enumeration covers the space
        // perfectly, no point skipped or visited twice.
        for (i, expected) in odometer_points.iter().enumerate() {
            prop_assert_eq!(&space.point_at(i as u128), expected, "index {}", i);
        }
    }

    // The inline `[f64; 4]`-backed `ObjectiveVector` behaves exactly
    // like the old `Vec`-backed one: construction round-trips the
    // values, `compare` matches the reference dominance table on every
    // supported dimensionality, and comparison is symmetric.
    #[test]
    fn inline_objective_vector_matches_vec_backed_reference(
        a in prop::collection::vec(prop_oneof![0.0f64..10.0, Just(f64::INFINITY)], 1..=4),
        b in prop::collection::vec(prop_oneof![0.0f64..10.0, Just(f64::INFINITY)], 1..=4),
    ) {
        let ia = ObjectiveVector::new(a.clone());
        prop_assert_eq!(ia.values(), &a[..]);
        prop_assert_eq!(ia.len(), a.len());
        prop_assert!(!ia.is_empty());
        if a.len() == b.len() {
            let ib = ObjectiveVector::from_slice(&b);
            prop_assert_eq!(ia.compare(&ib), reference_compare(&a, &b));
            // Equality matches slice equality of the active prefix.
            prop_assert_eq!(ia == ib, a == b);
        }
    }

    // Archive-insert parity: driving `ParetoArchive` with inline
    // vectors produces exactly the accept/reject sequence and final
    // front of a `Vec<f64>`-based reference archive using the old
    // dominance logic.
    #[test]
    fn archive_insert_parity_with_vec_backed_reference(
        points in prop::collection::vec(
            prop::collection::vec(0.0f64..4.0, 3..=3), 1..60),
    ) {
        let mut archive = ParetoArchive::new();
        let mut reference: Vec<(Vec<f64>, usize)> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let accepted = archive.insert(ObjectiveVector::new(p.clone()), i);
            let ref_accepted = if reference.iter().any(|(q, _)| {
                matches!(reference_compare(q, p), Dominance::Dominates | Dominance::Equal)
            }) {
                false
            } else {
                reference.retain(|(q, _)| reference_compare(p, q) != Dominance::Dominates);
                reference.push((p.clone(), i));
                true
            };
            prop_assert_eq!(accepted, ref_accepted, "insert #{}", i);
        }
        prop_assert_eq!(archive.len(), reference.len());
        for (entry, (q, i)) in archive.entries().iter().zip(&reference) {
            prop_assert_eq!(entry.objectives.values(), &q[..]);
            prop_assert_eq!(&entry.payload, i);
        }
    }

    // Incumbents that move only after an eviction leave the archive
    // exactly as the always-swap insertion did: the same accept/reject
    // answer and the same entries, in the same order, with the same
    // payloads after every insert — and so the same `merge` results.
    #[test]
    fn archive_insert_matches_always_swap_reference(
        seed in 0u64..1_000_000,
        dims in 2usize..=4,
        len in 1usize..160,
        split in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(len);
        let mut archive = ParetoArchive::new();
        let mut reference = Vec::new();
        let mut evictions = 0usize;
        for i in 0..len {
            let p = stress_point(dims, &points, archive.entries(), &mut rng);
            points.push(p);
            let before = reference.len();
            let accepted = archive.insert(p, i);
            prop_assert_eq!(accepted, always_swap_insert(&mut reference, p, i), "insert #{}", i);
            evictions += (before + usize::from(accepted)).saturating_sub(reference.len());
            prop_assert_eq!(archive.entries(), &reference[..], "insert #{}", i);
        }
        prop_assert!(len < 40 || evictions > 0, "the stream must exercise evictions");

        // Two chunk archives merged, against the reference's replay of
        // the second chunk's entries into the first.
        let cut = (split * len as f64) as usize;
        let (mut left, mut right) = (ParetoArchive::new(), ParetoArchive::new());
        let (mut left_ref, mut right_ref) = (Vec::new(), Vec::new());
        for (i, &p) in points.iter().enumerate() {
            if i < cut {
                left.insert(p, i);
                always_swap_insert(&mut left_ref, p, i);
            } else {
                right.insert(p, i);
                always_swap_insert(&mut right_ref, p, i);
            }
        }
        left.merge(right);
        for entry in right_ref {
            always_swap_insert(&mut left_ref, entry.objectives, entry.payload);
        }
        prop_assert_eq!(left.entries(), &left_ref[..]);
    }

    // Genome-memoized searches are bit-identical to memo-free runs:
    // same front (entries, order, payloads), same counters.
    #[test]
    fn memoized_searches_are_bit_identical_to_memo_free(seed in 0u64..1000) {
        let space = DesignSpace::case_study(3);
        let eval = ModelEvaluator::shimmer();

        let ga_cfg = Nsga2Config {
            population: 12, generations: 4, seed, ..Nsga2Config::default()
        };
        let ga_memo = nsga2(&space, &eval, &ga_cfg);
        let ga_plain = nsga2(&space, &eval, &Nsga2Config { memo: false, ..ga_cfg });
        prop_assert_eq!(ga_memo.front.entries(), ga_plain.front.entries());
        prop_assert_eq!(ga_memo.evaluations, ga_plain.evaluations);
        prop_assert_eq!(ga_memo.infeasible, ga_plain.infeasible);

        let sa_cfg = MosaConfig { iterations: 150, seed, ..MosaConfig::default() };
        let sa_memo = mosa(&space, &eval, &sa_cfg);
        let sa_plain = mosa(&space, &eval, &MosaConfig { memo: false, ..sa_cfg });
        prop_assert_eq!(sa_memo.front.entries(), sa_plain.front.entries());
        prop_assert_eq!(sa_memo.evaluations, sa_plain.evaluations);
        prop_assert_eq!(sa_memo.infeasible, sa_plain.infeasible);
    }

    // An LRU-capped memo only changes WHAT is cached, never what is
    // returned: seeded fronts (entries, order, payloads) are
    // bit-identical for any cap — even one small enough to thrash — with
    // the memo uncapped, or off. Only the hit counter may differ.
    #[test]
    fn capped_memo_yields_bit_identical_fronts(seed in 0u64..500, cap in 1usize..48) {
        let space = DesignSpace::case_study(3);
        let eval = ModelEvaluator::shimmer();
        let cfg = Nsga2Config {
            population: 12, generations: 4, seed, ..Nsga2Config::default()
        };

        let mut capped = GenomeMemo::with_capacity(true, cap);
        let mut uncapped = GenomeMemo::new(true);
        let ga_capped = nsga2_with_memo(&space, &eval, &cfg, &mut capped);
        let ga_uncapped = nsga2_with_memo(&space, &eval, &cfg, &mut uncapped);
        let ga_plain = nsga2(&space, &eval, &Nsga2Config { memo: false, ..cfg });
        prop_assert!(capped.len() <= cap, "memo occupancy {} exceeded cap {}", capped.len(), cap);
        prop_assert!(ga_capped.memo_hits <= ga_uncapped.memo_hits);
        prop_assert_eq!(ga_capped.front.entries(), ga_uncapped.front.entries());
        prop_assert_eq!(ga_capped.front.entries(), ga_plain.front.entries());
        prop_assert_eq!(ga_capped.evaluations, ga_uncapped.evaluations);
        prop_assert_eq!(ga_capped.infeasible, ga_uncapped.infeasible);

        let sa_cfg = MosaConfig { iterations: 150, seed, ..MosaConfig::default() };
        let mut sa_capped_memo = GenomeMemo::with_capacity(true, cap);
        let mut sa_uncapped_memo = GenomeMemo::new(true);
        let sa_capped = mosa_with_memo(&space, &eval, &sa_cfg, &mut sa_capped_memo);
        let sa_uncapped = mosa_with_memo(&space, &eval, &sa_cfg, &mut sa_uncapped_memo);
        prop_assert!(sa_capped_memo.len() <= cap);
        prop_assert_eq!(sa_capped.front.entries(), sa_uncapped.front.entries());
        prop_assert_eq!(sa_capped.evaluations, sa_uncapped.evaluations);
        prop_assert_eq!(sa_capped.infeasible, sa_uncapped.infeasible);
    }

    #[test]
    fn coverage_bounds_and_self_coverage(
        a in prop::collection::vec(objective_vec(2), 1..20),
        b in prop::collection::vec(objective_vec(2), 1..20),
    ) {
        let c = coverage(&a, &b);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!((coverage(&a, &a) - 1.0).abs() < 1e-12);
    }

    // Cross-check of the two hypervolume estimators: on random 2-D
    // fronts in the unit square (box `[0,0]..[2,2]`, volume 4) the
    // seeded Monte-Carlo estimate must land within 0.05 of the exact
    // staircase value. Tolerance rationale: the per-sample standard
    // deviation is at most `V·√(p(1−p)/N) ≤ 4·0.5/√100 000 ≈ 0.0063`,
    // so 0.05 is ≈ 8σ — misses mean estimator bugs, not bad luck.
    // Every seed must satisfy it, so the seed is drawn too.
    #[test]
    fn monte_carlo_tracks_exact_2d_hypervolume(
        pts in prop::collection::vec((0.01f64..1.0, 0.01f64..1.0), 1..20),
        seed in 0u64..1_000,
    ) {
        let front: Vec<ObjectiveVector> =
            pts.iter().map(|&(x, y)| ObjectiveVector::new(vec![x, y])).collect();
        let exact = hypervolume_2d(&front, [2.0, 2.0]);
        let mc = wbsn_dse::quality::hypervolume_monte_carlo(
            &front, &[0.0, 0.0], &[2.0, 2.0], 100_000, seed,
        );
        prop_assert!(
            (mc - exact).abs() < 0.05,
            "mc {} vs exact {} (seed {})", mc, exact, seed
        );
    }
}
