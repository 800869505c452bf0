//! Genome-keyed evaluation memo shared by the searchers.
//!
//! NSGA-II revisits identical genomes constantly (elitist selection keeps
//! good parents around, and crossover of similar parents reproduces
//! them); MOSA's proposal moves frequently resample a recently visited
//! neighbor. Evaluation is a pure function of the genome, so both
//! searchers consult a [`GenomeMemo`] before decoding and evaluating:
//! a hit skips the decode *and* the evaluator call.
//!
//! Determinism: memoization is observationally transparent. The memoized
//! outcome is the bitwise-identical `Option<ObjectiveVector>` the
//! evaluator returned for the first occurrence, and skipping the repeat
//! archive insertion within a run cannot change the front — re-inserting
//! objectives that were ever weakly dominated (including by themselves at
//! first insertion) is always rejected, because eviction only ever
//! replaces an incumbent with a dominator. When one memo is *shared
//! across runs* (`nsga2_with_memo` / `mosa_with_memo`), the first hit of
//! a run on an entry recorded by an earlier run does replay the archive
//! insertion (the fresh archive has never seen it), tracked by a per-run
//! epoch — see [`GenomeMemo::begin_run`] — so sharing stays transparent
//! while within-run hits remain free. Seeded searcher runs are therefore
//! bit-identical with the memo on, off, private or shared (only the
//! `memo_hits` counter and wall-clock change);
//! `crates/dse/tests/properties.rs` checks the on/off property on random
//! seeds, and the `optimizer_comparison` binary's test checks the
//! shared-memo property.
//!
//! # Bounded memory: the LRU cap
//!
//! An uncapped memo grows with every distinct genome (~90 B each) —
//! harmless for a searcher run, unbounded for a million-genome budget
//! through one shared memo. [`GenomeMemo::with_capacity`] bounds
//! occupancy: past the cap, recording a new genome evicts the least
//! recently *used* one (gets, provenance gets and re-records all count
//! as uses), implemented as an intrusive doubly-linked list over a slab
//! so eviction is O(1) and deterministic. A capped memo only ever
//! re-evaluates what an uncapped one would have served from cache —
//! outcomes are pure, so seeded fronts stay bit-identical for ANY cap
//! (property-tested in `crates/dse/tests/properties.rs`).
//!
//! # Hashing
//!
//! The map keys on `WordHasher`, a multiply-rotate hasher over machine
//! words, instead of the standard library's `SipHash` (`RandomState`). A
//! genome hashes as a handful of `usize` indices (payload, orders, one
//! `(CR, fµC)` pair per node), so `SipHash`'s per-word rounds and
//! finalization were most of every lookup. Measured on a 2-vCPU Xeon
//! runner (median of 5 runs over a memo of 4096 genomes, and 200-genome
//! dedup sets as in a default NSGA-II generation), `SipHash` → this
//! hasher, for 2-/6-node genomes: a warm `get_with_provenance` hit
//! 95/167 ns → 38/63 ns, `contains` 77/141 ns → 21/43 ns, and an insert
//! into NSGA-II's per-generation dedup set (reserved to the batch size)
//! 141/234 ns → 17/24 ns. The hasher is deterministic and
//! makes no attempt at resisting hash flooding — acceptable because
//! every key is a genome of grid indices bounded by the design space,
//! generated by the searcher itself, and nothing here faces a network.
//! [`ShardedGenomeMemo`] picks its shard with `DefaultHasher`
//! independently of the shards' own maps.

use crate::genome::Genome;
use crate::objective::ObjectiveVector;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, PoisonError};

/// Deterministic multiply-rotate hasher over machine words (the scheme
/// of rustc's `FxHasher`): each word is xored into the rotated state,
/// which is then multiplied by an odd constant. [`GenomeMemo`] and
/// NSGA-II's in-batch dedup set use it; see the module docs for why
/// it replaces `SipHash` there and why that is safe.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

/// Odd multiplier of [`WordHasher`] (2⁶⁴ divided by the golden ratio,
/// rounded to odd): spreads each word's bits towards the high end.
const WORD_HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for WordHasher {
    /// Byte input is folded in a byte at a time; genomes hash only
    /// `usize` words, so this path never runs for them.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(WORD_HASH_K);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// The multiply leaves the low bits, which pick the bucket, weakest;
    /// the rotation brings the well-mixed high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` of [`WordHasher`] for genome-keyed maps and sets.
pub(crate) type GenomeHashBuilder = BuildHasherDefault<WordHasher>;

/// Sentinel for "no slab neighbor" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// One slab slot of the memo: the cached outcome plus its LRU links.
#[derive(Debug, Clone)]
struct Entry {
    genome: Genome,
    outcome: Option<ObjectiveVector>,
    /// Run epoch the entry was last seen in (cross-run replay tracking).
    epoch: u32,
    /// Slab index of the next-more-recently-used entry.
    prev: u32,
    /// Slab index of the next-less-recently-used entry.
    next: u32,
}

/// Memo of evaluation outcomes keyed by genome. `None` records an
/// infeasible configuration — rejections repeat just as often as
/// acceptances, so both are worth caching.
///
/// Construct with [`GenomeMemo::new`] (unbounded) or
/// [`GenomeMemo::with_capacity`] (LRU-evicting); a disabled memo
/// (`enabled = false`) never stores or returns anything, giving callers
/// a single code path for memoized and memo-free runs.
///
/// Entries carry the *run epoch* they were last seen in
/// ([`GenomeMemo::begin_run`]): a within-run hit skips the decode, the
/// evaluator call *and* the (provably no-op) archive re-insertion,
/// while the first hit of a new run on an older entry reports itself
/// via [`GenomeMemo::get_with_provenance`] so the searcher can replay
/// the insertion into its fresh archive — once, after which the entry
/// is re-stamped with the current epoch.
#[derive(Debug, Clone, Default)]
pub struct GenomeMemo {
    enabled: bool,
    /// Maximum distinct genomes retained (`None` = unbounded).
    capacity: Option<usize>,
    /// Genome → slab index.
    map: HashMap<Genome, u32, GenomeHashBuilder>,
    /// Entry storage; indices are stable (eviction reuses the slot).
    slab: Vec<Entry>,
    /// Most recently used slab index ([`NIL`] when empty).
    head: u32,
    /// Least recently used slab index ([`NIL`] when empty).
    tail: u32,
    hits: u64,
    epoch: u32,
}

impl GenomeMemo {
    /// Creates an empty, unbounded memo; a disabled one is inert (all
    /// lookups miss, all records are dropped).
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self { enabled, head: NIL, tail: NIL, ..Self::default() }
    }

    /// Creates an empty memo retaining at most `capacity` distinct
    /// genomes: past the cap, recording a new genome evicts the least
    /// recently used one.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (an inert memo is spelled
    /// `GenomeMemo::new(false)`).
    #[must_use]
    pub fn with_capacity(enabled: bool, capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity memo cannot hold anything — disable it instead");
        Self { capacity: Some(capacity), ..Self::new(enabled) }
    }

    /// Whether the memo stores anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The configured LRU capacity (`None` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether an outcome for `genome` is already recorded (does not
    /// count as a hit and does not touch the LRU order).
    #[must_use]
    pub fn contains(&self, genome: &Genome) -> bool {
        self.enabled && self.map.contains_key(genome)
    }

    /// Marks the start of a new searcher run sharing this memo. Entries
    /// recorded before this call are treated as *foreign* by
    /// [`GenomeMemo::get_with_provenance`] until their first hit.
    pub fn begin_run(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Unlinks slab entry `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let e = &self.slab[i as usize];
            (e.prev, e.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
    }

    /// Links slab entry `i` at the most-recently-used head.
    fn link_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let e = &mut self.slab[i as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Marks slab entry `i` as just-used.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Looks up the recorded outcome for `genome`, counting a hit when
    /// found. `Some(None)` means "known infeasible".
    ///
    /// Leaves run provenance untouched: a cross-run replay obligation
    /// (see [`GenomeMemo::get_with_provenance`]) survives `get` calls,
    /// so mixing the two accessors cannot silently lose an archive
    /// re-insertion.
    pub fn get(&mut self, genome: &Genome) -> Option<Option<ObjectiveVector>> {
        if !self.enabled {
            return None;
        }
        let i = *self.map.get(genome)?;
        self.hits += 1;
        self.touch(i);
        Some(self.slab[i as usize].outcome)
    }

    /// [`GenomeMemo::get`] that also reports whether the entry was last
    /// seen in an *earlier* run (`true`): the caller must replay the
    /// archive insertion for such hits, exactly once — the entry is
    /// re-stamped with the current epoch. Within-run hits return
    /// `false` and need no replay (re-insertion of an outcome the same
    /// archive already saw is always rejected as weakly dominated).
    pub fn get_with_provenance(
        &mut self,
        genome: &Genome,
    ) -> Option<(Option<ObjectiveVector>, bool)> {
        if !self.enabled {
            return None;
        }
        let i = *self.map.get(genome)?;
        self.hits += 1;
        self.touch(i);
        let epoch = self.epoch;
        let entry = &mut self.slab[i as usize];
        let from_earlier_run = entry.epoch != epoch;
        entry.epoch = epoch;
        Some((entry.outcome, from_earlier_run))
    }

    /// Records the evaluation outcome of `genome` (no-op when disabled),
    /// evicting the least recently used entry when at capacity.
    pub fn record(&mut self, genome: Genome, outcome: Option<ObjectiveVector>) {
        if !self.enabled {
            return;
        }
        if let Some(&i) = self.map.get(&genome) {
            // Re-record of a known genome: refresh outcome and epoch.
            self.touch(i);
            let entry = &mut self.slab[i as usize];
            entry.outcome = outcome;
            entry.epoch = self.epoch;
            return;
        }
        let epoch = self.epoch;
        if self.capacity.is_some_and(|cap| self.map.len() >= cap) {
            // Reuse the least-recently-used slot for the new entry.
            let lru = self.tail;
            self.unlink(lru);
            let evicted = std::mem::replace(&mut self.slab[lru as usize].genome, genome.clone());
            self.map.remove(&evicted);
            {
                let entry = &mut self.slab[lru as usize];
                entry.outcome = outcome;
                entry.epoch = epoch;
            }
            self.map.insert(genome, lru);
            self.link_front(lru);
            return;
        }
        let i = u32::try_from(self.slab.len()).expect("memo slab fits u32 indices");
        self.slab.push(Entry { genome: genome.clone(), outcome, epoch, prev: NIL, next: NIL });
        self.map.insert(genome, i);
        self.link_front(i);
    }

    /// Lookups answered from the memo so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Distinct genomes recorded (never exceeds the capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no genome is recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Thread-safe [`GenomeMemo`] sharded by genome hash, for concurrent
/// consumers (the `wbsn-serve` worker pool) that dedup evaluations
/// *across* requests.
///
/// Each shard is an independent LRU [`GenomeMemo`] behind its own lock,
/// so workers recording outcomes of different genomes rarely contend:
/// a genome's shard is a pure function of its (deterministic) hash, and
/// with `shards ≫ workers` two concurrent accesses collide on a lock
/// only when they touch hash-colliding genomes. Outcomes are pure, so
/// the memo stays observationally transparent no matter how records
/// interleave — a hit replays the bitwise-identical outcome some worker
/// evaluated earlier, and the per-shard LRU caps bound memory exactly
/// like the single-threaded memo.
///
/// A thread that panics while touching a shard cannot poison it for the
/// others: lock poisoning is explicitly cleared (`PoisonError::into_inner`)
/// — safe because shard mutations are small and self-contained (no user
/// code runs under the lock, so an entry is either fully recorded or not
/// at all).
#[derive(Debug)]
pub struct ShardedGenomeMemo {
    shards: Box<[Mutex<GenomeMemo>]>,
}

impl ShardedGenomeMemo {
    /// Creates a memo with `shards` independent shards, each retaining
    /// at most `capacity_per_shard` genomes (LRU).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity_per_shard` is zero.
    #[must_use]
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        assert!(shards > 0, "a sharded memo needs at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(GenomeMemo::with_capacity(true, capacity_per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `genome`. `DefaultHasher` hashes with fixed
    /// keys, so the assignment is deterministic across runs and threads.
    fn shard_for(&self, genome: &Genome) -> &Mutex<GenomeMemo> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        genome.hash(&mut hasher);
        let index = usize::try_from(hasher.finish() % self.shards.len() as u64)
            .expect("shard index < shard count, which fits usize");
        &self.shards[index]
    }

    /// Looks up the recorded outcome for `genome` in its shard, counting
    /// a shard hit when found. `Some(None)` means "known infeasible".
    pub fn get(&self, genome: &Genome) -> Option<Option<ObjectiveVector>> {
        self.shard_for(genome).lock().unwrap_or_else(PoisonError::into_inner).get(genome)
    }

    /// Records the evaluation outcome of `genome` in its shard, evicting
    /// that shard's least recently used entry when at capacity.
    pub fn record(&self, genome: Genome, outcome: Option<ObjectiveVector>) {
        self.shard_for(&genome)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(genome, outcome);
    }

    /// Lookups answered from any shard so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).hits()).sum()
    }

    /// Distinct genomes recorded across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// Whether no genome is recorded in any shard.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().unwrap_or_else(PoisonError::into_inner).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wbsn_model::space::DesignSpace;

    fn genome(seed: u64) -> Genome {
        let space = DesignSpace::case_study(4);
        Genome::random(&space, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn records_and_replays_outcomes() {
        let mut memo = GenomeMemo::new(true);
        let g = genome(1);
        assert!(!memo.contains(&g));
        assert_eq!(memo.get(&g), None);
        assert_eq!(memo.hits(), 0);

        let obj = ObjectiveVector::from_slice(&[1.0, 2.0, 3.0]);
        memo.record(g.clone(), Some(obj));
        assert!(memo.contains(&g));
        assert_eq!(memo.get(&g), Some(Some(obj)));
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.len(), 1);

        // Infeasibility is cached too, and hits keep counting.
        let bad = genome(2);
        memo.record(bad.clone(), None);
        assert_eq!(memo.get(&bad), Some(None));
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn provenance_reports_cross_run_hits_exactly_once() {
        let mut memo = GenomeMemo::new(true);
        memo.begin_run(); // run 1
        let g = genome(5);
        let obj = Some(ObjectiveVector::from_slice(&[1.0, 2.0]));
        memo.record(g.clone(), obj);
        // Within the recording run: never foreign.
        assert_eq!(memo.get_with_provenance(&g), Some((obj, false)));
        assert_eq!(memo.get_with_provenance(&g), Some((obj, false)));

        memo.begin_run(); // run 2
                          // A plain `get` must not consume the pending replay.
        assert_eq!(memo.get(&g), Some(obj));
        // First provenance hit of the new run replays; repeats do not.
        assert_eq!(memo.get_with_provenance(&g), Some((obj, true)));
        assert_eq!(memo.get_with_provenance(&g), Some((obj, false)));
        assert_eq!(memo.hits(), 5);
    }

    #[test]
    fn disabled_memo_is_inert() {
        let mut memo = GenomeMemo::new(false);
        let g = genome(3);
        memo.record(g.clone(), Some(ObjectiveVector::from_slice(&[1.0])));
        assert!(!memo.enabled());
        assert!(!memo.contains(&g));
        assert_eq!(memo.get(&g), None);
        assert_eq!(memo.hits(), 0);
        assert!(memo.is_empty());
    }

    #[test]
    fn capped_memo_evicts_least_recently_used() {
        let mut memo = GenomeMemo::with_capacity(true, 2);
        assert_eq!(memo.capacity(), Some(2));
        let (a, b, c) = (genome(10), genome(11), genome(12));
        let obj = |v: f64| Some(ObjectiveVector::from_slice(&[v]));
        memo.record(a.clone(), obj(1.0));
        memo.record(b.clone(), obj(2.0));
        assert_eq!(memo.len(), 2);

        // Touch `a`: `b` becomes the LRU and is evicted by `c`.
        assert_eq!(memo.get(&a), Some(obj(1.0)));
        memo.record(c.clone(), obj(3.0));
        assert_eq!(memo.len(), 2);
        assert!(memo.contains(&a));
        assert!(!memo.contains(&b), "least recently used entry must be evicted");
        assert!(memo.contains(&c));

        // Evicted genomes can be re-recorded (a re-evaluation happened).
        memo.record(b.clone(), obj(2.0));
        assert_eq!(memo.len(), 2);
        assert!(!memo.contains(&a), "now `a` was the LRU");
        assert_eq!(memo.get(&b), Some(obj(2.0)));
        assert_eq!(memo.get(&c), Some(obj(3.0)));
    }

    #[test]
    fn capped_memo_preserves_cross_run_provenance() {
        let mut memo = GenomeMemo::with_capacity(true, 8);
        memo.begin_run();
        let g = genome(7);
        let obj = Some(ObjectiveVector::from_slice(&[4.0]));
        memo.record(g.clone(), obj);
        memo.begin_run();
        assert_eq!(memo.get_with_provenance(&g), Some((obj, true)));
        assert_eq!(memo.get_with_provenance(&g), Some((obj, false)));
    }

    /// A million-genome synthetic stream through a small cap: occupancy
    /// never exceeds the cap, recently recorded genomes stay resident,
    /// and the memo keeps serving correct outcomes.
    #[test]
    fn million_genome_stream_respects_the_cap() {
        const CAP: usize = 1024;
        let space = DesignSpace::case_study(4);
        let mut rng = StdRng::seed_from_u64(99);
        let mut memo = GenomeMemo::with_capacity(true, CAP);
        let mut last: Option<(Genome, Option<ObjectiveVector>)> = None;
        for i in 0..1_000_000u32 {
            let g = Genome::random(&space, &mut rng);
            let outcome = if i % 3 == 0 {
                None
            } else {
                Some(ObjectiveVector::from_slice(&[f64::from(i), 1.0]))
            };
            memo.record(g.clone(), outcome);
            assert!(memo.len() <= CAP, "occupancy {} exceeded cap {CAP} at step {i}", memo.len());
            if i % 65_536 == 0 {
                // The just-recorded genome is the most recently used:
                // it must still be resident and replay its outcome.
                assert_eq!(memo.get(&g), Some(outcome));
            }
            last = Some((g, outcome));
        }
        assert_eq!(memo.len(), CAP);
        let (g, outcome) = last.expect("stream was non-empty");
        assert_eq!(memo.get(&g), Some(outcome));
    }

    #[test]
    fn sharded_memo_is_transparent_and_counts_hits() {
        let memo = ShardedGenomeMemo::new(8, 64);
        assert_eq!(memo.shard_count(), 8);
        assert!(memo.is_empty());
        let (a, b) = (genome(20), genome(21));
        let obj = Some(ObjectiveVector::from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(memo.get(&a), None);
        memo.record(a.clone(), obj);
        memo.record(b.clone(), None); // infeasibility is cached too
        assert_eq!(memo.get(&a), Some(obj));
        assert_eq!(memo.get(&b), Some(None));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.hits(), 2);
    }

    /// Concurrent recorders over overlapping genome streams: every
    /// recorded genome replays the bitwise outcome of its first
    /// evaluation (outcomes are pure, so all writers agree), occupancy
    /// respects the per-shard caps, and nothing deadlocks.
    #[test]
    fn sharded_memo_survives_concurrent_hammering() {
        const CAP_PER_SHARD: usize = 32;
        const SHARDS: usize = 4;
        let memo = ShardedGenomeMemo::new(SHARDS, CAP_PER_SHARD);
        let space = DesignSpace::case_study(4);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let memo = &memo;
                let space = &space;
                scope.spawn(move || {
                    // All workers draw the same genome stream (same
                    // seed), so the same genomes are recorded and
                    // queried concurrently from every thread.
                    let mut rng = StdRng::seed_from_u64(7 + worker % 2);
                    for _ in 0..2000u64 {
                        let g = Genome::random(space, &mut rng);
                        // Outcome is a pure function of the genome (its
                        // deterministic hash), so every writer agrees.
                        let mut h = std::collections::hash_map::DefaultHasher::new();
                        g.hash(&mut h);
                        let outcome =
                            Some(ObjectiveVector::from_slice(&[(h.finish() % 1024) as f64, 1.0]));
                        if let Some(cached) = memo.get(&g) {
                            // A hit replays the bitwise outcome of the
                            // first record for this genome.
                            assert_eq!(cached, outcome);
                        }
                        memo.record(g, outcome);
                    }
                });
            }
        });
        assert!(memo.len() <= SHARDS * CAP_PER_SHARD, "per-shard caps bound total occupancy");
        assert!(!memo.is_empty());
    }

    #[test]
    fn sharded_memo_shard_assignment_is_deterministic() {
        let memo = ShardedGenomeMemo::new(16, 8);
        let g = genome(33);
        memo.record(g.clone(), None);
        // Re-recording the same genome lands on the same shard: the
        // total count stays 1 (a duplicate across shards would show 2).
        memo.record(g.clone(), None);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get(&g), Some(None));
    }
}
