//! Minimal data-parallel map over scoped threads.
//!
//! The registry-less build environment has no `rayon`, so this module
//! provides the one primitive batch evaluation needs: map a slice through
//! a `Sync` function on all cores, preserving input order, with one
//! mutable per-worker state (an evaluation scratch) threaded through.
//!
//! Work is handed out in small interleaved blocks from an atomic cursor,
//! so a run of cheap items (e.g. infeasible configurations that fail
//! fast) cannot starve one worker while another drowns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Smallest adaptive work unit: below this, per-block bookkeeping
/// outweighs a model evaluation by orders of magnitude.
const MIN_BLOCK: usize = 16;

/// Largest adaptive work unit: keeps enough blocks in flight to balance
/// heterogeneous costs (infeasible points fail fast).
const MAX_BLOCK: usize = 64;

/// Process-wide scoped thread-budget override (0 = none installed).
/// Set only through [`with_threads`], which restores the previous
/// value on exit, panic included.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker threads to use: the innermost [`with_threads`] override when
/// one is active, else `WBSN_THREADS` when set (≥1), otherwise the
/// machine's available parallelism.
///
/// The environment and the machine are consulted once per process:
/// reading `WBSN_THREADS` allocates and `available_parallelism` reads
/// the cgroup files, together about 18 µs — a cost the batch
/// evaluators and the sweep driver would otherwise pay on every call.
#[must_use]
pub fn num_threads() -> usize {
    static DISCOVERED: OnceLock<usize> = OnceLock::new();
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *DISCOVERED.get_or_init(|| {
        if let Ok(v) = std::env::var("WBSN_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Runs `f` with [`num_threads`] pinned to `threads` (clamped to ≥1),
/// restoring the previous setting afterwards — the mechanism behind
/// the bench harness's thread-scaling sweep, which must measure 1, 2,
/// …, N worker threads in one process without touching the
/// environment. The override is process-global: concurrent callers of
/// [`num_threads`] observe it too, so keep scopes short and don't nest
/// conflicting sweeps.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let prev = THREAD_OVERRIDE.swap(threads.max(1), Ordering::Relaxed);
    let _restore = Restore(prev);
    f()
}

/// Maximal runs of consecutive items sharing a key, as `(start, end)`
/// half-open index ranges covering `items` exactly.
///
/// The batch evaluators chunk *within* these runs so no evaluation
/// chunk ever spans a node-count boundary: each chunk's kernel choice
/// (grouped vs. ungrouped `SoA`) is keyed on its own run, which makes
/// mixed-node-count super-batches dispatch the right kernel per
/// homogeneous stretch instead of keying the whole batch on its first
/// point.
pub fn homogeneous_runs<T, K: PartialEq>(
    items: &[T],
    key: impl Fn(&T) -> K,
) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for i in 1..items.len() {
        if key(&items[i]) != key(&items[i - 1]) {
            runs.push((start, i));
            start = i;
        }
    }
    if start < items.len() {
        runs.push((start, items.len()));
    }
    runs
}

/// Maps `items` through `f` in input order, fanning out across threads.
///
/// `make_state` builds one mutable per-worker state (created lazily, once
/// per worker thread); `f` receives it with every item. Runs serially —
/// no threads spawned — when the batch is small or one core is available,
/// so callers need no special casing.
///
/// The work-unit size adapts to the batch: large batches use big blocks
/// (amortizing the atomic fetch), while a batch of a hundred items
/// still shards into [`MIN_BLOCK`]-item units so every core gets work.
/// On a multi-core host any batch over [`MIN_BLOCK`] items spawns
/// threads, so work of a few microseconds does not belong here: the
/// batch evaluators run their small batches on the calling thread.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_map_with<T, R, S, MS, F>(items: &[T], make_state: MS, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = num_threads();
    // ~4 blocks per worker for load balance, clamped to sane unit sizes.
    let block = items.len().div_ceil(threads.max(1) * 4).clamp(MIN_BLOCK, MAX_BLOCK);
    parallel_map_with_block(items, block, make_state, f)
}

/// [`parallel_map_with`] with an explicit work-unit size. Use `block = 1`
/// when each item is itself a long-running job (e.g. one optimizer
/// restart) so even two items split across two cores.
///
/// # Panics
///
/// Panics if `block` is zero; propagates panics from `f`.
pub fn parallel_map_with_block<T, R, S, MS, F>(
    items: &[T],
    block: usize,
    make_state: MS,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    assert!(block > 0, "work-unit size must be positive");
    map_with_threads(items, block, num_threads(), make_state, f)
}

/// The engine behind [`parallel_map_with_block`] with an explicit thread
/// budget, so the threaded path (and its panic propagation) is testable
/// on single-core hosts.
fn map_with_threads<T, R, S, MS, F>(
    items: &[T],
    block: usize,
    threads: usize,
    make_state: MS,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n.div_ceil(block));
    if threads <= 1 {
        let mut state = make_state();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let worker_outputs: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = make_state();
                    let mut produced = Vec::new();
                    // verify: hot-path-begin(chunk-claim-loop)
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + block).min(n);
                        let mapped = items[start..end].iter().map(|item| f(&mut state, item));
                        // verify: allow(hot-path-alloc, reason = "one result Vec per claimed block (>= MIN_BLOCK items), amortized across the whole block's evaluations")
                        let block: Vec<R> = mapped.collect();
                        // verify: allow(hot-path-alloc, reason = "one bookkeeping push per claimed block, not per item")
                        produced.push((start, block));
                    }
                    // verify: hot-path-end(chunk-claim-loop)
                    produced
                })
            })
            .collect();
        // Join EVERY worker before propagating a panic: a panic payload
        // raised mid-collect would otherwise unwind through the scope
        // while siblings still run, replacing the original payload with
        // a generic join error and racing their per-worker state drops
        // (pooled scratches) against the unwind. Surviving workers keep
        // draining the cursor — their leased states return to the warm
        // pool through the normal drop path — and only then does the
        // first panic payload resurface, unchanged, for the caller.
        let joined: Vec<_> = handles.into_iter().map(std::thread::ScopedJoinHandle::join).collect();
        let mut outputs = Vec::with_capacity(joined.len());
        let mut first_panic = None;
        for result in joined {
            match result {
                Ok(produced) => outputs.push(produced),
                Err(payload) if first_panic.is_none() => first_panic = Some(payload),
                Err(_) => {}
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        outputs
    });

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for produced in worker_outputs {
        for (start, block) in produced {
            for (offset, value) in block.into_iter().enumerate() {
                out[start + offset] = Some(value);
            }
        }
    }
    out.into_iter().map(|v| v.expect("every index covered exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_every_item() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = parallel_map_with(&items, || (), |(), &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn small_batches_run_serially_with_one_state() {
        let items = [1u32, 2, 3];
        // Serial fallback: the single state observes every item.
        let seen = parallel_map_with(&items, Vec::new, |state: &mut Vec<u32>, &x| {
            state.push(x);
            state.len()
        });
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn per_worker_state_is_isolated() {
        let items: Vec<usize> = (0..10_000).collect();
        // Each worker counts locally; the mapping itself must still be
        // correct regardless of how work is split.
        let result = parallel_map_with(
            &items,
            || 0usize,
            |count, &x| {
                *count += 1;
                x + 1
            },
        );
        assert_eq!(result, (1..=10_000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = parallel_map_with(&[] as &[u8], || (), |(), &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        let (inner, nested) = with_threads(3, || (num_threads(), with_threads(2, num_threads)));
        assert_eq!(inner, 3);
        assert_eq!(nested, 2);
        assert_eq!(num_threads(), outer, "the override must not outlive its scope");
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let outer = num_threads();
        let result = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("die inside the override"));
        });
        assert!(result.is_err());
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn homogeneous_runs_split_exactly_at_key_changes() {
        let items = [3, 3, 3, 5, 5, 3, 7];
        assert_eq!(homogeneous_runs(&items, |&x| x), vec![(0, 3), (3, 5), (5, 6), (6, 7)]);
        assert_eq!(homogeneous_runs(&[] as &[i32], |&x| x), Vec::new());
        assert_eq!(homogeneous_runs(&[9], |&x| x), vec![(0, 1)]);
        let uniform = [4u8; 100];
        assert_eq!(homogeneous_runs(&uniform, |&x| x), vec![(0, 100)]);
    }

    /// A panicking closure must surface its own payload (not a generic
    /// join error), and every other item must still have been processed
    /// before the panic propagates — workers are joined first.
    #[test]
    fn panicking_closure_propagates_payload_after_joining_all_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..1000).collect();
        let processed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_with_threads(
                &items,
                16,
                4,
                || (),
                |(), &x| {
                    assert!(x != 500, "deliberate worker panic on item {x}");
                    processed.fetch_add(1, Ordering::Relaxed);
                    x
                },
            )
        }));
        let payload = result.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is the closure's own message");
        assert!(
            message.contains("deliberate worker panic on item 500"),
            "original payload must survive the join: got `{message}`"
        );
        // All workers were joined before propagation: every block except
        // the panicking worker's current one ran to completion. Item 500
        // falls in block [496, 512): 496–499 were processed before the
        // panic, 501–511 abandoned with it, everything else drained by
        // the surviving workers.
        assert_eq!(processed.load(Ordering::Relaxed), items.len() - 12);
    }

    /// Same through the explicit-block entry point (the batch
    /// evaluator's chunk fan-out): the panic from one long job must not
    /// prevent the other jobs from completing.
    #[test]
    fn panicking_block_job_joins_siblings_before_propagating() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..8).collect();
        let processed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_with_threads(
                &items,
                1,
                4,
                || (),
                |(), &x| {
                    assert!(x != 0, "job 0 died");
                    processed.fetch_add(1, Ordering::Relaxed);
                    x
                },
            )
        }));
        assert!(result.is_err());
        assert_eq!(processed.load(Ordering::Relaxed), items.len() - 1);
    }
}
