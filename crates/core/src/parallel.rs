//! Minimal deterministic fork-join helpers.
//!
//! PathMining (hundreds of thousands of independent walks) and the
//! per-query-node PageRanks are embarrassingly parallel; [`map_chunks`]
//! splits an index range into one contiguous range per worker, runs the
//! workers, and folds their results in range order.
//!
//! FindNC's per-label discrimination tests are independent too, but
//! their costs are heavy-tailed: one label's test can outweigh all the
//! others together. Contiguous chunks would pin that label and its
//! neighbours to one worker while another idles, so
//! [`map_costliest_first`] has workers pull one item at a time, the
//! costliest first, and returns the results in index order. The
//! engine's batches take the same helper with one flat cost, so workers
//! pull a batch's distinct requests in first-occurrence order. Which
//! worker runs an item, and when, reaches no result.
//!
//! ## The split reaches no result
//!
//! How `0..n` is split follows the host and the worker cap, so a
//! caller's fold must give the same result however `0..n` is split.
//! Every caller's does:
//!
//! - PathMining seeds each walk from `(seed, walk index)` alone and sums
//!   integer counts;
//! - `RandomWalkSelector` sums its per-seed vectors in seed order;
//! - the engine places each batch answer at its request's positions;
//! - `perfbench`'s label fan-out collects its results per label.
//!
//! The worker cap is process-wide ([`set_thread_cap`]): it is operator
//! configuration (the CLI's `--threads`, `EngineConfig::threads`), never
//! a per-request setting, so one value governs every fork-join site
//! (mining walks, per-seed PageRanks, engine batches) end to end.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker-thread cap; 0 means "derive from the machine".
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads any fork-join site spawns.
///
/// `None` (the default) derives the count from
/// [`std::thread::available_parallelism`]; `Some(n)` clamps it to at
/// most `n` (at least 1). The cap is **process-wide** and sticky — it
/// governs every subsequent [`map_chunks`] and [`map_costliest_first`]
/// call on every thread until changed — and it never changes results
/// (see the [module docs](self)); `Some(1)` runs every site on the
/// calling thread.
pub fn set_thread_cap(cap: Option<usize>) {
    THREAD_CAP.store(
        cap.unwrap_or(0).max(usize::from(cap.is_some())),
        Ordering::Relaxed,
    );
}

/// The current process-wide worker cap (`None` = machine-derived).
pub fn thread_cap() -> Option<usize> {
    match THREAD_CAP.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Number of worker threads to use for `n` work items: the hardware
/// parallelism, clamped to `[1, min(n, 16)]` so tiny workloads never
/// get empty ranges and huge machines never over-fragment — and further
/// capped by [`set_thread_cap`] when one is set.
///
/// ```
/// use nck_core::parallel::thread_count;
/// assert_eq!(thread_count(0), 1);          // no work still gets one worker
/// assert!(thread_count(4) <= 4);           // never more threads than items
/// assert!(thread_count(usize::MAX) <= 16); // hard ceiling
/// ```
pub fn thread_count(n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let base = hw.min(n.max(1)).min(16);
    match thread_cap() {
        Some(cap) => base.min(cap),
        None => base,
    }
}

/// Splits `0..n` into `chunks` half-open ranges of near-equal size (the
/// first `n % chunks` ranges are one longer). `chunks` is clamped to
/// `[1, max(n, 1)]`, so asking for more chunks than items degrades to
/// one item per chunk and `n = 0` yields a single empty range.
///
/// ```
/// use nck_core::parallel::split_range;
/// assert_eq!(split_range(7, 3), vec![0..3, 3..5, 5..7]);
/// assert_eq!(split_range(0, 4), vec![0..0]);
/// assert_eq!(split_range(2, 8).len(), 2); // clamped to n
/// ```
pub fn split_range(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.clamp(1, n.max(1));
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..n` into [`thread_count`]`(n)` ranges (one range when
/// `parallel` is false), runs `worker(range_index, range)` for each —
/// one thread per range, or the calling thread alone for one range —
/// and folds the results in range order.
///
/// The number of ranges follows the host and the worker cap, so callers
/// must fold to the same result under any split of `0..n` (see the
/// [module docs](self)).
pub fn map_chunks<T, W, F, A>(n: usize, parallel: bool, worker: W, init: A, mut fold: F) -> A
where
    T: Send,
    W: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    let ranges = split_range(n, if parallel { thread_count(n) } else { 1 });
    if let [range] = &ranges[..] {
        return fold(init, worker(0, range.clone()));
    }
    let results: Vec<T> = std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, range)| s.spawn(move || worker(i, range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    results.into_iter().fold(init, fold)
}

/// Runs `worker(i)` for every `i` in `0..n` on up to [`thread_count`]
/// threads (the calling thread is one of them) and returns the results
/// in index order.
///
/// Workers pull one item at a time from a shared cursor over the items
/// sorted by descending `cost(i)`, ties by ascending index: the
/// costliest item starts first, and the cheap tail fills in around it
/// on whichever worker frees up. `cost` only orders the work. Results
/// are placed by index, so they — and `worker`'s calls, if it is pure up
/// to its argument — are the same under any cost model or worker cap.
///
/// ```
/// use nck_core::parallel::map_costliest_first;
/// let squares = map_costliest_first(5, |i| [1, 9, 4, 9, 0][i], |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map_costliest_first<T, C, W>(n: usize, cost: C, worker: W) -> Vec<T>
where
    T: Send,
    C: Fn(usize) -> u64,
    W: Fn(usize) -> T + Sync,
{
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_cached_key(|&i| (std::cmp::Reverse(cost(i)), i));
    // `Relaxed` suffices: the cursor only hands out positions (each one
    // exactly once, as `fetch_add` is atomic); results travel through
    // the joins.
    let cursor = AtomicUsize::new(0);
    let pull = || {
        let mut done = Vec::new();
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, worker(i)));
        }
        done
    };
    let helpers = thread_count(n) - 1;
    let runs: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(pull)).collect();
        let mut runs = vec![pull()];
        runs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked")),
        );
        runs
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, result) in runs.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item runs exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_range_without_overlap() {
        for n in [0usize, 1, 7, 100, 101] {
            for chunks in [1usize, 2, 3, 8] {
                let ranges = split_range(n, chunks);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} chunks={chunks}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let n = 10_000usize;
        let worker =
            |_i: usize, r: std::ops::Range<usize>| -> u64 { r.map(|x| x as u64 * 3 + 1).sum() };
        let seq = map_chunks(n, false, worker, 0u64, |a, b| a + b);
        let par = map_chunks(n, true, worker, 0u64, |a, b| a + b);
        assert_eq!(seq, par);
    }

    #[test]
    fn chunk_order_is_preserved_in_fold() {
        let n = 50usize;
        let worker = |i: usize, _r: std::ops::Range<usize>| i;
        let order = map_chunks(n, true, worker, Vec::new(), |mut acc, i| {
            acc.push(i);
            acc
        });
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn thread_count_bounded() {
        assert_eq!(thread_count(0), 1);
        assert!(thread_count(1_000_000) <= 16);
        assert!(thread_count(2) <= 2);
        assert!(thread_count(1) == 1);
    }

    /// Capping workers bounds the thread count and reaches no result
    /// of a fold that does not depend on the split.
    ///
    /// Runs every capped call inside one test so the process-wide cap
    /// never races the other tests in this binary (the cap cannot
    /// change *results* by design, but this test also asserts worker
    /// counts, which the cap does change).
    #[test]
    fn worker_cap_is_observationally_invisible() {
        let n = 4_096usize;
        let worker = |_i: usize, r: std::ops::Range<usize>| -> Vec<u64> {
            // One hash per item, keyed by the item alone, like
            // PathMining's per-walk streams.
            r.map(|x| (x as u64 ^ 0xcbf2_9ce4_8422_2325).wrapping_mul(0x100_0000_01b3))
                .collect()
        };
        let fold = |mut acc: Vec<u64>, part: Vec<u64>| {
            acc.extend(part);
            acc
        };
        let ranges = || map_chunks(n, true, |_, _| 1usize, 0, |a, b| a + b);
        assert_eq!(thread_cap(), None, "cap starts unset");
        let uncapped = map_chunks(n, true, worker, Vec::new(), fold);
        assert_eq!(uncapped, map_chunks(n, false, worker, Vec::new(), fold));
        for cap in [1usize, 2, 3] {
            set_thread_cap(Some(cap));
            assert_eq!(thread_cap(), Some(cap));
            assert!(thread_count(n) <= cap, "cap must bound workers");
            assert_eq!(ranges(), thread_count(n), "one range per worker");
            let capped = map_chunks(n, true, worker, Vec::new(), fold);
            assert_eq!(capped, uncapped, "cap={cap} must be invisible");
        }
        for cap in [Some(1), Some(2), Some(16), None] {
            set_thread_cap(cap);
            check_costliest_first(cap);
        }
        set_thread_cap(Some(0)); // 0 is clamped to 1, not "unset"
        assert_eq!(thread_cap(), Some(1));
        set_thread_cap(None);
        assert_eq!(thread_cap(), None);
        assert_eq!(map_chunks(n, true, worker, Vec::new(), fold), uncapped);
    }

    /// [`map_costliest_first`] under the current cap: every item runs
    /// once and results come back in index order; one worker starts the
    /// items in descending cost, ties by index.
    fn check_costliest_first(cap: Option<usize>) {
        let n = 40usize;
        let cost = |i: usize| (i as u64 * 7919) % 13;
        let started = AtomicUsize::new(0);
        let out = map_costliest_first(n, cost, |i| (i, started.fetch_add(1, Ordering::Relaxed)));
        assert!(
            out.iter().enumerate().all(|(i, &(j, _))| i == j),
            "cap {cap:?}"
        );
        let mut by_start: Vec<(usize, usize)> = out.iter().map(|&(i, s)| (s, i)).collect();
        by_start.sort_unstable();
        assert!(
            by_start.iter().enumerate().all(|(s, &(t, _))| s == t),
            "each item once"
        );
        if cap == Some(1) {
            let mut by_cost: Vec<usize> = (0..n).collect();
            by_cost.sort_by_key(|&i| (std::cmp::Reverse(cost(i)), i));
            let started: Vec<usize> = by_start.iter().map(|&(_, i)| i).collect();
            assert_eq!(started, by_cost, "one worker runs the costliest first");
        }
        assert!(map_costliest_first(0, |_| 0, |i| i).is_empty());
    }

    #[test]
    fn split_of_zero_items_is_one_empty_range() {
        for chunks in [1usize, 2, 16] {
            assert_eq!(split_range(0, chunks), vec![0..0]);
        }
    }

    #[test]
    fn fewer_items_than_chunks_clamps_to_singletons() {
        let ranges = split_range(3, 8);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn uneven_split_puts_extras_first() {
        // 10 items over 4 chunks: 3, 3, 2, 2.
        assert_eq!(split_range(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        // 5 over 3: 2, 2, 1.
        assert_eq!(split_range(5, 3), vec![0..2, 2..4, 4..5]);
        // Chunk sizes never differ by more than one.
        for n in [11usize, 29, 97] {
            for chunks in [2usize, 3, 5, 7] {
                let lens: Vec<usize> = split_range(n, chunks).iter().map(|r| r.len()).collect();
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} chunks={chunks}: {lens:?}");
            }
        }
    }

    #[test]
    fn map_chunks_on_empty_input_folds_once() {
        let calls = map_chunks(0, true, |_i, r| r.len(), 0usize, |a, b| a + b);
        assert_eq!(calls, 0);
    }
}
