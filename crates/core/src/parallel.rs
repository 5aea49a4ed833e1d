//! Minimal deterministic fork-join helpers over crossbeam scoped threads.
//!
//! PathMining (hundreds of thousands of independent walks) and the
//! per-query-node PageRanks are embarrassingly parallel; [`map_chunks`]
//! splits an index range into chunks, runs workers over them, and folds
//! the partial results in chunk order — so parallel runs produce
//! byte-identical output across repetitions as long as each chunk
//! derives its randomness from its chunk index.
//!
//! FindNC's per-label discrimination tests are independent too, but
//! their costs are heavy-tailed: one label's test can outweigh all the
//! others together. Contiguous chunks would pin that label and its
//! neighbours to one worker while another idles, so
//! [`map_costliest_first`] has workers pull one item at a time, the
//! costliest first, and returns the results in index order. Which worker
//! runs an item, and when, reaches no result.
//!
//! ## Chunk count vs worker count
//!
//! Two knobs are deliberately decoupled:
//!
//! - **Chunk count** ([`chunk_count`]) is part of the deterministic
//!   execution recipe: randomized workloads seed one RNG per chunk
//!   index, and chunked `f64` folds associate additions per chunk, so
//!   changing the chunk count can change results in the last ulp.
//!   It is derived from the hardware exactly as before and is **not**
//!   affected by the worker-thread cap.
//! - **Worker count** ([`thread_count`]) only decides how many OS
//!   threads execute those chunks. Workers pick up contiguous chunk
//!   runs and results are folded in chunk order regardless, so capping
//!   workers (fewer threads each executing more chunks) is
//!   observationally invisible — a pure performance/footprint knob.
//!
//! The worker cap is process-wide ([`set_thread_cap`]): it is operator
//! configuration (the CLI's `--threads`, `EngineConfig::threads`), never
//! a per-request setting, so one value governs every fork-join site
//! (mining walks, per-seed PageRanks, engine batch groups) end to end.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker-thread cap; 0 means "derive from the machine".
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads any fork-join site spawns.
///
/// `None` (the default) derives the count from
/// [`std::thread::available_parallelism`]; `Some(n)` clamps it to at
/// most `n` (at least 1). The cap is **process-wide** and sticky — it
/// governs every subsequent [`map_chunks`] call on every thread until
/// changed — and it never changes results: chunking (the part of the
/// recipe randomized workloads depend on) is unaffected, only how many
/// OS threads execute the chunks.
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

/// Number of chunks to split `n` work items into: the hardware
/// parallelism, clamped to `[1, min(n, 16)]` so tiny workloads never
/// produce empty chunks and huge machines never over-fragment.
///
/// Deliberately ignores [`set_thread_cap`]: chunk boundaries feed
/// per-chunk RNG seeding and `f64` fold association, so they must not
/// move when the operator tunes thread usage.
///
/// ```
/// use nck_core::parallel::chunk_count;
/// assert_eq!(chunk_count(0), 1);          // no work still gets one chunk
/// assert!(chunk_count(4) <= 4);           // never more chunks than items
/// assert!(chunk_count(usize::MAX) <= 16); // hard ceiling
/// ```
pub fn chunk_count(n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(n.max(1)).min(16)
}

/// Number of worker threads to use for `n` work items: the hardware
/// parallelism, clamped to `[1, min(n, 16)]` — and further capped by
/// [`set_thread_cap`] when one is set.
///
/// ```
/// use nck_core::parallel::thread_count;
/// assert_eq!(thread_count(0), 1);          // no work still gets one worker
/// assert!(thread_count(4) <= 4);           // never more threads than items
/// assert!(thread_count(usize::MAX) <= 16); // hard ceiling
/// ```
pub fn thread_count(n: usize) -> usize {
    let base = chunk_count(n);
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

/// Runs `worker` over each chunk of `0..n` (possibly on threads) and folds
/// the partial results in chunk order.
///
/// `worker(chunk_index, range)` must be pure up to its arguments for
/// repeated runs to agree. The chunking is fixed by [`chunk_count`];
/// the number of OS threads executing the chunks is [`thread_count`]
/// (i.e. capped by [`set_thread_cap`]), each thread running a
/// contiguous run of chunks — so the fold sees the identical chunk
/// sequence whatever the cap.
pub fn map_chunks<T, W, F, A>(n: usize, parallel: bool, worker: W, init: A, fold: F) -> A
where
    T: Send,
    W: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    let chunks = split_range(n, if parallel { chunk_count(n) } else { 1 });
    let workers = if parallel {
        thread_count(chunks.len())
    } else {
        1
    };
    let mut fold = fold;
    if chunks.len() == 1 || workers == 1 {
        // One worker executes every chunk inline, in chunk order.
        return chunks
            .into_iter()
            .enumerate()
            .fold(init, |acc, (i, range)| fold(acc, worker(i, range)));
    }
    // Assign each worker thread a contiguous run of chunks; gathering
    // per-worker vectors in spawn order yields the chunks in index
    // order, so the fold is identical to the inline path's.
    let runs = split_range(chunks.len(), workers);
    let results: Vec<Vec<T>> = crossbeam::thread::scope(|s| {
        let chunks = &chunks;
        let handles: Vec<_> = runs
            .into_iter()
            .map(|run| {
                let worker = &worker;
                s.spawn(move |_| {
                    run.map(|i| worker(i, chunks[i].clone()))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
    .expect("crossbeam scope failed");
    results.into_iter().flatten().fold(init, fold)
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
    let runs: Vec<Vec<(usize, T)>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(|_| pull())).collect();
        let mut runs = vec![pull()];
        runs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked")),
        );
        runs
    })
    .expect("crossbeam scope failed");
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

    /// The worker cap must not move chunk boundaries — chunk-indexed
    /// RNG seeding depends on them — and capped execution must fold the
    /// same chunk sequence in the same order.
    ///
    /// Runs every capped call inside one test so the process-wide cap
    /// never races the other tests in this binary (the cap cannot
    /// change *results* by design, but this test also asserts worker
    /// counts, which the cap does change).
    #[test]
    fn worker_cap_is_observationally_invisible() {
        let n = 4_096usize;
        let worker = |i: usize, r: std::ops::Range<usize>| -> (usize, u64) {
            // Chunk-seeded pseudo-randomness: sensitive to chunk count
            // and order, exactly like PathMining's per-chunk RNG.
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (i as u64);
            for x in r {
                h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(x as u64);
            }
            (i, h)
        };
        let fold = |mut acc: Vec<(usize, u64)>, part| {
            acc.push(part);
            acc
        };
        assert_eq!(thread_cap(), None, "cap starts unset");
        let uncapped = map_chunks(n, true, worker, Vec::new(), fold);
        for cap in [1usize, 2, 3] {
            set_thread_cap(Some(cap));
            assert_eq!(thread_cap(), Some(cap));
            assert!(thread_count(n) <= cap, "cap must bound workers");
            assert_eq!(
                chunk_count(n),
                uncapped.len(),
                "cap must not change chunking"
            );
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
