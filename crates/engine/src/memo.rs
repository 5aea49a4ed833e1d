//! [`Memo`] — one engine cache and its single-flight behind one
//! get-or-compute call.
//!
//! Each of the engine's three layers (results, contexts, PPR vectors)
//! answers a request the same way: a counted lookup in its
//! [`ShardedLru`]; on a miss, [`SingleFlight`], so concurrent misses on
//! one key compute once; inside the flight an uncounted peek, because a
//! previous leader may have inserted the value between the miss and the
//! flight's start; then the computation and its insert.
//! [`Memo::get_or_compute`] is the only code that runs that sequence,
//! which keeps every hit/miss counter true: each call counts exactly one
//! hit or one miss, and neither a coalesced waiter nor a late peek
//! counts again.
//!
//! A `Memo` takes no lock of its own: its cache stripes and flight
//! slots keep their own lock classes.

use crate::cache::{CacheStats, ShardedLru};
use crate::flight::SingleFlight;
use std::hash::Hash;

/// An exact cache with single-flight misses. See the [module
/// docs](self).
pub(crate) struct Memo<K, V> {
    cache: ShardedLru<K, V>,
    flight: SingleFlight<K, V>,
    /// What one value is charged against the cache's byte budget.
    cost: fn(&V) -> usize,
}

impl<K: Clone + Eq + Hash, V: Clone> Memo<K, V> {
    /// A memo over `cache`, charging each value `cost(value)` bytes.
    pub(crate) fn new(cache: ShardedLru<K, V>, cost: fn(&V) -> usize) -> Self {
        Self {
            cache,
            flight: SingleFlight::new(),
            cost,
        }
    }

    /// The value under `key`: a cache hit, another caller's in-flight
    /// value, or `compute`'s, which is cached before it is returned. A
    /// failing `compute` caches nothing, and its error reaches only this
    /// caller (waiters retry; see [`crate::flight`]).
    ///
    /// A hit clones no key and allocates nothing.
    pub(crate) fn get_or_compute<E>(
        &self,
        key: &K,
        mut compute: impl FnMut() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        self.flight.execute(key.clone(), || {
            // Uncounted: the miss above was already counted.
            if let Some(hit) = self.cache.peek(key) {
                return Ok(hit);
            }
            let value = compute()?;
            self.cache
                .insert_with_cost(key.clone(), value.clone(), (self.cost)(&value));
            Ok(value)
        })
    }

    /// The cache's counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Calls answered with another caller's in-flight value.
    pub(crate) fn coalesced(&self) -> u64 {
        self.flight.coalesced()
    }

    /// Drops every cached value and restarts the cache's counters.
    pub(crate) fn clear(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn unit(_: &u64) -> usize {
        1
    }

    #[test]
    fn sequential_calls_compute_once() {
        let memo: Memo<u32, u64> = Memo::new(ShardedLru::new(2, 8), unit);
        let computed = AtomicUsize::new(0);
        for _ in 0..2 {
            let v: Result<u64, ()> = memo.get_or_compute(&7, || {
                computed.fetch_add(1, Ordering::Relaxed);
                Ok(42)
            });
            assert_eq!(v, Ok(42));
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(memo.coalesced(), 0);
    }

    #[test]
    fn a_failing_compute_caches_nothing() {
        let memo: Memo<u32, u64> = Memo::new(ShardedLru::new(2, 8), unit);
        assert_eq!(memo.get_or_compute(&1, || Err("boom")), Err("boom"));
        assert_eq!(memo.stats().len, 0);
        let computed = AtomicUsize::new(0);
        let v: Result<u64, &str> = memo.get_or_compute(&1, || {
            computed.fetch_add(1, Ordering::Relaxed);
            Ok(5)
        });
        assert_eq!(v, Ok(5));
        assert_eq!(computed.load(Ordering::Relaxed), 1, "computed again");
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 2, 1));
    }

    #[test]
    fn values_are_charged_their_cost() {
        let memo: Memo<u32, Vec<u8>> =
            Memo::new(ShardedLru::with_max_bytes(1, 8, 100), |v| v.len());
        let v: Result<Vec<u8>, ()> = memo.get_or_compute(&1, || Ok(vec![0; 30]));
        assert_eq!(v.map(|v| v.len()), Ok(30));
        let _: Result<Vec<u8>, ()> = memo.get_or_compute(&2, || Ok(vec![0; 12]));
        assert_eq!(memo.stats().bytes, 42);
    }

    #[test]
    fn concurrent_callers_of_one_cold_key_compute_once() {
        const THREADS: usize = 8;
        let memo: Memo<u32, u64> = Memo::new(ShardedLru::new(2, 8), unit);
        let computed = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    barrier.wait();
                    let v: Result<u64, ()> = memo.get_or_compute(&3, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Hold the flight open so the others pile up.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(99)
                    });
                    assert_eq!(v, Ok(99));
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let s = memo.stats();
        assert_eq!(s.hits + s.misses, THREADS as u64, "one lookup per call");
        assert!(s.hits + memo.coalesced() < THREADS as u64, "one leader");
    }
}
