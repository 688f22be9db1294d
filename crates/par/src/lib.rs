//! Zero-dependency deterministic fork-join parallelism for the DSE/MOEA
//! hot paths.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! this crate provides the minimal fork-join surface the workspace needs:
//!
//! - [`par_map`] — an indexed map over a slice, executed by a scoped
//!   worker pool (`std::thread::scope`) whose workers pull indices from a
//!   shared atomic injector queue. Worker panics propagate to the caller.
//! - [`par_map_stats`] — the same map, additionally reporting a
//!   [`PoolStats`] (items per worker, queue high-water mark) for the
//!   observability layer's non-deterministic journal section.
//! - [`splitmix64`] / [`derive_seed`] — the per-index RNG-stream
//!   derivation that keeps parallel Monte-Carlo replication deterministic.
//! - [`fnv1a64`] — the workspace's one stable byte hash: container and
//!   frame checksums, content-addressed point stamps, A/B assignment.
//! - [`available_threads`] / [`resolve_threads`] — thread-count policy:
//!   the `CLR_THREADS` environment variable, falling back to the
//!   machine's available parallelism.
//!
//! # Determinism contract
//!
//! [`par_map`] returns results **in input order** no matter how indices
//! are scheduled across workers, and callers that consume randomness
//! derive one independent RNG stream per index via [`derive_seed`]
//! instead of sharing a single sequential stream. Together these make
//! every parallel site in the workspace produce bit-identical output for
//! any thread count (including 1); the thread count only changes
//! wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the automatic worker-thread count.
pub const THREADS_ENV: &str = "CLR_THREADS";

/// The automatic worker-thread count: `CLR_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a requested thread count: `0` means "automatic"
/// ([`available_threads`]), any other value is used as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function (Steele,
/// Lea & Flood 2014). Bijective, so distinct inputs give distinct outputs.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a 64-bit hash: the checksum of every sealed container, wire
/// frame and store-log record, and the content address of stored
/// points. Not cryptographic; it guards against truncation and bit rot.
///
/// `#[inline]` because the wire codec checksums every frame in both
/// directions from another crate.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Derives the RNG seed of work item `index` from a campaign-level `seed`.
///
/// Each `(seed, index)` pair maps to a decorrelated 64-bit value, so every
/// item owns an independent RNG stream regardless of which worker thread
/// (or chunk) executes it — the foundation of the workspace's
/// serial≡parallel bit-identity guarantee.
#[must_use]
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Maps `f` over `items` on a scoped worker pool, returning the results
/// in input order.
///
/// `threads` is resolved via [`resolve_threads`] (`0` = automatic) and
/// capped at `items.len()`; with one effective worker the map runs inline
/// with no thread overhead. Workers pull indices from a shared atomic
/// injector queue, so uneven per-item costs balance automatically.
///
/// # Panics
///
/// If `f` panics for any item the panic payload is re-raised on the
/// calling thread (after the scope has joined all workers).
///
/// # Examples
///
/// ```
/// let squares = clr_par::par_map(4, &[1u64, 2, 3, 4, 5], |_, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_stats(threads, items, f).0
}

/// Scheduling statistics of one [`par_map_stats`] fan-out.
///
/// The per-worker split and the queue high-water mark depend on OS
/// scheduling, so these numbers are **non-deterministic** — observability
/// consumers must keep them out of any byte-compared journal section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Work items executed.
    pub items: usize,
    /// Worker threads used (1 for the inline serial path).
    pub workers: usize,
    /// Items executed by each worker.
    pub per_worker: Vec<u64>,
    /// Largest queue backlog (items not yet pulled) observed when a worker
    /// pulled an index. The injector queue is pre-filled, so for a batch of
    /// `n` items this is close to `n`; it becomes informative when
    /// comparing batch sizes across sites.
    pub queue_hwm: usize,
}

impl PoolStats {
    /// Folds `other` into `self`, aggregating stats across multiple
    /// fan-outs of the same site (e.g. one per GA generation): items add,
    /// per-worker tallies add element-wise, worker count and queue
    /// high-water mark take the maximum.
    pub fn merge(&mut self, other: &PoolStats) {
        self.items += other.items;
        self.workers = self.workers.max(other.workers);
        if self.per_worker.len() < other.per_worker.len() {
            self.per_worker.resize(other.per_worker.len(), 0);
        }
        for (acc, &w) in self.per_worker.iter_mut().zip(&other.per_worker) {
            *acc += w;
        }
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
    }
}

/// [`par_map`] that also reports how the work was scheduled.
///
/// Returns the in-input-order results (identical to [`par_map`] — the
/// stats gathering never influences them) together with a [`PoolStats`]
/// describing the fan-out.
pub fn par_map_stats<T, R, F>(threads: usize, items: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        let out = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        let stats = PoolStats {
            items: n,
            workers: 1.min(n),
            per_worker: if n > 0 { vec![n as u64] } else { Vec::new() },
            queue_hwm: n,
        };
        return (out, stats);
    }

    let injector = AtomicUsize::new(0);
    let queue_hwm = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let injector = &injector;
                let queue_hwm = &queue_hwm;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = injector.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        queue_hwm.fetch_max(n - i, Ordering::Relaxed);
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let per_worker: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
    let stats = PoolStats {
        items: n,
        workers,
        per_worker,
        queue_hwm: queue_hwm.load(Ordering::Relaxed),
    };

    // The workspace forbids unsafe code, so instead of writing into raw
    // slots the workers return (index, result) pairs merged here.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    let out = slots
        .into_iter()
        .map(|slot| slot.expect("worker pool visits every index"))
        .collect();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map(4, &[], |_, x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 4, 7] {
            let parallel = par_map(threads, &items, |_, x| x * x + 1);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn closure_receives_matching_index() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(4, &items, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map(64, &[10u32, 20], |_, x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn nested_scopes_compose() {
        let rows: Vec<u64> = (0..8).collect();
        let table = par_map(4, &rows, |_, &r| {
            let cols: Vec<u64> = (0..8).collect();
            par_map(2, &cols, move |_, &c| r * 10 + c)
        });
        for (r, row) in table.iter().enumerate() {
            for (c, &cell) in row.iter().enumerate() {
                assert_eq!(cell, r as u64 * 10 + c as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom at 13")]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..64).collect();
        let _ = par_map(4, &items, |i, _| {
            assert!(i != 13, "boom at 13");
            i
        });
    }

    #[test]
    fn derive_seed_decorrelates_indices() {
        let mut seen = std::collections::HashSet::new();
        for index in 0..10_000u64 {
            assert!(seen.insert(derive_seed(42, index)), "collision at {index}");
        }
        // Different campaign seeds give different streams for the same index.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First output of the published SplitMix64 sequence for state 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn resolve_threads_passes_explicit_values() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn stats_account_for_every_item() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let (out, stats) = par_map_stats(threads, &items, |_, x| x + 1);
            assert_eq!(out, par_map(threads, &items, |_, x| x + 1));
            assert_eq!(stats.items, 100);
            assert_eq!(stats.workers, threads);
            assert_eq!(stats.per_worker.len(), threads);
            assert_eq!(stats.per_worker.iter().sum::<u64>(), 100);
            assert!(stats.queue_hwm <= 100);
            assert!(stats.queue_hwm >= 1);
        }
    }

    #[test]
    fn stats_on_empty_input_are_empty() {
        let (out, stats) = par_map_stats(4, &[], |_, x: &u64| *x);
        assert!(out.is_empty());
        assert_eq!(stats, PoolStats::default());
    }

    #[test]
    fn merge_aggregates_across_fanouts() {
        let mut acc = PoolStats::default();
        acc.merge(&PoolStats {
            items: 10,
            workers: 2,
            per_worker: vec![6, 4],
            queue_hwm: 10,
        });
        acc.merge(&PoolStats {
            items: 8,
            workers: 4,
            per_worker: vec![2, 2, 2, 2],
            queue_hwm: 8,
        });
        assert_eq!(
            acc,
            PoolStats {
                items: 18,
                workers: 4,
                per_worker: vec![8, 6, 2, 2],
                queue_hwm: 10,
            }
        );
    }
}
