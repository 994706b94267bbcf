//! # camsoc-par
//!
//! Dependency-free parallel execution layer for the EDA hot paths.
//!
//! The repo's core invariant is *bit-for-bit determinism*: every flow
//! stage is reproducible from its seed. This crate provides chunked
//! data-parallel dispatch over [`std::thread::scope`] whose results are
//! **merged in input order**, so a computation whose per-item work is
//! independent of evaluation order produces identical output under
//! `Parallelism::Serial` and `Parallelism::Threads(n)` for every `n`.
//!
//! Scheduling is work-stealing-style: the input is split into more
//! chunks than workers and each worker claims the next unclaimed chunk
//! from a shared atomic counter, so an unlucky worker stuck with a slow
//! chunk (a deep fault cone, a congested SA chain) does not idle the
//! rest. Which worker computes which chunk is nondeterministic; the
//! merged result never is.
//!
//! No `rayon`: the workspace builds with no external dependencies (see
//! `DESIGN.md` §4), and scoped threads borrow the netlist directly
//! without `Arc`.
//!
//! # Example
//!
//! ```
//! use camsoc_par::{map_range, Parallelism};
//!
//! // same inputs, same outputs — regardless of the thread count
//! let serial = map_range(Parallelism::Serial, 1_000, |i| i * i);
//! let threaded = map_range(Parallelism::Threads(4), 1_000, |i| i * i);
//! assert_eq!(serial, threaded);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How much hardware parallelism a kernel may use.
///
/// Every parallelized call site keeps a serial path: `Serial` (the
/// default everywhere) runs the exact historical single-threaded code
/// path with zero thread overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded, in the calling thread.
    #[default]
    Serial,
    /// Up to `n` worker threads (`0` and `1` behave like `Serial`).
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The worker-thread count this setting resolves to (≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// True when no worker threads would be spawned.
    pub fn is_serial(self) -> bool {
        self.threads() <= 1
    }
}

/// Minimum items per chunk: below this, per-chunk bookkeeping dominates.
const MIN_CHUNK: usize = 1;
/// Chunks per worker: oversubscription for load balance.
const CHUNKS_PER_WORKER: usize = 8;

/// Map `f` over `0..n`, returning results in index order.
///
/// `f` must be a pure function of its index (and captured shared state)
/// for the determinism guarantee to hold; the scheduler only controls
/// *when* each index is evaluated, never what it evaluates to.
pub fn map_range<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_range_with(par, n, || (), |(), i| f(i))
}

/// Map `f` over `0..n` with per-worker scratch state, returning results
/// in index order.
///
/// `init` builds one scratch value per worker (exactly one for the
/// serial path), handed to every `f` call that worker makes. This is the
/// allocation-hoisting primitive for kernels whose per-item work wants
/// reusable buffers: the scratch is created once per worker, not once
/// per item. `f`'s *result* must not depend on the scratch's history —
/// which items previously used a given scratch is a scheduling accident
/// — or the input-order determinism guarantee is void; counters and
/// epoch-stamped overlays are fine, carried values are not.
///
/// # Panics
///
/// If `init` or `f` panics, so does the call, with that panic's payload,
/// once every worker has stopped.
pub fn map_range_with<S, R, I, F>(par: Parallelism, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = par.threads().min(n);
    if workers <= 1 || n <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let chunk = (n / (workers * CHUNKS_PER_WORKER)).max(MIN_CHUNK);
    let nchunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(nchunks));
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = init();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let start = c * chunk;
                        let end = (start + chunk).min(n);
                        let out: Vec<R> = (start..end).map(|i| f(&mut scratch, i)).collect();
                        done.lock().expect("no poisoned worker").push((c, out));
                    }
                })
            })
            .collect();
        // Join every worker here: the scope alone returns once the
        // closures finish, before their OS threads exit and hand their
        // malloc arenas back, so the next call's workers could create
        // fresh arenas. A worker's panic reaches the caller with its
        // own payload.
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let mut parts = done.into_inner().expect("scope joined all workers");
    parts.sort_unstable_by_key(|&(c, _)| c);
    debug_assert_eq!(parts.len(), nchunks);
    parts.into_iter().flat_map(|(_, out)| out).collect()
}

/// Map `f` over a slice with per-worker scratch state, in input order.
///
/// See [`map_range_with`] for the scratch contract.
pub fn map_with<T, S, R, I, F>(par: Parallelism, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    map_range_with(par, items.len(), init, |scratch, i| f(scratch, &items[i]))
}

/// Map `f` over a slice, returning results in input order.
pub fn map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_range(par, items.len(), |i| f(&items[i]))
}

/// Map `f` over `(index, item)` pairs of a slice, in input order.
pub fn map_indexed<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_range(par, items.len(), |i| f(i, &items[i]))
}

/// Find the first index in `0..n` (lowest index, not first found) whose
/// `f` returns `Some`, evaluating blocks of indices in parallel.
///
/// Mirrors a serial `(0..n).find_map(f)` bit-for-bit: the winner is
/// always the lowest matching index, and evaluation stops after the
/// block containing it, so later (potentially expensive) indices are
/// skipped just like a serial early exit — only at block granularity.
pub fn find_first<R, F>(par: Parallelism, n: usize, f: F) -> Option<(usize, R)>
where
    R: Send,
    F: Fn(usize) -> Option<R> + Sync,
{
    let workers = par.threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).find_map(|i| f(i).map(|r| (i, r)));
    }
    // Blocks sized to keep all workers busy while bounding the overshoot
    // past an early hit.
    let block = (workers * CHUNKS_PER_WORKER).max(1);
    let mut start = 0usize;
    while start < n {
        let end = (start + block).min(n);
        let hits = map_range(par, end - start, |k| f(start + k));
        if let Some((k, r)) = hits
            .into_iter()
            .enumerate()
            .find_map(|(k, h)| h.map(|r| (k, r)))
        {
            return Some((start + k, r));
        }
        start = end;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert_eq!(Parallelism::Threads(4).threads(), 4);
        assert!(Parallelism::Auto.threads() >= 1);
        assert!(Parallelism::Serial.is_serial());
        assert!(Parallelism::Threads(1).is_serial());
        assert!(!Parallelism::Threads(2).is_serial());
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }

    #[test]
    fn map_range_matches_serial_in_order() {
        let serial = map_range(Parallelism::Serial, 1000, |i| i * 3 + 1);
        for threads in [2, 3, 4, 7] {
            let par = map_range(Parallelism::Threads(threads), 1000, |i| i * 3 + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_and_map_indexed_preserve_order() {
        let items: Vec<u64> = (0..257).map(|i| i * i).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x + 7).collect();
        assert_eq!(map(Parallelism::Threads(4), &items, |&x| x + 7), expect);
        let idx: Vec<usize> = map_indexed(Parallelism::Threads(3), &items, |i, _| i);
        assert_eq!(idx, (0..items.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(map_range(Parallelism::Threads(8), 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_range(Parallelism::Threads(8), 1, |i| i), vec![0]);
        assert_eq!(map(Parallelism::Auto, &[] as &[u8], |&b| b), Vec::<u8>::new());
    }

    #[test]
    fn more_threads_than_items() {
        let out = map_range(Parallelism::Threads(64), 5, |i| i + 10);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // chunk boundaries at many sizes, with work skewed so late chunks
        // finish first under real threads
        for n in [63, 64, 65, 129, 1023] {
            let serial: Vec<usize> = (0..n).collect();
            let out = map_range(Parallelism::Threads(4), n, |i| {
                if i < 8 {
                    std::hint::black_box((0..2000).sum::<usize>());
                }
                i
            });
            assert_eq!(out, serial, "n = {n}");
        }
    }

    #[test]
    fn map_with_reuses_scratch_per_worker() {
        use std::sync::atomic::AtomicUsize;
        // scratch creations are counted: serial must build exactly one,
        // threaded at most one per worker — never one per item
        for (par, max_scratches) in
            [(Parallelism::Serial, 1), (Parallelism::Threads(3), 3)]
        {
            let created = AtomicUsize::new(0);
            let items: Vec<u64> = (0..400).collect();
            let out = map_with(
                par,
                &items,
                || {
                    created.fetch_add(1, Ordering::Relaxed);
                    vec![0u64; 16] // a reusable buffer
                },
                |buf, &x| {
                    buf[(x % 16) as usize] = x;
                    x * 2
                },
            );
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
            let n = created.load(Ordering::Relaxed);
            assert!(
                (1..=max_scratches).contains(&n),
                "{n} scratches for {par:?}"
            );
        }
    }

    #[test]
    fn map_range_with_matches_serial_in_order() {
        let serial = map_range_with(Parallelism::Serial, 777, || 0u8, |_, i| i * 5);
        for threads in [2, 4, 7] {
            let par =
                map_range_with(Parallelism::Threads(threads), 777, || 0u8, |_, i| i * 5);
            assert_eq!(par, serial, "threads = {threads}");
        }
        assert_eq!(
            map_range_with(Parallelism::Threads(4), 0, || 0u8, |_, i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        for threads in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                map_range(Parallelism::Threads(threads), 16, |i| {
                    if i == 11 {
                        std::panic::panic_any(format!("item {i} failed"));
                    }
                    i
                })
            });
            let payload = caught.expect_err("the caller must panic");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 11 failed"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn find_first_returns_lowest_match() {
        for threads in [1, 2, 4] {
            let par = Parallelism::Threads(threads);
            let hit = find_first(par, 500, |i| if i % 97 == 41 { Some(i * 2) } else { None });
            assert_eq!(hit, Some((41, 82)), "threads = {threads}");
            let none = find_first(par, 500, |_| Option::<()>::None);
            assert_eq!(none, None);
            let zero = find_first(par, 0, Some);
            assert_eq!(zero, None);
        }
    }
}
