//! Persistent deterministic worker pool for independent work items.
//!
//! Each work item (a "build scenario, run scheduler" job in experiment
//! sweeps, or a shard proposal in the auction service) is independent:
//! no shared mutable state, so data-race freedom by construction. Work is
//! pulled from an atomic claim counter so uneven item costs (Titan's
//! MILPs vs. EFT's greedy) balance automatically.
//!
//! Unlike the first scoped-spawn version, workers are **long-lived**:
//! the first parallel batch spins up a process-global pool and every
//! later batch is dispatched to the already-parked threads through a
//! queue, removing the per-batch thread spawn/join cost from the epoch
//! hot path. Three properties carry over from the scoped design and are
//! load-bearing for the repo's determinism contracts:
//!
//! * **Order preservation** — results land in per-index slots, so the
//!   output is a pure function of the input regardless of worker count
//!   or interleaving.
//! * **Caller-runs submission** — the submitting thread always works on
//!   its own batch alongside the pool. Nested submission (a work item
//!   that itself calls [`parallel_map`]) therefore cannot deadlock even
//!   when every pool thread is busy: the submitter drains its own batch
//!   unaided in the worst case.
//! * **Panic containment** — a panicking work item is caught at the
//!   item boundary and surfaced as a [`PoolPanic`] from
//!   [`try_parallel_map`] (lowest panicking index wins, so the report
//!   is deterministic). The pool threads never unwind, never poison,
//!   and keep serving later batches.
//!
//! Worker-count semantics are unchanged: `PDFTSP_THREADS`, the
//! programmatic [`set_thread_override`], and
//! [`effective_workers`]`(items) = min(items, configured_threads())`.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Sentinel for "no programmatic override installed".
const UNSET: usize = usize::MAX;

/// Programmatic thread override ([`set_thread_override`]); beats the
/// `PDFTSP_THREADS` environment variable when both are present.
static EXPLICIT: AtomicUsize = AtomicUsize::new(UNSET);

/// `PDFTSP_THREADS` parsed once per process (clamped to ≥ 1).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PDFTSP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    })
}

/// The host's hardware parallelism (what `available_parallelism` reports;
/// 4 when the platform cannot say).
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Installs (or with `None` removes) a process-wide worker-thread
/// override, taking precedence over `PDFTSP_THREADS`. Benchmarks and
/// tests use this to sweep worker counts.
pub fn set_thread_override(threads: Option<usize>) {
    EXPLICIT.store(threads.map_or(UNSET, |n| n.max(1)), Ordering::Relaxed);
}

/// The active override, if any: programmatic first, then `PDFTSP_THREADS`.
#[must_use]
pub fn thread_override() -> Option<usize> {
    match EXPLICIT.load(Ordering::Relaxed) {
        UNSET => env_threads(),
        n => Some(n),
    }
}

/// Worker threads parallel paths should use: the override when installed,
/// otherwise the hardware's parallelism.
#[must_use]
pub fn configured_threads() -> usize {
    thread_override().unwrap_or_else(hardware_threads)
}

/// How many workers [`parallel_map`] will actually use for a batch of
/// `items` work items: `min(items, configured_threads)`. Exposed so
/// benchmark emitters can report the real thread count used by the
/// parallel paths instead of guessing.
#[must_use]
pub fn effective_workers(items: usize) -> usize {
    configured_threads().min(items)
}

/// A work item panicked inside a parallel batch. The pool catches the
/// unwind at the item boundary, so the process (and the pool threads)
/// survive; the lowest panicking index is reported for determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPanic {
    /// Index of the lowest-numbered item whose closure panicked.
    pub index: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PoolPanic {}

/// Snapshot of the process-global pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Long-lived pool threads currently alive (grows on demand, never
    /// shrinks; the submitting thread is not counted).
    pub workers: usize,
    /// Work items executed across all batches since process start.
    pub tasks: u64,
    /// Batches dispatched since process start.
    pub batches: u64,
    /// Always 0: the pool runs batches only. Kept only because the
    /// `benchmark/` package reads it; it goes with the next change to
    /// that package.
    pub jobs: u64,
    /// Cumulative nanoseconds pool threads spent parked waiting for
    /// work (idle time, not contention).
    pub park_ns: u64,
}

/// Lock acquisition that shrugs off poisoning: work items never unwind
/// through pool internals (panics are caught at the item boundary), and
/// the guarded state stays consistent even if a test thread died while
/// holding an unrelated guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One submitted batch: a lifetime-erased runner plus claim/completion
/// counters. Queued as `Arc<Batch>` tokens — one token per helper the
/// submitter wants — so several pool threads can join the same batch.
///
/// # Safety protocol for `run`
///
/// `run` points at a stack closure owned by the submitting thread. The
/// pointer is only dereferenced for claimed indices `i < len`, and the
/// submitter blocks in [`Batch::wait_done`] until `done == len`, which
/// can only happen after every claimed item finished executing. A
/// worker holding a stale token (queued token outliving the batch)
/// observes `next >= len` and returns without touching `run`. Hence
/// `run` is never dereferenced after the submitter resumes, and the
/// closure (with everything it borrows) outlives every dereference.
/// The runner must not unwind — callers wrap the work in
/// `catch_unwind` at the item boundary.
struct Batch {
    run: *const (dyn Fn(usize) + Sync),
    len: usize,
    /// Next unclaimed item index.
    next: AtomicUsize,
    /// Completed item count; `done == len` releases the submitter.
    done: AtomicUsize,
    finished: Mutex<bool>,
    fin_cv: Condvar,
}

// SAFETY: `run` is `Sync` (shared-call safe) and the protocol above
// guarantees it is live for every dereference; all other fields are
// plain sync primitives.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claim and execute items until the batch is exhausted. The thread
    /// that completes the final item flips `finished` and wakes the
    /// submitter.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // SAFETY: `i < len`, so per the protocol documented on
            // `Batch` the closure is still live; it does not unwind.
            unsafe { (*self.run)(i) };
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.len {
                *lock(&self.finished) = true;
                self.fin_cv.notify_all();
            }
        }
    }

    /// Blocks until every item has finished executing.
    fn wait_done(&self) {
        let mut fin = lock(&self.finished);
        while !*fin {
            fin = self
                .fin_cv
                .wait(fin)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The process-global pool: a queue of batch tokens, a wake signal, and
/// lifetime counters. Threads are spawned lazily up to the demand of
/// the largest batch seen so far and then parked between batches.
struct Pool {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_cv: Condvar,
    workers: AtomicUsize,
    tasks: AtomicU64,
    batches: AtomicU64,
    park_ns: AtomicU64,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work_cv: Condvar::new(),
        workers: AtomicUsize::new(0),
        tasks: AtomicU64::new(0),
        batches: AtomicU64::new(0),
        park_ns: AtomicU64::new(0),
    })
}

/// Counter snapshot for telemetry ([`PoolStats`]).
#[must_use]
pub fn pool_stats() -> PoolStats {
    let p = pool();
    PoolStats {
        workers: p.workers.load(Ordering::Relaxed),
        tasks: p.tasks.load(Ordering::Relaxed),
        batches: p.batches.load(Ordering::Relaxed),
        jobs: 0,
        park_ns: p.park_ns.load(Ordering::Relaxed),
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let batch = {
            let mut q = lock(&pool.queue);
            loop {
                if let Some(w) = q.pop_front() {
                    break w;
                }
                let parked = Instant::now();
                q = pool.work_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                let ns = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
                pool.park_ns.fetch_add(ns, Ordering::Relaxed);
            }
        };
        // Stale tokens for finished batches fall out of `work()`
        // immediately (`next >= len`).
        batch.work();
    }
}

/// Grows the pool to at least `want` long-lived threads. Spawn failure
/// degrades gracefully: the batch still completes via caller-runs.
fn ensure_workers(pool: &'static Pool, want: usize) {
    let mut cur = pool.workers.load(Ordering::Relaxed);
    while cur < want {
        match pool
            .workers
            .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {
                let spawned = std::thread::Builder::new()
                    .name(format!("pdftsp-pool-{cur}"))
                    .spawn(move || worker_loop(pool));
                if spawned.is_err() {
                    pool.workers.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                cur += 1;
            }
            Err(seen) => cur = seen,
        }
    }
}

/// Dispatches one batch to the pool and participates in draining it.
/// `helpers` is how many pool threads are invited on top of the caller.
fn run_batch(run: &(dyn Fn(usize) + Sync), len: usize, helpers: usize) {
    let pool = pool();
    pool.batches.fetch_add(1, Ordering::Relaxed);
    pool.tasks.fetch_add(len as u64, Ordering::Relaxed);
    // SAFETY: pure lifetime erasure on a fat pointer (the raw trait
    // object defaults to `+ 'static`); liveness is guaranteed by the
    // protocol documented on `Batch`.
    let run: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(run as *const (dyn Fn(usize) + Sync + '_)) };
    let batch = Arc::new(Batch {
        run,
        len,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        finished: Mutex::new(false),
        fin_cv: Condvar::new(),
    });
    if helpers > 0 {
        ensure_workers(pool, helpers);
        let mut q = lock(&pool.queue);
        for _ in 0..helpers {
            q.push_back(Arc::clone(&batch));
        }
        drop(q);
        pool.work_cv.notify_all();
    }
    batch.work();
    batch.wait_done();
}

/// Per-index result slots written concurrently at disjoint indices.
struct Slots<R>(Vec<UnsafeCell<Option<R>>>);

// SAFETY: the claim counter hands every index to exactly one worker, so
// all writes are to disjoint cells; reads happen only after the batch
// completes (`done == len` is an acquire/release edge via `wait_done`).
unsafe impl<R: Send> Sync for Slots<R> {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Applies `f` to every item in parallel on the persistent pool,
/// preserving order of results. A panicking item is contained and
/// reported as [`PoolPanic`] (lowest index wins); the remaining items
/// still run, the pool drains, and later batches are unaffected.
///
/// Uses at most [`effective_workers`]`(items)` threads (the caller
/// counts as one). Falls back to a sequential loop for 0/1 items or a
/// single configured thread — with the same error surface.
pub fn try_parallel_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, PoolPanic>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = effective_workers(items.len());
    if items.len() <= 1 || workers <= 1 {
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => out.push(r),
                Err(payload) => {
                    return Err(PoolPanic {
                        index: i,
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        }
        return Ok(out);
    }

    let slots = Slots((0..items.len()).map(|_| UnsafeCell::new(None)).collect());
    let first_panic: Mutex<Option<PoolPanic>> = Mutex::new(None);
    // Capture the `Sync` wrapper, not the inner Vec — edition-2021
    // disjoint capture would otherwise grab the non-`Sync` field.
    let slots_ref = &slots;
    let run = |i: usize| match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
        Ok(r) => {
            // SAFETY: index `i` was claimed by exactly one worker.
            unsafe { *slots_ref.0[i].get() = Some(r) };
        }
        Err(payload) => {
            let mut guard = lock(&first_panic);
            if guard.as_ref().is_none_or(|prev| i < prev.index) {
                *guard = Some(PoolPanic {
                    index: i,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
    };
    run_batch(&run, items.len(), workers - 1);
    if let Some(p) = lock(&first_panic).take() {
        return Err(p);
    }
    Ok(slots
        .0
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("every index was claimed and completed")
        })
        .collect())
}

/// Applies `f` to every item, in parallel, preserving order of results.
///
/// Thin compatibility wrapper over [`try_parallel_map`]: a panicking
/// work item re-panics on the calling thread (with the original message
/// and the item index) instead of returning an error. Callers that need
/// to survive a poisoned item should use [`try_parallel_map`].
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match try_parallel_map(items, f) {
        Ok(out) => out,
        Err(p) => panic!("{p}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = parallel_map(&items, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::SeqCst), 57);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_for_stateless_work() {
        let items: Vec<u64> = (0..40).collect();
        let par = parallel_map(&items, |&x| x * x % 17);
        let seq: Vec<u64> = items.iter().map(|&x| x * x % 17).collect();
        assert_eq!(par, seq);
    }

    /// A panic in one item is contained: the batch still reports every
    /// other result path, the error carries the lowest panicking index,
    /// and the pool keeps serving later batches. Runs on whatever
    /// thread count the host gives us — the sequential fallback has the
    /// same error surface by contract.
    #[test]
    fn panic_is_contained_and_reported() {
        let items: Vec<u64> = (0..16).collect();
        let err = try_parallel_map(&items, |&x| {
            assert!(!(x == 5 || x == 11), "boom at {x}");
            x + 1
        })
        .unwrap_err();
        assert_eq!(err.index, 5, "lowest panicking index wins: {err}");
        assert!(
            err.message.contains("boom at 5"),
            "message: {}",
            err.message
        );

        // The pool drains and rejoins: the very next batch succeeds and
        // is bit-for-bit the sequential answer.
        let ok = try_parallel_map(&items, |&x| x * 3).expect("pool recovered");
        assert_eq!(ok, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    /// Worker accounting, the programmatic override, determinism under
    /// forced threads, and the pool-path panic/recovery cycle — one
    /// test, because the override is process global and the test runner
    /// is parallel.
    #[test]
    fn worker_accounting_honours_items_and_overrides() {
        // Caps with no override installed.
        let before = configured_threads();
        assert!(before >= 1 && hardware_threads() >= 1);
        assert_eq!(effective_workers(0), 0);
        assert_eq!(effective_workers(1), 1);
        assert_eq!(effective_workers(usize::MAX), before);
        assert!(effective_workers(3) <= 3);
        // The override wins over hardware (and env) and is reversible.
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        assert_eq!(effective_workers(usize::MAX), 3);
        assert_eq!(effective_workers(2), 2);
        set_thread_override(Some(0)); // clamped to ≥ 1
        assert_eq!(configured_threads(), 1);
        // Forcing multiple workers on any host must not change results:
        // the order-preserving merge is thread-count-agnostic, and the
        // persistent pool replays the scoped-spawn results bit-for-bit.
        let items: Vec<u64> = (0..64).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 31 % 13).collect();
        set_thread_override(Some(4));
        let stats_before = pool_stats();
        assert_eq!(parallel_map(&items, |&x| x * 31 % 13), seq);
        let stats_after = pool_stats();
        assert!(stats_after.workers >= 1, "pool threads were spawned");
        assert!(
            stats_after.tasks >= stats_before.tasks + items.len() as u64,
            "every item was accounted as a pool task"
        );
        assert!(stats_after.batches > stats_before.batches);
        // Pool-path panic containment: contained, reported, and the
        // pool (with live threads this time) drains and rejoins.
        let err = try_parallel_map(&items, |&x| {
            assert!(x != 9, "pool boom");
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 9);
        assert!(err.message.contains("pool boom"));
        assert_eq!(parallel_map(&items, |&x| x * 31 % 13), seq);
        // Nested submission must not deadlock: caller-runs guarantees
        // forward progress even with every pool thread occupied.
        let outer: Vec<u64> = (0..4).collect();
        let nested = parallel_map(&outer, |&o| {
            let inner: Vec<u64> = (0..8).collect();
            parallel_map(&inner, |&i| o * 100 + i).iter().sum::<u64>()
        });
        assert_eq!(
            nested,
            (0..4)
                .map(|o| (0..8).map(|i| o * 100 + i).sum())
                .collect::<Vec<u64>>()
        );
        set_thread_override(None);
        assert_eq!(configured_threads(), before);
    }

    #[test]
    fn uneven_item_costs_still_complete_in_order() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |&x| {
            if x % 7 == 0 {
                // Simulate a heavy item.
                let mut acc = 0u64;
                for i in 0..20_000 {
                    acc = acc.wrapping_add(i * x);
                }
                std::hint::black_box(acc);
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }
}
