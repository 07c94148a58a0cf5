//! `gw-par` — a deterministic shared-memory parallel runtime.
//!
//! The paper's performance story is per-patch parallelism: one GPU block
//! per 13³ patch for octant-to-patch scatter, the fused RHS, copy-back
//! and the RK AXPY stages. This crate provides the host-side analogue —
//! a small persistent thread pool over which those stages fan out one
//! work item per patch (or per contiguous field chunk) — under one hard
//! constraint carried over from the resilience PRs: **results must be
//! bit-identical for any thread count**, so checkpoint replay and
//! rollback stay bit-exact when the pool size changes between runs.
//!
//! Determinism is by construction, not by scheduling:
//!
//! * [`ThreadPool::for_each`] / [`ThreadPool::map`] execute independent
//!   items whose writes go to pre-partitioned, non-overlapping slots
//!   (each item's output depends only on its inputs, never on schedule).
//! * [`tree_reduce`] combines per-item partial results in a *fixed
//!   pairwise order* derived from item indices alone, so floating-point
//!   reductions (constraint norms, residuals) do not depend on which
//!   worker finished first.
//!
//! The crate also holds the other half of the host runtime: [`isa`],
//! the host's vector tier and the macro that compiles a kernel once per
//! tier.
//!
//! The build environment has no registry access (see `vendor/README.md`),
//! so this replaces `rayon`; the API is deliberately tiny and can be
//! re-based on rayon mechanically if the registry becomes available.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod isa;
mod slice;
pub use isa::Isa;
pub use slice::UnsafeSlice;

/// Upper bound on the worker count accepted by [`resolve_threads`].
pub const MAX_THREADS: usize = 1024;

/// Resolve a requested thread count: `0` means "auto" — the `GW_THREADS`
/// environment variable if set, otherwise the host's available
/// parallelism. Any resolved value is clamped to `[1, MAX_THREADS]`.
pub fn resolve_threads(requested: usize) -> usize {
    let n = if requested > 0 {
        requested
    } else if let Some(env) = std::env::var("GW_THREADS").ok().and_then(|s| s.parse().ok()) {
        env
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    };
    n.clamp(1, MAX_THREADS)
}

enum Msg {
    Run(Arc<Job>),
    Exit,
}

/// One parallel call's shared state. Workers pull fixed-size index
/// chunks off `next`; the participant that completes the final item
/// notifies the submitting thread. The raw task pointer is only
/// dereferenced while items remain unclaimed, which the submitting call
/// outlives (it blocks until `done == n`).
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    n: usize,
    chunk: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    finished: Mutex<bool>,
    finished_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// Safety: `task` outlives the job (the submitting `for_each` call blocks
// until every item completes before returning and dropping the closure),
// and the closure itself is `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run chunks until none remain. Returns `true` if this
    /// participant completed the job's final item.
    fn run(&self) -> bool {
        let mut completed_last = false;
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            let end = (start + self.chunk).min(self.n);
            // Safety: items remain (start < n), so the submitting call is
            // still blocked in `for_each` and the closure is alive.
            let task = unsafe { &*self.task };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for i in start..end {
                    task(i);
                }
            }));
            if let Err(payload) = r {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let prev = self.done.fetch_add(end - start, Ordering::AcqRel);
            if prev + (end - start) == self.n {
                completed_last = true;
                let mut fin = self.finished.lock().unwrap();
                *fin = true;
                self.finished_cv.notify_all();
            }
        }
        completed_last
    }

    fn wait(&self) {
        let mut fin = self.finished.lock().unwrap();
        while !*fin {
            fin = self.finished_cv.wait(fin).unwrap();
        }
    }
}

/// A persistent pool of `n − 1` worker threads; the submitting thread is
/// the `n`-th participant of every parallel call. `n = 1` runs inline
/// with no threads and no synchronization.
pub struct ThreadPool {
    n_threads: usize,
    tx: Option<crossbeam::channel::Sender<Msg>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with exactly `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        if n == 1 {
            return Self { n_threads: 1, tx: None, workers: Vec::new() };
        }
        let (tx, rx) = crossbeam::channel::unbounded::<Msg>();
        let workers = (0..n - 1)
            .map(|k| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("gw-par-{k}"))
                    .spawn(move || {
                        while let Ok(Msg::Run(job)) = rx.recv() {
                            job.run();
                        }
                    })
                    .expect("spawn gw-par worker")
            })
            .collect();
        Self { n_threads: n, tx: Some(tx), workers }
    }

    /// A process-wide shared pool for `requested` threads (0 = auto; see
    /// [`resolve_threads`]). Pools are cached by resolved size so regrid
    /// cycles that rebuild backends do not respawn threads.
    pub fn shared(requested: usize) -> Arc<ThreadPool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
        let n = resolve_threads(requested);
        let mut pools = POOLS.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
        pools.entry(n).or_insert_with(|| Arc::new(ThreadPool::new(n))).clone()
    }

    /// Number of participants (including the submitting thread).
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Run `f(i)` for every `i in 0..n` across the pool. Items must write
    /// only to slots owned by their index (a non-overlapping write
    /// partition); under that contract the result is bit-identical for
    /// any pool size. Blocks until all items complete; re-raises the
    /// first worker panic.
    pub fn for_each<F: Fn(usize) + Sync>(&self, n: usize, f: F) {
        // Chunk size balances scheduling overhead against load balance;
        // it does not affect results (items are independent).
        let chunk = (n / (4 * self.n_threads.max(1))).clamp(1, 256);
        self.for_each_chunked(n, chunk, f);
    }

    /// [`ThreadPool::for_each`] with an explicit claim-chunk size (for
    /// very cheap items, e.g. AXPY field chunks).
    pub fn for_each_chunked<F: Fn(usize) + Sync>(&self, n: usize, chunk: usize, f: F) {
        if n == 0 {
            return;
        }
        if self.tx.is_none() || n == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let task: &(dyn Fn(usize) + Sync) = &f;
        // Safety: the lifetime is erased only for the duration of this
        // call — `job.wait()` below blocks until every item completed,
        // so no worker dereferences `task` after `f` is dropped.
        let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task,
            n,
            chunk: chunk.max(1),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let tx = self.tx.as_ref().expect("pool has workers");
        for _ in 0..self.workers.len() {
            tx.send(Msg::Run(job.clone())).expect("pool alive");
        }
        job.run();
        job.wait();
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Parallel map preserving index order: `out[i] = f(i)`. The output
    /// vector is ordered by item index regardless of scheduling, so a
    /// downstream [`tree_reduce`] is deterministic for any pool size.
    pub fn map<T: Send, F: Fn(usize) -> T + Sync>(&self, n: usize, f: F) -> Vec<T> {
        struct SendPtr<T>(*mut std::mem::MaybeUninit<T>);
        // Safety: each item writes only its own slot (disjoint partition).
        unsafe impl<T: Send> Send for SendPtr<T> {}
        unsafe impl<T: Send> Sync for SendPtr<T> {}
        impl<T> SendPtr<T> {
            fn slot(&self, i: usize) -> *mut std::mem::MaybeUninit<T> {
                // Safety of the add: callers index within the vec length.
                unsafe { self.0.add(i) }
            }
        }

        let mut out: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(n);
        out.resize_with(n, std::mem::MaybeUninit::uninit);
        {
            let slots = SendPtr(out.as_mut_ptr());
            self.for_each(n, |i| {
                // Safety: slot i is written exactly once, by item i.
                unsafe {
                    slots.slot(i).write(std::mem::MaybeUninit::new(f(i)));
                }
            });
        }
        // Safety: every slot 0..n was initialized by its item (for_each
        // completed without panicking).
        unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr() as *mut T, out.len(), out.capacity())
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            for _ in 0..self.workers.len() {
                let _ = tx.send(Msg::Exit);
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Fixed-order pairwise tree reduction.
///
/// Combines `xs[0] op xs[1]`, `xs[2] op xs[3]`, … level by level. The
/// combination order is a pure function of the slice layout — never of
/// thread scheduling — so reducing per-item partials produced by
/// [`ThreadPool::map`] yields bit-identical floats for any thread count.
/// (It also matches the GPU-style binary reduction the paper's kernels
/// use, keeping CPU and simulated-device reductions aligned.)
pub fn tree_reduce<T: Copy>(xs: &[T], identity: T, op: impl Fn(T, T) -> T) -> T {
    if xs.is_empty() {
        return identity;
    }
    let mut buf: Vec<T> = xs.to_vec();
    while buf.len() > 1 {
        let mut w = 0;
        let mut r = 0;
        while r < buf.len() {
            buf[w] = if r + 1 < buf.len() { op(buf[r], buf[r + 1]) } else { buf[r] };
            w += 1;
            r += 2;
        }
        buf.truncate(w);
    }
    buf[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_each_runs_every_item_once() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let mut hits = vec![0u64; 1000];
            {
                let slots = UnsafeSlice::new(&mut hits);
                pool.for_each(1000, |i| unsafe { slots.write(i, i as u64 + 1) });
            }
            for (i, v) in hits.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 3, 7] {
            let pool = ThreadPool::new(threads);
            let out = pool.map(257, |i| i * i);
            assert_eq!(out.len(), 257);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i);
            }
        }
    }

    #[test]
    fn map_handles_non_copy_values() {
        let pool = ThreadPool::new(4);
        let out = pool.map(100, |i| vec![i; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; 3]);
        }
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.for_each(64, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 64);
    }

    #[test]
    fn empty_and_single_item_jobs() {
        let pool = ThreadPool::new(4);
        pool.for_each(0, |_| panic!("must not run"));
        let mut one = [0u64];
        {
            let s = UnsafeSlice::new(&mut one);
            pool.for_each(1, |i| unsafe { s.write(i, 7) });
        }
        assert_eq!(one[0], 7);
    }

    #[test]
    fn tree_reduce_is_fixed_order() {
        // Floats chosen so left-fold and pairwise-tree orders differ in
        // the last bits: the tree order must be the one we get, always.
        let xs: Vec<f64> = (0..1025).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let tree = tree_reduce(&xs, 0.0, |a, b| a + b);
        let fold: f64 = xs.iter().sum();
        // Deterministic: identical on repeat.
        assert_eq!(tree, tree_reduce(&xs, 0.0, |a, b| a + b));
        // And genuinely a different association than the serial fold
        // (documents that callers must not mix the two).
        assert!((tree - fold).abs() < 1e-12);
        assert_ne!(tree.to_bits(), fold.to_bits());
    }

    #[test]
    fn tree_reduce_edge_cases() {
        assert_eq!(tree_reduce(&[] as &[u64], 9, |a, b| a + b), 9);
        assert_eq!(tree_reduce(&[5u64], 0, |a, b| a + b), 5);
        assert_eq!(tree_reduce(&[1u64, 2, 3], 0, |a, b| a + b), 6);
    }

    #[test]
    fn map_tree_reduce_bit_identical_across_thread_counts() {
        let mut got = Vec::new();
        for threads in [1usize, 2, 5, 8] {
            let pool = ThreadPool::new(threads);
            let partials = pool.map(777, |i| ((i as f64) * 0.37).sin());
            let total = tree_reduce(&partials, 0.0, |a, b| a + b);
            got.push(total.to_bits());
        }
        assert!(got.windows(2).all(|w| w[0] == w[1]), "{got:?}");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each(100, |i| {
                if i == 63 {
                    panic!("boom at 63");
                }
            });
        }));
        assert!(r.is_err(), "panic must cross the pool boundary");
        // The pool stays usable afterwards.
        pool.for_each(10, |_| {});
    }

    #[test]
    fn resolve_threads_clamps_and_defaults() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1 << 20), 1024);
    }

    #[test]
    fn shared_pools_are_cached_by_size() {
        let a = ThreadPool::shared(2);
        let b = ThreadPool::shared(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.n_threads(), 2);
    }

    #[test]
    fn concurrent_submissions_from_many_threads_are_isolated() {
        // The overlapped halo path has every simulated rank thread driving
        // the *same* shared pool concurrently (one `for_each` per RK stage
        // per rank). Submissions must serialize without deadlock, and each
        // caller must see exactly its own work completed — never a slot
        // written by another caller's closure.
        let pool = ThreadPool::shared(4);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6u64)
                .map(|caller| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let mut acc = vec![0u64; 257];
                        for round in 0..8u64 {
                            let slots = UnsafeSlice::new(&mut acc);
                            pool.for_each(257, |i| {
                                let out = unsafe { slots.slice_mut(i, 1) };
                                out[0] = caller * 1_000_000 + round * 1_000 + i as u64;
                            });
                        }
                        acc
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (caller, acc) in results.iter().enumerate() {
            for (i, &v) in acc.iter().enumerate() {
                let expect = caller as u64 * 1_000_000 + 7 * 1_000 + i as u64;
                assert_eq!(v, expect, "caller {caller} slot {i} was cross-written");
            }
        }
    }
}
