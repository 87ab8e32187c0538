//! Shared workspace thread pool.
//!
//! Every data-parallel hot path in the workspace — GEMM row bands, chunked
//! compression/decompression, batched serving — used to pay a
//! `std::thread::spawn` per call.  This module replaces all of that with a
//! single pool of **persistent** workers (std-only: `Mutex` + `Condvar` +
//! atomics, no external crates) shared process-wide through [`global`].
//!
//! Design points:
//!
//! * **Caller participation.**  [`ThreadPool::parallel_for`] never hands the
//!   whole job to the workers and blocks idle: the submitting thread claims
//!   task indices from the same atomic counter the workers do.  This makes
//!   nested use (a serve worker decompressing chunks while GEMM bands run)
//!   deadlock-free by construction — even with zero free workers the caller
//!   drains its own job.
//! * **Per-job concurrency caps.**  Each job carries `max_threads`; workers
//!   only join a job while its participant count is below the cap, so a
//!   `ChunkedCompressor::with_threads(2)` never occupies more than two
//!   threads no matter how large the pool is.
//! * **Deterministic results.**  Tasks are identified by index; callers
//!   write results into disjoint slots, so outputs are independent of which
//!   thread ran which task (asserted by the GEMM determinism tests).
//! * **Dedicated threads.**  Long-running blocking loops (the serve
//!   dispatcher threads that park on the request queue) must not occupy
//!   compute workers; [`ThreadPool::spawn_dedicated`] creates them as named,
//!   pool-accounted threads outside the task-stealing set.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Lifetime-erased pointer to the job closure.  Safety: the submitting
/// thread blocks in [`ThreadPool::parallel_for`] until every claimed task
/// has finished, so the pointee outlives every dereference.
struct RawTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is a `Sync` closure that the submitting thread keeps
// alive until every claimed task finished (`parallel_for` blocks on the
// job's done flag), so sending the pointer to workers cannot outlive it.
unsafe impl Send for RawTask {}
// SAFETY: the pointee is `Sync` by construction (`dyn Fn(usize) + Sync`),
// so shared `&RawTask` access from many workers is sound.
unsafe impl Sync for RawTask {}

/// One `parallel_for` invocation: a task counter workers race on.
struct Job {
    f: RawTask,
    n_tasks: usize,
    /// Next unclaimed task index (may grow past `n_tasks`).
    next: AtomicUsize,
    /// Tasks that have finished running (success or panic).
    finished: AtomicUsize,
    /// Current participants (caller + joined workers).
    active: AtomicUsize,
    /// Maximum participants allowed (the job's thread budget).
    cap: usize,
    /// Set when any task panicked; re-raised on the calling thread.
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claims and runs tasks until the counter is exhausted.
    fn run_tasks(&self) {
        // SAFETY: see `RawTask` — the caller keeps the closure alive until
        // `finished == n_tasks`, and we bump `finished` only after `f`
        // returns.
        let f = unsafe { &*self.f.0 };
        // One span per participating thread per job, opened lazily so a
        // worker that finds the counter already exhausted records nothing.
        let mut span = None;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                return;
            }
            if span.is_none() {
                span = Some(errflow_obs::trace::span("pool.job"));
            }
            if std::panic::catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            // AcqRel chains every participant's writes into whoever observes
            // the final count, so the caller sees all task side effects.
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.n_tasks {
                // Poison-recovering lock: a panicked task must still mark the
                // job done, or the caller waits forever.
                let mut done = crate::sync::lock_recover(&self.done);
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn is_exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n_tasks
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    dedicated: AtomicUsize,
}

/// A pool of persistent worker threads executing indexed data-parallel jobs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `workers` persistent threads.  `workers = 0` is a
    /// valid degenerate pool: every [`ThreadPool::parallel_for`] runs
    /// entirely on the calling thread.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            dedicated: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("errflow-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // audit:allow(panic-reach) one-time startup: a workspace without worker threads cannot serve
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of persistent workers (excludes callers and dedicated threads).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Maximum useful `max_threads` for a job: every worker plus the caller.
    pub fn max_concurrency(&self) -> usize {
        self.shared.workers + 1
    }

    /// Runs `f(0..n_tasks)` across at most `max_threads` threads (the
    /// calling thread counts as one) and returns once every task finished.
    ///
    /// Tasks must be independent; the closure is shared by reference, so
    /// per-task state belongs in indexed slots.  Panics in any task are
    /// re-raised here after all tasks have completed.
    pub fn parallel_for(&self, n_tasks: usize, max_threads: usize, f: impl Fn(usize) + Sync) {
        if n_tasks == 0 {
            return;
        }
        let helpers = max_threads
            .saturating_sub(1)
            .min(self.shared.workers)
            .min(n_tasks - 1);
        if helpers == 0 {
            for i in 0..n_tasks {
                f(i);
            }
            return;
        }
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: extending the closure's lifetime is sound because this
        // function does not return until `finished == n_tasks` (the wait
        // below runs even when a task panicked).
        let f_static: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
        let job = Arc::new(Job {
            f: RawTask(f_static),
            n_tasks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            active: AtomicUsize::new(1), // the caller
            cap: helpers + 1,
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        crate::sync::lock_recover(&self.shared.queue).push_back(Arc::clone(&job));
        self.shared.work_ready.notify_all();

        job.run_tasks();

        let mut done = crate::sync::lock_recover(&job.done);
        while !*done {
            done = crate::sync::wait_recover(&job.done_cv, done);
        }
        drop(done);
        // Drop the job from the queue in case no worker ever woke to
        // retire it.
        crate::sync::lock_recover(&self.shared.queue).retain(|j| !Arc::ptr_eq(j, &job));
        if job.panicked.load(Ordering::Relaxed) {
            // audit:allow(panic-reach) deliberate policy: job panics are re-raised on the caller, not swallowed
            panic!("thread pool task panicked");
        }
    }

    /// Spawns a named, pool-accounted thread for a long-running blocking
    /// loop (e.g. a serve dispatcher parked on its request queue).  These
    /// threads are deliberately *outside* the data-parallel worker set so
    /// they can block indefinitely without starving compute jobs.
    pub fn spawn_dedicated(
        &self,
        name: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> JoinHandle<()> {
        let shared = Arc::clone(&self.shared);
        shared.dedicated.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                struct Leave(Arc<Shared>);
                impl Drop for Leave {
                    fn drop(&mut self) {
                        self.0.dedicated.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                let _leave = Leave(shared);
                f();
            })
            // audit:allow(panic-reach) one-time startup: dedicated I/O threads are required infrastructure
            .expect("spawn dedicated thread")
    }

    // audit:allow(dead-pub) the seam `serve/tests/threads.rs` counts a
    // server's worker threads through.
    /// Number of live dedicated threads created by
    /// [`ThreadPool::spawn_dedicated`].
    pub fn dedicated_threads(&self) -> usize {
        self.shared.dedicated.load(Ordering::Relaxed)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = crate::sync::lock_recover(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                queue.retain(|j| !j.is_exhausted());
                // Join the oldest job that still has unclaimed tasks and a
                // free participant slot; increment under the lock so the
                // per-job cap is never exceeded.
                let joined = queue.iter().find_map(|j| {
                    if j.active.load(Ordering::Relaxed) < j.cap {
                        j.active.fetch_add(1, Ordering::Relaxed);
                        Some(Arc::clone(j))
                    } else {
                        None
                    }
                });
                match joined {
                    Some(j) => break j,
                    None => queue = crate::sync::wait_recover(&shared.work_ready, queue),
                }
            }
        };
        job.run_tasks();
        job.active.fetch_sub(1, Ordering::Relaxed);
        // A slot freed up: another queued job (or this one, refilled) may
        // now admit a waiting worker.
        shared.work_ready.notify_one();
    }
}

/// What the process learned about its machine, resolved once.
#[derive(Clone, Copy)]
struct Machine {
    /// The `ERRFLOW_THREADS` override when set to a positive integer.
    env_threads: Option<usize>,
    /// `available_parallelism`, 1 when the platform cannot say.
    cores: usize,
}

/// Reads `ERRFLOW_THREADS` and `available_parallelism` on the first call
/// and never again: the second is a `sched_getaffinity` plus an
/// `open`/`read`/`close` of the cgroup files (≈ 14 µs), which is more than
/// a small batch's whole decode.
fn machine() -> Machine {
    static MACHINE: OnceLock<Machine> = OnceLock::new();
    *MACHINE.get_or_init(|| Machine {
        env_threads: std::env::var("ERRFLOW_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0),
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

/// Concurrency that actually speeds up compute-bound fan-out: the
/// `ERRFLOW_THREADS` override when set, otherwise `available_parallelism`
/// **without** the exercise floor [`global`] applies.
///
/// A process constant, resolved **at first use** (this call, [`global`] or
/// anything that sizes a fan-out, whichever comes first): set
/// `ERRFLOW_THREADS`, CPU affinity and cgroup limits before that, because
/// a later change is not seen.  Every call after the first is one atomic
/// load, so hot paths may call it per batch or per GEMM.
///
/// The distinction from the pool's size matters on small machines: the
/// global pool floors its size at 4 total threads so concurrency paths
/// stay exercised even on a 1-core CI box, but a data-parallel hot path
/// that sizes its fan-out from the pool then runs 4 software threads on 1
/// core and measures pure oversubscription (this was the flat
/// chunked-decode scaling — 1.09× at 4 threads — in
/// `BENCH_compress.json`).  Throughput-sized defaults should use this; the
/// floored pool remains the right cap for correctness-exercising paths.
pub fn hardware_threads() -> usize {
    let m = machine();
    m.env_threads.unwrap_or(m.cores)
}

/// The process-wide shared pool.
///
/// Sized from `ERRFLOW_THREADS` when set (total concurrency: workers =
/// `ERRFLOW_THREADS - 1`), otherwise from `available_parallelism`, with a
/// floor of 4 total so concurrency paths are exercised (and the thread-count
/// sweep in `gemm-bench` is meaningful) even on small CI machines —
/// oversubscription is benign for correctness and mild for throughput.
/// Paths that size fan-out for throughput should clamp with
/// [`hardware_threads`].
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let m = machine();
        let total = m.env_threads.unwrap_or(m.cores.max(4));
        ThreadPool::new(total - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ThreadPool::new(3);
        let n = 257;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_worker_pool_runs_on_caller() {
        let pool = ThreadPool::new(0);
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        pool.parallel_for(8, 4, |_| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrency_never_exceeds_cap() {
        let pool = ThreadPool::new(7);
        for cap in [1usize, 2, 3] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            pool.parallel_for(24, cap, |_| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
            });
            assert!(
                peak.load(Ordering::SeqCst) <= cap,
                "peak {} > cap {cap}",
                peak.load(Ordering::SeqCst)
            );
        }
    }

    #[test]
    fn workers_actually_participate() {
        let pool = ThreadPool::new(3);
        let caller = std::thread::current().id();
        let foreign = AtomicUsize::new(0);
        // Long-ish tasks so workers have time to wake up and join.
        pool.parallel_for(16, 4, |_| {
            if std::thread::current().id() != caller {
                foreign.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(3));
        });
        assert!(
            foreign.load(Ordering::Relaxed) > 0,
            "no worker ever ran a task"
        );
    }

    #[test]
    fn nested_parallel_for_does_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.parallel_for(4, 3, |_| {
            pool.parallel_for(4, 3, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panic_propagates_after_completion() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(8, 3, |i| {
                ran2.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(ran.load(Ordering::Relaxed), 8, "all tasks still ran");
        // The pool survives a panicked job.
        pool.parallel_for(4, 3, |_| {});
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = ThreadPool::new(2);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.parallel_for(10, 3, |i| {
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 45 + 10 * round);
        }
    }

    #[test]
    fn dedicated_threads_are_counted_and_joinable() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.dedicated_threads(), 0);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = pool.spawn_dedicated("errflow-test-dedicated", move || {
            rx.recv().ok();
        });
        assert_eq!(pool.dedicated_threads(), 1);
        tx.send(()).unwrap();
        h.join().unwrap();
        assert_eq!(pool.dedicated_threads(), 0);
    }

    #[test]
    fn hardware_threads_is_a_process_constant() {
        // Uncached, each call is an env lookup plus a cgroup file read
        // (≈ 14 µs: 200 000 of them take seconds); cached they take under
        // a millisecond, so 50 ms is far from both.
        let hw = hardware_threads();
        let auto = crate::gemm::auto_threads(1 << 20);
        assert!(hw >= 1 && auto >= 1);
        let t0 = std::time::Instant::now();
        for _ in 0..100_000 {
            assert_eq!(std::hint::black_box(hardware_threads()), hw);
            assert_eq!(
                std::hint::black_box(crate::gemm::auto_threads(1 << 20)),
                auto
            );
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "200 000 thread-budget reads took {took:?}: is the machine probed per call again?"
        );
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let pool = global();
        assert!(pool.max_concurrency() >= 1);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(100, pool.max_concurrency(), |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }
}
