//! A persistent worker pool with scoped task spawning.
//!
//! The threaded executor used to spawn one OS thread per chunk and a fresh
//! scoped thread per replica batch — `chunks ≫ cores` configurations (the
//! paper sweeps up to 28×4 chunks) oversubscribed the OS scheduler and paid
//! thread-creation latency on the commit path. [`WorkerPool`] replaces that
//! shape: a fixed set of persistent workers (default
//! [`default_workers`] = available parallelism) drains a two-ended job
//! queue, and chunks/replicas/reruns become queued tasks.
//!
//! # Scoped API
//!
//! [`WorkerPool::scope`] mirrors `std::thread::scope`: tasks spawned inside
//! the scope may borrow from the enclosing environment (`'env`), and
//! `scope` does not return until every spawned task has finished. This is
//! what lets the runtime share read-only replay inputs by reference instead
//! of cloning them into each task.
//!
//! # Queue discipline
//!
//! [`PoolScope::spawn`] enqueues on the normal lane;
//! [`PoolScope::spawn_urgent`] on a separate urgent lane that workers
//! always drain first. The executor uses the urgent lane for
//! commit-critical work (replica replay, aborted-chunk reruns) so it is
//! never stuck behind a long tail of not-yet-needed speculative chunks.
//! Both lanes are FIFO among themselves: two urgent tasks run in the
//! order they were spawned (a front-pushed single queue would reverse
//! them, running a later rerun segment before an earlier replica batch).
//!
//! # Non-blocking jobs
//!
//! Pool jobs must never block waiting on *another pool job's* completion:
//! with fewer workers than chunks, a job parked on a channel would hold a
//! worker hostage and can deadlock the whole run. The pooled executor is
//! structured so every job computes, sends its result, and exits; all
//! waiting happens on the coordinator thread (which is *not* a pool
//! worker).
//!
//! # Failure semantics
//!
//! A panicking task **poisons its scope**: the first panic payload is
//! stashed, every queued-but-not-yet-started task of that scope is
//! skipped (its closure is dropped unrun, so channel senders it owns
//! disconnect promptly), and the scope re-raises the original payload as
//! soon as in-flight tasks drain — fail-fast instead of running a long
//! tail of doomed work. Poisoning is per scope; the pool itself stays
//! healthy for later scopes.
//!
//! Separately, the fault plane ([`crate::fault`]) can *doom* the worker
//! running the current job: the worker finishes that job, then exits,
//! degrading the pool to fewer workers. When the last worker dies an
//! emergency replacement is spawned, so the pool always drains its queue
//! — ultimately sequentially, on one surviving worker.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of queued work. Jobs are type-erased and `'static`; the scoped
/// lifetime is upheld by [`WorkerPool::scope`] (see the safety comment in
/// [`PoolScope::enqueue`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's shared state: the job queue and shutdown flag behind one
/// mutex, plus a condvar workers park on when the queue is empty.
struct Shared {
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    /// Workers currently alive (doomed workers decrement on exit).
    live: AtomicUsize,
}

struct QueueState {
    /// Normal lane (speculative chunk tasks), FIFO.
    jobs: VecDeque<Job>,
    /// Urgent lane (replicas, reruns), FIFO among urgent tasks and
    /// drained before the normal lane.
    urgent: VecDeque<Job>,
    shutdown: bool,
}

/// Default pool width: the host's available parallelism (1 if unknown).
pub fn default_workers() -> usize {
    // stats-analyzer: allow(ND009): pool width sizes the executor only; commit/abort decisions are proven width-independent by the model checker
    std::thread::available_parallelism().map_or(1, usize::from)
}

// stats-analyzer: allow(ND004): the doom flag marks the *executor thread* for teardown; it carries no workload state across chunks
thread_local! {
    /// Set by [`doom_current_worker`]; checked by the worker loop after
    /// every job.
    // stats-analyzer: allow(ND004): a bool latch on the worker thread itself, not workload state
    static DOOMED: Cell<bool> = const { Cell::new(false) };
}

/// Doom the pool worker running the current job: it finishes the job,
/// then exits (see the module docs on failure semantics). A no-op on
/// threads that are not pool workers — the flag is only ever read by
/// [`worker_loop`].
pub fn doom_current_worker() {
    DOOMED.with(|d| d.set(true));
}

/// A fixed-size pool of persistent worker threads draining a two-ended
/// job queue. Construct once, reuse across runs; dropping the pool joins
/// all workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                urgent: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            live: AtomicUsize::new(workers),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stats-pool-{i}"))
                    .spawn(move || {
                        // Tag the thread for the wall-clock profiler so
                        // its spans land in worker shard `i`; the label
                        // is observability-only and is never read by
                        // protocol logic.
                        stats_telemetry::profiler::register_worker(i);
                        worker_loop(shared, i)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// A pool sized by [`default_workers`].
    pub fn with_default_workers() -> Self {
        WorkerPool::new(default_workers())
    }

    /// The process-wide shared pool, sized by [`default_workers`] and
    /// created on first use.
    ///
    /// # Lifetime rule
    ///
    /// Entry points that don't take an explicit pool (e.g.
    /// [`crate::runtime::threaded::run_threaded`]) borrow this one instead
    /// of constructing a throwaway pool per call — pool construction
    /// spawns OS threads, and paying that on every run dwarfs the work of
    /// small runs. The shared pool is never dropped: its workers park on a
    /// condvar when idle (zero CPU) and the OS reclaims them at process
    /// exit. Callers that need a *specific* width (CLI `--workers`, the
    /// repo benchmark) should
    /// build one `WorkerPool::new(n)` per invocation and thread it through
    /// the `*_on` entry points; never construct a pool inside a per-run
    /// helper.
    pub fn shared() -> &'static WorkerPool {
        static SHARED: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
        SHARED.get_or_init(WorkerPool::with_default_workers)
    }

    /// Number of worker threads the pool was configured with.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads currently alive. Equals [`WorkerPool::workers`]
    /// until injected worker-death faults doom some; never drops below
    /// one (the emergency replacement).
    pub fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Run `f` with a [`PoolScope`] through which tasks borrowing from the
    /// enclosing environment can be spawned onto the pool. Returns once
    /// `f` *and every spawned task* have finished, so borrows handed to
    /// tasks are valid for their whole execution (the `std::thread::scope`
    /// contract).
    ///
    /// # Panics
    ///
    /// If a spawned task panics, the scope is poisoned: queued tasks
    /// that have not started yet are skipped (fail-fast), in-flight
    /// tasks drain, and the *original* panic payload is resumed here;
    /// if `f` itself panics, that panic is resumed (task panics take
    /// precedence, matching the order in which the work actually
    /// failed). Poisoning does not outlive the scope — the pool is
    /// reusable afterwards.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope PoolScope<'scope, 'env>) -> R,
    {
        let scope = PoolScope {
            pool: self,
            state: Arc::new(ScopeState::default()),
            _scope: PhantomData,
            _env: PhantomData,
        };
        // stats-analyzer: allow(ND011): the scope body is the caller's workload code; its determinism is enforced at the call sites, not here
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Wait for every task — on the panic path too, or borrows of 'env
        // data could dangle while tasks are still running.
        scope.state.wait_idle();
        if let Some(payload) = scope.state.take_panic() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool mutex");
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.workers.drain(..) {
            // A worker that panicked already stashed the payload with the
            // owning scope; joining here must not double-panic in Drop.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    DOOMED.with(|d| d.set(false));
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool mutex");
            loop {
                if let Some(job) = q.urgent.pop_front().or_else(|| q.jobs.pop_front()) {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_ready.wait(q).expect("pool mutex");
            }
        };
        // stats-analyzer: allow(ND011): jobs are opaque boxed closures by design; determinism is enforced where tasks are spawned, not in the drain loop
        job();
        if DOOMED.with(|d| d.get()) {
            worker_death(shared, index);
            return;
        }
    }
}

/// Tear down a doomed worker: degrade the pool to fewer workers, and when
/// this was the last one, hand the slot to an emergency replacement so
/// the queue always keeps draining (sequentially, in the limit). `live`
/// never reads zero: the last worker's slot transfers to the replacement
/// without ever being decremented. The replacement is detached — it holds
/// its own `Arc<Shared>` and exits on shutdown.
fn worker_death(shared: Arc<Shared>, index: usize) {
    loop {
        let live = shared.live.load(Ordering::Acquire);
        if live > 1 {
            if shared
                .live
                .compare_exchange(live, live - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            continue;
        }
        let respawn = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("stats-pool-{index}-revive"))
            .spawn(move || {
                stats_telemetry::profiler::register_worker(index);
                worker_loop(respawn, index)
            });
        if spawned.is_err() {
            // Could not replace the last worker: keep draining on this
            // thread instead of leaving the pool dead.
            DOOMED.with(|d| d.set(false));
            worker_loop(shared, index);
        }
        return;
    }
}

/// Per-scope bookkeeping: outstanding task count, completion condvar,
/// the first panic payload raised by a task, and the poison flag that
/// makes later queued tasks fail fast.
#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    poisoned: AtomicBool,
}

impl ScopeState {
    fn task_started(&self) {
        *self.pending.lock().expect("scope mutex") += 1;
    }

    fn task_finished(&self) {
        let mut pending = self.pending.lock().expect("scope mutex");
        *pending -= 1;
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut pending = self.pending.lock().expect("scope mutex");
        while *pending > 0 {
            pending = self.all_done.wait(pending).expect("scope mutex");
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("scope mutex");
        if slot.is_none() {
            *slot = Some(payload);
        }
        // Publish after stashing the payload so a skipper observing the
        // flag can rely on `take_panic` finding something to re-raise.
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().expect("scope mutex").take()
    }
}

/// Handle for spawning environment-borrowing tasks onto a [`WorkerPool`];
/// see [`WorkerPool::scope`]. `'scope` is the region in which tasks run,
/// `'env` the enclosing borrows (both invariant, as in `std::thread::Scope`).
pub struct PoolScope<'scope, 'env: 'scope> {
    pool: &'scope WorkerPool,
    state: Arc<ScopeState>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for PoolScope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope")
            .field("workers", &self.pool.workers())
            .finish()
    }
}

impl<'scope> PoolScope<'scope, '_> {
    /// Enqueue `f` at the back of the pool's queue (normal lane).
    ///
    /// Tasks may themselves spawn further tasks through the same scope.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.enqueue(f, false);
    }

    /// Enqueue `f` on the urgent lane, which workers drain before the
    /// normal lane. The executor uses it for commit-critical work
    /// (replica replay, reruns) so it overtakes queued-but-not-yet-needed
    /// speculative chunks; urgent tasks run FIFO among themselves.
    pub fn spawn_urgent<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.enqueue(f, true);
    }

    /// Whether a task of this scope has panicked. Coordinators polling a
    /// rendezvous that a killed task will never signal use this to bail
    /// out instead of waiting forever.
    pub fn poisoned(&self) -> bool {
        self.state.is_poisoned()
    }

    fn enqueue<F>(&'scope self, f: F, urgent: bool)
    where
        F: FnOnce() + Send + 'scope,
    {
        // Count the task before it is visible to workers so `wait_idle`
        // can never observe a queued-but-uncounted task.
        self.state.task_started();
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            // Fail-fast: once a sibling panicked there is no point
            // running tasks that have not started — dropping `f` unrun
            // also drops any channel senders it owns, so coordinators
            // blocked on its result disconnect promptly.
            if !state.is_poisoned() {
                let result = catch_unwind(AssertUnwindSafe(f));
                if let Err(payload) = result {
                    state.record_panic(payload);
                }
            }
            state.task_finished();
        });
        // SAFETY: the closure borrows data that lives at least `'scope`.
        // `WorkerPool::scope` does not return before `wait_idle()` observes
        // every counted task finished — on the panic path as well — so the
        // erased borrows are valid for the job's entire execution. This is
        // the same lifetime-erasure argument `std::thread::scope` rests on.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        {
            let mut q = self.pool.shared.queue.lock().expect("pool mutex");
            if urgent {
                q.urgent.push_back(job);
            } else {
                q.jobs.push_back(job);
            }
        }
        self.pool.shared.work_ready.notify_one();
    }
}

/// A small free-list of state buffers, recycling allocations between
/// replica batches instead of hitting the allocator on the commit path.
///
/// Lifetime rule: a state may be recycled only once nothing reads it —
/// after the ordered comparison for its boundary has finished (see
/// DESIGN.md §9). `copy_of` refills a spare in place via `clone_from`,
/// which for heap-backed states (e.g. `Vec`-based benchmark states of
/// matching length) reuses the spare's allocation.
#[derive(Debug)]
pub struct StatePool<S> {
    spares: Mutex<Vec<S>>,
    cap: usize,
    /// Most spares ever held at once (relaxed: a monotone watermark).
    high_water: AtomicUsize,
    /// Buffers abandoned by killed tasks (see [`StatePool::note_leak`]).
    leaked: AtomicUsize,
}

impl<S: Clone> StatePool<S> {
    /// A pool retaining at most `cap` spare states.
    pub fn with_capacity(cap: usize) -> Self {
        StatePool {
            spares: Mutex::new(Vec::new()),
            cap,
            high_water: AtomicUsize::new(0),
            leaked: AtomicUsize::new(0),
        }
    }

    /// A copy of `src`, refilling a recycled spare when one is available.
    pub fn copy_of(&self, src: &S) -> S {
        let spare = self.spares.lock().expect("state pool mutex").pop();
        match spare {
            Some(mut s) => {
                s.clone_from(src);
                s
            }
            None => src.clone(),
        }
    }

    /// Return a dead state's buffer to the pool (dropped if full).
    pub fn recycle(&self, state: S) {
        let mut spares = self.spares.lock().expect("state pool mutex");
        if spares.len() < self.cap {
            spares.push(state);
            self.high_water.fetch_max(spares.len(), Ordering::Relaxed);
        }
    }

    /// Number of spare buffers currently held.
    pub fn len(&self) -> usize {
        self.spares.lock().expect("state pool mutex").len()
    }

    /// Whether the free-list is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spare buffers currently held (alias kept for callers
    /// predating [`StatePool::len`]).
    pub fn spares(&self) -> usize {
        self.len()
    }

    /// The most spares ever held at once: the pool's memory high-water
    /// mark, bounded by its capacity.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Record that a buffer checked out of the pool was abandoned by a
    /// killed task. The buffer itself dies with the task's closure —
    /// leaked-and-counted, never recycled, so a later `copy_of` can
    /// never hand out a state an unfinished task still aliases.
    pub fn note_leak(&self) {
        self.leaked.fetch_add(1, Ordering::Relaxed);
    }

    /// Buffers recorded by [`StatePool::note_leak`].
    pub fn leaked(&self) -> usize {
        self.leaked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_all_tasks_and_waits() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..100 {
                scope.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_borrow_the_environment() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..64).collect();
        let sum = AtomicUsize::new(0);
        pool.scope(|scope| {
            for half in data.chunks(32) {
                scope.spawn(|| {
                    let s: u64 = half.iter().sum();
                    sum.fetch_add(s as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed) as u64, data.iter().sum::<u64>());
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|scope| {
            scope.spawn(|| {
                for _ in 0..10 {
                    scope.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn urgent_tasks_overtake_queued_ones() {
        // One worker, held busy while the queue fills; the urgent task
        // enqueued last must run before the normal tasks enqueued first.
        let pool = WorkerPool::new(1);
        let order = Mutex::new(Vec::new());
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        pool.scope(|scope| {
            let g = Arc::clone(&gate);
            scope.spawn(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
            for i in 0..3 {
                let order = &order;
                scope.spawn(move || order.lock().unwrap().push(format!("normal-{i}")));
            }
            let order = &order;
            scope.spawn_urgent(move || order.lock().unwrap().push("urgent".to_string()));
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
        assert_eq!(order.lock().unwrap()[0], "urgent");
    }

    #[test]
    fn urgent_lane_is_fifo_among_urgent_tasks() {
        // Regression: the urgent lane used to be a push_front onto the
        // shared queue, so several urgent tasks ran in *reverse* spawn
        // order — an overlapped rerun's segment 1 could be dispatched
        // before a replica batch spawned earlier. With a worker held
        // busy while three urgent tasks queue up, they must run in
        // spawn order, all still ahead of any normal task.
        let pool = WorkerPool::new(1);
        let order = Mutex::new(Vec::new());
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        pool.scope(|scope| {
            let g = Arc::clone(&gate);
            scope.spawn(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
            let order = &order;
            scope.spawn(move || order.lock().unwrap().push("normal".to_string()));
            for i in 0..3 {
                scope.spawn_urgent(move || order.lock().unwrap().push(format!("urgent-{i}")));
            }
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec!["urgent-0", "urgent-1", "urgent-2", "normal"]
        );
    }

    #[test]
    fn pool_is_reusable_across_scopes() {
        let pool = WorkerPool::new(2);
        for round in 0..5 {
            let hits = AtomicUsize::new(0);
            pool.scope(|scope| {
                for _ in 0..=round {
                    scope.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), round + 1);
        }
    }

    #[test]
    fn task_panic_fails_fast_with_original_payload() {
        // Regression: panic propagation used to surface only after the
        // scope ran every queued task to completion. With one worker the
        // panicking task runs first and must poison the scope: the eight
        // queued survivors are skipped, and the scope re-raises the
        // *original* payload.
        let pool = WorkerPool::new(1);
        let survivors = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&survivors);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    let s = Arc::clone(&s2);
                    scope.spawn(move || {
                        s.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"task boom"),
            "the original payload must surface, not a secondary error"
        );
        assert_eq!(
            survivors.load(Ordering::Relaxed),
            0,
            "queued tasks must be skipped once the scope is poisoned"
        );
    }

    #[test]
    fn recovered_panic_does_not_poison_later_scopes() {
        let pool = WorkerPool::new(2);
        for round in 0..3 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|scope| {
                    scope.spawn(|| panic!("boom {round}"));
                });
            }));
            assert!(result.is_err());
            // Poisoning is per scope: the pool immediately runs clean
            // work again, and a fresh scope reports unpoisoned.
            let ok = AtomicUsize::new(0);
            pool.scope(|scope| {
                assert!(!scope.poisoned());
                for _ in 0..4 {
                    scope.spawn(|| {
                        ok.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(ok.load(Ordering::Relaxed), 4);
        }
    }

    /// A doomed worker exits shortly *after* its job finishes; give the
    /// teardown a moment before asserting the live count.
    fn wait_live(pool: &WorkerPool, expect: usize) {
        for _ in 0..2_000 {
            if pool.live_workers() == expect {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.live_workers(), expect);
    }

    #[test]
    fn doomed_workers_degrade_then_revive_at_one() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.live_workers(), 2);
        // Kill one worker: the pool degrades and keeps working.
        pool.scope(|scope| {
            scope.spawn(doom_current_worker);
        });
        wait_live(&pool, 1);
        // Kill the survivor: an emergency replacement takes over, so the
        // pool still drains (sequentially) and never reads zero.
        let hits = AtomicUsize::new(0);
        pool.scope(|scope| {
            scope.spawn(doom_current_worker);
            for _ in 0..16 {
                scope.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn state_pool_counts_leaks_without_recycling() {
        let pool: StatePool<Vec<u64>> = StatePool::with_capacity(4);
        let a = pool.copy_of(&vec![1, 2, 3]);
        // A killed task abandons its buffer: counted, never recycled, so
        // no later checkout can alias it.
        drop(a);
        pool.note_leak();
        assert_eq!(pool.leaked(), 1);
        assert_eq!(pool.spares(), 0, "a leaked buffer must not reappear");
        let b = pool.copy_of(&vec![7]);
        assert_eq!(b, vec![7]);
        pool.recycle(b);
        assert_eq!(pool.spares(), 1);
        assert_eq!(pool.leaked(), 1, "recycling is independent of leaks");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
        assert!(WorkerPool::with_default_workers().workers() >= 1);
    }

    #[test]
    fn state_pool_recycles_buffers() {
        let pool: StatePool<Vec<u64>> = StatePool::with_capacity(2);
        let src = vec![1, 2, 3];
        let a = pool.copy_of(&src);
        assert_eq!(a, src);
        pool.recycle(a);
        assert_eq!(pool.spares(), 1);
        let b = pool.copy_of(&vec![9, 9]);
        assert_eq!(b, vec![9, 9]);
        assert_eq!(pool.spares(), 0);
        // Capacity bounds retained spares.
        pool.recycle(vec![1]);
        pool.recycle(vec![2]);
        pool.recycle(vec![3]);
        assert_eq!(pool.spares(), 2);
    }
}
