//! Deterministic data-parallel runtime for the AdvHunter pipeline.
//!
//! Every heavy stage of the pipeline — per-image instrumented traces,
//! per-(class, event) GMM fitting, batch NLL scoring — is embarrassingly
//! parallel, but the repo's reproducibility contract is *seeded
//! determinism everywhere*. This crate provides the two pieces that square
//! those requirements:
//!
//! * [`derive_seed`] — a SplitMix64-style pure function from a caller seed
//!   and an item index to an independent per-item seed. Because each
//!   item's randomness is a function of `(seed, index)` only, results
//!   never depend on which worker ran the item or in what order.
//! * [`with_crew`] — a persistent crew over scoped `std::thread`s (no
//!   dependencies, no unsafe): `min(threads, cores) − 1` helpers spawned
//!   once and parked between runs, with the calling thread as member 0.
//!   Each [`Crew::run`] has its members pull item indices from a shared
//!   atomic counter and reassembles the results in item order, so the
//!   output is bit-for-bit identical for any member count, including the
//!   exact sequential path of a one-member crew. Long-lived fan-outs (the
//!   monitor's micro-batches) keep one crew; [`parallel_map`] /
//!   [`parallel_tasks`] are a crew that does a single run.
//!
//! Thread count comes from [`Parallelism`]: defaults to the machine's
//! available cores, overridable with the `ADVHUNTER_THREADS` environment
//! variable, with `1` giving the plain sequential loop.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use advhunter_telemetry::{Counter, Histogram};

/// Telemetry handles for the crews, registered once in the global
/// registry. Purely observational: nothing here feeds back into
/// scheduling or results (the determinism contract), and the wall-clock
/// reads are skipped entirely when `advhunter_telemetry::disabled()`.
struct PoolMetrics {
    parallel_runs: Arc<Counter>,
    sequential_runs: Arc<Counter>,
    tasks: Arc<Counter>,
    workers: Arc<Counter>,
    worker_items: Arc<Histogram>,
    worker_busy_ns: Arc<Histogram>,
    worker_idle_ns: Arc<Histogram>,
}

/// Whether `ADVHUNTER_OVERSUBSCRIBE=1` asked crews to honour thread
/// requests beyond `available_parallelism`. Read once per process: the
/// knob exists for bench/CI harnesses that set it at launch.
fn oversubscribe_requested() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var("ADVHUNTER_OVERSUBSCRIBE").is_ok_and(|v| v == "1" || v == "true")
    })
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = advhunter_telemetry::global();
        PoolMetrics {
            parallel_runs: r.counter(
                "advhunter_runtime_parallel_runs_total",
                "Crew runs that woke helper threads",
            ),
            sequential_runs: r.counter(
                "advhunter_runtime_sequential_runs_total",
                "Crew runs that stayed on the calling thread (one item or one member)",
            ),
            tasks: r.counter(
                "advhunter_runtime_tasks_total",
                "Items executed across all crew runs",
            ),
            workers: r.counter(
                "advhunter_runtime_workers_total",
                "Helper threads spawned, once per crew",
            ),
            worker_items: r.histogram(
                "advhunter_runtime_worker_items",
                "Items one crew member claimed in one run (work-distribution balance)",
            ),
            worker_busy_ns: r.histogram(
                "advhunter_runtime_worker_busy_ns",
                "Per-member wall time spent inside item closures, per run",
            ),
            worker_idle_ns: r.histogram(
                "advhunter_runtime_worker_idle_ns",
                "Per-member wall time of a run not spent on items (parked, claiming or waiting)",
            ),
        }
    })
}

/// How many worker threads a parallel stage may use.
///
/// ```
/// use advhunter_runtime::Parallelism;
///
/// let seq = Parallelism::sequential();
/// assert_eq!(seq.threads(), 1);
/// let four = Parallelism::new(4);
/// assert_eq!(four.threads(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly `threads` workers; `0` is promoted to `1`.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The exact sequential path: one worker, no thread spawns.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// One worker per available core (ignoring `ADVHUNTER_THREADS`).
    pub fn available_cores() -> Self {
        Self {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The environment-driven default: `ADVHUNTER_THREADS` if set to a
    /// positive integer, otherwise one worker per available core.
    pub fn from_env() -> Self {
        match std::env::var("ADVHUNTER_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Self::new(n),
                _ => Self::available_cores(),
            },
            Err(_) => Self::available_cores(),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// How many members [`with_crew`] runs for this parallelism: the
    /// thread count, capped at the available cores unless
    /// `ADVHUNTER_OVERSUBSCRIBE=1` lifts the cap.
    pub fn crew_members(&self) -> usize {
        let core_cap = if oversubscribe_requested() {
            usize::MAX
        } else {
            std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get)
        };
        self.threads().min(core_cap)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Execution options shared by every deterministic batch entry point: the
/// seed that roots all per-item random streams plus the worker count.
///
/// The unified pipeline APIs (`collect_template`, `Detector::fit`,
/// `measure_dataset`, `measure_examples`, the monitor service) all take an
/// `ExecOptions` instead of separate `rng`/`seed`/`parallelism` arguments.
/// Under the runtime's determinism contract the `parallelism` field never
/// changes results — only `seed` does.
///
/// ```
/// use advhunter_runtime::{ExecOptions, Parallelism};
///
/// let opts = ExecOptions::seeded(42).with_threads(4);
/// assert_eq!(opts.seed, 42);
/// assert_eq!(opts.parallelism.threads(), 4);
/// assert_eq!(ExecOptions::sequential(7).parallelism, Parallelism::sequential());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Root seed for derived per-item random streams.
    pub seed: u64,
    /// Worker count for the parallel stages.
    pub parallelism: Parallelism,
}

impl ExecOptions {
    /// Options with an explicit seed and worker count.
    pub fn new(seed: u64, parallelism: Parallelism) -> Self {
        Self { seed, parallelism }
    }

    /// A validating builder starting from the defaults ([`Self::default`]):
    /// seed `0`, environment-driven worker count.
    pub fn builder() -> ExecOptionsBuilder {
        ExecOptionsBuilder::default()
    }

    /// Options with the environment-driven default worker count
    /// (`ADVHUNTER_THREADS`, else available cores).
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, Parallelism::default())
    }

    /// Options running the exact sequential path.
    pub fn sequential(seed: u64) -> Self {
        Self::new(seed, Parallelism::sequential())
    }

    /// The same options with `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = Parallelism::new(threads);
        self
    }

    /// The same options with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Options for pipeline stage `stage`, with an independent seed derived
    /// from this one via [`derive_seed`]. Lets one root seed drive a whole
    /// multi-stage pipeline without correlated streams:
    ///
    /// ```
    /// use advhunter_runtime::ExecOptions;
    ///
    /// let root = ExecOptions::seeded(42);
    /// assert_ne!(root.stage(0).seed, root.stage(1).seed);
    /// assert_eq!(root.stage(1), root.stage(1));
    /// ```
    pub fn stage(&self, stage: u64) -> Self {
        Self {
            seed: derive_seed(self.seed, stage),
            parallelism: self.parallelism,
        }
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self::seeded(0)
    }
}

/// Validation failures from [`ExecOptionsBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecOptionsError {
    /// `threads(0)` was requested. [`Parallelism::new`] silently promotes
    /// zero to one; the builder instead reports the contradiction so
    /// callers wiring thread counts from config files catch the mistake.
    ZeroThreads,
}

impl std::fmt::Display for ExecOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroThreads => {
                write!(f, "thread count must be at least 1 (got 0)")
            }
        }
    }
}

impl std::error::Error for ExecOptionsError {}

/// Builder for [`ExecOptions`] that rejects nonsensical settings with a
/// typed [`ExecOptionsError`] instead of silently normalising them — the
/// same contract as `DetectorConfig::builder()` in the core crate.
///
/// ```
/// use advhunter_runtime::{ExecOptions, ExecOptionsError};
///
/// let opts = ExecOptions::builder().seed(42).threads(4).build().unwrap();
/// assert_eq!(opts.seed, 42);
/// assert_eq!(opts.parallelism.threads(), 4);
/// assert_eq!(
///     ExecOptions::builder().threads(0).build(),
///     Err(ExecOptionsError::ZeroThreads)
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecOptionsBuilder {
    seed: u64,
    threads: Option<usize>,
}

impl ExecOptionsBuilder {
    /// Root seed for derived per-item random streams (default `0`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit worker count. When unset, [`build`](Self::build) falls
    /// back to the environment-driven default ([`Parallelism::from_env`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Validates and produces the options.
    ///
    /// Returns an [`ExecOptionsError`] naming the first invalid field.
    pub fn build(self) -> Result<ExecOptions, ExecOptionsError> {
        let parallelism = match self.threads {
            Some(0) => return Err(ExecOptionsError::ZeroThreads),
            Some(t) => Parallelism::new(t),
            None => Parallelism::default(),
        };
        Ok(ExecOptions::new(self.seed, parallelism))
    }
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the seed of item `index`'s private random stream from the
/// caller's `seed`.
///
/// SplitMix64 output function over the state `seed + (index + 1)·γ`: for a
/// fixed `seed` the map is injective in `index` (the additive step is a
/// bijection of `u64` and the finalizer is a bijection), so distinct items
/// always receive distinct seeds, and the result is a pure function of
/// `(seed, index)` — the property that makes parallel batch results
/// independent of scheduling.
///
/// ```
/// use advhunter_runtime::derive_seed;
///
/// assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
/// assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
/// ```
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f(index)` for every `index in 0..n` and returns the results in
/// index order, fanning out over a one-run [`Crew`].
///
/// `f` must be a pure function of `index` (plus captured shared state) for
/// the determinism guarantee to mean anything; under that contract the
/// output is identical for every thread count. A panic in any member is
/// propagated to the caller with its original payload.
pub fn parallel_tasks<R, F>(parallelism: &Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_tasks_with(parallelism, n, || (), |(), i| f(i))
}

/// [`parallel_tasks`] with per-worker scratch state: every worker calls
/// `init()` once and then runs `f(&mut state, index)` for each item it
/// pulls.
///
/// This is the hook for reusable workspaces (e.g. preallocated activation
/// buffers): the state amortizes across a worker's items without being
/// shared between threads. The determinism contract still requires each
/// *result* to be a pure function of `index` — the state may cache buffers
/// but must not leak information from one item into the next item's output.
///
/// It is a crew of at most `n` members that does a single run; callers
/// that fan out repeatedly should keep one [`with_crew`] alive instead.
pub fn parallel_tasks_with<S, R, I, F>(parallelism: &Parallelism, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let members = Parallelism::new(parallelism.threads().min(n));
    with_crew(
        &members,
        init,
        |state, i, _: &()| f(state, i),
        |crew| crew.run(vec![(); n]).1,
    )
}

/// Runs `body` with a persistent [`Crew`]: `min(threads, cores) − 1`
/// helper threads, spawned once inside one `std::thread::scope` and parked
/// between runs, plus the calling thread as member 0.
///
/// `init` and `f` are fixed for the crew's lifetime, so they may borrow
/// anything that outlives this call. Every member calls `init()` once,
/// lazily before its first item, and keeps that state until the crew
/// closes; [`Crew::run`] then applies `f(&mut state, index, &item)` to a
/// run's items. The same determinism contract as [`parallel_tasks_with`]
/// holds: a result must be a pure function of its item and index.
///
/// The crew closes when `body` returns or unwinds: parked helpers wake,
/// exit, and are joined before this call returns.
///
/// ```
/// use advhunter_runtime::{with_crew, Parallelism};
///
/// let sums = with_crew(
///     &Parallelism::new(2),
///     Vec::<u64>::new,
///     |scratch, _, x: &u64| {
///         scratch.push(*x);
///         x * 10
///     },
///     |crew| {
///         let mut total = 0;
///         for batch in [vec![1, 2, 3], vec![4], vec![]] {
///             let (items, out) = crew.run(batch);
///             assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
///             total += out.iter().sum::<u64>();
///         }
///         total
///     },
/// );
/// assert_eq!(sums, 100);
/// ```
pub fn with_crew<S, T, R, I, F, B, O>(parallelism: &Parallelism, init: I, f: F, body: B) -> O
where
    T: Send + Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    B: FnOnce(&mut Crew<'_, S, T, R>) -> O,
{
    // Never oversubscribe: the members are CPU-bound, so more of them
    // than there are cores only adds context switches and cache ping-pong
    // between per-member scratch states. Results are identical for any
    // member count (the determinism contract), so capping a too-large
    // request is observationally safe. ADVHUNTER_OVERSUBSCRIBE=1 lifts the
    // cap for harnesses that deliberately run more members than cores
    // (e.g. exercising the real crew topology on a single-core CI
    // container); results are unchanged, only scheduling.
    let members = parallelism.crew_members();
    let hub = Hub::new(members - 1);
    std::thread::scope(|scope| {
        let _close = CloseOnDrop(&hub);
        for _ in 1..members {
            std::thread::Builder::new()
                .name("advhunter-crew".into())
                .spawn_scoped(scope, || help(&hub, &init, &f))
                .expect("failed to spawn crew helper thread");
        }
        pool_metrics().workers.add(members as u64 - 1);
        body(&mut Crew {
            hub: &hub,
            init: &init,
            f: &f,
            state: None,
            members,
        })
    })
}

/// A persistent crew: the calling thread plus helper threads parked
/// between runs. Built by [`with_crew`].
pub struct Crew<'a, S, T, R> {
    hub: &'a Hub<T, R>,
    init: &'a (dyn Fn() -> S + Sync),
    f: &'a (dyn Fn(&mut S, usize, &T) -> R + Sync),
    /// Member 0's state: the calling thread's, created on its first item.
    state: Option<S>,
    /// Members in this crew, the calling thread included.
    members: usize,
}

impl<S, T: Send + Sync, R: Send> Crew<'_, S, T, R> {
    /// Applies the crew's `f` to every item and returns the items with
    /// their results in item order: `out[i] = f(&mut state, i, &items[i])`.
    ///
    /// Members claim item indices from one shared counter. A run of one
    /// item, or any run of a one-member crew, stays on the calling thread
    /// and wakes no helper; an empty run does nothing at all.
    ///
    /// # Panics
    ///
    /// Re-raises, with its original payload, a panic from `f` or `init` in
    /// any member, after every member has left the run. A member that
    /// panicked drops its state, which may be half-updated, and stays in
    /// the crew: the next run has every member again.
    pub fn run(&mut self, items: Vec<T>) -> (Vec<T>, Vec<R>) {
        let n = items.len();
        if n == 0 {
            return (items, Vec::new());
        }
        let metrics = pool_metrics();
        metrics.tasks.add(n as u64);
        let started = advhunter_telemetry::now();
        let hub = self.hub;
        let items = Arc::new(items);
        hub.next.store(0, Ordering::Relaxed);
        let fan_out = n > 1 && self.members > 1;
        if fan_out {
            metrics.parallel_runs.inc();
            let mut control = hub.lock();
            control.run += 1;
            control.items = Some(Arc::clone(&items));
            control.shares.clear();
            control.panic = None;
            drop(control);
            hub.wake.notify_all();
        } else {
            metrics.sequential_runs.inc();
        }
        let mine = std::panic::catch_unwind(AssertUnwindSafe(|| {
            claim(
                &hub.next,
                &items,
                &mut self.state,
                self.init,
                self.f,
                started.is_some(),
            )
        }));
        if mine.is_err() {
            // A panicking member's state may be half-updated: rebuild it.
            self.state = None;
            hub.next.store(n, Ordering::Relaxed);
        }
        let (mut shares, helper_panic) = if fan_out {
            // Close the run to late helpers and wait out the ones in it.
            let mut control = hub.lock();
            control.items = None;
            while control.active > 0 {
                control = hub
                    .done
                    .wait(control)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            (std::mem::take(&mut control.shares), control.panic.take())
        } else {
            (Vec::new(), None)
        };
        match (mine, helper_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => std::panic::resume_unwind(payload),
            (Ok(mine), None) => shares.push(mine),
        }
        record_run(started, self.members, &shares);
        let mut results: Vec<(usize, R)> = shares.into_iter().flat_map(|s| s.results).collect();
        results.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(results.len(), n, "every item ran exactly once");
        let items = Arc::into_inner(items).expect("every helper left the run");
        (items, results.into_iter().map(|(_, r)| r).collect())
    }

    /// Members in the crew now, the calling thread included: the count it
    /// was built with, for as long as it is open, whatever panicked in it.
    pub fn members(&self) -> usize {
        1 + self.hub.lock().helpers
    }
}

/// What one member did in one run: its `(index, result)` pairs and the
/// wall time it spent inside `init`/`f`.
struct Share<R> {
    results: Vec<(usize, R)>,
    busy: Duration,
}

/// The one claim loop every member runs: pull item indices from `next`
/// until they run out, timing each item when `timed`.
fn claim<S, T, R>(
    next: &AtomicUsize,
    items: &[T],
    state: &mut Option<S>,
    init: &dyn Fn() -> S,
    f: &dyn Fn(&mut S, usize, &T) -> R,
    timed: bool,
) -> Share<R> {
    let mut share = Share {
        results: Vec::new(),
        busy: Duration::ZERO,
    };
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            return share;
        };
        let start = timed.then(Instant::now);
        let state = state.get_or_insert_with(init);
        share.results.push((i, f(state, i, item)));
        if let Some(start) = start {
            share.busy += start.elapsed();
        }
    }
}

/// Records one run's per-member items, busy and idle time. Members that
/// never joined the run (parked through it) count as wholly idle.
fn record_run<R>(started: Option<Instant>, members: usize, shares: &[Share<R>]) {
    let Some(started) = started else {
        return;
    };
    let wall = started.elapsed();
    let metrics = pool_metrics();
    let absent = members.saturating_sub(shares.len());
    let joined = shares.iter().map(|s| (s.results.len(), s.busy));
    for (items, busy) in joined.chain(std::iter::repeat_n((0, Duration::ZERO), absent)) {
        metrics.worker_items.record(items as u64);
        metrics.worker_busy_ns.record_duration(busy);
        metrics
            .worker_idle_ns
            .record_duration(wall.saturating_sub(busy));
    }
}

/// Hand-off state between a crew's calling thread and its helpers.
struct Control<T, R> {
    /// Bumped by every run that wakes the helpers.
    run: u64,
    /// The current run's items while it admits helpers; `None` once the
    /// calling thread has closed it.
    items: Option<Arc<Vec<T>>>,
    /// Helpers inside the current run that have not reported back.
    active: usize,
    /// What each helper that took part in the current run reported.
    shares: Vec<Share<R>>,
    /// The first panic a helper raised in the current run.
    panic: Option<Box<dyn Any + Send>>,
    /// Helpers still parked or running: they leave only when the crew
    /// closes.
    helpers: usize,
    /// Set when the crew closes: helpers exit.
    closed: bool,
}

struct Hub<T, R> {
    control: Mutex<Control<T, R>>,
    /// Helpers park here between runs.
    wake: Condvar,
    /// The calling thread parks here until the run's helpers report.
    done: Condvar,
    /// The next unclaimed item index of the current run. `Relaxed` is
    /// enough: the counter publishes no data, because items, results and
    /// the reset before each run all pass through the `control` mutex.
    next: AtomicUsize,
}

impl<T, R> Hub<T, R> {
    fn new(helpers: usize) -> Self {
        Self {
            control: Mutex::new(Control {
                run: 0,
                items: None,
                active: 0,
                shares: Vec::new(),
                panic: None,
                helpers,
                closed: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        }
    }

    /// No user code ever runs under this lock, so a poisoned lock still
    /// guards consistent state.
    fn lock(&self) -> MutexGuard<'_, Control<T, R>> {
        self.control.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes the crew when [`with_crew`]'s body returns or unwinds, so no
/// helper stays parked and the scope's join cannot hang.
struct CloseOnDrop<'a, T, R>(&'a Hub<T, R>);

impl<T, R> Drop for CloseOnDrop<'_, T, R> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.wake.notify_all();
    }
}

/// A helper's life: park until a run opens, claim items from it, report,
/// repeat until the crew closes. A panic is handed to the calling thread;
/// the helper drops its state, like the calling thread, and parks for the
/// next run.
fn help<S, T, R>(hub: &Hub<T, R>, init: &dyn Fn() -> S, f: &dyn Fn(&mut S, usize, &T) -> R) {
    let mut state = None;
    let mut seen = 0;
    loop {
        let items = {
            let mut control = hub.lock();
            loop {
                if control.closed {
                    control.helpers -= 1;
                    return;
                }
                if control.run != seen {
                    seen = control.run;
                    if let Some(items) = &control.items {
                        let items = Arc::clone(items);
                        control.active += 1;
                        break items;
                    }
                }
                control = hub
                    .wake
                    .wait(control)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let timed = advhunter_telemetry::enabled();
        let share = std::panic::catch_unwind(AssertUnwindSafe(|| {
            claim(&hub.next, &items, &mut state, init, f, timed)
        }));
        if share.is_err() {
            state = None;
            hub.next.store(items.len(), Ordering::Relaxed);
        }
        drop(items);
        let mut control = hub.lock();
        control.active -= 1;
        match share {
            Ok(share) => control.shares.push(share),
            Err(payload) => {
                control.panic.get_or_insert(payload);
            }
        }
        if control.active == 0 {
            hub.done.notify_one();
        }
    }
}

/// Order-preserving parallel map over a slice: `out[i] = f(i, &items[i])`.
///
/// See [`parallel_tasks`] for the determinism contract.
pub fn parallel_map<T, R, F>(parallelism: &Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_tasks(parallelism, items.len(), |i| f(i, &items[i]))
}

/// [`parallel_map`] with per-worker scratch state (see
/// [`parallel_tasks_with`]): `out[i] = f(&mut state, i, &items[i])`.
pub fn parallel_map_with<S, T, R, I, F>(
    parallelism: &Parallelism,
    items: &[T],
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    parallel_tasks_with(parallelism, items.len(), init, |state, i| {
        f(state, i, &items[i])
    })
}

/// Runs `f(&mut state, i, &mut items[i])` for every item over a one-run
/// crew, with one scratch state per member as in [`parallel_tasks_with`].
///
/// Each item goes to exactly one member, so items can be disjoint `&mut`
/// views of one output buffer (a batch's per-image slices, a matrix's row
/// blocks) that the members fill in place. The determinism contract is
/// the same: what `f` writes into an item must be a pure function of the
/// item and its index.
///
/// Every member's state is built by `init` on the calling thread before
/// the run. Large scratch buffers then come from the caller's allocator
/// arena: built on short-lived helper threads, they spread over one arena
/// per helper and the process keeps several megabytes more resident.
pub fn parallel_for_each_mut_with<S, T, I, F>(
    parallelism: &Parallelism,
    items: &mut [T],
    init: I,
    f: F,
) where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let members = Parallelism::new(parallelism.threads().min(items.len())).crew_members();
    let states = Mutex::new((0..members).map(|_| init()).collect::<Vec<S>>());
    // Every index is claimed once, so each lock is taken exactly once and
    // can be neither contended nor poisoned.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    parallel_tasks_with(
        parallelism,
        slots.len(),
        || {
            let spare = states.lock().expect("states are only popped").pop();
            spare.unwrap_or_else(&init)
        },
        |state, i| {
            let mut item = slots[i].lock().expect("each item is locked once");
            f(state, i, &mut item);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mut_fills_disjoint_items_at_any_thread_count() {
        let expect: Vec<u64> = (0..37u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 8] {
            let mut out = vec![0u64; 37];
            let mut chunks: Vec<&mut [u64]> = out.chunks_mut(5).collect();
            parallel_for_each_mut_with(
                &Parallelism::new(threads),
                &mut chunks,
                Vec::<u64>::new,
                |scratch, i, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        let x = (i * 5 + j) as u64;
                        scratch.push(x);
                        *v = x * x + 1;
                    }
                },
            );
            assert_eq!(out, expect, "{threads} threads");
        }
    }

    #[test]
    fn for_each_mut_builds_every_state_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let built = Mutex::new(Vec::new());
        let mut items = vec![0u8; 16];
        parallel_for_each_mut_with(
            &Parallelism::new(4),
            &mut items,
            || built.lock().unwrap().push(std::thread::current().id()),
            |(), _, item| *item += 1,
        );
        assert_eq!(items, vec![1u8; 16]);
        let built = built.into_inner().unwrap();
        assert!(!built.is_empty());
        assert!(built.iter().all(|&id| id == caller), "{built:?}");
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let square = |_i: usize, x: &u64| x * x + derive_seed(5, *x);
        let seq = parallel_map(&Parallelism::sequential(), &items, square);
        for threads in [2, 3, 4, 8] {
            let par = parallel_map(&Parallelism::new(threads), &items, square);
            assert_eq!(seq, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&Parallelism::new(4), &items, |i, _| i);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_tiny_inputs_work_at_any_thread_count() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&Parallelism::new(8), &empty, |_, x| *x).is_empty());
        let one = [41u8];
        assert_eq!(
            parallel_map(&Parallelism::new(8), &one, |_, x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn worker_panics_propagate() {
        let items = [0u8; 16];
        let result = std::panic::catch_unwind(|| {
            parallel_map(&Parallelism::new(4), &items, |i, _| {
                assert!(i != 7, "boom at 7");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn parallelism_clamps_and_reads_env() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert!(Parallelism::available_cores().threads() >= 1);
        // Restore whatever the harness set (CI runs with a fixed count),
        // so later tests in this binary see the same environment.
        let saved = std::env::var_os("ADVHUNTER_THREADS");
        std::env::set_var("ADVHUNTER_THREADS", "3");
        assert_eq!(Parallelism::from_env().threads(), 3);
        std::env::set_var("ADVHUNTER_THREADS", "not-a-number");
        assert!(Parallelism::from_env().threads() >= 1);
        match saved {
            Some(v) => std::env::set_var("ADVHUNTER_THREADS", v),
            None => std::env::remove_var("ADVHUNTER_THREADS"),
        }
    }

    /// Float work whose bits depend on the item and index only.
    fn mix(i: usize, x: &u64) -> f64 {
        (derive_seed(*x, i as u64) as f64).sqrt() / (i as f64 + 0.5)
    }

    #[test]
    fn crew_runs_match_the_sequential_loop_at_every_size() {
        let batches: Vec<Vec<u64>> = [0, 1, 2, 7, 64, 257]
            .iter()
            .map(|&len| (0..len).map(|x| x * 31 + len).collect())
            .collect();
        let expected: Vec<Vec<u64>> = batches
            .iter()
            .map(|b| {
                b.iter()
                    .enumerate()
                    .map(|(i, x)| mix(i, x).to_bits())
                    .collect()
            })
            .collect();
        for members in [1, 2, 3, 4, 8] {
            let got = with_crew(
                &Parallelism::new(members),
                || (),
                |(), i, x: &u64| mix(i, x).to_bits(),
                |crew| {
                    assert!(crew.members <= members);
                    batches
                        .iter()
                        .map(|b| {
                            let (items, out) = crew.run(b.clone());
                            assert_eq!(&items, b, "run hands its items back");
                            out
                        })
                        .collect::<Vec<_>>()
                },
            );
            assert_eq!(got, expected, "{members}-member crew changed results");
        }
    }

    #[test]
    fn helpers_are_spawned_once_and_reused_across_runs() {
        use std::collections::HashSet;
        let seen = Mutex::new(HashSet::new());
        let inits = AtomicUsize::new(0);
        let members = with_crew(
            &Parallelism::new(4),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i, _: &u8| {
                seen.lock().unwrap().insert(std::thread::current().id());
                i
            },
            |crew| {
                for _ in 0..200 {
                    assert_eq!(crew.run(vec![0; 4]).1, vec![0, 1, 2, 3]);
                }
                crew.members
            },
        );
        assert!(
            seen.lock().unwrap().len() <= members,
            "helpers were respawned"
        );
        assert!(
            inits.load(Ordering::Relaxed) <= members,
            "one init per member"
        );
    }

    #[test]
    fn one_item_run_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let inits = AtomicUsize::new(0);
        with_crew(
            &Parallelism::new(4),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _, _: &()| std::thread::current().id(),
            |crew| {
                for _ in 0..20 {
                    assert_eq!(crew.run(vec![()]).1, vec![caller]);
                }
            },
        );
        assert_eq!(
            inits.load(Ordering::Relaxed),
            1,
            "only the caller initialised"
        );
    }

    #[test]
    fn empty_run_skips_init() {
        let out = with_crew(
            &Parallelism::new(4),
            || panic!("init must not run for an empty run"),
            |_: &mut (), i, _: &u8| i,
            |crew| crew.run(Vec::new()),
        );
        assert!(out.0.is_empty() && out.1.is_empty());
    }

    /// Counts drops, so a test can tell every member's state was released.
    struct Tally<'a>(&'a AtomicUsize);

    impl Drop for Tally<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn payload_text(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn member_panic_reaches_the_caller_and_the_helpers_exit() {
        let inits = AtomicUsize::new(0);
        let drops = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            with_crew(
                &Parallelism::new(4),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Tally(&drops)
                },
                |_, i, _: &()| {
                    assert!(i != 7, "boom at 7");
                    i
                },
                |crew| crew.run(vec![(); 16]),
            )
        });
        let payload = result.expect_err("the panic on item 7 must surface");
        assert!(payload_text(&*payload).contains("boom at 7"));
        // Every member's state is dropped only once its thread is done.
        assert_eq!(drops.load(Ordering::Relaxed), inits.load(Ordering::Relaxed));
    }

    #[test]
    fn crew_runs_report_every_member_into_the_runtime_families() {
        let family_count = |name: &str| {
            advhunter_telemetry::global()
                .snapshot()
                .histogram(name)
                .map_or(0, |h| h.count)
        };
        let idle_before = family_count("advhunter_runtime_worker_idle_ns");
        let members = with_crew(
            &Parallelism::new(2),
            || (),
            |(), i, _: &u8| i,
            |crew| {
                for _ in 0..5 {
                    crew.run(vec![0; 4]);
                }
                crew.members as u64
            },
        );
        // One idle sample per member per run, parked helpers included.
        // Other tests record concurrently, so the count can only grow more.
        assert!(family_count("advhunter_runtime_worker_idle_ns") >= idle_before + 5 * members);
    }

    #[test]
    fn crew_keeps_serving_after_a_caught_panic() {
        with_crew(
            &Parallelism::new(3),
            || (),
            |(), i, fail: &bool| {
                assert!(!fail, "boom at {i}");
                i * 3
            },
            |crew| {
                let mut poisoned = vec![false; 12];
                poisoned[5] = true;
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| crew.run(poisoned)));
                assert!(payload_text(&*caught.unwrap_err()).contains("boom at 5"));
                let (_, out) = crew.run(vec![false; 12]);
                assert_eq!(out, (0..12).map(|i| i * 3).collect::<Vec<_>>());
                assert_eq!(crew.members(), crew.members);
            },
        );
    }

    #[test]
    fn a_helper_that_panics_stays_in_the_crew() {
        use std::sync::Barrier;
        let members = Parallelism::new(2).crew_members();
        // Every item waits at a barrier of all members, so each run's
        // items are spread over the whole crew: the helper takes one.
        let barrier = Barrier::new(members);
        with_crew(
            &Parallelism::new(2),
            || (),
            |(), i, fail: &bool| {
                barrier.wait();
                assert!(!fail, "boom at {i}");
                std::thread::current().name() == Some("advhunter-crew")
            },
            |crew| {
                for _ in 0..3 {
                    let poisoned = vec![true; members];
                    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| crew.run(poisoned)));
                    assert!(payload_text(&*caught.unwrap_err()).contains("boom at"));
                    assert_eq!(crew.members(), members);
                    let (_, on_helper) = crew.run(vec![false; members]);
                    assert_eq!(
                        on_helper.iter().filter(|&&h| h).count(),
                        members - 1,
                        "every helper ran an item after the panic"
                    );
                }
            },
        );
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let out = parallel_tasks_with(
            &Parallelism::new(3),
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::with_capacity(8)
            },
            |scratch, i| {
                scratch.push(i);
                i * 2
            },
        );
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= 3, "one init per worker");
    }

    #[test]
    fn stateful_map_matches_stateless_at_any_thread_count() {
        let items: Vec<u64> = (0..123).collect();
        let seq = parallel_map(&Parallelism::sequential(), &items, |i, x| {
            derive_seed(*x, i as u64)
        });
        for threads in [1, 2, 5] {
            let par = parallel_map_with(
                &Parallelism::new(threads),
                &items,
                || (),
                |(), i, x| derive_seed(*x, i as u64),
            );
            assert_eq!(seq, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn empty_input_skips_state_init() {
        let out = parallel_tasks_with(
            &Parallelism::new(4),
            0,
            || panic!("init must not run for empty input"),
            |_: &mut (), i| i,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn exec_options_builders_compose() {
        let opts = ExecOptions::new(9, Parallelism::new(2));
        assert_eq!(opts.with_seed(10).seed, 10);
        assert_eq!(opts.with_threads(8).parallelism.threads(), 8);
        assert_eq!(opts.with_seed(10).parallelism, opts.parallelism);
        // Stage derivation is pure and injective across stage indices.
        assert_eq!(opts.stage(3), opts.stage(3));
        assert_ne!(opts.stage(3).seed, opts.stage(4).seed);
        assert_eq!(opts.stage(3).parallelism, opts.parallelism);
    }

    #[test]
    fn builder_validates_and_mirrors_constructors() {
        let opts = ExecOptions::builder().seed(9).threads(2).build().unwrap();
        assert_eq!(opts, ExecOptions::new(9, Parallelism::new(2)));
        assert_eq!(
            ExecOptions::builder().threads(0).build(),
            Err(ExecOptionsError::ZeroThreads)
        );
        // Unset threads falls back to the environment-driven default.
        let defaulted = ExecOptions::builder().seed(3).build().unwrap();
        assert_eq!(defaulted.seed, 3);
        assert!(defaulted.parallelism.threads() >= 1);
        assert_eq!(
            ExecOptionsError::ZeroThreads.to_string(),
            "thread count must be at least 1 (got 0)"
        );
    }

    #[test]
    fn derived_seeds_are_distinct_across_indices() {
        let seen: std::collections::HashSet<u64> =
            (0..10_000).map(|i| derive_seed(123, i)).collect();
        assert_eq!(seen.len(), 10_000);
    }
}
