//! The parallel executors: work-stealing and static scheduling, behind
//! the unified [`Executor`] entry point.
//!
//! All chunk and join work runs panic-isolated: a panicking worker is
//! caught ([`std::panic::catch_unwind`]), its chunk retried once on the
//! calling thread, and if the retry fails too the whole plan degrades to
//! a sequential re-execution — reported via [`RunOutcome::degraded`].
//!
//! Every execution mode is a method on [`Executor`] (`run`,
//! `run_map_only`, their index-range forms `run_range` /
//! `run_map_only_range`, `reduce_tree`, and the streaming
//! [`Executor::stream`] / [`Executor::run_stream`] sessions of
//! [`crate::stream`]). The batch modes share one scheduling routine: it
//! cuts the chunks, runs them on worker threads, isolates panics,
//! retries and degrades.

use crate::error::RuntimeError;
use crate::task::{DncTask, MapOnlyTask, RangeDncTask, RangeMapOnlyTask};
use crossbeam::deque::{Steal, Stealer, Worker};
use parsynt_trace as trace;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fault-injection argument threaded through the executors: a real
/// [`crate::faults::FaultPlan`] under the `fault-inject` feature, an
/// uninhabited placeholder otherwise so release builds compile every
/// injection site away.
#[cfg(feature = "fault-inject")]
type FaultArg<'a> = Option<&'a crate::faults::FaultPlan>;
#[cfg(not(feature = "fault-inject"))]
type FaultArg<'a> = Option<&'a std::convert::Infallible>;

#[cfg(feature = "fault-inject")]
#[inline]
fn inject(faults: FaultArg<'_>, chunk: usize, attempt: u32) -> bool {
    faults.is_some_and(|plan| plan.apply(chunk, attempt))
}

#[cfg(not(feature = "fault-inject"))]
#[inline]
fn inject(_faults: FaultArg<'_>, _chunk: usize, _attempt: u32) -> bool {
    false
}

/// Render a panic payload for trace events and [`RuntimeError`]s.
pub(crate) fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

pub(crate) fn emit_worker_panic(chunk: usize, attempt: u32, payload: &str) {
    if trace::enabled() {
        trace::point(
            "execute",
            "worker_panic",
            &[
                ("chunk", chunk.into()),
                ("attempt", attempt.into()),
                ("payload", payload.into()),
            ],
        );
    }
}

/// The result of a panic-isolated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome<A> {
    /// The computed accumulator.
    pub value: A,
    /// Whether the parallel plan was abandoned and the value computed by
    /// the sequential fallback instead.
    pub degraded: bool,
    /// Chunks whose first attempt panicked (or was poisoned) and whose
    /// retry succeeded.
    pub recovered_chunks: usize,
}

/// Scheduling backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// TBB-flavoured: grain-sized tasks on per-worker deques with
    /// stealing. Better load balance, slightly higher overhead.
    WorkStealing,
    /// OpenMP-flavoured static scheduling: one contiguous chunk per
    /// thread, no stealing.
    Static,
}

/// Which engine executes a synthesized plan's hot path.
///
/// Native [`crate::DncTask`]s are already compiled Rust and ignore this
/// knob; it selects how synthesized plans (`parsynt-core`'s
/// `run_plan_checked` / `run_stream_checked`) run their per-chunk work:
/// lowered to fused native chunk kernels, or walked by the AST
/// interpreter. The compiled engine falls
/// back to the interpreter automatically for plan shapes the compiler
/// does not cover (surfaced via a `compile_fallback` trace event), so
/// results are byte-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Lower the plan to fused native chunk kernels (the default); the
    /// interpreter remains the differential oracle and the automatic
    /// fallback.
    #[default]
    Compiled,
    /// Force the AST interpreter on the hot path.
    Interp,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "compiled" => Ok(Engine::Compiled),
            "interp" => Ok(Engine::Interp),
            other => Err(format!(
                "unknown engine '{other}' (expected 'compiled' or 'interp')"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Compiled => "compiled",
            Engine::Interp => "interp",
        })
    }
}

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Grain size in items (the paper's experiments use 50k elements).
    /// Inputs of at most `grain` items run as one chunk on the calling
    /// thread under either backend; the work-stealing backend also cuts
    /// larger inputs into `grain`-sized chunks.
    pub grain: usize,
    /// Scheduling backend.
    pub backend: Backend,
    /// Plan execution engine (compiled kernels vs interpreter); native
    /// tasks ignore it.
    pub engine: Engine,
}

impl RunConfig {
    /// A work-stealing configuration with the paper's 50k grain.
    pub fn work_stealing(threads: usize) -> Self {
        RunConfig {
            threads,
            grain: 50_000,
            backend: Backend::WorkStealing,
            engine: Engine::Compiled,
        }
    }

    /// A static-scheduling configuration.
    pub fn static_schedule(threads: usize) -> Self {
        RunConfig {
            threads,
            grain: 50_000,
            backend: Backend::Static,
            engine: Engine::Compiled,
        }
    }

    /// Override the grain size.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain.max(1);
        self
    }

    /// Override the scheduling backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Override the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the plan execution engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

impl Default for RunConfig {
    /// Work-stealing over every available core with the paper's 50k
    /// grain — the setup of the §9 experiments.
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        RunConfig::work_stealing(threads)
    }
}

/// The unified executor: one configured entry point for every execution
/// mode — batch divide-and-conquer ([`Executor::run`]), map-only
/// ([`Executor::run_map_only`]), partial-list reduction
/// ([`Executor::reduce_tree`]), and streaming online aggregation
/// ([`Executor::stream`] / [`Executor::run_stream`]).
///
/// Construction is free; the executor holds only configuration and can
/// be reused across runs (and shared: it is `Clone`).
///
/// ```
/// use parsynt_runtime::{DncTask, Executor, RunConfig};
/// struct Sum;
/// impl DncTask for Sum {
///     type Item = i64;
///     type Acc = i64;
///     fn identity(&self) -> i64 { 0 }
///     fn work(&self, chunk: &[i64]) -> i64 { chunk.iter().sum() }
///     fn join(&self, l: i64, r: i64) -> i64 { l + r }
/// }
/// let exec = Executor::new(RunConfig::work_stealing(4).with_grain(2));
/// let data = [1i64, 2, 3, 4, 5];
/// assert_eq!(exec.run(&Sum, &data).unwrap().value, 15);
/// assert_eq!(exec.run_sequential(&Sum, &data), 15);
/// // Streaming: same result, one chunk at a time.
/// assert_eq!(exec.run_stream(&Sum, data.chunks(2)).unwrap().value, 15);
/// ```
///
/// Under the `fault-inject` cargo feature, [`Executor::with_faults`]
/// attaches a deterministic [`crate::faults::FaultPlan`] applied to
/// every chunk attempt of every run on this executor.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    config: RunConfig,
    #[cfg(feature = "fault-inject")]
    faults: Option<crate::faults::FaultPlan>,
}

impl Executor {
    /// An executor scheduling with `config`.
    pub fn new(config: RunConfig) -> Self {
        Executor {
            config,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// The execution configuration this executor schedules with.
    pub fn config(&self) -> RunConfig {
        self.config
    }

    /// Attach a deterministic fault schedule, applied to every chunk
    /// attempt of every subsequent run on this executor.
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault schedule as the internal executor argument.
    #[cfg(feature = "fault-inject")]
    fn fault_arg(&self) -> FaultArg<'_> {
        self.faults.as_ref()
    }

    /// Without the `fault-inject` feature there is never a schedule.
    #[cfg(not(feature = "fault-inject"))]
    fn fault_arg(&self) -> FaultArg<'_> {
        None
    }

    /// Run the task sequentially on the calling thread (the baseline all
    /// speedups are relative to). Exactly `task.work(data)`.
    pub fn run_sequential<T: DncTask>(&self, task: &T, data: &[T::Item]) -> T::Acc {
        task.work(data)
    }

    /// Run the task in parallel according to the executor's config.
    ///
    /// Equivalent to `task.work(data)` whenever the join satisfies the
    /// homomorphism law; chunk results are always joined in input order,
    /// so non-commutative joins are safe. A panicking chunk is retried
    /// once on the calling thread; persistent failures degrade the run
    /// to a sequential re-execution ([`RunOutcome::degraded`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics (i.e. the task itself is broken).
    pub fn run<T: DncTask>(
        &self,
        task: &T,
        data: &[T::Item],
    ) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        self.run_range(&Sliced { task, data })
    }

    /// [`Executor::run`] for a task that addresses its input by position:
    /// the chunks are ranges of `0..task.items()`, and the sequential
    /// fallback is `task.work(0, task.items())`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics.
    pub fn run_range<T: RangeDncTask>(&self, task: &T) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        let n = task.items();
        self.execute(
            n,
            |lo, hi| task.work(lo, hi),
            |partials| {
                if trace::enabled() {
                    trace::counter("execute", "joins", partials.len() as u64 - 1);
                }
                let mut partials = partials.into_iter().map(|(_, acc)| acc);
                let first = partials.next().expect("`cut` returns at least one chunk");
                partials.fold(first, |l, r| task.join(l, r))
            },
            || task.work(0, n),
        )
    }

    /// Run a map-only task: the `map` phase over all items in parallel,
    /// chunked like [`Executor::run`], then the sequential `fold` in
    /// input order. Panic isolation and recovery mirror
    /// [`Executor::run`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics.
    pub fn run_map_only<T: MapOnlyTask>(
        &self,
        task: &T,
        data: &[T::Item],
    ) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        self.run_map_only_range(&Sliced { task, data })
    }

    /// [`Executor::run_map_only`] for a task that addresses its input by
    /// position; the sequential fallback folds `task.map(0, task.items())`
    /// into `task.init()`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics.
    pub fn run_map_only_range<T: RangeMapOnlyTask>(
        &self,
        task: &T,
    ) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        let n = task.items();
        self.execute(
            n,
            |lo, hi| task.map(lo, hi),
            |blocks| {
                blocks
                    .into_iter()
                    .fold(task.init(), |acc, ((lo, hi), block)| {
                        task.fold(acc, lo, hi, block)
                    })
            },
            || task.fold(task.init(), 0, n, task.map(0, n)),
        )
    }

    /// Join a list of chunk partials as a balanced binary tree, each
    /// round's joins in parallel: `⌈log₂ c⌉` rounds instead of `c − 1`
    /// sequential joins — relevant when the join itself is expensive
    /// (the looped joins of the mtls family, `O(m)` each). Requires only
    /// associativity: adjacent partials are joined in input order.
    ///
    /// A panicking join is retried once on the calling thread (operands
    /// are cloned so the retry has them).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] when a join fails twice — with
    /// only partials in hand there is no raw input to re-run.
    pub fn reduce_tree<T: DncTask>(
        &self,
        task: &T,
        mut partials: Vec<T::Acc>,
    ) -> Result<RunOutcome<T::Acc>, RuntimeError>
    where
        T::Acc: Clone,
    {
        let mut recovered = 0usize;
        while partials.len() > 1 {
            let leftover = if partials.len() % 2 == 1 {
                partials.pop()
            } else {
                None
            };
            let mut iter = partials.into_iter();
            let mut pairs: Vec<(T::Acc, T::Acc)> = Vec::new();
            while let (Some(l), Some(r)) = (iter.next(), iter.next()) {
                pairs.push((l, r));
            }
            let joined: Vec<Result<T::Acc, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = pairs
                    .iter()
                    .map(|(l, r)| {
                        let (l, r) = (l.clone(), r.clone());
                        scope.spawn(move || {
                            catch_unwind(AssertUnwindSafe(|| task.join(l, r)))
                                .map_err(|p| payload_string(p.as_ref()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(result) => result,
                        Err(payload) => Err(payload_string(payload.as_ref())),
                    })
                    .collect()
            });
            let mut next = Vec::with_capacity(joined.len() + 1);
            for (pair_idx, (result, (l, r))) in joined.into_iter().zip(pairs).enumerate() {
                match result {
                    Ok(acc) => next.push(acc),
                    Err(payload) => {
                        emit_worker_panic(pair_idx, 0, &payload);
                        match catch_unwind(AssertUnwindSafe(|| task.join(l, r))) {
                            Ok(acc) => {
                                recovered += 1;
                                next.push(acc);
                            }
                            Err(p) => {
                                let payload = payload_string(p.as_ref());
                                emit_worker_panic(pair_idx, 1, &payload);
                                return Err(RuntimeError::WorkerPanicked {
                                    chunk: pair_idx,
                                    payload,
                                });
                            }
                        }
                    }
                }
            }
            if let Some(last) = leftover {
                next.push(last);
            }
            partials = next;
        }
        Ok(RunOutcome {
            value: partials
                .into_iter()
                .next()
                .unwrap_or_else(|| task.identity()),
            degraded: false,
            recovered_chunks: recovered,
        })
    }

    /// Open a streaming session: push chunks with
    /// [`crate::stream::StreamSession::push_chunk`], observe progressive
    /// partial-prefix aggregates with
    /// [`crate::stream::StreamSession::snapshot`], and close with
    /// [`crate::stream::StreamSession::finish`].
    pub fn stream<'e, T: DncTask>(&'e self, task: &'e T) -> crate::stream::StreamSession<'e, T> {
        crate::stream::StreamSession::new(self, task)
    }

    /// Drive a whole chunk iterator through a streaming session and
    /// return the end-of-input aggregate. By the homomorphism law the
    /// value is byte-identical to [`Executor::run_sequential`] on the
    /// concatenation of the chunks, for *any* chunking.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] when a chunk or join fails even
    /// after retry and sequential re-execution of that chunk.
    pub fn run_stream<T, I>(
        &self,
        task: &T,
        chunks: I,
    ) -> Result<crate::stream::StreamOutcome<T::Acc>, RuntimeError>
    where
        T: DncTask,
        T::Acc: Clone,
        I: IntoIterator,
        I::Item: AsRef<[T::Item]>,
    {
        let mut session = self.stream(task);
        for chunk in chunks {
            session.push_chunk(chunk.as_ref())?;
        }
        Ok(session.finish())
    }

    /// [`Executor::run_stream`] over a fallible (I/O-backed) chunk
    /// source such as [`crate::stream::ReaderChunks`] or
    /// [`crate::stream::PagedFileChunks`].
    ///
    /// # Errors
    ///
    /// [`crate::stream::StreamError::Io`] on a source error,
    /// [`crate::stream::StreamError::Runtime`] on an unrecoverable
    /// worker panic.
    pub fn run_stream_io<T, I>(
        &self,
        task: &T,
        chunks: I,
    ) -> Result<crate::stream::StreamOutcome<T::Acc>, crate::stream::StreamError>
    where
        T: DncTask,
        T::Acc: Clone,
        I: IntoIterator<Item = std::io::Result<Vec<T::Item>>>,
    {
        let mut session = self.stream(task);
        for chunk in chunks {
            session.push_chunk(&chunk?)?;
        }
        Ok(session.finish())
    }

    /// Cut `0..n` into chunks: one chunk when there is one thread or
    /// `n <= grain`; otherwise one balanced chunk per thread
    /// ([`Backend::Static`]) or grain-sized chunks
    /// ([`Backend::WorkStealing`]).
    fn cut(&self, n: usize) -> Vec<(usize, usize)> {
        let threads = self.config.threads.max(1);
        // `RunConfig::with_grain` clamps, but the struct is constructible
        // literally; a zero grain must never reach the chunk math.
        let grain = self.config.grain.max(1);
        if threads == 1 || n <= grain {
            return vec![(0, n)];
        }
        match self.config.backend {
            Backend::Static => {
                let parts = threads.min(n);
                let (base, extra) = (n / parts, n % parts);
                (0..parts)
                    .map(|i| {
                        let lo = i * base + i.min(extra);
                        (lo, lo + base + usize::from(i < extra))
                    })
                    .collect()
            }
            Backend::WorkStealing => (0..n)
                .step_by(grain)
                .map(|lo| (lo, (lo + grain).min(n)))
                .collect(),
        }
    }

    /// The one scheduling routine behind every batch mode: cut `0..n`
    /// into chunks, run `work` on each under `catch_unwind` (on the
    /// calling thread when there is one chunk, on worker threads
    /// otherwise), retry each failed chunk once on the calling thread,
    /// and `combine` the results in chunk order. When a chunk fails
    /// twice or `combine` panics (it runs synthesized joins), the run
    /// degrades to `sequential` on the calling thread. Faults are never
    /// injected into the fallback: the harness tests recovery of the
    /// parallel plan, and a broken task panics on its own.
    fn execute<R: Send, A>(
        &self,
        n: usize,
        work: impl Fn(usize, usize) -> R + Sync,
        combine: impl FnOnce(Vec<((usize, usize), R)>) -> A,
        sequential: impl FnOnce() -> A,
    ) -> Result<RunOutcome<A>, RuntimeError> {
        let ranges = self.cut(n);
        let faults = self.fault_arg();
        let attempt = |chunk: usize, attempt: u32| -> Result<R, String> {
            let (lo, hi) = ranges[chunk];
            match catch_unwind(AssertUnwindSafe(|| {
                let poisoned = inject(faults, chunk, attempt);
                (poisoned, work(lo, hi))
            })) {
                Ok((false, result)) => Ok(result),
                Ok((true, _)) => Err(format!("injected fault: poisoned result at chunk {chunk}")),
                Err(payload) => Err(payload_string(payload.as_ref())),
            }
        };
        let first = if ranges.len() == 1 {
            vec![attempt(0, 0)]
        } else {
            self.spawn_workers(n, ranges.len(), &attempt)
        };
        if trace::enabled() {
            trace::counter("execute", "chunks", ranges.len() as u64);
        }

        let mut recovered = 0usize;
        let mut failed: Vec<usize> = Vec::new();
        let mut results = Vec::with_capacity(ranges.len());
        for (chunk, result) in first.into_iter().enumerate() {
            let result = result.or_else(|payload| {
                emit_worker_panic(chunk, 0, &payload);
                let retry = attempt(chunk, 1);
                match &retry {
                    Ok(_) => recovered += 1,
                    Err(payload) => {
                        emit_worker_panic(chunk, 1, payload);
                        failed.push(chunk);
                    }
                }
                retry
            });
            if let Ok(result) = result {
                results.push((ranges[chunk], result));
            }
        }
        if failed.is_empty() {
            if let Ok(value) = catch_unwind(AssertUnwindSafe(|| combine(results))) {
                return Ok(RunOutcome {
                    value,
                    degraded: false,
                    recovered_chunks: recovered,
                });
            }
        }

        if trace::enabled() {
            trace::point(
                "execute",
                "fallback_sequential",
                &[("failed_chunks", failed.len().into())],
            );
        }
        match catch_unwind(AssertUnwindSafe(sequential)) {
            Ok(value) => Ok(RunOutcome {
                value,
                degraded: true,
                recovered_chunks: recovered,
            }),
            Err(payload) => Err(RuntimeError::WorkerPanicked {
                chunk: failed.first().copied().unwrap_or(0),
                payload: payload_string(payload.as_ref()),
            }),
        }
    }

    /// Run the first attempt of `chunks` chunks on `min(threads, chunks)`
    /// scoped workers. Chunks are dealt round-robin onto per-worker
    /// deques, like a TBB arena; under [`Backend::WorkStealing`] a worker
    /// whose deque is empty steals from the others, under
    /// [`Backend::Static`] (one chunk per worker) it stops. Every chunk is
    /// queued before the workers start, so a worker that finds nothing to
    /// pop or steal is done. Results come back in chunk order.
    fn spawn_workers<R: Send>(
        &self,
        n: usize,
        chunks: usize,
        attempt: &(impl Fn(usize, u32) -> Result<R, String> + Sync),
    ) -> Vec<Result<R, String>> {
        let threads = self.config.threads.max(1);
        let mut exec_span = trace::span("execute", "run_parallel");
        if exec_span.is_enabled() {
            exec_span.record("threads", threads);
            exec_span.record("grain", self.config.grain.max(1));
            exec_span.record(
                "backend",
                match self.config.backend {
                    Backend::WorkStealing => "work_stealing",
                    Backend::Static => "static",
                },
            );
            exec_span.record("items", n);
        }
        let workers: Vec<Worker<usize>> = (0..threads.min(chunks))
            .map(|_| Worker::new_lifo())
            .collect();
        for chunk in 0..chunks {
            workers[chunk % workers.len()].push(chunk);
        }
        let stealers: Vec<Stealer<usize>> = match self.config.backend {
            Backend::WorkStealing => workers.iter().map(Worker::stealer).collect(),
            Backend::Static => Vec::new(),
        };

        // Each worker hands back its (chunk, result) pairs and its steal
        // count; workers run on foreign threads (no ambient tracer
        // there), so events are emitted from the calling thread.
        type Done<R> = (Vec<(usize, Result<R, String>)>, u64);
        let per_worker: Vec<Done<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|worker| {
                    let stealers = &stealers;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        let mut steals = 0u64;
                        loop {
                            let chunk = worker.pop().or_else(|| {
                                let stolen = steal(stealers);
                                steals += u64::from(stolen.is_some());
                                stolen
                            });
                            let Some(chunk) = chunk else {
                                return (done, steals);
                            };
                            done.push((chunk, attempt(chunk, 0)));
                        }
                    })
                })
                .collect();
            // `attempt` already catches task panics; a worker that still
            // failed loses its chunks, which are then reported as never
            // completed and retried.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });

        if trace::enabled() {
            for (wid, (done, steals)) in per_worker.iter().enumerate() {
                trace::counter_with(
                    "execute",
                    "worker_steals",
                    *steals,
                    &[("worker", wid.into())],
                );
                trace::counter_with(
                    "execute",
                    "worker_chunks",
                    done.len() as u64,
                    &[("worker", wid.into())],
                );
            }
        }
        let mut slots: Vec<Option<Result<R, String>>> = (0..chunks).map(|_| None).collect();
        for (chunk, result) in per_worker.into_iter().flat_map(|(done, _)| done) {
            slots[chunk] = Some(result);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(chunk, slot)| {
                slot.unwrap_or_else(|| Err(format!("chunk {chunk} never completed")))
            })
            .collect()
    }
}

/// Take one chunk from any deque; `None` once every deque is empty.
fn steal(stealers: &[Stealer<usize>]) -> Option<usize> {
    stealers.iter().find_map(|s| loop {
        match s.steal() {
            Steal::Success(chunk) => return Some(chunk),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    })
}

/// A slice-based task ([`DncTask`] or [`MapOnlyTask`]) seen as a task
/// over the index range of its data: chunk `lo..hi` is `&data[lo..hi]`.
struct Sliced<'a, T, I> {
    task: &'a T,
    data: &'a [I],
}

impl<T: DncTask> RangeDncTask for Sliced<'_, T, T::Item> {
    type Acc = T::Acc;

    fn items(&self) -> usize {
        self.data.len()
    }

    fn work(&self, lo: usize, hi: usize) -> T::Acc {
        self.task.work(&self.data[lo..hi])
    }

    fn join(&self, left: T::Acc, right: T::Acc) -> T::Acc {
        self.task.join(left, right)
    }
}

impl<T: MapOnlyTask> RangeMapOnlyTask for Sliced<'_, T, T::Item> {
    type Block = Vec<T::Mapped>;
    type Acc = T::Acc;

    fn items(&self) -> usize {
        self.data.len()
    }

    fn init(&self) -> T::Acc {
        self.task.init()
    }

    fn map(&self, lo: usize, hi: usize) -> Vec<T::Mapped> {
        self.data[lo..hi].iter().map(|x| self.task.map(x)).collect()
    }

    fn fold(&self, acc: T::Acc, _lo: usize, _hi: usize, block: Vec<T::Mapped>) -> T::Acc {
        block.into_iter().fold(acc, |acc, m| self.task.fold(acc, m))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// `Executor` shorthands shared by every test below.
    fn par<T: DncTask>(task: &T, data: &[T::Item], cfg: RunConfig) -> T::Acc {
        Executor::new(cfg).run(task, data).expect("run").value
    }
    fn seq<T: DncTask>(task: &T, data: &[T::Item]) -> T::Acc {
        Executor::default().run_sequential(task, data)
    }
    fn map_only<T: MapOnlyTask>(task: &T, data: &[T::Item], threads: usize) -> T::Acc {
        Executor::new(RunConfig::static_schedule(threads).with_grain(1))
            .run_map_only(task, data)
            .expect("map-only run")
            .value
    }

    /// Sum task: trivially a homomorphism.
    struct Sum;
    impl DncTask for Sum {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, chunk: &[i64]) -> i64 {
            chunk.iter().sum()
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// A deliberately non-commutative join: string-like concatenation
    /// encoded as (first, last) of the chunk — detects any executor that
    /// reorders chunks.
    struct FirstLast;
    impl DncTask for FirstLast {
        type Item = i64;
        type Acc = Vec<i64>;
        fn identity(&self) -> Vec<i64> {
            Vec::new()
        }
        fn work(&self, chunk: &[i64]) -> Vec<i64> {
            chunk.to_vec()
        }
        fn join(&self, mut l: Vec<i64>, r: Vec<i64>) -> Vec<i64> {
            l.extend(r);
            l
        }
    }

    fn data(n: usize) -> Vec<i64> {
        (0..n as i64).map(|x| (x * 7919) % 101 - 50).collect()
    }

    #[test]
    fn static_backend_matches_sequential() {
        let d = data(10_000);
        let seq = seq(&Sum, &d);
        for threads in [1, 2, 4, 16] {
            let cfg = RunConfig::static_schedule(threads).with_grain(128);
            assert_eq!(par(&Sum, &d, cfg), seq);
        }
    }

    #[test]
    fn stealing_backend_matches_sequential() {
        let d = data(10_000);
        let seq = seq(&Sum, &d);
        for threads in [2, 3, 8] {
            let cfg = RunConfig::work_stealing(threads).with_grain(97);
            assert_eq!(par(&Sum, &d, cfg), seq);
        }
    }

    #[test]
    fn chunk_order_is_preserved_for_noncommutative_joins() {
        let d = data(5_000);
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 64,
                backend,
                engine: Engine::Compiled,
            };
            let out = par(&FirstLast, &d, cfg);
            assert_eq!(out, d, "backend {backend:?} reordered chunks");
        }
    }

    #[test]
    fn small_inputs_short_circuit() {
        let d = data(10);
        let cfg = RunConfig::work_stealing(8); // grain 50k > len
        assert_eq!(par(&Sum, &d, cfg), seq(&Sum, &d));
    }

    struct CountPositive;
    impl MapOnlyTask for CountPositive {
        type Item = i64;
        type Mapped = bool;
        type Acc = usize;
        fn init(&self) -> usize {
            0
        }
        fn map(&self, item: &i64) -> bool {
            *item > 0
        }
        fn fold(&self, acc: usize, mapped: bool) -> usize {
            acc + usize::from(mapped)
        }
    }

    #[test]
    fn map_only_matches_sequential_fold() {
        let d = data(3_333);
        let seq = map_only(&CountPositive, &d, 1);
        for threads in [2, 5, 9] {
            assert_eq!(map_only(&CountPositive, &d, threads), seq);
        }
    }

    #[test]
    fn tree_reduction_matches_sequential_fold() {
        let d = data(4_000);
        // Non-commutative task: order must be preserved through the tree.
        let partials: Vec<Vec<i64>> = d.chunks(173).map(|c| FirstLast.work(c)).collect();
        let tree = Executor::default()
            .reduce_tree(&FirstLast, partials)
            .unwrap()
            .value;
        assert_eq!(tree, d);
        // And for odd chunk counts.
        let partials: Vec<Vec<i64>> = d.chunks(313).map(|c| FirstLast.work(c)).collect();
        assert_eq!(partials.len() % 2, 1);
        assert_eq!(
            Executor::default()
                .reduce_tree(&FirstLast, partials)
                .unwrap()
                .value,
            d
        );
    }

    #[test]
    fn tree_reduction_of_empty_and_singleton() {
        let exec = Executor::default();
        assert_eq!(exec.reduce_tree(&Sum, vec![]).unwrap().value, 0);
        assert_eq!(exec.reduce_tree(&Sum, vec![41]).unwrap().value, 41);
    }

    #[test]
    fn default_config_is_work_stealing_on_all_cores() {
        let cfg = RunConfig::default();
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.backend, Backend::WorkStealing);
        assert_eq!(cfg.grain, 50_000);
        let cfg = cfg
            .with_backend(Backend::Static)
            .with_threads(3)
            .with_grain(10);
        assert_eq!(cfg.backend, Backend::Static);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.grain, 10);
    }

    #[test]
    fn stealing_emits_chunk_and_worker_counters() {
        use parsynt_trace::sinks::PhaseAggregator;
        let agg = PhaseAggregator::new();
        let _guard = trace::set_ambient(trace::Tracer::from_sink(agg.clone()));
        let d = data(10_000);
        let cfg = RunConfig::work_stealing(4).with_grain(97);
        assert_eq!(par(&Sum, &d, cfg), seq(&Sum, &d));
        let counters = agg.counters();
        let chunks = 10_000u64.div_ceil(97);
        assert_eq!(counters["execute.chunks"], chunks);
        assert_eq!(counters["execute.joins"], chunks - 1);
        // Every processed chunk is tallied against some worker.
        assert_eq!(counters["execute.worker_chunks"], chunks);
        assert!(counters.contains_key("execute.worker_steals"));
        assert!(agg.phase_timings().contains_key("execute"));
    }

    #[test]
    fn zero_grain_is_floored_to_one() {
        // A literal `grain: 0` bypasses the `with_grain` clamp; the
        // executor must treat it as 1 (one item per chunk), not divide
        // by zero or spin.
        let d = data(257);
        let seq = seq(&Sum, &d);
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 0,
                backend,
                engine: Engine::Compiled,
            };
            assert_eq!(par(&Sum, &d, cfg), seq, "backend {backend:?}");
        }
        assert_eq!(
            par(
                &FirstLast,
                &d,
                RunConfig {
                    threads: 3,
                    grain: 0,
                    backend: Backend::WorkStealing,
                    engine: Engine::Compiled,
                }
            ),
            d
        );
    }

    #[test]
    fn zero_and_one_element_inputs() {
        let empty: Vec<i64> = Vec::new();
        let cfg = RunConfig::work_stealing(4).with_grain(1);
        assert_eq!(par(&Sum, &empty, cfg), 0);
        assert_eq!(par(&Sum, &[42], cfg), 42);
    }

    /// Sum, but every chunk attempt on an unnamed thread panics. Scoped
    /// executor workers are unnamed while the calling (test) thread is
    /// named, so every chunk fails its parallel attempt and every retry
    /// — which runs on the calling thread — succeeds.
    struct WorkerShySum;
    impl DncTask for WorkerShySum {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, chunk: &[i64]) -> i64 {
            if std::thread::current().name().is_none() {
                panic!("no tasks on worker threads");
            }
            chunk.iter().sum()
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// Sum that panics on any slice shorter than the whole input — the
    /// parallel plan always fails (attempt and retry see chunk-sized
    /// slices) while the sequential fallback succeeds.
    struct SmallSlicePanic {
        full_len: usize,
    }
    impl DncTask for SmallSlicePanic {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, chunk: &[i64]) -> i64 {
            assert!(chunk.len() >= self.full_len, "injected: chunk too small");
            chunk.iter().sum()
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// A task that panics on every slice, even the full input.
    struct AlwaysPanics;
    impl DncTask for AlwaysPanics {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, _chunk: &[i64]) -> i64 {
            panic!("broken task")
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    #[test]
    fn transient_worker_panics_recover_via_retry() {
        let d = data(1_000);
        let seq = seq(&Sum, &d);
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 100,
                backend,
                engine: Engine::Compiled,
            };
            let out = Executor::new(cfg).run(&WorkerShySum, &d).unwrap();
            assert_eq!(out.value, seq, "backend {backend:?}");
            assert!(!out.degraded, "backend {backend:?} should recover in place");
            assert!(out.recovered_chunks > 0, "backend {backend:?}");
        }
    }

    #[test]
    fn persistent_worker_panics_degrade_to_sequential() {
        let d = data(300);
        let seq = seq(&Sum, &d);
        let task = SmallSlicePanic { full_len: d.len() };
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 100,
                backend,
                engine: Engine::Compiled,
            };
            let out = Executor::new(cfg).run(&task, &d).unwrap();
            assert_eq!(out.value, seq, "backend {backend:?}");
            assert!(out.degraded, "backend {backend:?} should have degraded");
        }
        // The infallible wrapper recovers transparently too.
        assert_eq!(
            par(&task, &d, RunConfig::work_stealing(4).with_grain(100)),
            seq
        );
    }

    #[test]
    fn broken_task_is_a_typed_error() {
        let d = data(300);
        let cfg = RunConfig::work_stealing(4).with_grain(100);
        let err = Executor::new(cfg).run(&AlwaysPanics, &d).unwrap_err();
        let RuntimeError::WorkerPanicked { payload, .. } = err;
        assert_eq!(payload, "broken task");
    }

    #[test]
    fn panicking_join_degrades_to_sequential() {
        /// Work succeeds but every join panics: the guarded reduction
        /// must hand over to the sequential fallback.
        struct JoinPanics;
        impl DncTask for JoinPanics {
            type Item = i64;
            type Acc = i64;
            fn identity(&self) -> i64 {
                0
            }
            fn work(&self, chunk: &[i64]) -> i64 {
                chunk.iter().sum()
            }
            fn join(&self, _l: i64, _r: i64) -> i64 {
                panic!("broken join")
            }
        }
        let d = data(300);
        let out = Executor::new(RunConfig::static_schedule(3).with_grain(50))
            .run(&JoinPanics, &d)
            .unwrap();
        assert_eq!(out.value, seq(&Sum, &d));
        assert!(out.degraded);
    }

    #[test]
    fn tree_reduction_retries_panicking_joins() {
        use std::sync::atomic::AtomicUsize;
        /// Concatenating join that panics on its first invocation only.
        struct FlakyJoin {
            calls: AtomicUsize,
        }
        impl DncTask for FlakyJoin {
            type Item = i64;
            type Acc = Vec<i64>;
            fn identity(&self) -> Vec<i64> {
                Vec::new()
            }
            fn work(&self, chunk: &[i64]) -> Vec<i64> {
                chunk.to_vec()
            }
            fn join(&self, mut l: Vec<i64>, r: Vec<i64>) -> Vec<i64> {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flaky join");
                }
                l.extend(r);
                l
            }
        }
        let d = data(1_000);
        let task = FlakyJoin {
            calls: AtomicUsize::new(0),
        };
        let partials: Vec<Vec<i64>> = d.chunks(173).map(|c| c.to_vec()).collect();
        let out = Executor::default().reduce_tree(&task, partials).unwrap();
        assert_eq!(out.value, d);
        assert_eq!(out.recovered_chunks, 1);
        assert!(!out.degraded);
    }

    #[test]
    fn map_only_recovers_from_worker_panics() {
        /// Count positives, but map panics on unnamed (worker) threads.
        struct WorkerShyCount;
        impl MapOnlyTask for WorkerShyCount {
            type Item = i64;
            type Mapped = bool;
            type Acc = usize;
            fn init(&self) -> usize {
                0
            }
            fn map(&self, item: &i64) -> bool {
                if std::thread::current().name().is_none() {
                    panic!("no maps on worker threads");
                }
                *item > 0
            }
            fn fold(&self, acc: usize, mapped: bool) -> usize {
                acc + usize::from(mapped)
            }
        }
        let d = data(1_000);
        let seq = map_only(&CountPositive, &d, 1);
        let out = Executor::new(RunConfig::default().with_threads(4).with_grain(250))
            .run_map_only(&WorkerShyCount, &d)
            .unwrap();
        assert_eq!(out.value, seq);
        assert!(!out.degraded);
        assert_eq!(out.recovered_chunks, 4);
    }

    #[test]
    fn map_only_fold_panic_degrades_to_sequential() {
        use std::sync::atomic::AtomicUsize;
        /// Count positives, but the first fold call ever panics — the
        /// guarded fold phase fails, the sequential fallback succeeds.
        struct FlakyFold {
            calls: AtomicUsize,
        }
        impl MapOnlyTask for FlakyFold {
            type Item = i64;
            type Mapped = bool;
            type Acc = usize;
            fn init(&self) -> usize {
                0
            }
            fn map(&self, item: &i64) -> bool {
                *item > 0
            }
            fn fold(&self, acc: usize, mapped: bool) -> usize {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flaky fold");
                }
                acc + usize::from(mapped)
            }
        }
        let d = data(1_000);
        let seq = map_only(&CountPositive, &d, 1);
        let task = FlakyFold {
            calls: AtomicUsize::new(0),
        };
        let out = Executor::new(RunConfig::default().with_threads(4).with_grain(250))
            .run_map_only(&task, &d)
            .unwrap();
        assert_eq!(out.value, seq);
        assert!(out.degraded);
    }

    #[test]
    fn worker_panics_and_fallback_are_traced() {
        use parsynt_trace::sinks::PhaseAggregator;
        let agg = PhaseAggregator::new();
        let _guard = trace::set_ambient(trace::Tracer::from_sink(agg.clone()));
        let d = data(300);
        let task = SmallSlicePanic { full_len: d.len() };
        let cfg = RunConfig::work_stealing(4).with_grain(100);
        let out = Executor::new(cfg).run(&task, &d).unwrap();
        assert!(out.degraded);
        let counters = agg.counters();
        // Chunk/join counters still reflect the attempted parallel plan.
        assert_eq!(counters["execute.chunks"], 3);
    }
}
