//! # parsynt-runtime
//!
//! A divide-and-conquer parallel execution runtime for the skeletons
//! ParSynt synthesizes: the programmer (or the synthesizer) supplies the
//! *split* (implicitly: inverse of concatenation over the outer
//! dimension), the *work* (the sequential loop on a chunk) and the
//! *join* (the synthesized `⊙`), and the runtime schedules chunks over
//! OS threads.
//!
//! Two scheduling backends reproduce the paper's §9 comparison:
//!
//! * [`Backend::WorkStealing`] — TBB-flavoured: the input is divided
//!   into grain-sized tasks, distributed over per-worker deques, and
//!   idle workers steal; partial results join in chunk order (joins need
//!   not be commutative).
//! * [`Backend::Static`] — OpenMP-flavoured static scheduling: exactly
//!   one contiguous chunk per thread.
//!
//! Every execution mode is a method on one entry point, [`Executor`]:
//!
//! * [`Executor::run`] — batch divide-and-conquer over a finished slice;
//! * [`Executor::run_map_only`] — the Prop. 4.3 case where the inner
//!   loop nest parallelizes but the outer fold stays sequential
//!   (balanced parentheses, §2.1);
//! * [`Executor::run_range`] / [`Executor::run_map_only_range`] — the
//!   same two modes for tasks that address their input by position
//!   ([`RangeDncTask`], [`RangeMapOnlyTask`]); `parsynt-core` runs every
//!   synthesized plan, under either engine, through these;
//! * [`Executor::run_stream`] / [`Executor::stream`] — online
//!   aggregation over chunked or unbounded input, emitting progressive
//!   partial-prefix snapshots (the [`stream`]-module; sources include
//!   [`stream::ReaderChunks`] and out-of-core [`stream::PagedFileChunks`]).
//!
//! All batch modes share one scheduling routine, so [`RunConfig`] means
//! the same thing for a native task and a synthesized plan. An input of
//! at most `grain` items (or any input at one thread) runs as a single
//! chunk on the calling thread, spawning nothing. Larger inputs are cut
//! into one chunk per thread ([`Backend::Static`]) or into `grain`-sized
//! chunks ([`Backend::WorkStealing`]), and chunk results are combined in
//! input order.
//!
//! All executors are panic-isolated: a worker panic is caught, its
//! chunk retried once, and persistent failures degrade the run (or, when
//! streaming, that stream chunk only) to sequential re-execution (see
//! [`RunOutcome`]). The `fault-inject` cargo feature adds a seeded,
//! deterministic fault-injection harness ([`faults`]-module) for
//! exercising those recovery paths; [`Executor::with_faults`] applies a
//! plan to every run.

#![warn(clippy::unwrap_used)]

pub mod error;
pub mod executor;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod stream;
pub mod task;

pub use error::RuntimeError;
pub use executor::{Backend, Engine, Executor, RunConfig, RunOutcome};
#[cfg(feature = "fault-inject")]
pub use faults::{FaultKind, FaultPlan};
#[cfg(unix)]
pub use stream::{write_i64_records, PagedFileChunks};
pub use stream::{ReaderChunks, StreamError, StreamOutcome, StreamSession, StreamSnapshot};
pub use task::{DncTask, MapOnlyTask, RangeDncTask, RangeMapOnlyTask};
