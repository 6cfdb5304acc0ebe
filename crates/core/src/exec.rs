//! Execution of a synthesized parallelization.
//!
//! [`run_plan_checked`] lowers a plan to a task over the row range of
//! its main input and hands it to [`parsynt_runtime::Executor`], which
//! owns chunking, worker threads, panic isolation, the single retry and
//! the sequential degrade. The same two tasks — one per plan kind —
//! carry both engines: fused native kernels from [`crate::compile`], or
//! the interpreter walking the transformed program and the synthesized
//! join. The interpreter remains the semantic cross-check that a
//! divide-and-conquer plan is a faithful parallelization.

use crate::compile::{compile_plan, emit_compile_fallback, CState, CompiledPlan, FlatInput};
use crate::schema::{Outcome, Parallelization};
use parsynt_lang::error::{LangError, Result};
use parsynt_lang::functional::{InnerResult, RightwardFn};
use parsynt_lang::interp::{init_env, read_state, StateVec};
use parsynt_lang::Value;
use parsynt_runtime::{Engine, Executor, RangeDncTask, RangeMapOnlyTask, RunConfig, RunOutcome};
use parsynt_synth::join::{apply_join, JoinVocab, SynthesizedJoin};
use parsynt_trace as trace;

/// Outcome of a panic-isolated plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The final state vector.
    pub state: StateVec,
    /// Whether the parallel plan was abandoned and the state recomputed
    /// by the sequential fallback.
    pub degraded: bool,
    /// Chunks whose first attempt panicked and whose retry succeeded.
    pub recovered_chunks: usize,
}

/// Execute a divide-and-conquer parallelization on `inputs` through the
/// interpreter, one chunk of the outer dimension per thread; chunk
/// results are combined left-to-right with the synthesized join.
///
/// # Errors
///
/// Fails if the parallelization is not divide-and-conquer, or on any
/// interpreter error.
pub fn run_divide_and_conquer(
    parallelization: &Parallelization,
    inputs: &[Value],
    threads: usize,
) -> Result<StateVec> {
    if !parallelization.is_divide_and_conquer() {
        return Err(LangError::eval("not a divide-and-conquer parallelization"));
    }
    run_plan_checked(parallelization, inputs, &one_chunk_per_thread(threads)).map(|o| o.state)
}

/// Execute a map-only parallelization through the interpreter: the
/// inner loop nests run in parallel from the initial state (the
/// memoryless map of Prop. 4.3), one chunk of rows per thread, and the
/// outer loop folds their results sequentially.
///
/// # Errors
///
/// Fails if the parallelization is not map-only, or on interpreter
/// errors; the program must be memoryless (its outer phase may only
/// consume the inner results).
pub fn run_map_only(
    parallelization: &Parallelization,
    inputs: &[Value],
    threads: usize,
) -> Result<StateVec> {
    if !parallelization.is_map_only() {
        return Err(LangError::eval("not a map-only parallelization"));
    }
    run_plan_checked(parallelization, inputs, &one_chunk_per_thread(threads)).map(|o| o.state)
}

fn one_chunk_per_thread(threads: usize) -> RunConfig {
    RunConfig::static_schedule(threads)
        .with_grain(1)
        .with_engine(Engine::Interp)
}

/// Execute `plan` on `inputs` with the executor configured by `run`.
/// The engine is compiled kernels when the plan and input are covered
/// (emitting a `compile_plan` trace event) and the interpreter otherwise
/// (emitting `compile_fallback` with the reason). Both engines run the
/// same chunks through the same retry/degrade path, so results — and
/// error messages — are byte-identical.
///
/// # Errors
///
/// Fails on unparallelizable plans, on runtime errors (identical
/// messages for both engines), and when even the sequential fallback
/// panics.
pub fn run_plan_checked(
    plan: &Parallelization,
    inputs: &[Value],
    run: &RunConfig,
) -> Result<ExecOutcome> {
    if let Outcome::Unparallelizable { reason } = &plan.outcome {
        return Err(LangError::eval(format!(
            "cannot execute an unparallelizable plan ({reason})"
        )));
    }
    let exec = Executor::new(*run);
    let dnc = plan.is_divide_and_conquer();
    if run.engine == Engine::Compiled {
        match compile_plan(plan) {
            Ok(compiled) => {
                let flattened = inputs
                    .get(compiled.main_index())
                    .and_then(|v| compiled.flatten(v));
                match flattened {
                    Some(flat) => {
                        let kernels = Compiled::new(&compiled, &flat);
                        let mut span = trace::span(
                            "execute",
                            if dnc {
                                "compiled_divide_and_conquer"
                            } else {
                                "compiled_map_only"
                            },
                        );
                        span.record("threads", run.threads);
                        trace::counter("execute", "kernel_elements", kernels.rows() as u64);
                        return execute(&kernels, &exec, None).map(|out| kernels.outcome(out));
                    }
                    None => {
                        emit_compile_fallback("main input is not a flattenable int sequence");
                    }
                }
            }
            Err(e) => emit_compile_fallback(e.reason()),
        }
    }
    let f = RightwardFn::new(&plan.program)?;
    if !dnc {
        require_memoryless(plan, "run_map_only")?;
    }
    let kernels = Interp::new(plan, &f, inputs)?;
    let mut span = trace::span(
        "execute",
        if dnc {
            "interp_divide_and_conquer"
        } else {
            "interp_map_only"
        },
    );
    span.record("threads", run.threads);
    execute(&kernels, &exec, None).map(|out| kernels.outcome(out))
}

/// The map phase runs every inner nest from the zero state; that is only
/// sound for (transformed) memoryless programs. `what` names the caller
/// in the error.
pub(crate) fn require_memoryless(plan: &Parallelization, what: &str) -> Result<()> {
    if parsynt_lang::analysis::analyze(&plan.program).is_syntactically_memoryless() {
        Ok(())
    } else {
        Err(LangError::eval(format!(
            "{what} requires a memoryless program (run the schema first)"
        )))
    }
}

/// Run a plan's kernels as one executor task: a divide-and-conquer task
/// summarizing chunks and joining them in order, or a map-only task
/// mapping chunks and folding them into `from` (the kernels' initial
/// state when `None`). Kernel errors travel inside the accumulator —
/// the first in input order wins — so they are reported, never retried.
pub(crate) fn execute<K: Kernels>(
    kernels: &K,
    exec: &Executor,
    from: Option<K::State>,
) -> Result<RunOutcome<K::State>> {
    let out = if kernels.is_divide_and_conquer() {
        exec.run_range(&DncPlan(kernels))
    } else {
        let from = from.map_or_else(|| kernels.init(), Ok);
        exec.run_map_only_range(&MapOnlyPlan { kernels, from })
    }
    .map_err(|e| LangError::eval(e.to_string()))?;
    Ok(RunOutcome {
        value: out.value?,
        degraded: out.degraded,
        recovered_chunks: out.recovered_chunks,
    })
}

/// One engine's kernels for one plan over one input: what the chunk
/// tasks call, with rows addressed by index into the main input.
pub(crate) trait Kernels: Sync {
    /// The loop state.
    type State: Clone + Send + Sync;
    /// The inner results of a range of rows (map-only).
    type Mapped: Send;

    /// Rows of the main input.
    fn rows(&self) -> usize;
    /// Whether the plan is divide-and-conquer (map-only otherwise).
    fn is_divide_and_conquer(&self) -> bool;
    /// The loop over rows `lo..hi`, from the initial state or `from`.
    fn summarize(&self, lo: usize, hi: usize, from: Option<&Self::State>) -> Result<Self::State>;
    /// The synthesized join.
    fn join(&self, left: &Self::State, right: &Self::State) -> Result<Self::State>;
    /// The initial outer state of a map-only plan.
    fn init(&self) -> Result<Self::State>;
    /// The inner nests of rows `lo..hi`, each from the zero state.
    fn map_rows(&self, lo: usize, hi: usize) -> Result<Self::Mapped>;
    /// Fold the mapped rows `lo..hi` into the outer state.
    fn fold_rows(
        &self,
        lo: usize,
        hi: usize,
        mapped: Self::Mapped,
        from: Self::State,
    ) -> Result<Self::State>;
    /// The state as the interpreter's state vector.
    fn vec_of(&self, state: Self::State) -> StateVec;
    /// An interpreter state vector in this engine's form.
    fn state_of(&self, state: &StateVec) -> Result<Self::State>;

    /// An executor outcome as an [`ExecOutcome`].
    fn outcome(&self, out: RunOutcome<Self::State>) -> ExecOutcome {
        ExecOutcome {
            state: self.vec_of(out.value),
            degraded: out.degraded,
            recovered_chunks: out.recovered_chunks,
        }
    }
}

/// A divide-and-conquer plan as an executor task.
struct DncPlan<'k, K>(&'k K);

impl<K: Kernels> RangeDncTask for DncPlan<'_, K> {
    type Acc = Result<K::State>;

    fn items(&self) -> usize {
        self.0.rows()
    }

    fn work(&self, lo: usize, hi: usize) -> Self::Acc {
        self.0.summarize(lo, hi, None)
    }

    fn join(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc {
        self.0.join(&left?, &right?)
    }
}

/// A map-only plan as an executor task, folding into `from`.
struct MapOnlyPlan<'k, K: Kernels> {
    kernels: &'k K,
    from: Result<K::State>,
}

impl<K: Kernels> RangeMapOnlyTask for MapOnlyPlan<'_, K> {
    type Block = Result<K::Mapped>;
    type Acc = Result<K::State>;

    fn items(&self) -> usize {
        self.kernels.rows()
    }

    fn init(&self) -> Self::Acc {
        self.from.clone()
    }

    fn map(&self, lo: usize, hi: usize) -> Self::Block {
        self.kernels.map_rows(lo, hi)
    }

    fn fold(&self, acc: Self::Acc, lo: usize, hi: usize, block: Self::Block) -> Self::Acc {
        // An error already in the accumulator is earlier in input order.
        let acc = acc?;
        self.kernels.fold_rows(lo, hi, block?, acc)
    }
}

/// Compiled kernels over a flattened main input.
pub(crate) struct Compiled<'a> {
    plan: &'a CompiledPlan,
    flat: &'a FlatInput,
}

impl<'a> Compiled<'a> {
    pub(crate) fn new(plan: &'a CompiledPlan, flat: &'a FlatInput) -> Self {
        Compiled { plan, flat }
    }
}

impl Kernels for Compiled<'_> {
    type State = CState;
    type Mapped = Vec<i64>;

    fn rows(&self) -> usize {
        self.flat.outer_len()
    }

    fn is_divide_and_conquer(&self) -> bool {
        self.plan.is_divide_and_conquer()
    }

    fn summarize(&self, lo: usize, hi: usize, from: Option<&CState>) -> Result<CState> {
        match from {
            None => self.plan.summarize(self.flat, lo, hi),
            Some(from) => self.plan.summarize_from(self.flat, lo, hi, from),
        }
        .map_err(LangError::eval)
    }

    fn join(&self, left: &CState, right: &CState) -> Result<CState> {
        self.plan.join(left, right).map_err(LangError::eval)
    }

    fn init(&self) -> Result<CState> {
        Ok(self.plan.init_state())
    }

    fn map_rows(&self, lo: usize, hi: usize) -> Result<Vec<i64>> {
        self.plan
            .map_rows(self.flat, lo, hi)
            .map_err(LangError::eval)
    }

    fn fold_rows(&self, lo: usize, hi: usize, mapped: Vec<i64>, from: CState) -> Result<CState> {
        self.plan
            .fold_rows(self.flat, lo, hi, &mapped, &from)
            .map_err(LangError::eval)
    }

    fn vec_of(&self, state: CState) -> StateVec {
        self.plan.state_to_vec(&state)
    }

    fn state_of(&self, state: &StateVec) -> Result<CState> {
        self.plan.state_from_vec(state).map_err(LangError::eval)
    }
}

/// The interpreter over the transformed program and the synthesized
/// join.
pub(crate) struct Interp<'a> {
    f: &'a RightwardFn<'a>,
    inputs: &'a [Value],
    rows: usize,
    join: Option<(&'a JoinVocab, &'a SynthesizedJoin)>,
}

impl<'a> Interp<'a> {
    /// # Errors
    ///
    /// Fails when the main input is not a sequence.
    pub(crate) fn new(
        plan: &'a Parallelization,
        f: &'a RightwardFn<'a>,
        inputs: &'a [Value],
    ) -> Result<Self> {
        let rows = inputs
            .get(f.main_input())
            .and_then(Value::len)
            .ok_or_else(|| LangError::eval("main input is not a sequence"))?;
        let join = match &plan.outcome {
            Outcome::DivideAndConquer { join, vocab } => Some((vocab, join)),
            _ => None,
        };
        Ok(Interp {
            f,
            inputs,
            rows,
            join,
        })
    }
}

impl Kernels for Interp<'_> {
    type State = StateVec;
    type Mapped = Vec<InnerResult>;

    fn rows(&self) -> usize {
        self.rows
    }

    fn is_divide_and_conquer(&self) -> bool {
        self.join.is_some()
    }

    fn summarize(&self, lo: usize, hi: usize, from: Option<&StateVec>) -> Result<StateVec> {
        match from {
            None => self.f.apply_slice(self.inputs, lo, hi),
            Some(from) => self.f.apply_slice_from(self.inputs, lo, hi, from),
        }
    }

    fn join(&self, left: &StateVec, right: &StateVec) -> Result<StateVec> {
        let Some((vocab, join)) = self.join else {
            unreachable!("only divide-and-conquer plans are joined");
        };
        apply_join(self.f.program(), vocab, join, left, right)
    }

    fn init(&self) -> Result<StateVec> {
        let program = self.f.program();
        read_state(program, &init_env(program, self.inputs)?)
    }

    fn map_rows(&self, lo: usize, hi: usize) -> Result<Vec<InnerResult>> {
        (lo..hi)
            .map(|i| self.f.inner_phase_from_zero(self.inputs, i))
            .collect()
    }

    fn fold_rows(
        &self,
        lo: usize,
        _hi: usize,
        mapped: Vec<InnerResult>,
        from: StateVec,
    ) -> Result<StateVec> {
        let mut state = from;
        for (i, inner) in (lo..).zip(&mapped) {
            state = self.f.outer_phase_from(self.inputs, i, &state, inner)?;
        }
        Ok(state)
    }

    fn vec_of(&self, state: StateVec) -> StateVec {
        state
    }

    fn state_of(&self, state: &StateVec) -> Result<StateVec> {
        Ok(state.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testplans;
    use parsynt_lang::interp::run_program;
    use parsynt_trace::sinks::CollectingSink;
    use parsynt_trace::EventKind;

    #[test]
    fn dnc_execution_matches_sequential() {
        let plan = testplans::sum2d();
        let input = Value::seq2_of_ints(&[
            vec![1, 2, 3],
            vec![-4, 5, 6],
            vec![7, -8, 9],
            vec![1, 1, 1],
            vec![0, 2, -3],
        ]);
        let seq =
            parsynt_lang::interp::run_program(&plan.program, std::slice::from_ref(&input)).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = run_divide_and_conquer(plan, std::slice::from_ref(&input), threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn map_only_execution_matches_sequential() {
        let plan = testplans::balanced_parens();
        assert!(plan.is_map_only());
        // "(()" ")" "()" rows
        let input = Value::seq2_of_ints(&[vec![1, 1, -1], vec![-1], vec![1, -1]]);
        let seq =
            parsynt_lang::interp::run_program(&plan.program, std::slice::from_ref(&input)).unwrap();
        let par = run_map_only(plan, &[input], 3).unwrap();
        assert_eq!(
            par.scalar_named(&plan.program, "cnt"),
            seq.scalar_named(&plan.program, "cnt")
        );
    }

    #[test]
    fn wrappers_reject_the_other_plan_kind() {
        let input = Value::seq2_of_ints(&[vec![1, -1], vec![1]]);
        let inputs = std::slice::from_ref(&input);
        let err = run_divide_and_conquer(testplans::balanced_parens(), inputs, 2).unwrap_err();
        assert!(err
            .to_string()
            .contains("not a divide-and-conquer parallelization"));
        let err = run_map_only(testplans::sum2d(), inputs, 2).unwrap_err();
        assert!(err.to_string().contains("not a map-only parallelization"));
    }

    /// Run `plan` under a collecting tracer: the state, the total of the
    /// `execute.chunks` counter, and whether a `run_parallel` span was
    /// emitted.
    fn traced_run(
        plan: &Parallelization,
        inputs: &[Value],
        run: RunConfig,
    ) -> (StateVec, u64, bool) {
        let sink = CollectingSink::new();
        let out = {
            let _guard = trace::set_ambient(trace::Tracer::from_sink(sink.clone()));
            run_plan_checked(plan, inputs, &run).unwrap()
        };
        let events = sink.events();
        let chunks = events
            .iter()
            .filter(|e| e.phase == "execute" && e.name == "chunks")
            .map(|e| match e.kind {
                EventKind::Counter { value } => value,
                _ => 0,
            })
            .sum();
        let parallel = events.iter().any(|e| e.name == "run_parallel");
        (out.state, chunks, parallel)
    }

    #[test]
    fn grain_and_backend_reach_synthesized_plans() {
        // Bracket rows (±1), valid input for both plans; 12 rows.
        let rows: Vec<Vec<i64>> = (0..12)
            .map(|i| match i % 4 {
                0 => vec![1, 1, -1],
                1 => vec![-1],
                2 => vec![1, -1],
                _ => vec![-1, 1, 1, -1],
            })
            .collect();
        let inputs = vec![Value::seq2_of_ints(&rows)];
        for plan in [testplans::sum2d(), testplans::balanced_parens()] {
            let sequential = run_program(&plan.program, &inputs).unwrap();
            for engine in [Engine::Compiled, Engine::Interp] {
                let check = |run: RunConfig, chunks: usize, parallel: bool| {
                    let (state, seen_chunks, seen_parallel) =
                        traced_run(plan, &inputs, run.with_engine(engine));
                    assert_eq!(state, sequential, "{engine} {run:?}");
                    assert_eq!(
                        (seen_chunks, seen_parallel),
                        (chunks as u64, parallel),
                        "{engine} {run:?}"
                    );
                };
                // Work stealing cuts ⌈n / grain⌉ chunks.
                for grain in [1, 5, 11] {
                    check(
                        RunConfig::work_stealing(3).with_grain(grain),
                        12usize.div_ceil(grain),
                        true,
                    );
                }
                // Static scheduling cuts one chunk per thread.
                for threads in [2, 3, 4] {
                    check(
                        RunConfig::static_schedule(threads).with_grain(1),
                        threads,
                        true,
                    );
                }
                // At most `grain` rows, or one thread: one chunk on the
                // calling thread, no parallel run.
                for run in [
                    RunConfig::work_stealing(4).with_grain(12),
                    RunConfig::static_schedule(4),
                    RunConfig::work_stealing(1).with_grain(1),
                ] {
                    check(run, 1, false);
                }
            }
        }
    }
}
