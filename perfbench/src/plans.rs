//! Set-up shared by the workloads: synthesis of the suite programs,
//! seeded input generation, stream chunking, and the correctness checks
//! every workload applies to the program's outputs.

use parsynt_core::{
    compile_plan, run_plan_checked, CompiledPlan, Engine, PipelineConfig, PipelineReport,
    RunConfig, SolutionCache,
};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::interp::run_program;
use parsynt_lang::{parse, Program, Value};
use parsynt_suite::{benchmark, Benchmark, ExpectedOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The four plans `batch` and `stream` execute, with the shape of one
/// outer element of their main input.
pub const EXEC_PLANS: [PlanShape; 4] = [
    PlanShape::new("sum", 100, 1),
    PlanShape::new("sorted", 100, 1),
    PlanShape::new("mbbs", 10, 10),
    PlanShape::new("max_dist", 1, 1),
];

/// The ten-program Table-1 slice `synth` synthesizes cold and re-serves
/// warm.
pub const SYNTH_SLICE: [&str; 10] = [
    "sum",
    "sorted",
    "min_max",
    "max_top_strip",
    "max_bottom_strip",
    "max_left_strip",
    "mode",
    "mbbs",
    "max_dist",
    "increasing_ranges",
];

/// Shape of one outer element of a plan's main input.
#[derive(Debug, Clone, Copy)]
pub struct PlanShape {
    /// Suite benchmark id.
    pub id: &'static str,
    /// Size of the second dimension (1 for 1-D inputs).
    pub cols: usize,
    /// Size of the third dimension (1 below 3-D inputs).
    pub depth: usize,
}

impl PlanShape {
    const fn new(id: &'static str, cols: usize, depth: usize) -> Self {
        PlanShape { id, cols, depth }
    }

    /// Leaves in one outer element.
    pub fn leaves_per_outer(&self) -> usize {
        self.cols * self.depth
    }

    /// Outer elements needed for about `leaves` leaves (at least 2).
    pub fn outer_for(&self, leaves: usize) -> usize {
        (leaves / self.leaves_per_outer()).max(2)
    }
}

/// Input sizes and repetition counts of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Leaves per plan in `batch`.
    pub batch_leaves: usize,
    /// Leaves per plan in one `stream` call.
    pub stream_leaves: usize,
    /// Leaves per stream chunk.
    pub chunk_leaves: usize,
    /// Outer rows of the interpreter verification input.
    pub verify_rows: usize,
    /// Leaves per plan in the execution probe of the traced `synth` run.
    pub probe_leaves: usize,
    /// Stream chunks per plan in the chunk-level probes.
    pub probe_chunks: usize,
    /// Repetitions of the set-up whose median is `setup_s`.
    pub setup_reps: usize,
    /// Minimum timed calls per plan and thread count.
    pub min_calls: usize,
    /// Minimum warm requests (p99 needs ten beyond it).
    pub min_requests: usize,
    /// Repetitions of the `synth` set-up, each a cold pass over the
    /// slice.
    pub cold_passes: usize,
}

impl Sizes {
    /// The sizes of a measured run.
    pub fn full() -> Self {
        Sizes {
            batch_leaves: 10_000_000,
            stream_leaves: 1_000_000,
            chunk_leaves: 1_000,
            verify_rows: 100,
            probe_leaves: 1_000_000,
            probe_chunks: 200,
            setup_reps: 2,
            min_calls: 3,
            min_requests: 1_010,
            cold_passes: 3,
        }
    }

    /// Tiny sizes that keep every check on (the smoke tests).
    pub fn smoke() -> Self {
        Sizes {
            batch_leaves: 20_000,
            stream_leaves: 5_000,
            chunk_leaves: 500,
            verify_rows: 12,
            probe_leaves: 5_000,
            probe_chunks: 5,
            setup_reps: 1,
            min_calls: 1,
            min_requests: 20,
            cold_passes: 1,
        }
    }
}

/// Attempted and failed operations, with the reasons for failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a wrong state, an unexpected
    /// outcome, a non-200 response, or a degraded run.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; a failure records `why()`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(why());
        }
    }

    /// Count one operation that returned a result.
    pub fn check_result<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Execution threads: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A run configuration of the compiled engine at `threads`.
pub fn run_config(threads: usize) -> RunConfig {
    RunConfig::default()
        .with_threads(threads)
        .with_engine(Engine::Compiled)
}

/// Look up a suite benchmark.
///
/// # Errors
///
/// Fails for an id the suite does not have.
pub fn suite(id: &str) -> Result<Benchmark, String> {
    benchmark(id).ok_or_else(|| format!("no suite benchmark named {id}"))
}

/// Parse a suite benchmark's source.
///
/// # Errors
///
/// Fails when the source does not parse.
pub fn parse_source(b: &Benchmark) -> Result<Program, String> {
    parse(b.source).map_err(|e| format!("{} does not parse: {e}", b.id))
}

/// Synthesize `program` cold with its suite profile and `threads`
/// screening threads, filling `cache` when given.
///
/// # Errors
///
/// Fails on a pipeline error.
pub fn synthesize(
    b: &Benchmark,
    program: &Program,
    threads: usize,
    cache: Option<Arc<SolutionCache>>,
) -> Result<PipelineReport, String> {
    let config = PipelineConfig::default()
        .with_profile(b.profile.clone())
        .with_synth_threads(threads);
    let mut pipeline = parsynt_core::Pipeline::new(program).configure(config);
    if let Some(cache) = cache {
        pipeline = pipeline.cache(cache);
    }
    pipeline
        .run()
        .map_err(|e| format!("pipeline error on {}: {e}", b.id))
}

/// Whether a synthesized outcome is the one the suite expects.
pub fn outcome_matches(b: &Benchmark, report: &PipelineReport) -> bool {
    let p = &report.parallelization;
    match b.expected {
        ExpectedOutcome::DivideAndConquer => p.is_divide_and_conquer(),
        ExpectedOutcome::MapOnly => p.is_map_only(),
        ExpectedOutcome::Fails => p.is_unparallelizable(),
    }
}

/// One executable plan: the suite program, its synthesized report, and
/// the compiled kernels.
pub struct ExecPlan {
    /// Shape of the main input.
    pub shape: PlanShape,
    /// The suite entry.
    pub bench: Benchmark,
    /// The original sequential program.
    pub original: Program,
    /// The cold synthesis report.
    pub report: PipelineReport,
    /// The compiled plan.
    pub compiled: CompiledPlan,
}

impl ExecPlan {
    /// Synthesize and compile the plan of `shape`.
    ///
    /// # Errors
    ///
    /// Fails when synthesis errs, yields another outcome than the suite
    /// expects, or the plan does not compile.
    pub fn build(shape: PlanShape, synth_threads: usize) -> Result<ExecPlan, String> {
        let bench = suite(shape.id)?;
        let original = parse_source(&bench)?;
        let report = synthesize(&bench, &original, synth_threads, None)?;
        ExecPlan::from_report(shape, bench, original, report)
    }

    /// Compile an already synthesized plan of `shape`.
    ///
    /// # Errors
    ///
    /// Fails when the outcome is not the one the suite expects or the
    /// plan does not compile.
    pub fn from_report(
        shape: PlanShape,
        bench: Benchmark,
        original: Program,
        report: PipelineReport,
    ) -> Result<ExecPlan, String> {
        if !outcome_matches(&bench, &report) {
            return Err(format!("{}: unexpected synthesis outcome", shape.id));
        }
        let compiled = compile_plan(&report.parallelization)
            .map_err(|e| format!("{} does not compile: {e}", shape.id))?;
        Ok(ExecPlan {
            shape,
            bench,
            original,
            report,
            compiled,
        })
    }

    /// Seeded inputs with `outer` outer elements of this plan's shape.
    pub fn inputs(&self, outer: usize, seed: u64) -> Vec<Value> {
        self.inputs_shaped(outer, self.shape.cols, self.shape.depth, seed)
    }

    fn inputs_shaped(&self, outer: usize, cols: usize, depth: usize, seed: u64) -> Vec<Value> {
        let program = &self.report.parallelization.program;
        let f = RightwardFn::new(program).expect("a synthesized plan has a rightward form");
        let mut profile = self
            .bench
            .profile
            .clone()
            .with_rows(outer, outer)
            .with_cols(cols, cols);
        profile.depth = (depth, depth);
        let mut rng = SmallRng::seed_from_u64(seed ^ fnv(self.shape.id));
        parsynt_synth::examples::random_inputs(&f, &profile, &mut rng)
    }

    /// Index of the main input.
    pub fn main_index(&self) -> usize {
        self.compiled.main_index()
    }

    /// Stream chunks of about `chunk_leaves` leaves, made lazily by
    /// slicing only the main input; other inputs are copied into every
    /// chunk unchanged.
    pub fn chunks<'a>(
        &self,
        inputs: &'a [Value],
        chunk_leaves: usize,
    ) -> impl Iterator<Item = Vec<Value>> + 'a {
        let main = self.main_index();
        let n = inputs[main].len().unwrap_or(0);
        let rows = (chunk_leaves / self.shape.leaves_per_outer()).max(1);
        (0..n).step_by(rows).map(move |lo| {
            inputs
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    if i == main {
                        v.slice(lo, (lo + rows).min(n))
                    } else {
                        v.clone()
                    }
                })
                .collect()
        })
    }

    /// Check the plan against the original sequential program run by the
    /// interpreter, on a seeded input of `rows` outer elements. Inner
    /// dimensions are capped so the interpreter, whose cost grows faster
    /// than linearly in the element count, finishes quickly.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement or error.
    pub fn verify_against_interpreter(
        &self,
        rows: usize,
        threads: usize,
        seed: u64,
    ) -> Result<(), String> {
        let inputs = self.inputs_shaped(
            rows,
            self.shape.cols.min(8),
            self.shape.depth.min(4),
            seed ^ 0x5eed,
        );
        let reference = run_program(&self.original, &inputs)
            .map_err(|e| format!("{}: interpreter error: {e}", self.shape.id))?;
        let plan = &self.report.parallelization;
        let out = run_plan_checked(plan, &inputs, &run_config(threads)).map_err(|e| {
            format!(
                "{}: plan error on the verification input: {e}",
                self.shape.id
            )
        })?;
        for decl in &self.original.state {
            let name = self.original.name(decl.name);
            let want = reference.value_named(&self.original, name);
            let got = out.state.value_named(&plan.program, name);
            if want.is_none() || want != got {
                return Err(format!(
                    "{}: state `{name}` is {got:?}, the sequential program gives {want:?}",
                    self.shape.id
                ));
            }
        }
        Ok(())
    }
}

/// Leaves of a (nested) value.
pub fn leaves(v: &Value) -> u64 {
    match v {
        Value::Seq(items) => items.iter().map(leaves).sum(),
        _ => 1,
    }
}

/// FNV-1a of a string: decorrelates per-plan seeds.
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deterministically shuffle `items` from `seed` (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
