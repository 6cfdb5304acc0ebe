//! The three workloads. Each sets up (timed as `setup_s`), runs its timed
//! closed loop for the run's seconds, pairing every timed operation with a
//! reference operation (see [`crate::reference`]), checks every output,
//! and in a traced run adds the per-layer probes.

use crate::layers::{
    exec_metrics, overhead_metric, probe_plan, probe_synthesis, service_metrics, start_server,
    warm_probe, ExecCounts, PlanProbe, Synthesized,
};
use crate::plans::{
    nproc, outcome_matches, parse_source, run_config, shuffle, suite, synthesize, ExecPlan,
    PlanShape, Sizes, Tally, EXEC_PLANS, SYNTH_SLICE,
};
use crate::reference::{map_work, read_pass, EchoServer};
use crate::report::{metric, Metric, RunReport};
use crate::spans::Spans;
use crate::stats::{geo_mean, median, micros, secs, tail_percentile};
use crate::warm::{closed_loop, Served};
use parsynt_core::{run_plan_checked, run_stream_checked, PipelineReport, SolutionCache};
use parsynt_lang::interp::StateVec;
use parsynt_lang::{Program, Value};
use parsynt_suite::Benchmark;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed loop measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Shared state of one run: the span recorder and the failure tally.
struct Ctx {
    args: RunArgs,
    sizes: Sizes,
    threads: usize,
    spans: Spans,
    tally: Tally,
    counts: ExecCounts,
    probes: Vec<PlanProbe>,
}

impl Ctx {
    fn new(args: RunArgs, sizes: Sizes) -> Self {
        Ctx {
            args,
            sizes,
            threads: nproc(),
            spans: Spans::new(false),
            tally: Tally::default(),
            counts: ExecCounts::default(),
            probes: Vec::new(),
        }
    }

    /// Rounds of a timed loop: at least `min_calls` (two when traced, so
    /// traced and untraced rounds both occur) and until `budget` passed.
    fn more_rounds(&self, round: usize, started: Instant, budget: Duration) -> bool {
        let min = if self.args.trace {
            self.sizes.min_calls.max(2)
        } else {
            self.sizes.min_calls
        };
        round < min || started.elapsed() < budget
    }

    /// In a traced run, record spans on odd rounds only.
    fn trace_round(&mut self, round: usize) -> bool {
        let traced = self.args.trace && round % 2 == 1;
        self.spans.set_recording(traced);
        traced
    }

    /// The first state a plan produces becomes its reference; every later
    /// one must equal it.
    fn check_reference(
        &mut self,
        reference: &mut Option<StateVec>,
        id: &str,
        what: &str,
        state: StateVec,
    ) {
        match reference {
            None => *reference = Some(state),
            Some(want) => self.check_state(id, what, &state, want),
        }
    }

    fn check_state(&mut self, id: &str, what: &str, got: &StateVec, want: &StateVec) {
        self.tally.check(got == want, || {
            format!(
                "{id}: {what} gives {:?}, expected {:?}",
                got.entries(),
                want.entries()
            )
        });
    }

    fn finish(
        mut self,
        workload: &str,
        end_to_end: Vec<Metric>,
        mut detail: Vec<Metric>,
    ) -> RunReport {
        let ratio = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        detail.push(metric(
            "failed_ratio",
            ratio,
            "ratio",
            self.tally.attempted as usize,
        ));
        let mut report = RunReport {
            workload: workload.to_owned(),
            end_to_end,
            detail,
            ..RunReport::default()
        };
        if self.args.trace {
            report.per_layer = exec_metrics(&self.probes, self.counts);
            report.spans = Some(std::mem::replace(&mut self.spans, Spans::new(false)));
        }
        report.attempted = self.tally.attempted;
        report.failed = self.tally.failed;
        report.errors = std::mem::take(&mut self.tally.errors);
        report
    }

    fn add_counts(&mut self, recovered: usize, degraded: usize) {
        self.counts.recovered_chunks += recovered as u64;
        self.counts.degraded += degraded as u64;
    }
}

/// Set up `reps` times, keep the last result, and return it with the
/// median set-up time.
fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Duration), String> {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup()?);
        times.push(secs(started.elapsed()));
    }
    let med = median(&times).unwrap_or(0.0);
    Ok((
        kept.expect("at least one set-up"),
        Duration::from_secs_f64(med),
    ))
}

/// How `batch` and `stream` call a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One `run_plan_checked` call over the whole input.
    Batch,
    /// One `run_stream_checked` call over pre-built chunks, a snapshot
    /// after each.
    Stream,
}

/// One plan of `batch` or `stream`, set up.
struct Loaded {
    plan: ExecPlan,
    inputs: Vec<Value>,
    /// The stream chunks, built in set-up by slicing only the main input
    /// (empty in `batch`).
    chunks: Vec<Vec<Value>>,
}

/// What a timed call returned.
struct Outcome {
    state: StateVec,
    recovered: usize,
    degraded: usize,
}

/// One timed call.
struct Call {
    out: Result<Outcome, String>,
    /// Wall seconds of the whole call.
    took: f64,
    /// Operation times in µs: the call itself (`batch`) or the interval
    /// before each snapshot callback (`stream`).
    ops_us: Vec<f64>,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Batch => "batch",
            Mode::Stream => "stream",
        }
    }

    fn load(
        self,
        shape: PlanShape,
        sizes: Sizes,
        seed: u64,
        threads: usize,
    ) -> Result<Loaded, String> {
        let plan = ExecPlan::build(shape, threads)?;
        let leaves = match self {
            Mode::Batch => sizes.batch_leaves,
            Mode::Stream => sizes.stream_leaves,
        };
        let inputs = plan.inputs(shape.outer_for(leaves), seed);
        let chunks = match self {
            Mode::Batch => Vec::new(),
            Mode::Stream => plan.chunks(&inputs, sizes.chunk_leaves).collect(),
        };
        Ok(Loaded {
            plan,
            inputs,
            chunks,
        })
    }

    /// One timed call at `threads`.
    fn call(self, spans: &mut Spans, op: u64, l: &Loaded, threads: usize) -> Call {
        let par = &l.plan.report.parallelization;
        match self {
            Mode::Batch => {
                let open = spans.begin("e2e.run_plan_checked", op);
                let out = run_plan_checked(par, &l.inputs, &run_config(threads));
                let took = spans.end(open);
                Call {
                    out: out
                        .map(|o| Outcome {
                            state: o.state,
                            recovered: o.recovered_chunks,
                            degraded: usize::from(o.degraded),
                        })
                        .map_err(|e| e.to_string()),
                    took: secs(took),
                    ops_us: vec![micros(took)],
                }
            }
            Mode::Stream => {
                // The stream takes ownership of every chunk; the copy is
                // made before the clocks start.
                let owned = l.chunks.to_vec();
                let n = owned.len();
                let mut ops_us = Vec::with_capacity(n);
                let open = spans.begin("e2e.stream", op);
                let mut chunk_span = Some(spans.begin("e2e.chunk", op));
                let mut last = Instant::now();
                let out = run_stream_checked(par, owned, run_config(threads), 1, |_| {
                    let now = Instant::now();
                    ops_us.push(micros(now - last));
                    last = now;
                    if let Some(span) = chunk_span.take() {
                        spans.end(span);
                    }
                    chunk_span = Some(spans.begin("e2e.chunk", op));
                });
                if let Some(span) = chunk_span.take() {
                    spans.end(span);
                }
                let took = secs(spans.end(open));
                let out = match out {
                    Ok(o) if o.chunks == n && o.snapshots == n && ops_us.len() == n => {
                        Ok(Outcome {
                            state: o.state,
                            recovered: o.recovered_chunks,
                            degraded: o.degraded_chunks,
                        })
                    }
                    Ok(o) => Err(format!(
                        "stream consumed {} of {n} chunks with {} snapshots",
                        o.chunks, o.snapshots
                    )),
                    Err(e) => Err(e.to_string()),
                };
                Call { out, took, ops_us }
            }
        }
    }

    /// The reference operation paired with a call at `threads`: a read
    /// pass over the same main input (`batch`) or over each chunk's
    /// (`stream`), in µs per operation.
    fn reference(self, l: &Loaded, threads: usize) -> Vec<f64> {
        let main = l.plan.main_index();
        let timed = |v: &Value| {
            let started = Instant::now();
            std::hint::black_box(read_pass(v, threads));
            micros(started.elapsed())
        };
        match self {
            Mode::Batch => vec![timed(&l.inputs[main])],
            Mode::Stream => l.chunks.iter().map(|c| timed(&c[main])).collect(),
        }
    }

    /// After the timed loop: the calls' state must equal the final state
    /// of a stream over the same input (`batch`, 64 chunks keep it short)
    /// or of a batch run over the stream's input (`stream`).
    fn cross_check(self, ctx: &mut Ctx, l: &Loaded, want: &StateVec) {
        let id = l.plan.shape.id;
        let par = &l.plan.report.parallelization;
        match self {
            Mode::Batch => {
                let n = l.inputs[l.plan.main_index()].len().unwrap_or(0);
                let chunk_leaves = (n / 64).max(1) * l.plan.shape.leaves_per_outer();
                let chunks = l.plan.chunks(&l.inputs, chunk_leaves);
                let out = run_stream_checked(par, chunks, run_config(ctx.threads), 0, |_| {});
                if let Some(out) = ctx.tally.check_result(id, out) {
                    ctx.add_counts(out.recovered_chunks, out.degraded_chunks);
                    ctx.check_state(id, "the stream's final state", &out.state, want);
                }
            }
            Mode::Stream => {
                let out = run_plan_checked(par, &l.inputs, &run_config(ctx.threads));
                if let Some(out) = ctx.tally.check_result(id, out) {
                    ctx.check_state(id, "the batch run", &out.state, want);
                }
            }
        }
    }
}

/// Per-plan timings of the timed loop.
#[derive(Default)]
struct PlanTimes {
    id: &'static str,
    leaves: f64,
    /// Wall seconds per call at `nproc` and at 1 thread.
    calls: Vec<f64>,
    calls_1t: Vec<f64>,
    /// Operation times at `nproc` (µs) and those of their references.
    ops_us: Vec<f64>,
    ref_us: Vec<f64>,
    /// Per call, the median operation time over the median reference
    /// time, at `nproc` and at 1 thread.
    rel: Vec<f64>,
    rel_1t: Vec<f64>,
    /// Call times at `nproc` in traced and untraced rounds.
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl PlanTimes {
    fn new(l: &Loaded) -> Self {
        PlanTimes {
            id: l.plan.shape.id,
            leaves: crate::plans::leaves(&l.inputs[l.plan.main_index()]) as f64,
            ..PlanTimes::default()
        }
    }

    /// Record one call at `threads` that took `took` seconds, with its
    /// operation times and those of its paired reference.
    fn record(
        &mut self,
        threads: usize,
        traced: bool,
        took: f64,
        ops_us: Vec<f64>,
        ref_us: Vec<f64>,
    ) {
        let rel = match (median(&ops_us), median(&ref_us)) {
            (Some(op), Some(r)) if r > 0.0 => Some(op / r),
            _ => None,
        };
        if threads == 1 {
            self.calls_1t.push(took);
            self.rel_1t.extend(rel);
            return;
        }
        self.calls.push(took);
        self.rel.extend(rel);
        self.ops_us.extend(ops_us);
        self.ref_us.extend(ref_us);
        if traced {
            self.traced.push(took);
        } else {
            self.untraced.push(took);
        }
    }
}

fn exec_facts(report: &mut RunReport, args: RunArgs, times: &[PlanTimes], chunk: Option<usize>) {
    let mut facts = base_facts(args);
    for t in times {
        facts.push((format!("leaves.{}", t.id), t.leaves.to_string()));
    }
    if let Some(c) = chunk {
        facts.push(("chunk_leaves".to_owned(), c.to_string()));
    }
    report.facts = facts;
}

fn base_facts(args: RunArgs) -> Vec<(String, String)> {
    vec![
        ("nproc".to_owned(), nproc().to_string()),
        ("threads".to_owned(), nproc().to_string()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        (
            "rustc".to_owned(),
            env!("PERFBENCH_RUSTC_VERSION").to_owned(),
        ),
        // The benchmark's manifest does not enable `parsynt-runtime`'s
        // `fault-inject` feature, and no crate it builds does either.
        ("fault_inject".to_owned(), "off".to_owned()),
        ("engine".to_owned(), "compiled".to_owned()),
    ]
}

/// The gated metrics every workload reports.
fn end_to_end(
    setup: f64,
    (op_rel, op_n): (f64, usize),
    (base_rel, base_n): (f64, usize),
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup, "s", 0),
        metric("op_p50_rel", op_rel, "ratio", op_n),
        metric("baseline_rel", base_rel, "ratio", base_n),
    ]
}

/// Synthesis items for the probes from executable plans.
fn synthesized(plans: &[ExecPlan]) -> Vec<Synthesized<'_>> {
    plans
        .iter()
        .map(|p| Synthesized {
            bench: &p.bench,
            program: &p.original,
            report: &p.report,
        })
        .collect()
}

/// The synthesis and service probes shared by `batch` and `stream`.
fn synthesis_and_service_probes(ctx: &mut Ctx, plans: &[ExecPlan]) -> Result<Vec<Metric>, String> {
    ctx.spans.set_recording(true);
    let items = synthesized(plans);
    let mut out = probe_synthesis(&items, ctx.threads, &mut ctx.spans, &mut ctx.tally);
    let (server, mut warm) = warm_probe(&items, ctx.threads, &ctx.sizes, &mut ctx.spans)?;
    ctx.tally.merge(std::mem::take(&mut warm.tally));
    out.extend(service_metrics(
        &items,
        &server.cache(),
        &warm,
        &mut ctx.spans,
        &mut ctx.tally,
    ));
    server.shutdown();
    Ok(out)
}

/// `batch`: each plan through `run_plan_checked` on about 10⁷ leaves, at
/// `nproc` threads and at 1 thread.
///
/// # Errors
///
/// Fails when set-up fails (synthesis, compile, server bind).
pub fn batch(args: RunArgs, sizes: Sizes) -> Result<RunReport, String> {
    exec_workload(Mode::Batch, args, sizes)
}

/// `stream`: each plan through `run_stream_checked` in chunks of about
/// 1 000 leaves, with a snapshot after every chunk.
///
/// # Errors
///
/// Fails when set-up fails.
pub fn stream(args: RunArgs, sizes: Sizes) -> Result<RunReport, String> {
    exec_workload(Mode::Stream, args, sizes)
}

fn exec_workload(mode: Mode, args: RunArgs, sizes: Sizes) -> Result<RunReport, String> {
    let mut ctx = Ctx::new(args, sizes);
    let mut setup = 0.0;
    let mut set = Vec::with_capacity(EXEC_PLANS.len());
    for shape in EXEC_PLANS {
        let (loaded, took) = repeated_setup(sizes.setup_reps, || {
            mode.load(shape, sizes, args.seed, ctx.threads)
        })?;
        setup += secs(took);
        set.push(loaded);
    }
    let mut times: Vec<PlanTimes> = set.iter().map(PlanTimes::new).collect();
    let mut references: Vec<Option<StateVec>> = vec![None; set.len()];

    // Rounds visit every plan in turn, so a slow spell of the host is
    // shared by all plans instead of landing on one; each call is
    // followed by its reference, so the two see the same host.
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut round = 0;
    let mut op = 0u64;
    while ctx.more_rounds(round, started, budget) {
        let traced = ctx.trace_round(round);
        for (k, l) in set.iter().enumerate() {
            for threads in [ctx.threads, 1] {
                op += 1;
                let id = l.plan.shape.id;
                let Call { out, took, ops_us } = mode.call(&mut ctx.spans, op, l, threads);
                let ref_us = mode.reference(l, threads);
                let Some(out) = ctx.tally.check_result(id, out) else {
                    continue;
                };
                ctx.add_counts(out.recovered, out.degraded);
                ctx.tally.check(out.degraded == 0, || {
                    format!("{id}: {} degraded at {threads} threads", out.degraded)
                });
                let what = format!("{} at {threads} threads", mode.name());
                ctx.check_reference(&mut references[k], id, &what, out.state);
                times[k].record(threads, traced, took, ops_us, ref_us);
            }
        }
        round += 1;
    }
    ctx.spans.set_recording(false);

    let mut plans = Vec::with_capacity(set.len());
    for (l, reference) in set.into_iter().zip(&references) {
        if let Some(want) = reference {
            mode.cross_check(&mut ctx, &l, want);
        }
        let checked =
            l.plan
                .verify_against_interpreter(ctx.sizes.verify_rows, ctx.threads, args.seed);
        ctx.tally.check_result(l.plan.shape.id, checked);
        if args.trace {
            ctx.spans.set_recording(true);
            let probe = probe_plan(
                &l.plan,
                &l.inputs,
                ctx.threads,
                &sizes,
                args.seed,
                &mut ctx.spans,
                &mut ctx.tally,
            );
            ctx.probes.push(probe);
        }
        plans.push(l.plan);
    }

    let geo_of_medians = |f: fn(&PlanTimes) -> &Vec<f64>| -> (f64, usize) {
        let medians: Vec<f64> = times.iter().filter_map(|t| median(f(t))).collect();
        let n = times.iter().map(|t| f(t).len()).sum();
        if medians.len() < times.len() {
            return (0.0, n);
        }
        (geo_mean(&medians).unwrap_or(0.0), n)
    };
    let e2e = end_to_end(
        setup,
        geo_of_medians(|t| &t.rel),
        geo_of_medians(|t| &t.rel_1t),
    );
    let detail = exec_detail(mode, &times, geo_of_medians);
    let per_layer = traced_extras(&mut ctx, &plans, &times)?;
    let mut report = ctx.finish(mode.name(), e2e, detail);
    report.per_layer.extend(per_layer);
    let chunk = (mode == Mode::Stream).then_some(sizes.chunk_leaves);
    exec_facts(&mut report, args, &times, chunk);
    Ok(report)
}

/// In a traced run: the synthesis and service probes and the tracing
/// overhead, appended after the execution-layer metrics.
fn traced_extras(
    ctx: &mut Ctx,
    plans: &[ExecPlan],
    times: &[PlanTimes],
) -> Result<Vec<Metric>, String> {
    if !ctx.args.trace {
        return Ok(Vec::new());
    }
    let mut out = synthesis_and_service_probes(ctx, plans)?;
    let groups: Vec<(Vec<f64>, Vec<f64>)> = times
        .iter()
        .map(|t| (t.traced.clone(), t.untraced.clone()))
        .collect();
    out.push(overhead_metric(&groups));
    Ok(out)
}

/// The wall-clock numbers under the names the workload's users know,
/// the reference times, and each plan's median call times and ratios.
fn exec_detail(
    mode: Mode,
    times: &[PlanTimes],
    geo_of_medians: impl Fn(fn(&PlanTimes) -> &Vec<f64>) -> (f64, usize),
) -> Vec<Metric> {
    let leaves: f64 = times.iter().map(|t| t.leaves).sum();
    let rate = |f: fn(&PlanTimes) -> &Vec<f64>| {
        let total: f64 = times.iter().filter_map(|t| median(f(t))).sum();
        let n = times.iter().map(|t| f(t).len()).sum();
        (leaves / total.max(f64::EPSILON), n)
    };
    let (el, el_n) = rate(|t| &t.calls);
    let (el_1t, el_1t_n) = rate(|t| &t.calls_1t);
    let (op, op_n) = geo_of_medians(|t| &t.ops_us);
    let (reference, ref_n) = geo_of_medians(|t| &t.ref_us);
    let mut out = vec![
        metric("el_per_s", el, "leaves/s", el_n),
        metric("el_per_s_1t", el_1t, "leaves/s", el_1t_n),
        metric("op_p50_us", op, "us", op_n),
        metric("ref_p50_us", reference, "us", ref_n),
    ];
    if mode == Mode::Stream {
        let p99s: Vec<f64> = times
            .iter()
            .filter_map(|t| tail_percentile(&t.ops_us, 99.0))
            .collect();
        let p99 = if p99s.len() == times.len() {
            geo_mean(&p99s).unwrap_or(0.0)
        } else {
            0.0
        };
        out.push(metric("chunk_p50_us", op, "us", op_n));
        out.push(metric("chunk_p99_us", p99, "us", op_n));
    }
    for t in times {
        out.push(metric(
            format!("call_ms.{}", t.id),
            median(&t.calls).unwrap_or(0.0) * 1e3,
            "ms",
            t.calls.len(),
        ));
        out.push(metric(
            format!("call_1t_ms.{}", t.id),
            median(&t.calls_1t).unwrap_or(0.0) * 1e3,
            "ms",
            t.calls_1t.len(),
        ));
        out.push(metric(
            format!("op_p50_rel.{}", t.id),
            median(&t.rel).unwrap_or(0.0),
            "ratio",
            t.rel.len(),
        ));
        out.push(metric(
            format!("baseline_rel.{}", t.id),
            median(&t.rel_1t).unwrap_or(0.0),
            "ratio",
            t.rel_1t.len(),
        ));
    }
    out
}

/// One cold synthesis of the slice.
struct ColdPass {
    /// Wall seconds per program, in slice order.
    program_s: Vec<f64>,
    /// Wall seconds of each reference map workload.
    reference_s: Vec<f64>,
    /// One report per slice program; `None` where synthesis errored
    /// (counted as a failure).
    reports: Vec<Option<PipelineReport>>,
}

/// `synth`: cold `Pipeline::run` of the ten-program slice, then warm
/// `POST /parallelize` re-serves from the daemon whose cache the cold
/// pass filled.
///
/// # Errors
///
/// Fails when set-up fails (a source does not parse, the daemon cannot
/// bind).
pub fn synth(args: RunArgs, sizes: Sizes) -> Result<RunReport, String> {
    let mut ctx = Ctx::new(args, sizes);
    // Set-up synthesizes the slice cold into a fresh daemon's cache. It is
    // repeated; the cold figures sum each program's median over the passes.
    let mut cold_times: Vec<Vec<f64>> = Vec::new();
    let mut map_ref_s: Vec<f64> = Vec::new();
    let ((server, slice, cold), setup) = repeated_setup(sizes.cold_passes, || {
        let server = start_server(ctx.threads)?;
        let mut slice: Vec<(Benchmark, Program)> = Vec::with_capacity(SYNTH_SLICE.len());
        for id in SYNTH_SLICE {
            let b = suite(id)?;
            let p = parse_source(&b)?;
            slice.push((b, p));
        }
        shuffle(&mut slice, args.seed);
        let cold = cold_pass(&mut ctx, &slice, &server.cache());
        cold_times.push(cold.program_s.clone());
        map_ref_s.extend(&cold.reference_s);
        Ok((server, slice, cold))
    })?;
    let cold_s: f64 = (0..slice.len())
        .map(|k| {
            let per_pass: Vec<f64> = cold_times.iter().map(|pass| pass[k]).collect();
            median(&per_pass).unwrap_or(0.0)
        })
        .sum();
    let map_ref = median(&map_ref_s).unwrap_or(0.0);
    let served: Vec<Served> = slice
        .iter()
        .zip(&cold.reports)
        .filter_map(|((b, _), r)| {
            Some(Served::new(
                b.id,
                b.source,
                r.as_ref()?.plan_text().to_owned(),
            ))
        })
        .collect();
    if served.is_empty() {
        return Err("no program of the slice synthesized".to_owned());
    }

    let echo = EchoServer::start(ctx.threads)?;
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    ctx.spans.set_recording(args.trace);
    let mut warm = closed_loop(
        server.addr(),
        Some(echo.addr()),
        &served,
        ctx.threads,
        until,
        sizes.min_requests,
        &mut ctx.spans,
    );
    ctx.spans.set_recording(false);
    echo.shutdown();
    ctx.tally.merge(std::mem::take(&mut warm.tally));

    let p50 = median(&warm.latencies_us).unwrap_or(0.0);
    let p99 = tail_percentile(&warm.latencies_us, 99.0).unwrap_or(0.0);
    let n = warm.latencies_us.len();
    let echo_p50 = median(&warm.reference_us).unwrap_or(0.0);
    let e2e = end_to_end(
        secs(setup),
        (p50 / echo_p50.max(f64::EPSILON), n),
        (cold_s / map_ref.max(f64::EPSILON), cold_times.len()),
    );
    let detail = vec![
        metric("synth_cold_s", cold_s, "s", cold_times.len()),
        metric("warm_p50_us", p50, "us", n),
        metric("warm_p99_us", p99, "us", n),
        metric("warm_rps", warm.rps(), "req/s", n),
        metric("echo_p50_us", echo_p50, "us", warm.reference_us.len()),
        metric("map_ref_ms", map_ref * 1e3, "ms", map_ref_s.len()),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        ctx.spans.set_recording(true);
        let items: Vec<Synthesized<'_>> = slice
            .iter()
            .zip(&cold.reports)
            .filter_map(|((b, p), r)| {
                Some(Synthesized {
                    bench: b,
                    program: p,
                    report: r.as_ref()?,
                })
            })
            .collect();
        per_layer.extend(probe_synthesis(
            &items,
            ctx.threads,
            &mut ctx.spans,
            &mut ctx.tally,
        ));
        per_layer.extend(service_metrics(
            &items,
            &server.cache(),
            &warm,
            &mut ctx.spans,
            &mut ctx.tally,
        ));
        per_layer.push(overhead_metric(&[(
            warm.traced_us.clone(),
            warm.untraced_us.clone(),
        )]));
        probe_slice_plans(&mut ctx, &slice, &cold.reports)?;
    }
    server.shutdown();

    let mut report = ctx.finish("synth", e2e, detail);
    report.per_layer.extend(per_layer);
    let mut facts = base_facts(args);
    facts.push((
        "programs".to_owned(),
        slice
            .iter()
            .map(|(b, _)| b.id)
            .collect::<Vec<_>>()
            .join(","),
    ));
    facts.push(("warm_clients".to_owned(), nproc().to_string()));
    facts.push(("probe_leaves".to_owned(), sizes.probe_leaves.to_string()));
    report.facts = facts;
    Ok(report)
}

/// Reference map workloads run before each program of a cold pass.
const MAP_REPS: usize = 3;

fn cold_pass(
    ctx: &mut Ctx,
    slice: &[(Benchmark, Program)],
    cache: &Arc<SolutionCache>,
) -> ColdPass {
    let mut program_s = Vec::with_capacity(slice.len());
    let mut reference_s = Vec::with_capacity(slice.len());
    let mut reports = Vec::with_capacity(slice.len());
    for (k, (b, p)) in slice.iter().enumerate() {
        for _ in 0..MAP_REPS {
            let started = Instant::now();
            std::hint::black_box(map_work());
            reference_s.push(secs(started.elapsed()));
        }
        let (report, took) = ctx.spans.time("e2e.synthesize_cold", k as u64, || {
            synthesize(b, p, ctx.threads, Some(Arc::clone(cache)))
        });
        program_s.push(secs(took));
        let report = ctx.tally.check_result(b.id, report);
        if let Some(r) = &report {
            ctx.tally.check(outcome_matches(b, r) && !r.cache_hit, || {
                format!("{}: cold synthesis gave an unexpected outcome", b.id)
            });
        }
        reports.push(report);
    }
    ColdPass {
        program_s,
        reference_s,
        reports,
    }
}

/// The execution probes of the traced `synth` run: the slice's plans that
/// `batch` also runs, on inputs of `probe_leaves` leaves.
fn probe_slice_plans(
    ctx: &mut Ctx,
    slice: &[(Benchmark, Program)],
    reports: &[Option<PipelineReport>],
) -> Result<(), String> {
    for shape in EXEC_PLANS {
        let Some(k) = slice.iter().position(|(b, _)| b.id == shape.id) else {
            return Err(format!("{} is not in the synthesis slice", shape.id));
        };
        let report = reports[k]
            .clone()
            .ok_or_else(|| format!("{} did not synthesize", shape.id))?;
        let plan = ExecPlan::from_report(shape, slice[k].0.clone(), slice[k].1.clone(), report)?;
        let inputs = plan.inputs(shape.outer_for(ctx.sizes.probe_leaves), ctx.args.seed);
        let probe = probe_plan(
            &plan,
            &inputs,
            ctx.threads,
            &ctx.sizes,
            ctx.args.seed,
            &mut ctx.spans,
            &mut ctx.tally,
        );
        ctx.probes.push(probe);
    }
    Ok(())
}
