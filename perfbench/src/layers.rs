//! Per-layer probes for the traced run. Each probe times calls into one
//! crate's public API as spans, then reduces the spans to the per-layer
//! metrics. Every workload runs every probe on its own plans, so each
//! traced run prints the full per-layer set.

use crate::plans::{run_config, synthesize, ExecPlan, Sizes, Tally};
use crate::report::{metric, Metric};
use crate::spans::Spans;
use crate::stats::{geo_mean, median, micros, secs};
use crate::warm::{closed_loop, Served, WarmStats};
use parsynt_core::{
    compile_plan, fingerprint, fingerprint_hex, run_plan_checked, CState, CachedSolution,
    CompiledDncTask, PipelineConfig, PipelineReport, SolutionCache,
};
use parsynt_lang::{parse, Program, Value};
use parsynt_lift::homomorphism::{homomorphism_lift, HomLiftOutcome};
use parsynt_lift::memoryless::memoryless_lift;
use parsynt_runtime::Executor;
use parsynt_serve::{ServeConfig, Server, ServerHandle};
use parsynt_suite::Benchmark;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retries and degrades seen in `ExecOutcome` / `StreamExecOutcome`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecCounts {
    /// Panicking attempts recovered by a retry.
    pub recovered_chunks: u64,
    /// Runs or stream chunks that degraded to a sequential re-run.
    pub degraded: u64,
}

/// One plan's execution-layer numbers.
#[derive(Debug, Default)]
pub struct PlanProbe {
    id: &'static str,
    leaves: f64,
    compile_us: Vec<f64>,
    ingest_s: f64,
    kernel_s: f64,
    join_ns: f64,
    e2e_s: f64,
    e2e_1t_s: f64,
    exec_s: f64,
    native_s: f64,
    chunk_ingest_us: f64,
    chunk_kernel_us: f64,
    small_run_us: f64,
    stream_push_us: f64,
    chunk_samples: usize,
}

const REPS: usize = 3;
const COMPILE_REPS: usize = 20;
const JOIN_BATCH: usize = 1_000;
const JOIN_BATCHES: usize = 21;

/// Probe the execution layers of `plan` on `inputs`: compile, ingest,
/// the 1-thread kernel, the join, the whole checked run, the runtime
/// executor, the native ceiling, and the per-chunk costs of streaming.
pub fn probe_plan(
    plan: &ExecPlan,
    inputs: &[Value],
    threads: usize,
    sizes: &Sizes,
    seed: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> PlanProbe {
    let op = crate::plans::fnv(plan.shape.id);
    let id = plan.shape.id;
    let par = &plan.report.parallelization;
    let cp = &plan.compiled;
    let main = &inputs[plan.main_index()];
    let mut probe = PlanProbe {
        id,
        leaves: crate::plans::leaves(main) as f64,
        ..PlanProbe::default()
    };

    for _ in 0..COMPILE_REPS {
        let (compiled, d) = spans.time("core.compile_plan", op, || compile_plan(par));
        tally.check(compiled.is_ok(), || format!("{id}: compile_plan failed"));
        probe.compile_us.push(micros(d));
    }

    let mut flat = None;
    for _ in 0..REPS {
        flat = spans.time("core.flatten", op, || cp.flatten(main)).0;
    }
    probe.ingest_s = spans.median_s("core.flatten", op);
    let Some(flat) = tally.check_result(id, flat.ok_or("main input does not flatten")) else {
        return probe;
    };
    let n = flat.outer_len();

    let mut whole: Option<CState> = None;
    for _ in 0..REPS {
        let (s, _) = spans.time("core.summarize", op, || cp.summarize(&flat, 0, n));
        whole = tally.check_result(id, s);
    }
    probe.kernel_s = spans.median_s("core.summarize", op);

    let halves = cp
        .summarize(&flat, 0, n / 2)
        .and_then(|l| Ok((l, cp.summarize(&flat, n / 2, n)?)));
    if let (Some((left, right)), Some(whole)) = (tally.check_result(id, halves), &whole) {
        let joined = cp.join(&left, &right);
        tally.check(joined.as_ref() == Ok(whole), || {
            format!("{id}: join of the halves differs from the whole")
        });
        let mut per_join = Vec::with_capacity(JOIN_BATCHES);
        for _ in 0..JOIN_BATCHES {
            let (_, d) = spans.time("core.join_batch", op, || {
                for _ in 0..JOIN_BATCH {
                    std::hint::black_box(cp.join(std::hint::black_box(&left), &right)).ok();
                }
            });
            per_join.push(d.as_secs_f64() * 1e9 / JOIN_BATCH as f64);
        }
        probe.join_ns = median(&per_join).unwrap_or(0.0);
    }

    let expected = whole.as_ref().map(|s| cp.state_to_vec(s));
    for (name, t) in [
        ("core.run_plan_checked", threads),
        ("core.run_plan_checked_1t", 1),
    ] {
        for _ in 0..REPS {
            let (out, _) = spans.time(name, op, || run_plan_checked(par, inputs, &run_config(t)));
            if let Some(out) = tally.check_result(id, out) {
                tally.check(
                    !out.degraded && Some(&out.state) == expected.as_ref(),
                    || format!("{id}: run_plan_checked at {t} threads disagrees with summarize"),
                );
            }
        }
    }
    probe.e2e_s = spans.median_s("core.run_plan_checked", op);
    probe.e2e_1t_s = spans.median_s("core.run_plan_checked_1t", op);

    if let Some(task) = CompiledDncTask::new(cp, &flat) {
        let items = task.items();
        let exec = Executor::new(run_config(threads));
        for _ in 0..REPS {
            let (out, _) = spans.time("runtime.executor_run", op, || exec.run(&task, &items));
            if let Some(out) = tally.check_result(id, out) {
                tally.check(!out.degraded && Some(&out.value) == whole.as_ref(), || {
                    format!("{id}: Executor::run disagrees with summarize")
                });
            }
        }
        probe.exec_s = spans.median_s("runtime.executor_run", op);
        probe.stream_push_us =
            stream_push(plan, &task, &items, &flat, threads, sizes, spans, tally);
    }

    match parsynt_suite::workload(id) {
        Some(w) => {
            let prepared = (w.prepare)(probe.leaves as usize, seed);
            let sequential = prepared.sequential();
            for _ in 0..REPS {
                let (digest, _) = spans.time("native.parallel", op, || {
                    prepared.parallel(run_config(threads))
                });
                tally.check(digest == sequential, || {
                    format!("{id}: native parallel digest differs from sequential")
                });
            }
            probe.native_s = spans.median_s("native.parallel", op);
        }
        None => tally.check(false, || format!("{id}: no native workload")),
    }

    let rows = (sizes.chunk_leaves / plan.shape.leaves_per_outer()).max(1);
    let exec = Executor::new(run_config(threads));
    for lo in (0..n).step_by(rows).take(sizes.probe_chunks) {
        let chunk = main.slice(lo, (lo + rows).min(n));
        let (cflat, _) = spans.time("core.chunk_flatten", op, || cp.flatten(&chunk));
        let Some(cflat) = tally.check_result(id, cflat.ok_or("chunk does not flatten")) else {
            continue;
        };
        let (s, _) = spans.time("core.chunk_summarize", op, || {
            cp.summarize(&cflat, 0, cflat.outer_len())
        });
        let s = tally.check_result(id, s);
        if let Some(task) = CompiledDncTask::new(cp, &cflat) {
            let items = task.items();
            let (out, _) = spans.time("runtime.small_run", op, || exec.run(&task, &items));
            if let Some(out) = tally.check_result(id, out) {
                tally.check(Some(&out.value) == s.as_ref(), || {
                    format!("{id}: Executor::run on a chunk disagrees with summarize")
                });
            }
        }
    }
    probe.chunk_samples = spans.durations_of("core.chunk_flatten", op).len();
    probe.chunk_ingest_us = spans.median_s("core.chunk_flatten", op) * 1e6;
    probe.chunk_kernel_us = spans.median_s("core.chunk_summarize", op) * 1e6;
    probe.small_run_us = spans.median_s("runtime.small_run", op) * 1e6;
    probe
}

/// Push the first stream chunks through the runtime's own streaming fold
/// and return the median `push_chunk` time in microseconds.
#[allow(clippy::too_many_arguments)]
fn stream_push(
    plan: &ExecPlan,
    task: &CompiledDncTask<'_>,
    items: &[u64],
    flat: &parsynt_core::FlatInput,
    threads: usize,
    sizes: &Sizes,
    spans: &mut Spans,
    tally: &mut Tally,
) -> f64 {
    let id = plan.shape.id;
    let op = crate::plans::fnv(id);
    let rows = (sizes.chunk_leaves / plan.shape.leaves_per_outer()).max(1);
    let exec = Executor::new(run_config(threads));
    let mut session = exec.stream(task);
    let mut hi = 0;
    for lo in (0..items.len()).step_by(rows).take(sizes.probe_chunks) {
        hi = (lo + rows).min(items.len());
        let (pushed, _) = spans.time("runtime.stream_push", op, || {
            session.push_chunk(&items[lo..hi])
        });
        tally.check_result(id, pushed);
    }
    let prefix = plan.compiled.summarize(flat, 0, hi);
    tally.check(prefix.as_ref() == Ok(&session.snapshot().value), || {
        format!("{id}: StreamSession prefix disagrees with summarize")
    });
    spans.median_s("runtime.stream_push", op) * 1e6
}

/// Reduce per-plan probes to the execution-layer metrics.
pub fn exec_metrics(probes: &[PlanProbe], counts: ExecCounts) -> Vec<Metric> {
    let sum = |f: fn(&PlanProbe) -> f64| probes.iter().map(f).sum::<f64>();
    let geo = |f: fn(&PlanProbe) -> f64| {
        geo_mean(&probes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let compile: Vec<f64> = probes.iter().flat_map(|p| p.compile_us.clone()).collect();
    let leaves = sum(|p| p.leaves);
    let e2e = sum(|p| p.e2e_s);
    let chunks_s: f64 = probes
        .iter()
        .map(|p| p.e2e_s - p.ingest_s - median(&p.compile_us).unwrap_or(0.0) * 1e-6)
        .sum();
    let n = probes.len();
    let chunks: usize = probes.iter().map(|p| p.chunk_samples).sum();
    let mut out = vec![
        metric(
            "core.compile_us",
            median(&compile).unwrap_or(0.0),
            "us",
            compile.len(),
        ),
        metric("core.ingest_ms", sum(|p| p.ingest_s) * 1e3, "ms", n * REPS),
        metric(
            "core.ingest_share",
            sum(|p| p.ingest_s) / e2e.max(f64::EPSILON),
            "ratio",
            n * REPS,
        ),
        metric(
            "core.kernel_el_per_s",
            leaves / sum(|p| p.kernel_s).max(f64::EPSILON),
            "1/s",
            n * REPS,
        ),
        metric("core.join_ns", geo(|p| p.join_ns), "ns", n * JOIN_BATCHES),
        metric("core.chunks_ms", chunks_s * 1e3, "ms", n * REPS),
        metric("runtime.exec_ms", sum(|p| p.exec_s) * 1e3, "ms", n * REPS),
        metric(
            "native.el_per_s",
            leaves / sum(|p| p.native_s).max(f64::EPSILON),
            "1/s",
            n * REPS,
        ),
        metric(
            "compiled_over_native",
            geo(|p| p.e2e_s / p.native_s.max(f64::EPSILON)),
            "ratio",
            n * REPS,
        ),
    ];
    for p in probes {
        out.push(metric(
            format!("compiled_over_native.{}", p.id),
            p.e2e_s / p.native_s.max(f64::EPSILON),
            "ratio",
            REPS,
        ));
    }
    out.extend([
        metric(
            "speedup",
            sum(|p| p.e2e_1t_s) / e2e.max(f64::EPSILON),
            "ratio",
            n * REPS,
        ),
        metric(
            "core.recovered_chunks",
            counts.recovered_chunks as f64,
            "count",
            0,
        ),
        metric("core.degraded", counts.degraded as f64, "count", 0),
        metric(
            "core.chunk_ingest_us",
            geo(|p| p.chunk_ingest_us),
            "us",
            chunks,
        ),
        metric(
            "core.chunk_kernel_us",
            geo(|p| p.chunk_kernel_us),
            "us",
            chunks,
        ),
        metric(
            "runtime.small_run_us",
            geo(|p| p.small_run_us),
            "us",
            chunks,
        ),
        metric(
            "runtime.stream_push_us",
            geo(|p| p.stream_push_us),
            "us",
            chunks,
        ),
    ]);
    out
}

/// One synthesized program: the suite entry, the parsed source, and its
/// cold report.
pub struct Synthesized<'a> {
    /// Suite entry.
    pub bench: &'a Benchmark,
    /// Parsed original program.
    pub program: &'a Program,
    /// Cold pipeline report.
    pub report: &'a PipelineReport,
}

const PARSE_REPS: usize = 20;

/// Probe the synthesis layers on `items`: parse, the memoryless and
/// homomorphism lifts, and the CEGIS counters of the cold reports,
/// including whether a second cold pass repeats them exactly.
pub fn probe_synthesis(
    items: &[Synthesized<'_>],
    threads: usize,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut lift_m = Duration::ZERO;
    let mut lift_h = Duration::ZERO;
    let mut repeat = true;
    for (k, s) in items.iter().enumerate() {
        let id = s.bench.id;
        let op = k as u64;
        for _ in 0..PARSE_REPS {
            let (parsed, _) = spans.time("lang.parse", op, || parse(s.bench.source));
            tally.check(parsed.is_ok(), || format!("{id}: parse failed"));
        }
        let cfg = PipelineConfig::default()
            .with_profile(s.bench.profile.clone())
            .with_synth_threads(threads)
            .synth;
        let (m, d) = spans.time("lift.memoryless", op, || {
            memoryless_lift(s.program, &s.bench.profile, &cfg)
        });
        lift_m += d;
        if let Some(m) = tally.check_result(id, m) {
            let (h, d) = spans.time("lift.homomorphism", op, || {
                homomorphism_lift(&m.program, &s.bench.profile, &cfg)
            });
            lift_h += d;
            if let Some(h) = tally.check_result(id, h) {
                tally.check(
                    !m.failed && matches!(h, HomLiftOutcome::Success { .. }),
                    || format!("{id}: the lifts did not find a divide-and-conquer plan"),
                );
            }
        }
        let again = synthesize(s.bench, s.program, threads, None);
        if let Some(again) = tally.check_result(id, again) {
            repeat &= again.counters == s.report.counters;
        }
    }
    let counter = |key: &str| -> f64 {
        items
            .iter()
            .map(|s| s.report.counters.get(key).copied().unwrap_or(0) as f64)
            .sum()
    };
    let hits = counter("synthesize.eval_cache_hits");
    let misses = counter("synthesize.eval_cache_misses");
    let parse_us: Vec<f64> = spans
        .durations("lang.parse")
        .into_iter()
        .map(micros)
        .collect();
    vec![
        metric(
            "lang.parse_us",
            median(&parse_us).unwrap_or(0.0),
            "us",
            parse_us.len(),
        ),
        metric("lift.memoryless_s", secs(lift_m), "s", items.len()),
        metric("lift.homomorphism_s", secs(lift_h), "s", items.len()),
        metric(
            "synth.candidates",
            counter("synthesize.enum_candidates"),
            "count",
            items.len(),
        ),
        metric(
            "synth.eval_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
            items.len(),
        ),
        metric(
            "synth.counts_repeat",
            if repeat { 1.0 } else { 0.0 },
            "bool",
            items.len(),
        ),
    ]
}

/// Bind and start an in-process daemon with `threads` workers on an
/// ephemeral local port.
///
/// # Errors
///
/// Fails when the port cannot be bound.
pub fn start_server(threads: usize) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: threads,
        ..ServeConfig::default()
    };
    Server::bind(config)
        .map(Server::spawn)
        .map_err(|e| format!("cannot bind the daemon: {e}"))
}

/// Fill a fresh daemon's cache with `items` and re-serve them warm for a
/// short closed loop (the `batch` and `stream` traced runs, which have no
/// warm phase of their own).
///
/// # Errors
///
/// Fails when the daemon cannot be started.
pub fn warm_probe(
    items: &[Synthesized<'_>],
    threads: usize,
    sizes: &Sizes,
    spans: &mut Spans,
) -> Result<(ServerHandle, WarmStats), String> {
    let server = start_server(threads)?;
    let cache = server.cache();
    let mut served = Vec::with_capacity(items.len());
    for s in items {
        let key = fingerprint(s.program);
        cache.insert(
            key,
            CachedSolution {
                fingerprint: fingerprint_hex(key),
                parallelization: s.report.parallelization.clone(),
                plan: s.report.plan_text().to_owned(),
                seed: s.report.seed(),
            },
        );
        served.push(Served::new(
            s.bench.id,
            s.bench.source,
            s.report.plan_text().to_owned(),
        ));
    }
    let until = Instant::now() + Duration::from_millis(500);
    let stats = closed_loop(
        server.addr(),
        None,
        &served,
        threads,
        until,
        sizes.min_requests,
        spans,
    );
    Ok((server, stats))
}

const SERVICE_REPS: usize = 50;

/// The service layers behind a warm request: fingerprinting, the cache
/// lookup, and what the daemon adds on top of both.
pub fn service_metrics(
    items: &[Synthesized<'_>],
    cache: &Arc<SolutionCache>,
    warm: &WarmStats,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    for (k, s) in items.iter().enumerate() {
        let op = k as u64;
        let mut key = 0;
        for _ in 0..SERVICE_REPS {
            key = spans
                .time("core.fingerprint", op, || fingerprint(s.program))
                .0;
        }
        for _ in 0..SERVICE_REPS {
            let (hit, _) = spans.time("core.cache_lookup", op, || cache.lookup(key));
            tally.check(hit.is_some(), || {
                format!("{}: cache lookup missed", s.bench.id)
            });
        }
    }
    let med = |name: &str| {
        let v: Vec<f64> = spans.durations(name).into_iter().map(micros).collect();
        (median(&v).unwrap_or(0.0), v.len())
    };
    let (fp, fp_n) = med("core.fingerprint");
    let (lookup, lookup_n) = med("core.cache_lookup");
    let warm_p50 = median(&warm.latencies_us).unwrap_or(0.0);
    vec![
        metric("core.fingerprint_us", fp, "us", fp_n),
        metric("core.cache_lookup_us", lookup, "us", lookup_n),
        metric(
            "service.warm_p50_us",
            warm_p50,
            "us",
            warm.latencies_us.len(),
        ),
        metric(
            "service.overhead_us",
            warm_p50 - fp - lookup,
            "us",
            warm.latencies_us.len(),
        ),
    ]
}

/// Tracing overhead in percent: how much slower the traced rounds of the
/// timed loop ran than the untraced rounds interleaved with them. Each
/// group (one plan, or the warm requests) pairs traced with untraced
/// samples; the ratio is the geometric mean over groups.
pub fn overhead_metric(groups: &[(Vec<f64>, Vec<f64>)]) -> Metric {
    let ratios: Vec<f64> = groups
        .iter()
        .filter_map(|(traced, untraced)| Some(median(traced)? / median(untraced)?))
        .collect();
    let samples = groups.iter().map(|(t, u)| t.len() + u.len()).sum();
    let pct = geo_mean(&ratios).map_or(0.0, |r| (r - 1.0) * 100.0);
    metric("trace.overhead_pct", pct, "%", samples)
}
