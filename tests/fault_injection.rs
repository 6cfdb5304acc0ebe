//! Deterministic fault-sweep: under seeded injected faults (worker
//! panics, poisoned chunk results, stragglers) every executor must
//! produce results byte-identical to the fault-free run — transient
//! faults recover through the single retry, persistent faults through
//! the sequential fallback — and parallel candidate screening must
//! reject a panicking candidate without losing the true winner.
//!
//! Gated on the `fault-inject` cargo feature:
//! `cargo test --features fault-inject`.
#![cfg(feature = "fault-inject")]

use parsynt::runtime::{Backend, DncTask, Executor, FaultPlan, MapOnlyTask, RunConfig};
use parsynt::synth::parallel::screen_batch;
use std::time::Duration;

/// Non-commutative concatenation: any executor that reorders, drops, or
/// duplicates a chunk under faults changes the result.
struct Concat;
impl DncTask for Concat {
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

fn data(n: usize) -> Vec<i64> {
    (0..n as i64).map(|x| (x * 7919) % 211 - 100).collect()
}

fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_panic_rate(0.25)
        .with_poison_rate(0.15)
        .with_delay(0.1, Duration::from_millis(1))
}

#[test]
fn transient_fault_sweep_is_byte_identical() {
    let d = data(5_000);
    let baseline = Executor::default().run_sequential(&Concat, &d);
    for seed in 0..16 {
        let plan = mixed_plan(seed);
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig::work_stealing(4)
                .with_grain(97)
                .with_backend(backend);
            let out = Executor::new(cfg)
                .with_faults(plan.clone())
                .run(&Concat, &d)
                .unwrap_or_else(|e| panic!("seed {seed} backend {backend:?}: {e}"));
            assert_eq!(out.value, baseline, "seed {seed} backend {backend:?}");
            // Transient faults fire only on the first attempt, so the
            // single retry always recovers without degrading.
            assert!(!out.degraded, "seed {seed} backend {backend:?}");
        }
    }
}

#[test]
fn persistent_fault_sweep_recovers_via_sequential_fallback() {
    let d = data(5_000);
    let baseline = Executor::default().run_sequential(&Concat, &d);
    let mut degraded_runs = 0usize;
    for seed in 0..16 {
        let plan = mixed_plan(seed).persistent(true);
        let cfg = RunConfig::work_stealing(4).with_grain(97);
        let out = Executor::new(cfg)
            .with_faults(plan)
            .run(&Concat, &d)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(out.value, baseline, "seed {seed}");
        degraded_runs += usize::from(out.degraded);
    }
    // With ~40% of 52 chunks faulting persistently, essentially every
    // seed must have hit the sequential fallback.
    assert!(degraded_runs > 0, "no persistent fault ever fired");
}

#[test]
fn map_only_fault_sweep_is_byte_identical() {
    let d = data(4_000);
    let baseline = Executor::new(RunConfig::default().with_threads(1))
        .run_map_only(&CountPositive, &d)
        .expect("fault-free baseline")
        .value;
    let four = RunConfig::default().with_threads(4).with_grain(1_000);
    for seed in 0..16 {
        let out = Executor::new(four)
            .with_faults(mixed_plan(seed))
            .run_map_only(&CountPositive, &d)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(out.value, baseline, "seed {seed}");
        let out = Executor::new(four)
            .with_faults(mixed_plan(seed).persistent(true))
            .run_map_only(&CountPositive, &d)
            .unwrap_or_else(|e| panic!("seed {seed} (persistent): {e}"));
        assert_eq!(out.value, baseline, "seed {seed} (persistent)");
    }
}

/// Streaming under injected faults: for every seed, both transient and
/// persistent fault plans must leave every mid-stream snapshot equal to
/// the fault-free aggregate of the exact consumed prefix (not just the
/// final value), with the non-commutative task catching any reorder.
#[test]
fn streaming_fault_sweep_has_byte_identical_snapshots() {
    let d = data(5_000);
    let chunk_len = 613; // deliberately not a divisor of the length
    for seed in 0..16 {
        for persistent in [false, true] {
            let plan = mixed_plan(seed).persistent(persistent);
            let exec = Executor::new(RunConfig::work_stealing(4).with_grain(97)).with_faults(plan);
            let mut session = exec.stream(&Concat);
            let mut consumed = 0usize;
            for chunk in d.chunks(chunk_len) {
                session
                    .push_chunk(chunk)
                    .unwrap_or_else(|e| panic!("seed {seed} persistent {persistent}: {e}"));
                consumed += chunk.len();
                let snap = session.snapshot();
                assert_eq!(
                    snap.value,
                    d[..consumed],
                    "seed {seed} persistent {persistent}: prefix of {consumed}"
                );
                assert_eq!(snap.elements, consumed as u64);
            }
            let out = session.finish();
            assert_eq!(out.value, d, "seed {seed} persistent {persistent}");
            assert_eq!(out.elements, d.len() as u64);
            if !persistent {
                // Transient faults fire only on attempt 0; the single
                // retry absorbs them without degrading any chunk.
                assert_eq!(out.degraded_chunks, 0, "seed {seed}");
            }
        }
    }
}

#[test]
fn screening_batches_survive_panicking_candidates() {
    // The screen evaluates synthesized candidates; a candidate whose
    // evaluation panics must be rejected in isolation without tearing
    // down the pool or displacing the true (minimum-index) winner.
    let items: Vec<usize> = (0..500).collect();
    let winner_idx = 491usize;
    // Pick a seed whose schedule leaves the winner clean but panics at
    // least one earlier candidate — so the sweep provably exercises the
    // isolation path.
    let seed = (0u64..)
        .find(|&s| {
            let plan = FaultPlan::seeded(s).with_panic_rate(0.3);
            plan.decide(winner_idx, 0).is_none()
                && (0..winner_idx).any(|i| plan.decide(i, 0).is_some())
        })
        .expect("a suitable seed exists");
    let plan = FaultPlan::seeded(seed)
        .with_panic_rate(0.3)
        .persistent(true);
    for threads in [1, 2, 4, 8] {
        let out = screen_batch(threads, &items, &|i: &usize| {
            plan.apply(*i, 0);
            *i == winner_idx
        });
        assert_eq!(out.winner, Some(winner_idx), "threads = {threads}");
        assert!(out.panics > 0, "threads = {threads}: no candidate panicked");
    }
}
