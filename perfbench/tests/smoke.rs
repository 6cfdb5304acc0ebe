//! Smoke mode: every workload at tiny sizes, traced and untraced, with
//! every correctness check on, so the benchmark cannot silently break.

use parsynt_perfbench::{run, RunArgs, Sizes, WORKLOADS};

fn smoke(workload: &str, trace: bool) {
    let args = RunArgs {
        seed: 7,
        seconds: 0.2,
        trace,
    };
    let report = run(workload, args, Sizes::smoke()).expect("the workload sets up");
    let table = report.table();
    assert!(report.correct(), "{workload} failed its checks:\n{table}");
    assert!(report.attempted > 0);
    let json = report.json(trace);
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    assert!(!metrics.is_empty(), "{workload} reported no metrics");
    for m in metrics {
        assert!(m.value.is_finite(), "{workload}: {} is not finite", m.name);
        assert!(json.contains(&format!("\"{}\"", m.name)));
    }
    if !trace {
        for m in metrics {
            assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
        }
    }
}

#[test]
fn batch_untraced() {
    smoke("batch", false);
}

#[test]
fn batch_traced() {
    smoke("batch", true);
}

#[test]
fn stream_untraced() {
    smoke("stream", false);
}

#[test]
fn stream_traced() {
    smoke("stream", true);
}

#[test]
fn synth_untraced() {
    smoke("synth", false);
}

#[test]
fn synth_traced() {
    smoke("synth", true);
}

#[test]
fn every_workload_prints_the_same_metric_names() {
    let names = |trace: bool| -> Vec<Vec<String>> {
        WORKLOADS
            .iter()
            .map(|w| {
                let args = RunArgs {
                    seed: 3,
                    seconds: 0.1,
                    trace,
                };
                let report = run(w, args, Sizes::smoke()).expect("the workload sets up");
                let metrics = if trace {
                    report.per_layer
                } else {
                    report.end_to_end
                };
                metrics.into_iter().map(|m| m.name).collect()
            })
            .collect()
    };
    for trace in [false, true] {
        let all = names(trace);
        assert!(all.windows(2).all(|w| w[0] == w[1]), "{all:?}");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let args = RunArgs {
        seed: 0,
        seconds: 0.1,
        trace: false,
    };
    assert!(run("nope", args, Sizes::smoke()).is_err());
}
