//! `parsynt-perfbench --workload <batch|stream|synth> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric (lines starting with `#`), then one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when any output was wrong, 2 on a
//! usage or set-up error.

use parsynt_perfbench::{run, RunArgs, Sizes};
use std::process::ExitCode;

fn parse_args() -> Result<(String, RunArgs), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((
        workload,
        RunArgs {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, args, Sizes::full()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = &report.spans {
        let path = format!(".bench_out/spans-{workload}-{}.jsonl", args.seed);
        if let Err(e) = spans.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("warning: cannot write {path}: {e}");
        }
    }
    print!("{}", report.table());
    println!("{}", report.json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
