//! # parsynt-perfbench
//!
//! The repository's benchmark: three workloads over synthesized plans,
//! end-to-end metrics with tracing off, and per-layer metrics from a
//! separate traced run. See `NOTES.md` for the workloads, the metrics and
//! what each layer metric should move.

pub mod layers;
pub mod plans;
pub mod reference;
pub mod report;
pub mod spans;
pub mod stats;
pub mod warm;
pub mod workloads;

// The warm clients set a Linux socket option whose constants hold on these
// targets only; elsewhere the benchmark would measure something else.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("parsynt-perfbench runs on Linux on x86_64 or aarch64 only");

pub use plans::Sizes;
pub use report::RunReport;
pub use workloads::RunArgs;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["batch", "stream", "synth"];

/// Run one workload.
///
/// # Errors
///
/// Fails on an unknown workload or when set-up fails.
pub fn run(workload: &str, args: RunArgs, sizes: Sizes) -> Result<RunReport, String> {
    match workload {
        "batch" => workloads::batch(args, sizes),
        "stream" => workloads::stream(args, sizes),
        "synth" => workloads::synth(args, sizes),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
