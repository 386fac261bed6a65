//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <wasm-batch|serve-mixed|fuzz-diff> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the FMSA stack only through its public API,
//! builds its inputs from `--seed`, measures for about `--seconds`,
//! checks every output, prints its metrics by name with their units, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. An untraced run (`--trace 0`) reports the end-to-end
//! metrics of [`measure::END_TO_END`]; a traced run (`--trace 1`) runs
//! the same workload with spans on, replays each layer's public function
//! on the workload's own inputs, and reports [`measure::PER_LAYER`] plus
//! a self-time table. End-to-end numbers never come from a traced run.
//!
//! Every workload runs in this one process with at most 2 worker threads
//! and at most 2 client connections. Scratch files (the daemon's store,
//! the replay store) live under `.bench_run/` in the working directory
//! and are removed at exit; traces are written to `.bench_trace/`.

mod fuzz_diff;
mod measure;
mod replay;
mod serve_mixed;
mod trace;
mod wasm_batch;

use measure::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Worker threads every workload may use (the benchmark host has 2
/// cores).
pub const THREADS: usize = 2;

/// What one run was asked to do.
pub struct Opts {
    /// Master seed of every generated input.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Scratch directory of this run.
    pub run_dir: PathBuf,
}

/// What one workload run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Correctness violations, one line each.
    pub violations: Vec<String>,
    /// Metrics by catalogue name.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one checked operation, failing it with `why` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.violations.len() < 20 {
                self.violations.push(why());
            }
        }
    }
}

const WORKLOADS: &[&str] = &["wasm-batch", "serve-mixed", "fuzz-diff"];

fn usage() -> String {
    format!(
        "usage: fmsa-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    Ok((workload, seed.ok_or_else(usage)?, seconds.ok_or_else(usage)?, trace.unwrap_or(false)))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let opts = Opts { seed, seconds, run_dir: run_dir.clone() };
    let tracer = Tracer::new(traced);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={workload} seed={seed} seconds={seconds} trace={} threads={THREADS} nproc={cores}",
        traced as u8
    );
    let outcome = match workload.as_str() {
        "wasm-batch" => wasm_batch::run(&opts, &tracer),
        "serve-mixed" => serve_mixed::run(&opts, &tracer),
        _ => fuzz_diff::run(&opts, &tracer),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_run");
    finish(&workload, seed, &tracer, outcome)
}

/// Prints the metrics, the self-time table of a traced run, and the
/// result line; returns the exit code.
fn finish(workload: &str, seed: u64, tracer: &Tracer, mut outcome: Outcome) -> ExitCode {
    let catalogue = if tracer.is_on() { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        if !measure::valid_metric_name(name) {
            outcome.violations.push(format!("metric name {name:?} is malformed"));
        }
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => metrics.push((name, unit, *v)),
            _ => outcome.violations.push(format!("metric {name} was not measured")),
        }
    }
    println!("-- {} metrics --", if tracer.is_on() { "per-layer" } else { "end-to-end" });
    for (name, unit, v) in &metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    if tracer.is_on() {
        println!("-- spans (self = duration minus covered child time) --");
        println!("{:<26} {:>7} {:>12} {:>12}", "span", "count", "total_s", "self_s");
        for s in tracer.summary() {
            println!("{:<26} {:>7} {:>12.6} {:>12.6}", s.name, s.count, s.total_s, s.self_s);
        }
        let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => println!("trace: not written ({e})"),
        }
    }
    let error_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "error_ratio = {error_ratio} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
