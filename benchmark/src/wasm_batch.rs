//! `wasm-batch`: the `fmsa_opt` path on one large binary.
//!
//! A seeded 768-function wasm corpus (clone families, noise, linear
//! memory) goes through decode → lower → `optimize` (pipeline at 2
//! threads, threshold 5; `Auto` search resolves to LSH at this size) →
//! print, pass after pass on the same bytes. Search, alignment, the Δ
//! gate, speculative codegen and commit do almost all the work; store,
//! HTTP and interpreter are absent from the timed region.
//!
//! Correctness: every pass's output is byte-identical to the first, the
//! merged module passes `verify_module`, and — outside the timed region —
//! the interpreter finds no difference between original and merged on
//! any exported function.

use crate::measure::{median, peak_rss_mib, process_cpu_s, splitmix, tail};
use crate::trace::Tracer;
use crate::{replay, serve_mixed, Opts, Outcome, THREADS};
use fmsa::core::pipeline::PipelineStats;
use fmsa::core::SearchStrategy;
use fmsa::interp::batch::wire_targets;
use fmsa::interp::{run_differential_batch, BatchConfig};
use fmsa::ir::Module;
use fmsa::workloads::{wasm_fixture_bytes, WasmFixtureConfig};
use fmsa::Config;
use std::time::Instant;

/// Functions in the corpus.
pub const FUNCTIONS: usize = 768;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fewest timed passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Differential inputs per exported function in the correctness check.
const DIFF_PER_TARGET: usize = 4;

/// The merge configuration of every pass.
pub fn config() -> Config {
    Config::new().threshold(5).search(SearchStrategy::Auto).parallel(THREADS)
}

/// The corpus for `seed`.
pub fn corpus(seed: u64) -> Vec<u8> {
    wasm_fixture_bytes(&WasmFixtureConfig {
        functions: FUNCTIONS,
        seed: splitmix(seed ^ 0x7761_736d),
        ..WasmFixtureConfig::default()
    })
}

/// One pass as `fmsa_opt` runs it: load → optimize → print.
pub fn pass(
    bytes: &[u8],
    cfg: &Config,
    tracer: &Tracer,
    op: u64,
) -> Result<(Module, String, fmsa::core::pass::FmsaStats), fmsa::Error> {
    let span = tracer.enter("pass", op, None);
    let (loaded, _) =
        tracer.time("load", op, span.id(), || fmsa::load_module_bytes(bytes, "wasm-batch"));
    let mut module = loaded?;
    let (stats, _) = tracer.time("optimize", op, span.id(), || fmsa::optimize(&mut module, cfg));
    let stats = stats?;
    let (text, _) =
        tracer.time("print", op, span.id(), || fmsa::ir::printer::print_module(&module));
    Ok((module, text, stats))
}

/// Checks one pass output against the first pass and the verifier.
pub fn check_output(first: &str, text: &str, module: &Module) -> Result<(), String> {
    if text != first {
        return Err("pass output differs from the first pass".to_owned());
    }
    let errors = fmsa::ir::verify_module(module);
    if let Some(e) = errors.first() {
        return Err(format!("merged module fails verification: {e}"));
    }
    Ok(())
}

/// Differential check of every exported function, original vs merged.
/// Returns the batch outcome, the target count and its wall time.
pub fn differential(
    bytes: &[u8],
    merged: &Module,
    seed: u64,
) -> Result<(fmsa::interp::BatchOutcome, usize, f64), String> {
    let mut pre = fmsa::load_module_bytes(bytes, "wasm-batch").map_err(|e| e.to_string())?;
    let mut post = merged.clone();
    let targets = wire_targets(&mut pre, &mut post, true);
    let bcfg = BatchConfig {
        threads: THREADS,
        seed: splitmix(seed ^ 0xd1ff),
        per_target: DIFF_PER_TARGET,
        ..BatchConfig::default()
    };
    let t0 = Instant::now();
    let out = run_differential_batch(&pre, &post, &targets, &bcfg);
    Ok((out, targets.len(), t0.elapsed().as_secs_f64()))
}

/// Counts the outcome of a differential batch into `outcome`.
pub fn check_batch(outcome: &mut Outcome, batch: &fmsa::interp::BatchOutcome, what: &str) {
    for m in &batch.mismatches {
        outcome.check(false, || {
            format!("{what}: {} seed={:#x}: pre={} post={}", m.function, m.seed, m.pre, m.post)
        });
    }
    for _ in 0..batch.panics_caught {
        outcome.check(false, || format!("{what}: interpreter panic"));
    }
    let ok = batch.pairs_run.saturating_sub(batch.mismatches.len());
    outcome.attempted += ok as u64;
}

struct Sample {
    wall: f64,
    cpu: f64,
    traced: bool,
    pipeline: PipelineStats,
}

pub fn run(opts: &Opts, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let cfg = config();
    let off = Tracer::new(false);

    // Set-up: input generation and load.
    let mut setup = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        bytes = corpus(opts.seed);
        let loaded = fmsa::load_module_bytes(&bytes, "wasm-batch");
        setup.push(t0.elapsed().as_secs_f64());
        if let Err(e) = loaded {
            outcome.check(false, || format!("corpus does not load: {e}"));
            return outcome;
        }
    }

    // Timed passes. A traced run alternates traced and untraced passes so
    // the tracing overhead is measured within one run.
    let mut samples: Vec<Sample> = Vec::new();
    let mut first: Option<(String, Module, fmsa::core::pass::FmsaStats)> = None;
    let t_run = Instant::now();
    while samples.len() < MIN_PASSES || t_run.elapsed().as_secs_f64() < opts.seconds {
        let traced = tracer.is_on() && samples.len().is_multiple_of(2);
        let (c0, t0) = (process_cpu_s(), Instant::now());
        let result = pass(&bytes, &cfg, if traced { tracer } else { &off }, samples.len() as u64);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_s() - c0);
        let (module, text, stats) = match result {
            Ok(r) => r,
            Err(e) => {
                outcome.check(false, || format!("pass {} failed: {e}", samples.len()));
                return outcome;
            }
        };
        let pipeline = stats.pipeline.unwrap_or_default();
        let verdict = check_output(first.as_ref().map_or(&text, |f| &f.0), &text, &module);
        outcome
            .check(verdict.is_ok(), || format!("pass {}: {}", samples.len(), verdict.unwrap_err()));
        if first.is_none() {
            first = Some((text, module, stats));
        }
        samples.push(Sample { wall, cpu, traced, pipeline });
    }
    let (_, merged, stats) = first.expect("at least one pass");

    // Untimed differential check.
    let diff_span = tracer.enter("differential", 0, None);
    let diff = differential(&bytes, &merged, opts.seed);
    drop(diff_span);
    let (batch, targets, diff_s) = match diff {
        Ok(d) => d,
        Err(e) => {
            outcome.check(false, || format!("differential check could not run: {e}"));
            return outcome;
        }
    };
    check_batch(&mut outcome, &batch, "differential");

    let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu).collect();
    let pass_s = median(&walls);
    let pass_cpu_s = median(&cpus);
    let (tail_p, tail_s) = tail(&walls);
    let n = samples.len();
    println!("corpus: {FUNCTIONS} functions, {} wasm bytes", bytes.len());
    println!("setup_s = {:.4} s (median of {SETUP_REPS})", median(&setup));
    println!(
        "pass_s = {pass_s:.4} s (median of {n} passes; p{tail_p} = {tail_s:.4} s; min {:.4} s, max {:.4} s)",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max)
    );
    println!("pass_cpu_s = {pass_cpu_s:.4} s (median of {n})");
    println!(
        "size_reduction_pct = {:.4} % ({} merges, {} -> {} bytes)",
        stats.reduction_percent(),
        stats.merges,
        stats.size_before,
        stats.size_after
    );
    println!(
        "differential: {targets} targets, {} pairs in {diff_s:.3} s ({:.0} pairs/s), {} mismatches, {} panics",
        batch.pairs_run,
        batch.pairs_run as f64 / diff_s.max(1e-9),
        batch.mismatches.len(),
        batch.panics_caught
    );
    print_parallel_efficiency(&samples, pass_s, pass_cpu_s);

    let m = &mut outcome.metrics;
    if !tracer.is_on() {
        m.insert("setup_s", median(&setup));
        m.insert("op_p50_ms", pass_s * 1e3);
        m.insert("op_tail_ms", tail_s * 1e3);
        m.insert("op_cpu_ms", pass_cpu_s * 1e3);
        m.insert("work_per_s", (FUNCTIONS * n) as f64 / walls.iter().sum::<f64>());
        m.insert("size_reduction_pct", stats.reduction_percent());
        m.insert("peak_rss_mib", peak_rss_mib());
        return outcome;
    }

    // Traced run: tracing overhead, program counters, layer replay.
    let traced: Vec<f64> = samples.iter().filter(|s| s.traced).map(|s| s.wall).collect();
    let untraced: Vec<f64> = samples.iter().filter(|s| !s.traced).map(|s| s.wall).collect();
    println!(
        "tracing overhead: traced pass_s {:.4} - untraced pass_s {:.4} = {:+.4} s",
        median(&traced),
        median(&untraced),
        median(&traced) - median(&untraced)
    );
    let runs: Vec<PipelineStats> = samples.iter().map(|s| s.pipeline).collect();
    replay::pipeline_metrics(&runs, m);
    m.insert("interp.pairs", batch.pairs_run as f64);
    m.insert("interp.batch_s", diff_s);
    m.insert("interp.paths_covered", batch.paths_covered as f64);
    let input = replay::Input { bytes: &bytes, output: &merged, merges: stats.merges };
    if let Err(e) = replay::run(tracer, None, &[input], &cfg, &opts.run_dir.join("replay-store"), m)
    {
        outcome.violations.push(e);
    }
    if let Err(e) = serve_mixed::replay_daemon(tracer, &[&bytes], &cfg, &mut outcome.metrics) {
        outcome.violations.push(e);
    }
    outcome
}

/// Explains the 2-core speed-up from the returned `PipelineStats`: the
/// share of the pass outside the parallel stages (schedule, prepare),
/// the prepare stage's CPU/wall ratio, the Amdahl bound that serial
/// share allows on 2 cores, and the CPU/wall ratio actually observed.
fn print_parallel_efficiency(samples: &[Sample], pass_s: f64, pass_cpu_s: f64) {
    let med = |f: &dyn Fn(&PipelineStats) -> f64| {
        median(&samples.iter().map(|s| f(&s.pipeline)).collect::<Vec<_>>())
    };
    let schedule = med(&|p| p.schedule.as_secs_f64());
    let prepare = med(&|p| p.prepare.as_secs_f64());
    let prepare_cpu = med(&|p| p.prepare_cpu.as_secs_f64());
    let commit = med(&|p| p.commit.as_secs_f64());
    let serial = (1.0 - (schedule + prepare) / pass_s).clamp(0.0, 1.0);
    let amdahl = 1.0 / (serial + (1.0 - serial) / THREADS as f64);
    println!(
        "parallel efficiency ({THREADS} threads): commit share {:.3}, serial share {serial:.3}, \
         prepare cpu/wall {:.2}, Amdahl bound {amdahl:.2}x, observed pass cpu/wall {:.2}",
        commit / pass_s,
        prepare_cpu / prepare.max(1e-9),
        pass_cpu_s / pass_s
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus(seed: u64) -> Vec<u8> {
        wasm_fixture_bytes(&WasmFixtureConfig {
            functions: 48,
            seed,
            ..WasmFixtureConfig::default()
        })
    }

    #[test]
    fn output_check_trips_on_corrupted_output() {
        let bytes = small_corpus(7);
        let (module, text, stats) = pass(&bytes, &config(), &Tracer::new(false), 0).unwrap();
        assert!(stats.merges > 0);
        assert_eq!(check_output(&text, &text, &module), Ok(()));
        // A changed byte in the printed output.
        let mut corrupted = text.clone().into_bytes();
        let at = corrupted.iter().rposition(|&b| b.is_ascii_digit()).unwrap();
        corrupted[at] = if corrupted[at] == b'9' { b'0' } else { corrupted[at] + 1 };
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(check_output(&text, &corrupted, &module).is_err());
        // A merged module that no longer verifies: a block without a
        // terminator.
        let mut broken = module.clone();
        let f = broken.func_ids()[0];
        broken.func_mut(f).add_block("dangling");
        assert!(check_output(&text, &text, &broken).is_err());
    }

    #[test]
    fn differential_check_trips_on_a_mismatching_interpreter_result() {
        let bytes = small_corpus(7);
        let (merged, _, _) = pass(&bytes, &config(), &Tracer::new(false), 0).unwrap();
        let (batch, targets, _) = differential(&bytes, &merged, 1).unwrap();
        assert!(targets > 0 && batch.pairs_run > 0);
        let mut clean = Outcome::default();
        check_batch(&mut clean, &batch, "clean");
        assert_eq!((clean.failed, clean.attempted), (0, batch.pairs_run as u64));
        // Same exported names, different bodies: the interpreter results
        // disagree and the check must count them as failures.
        let other = fmsa::load_module_bytes(&small_corpus(8), "other").unwrap();
        let (batch, _, _) = differential(&bytes, &other, 1).unwrap();
        assert!(!batch.mismatches.is_empty());
        let mut tripped = Outcome::default();
        check_batch(&mut tripped, &batch, "corrupted");
        assert_eq!(tripped.failed, batch.mismatches.len() as u64);
        assert!(!tripped.violations.is_empty());
    }
}
