//! `fuzz-diff`: the differential fuzz farm as a throughput workload.
//!
//! Two seeded 96-function corpora — pure compute and linear memory — are
//! merged once during set-up (pipeline at 2 threads, threshold 5). Then a
//! fixed number of `run_differential_batch` rounds run at 2 threads, one
//! batch per corpus per round, so the work is fixed rather than
//! time-budgeted. The interpreter does nearly all the work; merge work
//! lands only in `setup_s`.
//!
//! Correctness: zero mismatches and zero panics, and every round runs
//! every input pair it was given.

use crate::measure::{median, peak_rss_mib, process_cpu_s, splitmix, tail};
use crate::trace::Tracer;
use crate::{replay, serve_mixed, wasm_batch, Opts, Outcome, THREADS};
use fmsa::core::pipeline::PipelineStats;
use fmsa::interp::batch::wire_targets;
use fmsa::interp::{run_differential_batch, BatchConfig, BatchTarget};
use fmsa::ir::Module;
use fmsa::workloads::{wasm_fixture_bytes, WasmFixtureConfig};
use std::time::Instant;

/// Functions per corpus.
pub const FUNCTIONS: usize = 96;
/// Input vectors per target per batch.
const PER_TARGET: usize = 8;
/// Rounds per second of `--seconds`. On the 2-core host the rounds take a
/// little under `--seconds`; the count, not the clock, ends the run.
const ROUNDS_PER_SECOND: f64 = 7.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One merged corpus, wired for differential execution.
struct Corpus {
    bytes: Vec<u8>,
    pre: Module,
    post: Module,
    targets: Vec<BatchTarget>,
    merges: usize,
    size_before: u64,
    size_after: u64,
    pipeline: PipelineStats,
}

fn build(seed: u64, with_memory: bool) -> Result<Corpus, String> {
    let bytes = wasm_fixture_bytes(&WasmFixtureConfig {
        functions: FUNCTIONS,
        with_memory,
        seed: splitmix(seed ^ 0xf22a ^ with_memory as u64),
        ..WasmFixtureConfig::default()
    });
    let mut pre = fmsa::load_module_bytes(&bytes, "fuzz-corpus").map_err(|e| e.to_string())?;
    let mut post = pre.clone();
    let stats = fmsa::optimize(&mut post, &wasm_batch::config()).map_err(|e| e.to_string())?;
    let targets = wire_targets(&mut pre, &mut post, with_memory);
    Ok(Corpus {
        bytes,
        pre,
        post,
        targets,
        merges: stats.merges,
        size_before: stats.size_before,
        size_after: stats.size_after,
        pipeline: stats.pipeline.unwrap_or_default(),
    })
}

pub fn run(opts: &Opts, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();

    // Set-up: generate, load and merge both corpora.
    let mut setup = Vec::new();
    let mut setup_pipeline = Vec::new();
    let mut corpora = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built: Result<Vec<Corpus>, String> =
            [false, true].into_iter().map(|mem| build(opts.seed, mem)).collect();
        setup.push(t0.elapsed().as_secs_f64());
        corpora = match built {
            Ok(c) => c,
            Err(e) => {
                outcome.check(false, || format!("fuzz corpus set-up failed: {e}"));
                return outcome;
            }
        };
        let mut acc = PipelineStats::default();
        corpora.iter().for_each(|c| acc.accumulate(&c.pipeline));
        setup_pipeline.push(acc);
    }

    // A fixed number of rounds.
    let rounds = (opts.seconds * ROUNDS_PER_SECOND).ceil().max(1.0) as usize;
    let (mut walls, mut cpus, mut batch_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pairs, mut paths) = (0usize, 0usize);
    let t_run = Instant::now();
    for r in 0..rounds {
        let round = tracer.enter("round", r as u64, None);
        let (c0, t0) = (process_cpu_s(), Instant::now());
        let mut round_paths = 0;
        for (ci, c) in corpora.iter().enumerate() {
            let bcfg = BatchConfig {
                threads: THREADS,
                seed: splitmix(opts.seed ^ ((r as u64) << 8) ^ ci as u64),
                per_target: PER_TARGET,
                ..BatchConfig::default()
            };
            let (batch, t) = tracer.time("interp.batch", r as u64, round.id(), || {
                run_differential_batch(&c.pre, &c.post, &c.targets, &bcfg)
            });
            batch_s.push(t);
            let expected = c.targets.len() * PER_TARGET;
            let run = batch.pairs_run + batch.panics_caught;
            outcome.check(run == expected, || format!("round {r}: {run} of {expected} pairs ran"));
            wasm_batch::check_batch(&mut outcome, &batch, "fuzz");
            pairs += batch.pairs_run;
            round_paths += batch.paths_covered;
        }
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(process_cpu_s() - c0);
        paths = paths.max(round_paths);
        drop(round);
    }
    let run_s = t_run.elapsed().as_secs_f64();

    let (before, after) =
        corpora.iter().fold((0, 0), |(b, a), c| (b + c.size_before, a + c.size_after));
    let reduction = fmsa::target::reduction_percent(before, after);
    let (tail_p, tail_s) = tail(&walls);
    let pairs_per_s = pairs as f64 / run_s;
    let targets: usize = corpora.iter().map(|c| c.targets.len()).sum();
    let merges: usize = corpora.iter().map(|c| c.merges).sum();
    println!("corpora: 2 x {FUNCTIONS} functions, {merges} merges, {targets} targets");
    println!("setup_s = {:.4} s (median of {SETUP_REPS})", median(&setup));
    println!(
        "fuzz_pairs_per_s = {pairs_per_s:.1} 1/s ({pairs} pairs in {rounds} rounds, {run_s:.3} s)"
    );
    println!(
        "round_p50_ms = {:.3} ms, round_p{tail_p}_ms = {:.3} ms, min {:.3} ms, paths covered {paths}",
        median(&walls) * 1e3,
        tail_s * 1e3,
        walls.iter().copied().fold(f64::INFINITY, f64::min) * 1e3
    );
    println!("size_reduction_pct = {reduction:.4} % ({before} -> {after} bytes)");

    let m = &mut outcome.metrics;
    if !tracer.is_on() {
        m.insert("setup_s", median(&setup));
        m.insert("op_p50_ms", median(&walls) * 1e3);
        m.insert("op_tail_ms", tail_s * 1e3);
        m.insert("op_cpu_ms", median(&cpus) * 1e3);
        m.insert("work_per_s", pairs_per_s);
        m.insert("size_reduction_pct", reduction);
        m.insert("peak_rss_mib", peak_rss_mib());
        return outcome;
    }

    m.insert("interp.pairs", pairs as f64);
    m.insert("interp.batch_s", median(&batch_s));
    m.insert("interp.paths_covered", paths as f64);
    replay::pipeline_metrics(&setup_pipeline, m);
    let inputs: Vec<replay::Input> = corpora
        .iter()
        .map(|c| replay::Input { bytes: &c.bytes, output: &c.post, merges: c.merges })
        .collect();
    let cfg = wasm_batch::config();
    if let Err(e) = replay::run(tracer, None, &inputs, &cfg, &opts.run_dir.join("replay-store"), m)
    {
        outcome.violations.push(e);
    }
    let bytes: Vec<&[u8]> = corpora.iter().map(|c| c.bytes.as_slice()).collect();
    if let Err(e) = serve_mixed::replay_daemon(tracer, &bytes, &cfg, &mut outcome.metrics) {
        outcome.violations.push(e);
    }
    outcome
}
