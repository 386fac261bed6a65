//! Regenerates every table and figure of the paper's evaluation (§V).
//!
//! ```text
//! experiments table1            Table I  (SPEC stats + merge ops)
//! experiments table2            Table II (MiBench stats + merge ops)
//! experiments fig8              CDF of profitable candidate rank
//! experiments fig10             Code-size reduction, x86-64 + ARM Thumb
//! experiments fig11             Code-size reduction, MiBench
//! experiments fig12             Compile-time overhead
//! experiments fig13             Compile-time breakdown (t=1)
//! experiments fig14             Runtime overhead + §V-D case study
//! experiments ablation-params   §III-E parameter-reuse ablation
//! experiments search            Exact vs LSH candidate search at scale
//! experiments merge-parallel    Pipeline vs sequential driver at scale
//! experiments wasm              Decode/lower/merge a wasm binary corpus
//! experiments fuzz              Differential fuzz farm over merged wasm
//! experiments faults            Fault-injection matrix (quarantine gates)
//! experiments serve-bench       Merge-daemon load generator (fmsa-serve)
//! experiments scale             Streamed million-function corpus + scaling curve
//! experiments chaos             Kill/restart cycles under injected store faults
//! experiments obs               Flight-recorder smoke: overhead gate, trace
//!                               validity, decision-log reconciliation, /metrics
//! experiments all               everything above except `scale`, `chaos`, `obs`
//! ```
//!
//! Add `--oracle` to include the quadratic oracle where feasible, and
//! `--fast` to restrict to the smaller half of each suite (used by CI).
//! `--json <path>` appends one self-describing JSON line per measured
//! configuration (the `BENCH_ci.json` artifact), and `--check` turns
//! parity-budget violations (LSH vs exact, pipeline vs sequential,
//! daemon vs batch) into a non-zero exit for the CI gate.
//! `scale` honours `--functions N` (corpus size; default 1 000 000, or
//! 20 000 with `--fast`) and `--chunk N` (streamed chunk size): it
//! processes the corpus one materialized chunk at a time so peak memory
//! stays bounded by the chunk, then measures a threads-vs-wall scaling
//! curve on a sampled prefix. `chaos` boots the daemon over a persistent
//! store, runs concurrent uploads under injected store I/O faults, kills it
//! without drain, truncates/bit-flips the log to simulate dying
//! mid-write, and gates the recovery invariant (zero checksum-valid
//! durable entries lost, zero panics, byte-identical re-serve after
//! recovery, atomic compaction). Any subcommand honours `--trace-out
//! PATH`: the run records flight-recorder spans and writes Chrome
//! trace-event JSON (Perfetto-viewable) on exit. `obs` measures the
//! telemetry-disabled vs tracing-enabled overhead (gated ≤ 3% under
//! `--check`), revalidates output bit-identity with tracing on, checks
//! span nesting, reconciles the merge decision log against
//! `PipelineStats`, and scrapes a booted daemon's `/metrics`. `scale`,
//! `chaos`, and `obs` are deliberately not part of `all`.

use fmsa::Config;
use fmsa_bench::harness::{
    mean, pipeline_json_fields, rank_cdf, run_benchmark, run_runtime_experiment, thread_sweep,
    BenchResult, Json, Report, RunPlan, Table,
};
use fmsa_core::baselines::run_identical;
use fmsa_core::merge::MergeConfig;
use fmsa_core::pass::{run_fmsa, FmsaStats};
use fmsa_core::pipeline::{run_fmsa_pipeline, PipelineStats};
use fmsa_target::{reduction_percent, CostModel, TargetArch};
use fmsa_workloads::{mibench_suite, spec_suite, BenchDesc};
use std::fmt::Display;
use std::time::Duration;

/// Relative drift allowed between an optimized configuration and its
/// exact/sequential baseline before the CI gate trips.
const PARITY_BUDGET: f64 = 0.10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let oracle = args.iter().any(|a| a == "--oracle");
    let fast = args.iter().any(|a| a == "--fast");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args.iter().position(|a| a == "--json").and_then(|k| args.get(k + 1)).cloned();
    let flag_value = |name: &str| -> Option<usize> {
        let k = args.iter().position(|a| a == name)?;
        match args.get(k + 1).map(|v| (v, v.parse())) {
            Some((_, Ok(n))) => Some(n),
            other => {
                let got = other.map(|(v, _)| format!("got {v:?}")).unwrap_or("missing".to_owned());
                eprintln!("experiments: {name} needs a number, {got}");
                std::process::exit(2);
            }
        }
    };
    let budget_secs = flag_value("--budget").unwrap_or(30);
    let scale_functions = flag_value("--functions");
    let scale_chunk = flag_value("--chunk");
    let trace_out =
        args.iter().position(|a| a == "--trace-out").and_then(|k| args.get(k + 1)).cloned();
    let value_flags = ["--json", "--budget", "--functions", "--chunk", "--trace-out"];
    let cmd = args
        .iter()
        .enumerate()
        .find(|(k, a)| {
            !a.starts_with("--")
                && !args
                    .get(k.wrapping_sub(1))
                    .is_some_and(|prev| value_flags.contains(&prev.as_str()))
        })
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "all".to_owned());
    // Result header: make every run self-describing. The search strategy
    // varies per experiment, so it is stated in each section title and
    // repeated per record in the bench JSON lines.
    println!(
        "experiments {cmd}: threads={} available, alignment=needleman-wunsch, \
         search per section header / JSON record{}{}",
        Config::new().parallel(0).resolved_threads(),
        if fast { ", --fast" } else { "" },
        if oracle { ", --oracle" } else { "" },
    );
    let mut report = Report::new(json_path);
    let spec = filtered(spec_suite(), fast);
    let mibench = filtered(mibench_suite(), fast);
    if trace_out.is_some() {
        fmsa::telemetry::trace::enable();
    }
    match cmd.as_str() {
        "table1" => table(&spec, "Table I (SPEC CPU2006)"),
        "table2" => table(&mibench, "Table II (MiBench)"),
        "fig8" => fig8(&spec),
        "fig10" => fig10(&spec, oracle),
        "fig11" => fig11(&mibench, oracle),
        "fig12" => fig12(&spec),
        "fig13" => fig13(&spec),
        "fig14" => fig14(&spec),
        "ablation-params" => ablation_params(&spec),
        "search" => search_scalability(fast, &mut report),
        "merge-parallel" => merge_parallel(fast, &mut report),
        "wasm" => wasm_frontend(fast, &mut report),
        "fuzz" => fuzz_farm(fast, budget_secs, &mut report),
        "faults" => fault_matrix(fast, &mut report),
        "serve-bench" => serve_bench(fast, &mut report),
        "scale" => scale(fast, scale_functions, scale_chunk, &mut report),
        "chaos" => chaos(fast, &mut report),
        "obs" => obs(fast, &mut report),
        "all" => {
            table(&spec, "Table I (SPEC CPU2006)");
            table(&mibench, "Table II (MiBench)");
            fig8(&spec);
            fig10(&spec, oracle);
            fig11(&mibench, oracle);
            fig12(&spec);
            fig13(&spec);
            fig14(&spec);
            ablation_params(&spec);
            search_scalability(fast, &mut report);
            merge_parallel(fast, &mut report);
            wasm_frontend(fast, &mut report);
            fuzz_farm(fast, budget_secs, &mut report);
            fault_matrix(fast, &mut report);
            serve_bench(fast, &mut report);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &trace_out {
        use fmsa::telemetry::trace;
        trace::disable();
        let (events, dropped) = trace::drain();
        if dropped > 0 {
            eprintln!("experiments: trace: {dropped} events dropped at the per-thread cap");
        }
        if let Err(e) = std::fs::write(path, trace::export_chrome(&events)) {
            eprintln!("experiments: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("experiments: wrote {} trace events to {path}", events.len());
    }
    if let Err(e) = report.flush() {
        eprintln!("experiments: cannot write bench JSON: {e}");
        std::process::exit(1);
    }
    if check && !report.failures().is_empty() {
        eprintln!("experiments: {} parity budget violation(s)", report.failures().len());
        std::process::exit(1);
    }
}

fn filtered(suite: Vec<BenchDesc>, fast: bool) -> Vec<BenchDesc> {
    if !fast {
        return suite;
    }
    suite.into_iter().filter(|d| d.paper_fns <= 600).collect()
}

/// The `identical` cell of the sweep tables.
fn yes_no(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

fn run_suite(suite: &[BenchDesc], plan: &RunPlan) -> Vec<BenchResult> {
    suite
        .iter()
        .map(|d| {
            eprintln!("  running {} ({:?})...", d.name, plan.arch);
            run_benchmark(d, plan)
        })
        .collect()
}

// ---------------------------------------------------------------- tables

fn table(suite: &[BenchDesc], title: &str) {
    println!("\n== {title}: functions, sizes, and merge operations ==");
    let table = Table::new(
        "benchmark:<16|#fns:6|min/avg/max:18|identical:9|soa:6|fmsa[t=1]:9|fmsa[t=10]:10",
    );
    let plan = RunPlan { thresholds: vec![1, 10], oracle: false, ..RunPlan::default() };
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        let (mn, avg, mx) = r.sizes;
        let t1 = r.fmsa.iter().find(|(t, _)| *t == 1).map(|(_, x)| x.merges).unwrap_or(0);
        let t10 = r.fmsa.iter().find(|(t, _)| *t == 10).map(|(_, x)| x.merges).unwrap_or(0);
        let sizes = format!("{mn}/{avg:.0}/{mx}");
        table.row(&[&r.name, &r.fns, &sizes, &r.identical.merges, &r.soa.merges, &t1, &t10]);
    }
    println!("(function counts are paper counts / {}; see EXPERIMENTS.md)", fmsa_workloads::SCALE);
}

// ---------------------------------------------------------------- fig 8

fn fig8(suite: &[BenchDesc]) {
    println!("\n== Fig. 8: CDF of the rank position of profitable candidates (t=10) ==");
    let plan = RunPlan { thresholds: vec![10], oracle: false, ..RunPlan::default() };
    let mut positions = Vec::new();
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        for (_, tech) in &r.fmsa {
            positions.extend(tech.rank_positions.iter().copied());
        }
    }
    let cdf = rank_cdf(&positions, 10);
    let table = Table::new("position:9|coverage(%):12");
    for (k, c) in cdf.iter().enumerate() {
        table.row(&[&(k + 1), &format!("{:.1}", c * 100.0)]);
    }
    println!(
        "(paper: ~89% at position 1, >98% within the top 5; measured: {:.0}% / {:.0}%)",
        cdf[0] * 100.0,
        cdf[4] * 100.0
    );
}

// ---------------------------------------------------------------- fig 10/11

fn reduction_table(results: &[BenchResult], oracle: bool) {
    // Without `--oracle` the spec has no sixth column and `row` drops
    // the oracle cell.
    let table = Table::new(&format!(
        "benchmark:<16|identical:9|soa:7|fmsa[t=1]:9|fmsa[t=5]:9|fmsa[t=10]:10{}",
        if oracle { "|oracle:8" } else { "" }
    ));
    let pick = |r: &BenchResult, t: usize| {
        r.fmsa.iter().find(|(x, _)| *x == t).map(|(_, v)| v.reduction).unwrap_or(0.0)
    };
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for r in results {
        let row = [
            r.identical.reduction,
            r.soa.reduction,
            pick(r, 1),
            pick(r, 5),
            pick(r, 10),
            r.oracle.as_ref().map(|o| o.reduction).unwrap_or(f64::NAN),
        ];
        for (c, v) in cols.iter_mut().zip(row) {
            if !v.is_nan() {
                c.push(v);
            }
        }
        float_row(&table, &r.name, &row, 2);
    }
    float_row(&table, "MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>(), 2);
}

/// Prints `name` followed by `vals` at `prec` decimals, `NaN` as
/// `(skipped)`.
fn float_row(table: &Table, name: &str, vals: &[f64], prec: usize) {
    let cells: Vec<String> = vals
        .iter()
        .map(|v| if v.is_nan() { "(skipped)".to_owned() } else { format!("{v:.prec$}") })
        .collect();
    let mut row: Vec<&dyn Display> = vec![&name];
    row.extend(cells.iter().map(|c| c as &dyn Display));
    table.row(&row);
}

fn fig10(suite: &[BenchDesc], oracle: bool) {
    for arch in TargetArch::ALL {
        println!("\n== Fig. 10: object size reduction (%) on {} ==", arch.name());
        let plan = RunPlan { arch, thresholds: vec![1, 5, 10], oracle, ..RunPlan::default() };
        let results = run_suite(suite, &plan);
        reduction_table(&results, oracle);
    }
    println!("(paper means: Intel 1.4/2.5/6.0/6.2/6.2/6.3; ARM 1.8/3.0/5.7/5.9/6.0/6.1)");
}

fn fig11(suite: &[BenchDesc], oracle: bool) {
    println!("\n== Fig. 11: object size reduction (%) on MiBench (x86-64) ==");
    let plan = RunPlan { thresholds: vec![1, 5, 10], oracle, ..RunPlan::default() };
    let results = run_suite(suite, &plan);
    reduction_table(&results, oracle);
    println!("(paper means: 0 / 0.1 / 1.7 / 1.7 / 1.7; rijndael ≈ 20.6% for FMSA)");
}

// ---------------------------------------------------------------- fig 12

fn fig12(suite: &[BenchDesc]) {
    println!("\n== Fig. 12: compilation-time overhead, normalized to no-merging baseline ==");
    let table =
        Table::new("benchmark:<16|identical:10|soa:8|fmsa[t=1]:10|fmsa[t=5]:10|fmsa[t=10]:11");
    let plan = RunPlan { thresholds: vec![1, 5, 10], oracle: false, ..RunPlan::default() };
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        let base = r.baseline_compile.as_secs_f64().max(1e-9);
        let norm = |d: std::time::Duration| 1.0 + d.as_secs_f64() / base;
        let pick = |t: usize| {
            r.fmsa.iter().find(|(x, _)| *x == t).map(|(_, v)| norm(v.time)).unwrap_or(f64::NAN)
        };
        let row = [norm(r.identical.time), norm(r.soa.time), pick(1), pick(5), pick(10)];
        for (c, v) in cols.iter_mut().zip(row) {
            c.push(v);
        }
        float_row(&table, &r.name, &row, 2);
    }
    float_row(&table, "MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>(), 2);
    println!("(paper means: 1.0 / 1.0 / 1.15 / 1.47 / 1.74; oracle ≈ 25x, not shown)");
}

// ---------------------------------------------------------------- fig 13

fn fig13(suite: &[BenchDesc]) {
    println!("\n== Fig. 13: compile-time breakdown of FMSA (t=1), % of pass time ==");
    let table =
        Table::new("benchmark:<16|fingerp:8|ranking:8|linear:8|align:8|codegen:8|updates:8");
    let plan = RunPlan { thresholds: vec![1], oracle: false, ..RunPlan::default() };
    let mut sums = [0.0f64; 6];
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        let Some(timers) = r.fmsa.first().and_then(|(_, v)| v.timers) else { continue };
        let total = timers.total().as_secs_f64().max(1e-12);
        let rows = timers.rows();
        let pct: Vec<f64> = rows.iter().map(|(_, s)| s / total * 100.0).collect();
        for (s, p) in sums.iter_mut().zip(&pct) {
            *s += p;
        }
        float_row(&table, &r.name, &pct, 1);
    }
    let n = suite.len().max(1) as f64;
    float_row(&table, "MEAN", &sums.map(|s| s / n), 1);
    println!("(paper: alignment dominates, then ranking, then code generation)");
}

// ---------------------------------------------------------------- fig 14

fn fig14(suite: &[BenchDesc]) {
    println!("\n== Fig. 14: runtime overhead (normalized dynamic instructions, t=1) ==");
    let table = Table::new("benchmark:<16|fmsa:9|hot-excluded:14|reduction%:12|red% (excl):14");
    let mut norms = Vec::new();
    let mut norms_excl = Vec::new();
    for desc in suite {
        // Interpreting the biggest modules is slow; Fig. 14's point is made
        // by the bulk of the suite.
        if desc.paper_fns > 3000 {
            table.row(&[&desc.name, &"(skipped: module too large to interpret)"]);
            continue;
        }
        let r = run_runtime_experiment(desc, 1);
        norms.push(r.normalized());
        norms_excl.push(r.normalized_hot_excluded());
        table.row(&[
            &r.name,
            &format!("{:.3}", r.normalized()),
            &format!("{:.3}", r.normalized_hot_excluded()),
            &format!("{:.2}", r.reduction),
            &format!("{:.2}", r.reduction_hot_excluded),
        ]);
    }
    float_row(&table, "MEAN", &[mean(&norms), mean(&norms_excl)], 3);
    println!("(paper: ≈1.03 mean; hot-function exclusion removes the overhead, §V-D)");
}

// ---------------------------------------------------------------- search

fn search_scalability(fast: bool, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_workloads::{clone_swarm_module, SwarmConfig};
    println!("\n== Candidate search at scale: exact pairwise vs MinHash/LSH (t=5) ==");
    let table =
        Table::new("#fns:6|search:<7|merges:8|reduction%:12|rank+search:12|total:12|speedup:9");
    let sizes: &[usize] = if fast { &[100, 1000] } else { &[100, 1000, 5000] };
    for &n in sizes {
        let base = clone_swarm_module(&SwarmConfig::with_functions(n));
        let mut rank_times = Vec::new();
        let mut reductions = Vec::new();
        for (label, strategy) in [("exact", SearchStrategy::Exact), ("lsh", SearchStrategy::lsh())]
        {
            let mut m = base.clone();
            let cfg = Config::new().threshold(5).search(strategy);
            let t0 = std::time::Instant::now();
            let stats = run_fmsa(&mut m, &cfg);
            let total = t0.elapsed();
            rank_times.push(stats.timers.ranking.as_secs_f64());
            reductions.push(stats.reduction_percent());
            let speedup = if rank_times.len() == 2 {
                format!("{:.1}x", rank_times[0] / rank_times[1].max(1e-12))
            } else {
                String::new()
            };
            table.row(&[
                &n,
                &label,
                &stats.merges,
                &format!("{:.2}", stats.reduction_percent()),
                &format!("{:.2?}", stats.timers.ranking),
                &format!("{total:.2?}"),
                &speedup,
            ]);
            report.record(&[
                ("experiment", Json::S("search".into())),
                ("functions", Json::I(n as i64)),
                ("search", Json::S(label.into())),
                ("threads", Json::I(1)),
                ("alignment", Json::S("needleman-wunsch".into())),
                ("merges", Json::I(stats.merges as i64)),
                ("reduction_percent", Json::F(stats.reduction_percent())),
                ("rank_search_s", Json::F(stats.timers.ranking.as_secs_f64())),
                ("wall_s", Json::F(total.as_secs_f64())),
            ]);
        }
        // CI gate: LSH shortlisting must stay within the reduction-parity
        // budget of the exact scan.
        let (exact, lsh) = (reductions[0], reductions[1]);
        report.gate(
            (exact - lsh).abs() <= PARITY_BUDGET * exact.abs().max(1e-9),
            format!(
                "search n={n}: LSH reduction {lsh:.3}% drifts >{:.0}% from exact {exact:.3}%",
                PARITY_BUDGET * 100.0
            ),
        );
    }
    println!("(rank+search = index seeding + per-iteration candidate queries)");
}

// ---------------------------------------------------------------- pipeline

fn merge_parallel(fast: bool, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_ir::printer::print_module;
    use fmsa_workloads::{clone_swarm_module, SwarmConfig};
    let auto = Config::new().parallel(0).resolved_threads();
    println!("\n== Parallel merge pipeline vs sequential driver (t=5, lsh search) ==");
    let table = Table::new(
        "#fns:6|driver:<11|threads:7|wall:10|merges:8|reduction%:11|identical:10|speedup:8",
    );
    let sizes: &[usize] = if fast { &[100, 1000] } else { &[100, 1000, 5000] };
    for &n in sizes {
        let base = clone_swarm_module(&SwarmConfig::with_functions(n));
        let cfg = Config::new().threshold(5).search(SearchStrategy::lsh());
        let mut m_seq = base.clone();
        let t0 = std::time::Instant::now();
        let seq = run_fmsa(&mut m_seq, &cfg);
        let t_seq = t0.elapsed();
        let seq_text = print_module(&m_seq);
        // The record keys both drivers share, in order.
        let record = |driver: &str, threads: usize, st: &FmsaStats, wall: Duration| {
            vec![
                ("experiment", Json::S("merge-parallel".into())),
                ("functions", Json::I(n as i64)),
                ("driver", Json::S(driver.into())),
                ("search", Json::S("lsh".into())),
                ("alignment", Json::S("needleman-wunsch".into())),
                ("threads", Json::I(threads as i64)),
                ("merges", Json::I(st.merges as i64)),
                ("reduction_percent", Json::F(st.reduction_percent())),
                ("wall_s", Json::F(wall.as_secs_f64())),
            ]
        };
        table.row(&[
            &n,
            &"sequential",
            &1,
            &format!("{t_seq:.2?}"),
            &seq.merges,
            &format!("{:.2}", seq.reduction_percent()),
            &"-",
            &"-",
        ]);
        report.record(&record("sequential", 1, &seq, t_seq));
        // threads=1 runs no prepare stage; threads=2 exercises the
        // parallel align + Δ gate and commit-time re-validation even on a
        // single core; threads=4 adds multi-partition parallel call-site
        // rewriting (CI runs `--check` over all three); `auto` adds the
        // machine's real parallelism when it offers more.
        let mut thread_counts = vec![1usize, 2, 4];
        if auto > 4 {
            thread_counts.push(auto);
        }
        for run in thread_sweep(&base, &cfg, &thread_counts, |_| Some(seq_text.as_str())) {
            let (threads, par) = (run.threads, &run.stats);
            let speedup = t_seq.as_secs_f64() / run.wall.as_secs_f64().max(1e-9);
            table.row(&[
                &n,
                &"pipeline",
                &threads,
                &format!("{:.2?}", run.wall),
                &par.merges,
                &format!("{:.2}", par.reduction_percent()),
                &yes_no(run.identical),
                &format!("{speedup:.1}x"),
            ]);
            let p = par.pipeline.unwrap_or_default();
            print_stages(&p);
            // Header pairs first, then the canonical PipelineStats field
            // list (shared with `scale --json` and `fmsa_opt --stats`).
            // `threads` is already in the header, so drop the duplicate.
            let mut rec = record("pipeline", threads, par, run.wall);
            rec.push(("speedup_vs_sequential", Json::F(speedup)));
            rec.push(("identical_to_sequential", Json::B(run.identical)));
            rec.extend(pipeline_json_fields(&p).into_iter().filter(|(k, _)| *k != "threads"));
            report.record(&rec);
            report.gate(
                run.identical,
                format!(
                    "merge-parallel n={n} threads={threads}: pipeline output diverges \
                     from the sequential pass"
                ),
            );
            let (rs, rp) = (seq.reduction_percent(), par.reduction_percent());
            report.gate(
                (rs - rp).abs() <= PARITY_BUDGET * rs.abs().max(1e-9),
                format!(
                    "merge-parallel n={n} threads={threads}: reduction {rp:.3}% drifts \
                     >{:.0}% from sequential {rs:.3}%",
                    PARITY_BUDGET * 100.0
                ),
            );
        }
    }
    println!(
        "(pipeline threads=1 runs no prepare stage; its win over the sequential driver is \
         the linearization cache, the call-site index, and the pre-codegen Δ gate)"
    );
}

/// The per-stage pipeline timers under a sweep row or a streamed total.
fn print_stages(p: &PipelineStats) {
    println!(
        "  stages: schedule {:.2?} (query {:.2?} + prefill {:.2?}; cpu {:.2?}), \
         prepare {:.2?} (cpu {:.2?}), commit {:.2?} (codegen {:.2?}, rewrite {:.2?}); \
         commit barriers {}",
        p.schedule,
        p.schedule_query,
        p.schedule_prefill,
        p.schedule_cpu,
        p.prepare,
        p.prepare_cpu,
        p.commit,
        p.commit_codegen,
        p.rewrite,
        p.commit_barriers,
    );
}

// ---------------------------------------------------------------- scale

/// Peak resident-set size of this process so far, from `VmHWM` in
/// `/proc/self/status`. `None` off Linux — the measurement is a
/// diagnostic, not an input to any gate.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Million-function scale: streams a corpus of chunk descriptors
/// ([`fmsa_workloads::stream_chunks`] — clone swarms mixed with decoded
/// wasm binaries), materializing, optimizing, and dropping one chunk at a
/// time so peak memory is bounded by the chunk size, then measures a
/// threads-vs-wall scaling curve on a sampled prefix. Gates (`--check`):
/// pipeline output on the sample must be bit-identical to the sequential
/// driver at every measured thread count, and — when the runner has ≥ 2
/// (resp. ≥ 4) cores — threads=2 (resp. threads=4) must beat threads=1
/// wall-clock.
fn scale(fast: bool, functions: Option<usize>, chunk: Option<usize>, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_ir::printer::print_module;
    use fmsa_workloads::stream_chunks;
    let total = functions.unwrap_or(if fast { 20_000 } else { 1_000_000 });
    let chunk = chunk.unwrap_or(if fast { 2_000 } else { 10_000 });
    let seed = 0x5ca1_e001u64;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let auto = Config::new().parallel(0).resolved_threads();
    let cfg = Config::new().threshold(5).search(SearchStrategy::lsh());
    println!(
        "\n== Million-function scale: streamed corpus of {total} functions in \
         chunks of {chunk} (t=5, lsh search, {cores} cores) =="
    );

    // Phase 1: stream the whole corpus at the machine's parallelism.
    // One chunk lives at a time; the rolling counters are the corpus
    // totals.
    let mut agg = PipelineStats::default();
    let mut merges = 0usize;
    let mut funcs_in = 0usize;
    let mut funcs_out = 0usize;
    let mut chunks_done = 0usize;
    let pcfg = cfg.clone().parallel(auto);
    let t_stream = std::time::Instant::now();
    for spec in stream_chunks(total, chunk, seed) {
        let mut m = spec.materialize();
        funcs_in += m.func_count();
        let stats = run_fmsa_pipeline(&mut m, &pcfg);
        funcs_out += m.func_count();
        merges += stats.merges;
        if let Some(p) = stats.pipeline {
            agg.accumulate(&p);
        }
        chunks_done += 1;
        if chunks_done.is_multiple_of(10) {
            eprintln!(
                "  {chunks_done} chunks / {funcs_in} functions in {:.1?}, peak rss {:.0} MiB",
                t_stream.elapsed(),
                peak_rss_mib().unwrap_or(f64::NAN)
            );
        }
        drop(m); // chunk lifetime ends here — memory stays bounded
    }
    let stream_wall = t_stream.elapsed();
    let rss = peak_rss_mib();
    println!(
        "  streamed {funcs_in} functions ({chunks_done} chunks) in {stream_wall:.1?} at \
         threads={auto}: {merges} merges, {funcs_out} functions out, peak rss {:.0} MiB",
        rss.unwrap_or(f64::NAN)
    );
    print_stages(&agg);
    // Header pairs, then the canonical PipelineStats field list (same
    // formatter as merge-parallel and fmsa_opt --stats); `threads` is
    // already in the header.
    let mut rec: Vec<(&str, Json)> = vec![
        ("experiment", Json::S("scale".into())),
        ("phase", Json::S("stream".into())),
        ("functions", Json::I(funcs_in as i64)),
        ("chunk", Json::I(chunk as i64)),
        ("chunks", Json::I(chunks_done as i64)),
        ("search", Json::S("lsh".into())),
        ("alignment", Json::S("needleman-wunsch".into())),
        ("threads", Json::I(auto as i64)),
        ("cores", Json::I(cores as i64)),
        ("merges", Json::I(merges as i64)),
        ("functions_out", Json::I(funcs_out as i64)),
        ("wall_s", Json::F(stream_wall.as_secs_f64())),
        ("peak_rss_mib", Json::F(rss.unwrap_or(f64::NAN))),
    ];
    rec.extend(pipeline_json_fields(&agg).into_iter().filter(|(k, _)| *k != "threads"));
    report.record(&rec);
    report.gate(
        funcs_in == total,
        format!("scale: stream produced {funcs_in} functions, expected {total}"),
    );

    // Phase 2: scaling curve on a sampled prefix — small enough to rerun
    // at every thread count, big enough to keep all workers busy.
    let sample_total = total.min(if fast { 4_000 } else { 20_000 });
    let sample: Vec<_> = stream_chunks(sample_total, chunk.min(sample_total), seed)
        .map(|s| s.materialize())
        .collect();
    println!("  scaling curve over a {sample_total}-function sample ({} chunks):", sample.len());
    // Each chunk is swept against its own sequential reference for the
    // bit-identity gate; a thread count's wall is the sum over chunks.
    let threads = [1usize, 2, 4, 8];
    let mut walls = vec![0.0f64; threads.len()];
    let mut identical = vec![true; threads.len()];
    for base in &sample {
        let mut m = base.clone();
        run_fmsa(&mut m, &cfg);
        let seq_text = print_module(&m);
        for (k, run) in
            thread_sweep(base, &cfg, &threads, |_| Some(seq_text.as_str())).iter().enumerate()
        {
            walls[k] += run.wall.as_secs_f64();
            identical[k] &= run.identical;
        }
    }
    let table = Table::new("threads:7|wall:10|speedup:9|identical:9");
    for (k, &t) in threads.iter().enumerate() {
        let speedup = walls[0] / walls[k].max(1e-9);
        table.row(&[
            &t,
            &format!("{:.2}s", walls[k]),
            &format!("{speedup:.2}x"),
            &yes_no(identical[k]),
        ]);
        report.record(&[
            ("experiment", Json::S("scale".into())),
            ("phase", Json::S("curve".into())),
            ("functions", Json::I(sample_total as i64)),
            ("search", Json::S("lsh".into())),
            ("alignment", Json::S("needleman-wunsch".into())),
            ("threads", Json::I(t as i64)),
            ("cores", Json::I(cores as i64)),
            ("wall_s", Json::F(walls[k])),
            ("speedup_vs_threads1", Json::F(speedup)),
            ("identical_to_sequential", Json::B(identical[k])),
        ]);
        report.gate(
            identical[k],
            format!("scale: pipeline output diverges from the sequential pass at threads={t}"),
        );
        // Speedup gates only bind when the runner actually has the cores:
        // with one core, every thread count shares it and the curve is flat
        // (plus scheduling noise).
        if (t == 2 || t == 4) && cores >= t {
            report.gate(
                walls[k] < walls[0],
                format!(
                    "scale: no speedup at threads={t} on a {cores}-core runner \
                     ({:.2}s vs {:.2}s at threads=1)",
                    walls[k], walls[0]
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- wasm

/// Decode a generated wasm corpus, lower it, and push it through the full
/// search→pipeline→merge stack — the "real binary" path. Reports frontend
/// timers (decode/lower/verify) and per-stage pipeline timers, and gates
/// both merge-output parity across 1/2/4 threads and a non-trivial size
/// reduction.
fn wasm_frontend(fast: bool, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
    println!("\n== WebAssembly frontend: decode -> lower -> merge (t=5, auto search) ==");
    let table = Table::new(
        "#fns:6|wasm KiB:10|decode:9|lower:9|threads:7|wall:10|merges:8|reduction%:11|identical:10",
    );
    let sizes: &[usize] = if fast { &[96] } else { &[96, 384] };
    for &n in sizes {
        let cfg = WasmFixtureConfig::with_functions(n);
        let bytes = wasm_fixture_bytes(&cfg);
        let t0 = std::time::Instant::now();
        let wasm = match fmsa_wasm::parse_wasm(&bytes) {
            Ok(w) => w,
            Err(e) => {
                report.fail(format!("wasm n={n}: corpus does not decode: {e}"));
                continue;
            }
        };
        let t_decode = t0.elapsed();
        let t0 = std::time::Instant::now();
        let base = match fmsa_wasm::lower_module(&wasm, "wasm-corpus") {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("wasm n={n}: corpus does not lower: {e}"));
                continue;
            }
        };
        let t_lower = t0.elapsed();
        if let Some(e) = fmsa_ir::verify_module(&base).first() {
            report.fail(format!("wasm n={n}: lowered module invalid: {e}"));
            continue;
        }
        let cfg = Config::new().threshold(5).search(SearchStrategy::Auto);
        for run in thread_sweep(&base, &cfg, &[1, 2, 4], |_| None) {
            let (threads, stats) = (run.threads, &run.stats);
            table.row(&[
                &n,
                &format!("{:.1}", bytes.len() as f64 / 1024.0),
                &format!("{t_decode:.2?}"),
                &format!("{t_lower:.2?}"),
                &threads,
                &format!("{:.2?}", run.wall),
                &stats.merges,
                &format!("{:.2}", stats.reduction_percent()),
                &yes_no(run.identical),
            ]);
            let p = stats.pipeline.unwrap_or_default();
            report.record(&[
                ("experiment", Json::S("wasm".into())),
                ("functions", Json::I(n as i64)),
                ("wasm_bytes", Json::I(bytes.len() as i64)),
                ("driver", Json::S("pipeline".into())),
                ("search", Json::S("auto".into())),
                ("alignment", Json::S("needleman-wunsch".into())),
                ("threads", Json::I(threads as i64)),
                ("decode_s", Json::F(t_decode.as_secs_f64())),
                ("lower_s", Json::F(t_lower.as_secs_f64())),
                ("merges", Json::I(stats.merges as i64)),
                ("reduction_percent", Json::F(stats.reduction_percent())),
                ("wall_s", Json::F(run.wall.as_secs_f64())),
                ("identical_to_threads1", Json::B(run.identical)),
                ("schedule_s", Json::F(p.schedule.as_secs_f64())),
                ("prepare_s", Json::F(p.prepare.as_secs_f64())),
                ("commit_s", Json::F(p.commit.as_secs_f64())),
                ("commit_codegen_s", Json::F(p.commit_codegen.as_secs_f64())),
                ("rewrite_s", Json::F(p.rewrite.as_secs_f64())),
            ]);
            report.gate(
                run.identical,
                format!("wasm n={n} threads={threads}: merge output diverges from threads=1"),
            );
            report.gate(
                stats.merges > 0 && stats.reduction_percent() > 0.0,
                format!(
                    "wasm n={n} threads={threads}: no measurable reduction ({} merges, {:.3}%)",
                    stats.merges,
                    stats.reduction_percent()
                ),
            );
        }
    }
    println!("(corpus: fmsa_workloads::wasm_fixtures — clone families serialized to wasm bytes)");
}

// ---------------------------------------------------------------- fuzz

/// The batched differential fuzz farm: lower a wasm corpus, merge it with
/// the pipeline, then hammer original-vs-merged with coverage-seeded
/// random inputs on a worker pool until both the pair target (≥1000) and
/// the time budget are spent. Any behavioural mismatch or interpreter
/// panic is a CI failure; throughput and coverage land in the bench JSON.
fn fuzz_farm(fast: bool, budget_secs: usize, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_interp::batch::wire_targets;
    use fmsa_interp::{run_differential_batch, BatchConfig};
    use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
    let threads = Config::new().parallel(0).resolved_threads();
    let n = if fast { 48 } else { 96 };
    println!("\n== Differential fuzz farm: original vs merged wasm corpus ==");
    let table = Table::new(
        "#fns:6|memory:7|targets:8|pairs:8|pairs/sec:10|paths:7|mismatches:11|panics:8|quar:7",
    );
    let budget = std::time::Duration::from_secs(budget_secs as u64);
    // Half the budget per corpus flavour: pure-compute and linear-memory
    // modules stress different interpreter and merge paths.
    let per_corpus = budget / 2;
    for with_memory in [false, true] {
        let cfg = WasmFixtureConfig {
            functions: n,
            with_memory,
            seed: 0xF22A + with_memory as u64,
            ..WasmFixtureConfig::default()
        };
        let bytes = wasm_fixture_bytes(&cfg);
        let mut pre = match fmsa_wasm::load_wasm(&bytes, "fuzz-corpus") {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("fuzz memory={with_memory}: corpus does not load: {e}"));
                continue;
            }
        };
        let mut post = pre.clone();
        let cfg = Config::new().threshold(5).search(SearchStrategy::Auto).parallel(threads);
        let stats = run_fmsa_pipeline(&mut post, &cfg);
        if stats.merges == 0 {
            report.fail(format!("fuzz memory={with_memory}: corpus did not merge"));
            continue;
        }
        let quarantined = stats.quarantine.len();
        report.gate(
            quarantined == 0,
            format!("fuzz memory={with_memory}: clean merge quarantined {quarantined} pair(s)"),
        );
        let targets = wire_targets(&mut pre, &mut post, with_memory);
        let (mut pairs, mut panics, mut paths, mut rounds) = (0usize, 0usize, 0usize, 0u64);
        let mut mismatches = Vec::new();
        let t0 = std::time::Instant::now();
        while pairs < 1000 || t0.elapsed() < per_corpus {
            let bcfg = BatchConfig {
                threads,
                seed: 0xF22A_0000 ^ rounds,
                per_target: 8,
                ..BatchConfig::default()
            };
            let out = run_differential_batch(&pre, &post, &targets, &bcfg);
            pairs += out.pairs_run;
            panics += out.panics_caught;
            // Coverage within one round is a unique (function, block) set
            // over the same module, so the union across rounds is tracked
            // as the best single round.
            paths = paths.max(out.paths_covered);
            mismatches.extend(out.mismatches);
            rounds += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        let pairs_per_sec = pairs as f64 / wall.max(1e-9);
        table.row(&[
            &n,
            &with_memory,
            &targets.len(),
            &pairs,
            &format!("{pairs_per_sec:.0}"),
            &paths,
            &mismatches.len(),
            &panics,
            &quarantined,
        ]);
        for m in mismatches.iter().take(5) {
            println!(
                "       MISMATCH {} seed={:#x}: pre={} post={} (replay: seeded_args from this seed)",
                m.function, m.seed, m.pre, m.post
            );
        }
        report.record(&[
            ("experiment", Json::S("fuzz".into())),
            ("functions", Json::I(n as i64)),
            ("with_memory", Json::B(with_memory)),
            ("threads", Json::I(threads as i64)),
            ("budget_s", Json::F(per_corpus.as_secs_f64())),
            ("targets", Json::I(targets.len() as i64)),
            ("pairs_run", Json::I(pairs as i64)),
            ("pairs_per_sec", Json::F(pairs_per_sec)),
            ("paths_covered", Json::I(paths as i64)),
            ("mismatches", Json::I(mismatches.len() as i64)),
            ("panics_caught", Json::I(panics as i64)),
            ("quarantined", Json::I(quarantined as i64)),
            ("merges", Json::I(stats.merges as i64)),
        ]);
        if let Some(first) = mismatches.first() {
            report.fail(format!(
                "fuzz memory={with_memory}: {} differential mismatch(es), first in {} seed={:#x}",
                mismatches.len(),
                first.function,
                first.seed
            ));
        }
        report
            .gate(panics == 0, format!("fuzz memory={with_memory}: {panics} interpreter panic(s)"));
        report.gate(
            pairs >= 1000,
            format!(
                "fuzz memory={with_memory}: only {pairs} input pairs inside the budget (<1000)"
            ),
        );
    }
    println!("(pairs = one input vector run on both original and merged module under equal fuel)");
}

// ---------------------------------------------------------------- faults

/// The fault-injection matrix: run the pipeline over a clone swarm with a
/// deterministic `FaultPlan` forcing panics and verifier failures, and
/// gate the graceful-degradation contract — the run completes, only
/// planned pairs are quarantined, and output plus quarantine summary are
/// bit-identical at 1, 2, and 4 threads.
fn fault_matrix(fast: bool, report: &mut Report) {
    use fmsa_core::quarantine::QuarantineStage;
    use fmsa_core::SearchStrategy;
    use fmsa_core::{silence_injected_panics, FaultPlan, FaultSite};
    use fmsa_workloads::{clone_swarm_module, SwarmConfig};
    silence_injected_panics();
    let n = if fast { 600 } else { 5000 };
    println!("\n== Fault-injection matrix: quarantine and graceful degradation (n={n}) ==");
    let table = Table::new(
        "plan:9|threads:7|wall:10|merges:8|quar:6|panics:8|verify:7|identical:10|summary=:9",
    );
    let base = clone_swarm_module(&SwarmConfig::with_functions(n));
    let (label, faults) = ("injected", FaultPlan::new(0xFA17, 20_000, &FaultSite::ALL));
    let cfg = Config::new().threshold(5).search(SearchStrategy::lsh()).faults(faults);
    let runs = thread_sweep(&base, &cfg, &[1, 2, 4], |_| None);
    let reference_summary = runs[0].stats.quarantine.summary();
    for run in &runs {
        let (threads, stats) = (run.threads, &run.stats);
        if let Some(e) = fmsa_ir::verify_module(&run.module).first() {
            report.fail(format!("faults {label} threads={threads}: output module invalid: {e}"));
        }
        let summary_same = stats.quarantine.summary() == reference_summary;
        let p = stats.pipeline.unwrap_or_default();
        table.row(&[
            &label,
            &threads,
            &format!("{:.2?}", run.wall),
            &stats.merges,
            &p.quarantined(),
            &p.panics_caught,
            &p.quarantined_verify,
            &yes_no(run.identical),
            &if summary_same { "same" } else { "DIFFERS" },
        ]);
        report.record(&[
            ("experiment", Json::S("faults".into())),
            ("plan", Json::S(label.into())),
            ("functions", Json::I(n as i64)),
            ("threads", Json::I(threads as i64)),
            ("rate_ppm", Json::I(faults.rate_ppm as i64)),
            ("merges", Json::I(stats.merges as i64)),
            ("quarantined", Json::I(p.quarantined() as i64)),
            ("quarantined_align", Json::I(p.quarantined_align as i64)),
            ("quarantined_codegen", Json::I(p.quarantined_codegen as i64)),
            ("quarantined_verify", Json::I(p.quarantined_verify as i64)),
            ("panics_caught", Json::I(p.panics_caught as i64)),
            ("wall_s", Json::F(run.wall.as_secs_f64())),
            ("identical_to_threads1", Json::B(run.identical)),
            ("quarantine_summary_identical", Json::B(summary_same)),
        ]);
        report.gate(
            run.identical && summary_same,
            format!(
                "faults {label} threads={threads}: output or quarantine set diverges \
                 from threads=1"
            ),
        );
        // Every quarantined pair must trace back to the plan: the
        // corpus itself is healthy, so an unplanned entry means the
        // fault boundary leaked.
        for e in stats.quarantine.entries() {
            let site = match e.stage {
                QuarantineStage::Align => FaultSite::Align,
                QuarantineStage::Codegen => FaultSite::Codegen,
                QuarantineStage::Verify => FaultSite::Verify,
                QuarantineStage::Mismatch => {
                    report.fail(format!(
                        "faults {label}: unexpected mismatch quarantine for {},{}",
                        e.f1, e.f2
                    ));
                    continue;
                }
            };
            report.gate(
                faults.fires(site, &e.f1, &e.f2),
                format!(
                    "faults {label}: pair {},{} quarantined at {} without a planned fault",
                    e.f1, e.f2, e.stage
                ),
            );
        }
        report.gate(
            p.quarantined() > 0,
            format!(
                "faults {label} threads={threads}: plan fired no quarantines — \
                 the matrix is not exercising the boundaries"
            ),
        );
    }
    println!("(injected faults quarantine deterministically on the commit path)");
}

// ---------------------------------------------------------------- ablation

fn ablation_params(suite: &[BenchDesc]) {
    println!("\n== Ablation: §III-E parameter reuse (\"improves ... by up to 7%\") ==");
    let table = Table::new("benchmark:<16|reuse-on:10|reuse-off:10|delta:8");
    let cm = CostModel::new(TargetArch::X86_64);
    let mut best = 0.0f64;
    for desc in suite {
        let base = desc.build();
        let size_before = cm.module_size(&base);
        let run = |reuse: bool| -> f64 {
            let mut m = base.clone();
            run_identical(&mut m, TargetArch::X86_64);
            let cfg = Config::new()
                .threshold(1)
                .merge(MergeConfig { reuse_params: reuse, ..MergeConfig::default() });
            run_fmsa(&mut m, &cfg);
            reduction_percent(size_before, cm.module_size(&m))
        };
        let on = run(true);
        let off = run(false);
        best = best.max(on - off);
        float_row(&table, desc.name, &[on, off, on - off], 2);
    }
    println!("(largest per-benchmark improvement from parameter reuse: {best:.2}%)");
}

// ---------------------------------------------------------------- serve

/// The wasm fixture corpus of `n` functions generated from `seed`.
fn wasm_corpus(n: usize, seed: u64) -> Vec<u8> {
    use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
    wasm_fixture_bytes(&WasmFixtureConfig { seed, ..WasmFixtureConfig::with_functions(n) })
}

/// What batch `fmsa_opt` prints for an uploaded corpus: the daemon's
/// byte-parity reference.
fn batch_output(upload: &[u8]) -> String {
    let mut m = fmsa::load_module_bytes(upload, "upload").expect("corpus loads");
    fmsa::optimize(&mut m, &Config::new()).expect("corpus merges");
    fmsa::ir::printer::print_module(&m)
}

/// The merge-daemon load generator: boots an in-process `fmsa-serve` over
/// a persistent store, then measures (and under `--check` gates) the
/// service contract — daemon output byte-identical to batch
/// `fmsa::optimize`, a byte-identical re-upload served from the response
/// cache with a nonzero store hit rate and measurably faster than the
/// cold merge, sustained merges/sec over distinct corpora, and index
/// survival across a daemon restart.
fn serve_bench(fast: bool, report: &mut Report) {
    use fmsa_serve::{client, Server, ServerConfig};
    let n = if fast { 96 } else { 192 };
    println!("\n== fmsa-serve: merge daemon under load (n={n} functions per corpus) ==");

    let store_dir = std::env::temp_dir().join(format!("fmsa-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server_cfg = ServerConfig { store_dir: Some(store_dir.clone()), ..ServerConfig::default() };
    let mut server = match Server::bind(server_cfg.clone()).and_then(Server::spawn) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("serve-bench: cannot boot daemon: {e}"));
            return;
        }
    };

    // Parity reference: the exact bytes batch fmsa_opt would print.
    let primary = wasm_corpus(n, 1);
    let reference = batch_output(&primary);

    // Uploads go through the retrying client: a shed (429/503) response
    // is backed off and retried per its Retry-After instead of failing
    // the run — the same path a well-behaved production client takes.
    let retry = client::RetryPolicy { seed: 11, ..client::RetryPolicy::default() };
    let upload = |server: &fmsa_serve::RunningServer, body: &[u8]| {
        let t0 = std::time::Instant::now();
        let resp =
            client::request_with_retry(server.addr(), "POST", "/v1/modules", &[], body, &retry);
        (resp, t0.elapsed())
    };
    let header_u64 = |resp: &client::Response, name: &str| -> u64 {
        resp.header(name).and_then(|v| v.parse().ok()).unwrap_or(0)
    };

    // Cold upload: the merge runs, every function is a store miss.
    let (cold, t_cold) = upload(&server, &primary);
    let Ok(cold) = cold else {
        report.fail("serve-bench: cold upload failed".to_owned());
        return;
    };
    if cold.status != 200 {
        report.fail(format!("serve-bench: cold upload returned {}", cold.status));
        return;
    }
    report.gate(
        cold.text() == reference,
        "serve-bench: daemon output is not byte-identical to batch fmsa_opt",
    );
    let merges = header_u64(&cold, "x-fmsa-merges");

    // Warm re-upload: byte-identical output, nonzero hit rate, faster.
    let (warm, t_warm) = upload(&server, &primary);
    let Ok(warm) = warm else {
        report.fail("serve-bench: warm upload failed".to_owned());
        return;
    };
    let warm_hits = header_u64(&warm, "x-fmsa-store-hits");
    let warm_total = warm_hits + header_u64(&warm, "x-fmsa-store-misses");
    let hit_rate = warm_hits as f64 / (warm_total as f64).max(1.0);
    report.gate(
        warm.body == cold.body,
        "serve-bench: warm re-upload is not byte-identical to the cold merge",
    );
    report.gate(warm_hits > 0, "serve-bench: warm re-upload saw zero store hits");
    report.gate(
        t_warm < t_cold,
        format!(
            "serve-bench: warm re-upload ({t_warm:.2?}) not faster than cold merge ({t_cold:.2?})"
        ),
    );

    // Sustained load: distinct corpora, so every request is a real merge.
    let seeds: &[u64] = if fast { &[2, 3, 4, 5] } else { &[2, 3, 4, 5, 6, 7, 8, 9] };
    let mut sustained_merges = 0u64;
    let t0 = std::time::Instant::now();
    for &seed in seeds {
        let (resp, _) = upload(&server, &wasm_corpus(n, seed));
        match resp {
            Ok(r) if r.status == 200 => sustained_merges += header_u64(&r, "x-fmsa-merges"),
            Ok(r) => report.fail(format!("serve-bench: seed {seed} upload returned {}", r.status)),
            Err(e) => report.fail(format!("serve-bench: seed {seed} upload failed: {e}")),
        }
    }
    let sustained_wall = t0.elapsed();
    let merges_per_sec = sustained_merges as f64 / sustained_wall.as_secs_f64().max(1e-9);
    let requests_per_sec = seeds.len() as f64 / sustained_wall.as_secs_f64().max(1e-9);

    // Restart: a new daemon over the same directory reloads the index, so
    // the primary corpus is all store hits without the response cache.
    server.stop();
    let mut restart_hit_rate = 0.0;
    match Server::bind(server_cfg).and_then(Server::spawn) {
        Ok(mut restarted) => {
            let (resp, _) = upload(&restarted, &primary);
            match resp {
                Ok(r) if r.status == 200 => {
                    let hits = header_u64(&r, "x-fmsa-store-hits");
                    let total = hits + header_u64(&r, "x-fmsa-store-misses");
                    restart_hit_rate = hits as f64 / (total as f64).max(1.0);
                    report
                        .gate(r.body == cold.body, "serve-bench: output changed across a restart");
                    report.gate(
                        hits == total && total > 0,
                        format!("serve-bench: reloaded index recognized {hits}/{total} functions"),
                    );
                }
                Ok(r) => report.fail(format!("serve-bench: post-restart upload got {}", r.status)),
                Err(e) => report.fail(format!("serve-bench: post-restart upload failed: {e}")),
            }
            restarted.stop();
        }
        Err(e) => report.fail(format!("serve-bench: cannot restart daemon: {e}")),
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    let table = Table::new(
        "cold:10|warm:10|speedup:9|hit rate:12|merges/sec:12|requests/sec:13|restart hits:13",
    );
    let speedup = t_cold.as_secs_f64() / t_warm.as_secs_f64().max(1e-9);
    table.row(&[
        &format!("{t_cold:.2?}"),
        &format!("{t_warm:.2?}"),
        &format!("{speedup:.1}x"),
        &format!("{hit_rate:.3}"),
        &format!("{merges_per_sec:.1}"),
        &format!("{requests_per_sec:.1}"),
        &format!("{restart_hit_rate:.3}"),
    ]);
    report.record(&[
        ("experiment", Json::S("serve-bench".into())),
        ("functions", Json::I(n as i64)),
        ("corpora", Json::I(seeds.len() as i64 + 1)),
        ("cold_wall_s", Json::F(t_cold.as_secs_f64())),
        ("warm_wall_s", Json::F(t_warm.as_secs_f64())),
        ("warm_speedup", Json::F(speedup)),
        ("warm_hit_rate", Json::F(hit_rate)),
        ("merges", Json::I(merges as i64)),
        ("sustained_merges", Json::I(sustained_merges as i64)),
        ("merges_per_sec", Json::F(merges_per_sec)),
        ("requests_per_sec", Json::F(requests_per_sec)),
        ("restart_hit_rate", Json::F(restart_hit_rate)),
    ]);
    println!(
        "(cold = first upload, warm = byte-identical re-upload served from the response \
         cache; restart hits = store recognition after an index reload from disk)"
    );
}

// ---------------------------------------------------------------- chaos

/// Deterministic pseudo-random stream for the chaos harness (splitmix64
/// over `(cycle, salt)`): every cut point, bit flip, and upload seed is
/// a pure function of the cycle index, so a failing cycle replays
/// exactly by number.
fn chaos_mix(cycle: u64, salt: u64) -> u64 {
    let mut z = cycle
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The crash/recovery chaos harness: kill/restart cycles over one
/// persistent store, concurrent uploads under injected store I/O
/// faults, and a simulated kill-at-byte-N (log truncation, sometimes a
/// bit flip) after every kill. Gates, per the robustness contract:
/// zero panics anywhere, the reopened store always equals an
/// independent [`fmsa_core::scan_store`] of the mutated log (no
/// checksum-valid durable entry lost), the recovered daemon re-serves
/// the warm corpus byte-identically, and a compaction killed at the
/// rename leaves the old log authoritative (never a hybrid).
fn chaos(fast: bool, report: &mut Report) {
    use fmsa::ContentHash;
    use fmsa_core::store::{scan_store, FunctionStore, StoreOptions, STORE_FILE};
    use fmsa_core::{FaultPlan, FaultSite};
    use fmsa_serve::{client, Server, ServerConfig};
    use std::time::Instant;

    let cycles: u64 = if fast { 20 } else { 50 };
    let n = if fast { 16 } else { 32 };
    println!("\n== chaos: {cycles} kill/restart cycles under store faults (n={n} fns/corpus) ==");

    let store_dir = std::env::temp_dir().join(format!("fmsa-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mk_cfg = |faults: FaultPlan| ServerConfig {
        store_dir: Some(store_dir.clone()),
        store: StoreOptions { faults, ..StoreOptions::default() },
        // Deadline bounds every request's tail latency by construction.
        request_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    };
    // Low-rate write/fsync faults during the cycles; the store keys
    // faults by a monotonic op counter, so a retried request is a new
    // draw rather than a permanently poisoned input.
    let cycle_faults =
        |cycle: u64| FaultPlan::new(cycle, 5_000, &[FaultSite::StoreWrite, FaultSite::StoreFsync]);
    let sorted = |mut v: Vec<(ContentHash, u64)>| {
        v.sort();
        v
    };
    let entry_set =
        |store: &FunctionStore| sorted(store.entries().map(|e| (e.hash, e.seen)).collect());

    // Warm phase (no faults): reference bytes + a durable warm store.
    let primary = wasm_corpus(n, 1);
    let reference = batch_output(&primary).into_bytes();
    match Server::bind(mk_cfg(FaultPlan::disabled())).and_then(Server::spawn) {
        Ok(mut server) => {
            match client::post(server.addr(), "/v1/modules", &primary) {
                Ok(r) if r.status == 200 && r.body == reference => {}
                Ok(r) => report.fail(format!("chaos: warm upload got {} or wrong bytes", r.status)),
                Err(e) => report.fail(format!("chaos: warm upload failed: {e}")),
            }
            server.stop(); // graceful: flush + compact
        }
        Err(e) => {
            report.fail(format!("chaos: cannot boot daemon: {e}"));
            return;
        }
    }

    let retry = client::RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        seed: 7,
    };
    let mut kills = 0u64;
    let mut panics = 0u64;
    let mut lost_cycles = 0u64;
    let mut reserve_mismatches = 0u64;
    let mut uploads_ok = 0u64;
    let mut uploads_faulted = 0u64;
    let mut skipped_total = 0u64;
    let mut latencies: Vec<Duration> = Vec::new();

    for cycle in 0..cycles {
        let mut server = match Server::bind(mk_cfg(cycle_faults(cycle))).and_then(Server::spawn) {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("chaos: cycle {cycle}: cannot restart daemon: {e}"));
                break;
            }
        };
        // Gate: byte-identical re-serve of the warm corpus after the
        // previous cycle's crash + recovery. (Merge decisions never read
        // the store, so recovery must not change responses.)
        let t0 = Instant::now();
        match client::request_with_retry(
            server.addr(),
            "POST",
            "/v1/modules",
            &[],
            &primary,
            &retry,
        ) {
            Ok(r) if r.status == 200 => {
                latencies.push(t0.elapsed());
                uploads_ok += 1;
                if !report.gate(
                    r.body == reference,
                    format!("chaos: cycle {cycle}: re-serve not byte-identical"),
                ) {
                    reserve_mismatches += 1;
                }
            }
            // An injected ingest fault surfaces as a 5xx: acceptable
            // chaos, the gate is on what 200s contain.
            Ok(_) => uploads_faulted += 1,
            Err(e) => report.fail(format!("chaos: cycle {cycle}: re-serve transport error: {e}")),
        }
        // Concurrent uploads of distinct corpora under store faults.
        let workers: Vec<_> = (0..3u64)
            .map(|w| {
                let addr = server.addr();
                let body = wasm_corpus(n, 100 + cycle * 3 + w);
                let retry = retry.clone();
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let r =
                        client::request_with_retry(addr, "POST", "/v1/modules", &[], &body, &retry);
                    (r, t0.elapsed())
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok((Ok(r), lat)) if r.status == 200 => {
                    latencies.push(lat);
                    uploads_ok += 1;
                }
                Ok((Ok(_), _)) => uploads_faulted += 1,
                Ok((Err(_), _)) => uploads_faulted += 1,
                Err(_) => {
                    panics += 1;
                    report.fail(format!("chaos: cycle {cycle}: upload worker panicked"));
                }
            }
        }

        // The crash: no drain, no flush, no compaction...
        server.kill();
        kills += 1;
        // ...then kill-at-byte-N: truncate the log to a random cut and,
        // every third cycle, flip one bit inside what remains.
        let path = store_dir.join(STORE_FILE);
        let raw = std::fs::read(&path).unwrap_or_default();
        if raw.is_empty() {
            continue;
        }
        let cut = (chaos_mix(cycle, 1) as usize) % (raw.len() + 1);
        let mut mutated = raw[..cut].to_vec();
        if cycle % 3 == 0 && !mutated.is_empty() {
            let off = (chaos_mix(cycle, 2) as usize) % mutated.len();
            mutated[off] ^= 1 << (chaos_mix(cycle, 3) % 8);
        }
        if let Err(e) = std::fs::write(&path, &mutated) {
            report.fail(format!("chaos: cycle {cycle}: cannot mutate log: {e}"));
            break;
        }

        // Gate: recovery == independent scan; open never panics.
        let expected = scan_store(&mutated);
        skipped_total += expected.skipped_records as u64;
        let want = sorted(expected.entries);
        match std::panic::catch_unwind(|| FunctionStore::open(&store_dir)) {
            Ok(Ok(store)) => {
                let got = entry_set(&store);
                if !report.gate(
                    got == want,
                    format!(
                        "chaos: cycle {cycle}: recovered {} entries, independent scan \
                         of the mutated log says {} (cut {cut}/{})",
                        got.len(),
                        want.len(),
                        raw.len()
                    ),
                ) {
                    lost_cycles += 1;
                }
            }
            Ok(Err(e)) => report.fail(format!("chaos: cycle {cycle}: recovery errored: {e}")),
            Err(_) => {
                panics += 1;
                report.fail(format!("chaos: cycle {cycle}: recovery panicked"));
            }
        }
    }

    // Gate: a compaction killed at the rename is atomic — the old log
    // stays authoritative, no hybrid, and the scratch tmp is cleaned up.
    {
        let rename_fault = StoreOptions {
            faults: FaultPlan::new(999, 1_000_000, &[FaultSite::StoreRename]),
            ..StoreOptions::default()
        };
        match FunctionStore::open_with(&store_dir, rename_fault) {
            Ok(mut store) => {
                let before = entry_set(&store);
                report
                    .gate(store.compact().is_err(), "chaos: rename fault did not fire on compact");
                drop(store);
                match FunctionStore::open(&store_dir) {
                    Ok(store) => {
                        report.gate(
                            entry_set(&store) == before,
                            "chaos: failed compaction changed the log (hybrid state)",
                        );
                    }
                    Err(e) => report.fail(format!("chaos: reopen after failed compact: {e}")),
                }
            }
            Err(e) => report.fail(format!("chaos: cannot open store for compact gate: {e}")),
        }
        // And an unfaulted compaction folds cleanly and round-trips.
        match FunctionStore::open(&store_dir) {
            Ok(mut store) => {
                let before = entry_set(&store);
                match store.compact() {
                    Ok(_) => {
                        drop(store);
                        match FunctionStore::open(&store_dir) {
                            Ok(store) => {
                                report.gate(
                                    entry_set(&store) == before,
                                    "chaos: compaction changed the live entry set",
                                );
                                report.gate(
                                    store.dead_bytes() == 0,
                                    "chaos: compacted log still has dead bytes",
                                );
                            }
                            Err(e) => report.fail(format!("chaos: reopen after compact: {e}")),
                        }
                    }
                    Err(e) => report.fail(format!("chaos: final compact failed: {e}")),
                }
            }
            Err(e) => report.fail(format!("chaos: cannot open store for final compact: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    report.gate(kills >= cycles, format!("chaos: only {kills}/{cycles} kill cycles ran"));
    report.gate(panics == 0, format!("chaos: {panics} panic(s) observed"));
    latencies.sort();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let i = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[i].as_secs_f64() * 1000.0
    };
    let (p50, p95, max) = (pct(0.50), pct(0.95), pct(1.0));
    // Tail bound: the request deadline caps every successful upload.
    report.gate(max <= 60_000.0, format!("chaos: tail latency unbounded ({max:.0} ms)"));

    let table = Table::new("cycles:7|kills:8|panics:7|lost:10|ok:9|faulted:9|p50 ms:9|p95 ms:9");
    table.row(&[
        &cycles,
        &kills,
        &panics,
        &lost_cycles,
        &uploads_ok,
        &uploads_faulted,
        &format!("{p50:.1}"),
        &format!("{p95:.1}"),
    ]);
    report.record(&[
        ("experiment", Json::S("chaos".into())),
        ("cycles", Json::I(cycles as i64)),
        ("kills", Json::I(kills as i64)),
        ("panics", Json::I(panics as i64)),
        ("entries_lost_cycles", Json::I(lost_cycles as i64)),
        ("reserve_mismatches", Json::I(reserve_mismatches as i64)),
        ("uploads_ok", Json::I(uploads_ok as i64)),
        ("uploads_faulted", Json::I(uploads_faulted as i64)),
        ("corrupt_records_skipped", Json::I(skipped_total as i64)),
        ("p50_ms", Json::F(p50)),
        ("p95_ms", Json::F(p95)),
        ("max_ms", Json::F(max)),
    ]);
    println!(
        "(every cut/flip/upload seed is a pure function of the cycle index; a failing \
         cycle replays exactly from its number — see docs/robustness.md)"
    );
}

// ---------------------------------------------------------------- obs

/// Flight-recorder smoke test: the CI `obs-smoke` job runs this with
/// `--fast --check`. Gates (a) tracing overhead ≤ 3% over the
/// telemetry-disabled run, (b) bit-identical output at 1/2/4/8 threads
/// with tracing on and off, (c) well-nested Chrome-trace spans with the
/// expected span names, (d) exact reconciliation of the per-attempt
/// decision log against `FmsaStats`/`PipelineStats`, and (e) a booted
/// daemon serving valid Prometheus exposition with the required metric
/// families plus a populated `/v1/merges/recent`.
fn obs(fast: bool, report: &mut Report) {
    use fmsa::telemetry::{trace, DecisionOutcome};
    use fmsa_core::SearchStrategy;
    use fmsa_ir::printer::print_module;
    use fmsa_serve::{client, Server, ServerConfig};
    use fmsa_workloads::{clone_swarm_module, wasm_fixture_bytes, SwarmConfig, WasmFixtureConfig};

    let n = if fast { 1_000 } else { 5_000 };
    println!("\n== Flight recorder: overhead, identity, trace, decisions, /metrics (n={n}) ==");
    let cfg = Config::new().threshold(5).search(SearchStrategy::lsh());
    let base = clone_swarm_module(&SwarmConfig::with_functions(n));

    // Tracing is process-global; remember the caller's state (a global
    // `--trace-out` enables it before dispatch) and restore it on exit.
    let was_tracing = trace::enabled();
    trace::disable();
    let _ = trace::drain();

    // (a) Overhead: telemetry-disabled vs tracing-enabled wall clock on
    // the sequential driver. Runs are interleaved off/on (so clock and
    // cache drift hit both sides equally) after an untimed warm-up, and
    // each side keeps its minimum — the least-noise estimate of the
    // true cost.
    let time_run = || {
        let mut m = base.clone();
        let t0 = std::time::Instant::now();
        let st = run_fmsa(&mut m, &cfg);
        (t0.elapsed().as_secs_f64(), st, m)
    };
    let _ = time_run(); // warm-up: page cache, allocator, branch predictors
    let mut wall_off = f64::INFINITY;
    let mut wall_on = f64::INFINITY;
    let mut seq = None;
    for _ in 0..4 {
        trace::disable();
        let (w, st, m) = time_run();
        wall_off = wall_off.min(w);
        seq = Some((st, m));
        trace::enable();
        let (w, ..) = time_run();
        wall_on = wall_on.min(w);
        let _ = trace::drain(); // keep per-thread buffers from filling up
    }
    trace::disable();
    let overhead_pct = (wall_on / wall_off.max(1e-9) - 1.0) * 100.0;
    println!(
        "  overhead: sequential n={n}, tracing off {wall_off:.3}s vs on {wall_on:.3}s \
         ({overhead_pct:+.2}%)"
    );
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("overhead".into())),
        ("functions", Json::I(n as i64)),
        ("wall_off_s", Json::F(wall_off)),
        ("wall_on_s", Json::F(wall_on)),
        ("overhead_pct", Json::F(overhead_pct)),
    ]);
    report.gate(
        overhead_pct <= 3.0,
        format!(
            "obs: tracing overhead {overhead_pct:.2}% exceeds the 3% budget \
             (off {wall_off:.3}s, on {wall_on:.3}s)"
        ),
    );

    // (b) Bit-identity: the pipeline must print the sequential bytes at
    // every thread count, with the flight recorder both off and on —
    // telemetry observes, it never decides. The reference is the last
    // untraced sequential run of (a).
    let (seq_stats, seq_module) = seq.expect("overhead loop ran");
    let seq_text = print_module(&seq_module);
    let mut identical_all = true;
    for traced in [false, true] {
        if traced {
            trace::enable();
        } else {
            trace::disable();
        }
        for run in thread_sweep(&base, &cfg, &[1, 2, 4, 8], |_| Some(seq_text.as_str())) {
            identical_all &= report.gate(
                run.identical,
                format!(
                    "obs: pipeline output diverges from sequential at threads={} tracing={}",
                    run.threads,
                    if traced { "on" } else { "off" }
                ),
            );
        }
    }
    println!("  bit-identity at threads 1/2/4/8, tracing off+on: {}", yes_no(identical_all));
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("bit-identity".into())),
        ("functions", Json::I(n as i64)),
        ("identical_to_sequential", Json::B(identical_all)),
    ]);

    // (c) Trace validity: the traced half of the identity loop left its
    // spans in the per-thread buffers; they must be well nested and
    // cover the whole span hierarchy.
    trace::disable();
    let (events, dropped) = trace::drain();
    let nesting = trace::check_nesting(&events);
    report.gate(!events.is_empty(), "obs: tracing-enabled runs recorded no span events");
    if let Err(e) = &nesting {
        report.fail(format!("obs: trace spans are not well nested: {e}"));
    }
    for required in ["pass", "generation", "schedule", "prepare", "commit", "merge_attempt"] {
        report.gate(
            events.iter().any(|ev| ev.name == required),
            format!("obs: trace is missing the {required:?} span"),
        );
    }
    let export = trace::export_chrome(&events);
    report.gate(
        export.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "obs: Chrome-trace export has an unexpected envelope",
    );
    println!(
        "  trace: {} events across {} threads, nesting {}",
        events.len(),
        events.iter().map(|ev| ev.tid).collect::<std::collections::HashSet<_>>().len(),
        if nesting.is_ok() { "ok" } else { "BROKEN" }
    );
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("trace".into())),
        ("trace_events", Json::I(events.len() as i64)),
        ("trace_dropped", Json::I(dropped as i64)),
        ("nesting_ok", Json::B(nesting.is_ok())),
    ]);

    // (d) Decision-log reconciliation, pipeline and sequential: every
    // attempt produces exactly one record, and the outcome counts are
    // exact even past the retention bound.
    use DecisionOutcome as O;
    let reconcile = |label: &str, st: &fmsa_core::pass::FmsaStats, report: &mut Report| {
        let d = &st.decisions;
        let mut ok = true;
        let mut check = |what: &str, got: u64, want: u64| {
            ok &= report.gate(
                got == want,
                format!("obs: {label} decisions: {what} = {got}, expected {want}"),
            );
        };
        check("total()", d.total(), st.attempted as u64);
        check("Merged", d.count(O::Merged), st.merges as u64);
        if let Some(p) = st.pipeline.as_ref() {
            check("GateSkipped", d.count(O::GateSkipped), p.gate_skipped as u64);
            check("BudgetSkipped", d.count(O::BudgetSkipped), p.budget_skipped as u64);
            check("Quarantined", d.count(O::Quarantined), p.quarantined() as u64);
        }
        ok
    };
    let par_stats = {
        let pcfg = cfg.clone().parallel(4);
        let mut m = base.clone();
        run_fmsa_pipeline(&mut m, &pcfg)
    };
    let seq_ok = reconcile("sequential", &seq_stats, report);
    let par_ok = reconcile("pipeline", &par_stats, report);
    println!(
        "  decisions: sequential {} records / {} attempts, pipeline {} / {} — {}",
        seq_stats.decisions.total(),
        seq_stats.attempted,
        par_stats.decisions.total(),
        par_stats.attempted,
        if seq_ok && par_ok { "reconciled" } else { "MISMATCH" }
    );
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("decisions".into())),
        ("functions", Json::I(n as i64)),
        ("attempted", Json::I(par_stats.attempted as i64)),
        ("decisions_total", Json::I(par_stats.decisions.total() as i64)),
        ("merged", Json::I(par_stats.decisions.count(O::Merged) as i64)),
        ("unprofitable", Json::I(par_stats.decisions.count(O::Unprofitable) as i64)),
        ("reconciled", Json::B(seq_ok && par_ok)),
    ]);

    // (e) Daemon scrape: boot fmsa-serve, push one corpus through it,
    // then assert the Prometheus exposition carries every family the
    // dashboards depend on and the decision-log endpoint is populated.
    let store_dir = std::env::temp_dir().join(format!("fmsa-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server_cfg = ServerConfig { store_dir: Some(store_dir.clone()), ..ServerConfig::default() };
    match Server::bind(server_cfg).and_then(Server::spawn) {
        Err(e) => report.fail(format!("obs: cannot boot daemon: {e}")),
        Ok(mut server) => {
            let corpus = wasm_fixture_bytes(&WasmFixtureConfig::with_functions(96));
            match client::post(server.addr(), "/v1/modules", &corpus) {
                Ok(r) if r.status == 200 => {}
                Ok(r) => report.fail(format!("obs: daemon upload returned {}", r.status)),
                Err(e) => report.fail(format!("obs: daemon upload failed: {e}")),
            }
            let mut families_ok = true;
            match client::get(server.addr(), "/metrics") {
                Err(e) => report.fail(format!("obs: GET /metrics failed: {e}")),
                Ok(r) => {
                    report
                        .gate(r.status == 200, format!("obs: GET /metrics returned {}", r.status));
                    report.gate(
                        r.header("content-type").is_some_and(|ct| ct.contains("version=0.0.4")),
                        "obs: /metrics content-type is not exposition 0.0.4",
                    );
                    let body = r.text();
                    for family in [
                        "fmsa_http_requests_total",
                        "fmsa_http_request_duration_seconds_bucket",
                        "fmsa_merge_duration_seconds_bucket",
                        "fmsa_merge_decisions",
                        "fmsa_build_info",
                        "fmsa_store_functions",
                        "fmsa_queue_active_connections",
                        "fmsa_uptime_seconds",
                    ] {
                        families_ok &= report.gate(
                            body.contains(family),
                            format!("obs: /metrics is missing family {family}"),
                        );
                    }
                    families_ok &= report.gate(
                        body.contains("# TYPE fmsa_http_requests_total counter"),
                        "obs: /metrics lacks the TYPE line for requests_total",
                    );
                }
            }
            let mut recent_ok = false;
            match client::get(server.addr(), "/v1/merges/recent?n=10") {
                Err(e) => report.fail(format!("obs: GET /v1/merges/recent failed: {e}")),
                Ok(r) => {
                    let body = r.text();
                    recent_ok = report.gate(
                        r.status == 200
                            && body.contains("\"records\":[")
                            && body.contains("\"total\":"),
                        format!("obs: /v1/merges/recent malformed (status {})", r.status),
                    );
                }
            }
            match client::get(server.addr(), "/v1/stats") {
                Err(e) => report.fail(format!("obs: GET /v1/stats failed: {e}")),
                Ok(r) => {
                    let body = r.text();
                    report.gate(
                        body.contains("\"version\":") && body.contains("\"started_at\":"),
                        "obs: /v1/stats lacks build metadata",
                    );
                }
            }
            println!(
                "  daemon: /metrics families {}, /v1/merges/recent {}",
                if families_ok { "ok" } else { "MISSING" },
                if recent_ok { "ok" } else { "MALFORMED" }
            );
            report.record(&[
                ("experiment", Json::S("obs".into())),
                ("check", Json::S("daemon".into())),
                ("metrics_families_ok", Json::B(families_ok)),
                ("merges_recent_ok", Json::B(recent_ok)),
            ]);
            server.stop();
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    if was_tracing {
        trace::enable();
    }
    println!("(the CI obs-smoke job gates this via --check; see docs/observability.md)");
}
