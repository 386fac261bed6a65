//! Layer replay for traced runs.
//!
//! Calls each layer's public function on a workload's own inputs, timed
//! by spans from this file: wasm decode and lowering, verification,
//! fingerprinting, MinHash, LSH insert and query, alignment, the
//! optimistic Δ gate, merge codegen with Δ evaluation, printing, and the
//! function store (ingest, recovery, compaction). The replay observes;
//! its merged bodies are never committed. Pipeline, daemon and
//! interpreter counters come from the workloads themselves.

use crate::measure::{median, Metrics};
use crate::trace::{SpanId, Tracer};
use fmsa::core::fingerprint::Fingerprint;
use fmsa::core::merge::{align, merge_pair_aligned};
use fmsa::core::profitability::{evaluate, optimistic_delta};
use fmsa::core::search::MinHasher;
use fmsa::core::{linearize, LshConfig, LshSearch};
use fmsa::ir::{FuncId, Module};
use fmsa::target::CostModel;
use fmsa::{Config, FunctionStore};
use std::collections::HashMap;
use std::path::Path;

/// Repetitions of each cheap layer call; the median is reported.
const REPS: usize = 3;

/// One input of the replay.
pub struct Input<'a> {
    /// The module as the program receives it (wasm bytes).
    pub bytes: &'a [u8],
    /// The program's merged output for it.
    pub output: &'a Module,
    /// Merges the program committed on it.
    pub merges: usize,
}

/// Replays the layers over `inputs` under `cfg` (threshold, scoring,
/// cost model) and records the `wasm.*`, `ir.*`, `search.*`, `align.*`,
/// `delta.*`, `codegen.*` and `store.*` metrics.
pub fn run(
    tracer: &Tracer,
    parent: Option<SpanId>,
    inputs: &[Input],
    cfg: &Config,
    store_dir: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let root = tracer.enter("replay", 0, parent);
    let mut sums: HashMap<&'static str, f64> = HashMap::new();
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_default() += v;
    let (mut shortlisted, mut merges) = (0usize, 0usize);
    let (mut subjects, mut cells, mut matches, mut columns) = (0usize, 0u64, 0usize, 0usize);
    let (mut gate_calls, mut gate_pass, mut bodies, mut profitable) = (0usize, 0, 0usize, 0usize);
    let cm = CostModel::new(cfg.arch);
    for (op, input) in inputs.iter().enumerate() {
        let op = op as u64;
        let id = root.id();
        let reps = |name: &'static str, f: &mut dyn FnMut()| {
            let times: Vec<f64> = (0..REPS).map(|_| tracer.time(name, op, id, &mut *f).1).collect();
            median(&times)
        };

        let mut decoded = None;
        add(
            "wasm.decode_s",
            reps("wasm.decode", &mut || decoded = Some(fmsa::wasm::parse_wasm(input.bytes))),
        );
        let wasm = decoded.expect("ran").map_err(|e| format!("replay decode: {e}"))?;
        let mut lowered = None;
        add(
            "wasm.lower_s",
            reps("wasm.lower", &mut || lowered = Some(fmsa::wasm::lower_module(&wasm, "replay"))),
        );
        let module = lowered.expect("ran").map_err(|e| format!("replay lower: {e}"))?;
        let mut errors = 0;
        add(
            "ir.verify_s",
            reps("ir.verify", &mut || errors = fmsa::ir::verify_module(&module).len()),
        );
        if errors > 0 {
            return Err(format!("replay: lowered module has {errors} verifier errors"));
        }
        let mut printed = 0;
        add(
            "ir.print_s",
            reps("ir.print", &mut || printed = fmsa::ir::printer::print_module(input.output).len()),
        );
        add("ir.output_bytes", printed as f64);

        let funcs: Vec<FuncId> =
            module.func_ids().into_iter().filter(|&f| !module.func(f).is_declaration()).collect();
        let mut fps: Vec<Fingerprint> = Vec::new();
        add(
            "search.fingerprint_s",
            reps("search.fingerprint", &mut || {
                fps = funcs.iter().map(|&f| Fingerprint::of(&module, f)).collect()
            }),
        );
        let lsh_cfg = LshConfig::default();
        let hasher = MinHasher::new(lsh_cfg.hashes, lsh_cfg.occurrence_cap);
        let mut sigs: Vec<Vec<u64>> = Vec::new();
        add(
            "search.minhash_s",
            reps("search.minhash", &mut || {
                sigs = fps.iter().map(|fp| hasher.signature(fp)).collect()
            }),
        );
        let mut lsh = LshSearch::new(lsh_cfg);
        add(
            "search.lsh_insert_s",
            reps("search.lsh_insert", &mut || {
                lsh = LshSearch::new(lsh_cfg);
                for (&f, sig) in funcs.iter().zip(&sigs) {
                    lsh.insert_signature(f, sig.clone());
                }
            }),
        );
        let mut lists: Vec<Vec<FuncId>> = Vec::new();
        add(
            "search.lsh_query_s",
            reps("search.lsh_query", &mut || {
                lists = funcs.iter().map(|&f| lsh.shortlist(f)).collect()
            }),
        );
        shortlisted += lists.iter().map(Vec::len).sum::<usize>();
        merges += input.merges;
        subjects += funcs.len();

        // Alignment, the Δ gate and codegen over each subject's top
        // `threshold` shortlisted candidates by fingerprint similarity.
        let index: HashMap<FuncId, usize> =
            funcs.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        let seqs: Vec<_> = funcs.iter().map(|&f| linearize(module.func(f))).collect();
        let mut work = module.clone();
        for (si, list) in lists.iter().enumerate() {
            let mut ranked: Vec<(f64, usize)> = list
                .iter()
                .map(|c| index[c])
                .map(|ci| (fps[si].similarity(&fps[ci]), ci))
                .collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for &(_, ci) in ranked.iter().take(cfg.threshold) {
                let (f1, f2) = (funcs[si], funcs[ci]);
                let (s1, s2) = (&seqs[si], &seqs[ci]);
                let (alignment, t) = tracer
                    .time("align", op, id, || align(&work, f1, f2, s1, s2, &cfg.merge.scoring));
                add("align.s", t);
                cells += (s1.len() * s2.len()) as u64;
                matches += alignment.match_count();
                columns += alignment.len();
                let (bound, _) = tracer.time("delta.gate", op, id, || {
                    optimistic_delta(&work, &cm, f1, f2, s1, s2, &alignment)
                });
                gate_calls += 1;
                if bound <= 0 {
                    continue;
                }
                gate_pass += 1;
                let (merged, t) = tracer.time("codegen", op, id, || {
                    merge_pair_aligned(
                        &mut work,
                        f1,
                        f2,
                        s1.clone(),
                        s2.clone(),
                        alignment,
                        &cfg.merge,
                    )
                });
                add("codegen.s", t);
                let Ok(info) = merged else { continue };
                bodies += 1;
                let (report, _) =
                    tracer.time("delta.evaluate", op, id, || evaluate(&work, &cm, &info));
                profitable += report.is_profitable() as usize;
                work.remove_function(info.merged);
            }
        }
    }

    // The function store: ingest every input into a fresh log, then
    // recover it and compact it.
    let _ = std::fs::remove_dir_all(store_dir);
    let store_err = |e: fmsa::Error| format!("replay store: {e}");
    let mut store = FunctionStore::open(store_dir).map_err(store_err)?;
    for (op, input) in inputs.iter().enumerate() {
        let module = fmsa::load_module_bytes(input.bytes, "replay").map_err(store_err)?;
        let (r, t) =
            tracer.time("store.ingest", op as u64, root.id(), || store.ingest_module(&module));
        r.map_err(store_err)?;
        add("store.ingest_s", t);
    }
    add("store.append_bytes", store.total_bytes() as f64);
    drop(store);
    let (opened, t) = tracer.time("store.recover", 0, root.id(), || FunctionStore::open(store_dir));
    let mut store = opened.map_err(store_err)?;
    add("store.recover_s", t);
    let (r, t) = tracer.time("store.compact", 0, root.id(), || store.compact());
    r.map_err(store_err)?;
    add("store.compact_s", t);
    drop(store);
    let _ = std::fs::remove_dir_all(store_dir);
    drop(root);

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.extend(sums);
    out.insert("search.shortlist_mean", ratio(shortlisted as f64, subjects as f64));
    out.insert("search.useful_ratio", ratio(merges as f64, shortlisted as f64));
    out.insert("align.calls", gate_calls as f64);
    out.insert("align.cells", cells as f64);
    out.insert("align.match_ratio", ratio(matches as f64, columns as f64));
    out.insert("delta.gate_calls", gate_calls as f64);
    out.insert("delta.gate_pass_ratio", ratio(gate_pass as f64, gate_calls as f64));
    out.insert("delta.profitable_ratio", ratio(profitable as f64, bodies as f64));
    out.insert("codegen.bodies", bodies as f64);
    for k in ["align.s", "codegen.s"] {
        out.entry(k).or_insert(0.0);
    }
    Ok(())
}

/// Records the `pipeline.*` and `thunks.*` metrics from the
/// [`fmsa::core::pipeline::PipelineStats`] a run returned: times are
/// medians over `runs`, counts come from the last run (they repeat
/// exactly for identical inputs).
pub fn pipeline_metrics(runs: &[fmsa::core::pipeline::PipelineStats], out: &mut Metrics) {
    let med = |f: &dyn Fn(&fmsa::core::pipeline::PipelineStats) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    out.insert("pipeline.schedule_s", med(&|p| p.schedule.as_secs_f64()));
    out.insert("pipeline.prepare_s", med(&|p| p.prepare.as_secs_f64()));
    out.insert("pipeline.prepare_cpu_s", med(&|p| p.prepare_cpu.as_secs_f64()));
    out.insert("pipeline.commit_s", med(&|p| p.commit.as_secs_f64()));
    out.insert("thunks.transplant_s", med(&|p| p.transplant.as_secs_f64()));
    out.insert("thunks.rewrite_s", med(&|p| p.rewrite.as_secs_f64()));
    let last = runs.last().copied().unwrap_or_default();
    out.insert("pipeline.commit_barriers", last.commit_barriers as f64);
    out.insert("pipeline.spec_built", last.spec_built as f64);
    out.insert("pipeline.spec_committed", last.spec_committed as f64);
    let useful =
        if last.spec_built > 0 { last.spec_committed as f64 / last.spec_built as f64 } else { 0.0 };
    out.insert("pipeline.spec_useful_ratio", useful);
}
