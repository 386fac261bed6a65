//! `serve-mixed`: the daemon as build systems use it.
//!
//! An in-process `fmsa-serve` over a persistent store (fsync per ingest)
//! is driven by 2 closed-loop clients over loopback — callers wait for
//! each reply. Each client sends a fixed number of requests (3 per second
//! of `--seconds`, which the 2-core host completes in a little under
//! `--seconds`), so every run of a seed sends the same uploads and the
//! store grows by the same amount. The uploads are a seeded stream of
//! 96-function wasm corpora; every third upload of a client is a
//! byte-identical re-upload of one of its recent corpora (picked by the
//! seed), which the response cache serves. A fixed rather than random
//! re-upload share keeps the hit/miss mix the same in every run. This is
//! the only workload on HTTP, store append/fsync, the response cache, the
//! session mutex, and the daemon's default driver (sequential
//! `run_fmsa`, exact search below the `Auto` crossover).
//!
//! The unit operation behind `op_*` is a merge request (an upload the
//! cache does not serve); failed requests count as merge requests that
//! missed every limit. The median over all requests is printed too, but
//! it sits between the cache-hit mode (about one merge of queueing) and
//! the miss mode (about two) and jumps between them from run to run, so
//! it is not the gated figure.
//!
//! Correctness: every response is a 200 whose body is byte-identical to
//! `optimize` + print on the same bytes (computed untimed), and every
//! re-upload equals its first upload.

use crate::measure::{median, peak_rss_mib, process_cpu_s, splitmix, tail, Metrics};
use crate::trace::Tracer;
use crate::{replay, Opts, Outcome, THREADS};
use fmsa::core::pipeline::PipelineStats;
use fmsa::ir::Module;
use fmsa::workloads::{wasm_fixture_bytes, WasmFixtureConfig};
use fmsa::{Config, ContentHash, FunctionStore};
use fmsa_serve::{client, RunningServer, Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Functions per uploaded corpus.
pub const FUNCTIONS: usize = 96;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Every this-many-th upload of a client re-sends one of its recent
/// corpora.
const REUPLOAD_EVERY: usize = 3;
/// A re-upload picks among the client's this-many latest corpora, so
/// that across both clients it stays well inside the daemon's
/// 32-entry response cache.
const RECENT: usize = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Requests per client per second of `--seconds`.
const REQUESTS_PER_SECOND: f64 = 3.0;
/// Distinct corpora the traced run replays layer by layer.
const REPLAY_INPUTS: usize = 4;
/// `GET /healthz` round trips timed by a traced run.
const RTT_PROBES: usize = 20;

/// Corpus `k` of client `c`'s stream.
pub fn corpus(seed: u64, c: usize, k: usize) -> Vec<u8> {
    wasm_fixture_bytes(&WasmFixtureConfig {
        functions: FUNCTIONS,
        seed: splitmix(seed ^ ((c as u64) << 48) ^ (k as u64).wrapping_mul(0x9e37_79b9)),
        ..WasmFixtureConfig::default()
    })
}

/// One request as the client saw it.
struct Req {
    client: usize,
    corpus: usize,
    reupload: bool,
    latency: f64,
    status: u16,
    cache_hit: bool,
    merge_s: f64,
    size_before: u64,
    size_after: u64,
    /// Digest of a 200 response's body.
    digest: Option<ContentHash>,
}

/// Checks one response against the reference output, both by digest
/// (responses are not kept whole, to keep the run's memory small).
pub fn check_response(
    status: u16,
    body: Option<ContentHash>,
    reference: ContentHash,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    if body != Some(reference) {
        return Err("body is not byte-identical to optimize + print".to_owned());
    }
    Ok(())
}

/// Merged output of `bytes` under `cfg`, as batch `optimize` + print
/// gives it: the module, its printed text and the merge count.
pub fn reference(bytes: &[u8], cfg: &Config) -> Result<(Module, String, usize), String> {
    let mut m = fmsa::load_module_bytes(bytes, "upload").map_err(|e| e.to_string())?;
    let stats = fmsa::optimize(&mut m, cfg).map_err(|e| e.to_string())?;
    let text = fmsa::ir::printer::print_module(&m);
    Ok((m, text, stats.merges))
}

/// A reference output reduced to what the check keeps: the digest of
/// its text, its merge count, and the module itself when `keep`.
type Reference = Result<(ContentHash, usize, Option<Module>), String>;

fn header_u64(r: &client::Response, name: &str) -> u64 {
    r.header(name).and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn boot(store_dir: Option<std::path::PathBuf>, merge: Config) -> std::io::Result<RunningServer> {
    let cfg = ServerConfig { store_dir, merge, ..ServerConfig::default() };
    Server::bind(cfg).and_then(Server::spawn)
}

/// Requests each client sends in a run of `seconds`.
fn requests_per_client(seconds: f64) -> usize {
    (seconds * REQUESTS_PER_SECOND).ceil() as usize
}

/// The client streams: `pools[c][k]` is fresh corpus `k` of client `c`.
fn pools(seed: u64, seconds: f64) -> Vec<Vec<Vec<u8>>> {
    let requests = requests_per_client(seconds);
    let fresh = requests - requests / REUPLOAD_EVERY;
    (0..CLIENTS).map(|c| (0..fresh).map(|k| corpus(seed, c, k)).collect()).collect()
}

/// One closed-loop client: sends its requests one after another, waiting
/// for each reply before the next.
fn client_loop(
    c: usize,
    addr: SocketAddr,
    opts: &Opts,
    pool: &[Vec<u8>],
    tracer: &Tracer,
    ids: &AtomicU64,
) -> Vec<Req> {
    let mut reqs = Vec::new();
    let mut rng = splitmix(opts.seed ^ 0xc11e_0000 ^ c as u64);
    let mut sent: Vec<usize> = Vec::new();
    for _ in 0..requests_per_client(opts.seconds) {
        let reupload = reqs.len() % REUPLOAD_EVERY == REUPLOAD_EVERY - 1;
        let k = if reupload {
            rng = splitmix(rng);
            sent[sent.len() - 1 - (rng as usize % sent.len().min(RECENT))]
        } else {
            let k = sent.len();
            sent.push(k);
            k
        };
        let body = &pool[k];
        let op = ids.fetch_add(1, Ordering::Relaxed);
        let span = tracer.enter("request", op, None);
        let t0 = Instant::now();
        let resp = client::post(addr, "/v1/modules", body);
        let latency = t0.elapsed().as_secs_f64();
        drop(span);
        let mut req = Req {
            client: c,
            corpus: k,
            reupload,
            latency,
            status: 0,
            cache_hit: false,
            merge_s: 0.0,
            size_before: 0,
            size_after: 0,
            digest: None,
        };
        if let Ok(r) = resp {
            req.status = r.status;
            req.cache_hit = r.header("x-fmsa-cache") == Some("hit");
            req.merge_s = header_u64(&r, "x-fmsa-wall-micros") as f64 * 1e-6;
            req.size_before = header_u64(&r, "x-fmsa-size-before");
            req.size_after = header_u64(&r, "x-fmsa-size-after");
            req.digest = (r.status == 200).then(|| ContentHash::of_bytes(&r.body));
        }
        reqs.push(req);
    }
    reqs
}

/// Latency with failed requests counted as missing any limit.
fn charged(r: &Req) -> f64 {
    if r.status == 200 {
        r.latency
    } else {
        f64::INFINITY
    }
}

pub fn run(opts: &Opts, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let merge_cfg = Config::new();
    let store_dir = opts.run_dir.join("store");

    // Set-up: input generation, daemon boot and store open.
    let mut setup = Vec::new();
    let mut server = None;
    let mut streams = Vec::new();
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&store_dir);
        let t0 = Instant::now();
        streams = pools(opts.seed, opts.seconds);
        match boot(Some(store_dir.clone()), merge_cfg.clone()) {
            Ok(s) => server = Some(s),
            Err(e) => {
                outcome.check(false, || format!("daemon does not boot: {e}"));
                return outcome;
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            server.take().expect("booted").stop();
        }
    }
    let mut server = server.expect("booted");
    let addr = server.addr();

    // The closed loop.
    let ids = AtomicU64::new(0);
    let (c0, started) = (process_cpu_s(), Instant::now());
    let mut reqs: Vec<Req> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, pool)| {
                let ids = &ids;
                s.spawn(move || client_loop(c, addr, opts, pool, tracer, ids))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let (wall, cpu) = (started.elapsed().as_secs_f64(), process_cpu_s() - c0);
    reqs.sort_by_key(|r| (r.client, r.corpus));

    // Daemon-side counters, round trips, shutdown and recovery.
    let mut layer = Metrics::new();
    if tracer.is_on() {
        if let Ok(stats) = client::get(addr, "/v1/stats") {
            layer.insert(
                "store.append_bytes",
                json_number(&stats.text(), "total_bytes").unwrap_or(0.0),
            );
        }
        layer.insert("serve.rtt_ms", rtt_ms(tracer, addr));
    }
    server.stop();
    if tracer.is_on() {
        let (opened, t) = tracer.time("store.recover", 0, None, || FunctionStore::open(&store_dir));
        match opened {
            Ok(mut store) => {
                layer.insert("store.recover_s", t);
                let (r, t) = tracer.time("store.compact", 0, None, || store.compact());
                if let Err(e) = r {
                    outcome.violations.push(format!("compacting the daemon's store: {e}"));
                }
                layer.insert("store.compact_s", t);
            }
            Err(e) => outcome.violations.push(format!("reopening the daemon's store: {e}")),
        }
    }

    // Untimed reference check of every response.
    let mut distinct: Vec<(usize, usize)> = reqs.iter().map(|r| (r.client, r.corpus)).collect();
    distinct.dedup();
    let ref_span = tracer.enter("reference", 0, None);
    let keep = |i: usize| tracer.is_on() && i < REPLAY_INPUTS;
    let refs: BTreeMap<(usize, usize), Reference> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (distinct, streams, merge_cfg) = (&distinct, &streams, &merge_cfg);
                s.spawn(move || {
                    distinct
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(THREADS)
                        .map(|(i, &(c, k))| {
                            let r = reference(&streams[c][k], merge_cfg).map(
                                |(module, text, merges)| {
                                    (
                                        ContentHash::of_bytes(text.as_bytes()),
                                        merges,
                                        keep(i).then_some(module),
                                    )
                                },
                            );
                            ((c, k), r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
    });
    drop(ref_span);
    let mut first_body: BTreeMap<(usize, usize), Option<ContentHash>> = BTreeMap::new();
    for r in reqs.iter().filter(|r| !r.reupload) {
        first_body.insert((r.client, r.corpus), r.digest);
    }
    for r in &reqs {
        let verdict = match &refs[&(r.client, r.corpus)] {
            Err(e) => Err(format!("reference merge failed: {e}")),
            Ok((digest, _, _)) => check_response(r.status, r.digest, *digest),
        };
        let verdict = verdict.and_then(|()| match first_body.get(&(r.client, r.corpus)) {
            Some(first) if r.reupload && *first != r.digest => {
                Err("re-upload differs from its first upload".to_owned())
            }
            _ => Ok(()),
        });
        outcome.check(verdict.is_ok(), || {
            format!("client {} corpus {}: {}", r.client, r.corpus, verdict.unwrap_err())
        });
    }

    let ok: Vec<&Req> = reqs.iter().filter(|r| r.status == 200).collect();
    let latencies: Vec<f64> = reqs.iter().map(charged).collect();
    let hits: Vec<f64> = ok.iter().filter(|r| r.cache_hit).map(|r| r.latency).collect();
    let misses: Vec<&&Req> = ok.iter().filter(|r| !r.cache_hit).collect();
    let miss_lat: Vec<f64> = misses.iter().map(|r| r.latency).collect();
    let merge_s: Vec<f64> = misses.iter().map(|r| r.merge_s).collect();
    let outside: Vec<f64> = misses.iter().map(|r| r.latency - r.merge_s).collect();
    let (before, after) = ok
        .iter()
        .filter(|r| !r.reupload)
        .fold((0, 0), |(b, a), r| (b + r.size_before, a + r.size_after));
    let reduction = fmsa::target::reduction_percent(before, after);
    let shed = reqs.iter().filter(|r| matches!(r.status, 429 | 503)).count();
    let (tail_p, tail_s) = tail(&latencies);
    let p50 = median(&latencies);
    let merge_reqs: Vec<f64> = reqs.iter().filter(|r| !r.cache_hit).map(charged).collect();
    let (op_tail_p, op_tail) = tail(&merge_reqs);
    let op_p50 = median(&merge_reqs);
    let hit_ratio = hits.len() as f64 / ok.len().max(1) as f64;
    let reuploads = reqs.iter().filter(|r| r.reupload).count();
    println!(
        "requests: {} ({} re-uploads, {} cache hits, {} distinct corpora of {FUNCTIONS} functions, {CLIENTS} clients)",
        reqs.len(),
        reuploads,
        hits.len(),
        distinct.len()
    );
    println!("setup_s = {:.4} s (median of {SETUP_REPS})", median(&setup));
    println!("req_per_s = {:.3} 1/s (200 responses over {wall:.3} s)", ok.len() as f64 / wall);
    println!(
        "req_p50_ms = {:.3} ms, req_p{tail_p}_ms = {:.3} ms (n={})",
        p50 * 1e3,
        tail_s * 1e3,
        reqs.len()
    );
    println!(
        "hit_p50_ms = {:.3} ms (n={}), miss_p50_ms = {:.3} ms (n={}), merge_p50_ms = {:.3} ms",
        median(&hits) * 1e3,
        hits.len(),
        median(&miss_lat) * 1e3,
        miss_lat.len(),
        median(&merge_s) * 1e3
    );
    println!(
        "merge requests: p50 = {:.3} ms, p{op_tail_p} = {:.3} ms (n={})",
        op_p50 * 1e3,
        op_tail * 1e3,
        merge_reqs.len()
    );
    println!(
        "size_reduction_pct = {reduction:.4} % ({before} -> {after} bytes over first uploads)"
    );
    println!("cache hit ratio = {hit_ratio:.3}, shed = {shed}");

    if !tracer.is_on() {
        let m = &mut outcome.metrics;
        m.insert("setup_s", median(&setup));
        m.insert("op_p50_ms", (op_p50 * 1e3).min(1e9));
        m.insert("op_tail_ms", (op_tail * 1e3).min(1e9));
        m.insert("op_cpu_ms", cpu * 1e3 / merge_reqs.len().max(1) as f64);
        m.insert("work_per_s", ok.len() as f64 / wall);
        m.insert("size_reduction_pct", reduction);
        m.insert("peak_rss_mib", peak_rss_mib());
        return outcome;
    }

    // Traced run: layer replay over the first few distinct corpora.
    let sample: Vec<(usize, usize)> = distinct.iter().copied().take(REPLAY_INPUTS).collect();
    let sample_bytes: Vec<Vec<u8>> = sample.iter().map(|&(c, k)| streams[c][k].clone()).collect();
    let mut inputs = Vec::new();
    for (key, bytes) in sample.iter().zip(&sample_bytes) {
        if let Ok((_, merges, Some(module))) = &refs[key] {
            inputs.push(replay::Input { bytes, output: module, merges: *merges });
        }
    }
    let m = &mut outcome.metrics;
    if let Err(e) =
        replay::run(tracer, None, &inputs, &merge_cfg, &opts.run_dir.join("replay-store"), m)
    {
        outcome.violations.push(e);
    }
    // The daemon's own store, counters and round trips replace the
    // replay's store figures where they exist.
    m.extend(layer);
    m.insert("serve.merge_ms", median(&merge_s) * 1e3);
    m.insert("serve.outside_merge_ms", median(&outside) * 1e3);
    m.insert("serve.hit_p50_ms", median(&hits) * 1e3);
    m.insert("serve.cache_hit_ratio", hit_ratio);
    m.insert("serve.shed_ratio", shed as f64 / reqs.len().max(1) as f64);

    // The pipeline driver on the same inputs: the daemon itself runs the
    // sequential driver, so these show what the pipeline would do here.
    let pcfg = merge_cfg.clone().parallel(THREADS);
    let mut acc = PipelineStats::default();
    for (op, bytes) in sample_bytes.iter().enumerate() {
        let (r, _) = tracer.time("pipeline.optimize", op as u64, None, || {
            let mut module = fmsa::load_module_bytes(bytes, "upload")?;
            fmsa::optimize(&mut module, &pcfg)
        });
        match r {
            Ok(stats) => acc.accumulate(&stats.pipeline.unwrap_or_default()),
            Err(e) => outcome.violations.push(format!("pipeline replay: {e}")),
        }
    }
    replay::pipeline_metrics(&[acc], &mut outcome.metrics);

    // The interpreter on the same inputs: original vs daemon output.
    let (mut pairs, mut paths, mut batch_s) = (0usize, 0usize, 0.0);
    for (op, input) in inputs.iter().enumerate() {
        let (r, t) = tracer.time("interp.batch", op as u64, None, || {
            crate::wasm_batch::differential(input.bytes, input.output, opts.seed ^ op as u64)
        });
        match r {
            Ok((batch, _, _)) => {
                crate::wasm_batch::check_batch(&mut outcome, &batch, "serve differential");
                pairs += batch.pairs_run;
                paths += batch.paths_covered;
                batch_s += t;
            }
            Err(e) => outcome.violations.push(format!("differential replay: {e}")),
        }
    }
    let m = &mut outcome.metrics;
    m.insert("interp.pairs", pairs as f64);
    m.insert("interp.batch_s", batch_s);
    m.insert("interp.paths_covered", paths as f64);
    outcome
}

/// Median `GET /healthz` round trip, ms.
fn rtt_ms(tracer: &Tracer, addr: SocketAddr) -> f64 {
    let rtts: Vec<f64> = (0..RTT_PROBES)
        .map(|k| {
            tracer.time("serve.healthz", k as u64, None, || client::get(addr, "/healthz")).1 * 1e3
        })
        .collect();
    median(&rtts)
}

/// The first number after `"key":` in a JSON document.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let at = doc.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find(|ch: char| !(ch.is_ascii_digit() || ch == '.')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Daemon round trips on another workload's inputs: boots an in-memory
/// daemon under that workload's merge configuration, uploads each input
/// twice (a merge, then a cache hit) and times `GET /healthz`. Records
/// the `serve.*` metrics.
pub fn replay_daemon(
    tracer: &Tracer,
    inputs: &[&[u8]],
    cfg: &Config,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut server = boot(None, cfg.clone()).map_err(|e| format!("daemon replay: {e}"))?;
    let addr = server.addr();
    let (mut merge, mut outside, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sent, mut cached, mut shed) = (0usize, 0usize, 0usize);
    for (op, bytes) in inputs.iter().enumerate() {
        for _ in 0..2 {
            let (resp, t) = tracer
                .time("request", op as u64, None, || client::post(addr, "/v1/modules", bytes));
            let resp = resp.map_err(|e| format!("daemon replay upload: {e}"))?;
            sent += 1;
            shed += matches!(resp.status, 429 | 503) as usize;
            if resp.status != 200 {
                continue;
            }
            if resp.header("x-fmsa-cache") == Some("hit") {
                cached += 1;
                hits.push(t * 1e3);
            } else {
                let m = header_u64(&resp, "x-fmsa-wall-micros") as f64 * 1e-3;
                merge.push(m);
                outside.push(t * 1e3 - m);
            }
        }
    }
    out.insert("serve.rtt_ms", rtt_ms(tracer, addr));
    server.stop();
    out.insert("serve.merge_ms", median(&merge));
    out.insert("serve.outside_merge_ms", median(&outside));
    out.insert("serve.hit_p50_ms", median(&hits));
    out.insert("serve.cache_hit_ratio", cached as f64 / sent.max(1) as f64);
    out.insert("serve.shed_ratio", shed as f64 / sent.max(1) as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_check_trips_on_corrupted_response() {
        let bytes = corpus(3, 0, 0);
        let (_, text, merges) = reference(&bytes, &Config::new()).unwrap();
        assert!(merges > 0);
        let digest = |b: &[u8]| ContentHash::of_bytes(b);
        let reference = digest(text.as_bytes());
        assert_eq!(check_response(200, Some(digest(text.as_bytes())), reference), Ok(()));
        let mut corrupted = text.clone().into_bytes();
        corrupted.truncate(corrupted.len() - 1);
        assert!(check_response(200, Some(digest(&corrupted)), reference).is_err());
        let last = corrupted.len() - 1;
        corrupted.push(b'\n');
        corrupted[last] ^= 1;
        assert!(check_response(200, Some(digest(&corrupted)), reference).is_err());
        assert!(check_response(503, Some(reference), reference).is_err());
        assert!(check_response(200, None, reference).is_err());
    }

    #[test]
    fn json_number_reads_nested_counters() {
        let doc = r#"{"store":{"functions":3,"total_bytes": 4096,"dead_ratio":0.25}}"#;
        assert_eq!(json_number(doc, "total_bytes"), Some(4096.0));
        assert_eq!(json_number(doc, "dead_ratio"), Some(0.25));
        assert_eq!(json_number(doc, "missing"), None);
    }
}
