//! Sample statistics, process clocks, and the metric catalogue.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from an untraced run:
/// `(name, unit)`. Each workload has one unit operation (a merge pass, a
/// daemon request, a differential round); the `op_*` metrics describe it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("op_cpu_ms", "ms"),
    ("work_per_s", "1/s"),
    ("size_reduction_pct", "%"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload from a traced run. Layers
/// are named after the repository's modules.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wasm.decode_s", "s"),
    ("wasm.lower_s", "s"),
    ("ir.verify_s", "s"),
    ("ir.print_s", "s"),
    ("ir.output_bytes", "bytes"),
    ("search.fingerprint_s", "s"),
    ("search.minhash_s", "s"),
    ("search.lsh_insert_s", "s"),
    ("search.lsh_query_s", "s"),
    ("search.shortlist_mean", "count"),
    ("search.useful_ratio", "ratio"),
    ("align.calls", "count"),
    ("align.s", "s"),
    ("align.cells", "count"),
    ("align.match_ratio", "ratio"),
    ("delta.gate_calls", "count"),
    ("delta.gate_pass_ratio", "ratio"),
    ("delta.profitable_ratio", "ratio"),
    ("codegen.bodies", "count"),
    ("codegen.s", "s"),
    ("pipeline.schedule_s", "s"),
    ("pipeline.prepare_s", "s"),
    ("pipeline.prepare_cpu_s", "s"),
    ("pipeline.commit_s", "s"),
    ("pipeline.commit_barriers", "count"),
    ("pipeline.spec_built", "count"),
    ("pipeline.spec_committed", "count"),
    ("pipeline.spec_useful_ratio", "ratio"),
    ("thunks.transplant_s", "s"),
    ("thunks.rewrite_s", "s"),
    ("store.ingest_s", "s"),
    ("store.append_bytes", "bytes"),
    ("store.recover_s", "s"),
    ("store.compact_s", "s"),
    ("serve.merge_ms", "ms"),
    ("serve.outside_merge_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("interp.pairs", "count"),
    ("interp.batch_s", "s"),
    ("interp.paths_covered", "count"),
];

/// Metric values keyed by name; the unit comes from the catalogue.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Whether `name` is a legal metric name: non-empty, made only of ASCII
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Median with the midpoint rule for even counts (as Python's
/// `statistics.median`). Empty input gives 0.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Percentiles the tail rule considers, highest first.
const TAIL_PERCENTILES: &[f64] = &[99.9, 99.0, 90.0];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The tail a sample set supports: the highest of p99.9, p99 and p90
/// with at least ten samples beyond it (nearest-rank), or the median
/// when no tail percentile qualifies. Returns `(percentile, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for &p in TAIL_PERCENTILES {
        // The epsilon keeps 0.999 * 10_000 from rounding up to rank 9 991.
        let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_MIN_BEYOND {
            return (p, s[rank - 1]);
        }
    }
    (50.0, median(samples))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // the clock id is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 — derives every input seed of a run from `--seed`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "bad metric name {name:?}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
        }
        assert!(!valid_metric_name("op p50"));
        assert!(!valid_metric_name("latency{le}"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let names: Vec<&str> =
                body.split("\"name\": \"").skip(1).map(|s| &s[..s.find('"').unwrap()]).collect();
            let expected: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected, "{section} in BENCHMARK.json differs from the catalogue");
        }
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|k| k as f64).collect::<Vec<_>>();
        // Fewer than 20 samples: no percentile above the median qualifies.
        assert_eq!(tail(&ramp(6)), (50.0, 3.5));
        // 99 samples: p90 has 9 beyond it, so only the median remains.
        assert_eq!(tail(&ramp(99)).0, 50.0);
        // 100 samples: p90 (rank 90) has exactly 10 beyond it.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // 1 000 samples: p99 (rank 990) has 10 beyond; p99.9 has 1.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(10_000)), (99.9, 9990.0));
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), (90.0, 90.0));
    }

    #[test]
    fn median_matches_the_midpoint_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_cpu_clock_advances() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for k in 0..5_000_000u64 {
            x = x.wrapping_add(splitmix(k));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > a);
    }
}
