//! Flight recorder: dependency-free tracing, metrics, and merge
//! decision logging for the whole stack.
//!
//! Three instruments, one principle — *telemetry observes, never
//! decides*. Nothing in this module influences scheduling, merge
//! order, or codegen, so output stays bit-identical with telemetry on
//! or off, at any thread count.
//!
//! - [`trace`] — hierarchical spans (pass → generation → stage →
//!   merge attempt; daemon: connection → request) recorded into
//!   per-thread sharded buffers behind a single `AtomicBool`, exported
//!   as Chrome trace-event JSON viewable in Perfetto
//!   (`fmsa_opt --trace-out trace.json`).
//! - [`metrics`] — a named registry of counters, gauges, and
//!   log-bucketed histograms with one snapshot API rendered as
//!   Prometheus text exposition (`GET /metrics` on `fmsa-serve`).
//! - [`decisions`] — a bounded structured record per merge attempt
//!   (pair names, similarity, alignment score, Δ, outcome), dumpable
//!   as JSON lines (`--explain-merges`) and queryable on the daemon
//!   (`GET /v1/merges/recent`).
//!
//! See `docs/observability.md` for the span model, metric names, and
//! the decision-log schema.

pub mod decisions;
pub mod metrics;
pub mod trace;

pub use decisions::{DecisionLog, DecisionOutcome, DecisionRecord};
pub use metrics::{Registry, Snapshot};
pub use trace::{span, SpanGuard, TraceEvent};

/// Escapes a string for embedding in a JSON string literal.
///
/// Shared by the trace exporter, the decision log, and callers that
/// hand-render JSON without a serializer dependency.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` the way our JSON emitters expect: finite numbers
/// round-trip, non-finite values degrade to `0` (JSON has no NaN).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Integral value: print without a fractional tail so JSON
            // output is stable across platforms.
            format!("{:.1}", v)
        } else {
            format!("{}", v)
        }
    } else {
        "0".to_string()
    }
}
