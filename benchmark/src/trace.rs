//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the program; nothing inside the program is instrumented. Each span
//! has a name, start, end, parent, and the id of the pass or request it
//! belongs to. Spans stay in memory until the run ends, then
//! [`Tracer::write_jsonl`] writes them out and [`Tracer::summary`] gives
//! each span name's total and self time (duration minus the part of its
//! interval that child spans cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as a parent link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start: f64,
    end: f64,
}

/// Records spans when enabled; when disabled every call is inert.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing happens on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
    started: Instant,
}

impl Guard<'_> {
    /// The span's id, for use as a parent (`None` when tracing is off).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Closes the span and returns its duration in seconds. The same
    /// clock reading ends the span, so a metric taken from the return
    /// value agrees with the trace.
    pub fn close(self) -> f64 {
        let end = Instant::now();
        if let Some(SpanId(i)) = self.id {
            let mut spans = self.tracer.spans.lock().expect("span buffer poisoned");
            spans[i].end = end.duration_since(self.tracer.origin).as_secs_f64();
        }
        let d = end.duration_since(self.started).as_secs_f64();
        std::mem::forget(self);
        d
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(SpanId(i)) = self.id {
            let end = self.tracer.origin.elapsed().as_secs_f64();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[i].end = end;
            }
        }
    }
}

/// Per-name aggregate of a finished trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus covered child time), seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens span `name` for operation `op` under `parent`.
    pub fn enter(&self, name: &'static str, op: u64, parent: Option<SpanId>) -> Guard<'_> {
        let started = Instant::now();
        let id = self.on.then(|| {
            let start = started.duration_since(self.origin).as_secs_f64();
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans.push(Span { name, op, parent, start, end: f64::NAN });
            SpanId(spans.len() - 1)
        });
        Guard { tracer: self, id, started }
    }

    /// Runs `f` inside span `name` and returns its result with the
    /// span's duration in seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let guard = self.enter(name, op, parent);
        let out = f();
        (out, guard.close())
    }

    /// Count, total and self time per span name, in order of first
    /// appearance.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(SpanId(p)) = s.parent {
                children[p].push(i);
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = (s.end - s.start).max(0.0);
            let covered = covered_time(
                s.start,
                s.end,
                children[i].iter().map(|&c| (spans[c].start, spans[c].end)),
            );
            let entry = by_name.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                SpanSummary { name: s.name, count: 0, total_s: 0.0, self_s: 0.0 }
            });
            entry.count += 1;
            entry.total_s += dur;
            entry.self_s += (dur - covered).max(0.0);
        }
        order.into_iter().map(|n| by_name[n].clone()).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                s.op,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `children` intervals clipped to `[start, end]`.
fn covered_time(start: f64, end: f64, children: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut iv: Vec<(f64, f64)> =
        children.map(|(a, b)| (a.max(start), b.min(end))).filter(|(a, b)| b > a).collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_merges_overlapping_children() {
        let c =
            covered_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)].into_iter());
        assert!((c - (3.0 + 1.0 + 1.0)).abs() < 1e-12);
        assert_eq!(covered_time(0.0, 1.0, std::iter::empty()), 0.0);
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let t = Tracer::new(true);
        {
            let parent = t.enter("pass", 0, None);
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.time("child", 0, parent.id(), || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        }
        let s = t.summary();
        assert_eq!(s.iter().map(|x| x.name).collect::<Vec<_>>(), ["pass", "child"]);
        let (pass, child) = (&s[0], &s[1]);
        assert!(pass.total_s >= 0.025);
        assert!(pass.self_s < pass.total_s - 0.019, "{pass:?}");
        assert!((child.self_s - child.total_s).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (_, d) = t.time("x", 0, None, || ());
        assert!(d >= 0.0);
        assert!(t.summary().is_empty());
    }
}
