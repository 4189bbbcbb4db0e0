//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! a name, start and end (nanoseconds since the tracer's origin), the span
//! that caused it, and the request id shared by the spans of one request.
//! They are kept in memory and written out as JSONL when the run ends.
//! With tracing off, [`Tracer::start`] returns `None` and nothing is
//! recorded.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A started span; hand it back to [`Tracer::finish`].
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span (`None` when tracing is off).
    pub fn start(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> Option<Open> {
        self.enabled.then(|| Open {
            // relaxed-ok: span ids only need uniqueness
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start_ns: self.now_ns(),
        })
    }

    pub fn finish(&self, open: Option<Open>) {
        if let Some(o) = open {
            let end_ns = self.now_ns();
            self.spans
                .lock()
                .expect("span log poisoned by a panicking recorder")
                .push(Span {
                    id: o.id,
                    parent: o.parent,
                    request: o.request,
                    name: o.name,
                    start_ns: o.start_ns,
                    end_ns,
                });
        }
    }

    /// Runs `f` inside a span; `f` receives the span id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        let open = self.start(name, parent, None);
        let id = open.as_ref().map(|o| o.id);
        let out = f(id);
        self.finish(open);
        out
    }

    /// Every recorded span, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Per-span self time: its duration minus the part of it that its child
/// spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Summed (duration, self time) in seconds per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns() as f64 * 1e-9;
        e.1 += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect()
}

/// Writes the spans as JSONL, one span per line with its self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.id,
            opt(s.parent),
            opt(s.request),
            s.name,
            s.start_ns,
            s.end_ns,
            selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: None,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(2), 10, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
