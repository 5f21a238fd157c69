//! Spans recorded by the benchmark around each call into a layer, kept
//! in memory, written out at exit, and folded into self times.
//!
//! A span is either on the benchmark thread's timeline (`sync`: it
//! nests strictly inside its parent, and its time is part of the
//! parent's) or a record of work another thread did for a request
//! (`async`: a job's queue wait or execution, placed by the times the
//! program reports). A span's self time is its duration minus the
//! durations of its sync children. Coverage is the share of the window
//! root that sync spans account for.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: u64,
    pub sync: bool,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open or recorded span; inert when tracing is off.
#[derive(Copy, Clone, Debug)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Seconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Open a sync span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str, req: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.at(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            req,
            sync: true,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.at(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = now;
    }

    /// Run `f` inside a sync span.
    pub fn time<T>(&mut self, name: &str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name, req);
        let out = f(self);
        self.end(id);
        out
    }

    /// Record a span whose interval is known after the fact: a program
    /// stage inside a traced call (`sync`), or work a program thread did
    /// for a request (`async`).
    pub fn record(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: SpanId,
        req: u64,
        sync: bool,
    ) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: end.max(start),
            parent: parent.0,
            req,
            sync,
        });
        SpanId(Some(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> crate::stats::Samples {
        let mut s = crate::stats::Samples::new();
        for sp in self.spans.iter().filter(|sp| sp.name == name) {
            s.push(sp.dur());
        }
        s
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"req\":{},\"sync\":{}}}",
                s.name, s.start, s.end, s.req, s.sync
            )?;
        }
        w.flush()
    }
}

/// One row of the folded per-layer table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    pub spans: usize,
    pub total_s: f64,
    pub self_s: f64,
    pub sync: bool,
}

/// Self time of every span: its duration minus its sync children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans.iter().filter(|s| s.sync) {
        if let Some(p) = s.parent {
            own[p] -= s.dur();
        }
    }
    own
}

/// Fold spans by name. Returns the table and the coverage: sync self
/// time outside the roots over the roots' duration (1.0 when every
/// moment of the window is inside some layer span).
pub fn fold(spans: &[Span]) -> (BTreeMap<String, Layer>, f64) {
    let own = self_times(spans);
    let mut table: BTreeMap<String, Layer> = BTreeMap::new();
    let mut root_s = 0.0;
    let mut covered_s = 0.0;
    for (s, own) in spans.iter().zip(own) {
        let row = table.entry(s.name.clone()).or_default();
        row.spans += 1;
        row.total_s += s.dur();
        row.self_s += own;
        row.sync = s.sync;
        match (s.sync, s.parent) {
            (true, None) => root_s += s.dur(),
            (true, Some(_)) => covered_s += own,
            _ => {}
        }
    }
    let coverage = if root_s > 0.0 {
        covered_s / root_s
    } else {
        0.0
    };
    (table, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>, sync: bool) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            req: 0,
            sync,
        }
    }

    #[test]
    fn self_time_subtracts_sync_children_only() {
        let spans = vec![
            span("root", 0.0, 10.0, None, true),
            span("join", 1.0, 9.0, Some(0), true),
            span("stage", 1.0, 4.0, Some(1), true),
            span("stage", 4.0, 8.0, Some(1), true),
            span("worker", 2.0, 12.0, Some(0), false),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 1.0, 3.0, 4.0, 10.0]);
        let (table, coverage) = fold(&spans);
        assert_eq!(table["stage"].spans, 2);
        assert_eq!(table["stage"].self_s, 7.0);
        assert_eq!(table["join"].self_s, 1.0);
        assert!(!table["worker"].sync);
        // 8 of the root's 10 seconds are inside layer spans.
        assert!((coverage - 0.8).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1);
        t.record("y", 0.0, 1.0, id, 1, false);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        t.time("outer", 1, |t| {
            t.time("inner", 1, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let (_, coverage) = fold(s);
        assert!(coverage <= 1.0);
    }
}
