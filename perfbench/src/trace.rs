//! In-memory span recorder for the traced replays.
//!
//! A span has a name, a start and end (ns since the tracer was created),
//! a parent span and a request id (a statement's sequence number or a
//! round number). Spans are grouped by request: when a request ends, each
//! of its spans' self time ([`crate::stats::self_time`]) is folded into a
//! per-name aggregate, and the spans of the first requests of each kind
//! are kept for the trace file written at the end. A disabled tracer records nothing
//! and only runs the closures, which is how the untraced replay that
//! measures tracing overhead runs.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span within the same request.
    pub parent: Option<u32>,
    pub request: u64,
}

/// Totals of one span name over the whole replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

/// Requests of each root name whose spans are kept for the trace file.
const KEPT_PER_ROOT: usize = 1_000;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    request: u64,
    open: Vec<u32>,
    current: Vec<Span>,
    /// Reused buffer of one span's child intervals.
    children: Vec<(u64, u64)>,
    /// Per-name totals; a short list searched by name pointer first, which
    /// keeps the fold cheap next to the spans it measures.
    agg: Vec<(&'static str, SpanAgg)>,
    kept: Vec<Span>,
    kept_per_root: BTreeMap<&'static str, usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            request: 0,
            open: Vec::new(),
            current: Vec::new(),
            children: Vec::new(),
            agg: Vec::new(),
            kept: Vec::new(),
            kept_per_root: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a request: every span until [`Tracer::end_request`] carries
    /// `id`. The request's root span is named `root`.
    pub fn begin_request(&mut self, root: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        debug_assert!(self.open.is_empty(), "request already open");
        self.request = id;
        self.open_span(root);
    }

    fn open_span(&mut self, name: &'static str) {
        let idx = self.current.len() as u32;
        self.current.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
    }

    fn close_span(&mut self) {
        let idx = self.open.pop().expect("span open") as usize;
        self.current[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.open_span(name);
        let r = f(self);
        self.close_span();
        r
    }

    /// Record a child span of the innermost open span whose interval is
    /// known only from a duration the callee reported (a phase timed
    /// inside the program), placed `offset` after that parent's start.
    pub fn reported_child(&mut self, name: &'static str, offset: Duration, duration: Duration) {
        if !self.enabled {
            return;
        }
        let parent = *self
            .open
            .last()
            .expect("reported child needs an open parent");
        let start_ns = self.current[parent as usize].start_ns + offset.as_nanos() as u64;
        self.current.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: Some(parent),
            request: self.request,
        });
    }

    /// Close the request's root span and fold its spans into the
    /// aggregates.
    pub fn end_request(&mut self) {
        if !self.enabled {
            return;
        }
        self.close_span();
        debug_assert!(self.open.is_empty(), "unbalanced spans");
        let spans = std::mem::take(&mut self.current);
        let mut children = std::mem::take(&mut self.children);
        for (i, s) in spans.iter().enumerate() {
            children.clear();
            children.extend(
                spans
                    .iter()
                    .filter(|c| c.parent == Some(i as u32))
                    .map(|c| (c.start_ns, c.end_ns)),
            );
            let a = self.agg_mut(s.name);
            a.calls += 1;
            a.self_ns += self_time(s.start_ns, s.end_ns, &children);
            a.total_ns += s.end_ns - s.start_ns;
        }
        let kept = self.kept_per_root.entry(spans[0].name).or_default();
        if *kept < KEPT_PER_ROOT {
            *kept += 1;
            self.kept.extend_from_slice(&spans);
        }
        self.children = children;
        self.current = spans;
        self.current.clear();
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut SpanAgg {
        let i = match self.agg.iter().position(|(k, _)| std::ptr::eq(*k, name)) {
            Some(i) => i,
            None => match self.agg.iter().position(|(k, _)| *k == name) {
                Some(i) => i,
                None => {
                    self.agg.push((name, SpanAgg::default()));
                    self.agg.len() - 1
                }
            },
        };
        &mut self.agg[i].1
    }

    /// Aggregate of one span name, summed over every entry with that name
    /// (zero when it never ran).
    pub fn agg(&self, name: &str) -> SpanAgg {
        self.agg
            .iter()
            .filter(|(k, _)| *k == name)
            .fold(SpanAgg::default(), |acc, (_, a)| SpanAgg {
                calls: acc.calls + a.calls,
                self_ns: acc.self_ns + a.self_ns,
                total_ns: acc.total_ns + a.total_ns,
            })
    }

    /// Self time summed over every span whose name does not start with
    /// `root_prefix` (the request roots), ns.
    pub fn layer_self_ns(&self, root_prefix: &str) -> u64 {
        self.agg
            .iter()
            .filter(|(k, _)| !k.starts_with(root_prefix))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// Write the kept spans as JSON lines: one object per span with
    /// `name`, `request`, `start_ns`, `end_ns` and `parent` (index of the
    /// parent within the same request, or null).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}
