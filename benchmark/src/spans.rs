//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer (crate) of the product.
//!
//! A span is a name, a label (the kernel it worked on), a start and an
//! end in nanoseconds since the tracer was created, the span that caused
//! it, and the pass it belongs to. Spans are kept in memory and written
//! to `benchmark/out/<workload>.spans.jsonl` once the run has been timed.
//! With the tracer off, [`Tracer::time`] calls straight through without
//! reading a clock, which is how the untraced run stays untraced.

use minpsid_trace::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a top-level span.
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Nanoseconds since the tracer was created: the clock spans are on.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, label: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// A leaf span around one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, label: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name, label);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span; a span's `id` is its line index and
    /// `parent` is the `id` of the span that caused it (`null` at top level).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = Json::obj();
            o.set("id", Json::U64(id as u64));
            o.set("name", Json::Str(s.name.into()));
            o.set("label", Json::Str(s.label.into()));
            o.set("start_ns", Json::U64(s.start_ns));
            o.set("end_ns", Json::U64(s.end_ns));
            o.set(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
            );
            o.set("pass", Json::U64(u64::from(s.pass)));
            writeln!(out, "{}", o.render())?;
        }
        out.flush()
    }
}

/// Per-span self time: its duration minus the part of that interval its
/// direct children cover. The benchmark is single-threaded, so siblings
/// never overlap and the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total seconds and call count per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns() as f64 / 1e9;
        e.1 += 1;
    }
    out
}

/// Self seconds per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

/// Share of `[from_ns, to_ns]` covered by top-level spans.
pub fn coverage(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.start_ns >= from_ns && s.end_ns <= to_ns)
        .map(Span::duration_ns)
        .sum();
    covered as f64 / (to_ns - from_ns).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            label: "",
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root [0,100] with adjacent children a [10,30] and b [30,70];
        // b has a nested child c [40,50]
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
        // self times partition the root's duration
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn grandchildren_are_charged_to_their_parent_only() {
        let spans = vec![
            span("root", 0, 10, None),
            span("mid", 0, 10, Some(0)),
            span("leaf", 2, 9, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 3, 7]);
    }

    #[test]
    fn coverage_counts_top_level_spans_inside_the_window() {
        let spans = vec![
            span("before", 0, 10, None),
            span("x", 10, 50, None),
            span("inner", 20, 30, Some(1)),
            span("y", 60, 100, None),
        ];
        assert!((coverage(&spans, 10, 110) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        t.enter("outer", "k");
        let v = t.time("inner", "k", || 7);
        t.exit();
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].pass), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        off.enter("outer", "");
        assert_eq!(off.time("inner", "", || 1), 1);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("a", 0, 1_000_000_000, None),
            span("a", 0, 500_000_000, None),
            span("b", 0, 250_000_000, Some(0)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["a"], (1.5, 2));
        assert_eq!(t["b"], (0.25, 1));
        assert_eq!(self_by_name(&spans)["a"], 1.25);
    }
}
