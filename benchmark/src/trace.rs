//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from this package's own files only (the program
//! under test is not instrumented); they are kept in memory and written
//! out once, when the workload ends. With tracing off `span` still times
//! the call — that is how every wall-clock number is taken — but records
//! nothing.

use crate::json::Json;
use crate::wall_clock::WallClock;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: String,
    enabled: bool,
    origin: WallClock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            workload: workload.to_string(),
            enabled,
            origin: WallClock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off (the untraced and the traced
    /// repetitions of one run share a tracer). Spans already open stay
    /// open and still close; only spans entered from now on are affected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` as a child of the innermost open span and returns its
    /// result with its wall time in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = WallClock::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = WallClock::now();
        if let Some(index) = index {
            self.spans[index].end_ns = (end - self.origin).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every recorded span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("workload", Json::str(&self.workload)),
                    ("name", Json::str(&s.name)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns(&self.spans, i) as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children of one span run one after another here, so their
/// durations add without overlap.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::duration_ns)
        .sum();
    spans[index].duration_ns().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("workload", None, 0, 1_000),
            span("calibrate", Some(0), 100, 300),
            span("replay", Some(0), 300, 900),
            span("report_json", Some(2), 800, 900),
        ];
        assert_eq!(self_ns(&spans, 0), 1_000 - 200 - 600);
        assert_eq!(self_ns(&spans, 1), 200);
        // The grandchild counts against `replay`, not against the root.
        assert_eq!(self_ns(&spans, 2), 600 - 100);
        assert_eq!(self_ns(&spans, 3), 100);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new("w", true);
        let ((), outer_s) = t.span("outer", |t| {
            t.span("a", |_| ());
            t.span("b", |t| {
                t.span("c", |_| ());
            });
        });
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(outer_s >= t.total_s("a") + t.total_s("b"));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new("w", false);
        let (value, seconds) = t.span("x", |_| 42);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("y", |_| ());
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn json_carries_name_times_parent_and_workload() {
        let mut t = Tracer::new("tls_closed_serial", true);
        t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        let doc = t.to_json();
        let spans = doc.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        for s in spans {
            assert_eq!(
                s.get("workload").and_then(Json::as_str),
                Some("tls_closed_serial")
            );
            for key in ["name", "start_ns", "end_ns", "self_ns"] {
                assert!(s.get(key).is_some(), "{key}");
            }
        }
    }
}
