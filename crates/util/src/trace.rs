//! A lightweight wall-clock span collector for query tracing.
//!
//! A [`Trace`] records a tree of named spans — phases of query execution
//! (plan, per-atom reachability, sim-table compile, product search, answer
//! construction) — with nanosecond offsets from the trace's start, plus
//! integer attributes (pair counts, candidate counts, …) attached per span.
//! The collector is deliberately dumb: a `Vec` of spans and a stack of open
//! indices, no locking, no global state. The engine only pays for it when a
//! caller hands `BoundPlan::run_rows` (in `ecrpq`) a trace; the untraced
//! path passes `None` and records nothing.
//!
//! [`Trace::to_value`] renders the span tree as JSON for the server's
//! `trace` op — an EXPLAIN ANALYZE-style reply where measured per-phase
//! timings sit next to the planner's estimates.

use crate::json::Value;
use std::time::Instant;

/// One recorded span: a named interval with a parent, nanosecond start
/// offset and duration, and integer attributes.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Phase name (`plan`, `reach:p`, `compile`, `search`, …).
    pub name: String,
    /// Index of the enclosing span in [`Trace::spans`], `None` for roots.
    pub parent: Option<usize>,
    /// Start offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 until the span is ended).
    pub dur_ns: u64,
    /// Integer attributes attached via [`Trace::attr`].
    pub attrs: Vec<(String, u64)>,
}

/// A collector of timed spans forming a tree.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    /// All spans, in creation (start-time) order.
    pub spans: Vec<TraceSpan>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// A new trace whose clock starts now.
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span named `name` under the innermost open span (or as a
    /// root). Returns its index — pass it to [`Trace::end`] / [`Trace::attr`].
    pub fn begin(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        self.spans.push(TraceSpan {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            attrs: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, fixing its duration. Spans opened after it that
    /// are still open are closed too (end is idempotent per index).
    pub fn end(&mut self, idx: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(&top) = self.open.last() {
            if top < idx {
                break;
            }
            self.open.pop();
            let span = &mut self.spans[top];
            if span.dur_ns == 0 {
                span.dur_ns = now.saturating_sub(span.start_ns).max(1);
            }
        }
    }

    /// Attaches an integer attribute to span `idx`.
    pub fn attr(&mut self, idx: usize, key: &str, value: u64) {
        self.spans[idx].attrs.push((key.to_string(), value));
    }

    /// Sum of root-span durations, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns).sum()
    }

    /// Renders the span tree as a JSON array of root spans, each
    /// `{"name","start_us","dur_us","attrs"?,"children"?}`. Offsets and
    /// durations are microseconds with nanosecond precision kept as a
    /// fraction (so sub-microsecond spans stay visible and span sums remain
    /// accurate).
    pub fn to_value(&self) -> Value {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn render(trace: &Trace, children: &[Vec<usize>], idx: usize) -> Value {
            let s = &trace.spans[idx];
            let mut obj = vec![
                ("name".to_string(), Value::str(s.name.clone())),
                ("start_us".to_string(), Value::Num(s.start_ns as f64 / 1000.0)),
                ("dur_us".to_string(), Value::Num(s.dur_ns as f64 / 1000.0)),
            ];
            if !s.attrs.is_empty() {
                obj.push((
                    "attrs".to_string(),
                    Value::Obj(s.attrs.iter().map(|(k, v)| (k.clone(), Value::int(*v))).collect()),
                ));
            }
            if !children[idx].is_empty() {
                obj.push((
                    "children".to_string(),
                    Value::Arr(children[idx].iter().map(|&c| render(trace, children, c)).collect()),
                ));
            }
            Value::Obj(obj)
        }
        Value::Arr(roots.into_iter().map(|r| render(self, &children, r)).collect())
    }
}

/// Begins a span on an optional trace — the no-trace fast path is a single
/// `match` with no clock read. Pair with [`end_span`].
pub fn begin_span(trace: &mut Option<&mut Trace>, name: &str) -> Option<usize> {
    trace.as_mut().map(|t| t.begin(name))
}

/// Ends a span begun with [`begin_span`].
pub fn end_span(trace: &mut Option<&mut Trace>, idx: Option<usize>) {
    if let (Some(t), Some(i)) = (trace.as_mut(), idx) {
        t.end(i);
    }
}

/// Attaches an attribute to a span begun with [`begin_span`].
pub fn span_attr(trace: &mut Option<&mut Trace>, idx: Option<usize>, key: &str, value: u64) {
    if let (Some(t), Some(i)) = (trace.as_mut(), idx) {
        t.attr(i, key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_are_monotonic() {
        let mut t = Trace::new();
        let root = t.begin("request");
        let a = t.begin("plan");
        t.end(a);
        let b = t.begin("search");
        t.attr(b, "candidates", 7);
        t.end(b);
        t.end(root);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        // Creation order is start-time order.
        for w in t.spans.windows(2) {
            assert!(w[1].start_ns >= w[0].start_ns);
        }
        // Children fit inside the parent.
        for s in &t.spans[1..] {
            let p = &t.spans[s.parent.unwrap()];
            assert!(s.start_ns >= p.start_ns);
            assert!(s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns);
        }
        assert!(t.spans.iter().all(|s| s.dur_ns > 0));
    }

    #[test]
    fn end_closes_dangling_children() {
        let mut t = Trace::new();
        let root = t.begin("request");
        let _child = t.begin("inner");
        t.end(root); // never explicitly ended `inner`
        assert!(t.spans.iter().all(|s| s.dur_ns > 0));
    }

    #[test]
    fn to_value_renders_tree() {
        let mut t = Trace::new();
        let root = t.begin("request");
        let a = t.begin("plan");
        t.attr(a, "atoms", 2);
        t.end(a);
        t.end(root);
        let v = t.to_value();
        let roots = v.as_arr().unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].get("name").and_then(Value::as_str), Some("request"));
        let kids = roots[0].get("children").and_then(Value::as_arr).unwrap();
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].get("name").and_then(Value::as_str), Some("plan"));
        assert_eq!(
            kids[0].get("attrs").and_then(|a| a.get("atoms")).and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn optional_helpers_are_noops_without_trace() {
        let mut none: Option<&mut Trace> = None;
        let idx = begin_span(&mut none, "x");
        assert_eq!(idx, None);
        span_attr(&mut none, idx, "k", 1);
        end_span(&mut none, idx);
    }
}
