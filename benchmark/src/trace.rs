//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out when the run ends. One root span per
//! replayed operation; every span below it carries the root's
//! operation id and the span that caused it. The replay is
//! single-threaded, so one stack is the whole context.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Counts taken at the same boundaries: (operation, name, value).
    counts: Vec<(u64, String, f64)>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn push(&mut self, name: &str, start_us: f64, end_us: f64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name: name.to_string(),
            start_us,
            end_us,
        });
        id
    }

    /// Time `f` as a span under the current one. `f` gets the tracer
    /// back so it can open children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_id(name, f).1
    }

    /// [`Tracer::span`], also returning the closed span's id so that
    /// spans the program measured can be attached below it.
    pub fn span_id<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (usize, T) {
        let start = self.now_us();
        let id = self.push(name, start, start);
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.now_us();
        (id, out)
    }

    /// A root span: a new operation id for it and everything below.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.stack.is_empty(), "an operation is a root span");
        self.op += 1;
        self.span(name, f)
    }

    /// Attach a span the program measured itself (only its length is
    /// known) under span `parent`, placed `offset_us` after the
    /// parent's start and clipped to the parent. Returns its id.
    pub fn attach(&mut self, parent: usize, name: &str, offset_us: f64, micros: f64) -> usize {
        let (lo, hi) = (self.spans[parent].start_us, self.spans[parent].end_us);
        let start = (lo + offset_us).min(hi);
        let end = (start + micros).min(hi);
        self.stack.push(parent);
        let id = self.push(name, start, end);
        self.stack.pop();
        id
    }

    /// Record a count for the current operation.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((self.op, name.to_string(), value));
    }

    pub fn counts_of(&self, name: &str) -> Vec<f64> {
        let named = self.counts.iter().filter(|c| c.1 == name);
        named.map(|c| c.2).collect()
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Length of every span called `name`, in recording order.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(Span::micros).collect()
    }

    /// A span's length minus the part of it its children cover.
    pub fn self_micros(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut covered: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
            .filter(|(lo, hi)| hi > lo)
            .collect();
        covered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut total, mut reach) = (0.0, span.start_us);
        for (lo, hi) in covered {
            if hi > reach {
                total += hi - lo.max(reach);
                reach = hi;
            }
        }
        span.micros() - total
    }

    /// Total self time per span name: the per-layer budget.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.name.clone()).or_default() += self.self_micros(span.id);
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id as u64,
                    "parent": s.parent.map(|p| p as u64),
                    "op": s.op,
                    "name": s.name.as_str(),
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                })
            })
            .collect();
        let counts: Vec<Value> = self
            .counts
            .iter()
            .map(|(op, name, value)| json!({"op": op, "name": name, "value": value}))
            .collect();
        json!({"spans": spans, "counts": counts, "self_time_us": self.self_times()})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new();
        t.op("read", |t| {
            t.span("parse", |_| ());
            t.span("query", |t| t.span("merge", |_| ()));
            t.count("bytes", 512.0);
        });
        t.op("read", |t| t.span("parse", |_| ()));
        let names: Vec<(&str, Option<usize>, u64)> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent, s.op))
            .collect();
        assert_eq!(
            names,
            [
                ("read", None, 1),
                ("parse", Some(0), 1),
                ("query", Some(0), 1),
                ("merge", Some(2), 1),
                ("read", None, 2),
                ("parse", Some(4), 2),
            ]
        );
        assert_eq!(t.micros_of("parse").len(), 2);
        assert_eq!(t.counts_of("bytes"), [512.0]);
        for s in t.spans() {
            assert!(s.end_us >= s.start_us);
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.op("query", |_| ());
        // A hand-made 100 us parent: two parallel workers (10..50 and
        // 10..70), a merge at 80..95, and one child that overruns.
        t.spans[0].start_us = 0.0;
        t.spans[0].end_us = 100.0;
        t.attach(0, "worker", 10.0, 40.0);
        let slow = t.attach(0, "worker", 10.0, 60.0);
        t.attach(0, "merge", 80.0, 15.0);
        let clipped = t.attach(0, "late", 98.0, 50.0);
        assert_eq!(t.get(clipped).end_us, 100.0);
        // Covered: 10..70, 80..95, 98..100 = 77.
        assert_eq!(t.self_micros(0), 23.0);
        assert_eq!(t.self_micros(slow), 60.0);
        let by_name = t.self_times();
        assert_eq!(by_name["query"], 23.0);
        assert_eq!(by_name["worker"], 100.0);
        assert_eq!(t.to_json()["spans"].as_array().unwrap().len(), 5);
    }
}
