//! In-memory spans for the traced run.
//!
//! The benchmark records spans around its own calls into each engine
//! layer (moving them inside the engine is a later change). One root span
//! per statement, children for each pipeline stage, one span per probe
//! call. Spans stay in memory until the run ends and are then written as
//! Chrome trace-event JSON, the same shape `cstore_common::trace` dumps.

use std::time::Instant;

use crate::json::escape;

/// One recorded interval. `op_id` groups the spans of one statement (or
/// one probe call); `parent` is the span that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op_id: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Append-only span recorder with one clock epoch.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// Nanoseconds since this log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh operation id (one per statement or probe call).
    pub fn new_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    /// Record a finished span, returning its id.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        op_id: u32,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op_id,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as a child span of `parent`, returning its result and the
    /// span's duration in nanoseconds.
    pub fn timed<R>(
        &mut self,
        parent: Option<u32>,
        op_id: u32,
        name: &str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.record(parent, op_id, name, start, end);
        (r, end - start)
    }

    /// Widen a span recorded before its children ran (a root is opened
    /// first so children can name it, and closed last).
    pub fn close(&mut self, id: u32, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps, with
    /// the span's id, parent and operation id kept in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op_id\":{}}}}}",
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.op_id,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap each other (parallel
/// work) and may stick out of the parent (clock skew between recorders);
/// the covered part is the union of the child intervals clipped to the
/// parent, so overlap is not subtracted twice.
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let Some(parent) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 100, 200),
            // Two overlapping children cover [110,150): 40 ns, not 30+30.
            span(1, Some(0), 110, 140),
            span(2, Some(0), 120, 150),
            // A disjoint child: 10 ns.
            span(3, Some(0), 160, 170),
            // A child sticking out of the parent is clipped: [190,200).
            span(4, Some(0), 190, 260),
            // A grandchild never counts against the root.
            span(5, Some(1), 111, 139),
            // Someone else's child.
            span(6, Some(9), 100, 200),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 28);
        assert_eq!(self_time_ns(&spans, 3), 10);
        assert_eq!(self_time_ns(&spans, 42), 0);
    }

    #[test]
    fn self_time_of_fully_covered_span_is_zero() {
        let spans = vec![
            span(0, None, 0, 50),
            span(1, Some(0), 0, 30),
            span(2, Some(0), 20, 80),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
    }

    #[test]
    fn log_records_nested_spans_and_dumps_chrome_json() {
        let mut log = SpanLog::new();
        let op = log.new_op();
        let t0 = log.now_ns();
        let root = log.record(None, op, "statement \"q\"", t0, t0);
        let (v, ns) = log.timed(Some(root), op, "sql.parse", || 7);
        assert_eq!(v, 7);
        let end = log.now_ns();
        log.close(root, end);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].end_ns - spans[1].start_ns, ns);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = json::parse(&log.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("statement \"q\"")
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(f64::from(root))
        );
    }
}
