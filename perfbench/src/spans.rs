//! The benchmark's own spans around every call it makes into a layer.
//!
//! A span records its name, layer, start, end, parent and operation id.
//! Spans are kept in memory and written out once, at the end of a traced
//! run; an untraced run still times each call (the end-to-end metrics need
//! the durations) but stores nothing.

use parrot_telemetry::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Span recorder; records only when `on`.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// Time `f` as a call into `layer`. A span opened with no enclosing
    /// span starts a new operation; nested spans share their parent's.
    /// Returns `f`'s value and its duration in seconds.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        if !self.on {
            let v = f(self);
            return (v, start.elapsed().as_secs_f64());
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let idx = self.spans.len();
        let start_ns = (start - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(idx);
        let v = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[idx].end_ns = (end - self.epoch).as_nanos() as u64;
        (v, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// of it its child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
        }
        out
    }

    /// Every span as one JSON document (times in nanoseconds from the
    /// recorder's epoch; `parent` is an index into the same array).
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::Str(s.name.clone())),
                    ("layer", Value::Str(s.layer.to_string())),
                    ("start_ns", Value::int(s.start_ns)),
                    ("end_ns", Value::int(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::int(p as u64)),
                    ),
                    ("op", Value::int(s.op)),
                ])
            })
            .collect();
        Value::Arr(spans).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_op_and_split_self_time() {
        let mut sp = Spans::new(true);
        sp.time("outer", "a", |sp| {
            sp.time("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        sp.time("outer", "c", |_| ());
        let s = sp.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert_eq!(s[1].parent, Some(0));
        let selfs = sp.self_time_by_layer();
        assert!(selfs["inner"] >= 0.005);
        assert!(selfs["outer"] < selfs["inner"]);
    }

    #[test]
    fn untraced_recorder_stores_nothing() {
        let mut sp = Spans::new(false);
        let (v, secs) = sp.time("core", "run", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(sp.spans().is_empty());
    }
}
