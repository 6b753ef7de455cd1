//! In-memory spans recorded by the ledger around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory until the run ends; a layer's
//! self time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the log, [`NO_PARENT`] for a root.
    pub parent: u32,
    pub req: u32,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

/// Self and total time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per span, in ns.
    pub fn self_mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to request `req`.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let at = self.now_ns();
        self.open_at(name, at)
    }

    fn open_at(&mut self, name: &'static str, start_ns: u64) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req: self.req,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        let at = self.now_ns();
        self.close_at(span, at);
    }

    fn close_at(&mut self, span: Open, end_ns: u64) {
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// Per-name totals; self time = duration − Σ children's durations.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// One JSON object per span of the first `max_requests` requests.
    pub fn write_jsonl(&self, w: &mut impl Write, max_requests: u32) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.req >= max_requests {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name totals over several logs (one per connection).
pub fn totals(logs: &[SpanLog]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for log in logs {
        for (name, t) in log.totals() {
            let sum = out.entry(name).or_default();
            sum.count += t.count;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new();
        log.set_request(3);
        let root = log.open_at("request", 100);
        let a = log.open_at("decode", 110);
        log.close_at(a, 140);
        let b = log.open_at("select", 150);
        let c = log.open_at("memo", 160);
        log.close_at(c, 190);
        let d = log.open_at("memo", 200);
        log.close_at(d, 205);
        log.close_at(b, 250);
        log.close_at(root, 300);

        let t = log.totals();
        // request: 200 long, children decode (30) + select (100).
        assert_eq!(t["request"].total_ns, 200);
        assert_eq!(t["request"].self_ns, 70);
        // select: 100 long, two memo children of 30 and 5.
        assert_eq!(t["select"].self_ns, 65);
        assert_eq!(t["memo"].count, 2);
        assert_eq!(t["memo"].self_ns, 35);
        assert_eq!(t["decode"].self_ns, 30);
        // Self times of a tree add up to its root's duration.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, t["request"].total_ns);
    }

    #[test]
    fn jsonl_keeps_parent_links_and_cuts_at_the_request_limit() {
        let mut log = SpanLog::new();
        for req in 0..3 {
            log.set_request(req);
            let r = log.open_at("request", 10 * u64::from(req));
            let c = log.open_at("child", 10 * u64::from(req) + 1);
            log.close_at(c, 10 * u64::from(req) + 2);
            log.close_at(r, 10 * u64::from(req) + 5);
        }
        let mut out = Vec::new();
        log.write_jsonl(&mut out, 2).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"child\"") && lines[1].contains("\"parent\":0"));
        for line in lines {
            serde_json::parse_value_str(line).expect("each line is JSON");
        }
    }
}
