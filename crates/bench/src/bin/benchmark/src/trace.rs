//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory during the run and are written as NDJSON at exit.

use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The crawl run the span belongs to.
    pub run: usize,
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: usize,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Each span's duration minus the durations of its children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn write_ndjson(&self, mut out: impl Write) -> io::Result<()> {
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let epoch = t.epoch;
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let root = t.record("run", at(0), at(10), None, 0);
        t.record("setup", at(2), at(5), Some(root), 0);
        t.record("crawl", at(5), at(9), Some(root), 0);
        assert_eq!(t.self_ns(), vec![3_000_000, 3_000_000, 4_000_000]);
        let mut out = Vec::new();
        t.write_ndjson(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"name\":\"setup\""));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
