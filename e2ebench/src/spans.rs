//! Spans recorded by the benchmark around each call into a layer.
//!
//! Every call is timed; with recording on, each also leaves a span
//! (name, start, end, parent, operation id) that is kept in memory and
//! summarised as per-name self time when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
}

/// A span that has been opened and not yet closed.
#[must_use = "close the span to time it"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// In-memory span recorder.
pub struct Spans {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Per-name aggregate: calls, total time, self time (total minus the
/// time covered by child spans).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanStat {
    pub calls: u64,
    pub total: Duration,
    pub self_time: Duration,
}

impl Spans {
    pub fn new(recording: bool) -> Spans {
        Spans {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let at = start - self.origin;
            self.spans.push(Span {
                name,
                start: at,
                end: at,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        Open { index, start }
    }

    /// Closes the most recently opened span and returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans close in LIFO order");
            self.spans[index].end = open.start + elapsed - self.origin;
        }
        elapsed
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.open(name);
        let value = f();
        (value, self.close(open))
    }

    /// Per-name totals and self times of every closed span.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let total = span.end - span.start;
            let stat = out.entry(span.name).or_default();
            stat.calls += 1;
            stat.total += total;
            stat.self_time += total.saturating_sub(children);
        }
        out
    }

    /// Distinct operation ids that recorded at least one span.
    pub fn traced_ops(&self) -> usize {
        let mut ops: Vec<u64> = self.spans.iter().map(|s| s.op).collect();
        ops.dedup();
        ops.len()
    }
}

/// Adds `other` into `into`, name by name.
pub fn merge(
    into: &mut BTreeMap<&'static str, SpanStat>,
    other: &BTreeMap<&'static str, SpanStat>,
) {
    for (name, s) in other {
        let stat = into.entry(name).or_default();
        stat.calls += s.calls;
        stat.total += s.total;
        stat.self_time += s.self_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.next_op();
        let outer = spans.open("outer");
        let (_, inner) = spans.time("inner", || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        let total = spans.close(outer);
        let s = spans.summary();
        assert_eq!(s["outer"].calls, 1);
        assert_eq!(s["inner"].total, s["inner"].self_time);
        assert!(s["inner"].total >= Duration::from_millis(20));
        assert!(s["outer"].self_time + inner <= total + Duration::from_micros(1));
        assert!(s["outer"].self_time >= Duration::from_millis(5));
        assert_eq!(spans.traced_ops(), 1);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut spans = Spans::new(false);
        let (_, d) = spans.time("x", || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
        assert!(spans.summary().is_empty());
    }
}
