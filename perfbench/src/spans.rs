//! The benchmark's own spans, recorded around its calls into the program,
//! kept in memory and written out once as Chrome trace-event JSON in the
//! shape `prio-trace --check` validates.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Rec {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_us: u64,
    end_us: u64,
}

/// A span that has started and not yet ended.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    /// The span's id, usable as a child's parent.
    pub id: u64,
    trace: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// In-memory span store. Ids are assigned in order from 1; `trace` is the
/// batch's trace id (0 for work outside any batch, such as `finish`).
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    recs: Vec<Rec>,
}

impl Spans {
    /// An empty store whose timestamps count from now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            next_id: 1,
            recs: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Starts a span now.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            trace,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends `span` now.
    pub fn close(&mut self, span: Open) {
        self.record(span, Instant::now());
    }

    /// Records a span over `[start, end]` that the caller timed itself.
    pub fn leaf(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let mut span = self.open(name, trace, parent);
        span.start = start;
        self.record(span, end);
    }

    fn record(&mut self, span: Open, end: Instant) {
        let rec = Rec {
            id: span.id,
            parent: span.parent,
            trace: span.trace,
            name: span.name,
            start_us: self.us(span.start),
            end_us: self.us(end),
        };
        self.recs.push(rec);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Chrome trace-event JSON: complete (`ph: "X"`) events with `ts` and
    /// `dur` in µs, `pid` 0 (the benchmark's thread), `tid` = trace id,
    /// and the span identity in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, r) in self.recs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"trace\": {}}}}}",
                r.name,
                r.start_us,
                r.end_us.saturating_sub(r.start_us),
                r.trace,
                r.id,
                r.parent,
                r.trace
            );
        }
        out.push_str("], \"displayTimeUnit\": \"ms\", \"metadata\": {\"schema\": \"prio-perfbench-spans/v1\"}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_passes_the_trace_checker() {
        let mut spans = Spans::new();
        let root = spans.open("batch", 1, 0);
        let child = spans.open("run_batch", 1, root.id);
        spans.close(child);
        let t = Instant::now();
        spans.leaf("probe.unpack", 1, root.id, t, Instant::now());
        spans.close(root);
        let check =
            prio_obs::trace::check_chrome_json(&spans.to_chrome_json()).expect("valid trace");
        assert_eq!((check.events, check.batches), (3, 1));
    }
}
