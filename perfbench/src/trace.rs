//! The span recorder: std-only, in memory, written out when the run ends.
//!
//! Every measured operation is one root span named `op`; the calls it makes into the
//! analyzer's layers are child spans, timed from outside around each public call. A *probe* is
//! a root span of its own for an extra measurement taken next to an operation (the direct call
//! behind a served request, a frame codec round trip, an answer check); probes never count
//! towards operation latency. A layer's self time is its span's duration minus the time its
//! child spans cover; it is accumulated per span name as spans close.
//!
//! Operation latencies are recorded in both modes, per input key as running means; the latest
//! untraced one is left for the operation loop to take. Spans and counts are recorded only
//! while tracing is enabled; disabled, [`Tracer::span`] is a plain call. The raw spans of root
//! spans opened before [`SPAN_CAP`] spans were kept are written to the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of every operation's root span.
pub const OP: &str = "op";
/// Raw spans kept for the trace file (root spans opened later are aggregated only).
const SPAN_CAP: usize = 1 << 18;
/// `Span::parent` of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Start and end, in nanoseconds since the recorder's origin.
    start: u64,
    end: u64,
    /// Index of the parent span in the same recorder ([`ROOT`] for none).
    parent: u32,
    /// The operation this span belongs to (probes carry the id of the operation they follow).
    op: u32,
}

/// Self and inclusive time of all spans of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Sum of durations minus covered child time, in nanoseconds.
    pub self_ns: u64,
    /// Sum of durations, in nanoseconds.
    pub total_ns: u64,
}

/// An open span.
#[derive(Debug)]
struct Frame {
    name: &'static str,
    start: u64,
    /// Time covered by closed child spans.
    covered: u64,
    /// Index in `spans`, when the raw span is kept.
    index: Option<usize>,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    times: BTreeMap<&'static str, LayerTime>,
    op: u32,
    /// Latency of the last untraced operation, in nanoseconds, until taken.
    last_ns: Option<u64>,
    /// Untraced operations run.
    pub untraced_ops: u64,
    /// Per input key: `[untraced, traced]` latency sums (ns) and counts.
    pub by_key: BTreeMap<usize, [(f64, u64); 2]>,
    counts: BTreeMap<&'static str, (f64, u64)>,
}

impl Tracer {
    /// A recorder whose operation ids start at `first_op` (distinct per thread).
    pub fn new(first_op: u32) -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            times: BTreeMap::new(),
            op: first_op,
            last_ns: None,
            untraced_ops: 0,
            by_key: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off for the following operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let start = self.now();
        let keep = match self.stack.last() {
            Some(parent) => parent.index.is_some(),
            None => self.spans.len() < SPAN_CAP,
        };
        let index = keep.then(|| {
            let parent = self
                .stack
                .last()
                .and_then(|f| f.index)
                .map_or(ROOT, |i| i as u32);
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                op: self.op,
            });
            self.spans.len() - 1
        });
        self.stack.push(Frame {
            name,
            start,
            covered: 0,
            index,
        });
    }

    fn close(&mut self) -> u64 {
        let end = self.now();
        let frame = self.stack.pop().expect("a span is open");
        let duration = end - frame.start;
        let time = self.times.entry(frame.name).or_default();
        time.calls += 1;
        time.total_ns += duration;
        time.self_ns += duration.saturating_sub(frame.covered);
        if let Some(parent) = self.stack.last_mut() {
            parent.covered += duration;
        }
        if let Some(index) = frame.index {
            self.spans[index].end = end;
        }
        duration
    }

    /// Runs `f` inside a span named `name` (a plain call while tracing is off). Outside an
    /// operation, the span is a probe: a root of its own.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Runs one measured operation on input `key`: its latency is recorded in either mode,
    /// and while tracing it is the root span of every layer span `f` opens.
    pub fn op<T>(&mut self, key: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op += 1;
        let traced = self.enabled;
        let (out, elapsed) = if traced {
            self.open(OP);
            let out = f(self);
            (out, self.close())
        } else {
            let start = Instant::now();
            let out = f(self);
            (out, start.elapsed().as_nanos() as u64)
        };
        let entry = &mut self.by_key.entry(key).or_default()[usize::from(traced)];
        entry.0 += elapsed as f64;
        entry.1 += 1;
        if !traced {
            self.untraced_ops += 1;
            self.last_ns = Some(elapsed);
        }
        out
    }

    /// Takes the latency of the last untraced operation, if one ran since the last take.
    pub fn take_latency(&mut self) -> Option<u64> {
        self.last_ns.take()
    }

    /// Adds one sample of a per-layer count (only while tracing).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            let entry = self.counts.entry(name).or_default();
            entry.0 += value;
            entry.1 += 1;
        }
    }

    /// Closes every span a panicking operation left open.
    pub fn unwind(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
    }

    /// Folds another thread's recorder into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start: s.start + shift,
            end: s.end + shift,
            parent: if s.parent == ROOT {
                ROOT
            } else {
                s.parent + base
            },
            ..s
        }));
        for (name, time) in other.times {
            let mine = self.times.entry(name).or_default();
            mine.calls += time.calls;
            mine.self_ns += time.self_ns;
            mine.total_ns += time.total_ns;
        }
        self.untraced_ops += other.untraced_ops;
        for (key, modes) in other.by_key {
            let entry = self.by_key.entry(key).or_default();
            for (mine, theirs) in entry.iter_mut().zip(modes) {
                mine.0 += theirs.0;
                mine.1 += theirs.1;
            }
        }
        for (name, (sum, n)) in other.counts {
            let entry = self.counts.entry(name).or_default();
            entry.0 += sum;
            entry.1 += n;
        }
    }

    /// Self and inclusive time per span name.
    pub fn layer_times(&self) -> &BTreeMap<&'static str, LayerTime> {
        &self.times
    }

    /// Mean of a per-layer count, `0` when never sampled.
    pub fn count_mean(&self, name: &str) -> f64 {
        self.counts
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n.max(1) as f64)
    }

    /// The kept spans as tab-separated lines: `id op parent name start_ns end_ns` (parent `-`
    /// for roots).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\top\tparent\tname\tstart_ns\tend_ns\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == ROOT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                span.op, span.name, span.start, span.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tracer = Tracer::new(0);
        tracer.set_enabled(true);
        tracer.op(0, |t| {
            t.span("outer", |t| {
                spin(200);
                t.span("inner", |_| spin(300));
            })
        });
        let times = tracer.layer_times();
        let (outer, inner, op) = (times["outer"], times["inner"], times[OP]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(op.total_ns, op.self_ns + outer.total_ns);
        assert_eq!(tracer.by_key[&0][1], (op.total_ns as f64, 1));
        assert!(inner.self_ns >= 300_000);
        assert_eq!(tracer.spans.len(), 3);
        assert_eq!(tracer.spans[2].parent, 1);
    }

    #[test]
    fn disabled_tracer_records_latency_only() {
        let mut tracer = Tracer::new(0);
        let value = tracer.op(1, |t| t.span("layer", |_| 7));
        assert_eq!(value, 7);
        assert_eq!(tracer.untraced_ops, 1);
        assert!(tracer.take_latency().is_some() && tracer.take_latency().is_none());
        assert!(tracer.layer_times().is_empty());
    }

    #[test]
    fn unwind_closes_open_spans() {
        let mut tracer = Tracer::new(0);
        tracer.set_enabled(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracer.op(0, |t| t.span("layer", |_| panic!("boom")))
        }));
        assert!(caught.is_err());
        tracer.unwind();
        assert!(tracer.stack.is_empty());
        assert_eq!(tracer.layer_times()["layer"].calls, 1);
    }
}
