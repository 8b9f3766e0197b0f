//! Spans recorded from the benchmark's own files, around calls into a
//! layer. Kept in memory; written as JSON lines when the workload ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One call into a layer. `parent` indexes the same tracer's spans; all
/// spans of one build/batch/refresh share `op_id`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);

    fn index(self) -> Option<u32> {
        (self.0 != u32::MAX).then_some(self.0)
    }
}

/// One thread's span recorder. With `on == false` every method is a
/// no-op that reads no clock, so the untraced run pays nothing.
pub struct Tracer {
    /// Whether the run is traced at all.
    armed: bool,
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            armed: on,
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Pauses or resumes recording within a traced run, so one run can
    /// time the same operation with and without spans.
    pub fn record(&mut self, on: bool) {
        self.on = self.armed && on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.index(),
            op_id,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes `id` and returns its duration in seconds (0 when off).
    pub fn close(&mut self, id: SpanId) -> f64 {
        let Some(i) = id.index() else { return 0.0 };
        let end_ns = self.now_ns();
        let span = &mut self.spans[i as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and wall seconds
    /// (0 when off).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, op_id);
        let out = f();
        (out, self.close(id))
    }

    /// Records a child of `parent` whose *duration* a layer reported
    /// (the `RunMetrics` phase walls) but whose start it did not: placed
    /// `offset_s` after the parent's start. Returns the next offset.
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        offset_s: f64,
        secs: f64,
    ) -> f64 {
        if let Some(p) = parent.index() {
            let start_ns = self.spans[p as usize].start_ns + (offset_s * 1e9) as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
                parent: Some(p),
                op_id,
            });
        }
        offset_s + secs
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean self time in seconds of the spans named `name`: a span's
    /// duration minus the part its direct children cover.
    pub fn mean_self_time(&self, name: &str) -> f64 {
        let (mut total, mut count) = (0.0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i as u32))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            total += (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9;
            count += 1;
        }
        total / f64::from(count.max(1))
    }

    /// Appends this tracer's spans to `out` as JSON lines.
    fn write_jsonl(&self, out: &mut String) {
        let t = self.thread;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"t{t}.{p}\""));
            let _ = writeln!(
                out,
                "{{\"id\":\"t{t}.{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
    }
}

/// All tracers of one workload run: hands one to each thread and takes
/// them back for the span file.
pub struct Trace {
    on: bool,
    epoch: Instant,
    handed_out: u32,
    finished: Vec<Tracer>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            handed_out: 0,
            finished: Vec::new(),
        }
    }

    pub fn tracer(&mut self) -> Tracer {
        self.handed_out += 1;
        Tracer::new(self.on, self.epoch, self.handed_out - 1)
    }

    pub fn collect(&mut self, tracer: Tracer) {
        self.finished.push(tracer);
    }

    pub fn spans(&self) -> usize {
        self.finished.iter().map(Tracer::len).sum()
    }

    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.finished {
            t.write_jsonl(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let op = t.open("op", SpanId::NONE, 1);
        t.reported("child", op, 1, 0.0, 0.25);
        t.spans[0].end_ns = t.spans[0].start_ns + 1_000_000_000;
        assert!((t.mean_self_time("op") - 0.75).abs() < 1e-9);
        let mut trace = Trace::new(true);
        trace.collect(t);
        let out = trace.jsonl();
        assert_eq!((out.lines().count(), trace.spans()), (2, 2));
        assert!(out.contains("\"parent\":\"t0.0\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.open("op", SpanId::NONE, 1);
        assert_eq!(t.close(id), 0.0);
        assert_eq!(t.len(), 0);
    }
}
