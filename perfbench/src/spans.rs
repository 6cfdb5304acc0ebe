//! In-memory spans recorded around calls into each layer's public API.
//!
//! Spans are kept in memory while the benchmark runs and written out as
//! JSON lines when it ends. With recording off, [`Spans::begin`] and
//! [`Spans::end`] only read the clock, which the timed loops need anyway.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.flatten`.
    pub name: &'static str,
    /// Operation id shared by every span of one operation (one plan
    /// run, one stream, one request).
    pub op: u64,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Recording thread (0 = the benchmark's main thread).
    pub thread: usize,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// An open span: carries its start time whether or not it is recorded.
#[must_use = "close the span with Spans::end"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// A per-thread span recorder.
pub struct Spans {
    recording: bool,
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder for the main thread; `recording` turns span storage on.
    pub fn new(recording: bool) -> Self {
        Spans::for_thread(recording, Instant::now(), 0)
    }

    /// A recorder for a worker thread sharing `origin` with the main one.
    pub fn for_thread(recording: bool, origin: Instant, thread: usize) -> Self {
        Spans {
            recording,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are stored.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Switch span storage on or off (used to interleave traced and
    /// untraced rounds when measuring the tracing overhead).
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// The shared clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                op,
                start_ns: self.nanos(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                thread: self.thread,
            });
            self.stack.push(index);
            index
        });
        Open { start, index }
    }

    /// Close a span and return its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = self.nanos(end);
            self.stack.retain(|&i| i != index);
        }
        end - open.start
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.begin(name, op);
        let out = f();
        (out, self.end(open))
    }

    /// Durations of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Durations of the spans called `name` within operation `op`.
    pub fn durations_of(&self, name: &str, op: u64) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(Span::duration)
            .collect()
    }

    /// Median duration in seconds of the spans called `name` within
    /// operation `op` (0 when there are none).
    pub fn median_s(&self, name: &str, op: u64) -> f64 {
        let secs: Vec<f64> = self
            .durations_of(name, op)
            .iter()
            .map(Duration::as_secs_f64)
            .collect();
        crate::stats::median(&secs).unwrap_or(0.0)
    }

    /// Move another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.thread, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let mut spans = Spans::new(true);
        let outer = spans.begin("outer", 1);
        let ((), _) = spans.time("inner", 1, || ());
        spans.end(outer);
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.durations_of("inner", 1).len(), 1);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut spans = Spans::new(false);
        let (v, d) = spans.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(spans.spans.is_empty());
    }
}
