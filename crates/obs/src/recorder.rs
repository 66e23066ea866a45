//! Event sinks: where the instrumented stack sends its timeline.
//!
//! [`Recorder`] is the trait the hot paths hold (`&mut dyn Recorder`);
//! three sinks cover the use cases:
//!
//! * [`NullRecorder`] — observability off. `enabled()` is `false`, so
//!   instrumented code skips building events entirely; the cost is one
//!   virtual call per would-be event.
//! * [`MemoryRecorder`] — in-memory capture for tests and analysis.
//! * [`JsonlWriter`] — streams one JSON object per line to any
//!   `io::Write` (a file, a `Vec<u8>`, stdout).
//!
//! Durations are first-class via *spans*: [`Recorder::start_span`] mints
//! a [`SpanId`] and emits a `span_start` event, [`Recorder::end_span`]
//! closes it with a `span_end` event at the end time. Because both carry
//! sim-time stamps, span durations are exact simulation quantities, not
//! wall-clock measurements.

use crate::event::Event;
use movr_sim::SimTime;
use std::io;

/// Identifier pairing a `span_start` with its `span_end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// A sink for structured events.
pub trait Recorder {
    /// Whether events will be kept. Hot paths guard event construction
    /// with this so a disabled recorder costs no allocations.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, event: Event);

    /// Opens a sim-time span named `name` at `t`, emitting a
    /// `span_start` event carrying the span id.
    fn start_span(&mut self, t: SimTime, name: &'static str) -> SpanId;

    /// Closes span `id` at `t` with a `span_end` event.
    fn end_span(&mut self, t: SimTime, name: &'static str, id: SpanId);
}

fn span_event(kind: &'static str, t: SimTime, name: &'static str, id: SpanId) -> Event {
    Event::new(t, kind).with("span", name).with("span_id", id.0)
}

/// Observability off: drops everything, reports `enabled() == false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _event: Event) {}
    fn start_span(&mut self, _t: SimTime, _name: &'static str) -> SpanId {
        SpanId(0)
    }
    fn end_span(&mut self, _t: SimTime, _name: &'static str, _id: SpanId) {}
}

/// Captures events in memory, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    events: Vec<Event>,
    next_span: u64,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder whose span-id counter starts at `next`. A
    /// recorder picking up after a checkpoint must continue the original
    /// numbering — span ids appear verbatim in the event stream, so a
    /// reset counter would make the resumed timeline diverge.
    pub fn with_next_span_id(next: u64) -> Self {
        MemoryRecorder {
            events: Vec::new(),
            next_span: next,
        }
    }

    /// The id the next [`Recorder::start_span`] will mint.
    pub fn next_span_id(&self) -> u64 {
        self.next_span
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Closed spans as `(name, start, end)`, in start order. Unclosed
    /// spans are omitted.
    pub fn spans(&self) -> Vec<(&'static str, SimTime, SimTime)> {
        use crate::event::Value;
        let id_of = |e: &Event| match e.field("span_id") {
            Some(&Value::U64(id)) => Some(id),
            _ => None,
        };
        let name_of = |e: &Event| match e.field("span") {
            Some(&Value::Str(s)) => Some(s),
            _ => None,
        };
        let mut out = Vec::new();
        for start in self.of_kind("span_start") {
            let (Some(id), Some(name)) = (id_of(start), name_of(start)) else {
                continue;
            };
            let end = self
                .of_kind("span_end")
                .find(|e| id_of(e) == Some(id));
            if let Some(end) = end {
                out.push((name, start.t, end.t));
            }
        }
        out
    }

    /// The whole capture rendered as JSONL (one event per line, trailing
    /// newline included) — byte-identical to what a [`JsonlWriter`] fed
    /// the same events would have written.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            e.write_json_line(&mut out);
            out.push('\n');
        }
        out
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
    fn start_span(&mut self, t: SimTime, name: &'static str) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.events.push(span_event("span_start", t, name, id));
        id
    }
    fn end_span(&mut self, t: SimTime, name: &'static str, id: SpanId) {
        self.events.push(span_event("span_end", t, name, id));
    }
}

/// Error surfaced by [`JsonlWriter::finish`]: the sink failed while
/// writing or flushing the timeline, at the 1-based line given. Every
/// event offered after the first failure was dropped (the stream is
/// already truncated; appending past a hole would corrupt it further).
#[derive(Debug)]
pub struct JsonlSinkError {
    /// 1-based line number of the write that failed (for a flush
    /// failure, the number of the line that could not be committed + 1).
    pub line: u64,
    /// The underlying I/O error.
    pub error: io::Error,
}

impl std::fmt::Display for JsonlSinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSONL sink failed at line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for JsonlSinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Streams events as JSON lines to an `io::Write` sink.
///
/// Sink failures (full disk, closed pipe) do not panic and cannot be
/// reported mid-stream — [`Recorder`]'s methods return nothing, by
/// design, so instrumented hot paths stay infallible. Instead the first
/// error is latched, all subsequent events are dropped, and the failure
/// surfaces as a structured [`JsonlSinkError`] from
/// [`JsonlWriter::finish`] (or early via [`JsonlWriter::sink_error`]).
/// Callers that discard the writer without calling `finish` forfeit the
/// error — `finish` is the durability check.
#[derive(Debug)]
pub struct JsonlWriter<W: io::Write> {
    sink: W,
    next_span: u64,
    lines: u64,
    error: Option<JsonlSinkError>,
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps a writer.
    pub fn new(sink: W) -> Self {
        JsonlWriter {
            sink,
            next_span: 0,
            lines: 0,
            error: None,
        }
    }

    /// Wraps a writer with the span-id counter starting at `next`, so a
    /// resumed session's stream continues the original numbering (see
    /// [`MemoryRecorder::with_next_span_id`]).
    pub fn with_next_span_id(sink: W, next: u64) -> Self {
        JsonlWriter {
            sink,
            next_span: next,
            lines: 0,
            error: None,
        }
    }

    /// The id the next [`Recorder::start_span`] will mint.
    pub fn next_span_id(&self) -> u64 {
        self.next_span
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The latched sink failure, if any — for callers that want to stop
    /// a long run early instead of discovering the truncation at
    /// [`JsonlWriter::finish`].
    pub fn sink_error(&self) -> Option<&JsonlSinkError> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer, or the first write or
    /// flush error the sink produced. This is the durability checkpoint:
    /// a timeline is only complete once `finish` returned `Ok`.
    pub fn finish(mut self) -> Result<W, JsonlSinkError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match self.sink.flush() {
            Ok(()) => Ok(self.sink),
            Err(error) => Err(JsonlSinkError {
                line: self.lines + 1,
                error,
            }),
        }
    }

    fn write_line(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.json_line();
        line.push('\n');
        match self.sink.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(error) => {
                self.error = Some(JsonlSinkError {
                    line: self.lines + 1,
                    error,
                });
            }
        }
    }
}

impl<W: io::Write> Recorder for JsonlWriter<W> {
    fn record(&mut self, event: Event) {
        self.write_line(&event);
    }
    fn start_span(&mut self, t: SimTime, name: &'static str) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.write_line(&span_event("span_start", t, name, id));
        id
    }
    fn end_span(&mut self, t: SimTime, name: &'static str, id: SpanId) {
        self.write_line(&span_event("span_end", t, name, id));
    }
}

/// Tags every event passing through with a `session` field, so streams
/// from many sessions can be concatenated (or reduced together) without
/// losing attribution. Span events are minted here — with a per-session
/// id counter — rather than delegated, so they carry the tag too; span
/// ids are therefore unique *per session*, and the fleet reducer keys
/// open spans by `(session, span_id)`.
///
/// The adapter appends the tag as the last field of each event and
/// never touches timestamps or ordering, so a tagged stream is the
/// untagged stream plus one field per line.
pub struct SessionTagged<'a> {
    inner: &'a mut dyn Recorder,
    session: u64,
    next_span: u64,
}

impl std::fmt::Debug for SessionTagged<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTagged")
            .field("session", &self.session)
            .field("next_span", &self.next_span)
            .finish_non_exhaustive()
    }
}

impl<'a> SessionTagged<'a> {
    /// Tags everything recorded through `inner` with `session`.
    pub fn new(inner: &'a mut dyn Recorder, session: u64) -> Self {
        SessionTagged {
            inner,
            session,
            next_span: 0,
        }
    }

    /// The session id applied to every event.
    pub fn session(&self) -> u64 {
        self.session
    }
}

impl Recorder for SessionTagged<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn record(&mut self, event: Event) {
        self.inner.record(event.with("session", self.session));
    }
    fn start_span(&mut self, t: SimTime, name: &'static str) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.record(span_event("span_start", t, name, id));
        id
    }
    fn end_span(&mut self, t: SimTime, name: &'static str, id: SpanId) {
        self.record(span_event("span_end", t, name, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(rec: &mut dyn Recorder) {
        let id = rec.start_span(SimTime::from_millis(1), "sweep");
        rec.record(Event::new(SimTime::from_millis(2), "probe").with("power_dbm", -42.5));
        rec.end_span(SimTime::from_millis(3), "sweep", id);
    }

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        feed(&mut r);
        assert_eq!(r.start_span(SimTime::ZERO, "x"), SpanId(0));
    }

    #[test]
    fn memory_recorder_captures_in_order() {
        let mut r = MemoryRecorder::new();
        assert!(r.enabled());
        feed(&mut r);
        assert_eq!(r.len(), 3);
        assert_eq!(r.events()[0].kind, "span_start");
        assert_eq!(r.events()[1].kind, "probe");
        assert_eq!(r.events()[2].kind, "span_end");
        assert_eq!(r.of_kind("probe").count(), 1);
    }

    #[test]
    fn spans_pair_start_and_end() {
        let mut r = MemoryRecorder::new();
        feed(&mut r);
        let spans = r.spans();
        assert_eq!(
            spans,
            vec![("sweep", SimTime::from_millis(1), SimTime::from_millis(3))]
        );
        // An unclosed span is omitted.
        r.start_span(SimTime::from_millis(4), "dangling");
        assert_eq!(r.spans().len(), 1);
    }

    #[test]
    fn jsonl_writer_matches_memory_rendering() {
        let mut mem = MemoryRecorder::new();
        feed(&mut mem);
        let mut w = JsonlWriter::new(Vec::new());
        feed(&mut w);
        assert_eq!(w.lines(), 3);
        let bytes = w.finish().expect("in-memory sink cannot fail");
        assert_eq!(String::from_utf8(bytes).unwrap(), mem.to_jsonl());
    }

    /// A writer that accepts `good` writes, then fails every later one.
    struct FailingSink {
        good: usize,
        written: Vec<u8>,
    }

    impl io::Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.good == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            self.good -= 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_failure_is_latched_and_surfaces_on_finish() {
        let mut w = JsonlWriter::new(FailingSink {
            good: 2,
            written: Vec::new(),
        });
        feed(&mut w); // 3 events: the third write fails
        assert_eq!(w.lines(), 2);
        let err = w.sink_error().expect("failure must be latched");
        assert_eq!(err.line, 3);
        let Err(err) = w.finish() else {
            panic!("finish must report the latched failure")
        };
        assert_eq!(err.line, 3);
        assert_eq!(err.error.kind(), io::ErrorKind::StorageFull);
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn events_after_a_sink_failure_are_dropped_not_written() {
        let mut w = JsonlWriter::new(FailingSink {
            good: 1,
            written: Vec::new(),
        });
        feed(&mut w);
        feed(&mut w); // still latched: nothing more lands
        assert_eq!(w.lines(), 1);
        assert!(w.finish().is_err());
    }

    #[test]
    fn session_tagged_appends_session_to_every_event() {
        let mut mem = MemoryRecorder::new();
        let mut tagged = SessionTagged::new(&mut mem, 7);
        assert_eq!(tagged.session(), 7);
        feed(&mut tagged);
        assert_eq!(mem.len(), 3);
        use crate::event::Value;
        for e in mem.events() {
            assert_eq!(e.field("session"), Some(&Value::U64(7)), "{}", e.json_line());
            // The tag is the last field, so untagged lines are a prefix.
            assert_eq!(e.fields.last().map(|(n, _)| *n), Some("session"));
        }
        // Span pairing still works on the tagged stream.
        assert_eq!(mem.spans().len(), 1);
    }

    #[test]
    fn session_tagged_span_ids_count_per_session() {
        let mut mem = MemoryRecorder::new();
        let mut a = SessionTagged::new(&mut mem, 1);
        assert_eq!(a.start_span(SimTime::ZERO, "x"), SpanId(0));
        assert_eq!(a.start_span(SimTime::ZERO, "y"), SpanId(1));
        let mut b = SessionTagged::new(&mut mem, 2);
        assert_eq!(b.start_span(SimTime::ZERO, "z"), SpanId(0));
    }

    #[test]
    fn session_tagged_respects_inner_enabled() {
        let mut null = NullRecorder;
        let tagged = SessionTagged::new(&mut null, 3);
        assert!(!tagged.enabled());
        let mut mem = MemoryRecorder::new();
        let tagged = SessionTagged::new(&mut mem, 3);
        assert!(tagged.enabled());
    }

    #[test]
    fn span_counter_continues_across_recorders() {
        // Phase A records two spans, then a fresh recorder seeded with
        // A's counter continues the numbering exactly.
        let mut a = MemoryRecorder::new();
        a.start_span(SimTime::ZERO, "one");
        a.start_span(SimTime::ZERO, "two");
        let mut b = MemoryRecorder::with_next_span_id(a.next_span_id());
        assert_eq!(b.start_span(SimTime::ZERO, "three"), SpanId(2));

        let mut w = JsonlWriter::with_next_span_id(Vec::new(), 2);
        assert_eq!(w.next_span_id(), 2);
        assert_eq!(w.start_span(SimTime::ZERO, "three"), SpanId(2));
        // The rendered line is identical to the uninterrupted recorder's.
        let mut full = MemoryRecorder::new();
        full.start_span(SimTime::ZERO, "one");
        full.start_span(SimTime::ZERO, "two");
        full.start_span(SimTime::ZERO, "three");
        let joined = a.to_jsonl() + &b.to_jsonl();
        assert_eq!(joined, full.to_jsonl());
    }

    #[test]
    fn span_ids_are_unique_per_recorder() {
        let mut r = MemoryRecorder::new();
        let a = r.start_span(SimTime::ZERO, "a");
        let b = r.start_span(SimTime::ZERO, "b");
        assert_ne!(a, b);
    }
}
