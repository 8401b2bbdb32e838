//! Pluggable event sinks: the consumer side of the recorder.
//!
//! A [`Recorder`](crate::Recorder) is a *producer*: it interns strings,
//! builds the track forest, and pushes [`Event`]s. Everything that
//! happens to those events afterwards is an [`EventSink`] attached to the
//! recorder. The stock sinks are:
//!
//! * [`MemorySink`] — retains every event in a `Vec` (the classic
//!   in-memory recorder; [`Recorder::new`](crate::Recorder::new) installs
//!   one by default so `events()`/`validate()` keep working);
//! * [`RingSink`] — retains only the newest `capacity` events and counts
//!   what it evicted, so capped captures are *visibly* capped rather than
//!   silently truncated;
//! * [`ChromeStreamSink`](crate::ChromeStreamSink) — formats each event
//!   to Perfetto/Chrome-trace JSON as it arrives and flushes to an
//!   `io::Write` in fixed-size chunks, so a long run can be traced in
//!   bounded memory (see the `chrome` module).
//! * [`Aggregator`](crate::agg::Aggregator) — folds the stream into
//!   online summaries (histograms, busy fractions) without retaining
//!   events (see the `agg` module).
//!
//! Sinks receive three kinds of notifications, always in a safe order:
//! every string is announced (`on_string`) before any track or event
//! references it, and every track (`on_track`) before any event lands on
//! it. `on_event` callbacks are infallible by design — recording must
//! never perturb the simulation — so sinks that do I/O buffer errors
//! internally and surface them from [`EventSink::finish`], counting any
//! events discarded after the failure in [`EventSink::dropped`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::rc::Rc;

use crate::json::JsonWriter;
use crate::recorder::{Event, StrId, TrackId};

/// A consumer of one recorder's event stream.
///
/// Implementations may keep per-stream state (their own copy of the
/// interning table, incremental placements, running histograms); the
/// contract is only about ordering: strings before their first use,
/// tracks before their first event, events in recording order.
pub trait EventSink {
    /// Short stable name of the sink type (used in reports: `"memory"`,
    /// `"ring"`, `"chrome-stream"`, `"agg"`).
    fn kind(&self) -> &'static str;

    /// A newly interned string; ids arrive densely in order `0, 1, 2, …`.
    fn on_string(&mut self, id: StrId, s: &str) {
        let _ = (id, s);
    }

    /// A newly created track; parents are always announced before
    /// children.
    fn on_track(&mut self, id: TrackId, name: StrId, parent: Option<TrackId>) {
        let _ = (id, name, parent);
    }

    /// One recorded event, in recording order.
    fn on_event(&mut self, event: &Event);

    /// Flushes and finalizes the sink (e.g. writes the trailing metadata
    /// block of a streamed trace). Called by
    /// [`Recorder::finish`](crate::Recorder::finish); must be safe to
    /// call more than once.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Events this sink discarded (ring eviction, post-error writes).
    /// Zero for lossless sinks.
    fn dropped(&self) -> u64 {
        0
    }

    /// Heap capacity (in entries/bytes, the same loose unit as
    /// [`Recorder::heap_capacity`](crate::Recorder::heap_capacity)) held
    /// by the sink. For bounded sinks this stays flat no matter how many
    /// events stream through.
    fn heap_capacity(&self) -> usize {
        0
    }

    /// Downcast hook so the recorder can expose retained events without
    /// `Any` machinery; only [`MemorySink`] returns `Some`.
    fn as_memory(&self) -> Option<&MemorySink> {
        None
    }
}

/// Sharing adapter: attach the same sink to a recorder *and* keep a
/// handle to query it afterwards (`Rc::clone` one side into
/// [`Recorder::attach`](crate::Recorder::attach), keep the other).
impl<T: EventSink> EventSink for Rc<RefCell<T>> {
    fn kind(&self) -> &'static str {
        self.borrow().kind()
    }
    fn on_string(&mut self, id: StrId, s: &str) {
        self.borrow_mut().on_string(id, s);
    }
    fn on_track(&mut self, id: TrackId, name: StrId, parent: Option<TrackId>) {
        self.borrow_mut().on_track(id, name, parent);
    }
    fn on_event(&mut self, event: &Event) {
        self.borrow_mut().on_event(event);
    }
    fn finish(&mut self) -> io::Result<()> {
        self.borrow_mut().finish()
    }
    fn dropped(&self) -> u64 {
        self.borrow().dropped()
    }
    fn heap_capacity(&self) -> usize {
        self.borrow().heap_capacity()
    }
}

/// One attached sink's accounting, for surfacing in reports (so a capped
/// or failed capture is visible next to the numbers it fed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkStats {
    /// The sink's [`EventSink::kind`].
    pub kind: &'static str,
    /// Events the sink discarded ([`EventSink::dropped`]).
    pub dropped: u64,
    /// The sink's resident heap capacity ([`EventSink::heap_capacity`]).
    pub heap_capacity: usize,
}

impl SinkStats {
    /// Deterministic JSON object (`{"kind":…,"dropped":…,"heap_capacity":…}`).
    pub fn to_json(&self) -> String {
        JsonWriter::build(|w| self.write_json(w))
    }

    /// Writes the [`to_json`](Self::to_json) object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field("kind", self.kind).field("dropped", self.dropped);
            w.field("heap_capacity", self.heap_capacity);
        });
    }
}

/// The lossless in-memory sink: retains every event in recording order.
///
/// [`Recorder::new`](crate::Recorder::new) installs one by default; the
/// recorder's `events()` and `validate()` read from the first attached
/// `MemorySink`.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    events: Vec<Event>,
}

impl MemorySink {
    /// An empty sink (no allocation until the first event).
    pub fn new() -> Self {
        Self::default()
    }

    /// The retained events, in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

impl EventSink for MemorySink {
    fn kind(&self) -> &'static str {
        "memory"
    }
    fn on_event(&mut self, event: &Event) {
        self.events.push(*event);
    }
    fn heap_capacity(&self) -> usize {
        self.events.capacity()
    }
    fn as_memory(&self) -> Option<&MemorySink> {
        Some(self)
    }
}

/// A cloneable `io::Write` target where every clone shares one byte
/// buffer. This is how callers recover bytes streamed through a sink
/// that was boxed into a recorder: keep one clone, attach the other
/// (e.g. `ChromeStreamSink::new(writer.clone(), …)`), read
/// [`SharedWriter::contents`] after
/// [`Recorder::finish`](crate::Recorder::finish).
#[derive(Debug, Default, Clone)]
pub struct SharedWriter(Rc<RefCell<Vec<u8>>>);

impl SharedWriter {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.borrow().clone()
    }

    /// The bytes written so far as UTF-8.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not valid UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8(self.bytes()).expect("shared writer holds UTF-8")
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

impl io::Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A bounded sink keeping only the newest `capacity` events, with an
/// explicit eviction counter — the "flight recorder" mode. Nothing is
/// dropped silently: [`RingSink::dropped`] (surfaced through
/// [`SinkStats`]) says exactly how many events aged out.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<Event>,
    dropped: u64,
}

impl RingSink {
    /// A ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring sink needs a positive capacity");
        Self {
            capacity,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained (newest) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Events currently retained (`≤ capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention cap this ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl EventSink for RingSink {
    fn kind(&self) -> &'static str {
        "ring"
    }
    fn on_event(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*event);
    }
    fn dropped(&self) -> u64 {
        self.dropped
    }
    fn heap_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn ring_sink_keeps_newest_and_counts_drops() {
        let mut rec = Recorder::unbuffered();
        rec.attach(Box::new(RingSink::new(4)));
        let t = rec.track("t", None);
        for i in 0..10u64 {
            rec.instant(t, "tick", i);
        }
        let stats = rec.sink_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].kind, "ring");
        assert_eq!(stats[0].dropped, 6, "10 offered, 4 retained");
        assert_eq!(rec.dropped_events(), 6);
        // The ring's heap never exceeds its cap (VecDeque rounds up to a
        // power of two).
        assert!(stats[0].heap_capacity <= 8, "{}", stats[0].heap_capacity);
    }

    #[test]
    fn ring_sink_retains_in_order() {
        let mut ring = RingSink::new(2);
        let mut rec = Recorder::new();
        let t = rec.track("t", None);
        rec.instant(t, "a", 1);
        rec.instant(t, "b", 2);
        rec.instant(t, "c", 3);
        for e in rec.events() {
            ring.on_event(e);
        }
        let ts: Vec<u64> = ring.events().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3]);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_ring_rejected() {
        RingSink::new(0);
    }

    #[test]
    fn memory_sink_is_lossless() {
        let mut m = MemorySink::new();
        assert_eq!(m.heap_capacity(), 0, "no allocation before first event");
        let e = Event {
            track: TrackId(0),
            name: StrId(0),
            ts: 7,
            kind: crate::EventKind::Instant,
        };
        m.on_event(&e);
        assert_eq!(m.events(), &[e]);
        assert_eq!(m.dropped(), 0);
        assert!(m.as_memory().is_some());
    }

    #[test]
    fn sink_stats_json_is_deterministic() {
        let s = SinkStats {
            kind: "ring",
            dropped: 3,
            heap_capacity: 8,
        };
        assert_eq!(
            s.to_json(),
            "{\"kind\":\"ring\",\"dropped\":3,\"heap_capacity\":8}"
        );
    }

    #[test]
    fn shared_sink_handle_sees_the_stream() {
        let ring = Rc::new(RefCell::new(RingSink::new(8)));
        let mut rec = Recorder::unbuffered();
        rec.attach(Box::new(Rc::clone(&ring)));
        let t = rec.track("t", None);
        rec.instant(t, "x", 1);
        rec.instant(t, "y", 2);
        assert_eq!(ring.borrow().len(), 2);
    }
}
