//! Outside-in instruments: benchmark-side spans around every call into a
//! layer, a [`ServiceSession`] timing decorator, and a counting writer.
//!
//! Nothing here feeds a simulated result: spans hold host time only and
//! are written to their own file; the decorator passes cycles, command
//! vectors and memo statistics through unchanged.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use recross_dram::{Cycle, IssuedCommand};
use recross_nmp::{ServiceSession, SessionStats};
use recross_workload::Batch;

use crate::stats::Fnv;

/// One closed span: a call into a layer, timed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified name (`nmp.miss`, `serve.probe`, ...).
    pub name: &'static str,
    /// Architecture the call priced, or `""`.
    pub arch: &'static str,
    /// Probe (or workload iteration) the span belongs to.
    pub group: u32,
    /// Host nanoseconds since the recording started.
    pub start_ns: u64,
    /// Host nanoseconds since the recording started.
    pub end_ns: u64,
    /// Work the call did (lookups priced, bytes written), when counted.
    pub work: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_id: usize,
    group: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (the `--trace 1` runs).
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            group: 0,
        })
    });
}

/// Sets the group (probe or iteration id) of spans opened from now on.
pub fn set_group(group: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.group = group;
        }
    });
}

/// Hands over every span closed since the last call (none when disabled).
pub fn drain() -> Vec<Span> {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .unwrap_or_default()
    })
}

/// An open span; close it with [`Open::exit`] or [`Open::exit_as`].
#[must_use = "a span records nothing until it is closed"]
pub struct Open(Option<usize>);

/// Opens a span named `name` for `arch` (a no-op when disabled).
pub fn enter(name: &'static str, arch: &'static str) -> Open {
    Open(TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|t| {
            let id = t.next_id;
            t.next_id += 1;
            let parent = t.stack.last().copied();
            let start_ns = t.epoch.elapsed().as_nanos() as u64;
            t.spans.push(Span {
                id,
                parent,
                name,
                arch,
                group: t.group,
                start_ns,
                end_ns: start_ns,
                work: 0,
            });
            t.stack.push(id);
            id
        })
    }))
}

impl Open {
    /// Closes the span.
    pub fn exit(self) {
        self.close(None, 0);
    }

    /// Closes the span under a name decided by the call's outcome, with
    /// the work it did.
    pub fn exit_as(self, name: &'static str, work: u64) {
        self.close(Some(name), work);
    }

    fn close(self, name: Option<&'static str>, work: u64) {
        let Some(id) = self.0 else { return };
        TRACER.with(|t| {
            let mut guard = t.borrow_mut();
            let t = guard.as_mut().expect("tracer outlives its open spans");
            let end = t.epoch.elapsed().as_nanos() as u64;
            // The innermost open span sits near the end of the recording.
            let at = t
                .spans
                .iter()
                .rposition(|s| s.id == id)
                .expect("open span is recorded");
            let s = &mut t.spans[at];
            s.end_ns = end;
            s.work = work;
            if let Some(n) = name {
                s.name = n;
            }
            assert_eq!(t.stack.pop(), Some(id), "spans close innermost first");
        });
    }
}

/// Runs `f` inside a span.
pub fn span<R>(name: &'static str, arch: &'static str, f: impl FnOnce() -> R) -> R {
    let open = enter(name, arch);
    let r = f();
    open.exit();
    r
}

/// Spans as a JSON array (host times in microseconds), for the span file
/// the traced run writes when it ends.
pub fn spans_to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"arch\":\"{}\",\"group\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"work\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.arch,
                s.group,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.work
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Command vectors captured from `service_traced`, replayed by the DRAM
/// checker once the measured phase is over.
pub type CommandLog = Rc<RefCell<Vec<Vec<IssuedCommand>>>>;

/// A transparent timing decorator around a prepared session: every call
/// becomes an `nmp.hit` / `nmp.miss` (or `nmp.traced_hit` /
/// `nmp.traced_miss`) span carrying the batch's lookups as work. Cycles,
/// commands and stats pass through untouched.
pub struct Timed {
    inner: Box<dyn ServiceSession>,
    arch: &'static str,
    commands: Option<CommandLog>,
}

impl Timed {
    /// Wraps `inner`; `commands` (when given) receives a copy of every
    /// traced command vector, copied inside a `bench.instr` span.
    pub fn wrap(
        inner: Box<dyn ServiceSession>,
        arch: &'static str,
        commands: Option<CommandLog>,
    ) -> Box<dyn ServiceSession> {
        Box::new(Timed {
            inner,
            arch,
            commands,
        })
    }
}

impl ServiceSession for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service(&mut self, batch: &Batch) -> Cycle {
        let hits = self.inner.stats().hits;
        let open = enter("nmp.service", self.arch);
        let cycles = self.inner.service(batch);
        let hit = self.inner.stats().hits > hits;
        open.exit_as(
            if hit { "nmp.hit" } else { "nmp.miss" },
            batch.lookups() as u64,
        );
        cycles
    }

    fn service_traced(&mut self, batch: &Batch) -> (Cycle, Vec<IssuedCommand>) {
        let hits = self.inner.stats().hits;
        let open = enter("nmp.traced", self.arch);
        let (cycles, commands) = self.inner.service_traced(batch);
        let hit = self.inner.stats().hits > hits;
        open.exit_as(
            if hit {
                "nmp.traced_hit"
            } else {
                "nmp.traced_miss"
            },
            batch.lookups() as u64,
        );
        if let Some(log) = &self.commands {
            span("bench.instr", self.arch, || {
                log.borrow_mut().push(commands.clone())
            });
        }
        (cycles, commands)
    }

    fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    fn set_cache_enabled(&mut self, enabled: bool) {
        self.inner.set_cache_enabled(enabled);
    }

    fn set_cache_capacity(&mut self, capacity: usize) {
        self.inner.set_cache_capacity(capacity);
    }
}

/// What a [`CountingWriter`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Written {
    /// Bytes written.
    pub bytes: u64,
    /// FNV-1a digest of the bytes.
    pub digest: u64,
}

/// An `io::Write` that keeps nothing: it counts and digests the stream
/// (each `write` is an `obs.write` span when tracing).
pub struct CountingWriter(Rc<RefCell<(u64, Fnv)>>);

impl CountingWriter {
    /// A writer plus the handle that reads its totals afterwards.
    pub fn new() -> (Self, impl Fn() -> Written) {
        let state = Rc::new(RefCell::new((0, Fnv::new())));
        let read = {
            let state = Rc::clone(&state);
            move || {
                let s = state.borrow();
                Written {
                    bytes: s.0,
                    digest: s.1.finish(),
                }
            }
        };
        (CountingWriter(state), read)
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let open = enter("obs.write", "");
        let mut s = self.0.borrow_mut();
        s.0 += buf.len() as u64;
        s.1.update(buf);
        drop(s);
        open.exit_as("obs.write", buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
