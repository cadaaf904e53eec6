//! Structured observability for the A-QED verification stack.
//!
//! Three pieces, all dependency-free and offline-friendly:
//!
//! - a **tracing API**: RAII [`span`]s and typed instant [`event`]s with
//!   per-thread buffering, flushed in batches to a pluggable
//!   [`TraceSink`] (JSONL file for `--trace-out`, in-memory for tests);
//! - a **metrics registry** ([`metrics::MetricsRegistry`]) of named
//!   counters, gauges and log-bucketed histograms, updated by the layers
//!   at coarse points (COI and artifact cache lookups, daemon job
//!   outcomes), never per propagation;
//! - a **minimal JSON layer** ([`json`]) shared by the sinks, the
//!   `--report-json` serializer and the `trace_report` tool, since the
//!   build environment has no serde.
//!
//! # Overhead contract
//!
//! Everything is gated on two process-wide flags. With observability off
//! (the default) every entry point reduces to one relaxed atomic load:
//! [`span`] returns an inert guard without reading the clock, the
//! [`obs_event!`] / [`obs_span!`] macros do not even evaluate their field
//! expressions, and instrumentation sites skip metric updates. There are
//! no background threads; events reach the sink on batch overflow, thread
//! exit, or an explicit [`flush`]/[`uninstall_sink`].
//!
//! - [`enabled`] — master switch; gates metric recording. Set by
//!   [`set_enabled`] or implicitly by [`install_sink`].
//! - [`tracing_enabled`] — gates span/event recording; true only while a
//!   sink is installed.
//!
//! # Event schema
//!
//! One JSON object per line (JSONL), in per-thread order (the file as a
//! whole is *not* globally time-sorted — `trace_report` sorts):
//!
//! ```json
//! {"ts":123456,"tid":1,"ph":"B","name":"bmc.solve","args":{"depth":3}}
//! ```
//!
//! - `ts` — nanoseconds since the process-local trace epoch (u64)
//! - `tid` — small sequential id assigned per thread (u64, 1-based)
//! - `ph` — `"B"` (span begin), `"E"` (span end, name repeated so
//!   balance is checkable), `"I"` (instant event), `"b"`/`"e"` (async
//!   span begin/end, paired by `id` rather than thread stack order)
//! - `name` — static event name, dot-namespaced by layer
//!   (`sat.*`, `bmc.*`, `pipeline.*`, `obligation.*`, `portfolio.*`,
//!   `job.*`, ...)
//! - `id` — async span id (only on `"b"`/`"e"` events); process-unique,
//!   so one logical operation can be followed across threads (an
//!   obligation hopping between scheduler workers and portfolio solver
//!   threads)
//! - `args` — optional object of typed fields; numbers, strings, bools

pub mod aggregate;
pub mod json;
pub mod meter;
pub mod metrics;
pub mod recorder;
pub mod sink;

pub use meter::JobMeter;
pub use recorder::FlightRecorder;
pub use sink::{JsonlSink, MemorySink, TraceSink};

use std::cell::RefCell;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Master observability switch: gates metric recording (and is implied
/// by tracing). Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Event/span recording switch: true only while a sink is installed.
static TRACING: AtomicBool = AtomicBool::new(false);
/// Next per-thread trace id (1-based; 0 is never used).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Next async span id (1-based; 0 is never used).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn sink_slot() -> &'static Mutex<Option<Arc<dyn TraceSink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-local trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether observability (metric recording) is on. Instrumentation
/// sites check this before touching the clock or the registry.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether span/event recording is on (a sink is installed).
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns metric recording on or off without touching the trace sink.
/// Used by `--report-json` runs that want metrics but no event stream.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Installs `sink` as the process-wide trace sink and enables both
/// tracing and metrics. Replaces (and returns) any previous sink after
/// flushing the calling thread's buffer into it.
pub fn install_sink(sink: Arc<dyn TraceSink>) -> Option<Arc<dyn TraceSink>> {
    flush_thread();
    let prev = lock_slot().replace(sink);
    TRACING.store(true, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    prev
}

/// Disables tracing, flushes the calling thread's buffer and the sink,
/// and returns the sink. Metric recording stays in whatever state
/// [`set_enabled`] last chose.
pub fn uninstall_sink() -> Option<Arc<dyn TraceSink>> {
    TRACING.store(false, Ordering::Relaxed);
    flush_thread();
    let sink = lock_slot().take();
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// Flushes only the calling thread's buffer into the current sink,
/// without forcing the sink itself to flush.
///
/// Worker threads whose lifetime is managed by [`std::thread::scope`]
/// MUST call this before their closure returns: the scope signals
/// completion before thread-local destructors run, so the `ThreadBuf`
/// drop-flush races against the scope owner uninstalling the sink and
/// can silently lose the thread's tail of events.
pub fn flush_local() {
    let _ = TLS.try_with(|tls| tls.borrow_mut().flush());
}

/// Flushes only the calling thread's buffer into the current sink.
fn flush_thread() {
    flush_local();
}

fn lock_slot() -> std::sync::MutexGuard<'static, Option<Arc<dyn TraceSink>>> {
    sink_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn current_sink() -> Option<Arc<dyn TraceSink>> {
    lock_slot().clone()
}

/// A typed field value attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

macro_rules! impl_from_field {
    ($($t:ty => $v:ident via $conv:expr),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(x: $t) -> Self {
                #[allow(clippy::redundant_closure_call)]
                FieldValue::$v(($conv)(x))
            }
        })*
    };
}
impl_from_field! {
    u64 => U64 via |x| x,
    u32 => U64 via u64::from,
    usize => U64 via |x| x as u64,
    i64 => I64 via |x| x,
    i32 => I64 via i64::from,
    f64 => F64 via |x| x,
    bool => Bool via |x| x,
    String => Str via |x| x,
    &str => Str via str::to_owned,
}

/// A key/value pair on an event. Keys are static so the hot path never
/// allocates for them.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub key: &'static str,
    pub value: FieldValue,
}

/// Event phase, mirroring the Chrome trace-event vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin.
    Begin,
    /// Span end (name repeated for balance checking).
    End,
    /// Instant event.
    Instant,
    /// Async span begin — paired with [`Phase::AsyncEnd`] by `(name,
    /// id)` rather than per-thread stack order, so the span may cross
    /// threads.
    AsyncBegin,
    /// Async span end.
    AsyncEnd,
}

impl Phase {
    /// One-letter JSON code: `B`, `E`, `I`, `b`, or `e`.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "I",
            Phase::AsyncBegin => "b",
            Phase::AsyncEnd => "e",
        }
    }
}

/// A single trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Per-thread sequential id (1-based).
    pub tid: u64,
    pub phase: Phase,
    pub name: &'static str,
    /// Async span id; present exactly on [`Phase::AsyncBegin`] and
    /// [`Phase::AsyncEnd`] events.
    pub id: Option<u64>,
    pub fields: Vec<Field>,
}

const BATCH: usize = 128;

struct ThreadBuf {
    tid: u64,
    buf: Vec<TraceEvent>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            buf: Vec::new(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        self.buf.push(ev);
        if self.buf.len() >= BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if let Some(sink) = current_sink() {
            sink.write_batch(&self.buf);
        }
        self.buf.clear();
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

fn record(phase: Phase, name: &'static str, fields: Vec<Field>) {
    record_with_id(phase, name, None, fields);
}

fn record_with_id(phase: Phase, name: &'static str, id: Option<u64>, fields: Vec<Field>) {
    if !tracing_enabled() {
        return;
    }
    let ts_ns = now_ns();
    // try_with: survive records during thread teardown (TLS destroyed).
    let _ = TLS.try_with(|tls| {
        let mut b = tls.borrow_mut();
        let tid = b.tid;
        b.push(TraceEvent {
            ts_ns,
            tid,
            phase,
            name,
            id,
            fields,
        });
    });
}

/// Allocates a fresh, process-unique async span id.
#[must_use]
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_SPAN: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// The async span id most recently claimed by this thread (the
/// obligation currently being processed), or `None`. Fan-out layers —
/// the portfolio backend spawning solver threads — read this before
/// spawning so child-thread events can link back to their obligation.
#[must_use]
pub fn current_span_id() -> Option<u64> {
    CURRENT_SPAN.with(std::cell::Cell::get)
}

/// Marks `id` as the async span this thread is working under (`None`
/// clears it). Callers should restore the previous value when done.
pub fn set_current_span_id(id: Option<u64>) {
    CURRENT_SPAN.with(|c| c.set(id));
}

/// Records an instant event. Prefer the [`obs_event!`] macro, which
/// skips field construction entirely when tracing is off.
pub fn event(name: &'static str, fields: Vec<Field>) {
    record(Phase::Instant, name, fields);
}

/// Flushes the calling thread's buffer and the sink. Worker threads
/// flush automatically on exit; long-lived threads may call this at
/// natural boundaries.
pub fn flush() {
    let _ = TLS.try_with(|tls| tls.borrow_mut().flush());
    if let Some(sink) = current_sink() {
        sink.flush();
    }
}

/// RAII span guard: emits a `Begin` on creation (when tracing is on)
/// and the matching `End` on drop — including during unwinding, which
/// keeps traces balanced under `catch_unwind` panic isolation.
#[must_use = "a span ends when its guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    name: Option<&'static str>,
    end_fields: Vec<Field>,
}

impl SpanGuard {
    /// An inert guard (tracing was off at span entry).
    fn inactive() -> Self {
        SpanGuard {
            name: None,
            end_fields: Vec::new(),
        }
    }

    /// Whether the span actually recorded a `Begin`.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.name.is_some()
    }

    /// Attaches a field to the span's `End` event — for results only
    /// known at phase exit (e.g. clauses added by an encode step).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.name.is_some() {
            self.end_fields.push(Field {
                key,
                value: value.into(),
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            record(Phase::End, name, mem::take(&mut self.end_fields));
        }
    }
}

/// RAII guard for an *async* span: emits a `b` event on creation and the
/// matching `e` (same name and id) on drop. Unlike [`SpanGuard`], async
/// spans are paired by `(name, id)` rather than per-thread stack order,
/// so one logical operation can be traced across retries and threads.
#[must_use = "an async span ends when its guard is dropped"]
#[derive(Debug)]
pub struct AsyncSpanGuard {
    name: Option<&'static str>,
    id: u64,
    end_fields: Vec<Field>,
}

impl AsyncSpanGuard {
    /// The span's id (valid even when tracing is off, so callers can
    /// propagate it unconditionally).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the span actually recorded a `b` event.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.name.is_some()
    }

    /// Attaches a field to the span's `e` event.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.name.is_some() {
            self.end_fields.push(Field {
                key,
                value: value.into(),
            });
        }
    }
}

impl Drop for AsyncSpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            record_with_id(
                Phase::AsyncEnd,
                name,
                Some(self.id),
                mem::take(&mut self.end_fields),
            );
        }
    }
}

/// Opens an async span with the given id (allocate one with
/// [`next_span_id`]) and entry fields on its `b` event.
pub fn async_span(name: &'static str, id: u64, fields: Vec<Field>) -> AsyncSpanGuard {
    if !tracing_enabled() {
        return AsyncSpanGuard {
            name: None,
            id,
            end_fields: Vec::new(),
        };
    }
    record_with_id(Phase::AsyncBegin, name, Some(id), fields);
    AsyncSpanGuard {
        name: Some(name),
        id,
        end_fields: Vec::new(),
    }
}

/// Opens a span. Prefer [`obs_span!`] when attaching entry fields.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Opens a span with entry fields on its `Begin` event.
pub fn span_with(name: &'static str, fields: Vec<Field>) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inactive();
    }
    record(Phase::Begin, name, fields);
    SpanGuard {
        name: Some(name),
        end_fields: Vec::new(),
    }
}

/// Builds a `Vec<Field>` from `key = value` pairs.
#[macro_export]
macro_rules! obs_fields {
    ($($k:ident = $v:expr),* $(,)?) => {
        vec![$($crate::Field { key: stringify!($k), value: $crate::FieldValue::from($v) }),*]
    };
}

/// Records an instant event; field expressions are not evaluated when
/// tracing is off.
#[macro_export]
macro_rules! obs_event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            $crate::event($name, $crate::obs_fields!($($k = $v),*));
        }
    };
}

/// Opens a span with entry fields; field expressions are not evaluated
/// when tracing is off. Bind the result: `let _g = obs_span!(...)`.
#[macro_export]
macro_rules! obs_span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            $crate::span_with($name, $crate::obs_fields!($($k = $v),*))
        } else {
            $crate::span($name)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave: the sink slot and the
    /// enabled flags are process-wide.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn with_memory_sink(f: impl FnOnce(&MemorySink)) -> Vec<TraceEvent> {
        let sink = Arc::new(MemorySink::new());
        install_sink(sink.clone());
        f(&sink);
        uninstall_sink();
        set_enabled(false);
        sink.events()
    }

    #[test]
    fn disabled_records_nothing_and_reads_no_clock() {
        let _s = serial();
        uninstall_sink();
        set_enabled(false);
        assert!(!enabled());
        assert!(!tracing_enabled());
        let mut g = span("phase");
        assert!(!g.is_active());
        g.record("k", 1u64);
        drop(g);
        event("ev", obs_fields!(x = 1u64));
        obs_event!("ev2", y = 2u64);
        // Nothing buffered: installing a sink now must observe zero events.
        let sink = Arc::new(MemorySink::new());
        install_sink(sink.clone());
        flush();
        uninstall_sink();
        set_enabled(false);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn spans_balance_including_under_panic() {
        let _s = serial();
        let events = with_memory_sink(|_| {
            let outer = span("outer");
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _inner = obs_span!("inner", depth = 3u64);
                panic!("boom");
            }));
            assert!(r.is_err());
            drop(outer);
            flush();
        });
        let codes: Vec<(&str, &str)> = events.iter().map(|e| (e.phase.code(), e.name)).collect();
        assert_eq!(
            codes,
            vec![
                ("B", "outer"),
                ("B", "inner"),
                ("E", "inner"),
                ("E", "outer")
            ]
        );
    }

    #[test]
    fn end_fields_ride_on_the_end_event() {
        let _s = serial();
        let events = with_memory_sink(|_| {
            let mut g = obs_span!("encode", depth = 2u64);
            g.record("clauses", 17u64);
            drop(g);
            flush();
        });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fields, obs_fields!(depth = 2u64));
        assert_eq!(events[1].fields, obs_fields!(clauses = 17u64));
        assert_eq!(events[1].phase, Phase::End);
    }

    #[test]
    fn worker_threads_flush_on_exit_with_distinct_tids() {
        let _s = serial();
        let events = with_memory_sink(|_| {
            let h1 = std::thread::spawn(|| obs_event!("w", n = 1u64));
            let h2 = std::thread::spawn(|| obs_event!("w", n = 2u64));
            h1.join().unwrap();
            h2.join().unwrap();
        });
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
        assert!(events.iter().all(|e| e.tid > 0));
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let _s = serial();
        let events = with_memory_sink(|_| {
            for _ in 0..10 {
                obs_event!("tick");
            }
            flush();
        });
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }
}
