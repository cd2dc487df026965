//! Trace sinks: where events go.
//!
//! A [`TraceSink`] receives every [`TraceEvent`] an instrumented component
//! emits, in emission order. Sinks are shared across threads behind an
//! [`Arc`] ([`SharedSink`]); attaching one to a `Database` or planner is
//! the *only* cost the observability layer adds — with no sink attached,
//! the emitting code is a single `Option` check per iteration and the
//! engine's `IoStats` and answers are bit-identical to an uninstrumented
//! build (regression-tested in `tests/observability.rs`).
//!
//! Two implementations cover the common cases:
//!
//! * [`RingSink`] — a bounded in-memory ring buffer. Cheap, allocation-
//!   stable once warm, keeps the *last* `capacity` events (oldest are
//!   dropped and counted). The tool for tests, the `STATS`-style
//!   introspection of a live server, and post-mortem "what were the last
//!   N things the engine did".
//! * [`JsonlSink`] — renders each event as one JSON line into any
//!   `Write` (typically a file). The tool for offline analysis: the
//!   worked example in `OBSERVABILITY.md` is a JSONL trace annotated
//!   line-by-line against the paper's Table 3.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A destination for trace events. Implementations must tolerate
/// concurrent `record` calls (the route server plans from many client
/// threads against one shared sink).
pub trait TraceSink: Send + Sync {
    /// Records one event. Ordering within one emitting thread is
    /// preserved by every provided sink.
    fn record(&self, event: &TraceEvent);
}

/// A sink shared by everything observing one system.
pub type SharedSink = Arc<dyn TraceSink>;

struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded in-memory sink keeping the most recent events.
pub struct RingSink {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingSink {
    /// A ring keeping the last `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// A shared ring, ready to hand to `with_trace_sink` while keeping a
    /// handle for reading events back.
    pub fn shared(capacity: usize) -> Arc<RingSink> {
        Arc::new(RingSink::new(capacity))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Clears the ring (the dropped count too).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.events.clear();
        inner.dropped = 0;
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut inner = self.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event.clone());
    }
}

/// A sink rendering each event as one JSON line into a writer.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
    write_errors: AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) `path` and streams events into it, buffered.
    ///
    /// # Errors
    /// Propagates the file-creation error.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink::from_writer(BufWriter::new(File::create(path)?)))
    }

    /// Streams events into any writer (a `Vec<u8>` in tests, a socket, …).
    pub fn from_writer<W: Write + Send + 'static>(writer: W) -> JsonlSink {
        JsonlSink {
            writer: Mutex::new(Box::new(writer)),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    /// Propagates the flush error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .flush()
    }

    /// Write/flush failures swallowed so far — `record` cannot return
    /// errors, so they are counted instead of lost.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let line = event.to_json();
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        if writeln!(w, "{line}").is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ServeEvent;
    use std::sync::mpsc;

    fn ev(n: u32) -> TraceEvent {
        TraceEvent::RunStarted {
            algorithm: format!("a{n}"),
            source: n,
            destination: n + 1,
        }
    }

    #[test]
    fn ring_preserves_emission_order() {
        let ring = RingSink::new(16);
        for n in 0..5 {
            ring.record(&ev(n));
        }
        let events = ring.events();
        assert_eq!(events.len(), 5);
        for (n, e) in events.iter().enumerate() {
            assert_eq!(*e, ev(n as u32), "event {n} out of order");
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let ring = RingSink::new(3);
        for n in 0..7 {
            ring.record(&ev(n));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], ev(4), "oldest surviving event");
        assert_eq!(events[2], ev(6), "newest event");
        assert_eq!(ring.dropped(), 4);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let ring = RingSink::new(0);
        ring.record(&ev(1));
        ring.record(&ev(2));
        assert_eq!(ring.events(), vec![ev(2)]);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        // Smuggle the bytes out through a channel-backed writer: the sink
        // owns its writer, so tests observe output via a side channel.
        struct Tx(mpsc::Sender<Vec<u8>>);
        impl Write for Tx {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let _ = self.0.send(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        let sink = JsonlSink::from_writer(Tx(tx));
        sink.record(&ev(9));
        sink.record(&TraceEvent::Serve(ServeEvent::AlgorithmDegraded {
            request: 1,
            from: "primary".into(),
            to: "dijkstra".into(),
            reason: "storage error".into(),
            at_tick: 2,
        }));
        drop(sink);
        let bytes: Vec<u8> = rx.try_iter().flatten().collect();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"type":"run_started""#));
        assert!(lines[1].contains(r#""type":"serve_algorithm_degraded""#));
    }

    #[test]
    fn shared_sink_is_object_safe() {
        let ring = RingSink::shared(4);
        let shared: SharedSink = ring.clone();
        shared.record(&ev(0));
        assert_eq!(ring.len(), 1);
    }
}
