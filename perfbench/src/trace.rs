//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Each thread records into its own [`Tracer`]; the tracers are merged
//! into one [`Trace`] and written out when the run ends, so recording
//! costs one `Instant::now()` pair and a `Vec` push per span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Reserves `n` consecutive span ids and returns the first, for spans
/// whose children are recorded (on another thread) before they end.
pub fn reserve_ids(n: u64) -> u64 {
    NEXT_SPAN.fetch_add(n, Ordering::Relaxed)
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer and call, e.g. `serve.wire.reply_parse`.
    pub name: &'static str,
    /// Request id shared by every span of one request (0 when none).
    pub request: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

/// A per-thread span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = reserve_ids(1);
        self.record_with_id(id, name, parent, request, start, end);
        id
    }

    /// Records a finished span under an id from [`reserve_ids`].
    pub fn record_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Every span of a run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Adds one thread's spans.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, one span a line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_their_parent_and_request() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Tracer::new(epoch, true);
        let root = t.record("request", 0, 7, at(0), at(10));
        let child = t.record("send", root, 7, at(0), at(2));
        let mut trace = Trace::default();
        trace.absorb(t.into_spans());
        assert_eq!(trace.len(), 2);
        let lines = trace.to_json_lines();
        let lines: Vec<&str> = lines.lines().collect();
        assert_eq!(
            lines[1],
            format!(
                "{{\"id\":{child},\"parent\":{root},\"name\":\"send\",\"request\":7,\"start_ns\":0,\"end_ns\":2000000}}"
            )
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", 0, 0, || 5), 5);
        assert_eq!(t.record("y", 0, 0, Instant::now(), Instant::now()), 0);
        assert!(t.into_spans().is_empty());
    }
}
