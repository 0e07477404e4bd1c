//! In-memory spans around the benchmark's calls into each layer, written
//! out at the end as Chrome trace-event JSON (Perfetto opens it) and folded
//! into a per-layer table of total time, self time and call counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Trace process: one per ledger phase.
    pub pid: u32,
    /// Trace thread: one track within the phase.
    pub tid: u64,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records spans on one thread. A disabled tracer records nothing, so the
/// same instrumented code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pid: u32,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    phases: Vec<(u32, String)>,
}

/// Handle of an open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            pid: 0,
            spans: Vec::new(),
            open: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Starts a new trace process (a ledger phase) and returns its id;
    /// later spans belong to it.
    pub fn phase(&mut self, name: &str) -> u32 {
        self.pid += 1;
        self.phases.push((self.pid, name.to_string()));
        self.pid
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            pid: self.pid,
            tid: 0,
            start_us: micros(now.duration_since(self.origin).as_secs_f64()),
            dur_us: 0.0,
            parent: self.open.last().map(|&(parent, _)| parent),
        });
        self.open.push((index, now));
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`] (spans close innermost
    /// first).
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let (top, started) = self.open.pop().expect("a span is open");
        debug_assert_eq!(top, index, "spans close innermost first");
        self.spans[index].dur_us = micros(started.elapsed().as_secs_f64());
    }

    /// Records a finished span inside the innermost open one, placed
    /// explicitly (seconds since the tracer's origin).
    pub fn record_nested(&mut self, name: &str, start_s: f64, dur_s: f64) {
        let parent = self.open.last().map(|&(parent, _)| parent);
        self.record(name, 0, start_s, dur_s, parent);
    }

    /// Records a finished span with explicit placement (seconds since the
    /// tracer's origin), track and parent, outside the nesting stack.
    pub fn record(
        &mut self,
        name: &str,
        tid: u64,
        start_s: f64,
        dur_s: f64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            pid: self.pid,
            tid,
            start_us: micros(start_s),
            dur_us: micros(dur_s),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Seconds since the tracer's origin.
    pub fn seconds_at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as Chrome trace-event JSON: complete (`"X"`) events plus a
    /// process-name record per phase.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (pid, name) in &self.phases {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"args\": {{\"name\": {}}}}}",
                gnnerator_serve::json::json_string(name)
            );
        }
        for span in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}}}",
                gnnerator_serve::json::json_string(&span.name),
                gnnerator_serve::json::json_string(layer_of(&span.name)),
                span.start_us,
                span.dur_us,
                span.pid,
                span.tid
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn micros(seconds: f64) -> f64 {
    seconds * 1e6
}

/// The layer a span name belongs to: its name up to the last dot
/// (`graph.cache.store` is in layer `graph.cache`).
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Totals for one span name within one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

/// Folds spans into per-`(phase, name)` totals.
pub fn totals(spans: &[Span]) -> BTreeMap<(u32, String), Totals> {
    let mut child_us = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_us[parent] += span.dur_us;
        }
    }
    let mut out: BTreeMap<(u32, String), Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_us) {
        let entry = out.entry((span.pid, span.name.clone())).or_default();
        entry.count += 1;
        entry.total_s += span.dur_us / 1e6;
        entry.self_s += (span.dur_us - children).max(0.0) / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        tracer.phase("test");
        let outer = tracer.begin("core.session.build");
        let inner = tracer.begin("graph.cache.load");
        std::thread::sleep(std::time::Duration::from_millis(20));
        tracer.end(inner);
        tracer.end(outer);
        let totals = totals(tracer.spans());
        let outer = totals[&(1, "core.session.build".to_string())];
        let inner = totals[&(1, "graph.cache.load".to_string())];
        assert_eq!(outer.count, 1);
        assert!(inner.total_s >= 0.02);
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.phase("off");
        let open = tracer.begin("core.simulator.walk");
        tracer.end(open);
        assert!(tracer.record("serve.evaluate", 1, 0.0, 1.0, None).is_none());
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses_and_names_phases() {
        let mut tracer = Tracer::new(true);
        tracer.phase("sweep-cold");
        let open = tracer.begin("graph.datasets.synthesize");
        tracer.end(open);
        let text = tracer.chrome_json();
        let json = gnnerator_serve::Json::parse(&text).expect("valid JSON");
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            events[1].get("cat").unwrap().as_str(),
            Some("graph.datasets")
        );
        assert_eq!(layer_of("serve"), "serve");
    }
}
