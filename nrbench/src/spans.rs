//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Nothing is written until the run ends; then the
//! spans go out in the gw-obs Chrome-trace format, which `trace_check`
//! and Perfetto read.

use gw_obs::{Trace, TraceEvent};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Trace thread id for the benchmark's own spans, clear of the dense ids
/// the program's probe hands out to its threads.
const BENCH_TID: u64 = 1000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when on; when off, `span` only runs its closure.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`. Spans opened by `f` through the
    /// recorder it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        let end_us = self.now_us();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
        self.spans[id].end_us = end_us;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name (ms): each span's duration minus the part
    /// its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            *out.entry(s.name).or_insert(0.0) += (s.dur_us() - c) / 1e3;
        }
        out
    }

    /// Total duration (ms) and count of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_us() / 1e3, n + 1))
    }

    /// The spans as a gw-obs trace. `extra` events (e.g. the program's own
    /// probe spans) are appended, shifted by `extra_offset_us`.
    pub fn to_trace(
        &self,
        counters: Vec<(&'static str, u64)>,
        extra: &[TraceEvent],
        extra_offset_us: f64,
    ) -> Trace {
        let mut events: Vec<TraceEvent> = self
            .spans
            .iter()
            .map(|s| TraceEvent {
                name: s.name,
                cat: s.name,
                parent: s.parent.map(|p| self.spans[p].name),
                ts_us: s.start_us,
                dur_us: s.dur_us(),
                tid: BENCH_TID,
            })
            .collect();
        events.extend(extra.iter().map(|e| TraceEvent { ts_us: e.ts_us + extra_offset_us, ..*e }));
        Trace { events, counters, wall_ms: self.now_us() / 1e3 }
    }

    /// Write the spans as a Chrome-trace file.
    pub fn write(
        &self,
        path: &Path,
        counters: Vec<(&'static str, u64)>,
        extra: &[TraceEvent],
        extra_offset_us: f64,
    ) -> std::io::Result<()> {
        self.to_trace(counters, extra, extra_offset_us).write_to(path, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("step", |rec| {
            rec.span("o2p", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            rec.span("rhs", |_| std::thread::sleep(std::time::Duration::from_millis(3)));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        for child in &spans[1..] {
            assert!(child.start_us >= spans[0].start_us && child.end_us <= spans[0].end_us);
        }
        let selfs = rec.self_ms();
        let children = selfs["o2p"] + selfs["rhs"];
        assert!(selfs["step"] >= 0.0 && selfs["step"] < 0.5 * children);
        let (step_ms, n) = rec.total_ms("step");
        assert_eq!(n, 1);
        assert!((step_ms - selfs["step"] - children).abs() < 1e-9);
    }

    #[test]
    fn off_recorder_runs_closures_and_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("step", |rec| rec.span("rhs", |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn trace_file_validates_with_gw_obs() {
        let mut rec = Recorder::new(true);
        rec.span("step", |rec| {
            rec.span("o2p", |_| ());
            rec.span("rhs", |_| ());
        });
        let text = rec.to_trace(vec![("steps", 1)], &[], 0.0).render(&[]);
        let stats = gw_obs::json::validate_trace(&text).expect("schema-valid trace");
        assert_eq!(stats.events, 3);
    }
}
