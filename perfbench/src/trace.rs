//! Benchmark-side spans: one span per call the benchmark makes into a layer's
//! public API, kept in memory and written out when the run ends.
//!
//! A disabled tracer records nothing and costs one branch per call, so the
//! same workload code serves untraced (end-to-end) and traced (per-layer)
//! runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (batch, schedule, registry pass) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans; `enabled == false` turns every call into a no-op.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the calls that follow (used to
    /// interleave traced and untraced operations in one run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("close matches an open span");
        self.spans[index].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, op);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self time (µs) summed per span name: each span's duration minus the
    /// part of it its recorded children cover. Children never overlap each
    /// other (one caller, strictly nested), so the covered part is the sum of
    /// the children's durations.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.duration_us();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_us) {
            *totals.entry(span.name).or_insert(0.0) += span.duration_us() - covered;
        }
        totals
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}{}",
                span.name,
                span.op,
                span.start_us,
                span.end_us,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.open("root", 1);
        t.span("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_time_us();
        let root_total = spans[0].duration_us();
        assert!((selfs["root"] + selfs["child"] - root_total).abs() < 1e-6);
        assert!(selfs["child"] >= 5_000.0);
        assert!(t.to_json().contains("\"parent\": 0"));
    }
}
