//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the layer crates' public entry
//! points: name, start, end and the span that caused it. They are kept in
//! memory and summarised when the run ends. A disabled recorder calls the
//! wrapped function and reads no clock, so untraced runs pay nothing.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Id of the innermost open span on this thread, to parent spans that
    /// run on pool workers.
    pub fn current(&self) -> u64 {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span whose parent is this thread's open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.current();
        self.span_under(parent, name, f)
    }

    /// Runs `f` inside a span with an explicit parent (for work handed to
    /// another thread).
    pub fn span_under<R>(&self, parent: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace(id));
        let start = self.t0.elapsed().as_secs_f64();
        let out = f();
        let end = self.t0.elapsed().as_secs_f64();
        CURRENT.with(|c| c.set(outer));
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking job")
            .push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        out
    }

    /// Adds to a named work counter (only while tracing).
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("counter map poisoned by a panicking job")
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    /// Drains the recorded spans and counters.
    pub fn take(&self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        let counts = std::mem::take(&mut *self.counts.lock().expect("counter map poisoned"));
        (spans, counts)
    }
}

/// Summary views over a finished set of spans.
pub struct Summary {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Summary {
    pub fn calls(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).count() as f64
    }

    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    pub fn max(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, f64::max)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Wall time covered by at least one span other than `root`s.
    pub fn covered_excluding(&self, root: &str) -> f64 {
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.name != root)
            .map(|s| (s.start, s.end))
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut open: Option<(f64, f64)> = None;
        for (s, e) in iv {
            open = match open {
                Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
                Some((os, oe)) => {
                    covered += oe - os;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((os, oe)) = open {
            covered += oe - os;
        }
        covered
    }

    /// Sum of the durations of spans with no child span (self time of the
    /// layer calls, not of the job wrappers around them).
    pub fn leaf_busy(&self) -> f64 {
        let parents: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.parent).collect();
        self.spans
            .iter()
            .filter(|s| !parents.contains(&s.id))
            .map(Span::secs)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_nesting_links_parents() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", || 7), 7);
        off.count("n", 1.0);
        let (spans, counts) = off.take();
        assert!(spans.is_empty() && counts.is_empty());

        let on = Tracer::new(true);
        on.span("outer", || on.span("inner", || ()));
        on.count("n", 2.0);
        let (spans, counts) = on.take();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(counts["n"], 2.0);
        let summary = Summary { spans, counts };
        assert_eq!(summary.calls("inner"), 1.0);
        assert!(summary.leaf_busy() <= summary.busy("outer") + 1e-9);
    }

    #[test]
    fn coverage_merges_overlapping_intervals() {
        let mk = |id, start, end| Span {
            id,
            parent: 0,
            name: "x",
            start,
            end,
        };
        let summary = Summary {
            spans: vec![mk(1, 0.0, 2.0), mk(2, 1.0, 3.0), mk(3, 5.0, 6.0)],
            counts: BTreeMap::new(),
        };
        assert!((summary.covered_excluding("pass") - 4.0).abs() < 1e-12);
    }
}
