//! The `--profile` report: per-stage wall time and iteration counts plus
//! pool scheduling totals.
//!
//! This module only holds the accumulator. A run's report lives in its
//! `foldic-fault` run context, and `foldic-exec`'s profile hooks
//! (`stage`, `add_iters`, the pool's fan-out stats) feed the report of
//! the context the calling thread runs under.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Accumulated numbers for one stage name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage ran.
    pub calls: u64,
    /// Total wall time across calls.
    pub wall: Duration,
    /// Iterations reported by the stage's inner loops.
    pub iters: u64,
}

/// A profiling report: per-stage numbers plus pool scheduling stats.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-stage accumulators, keyed by (possibly nested) stage name.
    pub stages: BTreeMap<String, StageStats>,
    /// Total jobs executed by the pool while profiling was on.
    pub jobs: usize,
    /// Total steals across pool runs.
    pub steals: usize,
    /// Largest queue backlog any pool run observed.
    pub peak_queue_depth: usize,
    /// Number of pool fan-outs.
    pub runs: usize,
}

impl Report {
    /// Records one finished call of stage `name`.
    pub fn record_stage(&mut self, name: String, wall: Duration) {
        let e = self.stages.entry(name).or_default();
        e.calls += 1;
        e.wall += wall;
    }

    /// Adds `n` iterations to stage `name`.
    pub fn add_iters(&mut self, name: String, n: u64) {
        self.stages.entry(name).or_default().iters += n;
    }

    /// Folds one pool fan-out's scheduling stats into the totals.
    pub fn note_run(&mut self, jobs: usize, steals: usize, peak_queue_depth: usize) {
        self.jobs += jobs;
        self.steals += steals;
        self.peak_queue_depth = self.peak_queue_depth.max(peak_queue_depth);
        self.runs += 1;
    }

    /// Total wall time across *top-level* stages (nested `outer/inner`
    /// entries already count inside their parent's wall). This is the
    /// denominator of the `share` column.
    pub fn total_wall(&self) -> Duration {
        self.stages
            .iter()
            .filter(|(name, _)| !name.contains('/'))
            .map(|(_, s)| s.wall)
            .sum()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>8} {:>12} {:>8} {:>14} {:>12}",
            "stage", "calls", "wall ms", "share", "iters", "ms/call"
        )?;
        let total = self.total_wall().as_secs_f64().max(1e-12);
        for (name, s) in &self.stages {
            let ms = s.wall.as_secs_f64() * 1e3;
            writeln!(
                f,
                "{:<28} {:>8} {:>12.2} {:>7.1}% {:>14} {:>12.3}",
                name,
                s.calls,
                ms,
                s.wall.as_secs_f64() / total * 100.0,
                s.iters,
                ms / s.calls.max(1) as f64
            )?;
        }
        writeln!(
            f,
            "pool: {} jobs over {} fan-outs, {} steals ({:.3} steals/job), peak queue depth {}",
            self.jobs,
            self.runs,
            self.steals,
            self.steals as f64 / self.jobs.max(1) as f64,
            self.peak_queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_header_has_share_column_and_steal_rate() {
        let mut report = Report::default();
        report.record_stage("place".to_owned(), Duration::from_millis(30));
        report.add_iters("place".to_owned(), 5);
        report.record_stage("route".to_owned(), Duration::from_millis(10));
        report.record_stage("place/inner".to_owned(), Duration::from_millis(5));
        report.jobs = 8;
        report.steals = 2;
        let rendered = report.to_string();
        let header = rendered.lines().next().unwrap();
        for col in ["stage", "calls", "wall ms", "share", "iters", "ms/call"] {
            assert!(header.contains(col), "header missing {col:?}: {header}");
        }
        // shares are percentages of top-level wall (30 + 10 ms)
        let place = rendered.lines().find(|l| l.starts_with("place ")).unwrap();
        assert!(place.contains("75.0%"), "{place}");
        assert!(
            rendered.contains("0.250 steals/job"),
            "pool line reports steals/job: {rendered}"
        );
    }
}
