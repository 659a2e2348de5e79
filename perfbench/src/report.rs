//! Metric catalogue, statistics helpers, reference digests and the
//! result lines the benchmark prints.

use foldic_obs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Every per-layer metric, with its unit. A traced run of any workload
/// reports all of them; a layer the workload never calls reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("t2gen.generate_s", "s"),
    ("floorplan.calls", "count"),
    ("floorplan.busy_s", "s"),
    ("core.budgets_s", "s"),
    ("place.calls", "count"),
    ("place.busy_s", "s"),
    ("place.us_per_cell", "us"),
    ("opt.calls", "count"),
    ("opt.busy_s", "s"),
    ("opt.us_per_cell", "us"),
    ("opt.buffers_added", "count"),
    ("route.calls", "count"),
    ("route.busy_s", "s"),
    ("route.us_per_net", "us"),
    ("timing.calls", "count"),
    ("timing.busy_s", "s"),
    ("power.calls", "count"),
    ("power.busy_s", "s"),
    ("partition.calls", "count"),
    ("partition.busy_s", "s"),
    ("partition.cut_total", "count"),
    ("fold.calls", "count"),
    ("fold.busy_s", "s"),
    ("fold.spc_busy_s", "s"),
    ("fold.vias_total", "count"),
    ("exec.utilization", "frac"),
    ("exec.max_job_s", "s"),
    ("core.residual_s", "s"),
    ("experiments.table1_s", "s"),
    ("experiments.table2_s", "s"),
    ("experiments.table3_s", "s"),
    ("experiments.table4_s", "s"),
    ("experiments.fig2_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.fig6_s", "s"),
    ("experiments.fig7_s", "s"),
    ("experiments.fig8_s", "s"),
    ("experiments.table5_s", "s"),
    ("experiments.thermal_s", "s"),
    ("experiments.ablations_s", "s"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.wait_ms_mean", "ms"),
    ("serve.queue_high_water", "count"),
    ("serve.run_ms_mean", "ms"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.cache_insertions", "count"),
    ("serve.requests_per_job", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("compute_p90_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
];

/// Every end-to-end metric; an untraced run of any workload reports all
/// of them.
pub const E2E_METRICS: [&str; 4] = [
    "setup_s",
    "latency_ms",
    "goodput_jobs_per_s",
    "peak_rss_mib",
];

/// Unit of an end-to-end metric.
pub fn e2e_unit(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "peak_rss_mib" => "MiB",
        "goodput_jobs_per_s" => "1/s",
        _ => "ms",
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (for medians and percentiles).
    pub samples: Option<usize>,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable description of each failure (printed, capped).
    pub failures: Vec<String>,
    pub e2e: Vec<Metric>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Self-description recorded with the results (threads, sizes, ...).
    pub info: BTreeMap<String, Json>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit: e2e_unit(name),
            samples: Some(samples),
        });
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name.to_owned(), value);
    }

    pub fn info(&mut self, key: &str, value: Json) {
        self.info.insert(key.to_owned(), value);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn failed_metric(&self) -> Metric {
        Metric {
            name: "failed_frac".to_owned(),
            value: self.failed_frac(),
            unit: "frac",
            samples: Some(self.attempted as usize),
        }
    }

    /// Every per-layer metric in catalogue order, zero where the workload
    /// never entered the layer.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_owned(),
                value: if name == "failed_frac" {
                    self.failed_frac()
                } else {
                    self.layers.get(name).copied().unwrap_or(0.0)
                },
                unit,
                samples: None,
            })
            .collect()
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value".to_owned(), Json::Num(m.value)),
                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
            ]),
        )
    }))
}

/// The contract line: `correct`, `attempted`, `failed` and the metrics of
/// this run's mode.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        outcome.layer_metrics()
    } else {
        outcome.e2e.clone()
    };
    Json::obj([
        ("correct".to_owned(), Json::Bool(outcome.failed == 0)),
        ("attempted".to_owned(), Json::Num(outcome.attempted as f64)),
        ("failed".to_owned(), Json::Num(outcome.failed as f64)),
        ("metrics".to_owned(), metrics_json(&metrics)),
    ])
    .to_compact()
}

/// The self-describing record: every metric with unit and sample count,
/// plus the run's settings.
pub fn record_line(outcome: &Outcome, traced: bool) -> String {
    let mut all = outcome.e2e.clone();
    if traced {
        all.extend(outcome.layer_metrics());
    } else {
        all.push(outcome.failed_metric());
    }
    let samples = Json::obj(
        all.iter()
            .filter_map(|m| m.samples.map(|n| (m.name.clone(), Json::Num(n as f64)))),
    );
    let mut fields: Vec<(String, Json)> = outcome.info.clone().into_iter().collect();
    fields.push((
        "schema".to_owned(),
        Json::Str("foldic-perfbench-record/1".to_owned()),
    ));
    fields.push(("metrics".to_owned(), metrics_json(&all)));
    fields.push(("samples".to_owned(), samples));
    Json::obj(fields).to_compact()
}

/// A human-readable table of every metric the run measured.
pub fn table(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    let mut row = |m: &Metric| {
        let samples = m.samples.map_or(String::new(), |n| format!("n={n}"));
        out.push_str(&format!(
            "  {:<28} {:>16.6} {:<6} {}\n",
            m.name, m.value, m.unit, samples
        ));
    };
    for m in &outcome.e2e {
        row(m);
    }
    if traced {
        for m in outcome.layer_metrics() {
            row(&m);
        }
    } else {
        row(&outcome.failed_metric());
    }
    out
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`p` in `[0, 1]`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The manifest's FNV-1a digest of a value's exact `Debug` rendering
/// (floats print as their shortest round-trip form, so equal digests mean
/// bit-identical values).
pub fn digest<T: std::fmt::Debug>(value: &T) -> String {
    foldic_obs::manifest::digest_report(&format!("{value:?}"))
}

/// Reference digests: key → `fnv64:…`.
pub type Digests = BTreeMap<String, String>;

pub fn read_refs(path: &Path) -> Result<Digests, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read references {}: {e}", path.display()))?;
    let mut refs = Digests::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed reference line `{line}`"))?;
        refs.insert(key.to_owned(), value.trim().to_owned());
    }
    Ok(refs)
}

pub fn write_refs(path: &Path, refs: &Digests) -> Result<(), String> {
    let text: String = refs.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Compares one pass's digests with the references; every missing,
/// extra or differing key is a failure.
pub fn check_digests(out: &mut Outcome, what: &str, got: &Digests, want: &Digests) {
    for (key, value) in want {
        match got.get(key) {
            Some(v) if v == value => {}
            Some(v) => out.fail(format!("{what}: {key} digest {v} != reference {value}")),
            None => out.fail(format!("{what}: {key} missing from the output")),
        }
    }
    for key in got.keys().filter(|k| !want.contains_key(*k)) {
        out.fail(format!("{what}: {key} has no reference"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn digest_mismatches_count_as_failures() {
        let mut out = Outcome::default();
        let want: Digests = [("a".into(), "x".into()), ("b".into(), "y".into())].into();
        let got: Digests = [("a".into(), "x".into()), ("c".into(), "z".into())].into();
        check_digests(&mut out, "t", &got, &want);
        assert_eq!(out.failed, 2);
    }
}
