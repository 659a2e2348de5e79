//! Short runs of every workload at its own design size and the default
//! seed: each named metric is emitted, every output check against the
//! stored references passes, and a corrupted reference digest is reported
//! as a failure rather than skipped.

use foldic_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_foldic-perfbench");

/// Runs the benchmark and parses its last stdout line.
fn run(args: &[&str]) -> Json {
    run_recorded(args).1
}

/// Runs the benchmark and parses its record line and its result line.
fn run_recorded(args: &[&str]) -> (Json, Json) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let last = lines.next().expect("benchmark printed a result");
    let record = lines.next().expect("benchmark printed a record");
    (
        Json::parse(record).expect("record line is JSON"),
        Json::parse(last).expect("last line is JSON"),
    )
}

/// Metric names listed in a `--list` section.
fn listed(section: &str) -> Vec<String> {
    let out = Command::new(BIN)
        .arg("--list")
        .output()
        .expect("--list runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let body = text
        .split_once(section)
        .expect("section present")
        .1
        .lines()
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .collect::<Vec<_>>();
    body.into_iter().map(|w| w[0].to_owned()).collect()
}

/// Metric names and units of one section of `BENCHMARK.json`, sorted.
fn manifest(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let mut names: Vec<(String, String)> = match json.get(section) {
        Some(Json::Arr(metrics)) => metrics.iter().map(name_unit).collect(),
        other => panic!("BENCHMARK.json has no {section} list: {other:?}"),
    };
    names.sort();
    names
}

fn name_unit(metric: &Json) -> (String, String) {
    match (metric.get("name"), metric.get("unit")) {
        (Some(Json::Str(name)), Some(Json::Str(unit))) => (name.clone(), unit.clone()),
        _ => panic!("metric without a name and a unit: {metric:?}"),
    }
}

/// Metric names and units of a result line, sorted.
fn metric_names(result: &Json) -> Vec<(String, String)> {
    let mut names: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| match m.get("unit") {
            Some(Json::Str(unit)) => (name.clone(), unit.clone()),
            other => panic!("{name} without a unit: {other:?}"),
        })
        .collect();
    names.sort();
    names
}

fn assert_clean(result: &Json, what: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{what}"
    );
}

fn smoke(workload: &str) {
    // the default seed at the workload's own size: checked against the
    // stored references
    let base = ["--workload", workload, "--seconds", "1"];
    let untraced = run(&[&base[..], &["--trace", "0"]].concat());
    assert_clean(&untraced, workload);
    assert_eq!(
        metric_names(&untraced),
        manifest("end_to_end"),
        "{workload} end-to-end metrics"
    );

    let traced = run(&[&base[..], &["--trace", "1"]].concat());
    assert_clean(&traced, workload);
    assert_eq!(
        metric_names(&traced),
        manifest("per_layer"),
        "{workload} per-layer metrics"
    );
    let failed_frac = traced
        .get("metrics")
        .and_then(|m| m.get("failed_frac"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert_eq!(failed_frac, Some(0.0), "{workload} failed_frac");
}

#[test]
fn chip_2d3d_smoke() {
    smoke("chip-2d3d");
}

#[test]
fn fold_3d_smoke() {
    smoke("fold-3d");
}

#[test]
fn paper_suite_smoke() {
    smoke("paper-suite");
}

#[test]
fn serve_mix_smoke() {
    smoke("serve-mix");
}

#[test]
fn listed_metrics_match_the_manifest() {
    for (section, key) in [("end-to-end", "end_to_end"), ("per-layer", "per_layer")] {
        let mut names = listed(section);
        names.sort();
        let want: Vec<String> = manifest(key).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, want, "{section}");
    }
}

fn refs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("refs")
}

#[test]
fn corrupted_reference_is_a_failure() {
    let name = "fold-3d-small-0xdac2014.txt";
    let text = std::fs::read_to_string(refs_dir().join(name)).expect("stored references");
    let first = text.lines().next().expect("at least one reference");
    let (key, digest) = first.split_once(' ').expect("key digest");
    let flipped = if digest.ends_with('0') { "1" } else { "0" };
    let corrupted = text.replacen(
        first,
        &format!("{key} {}{flipped}", &digest[..digest.len() - 1]),
        1,
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-refs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join(name), corrupted).expect("write corrupted references");

    let refs = dir.to_string_lossy().into_owned();
    let (record, result) =
        run_recorded(&["--workload", "fold-3d", "--seconds", "1", "--refs", &refs]);
    // every checked pass reports the one corrupted digest
    let passes = match record.get("pass_walls_s") {
        Some(Json::Arr(walls)) => walls.len() as f64,
        other => panic!("record without pass_walls_s: {other:?}"),
    };
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(passes));
}
