//! The job-submission JSON schema and the content-address of a study.
//!
//! A submitted job names *what* to compute (experiments, design size, an
//! optional seed override) and *how* (worker threads inside the job, an
//! optional wall-clock deadline). The **identity** of a study for caching
//! purposes is its canonical manifest config — the same
//! `BTreeMap<String, String>` that lands in the `config` section of a
//! `foldic-run-manifest/1` and that `repro compare` gates on — digested
//! with the same FNV-1a the manifests use for result digests. `threads`
//! deliberately does not participate: the workspace determinism contract
//! makes output byte-identical across thread counts, so the thread count
//! is an execution detail, not an identity. `deadline_secs` *does*
//! participate in the config (like `repro --deadline` records it), but
//! deadline-bounded jobs are never cached at all — their results depend
//! on wall-clock behavior, not only on the config (see `DESIGN.md` §10).

use foldic_obs::json::Json;
use std::collections::BTreeMap;

/// Schema identifier accepted in submissions (optional `schema` field).
pub const SUBMIT_SCHEMA: &str = "foldic-serve-job/1";

/// A validated job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Experiment names to run (validated by the runner; e.g. `table1`).
    pub experiments: Vec<String>,
    /// Design size: `full`, `small` or `tiny` (validated by the runner).
    pub size: String,
    /// Generation-seed override; `None` keeps the study default.
    pub seed: Option<u64>,
    /// Worker threads used *inside* the job (output-invariant).
    pub threads: usize,
    /// Optional wall-clock budget for the job, enforced inside the job's
    /// own run context; such jobs run next to any other.
    pub deadline_secs: Option<f64>,
    /// Advertised design size in cells, for snapshot-backed or otherwise
    /// non-standard designs whose footprint the `size` label alone
    /// cannot price. Only the admission cost model reads it — it does
    /// not participate in the cache identity, because the design content
    /// is already pinned by the config the runner builds.
    pub design_cells: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            experiments: Vec::new(),
            size: String::new(),
            seed: None,
            threads: 1,
            deadline_secs: None,
            design_cells: None,
        }
    }
}

impl JobSpec {
    /// Parses and strictly validates a submission document. Unknown
    /// fields are rejected so client typos surface as 400s instead of
    /// silently running the wrong study.
    ///
    /// # Errors
    ///
    /// A human-readable message describing the first schema violation;
    /// the server maps it to a 400 response.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let obj = json.as_obj().ok_or("submission must be a JSON object")?;
        const KNOWN: [&str; 7] = [
            "schema",
            "experiments",
            "size",
            "seed",
            "threads",
            "deadline_secs",
            "design_cells",
        ];
        for key in obj.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}`"));
            }
        }
        if let Some(schema) = obj.get("schema") {
            match schema.as_str() {
                Some(SUBMIT_SCHEMA) => {}
                Some(other) => return Err(format!("unsupported schema `{other}`")),
                None => return Err("`schema` must be a string".to_owned()),
            }
        }

        let mut spec = JobSpec::default();
        let experiments = obj
            .get("experiments")
            .ok_or("missing `experiments`")?
            .as_arr()
            .ok_or("`experiments` must be an array of strings")?;
        if experiments.is_empty() {
            return Err("`experiments` must not be empty".to_owned());
        }
        for e in experiments {
            let name = e.as_str().ok_or("`experiments` must contain strings")?;
            if name.is_empty() || name.len() > 64 {
                return Err(format!("bad experiment name `{name}`"));
            }
            spec.experiments.push(name.to_owned());
        }

        let size = obj
            .get("size")
            .ok_or("missing `size`")?
            .as_str()
            .ok_or("`size` must be a string")?;
        if size.is_empty() || size.len() > 16 {
            return Err(format!("bad size `{size}`"));
        }
        spec.size = size.to_owned();

        if let Some(seed) = obj.get("seed") {
            let v = seed.as_f64().ok_or("`seed` must be a number")?;
            // Json stores numbers as f64; only integers that survive the
            // round trip exactly are acceptable seeds.
            if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53)) {
                return Err(format!("`seed` must be an integer in [0, 2^53], got {v}"));
            }
            spec.seed = Some(v as u64);
        }

        if let Some(threads) = obj.get("threads") {
            let v = threads.as_f64().ok_or("`threads` must be a number")?;
            if !(v.is_finite() && v.fract() == 0.0 && (1.0..=64.0).contains(&v)) {
                return Err(format!("`threads` must be an integer in [1, 64], got {v}"));
            }
            spec.threads = v as usize;
        }

        if let Some(deadline) = obj.get("deadline_secs") {
            let v = deadline
                .as_f64()
                .ok_or("`deadline_secs` must be a number")?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("`deadline_secs` must be positive, got {v}"));
            }
            spec.deadline_secs = Some(v);
        }

        if let Some(cells) = obj.get("design_cells") {
            let v = cells.as_f64().ok_or("`design_cells` must be a number")?;
            if !(v.is_finite() && v >= 1.0 && v.fract() == 0.0 && v <= 2f64.powi(53)) {
                return Err(format!(
                    "`design_cells` must be an integer in [1, 2^53], got {v}"
                ));
            }
            spec.design_cells = Some(v as u64);
        }
        Ok(spec)
    }

    /// Serializes the spec back to the submission schema (used by the
    /// load generator and tests).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_owned(), Json::Str(SUBMIT_SCHEMA.to_owned())),
            (
                "experiments".to_owned(),
                Json::Arr(
                    self.experiments
                        .iter()
                        .map(|e| Json::Str(e.clone()))
                        .collect(),
                ),
            ),
            ("size".to_owned(), Json::Str(self.size.clone())),
            ("threads".to_owned(), Json::Num(self.threads as f64)),
        ];
        if let Some(seed) = self.seed {
            fields.push(("seed".to_owned(), Json::Num(seed as f64)));
        }
        if let Some(deadline) = self.deadline_secs {
            fields.push(("deadline_secs".to_owned(), Json::Num(deadline)));
        }
        if let Some(cells) = self.design_cells {
            fields.push(("design_cells".to_owned(), Json::Num(cells as f64)));
        }
        Json::obj(fields)
    }

    /// `true` when the job's result is a pure function of its canonical
    /// config and may live in the content-addressed cache. Deadline-
    /// bounded jobs are excluded: what they manage to finish depends on
    /// wall-clock scheduling, not only on the config.
    pub fn cacheable(&self) -> bool {
        self.deadline_secs.is_none()
    }
}

/// Content-address of a study: the FNV-1a 64 digest (same function and
/// `fnv64:<16 hex>` format as manifest result digests) of the canonical
/// config map serialized as compact JSON. The map is a `BTreeMap`, so
/// serialization — and therefore the key — is deterministic.
pub fn cache_key(config: &BTreeMap<String, String>) -> String {
    let doc = Json::Obj(
        config
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    );
    foldic_obs::manifest::digest_report(&doc.to_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn minimal_submission_parses_with_defaults() {
        let spec = parse(r#"{"experiments": ["table1"], "size": "tiny"}"#).unwrap();
        assert_eq!(spec.experiments, ["table1"]);
        assert_eq!(spec.size, "tiny");
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.seed, None);
        assert!(spec.cacheable());
    }

    #[test]
    fn full_submission_round_trips() {
        let spec = JobSpec {
            experiments: vec!["table1".into(), "fig2".into()],
            size: "small".into(),
            seed: Some(12345),
            threads: 4,
            deadline_secs: Some(2.5),
            design_cells: Some(1_000_000),
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert!(!back.cacheable(), "deadline jobs are not cacheable");
    }

    #[test]
    fn schema_violations_are_typed_errors() {
        for (text, needle) in [
            (r#"[1,2]"#, "object"),
            (r#"{"size": "tiny"}"#, "experiments"),
            (r#"{"experiments": [], "size": "tiny"}"#, "empty"),
            (
                r#"{"experiments": ["t"], "size": "tiny", "bogus": 1}"#,
                "unknown field",
            ),
            (r#"{"experiments": [1], "size": "tiny"}"#, "strings"),
            (r#"{"experiments": ["t"]}"#, "size"),
            (
                r#"{"experiments": ["t"], "size": "tiny", "seed": -1}"#,
                "seed",
            ),
            (
                r#"{"experiments": ["t"], "size": "tiny", "seed": 1.5}"#,
                "seed",
            ),
            (
                r#"{"experiments": ["t"], "size": "tiny", "threads": 0}"#,
                "threads",
            ),
            (
                r#"{"experiments": ["t"], "size": "tiny", "deadline_secs": 0}"#,
                "deadline",
            ),
            (
                r#"{"experiments": ["t"], "size": "tiny", "schema": "bogus/9"}"#,
                "schema",
            ),
            (
                r#"{"experiments": ["t"], "size": "tiny", "design_cells": 0}"#,
                "design_cells",
            ),
            (
                r#"{"experiments": ["t"], "size": "tiny", "design_cells": 2.5}"#,
                "design_cells",
            ),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.to_lowercase().contains(needle),
                "{text}: {err} (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn cache_key_is_deterministic_and_config_sensitive() {
        let mut config = BTreeMap::new();
        config.insert("experiments".to_owned(), "table1".to_owned());
        config.insert("size".to_owned(), "tiny".to_owned());
        config.insert("seed".to_owned(), "0xdac2014".to_owned());
        let k1 = cache_key(&config);
        assert!(k1.starts_with("fnv64:") && k1.len() == 6 + 16, "{k1}");
        assert_eq!(k1, cache_key(&config.clone()));
        // any one-field delta moves the key
        let mut delta = config.clone();
        delta.insert("size".to_owned(), "small".to_owned());
        assert_ne!(k1, cache_key(&delta));
        let mut delta = config;
        delta.insert("seed".to_owned(), "0xdac2015".to_owned());
        assert_ne!(k1, cache_key(&delta));
    }
}
