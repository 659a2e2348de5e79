//! Checkpoint/resume for long full-chip runs.
//!
//! A [`CheckpointStore`] persists completed per-block results as
//! append-only JSONL: one header line naming the schema, then one
//! compact-JSON line per entry (`{"key":…,"value":…}`). Appending after
//! every completed block means an interrupted run loses at most the
//! blocks that were in flight; a resumed run replays the finished ones
//! from the store and recomputes only the rest. Values round-trip
//! bit-exactly (the JSON writer uses shortest round-trip float
//! formatting), which is what makes resumed output byte-identical to an
//! uninterrupted run.
//!
//! Loading is tolerant of a torn tail: a process killed mid-append
//! leaves a truncated final line, which is skipped (with everything
//! after it) rather than rejected — those blocks are simply recomputed.

use foldic_obs::json::Json;
use foldic_obs::jsonl;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema tag written as the first line of every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "foldic-checkpoint/1";

/// Why a checkpoint file was rejected at load time. Torn tails and
/// mid-file corruption are *not* errors (the intact prefix loads and the
/// rest recomputes); these are the cases where silently proceeding would
/// corrupt a resumed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read, created, trimmed, or appended to.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// The first line is not parseable JSON.
    BadHeader(String),
    /// The header names a different schema (a store written by an
    /// incompatible version must not be replayed).
    SchemaMismatch {
        /// The schema this build writes and accepts.
        want: &'static str,
        /// The schema found in the file, when any.
        got: Option<String>,
    },
    /// The same key appears twice with *different* values — two runs
    /// with different configurations shared the file; replaying either
    /// value silently would corrupt the resume. (Identical duplicates
    /// are fine: re-running a block legitimately re-appends its entry.)
    ConflictingDuplicate(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
            CheckpointError::BadHeader(msg) => write!(f, "bad checkpoint header: {msg}"),
            CheckpointError::SchemaMismatch { want, got } => {
                write!(f, "checkpoint schema mismatch: want {want}, got {got:?}")
            }
            CheckpointError::ConflictingDuplicate(key) => write!(
                f,
                "checkpoint key `{key}` appears twice with different values; \
                 refusing to replay an ambiguous store"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<jsonl::OpenError> for CheckpointError {
    fn from(e: jsonl::OpenError) -> Self {
        match e {
            jsonl::OpenError::Io(path, message) => Self::Io { path, message },
            jsonl::OpenError::BadHeader(msg) => Self::BadHeader(msg),
            jsonl::OpenError::SchemaMismatch(want, got) => Self::SchemaMismatch { want, got },
        }
    }
}

/// An append-only key→JSON store backed by a JSONL file (or memory).
///
/// Keys are free-form strings; the flow uses `style_key/block` so one
/// store covers every run scope of a full-chip experiment. Duplicate
/// keys are last-wins, so re-running a block simply supersedes its
/// earlier entry.
pub struct CheckpointStore {
    entries: Mutex<BTreeMap<String, Json>>,
    sink: Mutex<Option<File>>,
    path: Option<PathBuf>,
    hits: AtomicU64,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("path", &self.path)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .finish()
    }
}

impl CheckpointStore {
    /// Opens (or creates) a checkpoint file, loading any entries already
    /// in it; a torn tail is dropped and trimmed ([`jsonl::open`]).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] when the file cannot be
    /// created/read, carries a different schema tag, or holds the same
    /// key twice with conflicting values.
    pub fn open(path: &Path) -> Result<Self, CheckpointError> {
        let mut entries: BTreeMap<String, Json> = BTreeMap::new();
        let (sink, _) = jsonl::open(path, CHECKPOINT_SCHEMA, |entry| {
            let (Some(key), Some(value)) =
                (entry.get("key").and_then(Json::as_str), entry.get("value"))
            else {
                return Ok(false);
            };
            if entries.get(key).is_some_and(|prev| prev != value) {
                return Err(CheckpointError::ConflictingDuplicate(key.to_owned()));
            }
            entries.insert(key.to_owned(), value.clone());
            Ok(true)
        })?;
        Ok(Self {
            entries: Mutex::new(entries),
            sink: Mutex::new(Some(sink)),
            path: Some(path.to_owned()),
            hits: AtomicU64::new(0),
        })
    }

    /// A store with no backing file (used by tests and `--resume`-less
    /// runs that still want the replay API).
    pub fn in_memory() -> Self {
        Self {
            entries: Mutex::new(BTreeMap::new()),
            sink: Mutex::new(None),
            path: None,
            hits: AtomicU64::new(0),
        }
    }

    /// The backing file, when there is one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Looks up a completed entry; counts a resume hit when found.
    pub fn get(&self, key: &str) -> Option<Json> {
        let found = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records a completed entry and appends it to the backing file
    /// (flushed immediately, so a kill right after loses nothing).
    pub fn put(&self, key: &str, value: Json) {
        let line = Json::obj([
            ("key".to_owned(), Json::Str(key.to_owned())),
            ("value".to_owned(), value.clone()),
        ])
        .to_compact();
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.to_owned(), value);
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(file) = sink.as_mut() {
            // Checkpointing is best-effort: an unwritable disk degrades
            // resume, it must not fail the run.
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of [`CheckpointStore::get`] calls that found an entry —
    /// i.e. blocks skipped on resume.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("foldic-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn persists_and_reloads_bit_exact() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let value = Json::obj([
            ("wl".to_owned(), Json::Num(1_234.567_890_123_4)),
            ("pi".to_owned(), Json::Num(std::f64::consts::PI)),
        ]);
        {
            let store = CheckpointStore::open(&path).unwrap();
            store.put("flat2d/dec", value.clone());
            store.put("flat2d/dec", value.clone()); // last-wins duplicate
            store.put("folded/ccu", Json::Num(-1e-17));
        }
        let store = CheckpointStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("flat2d/dec"), Some(value));
        assert_eq!(store.get("folded/ccu"), Some(Json::Num(-1e-17)));
        assert_eq!(store.get("missing"), None);
        assert_eq!(store.hits(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tolerates_torn_tail() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let store = CheckpointStore::open(&path).unwrap();
            store.put("a", Json::Num(1.0));
            store.put("b", Json::Num(2.0));
        }
        // simulate a kill mid-append: chop the last 7 bytes
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let store = CheckpointStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "torn entry dropped, intact entry kept");
        assert_eq!(store.get("a"), Some(Json::Num(1.0)));
        // the store stays appendable after a torn load
        store.put("c", Json::Num(3.0));
        let again = CheckpointStore::open(&path).unwrap();
        assert_eq!(again.get("c"), Some(Json::Num(3.0)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_schema() {
        let path = tmp("schema");
        std::fs::write(&path, "{\"schema\":\"other/9\"}\n").unwrap();
        assert_eq!(
            CheckpointStore::open(&path).unwrap_err(),
            CheckpointError::SchemaMismatch {
                want: CHECKPOINT_SCHEMA,
                got: Some("other/9".to_owned())
            }
        );
        std::fs::write(&path, "{\"version\":1}\n").unwrap();
        assert_eq!(
            CheckpointStore::open(&path).unwrap_err(),
            CheckpointError::SchemaMismatch {
                want: CHECKPOINT_SCHEMA,
                got: None
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_unparseable_header() {
        let path = tmp("badheader");
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(matches!(
            CheckpointStore::open(&path).unwrap_err(),
            CheckpointError::BadHeader(_)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_conflicting_duplicate_but_keeps_identical_rewrites() {
        let path = tmp("dup");
        let _ = std::fs::remove_file(&path);
        let header = format!("{{\"schema\":\"{CHECKPOINT_SCHEMA}\"}}\n");
        // identical re-append (a legitimately re-run block): loads fine
        std::fs::write(
            &path,
            format!("{header}{{\"key\":\"a\",\"value\":1}}\n{{\"key\":\"a\",\"value\":1}}\n"),
        )
        .unwrap();
        assert_eq!(CheckpointStore::open(&path).unwrap().len(), 1);
        // same key, different value: two incompatible runs shared the
        // file — refuse to replay either
        std::fs::write(
            &path,
            format!("{header}{{\"key\":\"a\",\"value\":1}}\n{{\"key\":\"a\",\"value\":2}}\n"),
        )
        .unwrap();
        assert_eq!(
            CheckpointStore::open(&path).unwrap_err(),
            CheckpointError::ConflictingDuplicate("a".to_owned())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn io_errors_are_typed() {
        let dir = std::env::temp_dir().join("foldic-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        // opening a directory as a checkpoint file fails with Io
        assert!(matches!(
            CheckpointStore::open(&dir).unwrap_err(),
            CheckpointError::Io { .. }
        ));
    }

    #[test]
    fn in_memory_store_needs_no_disk() {
        let store = CheckpointStore::in_memory();
        assert!(store.is_empty());
        store.put("k", Json::Bool(true));
        assert_eq!(store.get("k"), Some(Json::Bool(true)));
        assert_eq!(store.path(), None);
    }
}
