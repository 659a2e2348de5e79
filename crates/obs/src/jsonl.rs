//! Append-only JSONL logs: one header line naming the schema, then one
//! compact-JSON line per record. Checkpoint stores and the serving
//! journal both open their files through [`open`]; what a record means,
//! when two records conflict and how appends are flushed stay with them.

use crate::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Why [`open`] rejected a log. Torn tails and mid-file corruption are
/// not errors: the intact prefix loads and the file is trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenError {
    /// The file could not be read, created, trimmed, or written: its
    /// path and the stringified I/O error.
    Io(PathBuf, String),
    /// The first line is not parseable JSON.
    BadHeader(String),
    /// The header names another schema: the wanted one, the one found.
    SchemaMismatch(&'static str, Option<String>),
}

/// Opens (or creates) the log at `path` and replays it: `record` sees
/// each record line's JSON in order. A torn or unparseable line, or one
/// `record` answers `Ok(false)`, ends the replay, and the file is trimmed
/// back to the lines before it; a new or empty file gets an fsync'd
/// header. Returns the file, positioned at its end, and the bytes
/// trimmed.
///
/// # Errors
///
/// [`OpenError`] (as `E`) for I/O failures and a bad or foreign header;
/// `record`'s own errors pass through.
pub fn open<E: From<OpenError>>(
    path: &Path,
    schema: &'static str,
    mut record: impl FnMut(&Json) -> Result<bool, E>,
) -> Result<(File, u64), E> {
    let io = |what: &'static str| {
        move |e: std::io::Error| OpenError::Io(path.to_owned(), format!("cannot {what}: {e}"))
    };
    // byte length of the valid prefix (complete, parseable lines)
    let mut valid_end = 0u64;
    let mut total_len = 0u64;
    if path.exists() {
        let text = std::fs::read_to_string(path).map_err(io("read"))?;
        total_len = text.len() as u64;
        let mut header_seen = false;
        for line in text.split_inclusive('\n') {
            if !line.ends_with('\n') {
                break; // torn tail from a killed append
            }
            let trimmed = line.trim();
            if !header_seen && !trimmed.is_empty() {
                let header =
                    Json::parse(trimmed).map_err(|e| OpenError::BadHeader(e.to_string()))?;
                let got = header.get("schema").and_then(Json::as_str);
                if got != Some(schema) {
                    return Err(OpenError::SchemaMismatch(schema, got.map(str::to_owned)).into());
                }
                header_seen = true;
            } else if !trimmed.is_empty() {
                match Json::parse(trimmed) {
                    Ok(doc) if record(&doc)? => {}
                    _ => break, // corruption: keep the intact prefix
                }
            }
            valid_end += line.len() as u64;
        }
    }
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(io("open"))?;
    file.set_len(valid_end).map_err(io("trim"))?;
    file.seek(SeekFrom::End(0)).map_err(io("seek"))?;
    if valid_end == 0 {
        let header = Json::obj([("schema".to_owned(), Json::Str(schema.to_owned()))]);
        writeln!(file, "{}", header.to_compact()).map_err(io("write header"))?;
        file.sync_data().map_err(io("sync header"))?;
    }
    Ok((file, total_len.saturating_sub(valid_end)))
}
