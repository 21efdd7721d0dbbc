//! Incremental JSON-lines checkpointing for sweeps.
//!
//! Every completed job is appended as one JSON object per line and flushed
//! immediately, so an interrupted sweep loses at most the jobs that were
//! in flight. A resumed sweep loads the file, skips every job already
//! recorded as `"ok"`, and re-runs the rest (including jobs recorded as
//! failed — a failure may have been environmental, or the code since
//! fixed).
//!
//! File layout:
//!
//! ```text
//! {"kind":"meta","schema":1,...sweep identification...}
//! {"kind":"job","id":"<job id>","status":"ok","wall_ms":812,"data":{...}}
//! {"kind":"job","id":"<job id>","status":"failed","wall_ms":5,"error":"..."}
//! ```
//!
//! A partially written trailing line (from a crash mid-append) is ignored
//! on load rather than poisoning the whole checkpoint, and so are keys the
//! loader does not know (older checkpoints carry an `"attempts"` count).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::json::{self, Json};

/// Schema version stamped into every checkpoint's meta line.
pub const SCHEMA_VERSION: u64 = 1;

/// One job line loaded from a checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// The job's stable identifier.
    pub id: String,
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// Wall time of the job, in milliseconds.
    pub wall_ms: u64,
    /// The job's payload (present when `status == "ok"`).
    pub data: Option<Json>,
    /// The failure message (present when `status == "failed"`).
    pub error: Option<String>,
}

/// A loaded checkpoint: the meta line plus the *latest* entry per job id.
#[derive(Debug, Default)]
pub struct Checkpoint {
    /// The meta object, if the file had one.
    pub meta: Option<Json>,
    /// Latest entry per job id (later lines win, so a re-run after a
    /// failure supersedes the failure record).
    pub entries: HashMap<String, CheckpointEntry>,
}

impl Checkpoint {
    /// Returns the recorded payload for `id` if the job completed
    /// successfully.
    pub fn completed(&self, id: &str) -> Option<&Json> {
        self.entries
            .get(id)
            .filter(|e| e.status == "ok")
            .and_then(|e| e.data.as_ref())
    }

    /// Number of successfully recorded jobs.
    pub fn completed_count(&self) -> usize {
        self.entries.values().filter(|e| e.status == "ok").count()
    }
}

/// Loads a checkpoint file. A missing file yields an empty checkpoint;
/// unparseable lines are skipped (the common case being a torn final
/// line after a crash).
pub fn load(path: &Path) -> std::io::Result<Checkpoint> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Checkpoint::default()),
        Err(e) => return Err(e),
    };
    let mut cp = Checkpoint::default();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = json::parse(&line) else {
            continue; // torn or corrupt line
        };
        match value.get("kind").and_then(Json::as_str) {
            Some("meta") => cp.meta = Some(value),
            Some("job") => {
                let Some(id) = value.get("id").and_then(Json::as_str) else {
                    continue;
                };
                let entry = CheckpointEntry {
                    id: id.to_string(),
                    status: value
                        .get("status")
                        .and_then(Json::as_str)
                        .unwrap_or("failed")
                        .to_string(),
                    wall_ms: value.get("wall_ms").and_then(Json::as_u64).unwrap_or(0),
                    data: value.get("data").cloned(),
                    error: value
                        .get("error")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                };
                cp.entries.insert(entry.id.clone(), entry);
            }
            _ => {}
        }
    }
    Ok(cp)
}

/// Appends job records to a checkpoint file, flushing after every line.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
}

impl CheckpointWriter {
    /// Opens `path` for appending, creating parent directories and the
    /// file as needed. If the file is new (or empty), `meta` is written
    /// first with `"kind":"meta"` and the schema version stamped in.
    pub fn open(path: &Path, meta: Vec<(&'static str, Json)>) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut writer = CheckpointWriter { file };
        let len = writer.file.metadata()?.len();
        if len == 0 {
            let mut obj = vec![
                ("kind", Json::Str("meta".into())),
                ("schema", Json::UInt(SCHEMA_VERSION)),
            ];
            obj.extend(meta);
            writer.append_line(&Json::obj(obj))?;
        } else {
            // A crash mid-append can leave a torn final line with no
            // newline; terminate it now so the next record starts on its
            // own line instead of merging with (and corrupting) the torn
            // fragment.
            let mut probe = File::open(path)?;
            probe.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            probe.read_exact(&mut last)?;
            if last[0] != b'\n' {
                writer.file.write_all(b"\n")?;
                writer.file.flush()?;
            }
        }
        Ok(writer)
    }

    /// Records a successfully completed job.
    pub fn record_ok(&mut self, id: &str, wall_ms: u64, data: Json) -> std::io::Result<()> {
        self.append_line(&Json::obj([
            ("kind", Json::Str("job".into())),
            ("id", Json::Str(id.to_string())),
            ("status", Json::Str("ok".into())),
            ("wall_ms", Json::UInt(wall_ms)),
            ("data", data),
        ]))
    }

    /// Records a job that panicked.
    pub fn record_failed(&mut self, id: &str, wall_ms: u64, error: &str) -> std::io::Result<()> {
        self.append_line(&Json::obj([
            ("kind", Json::Str("job".into())),
            ("id", Json::Str(id.to_string())),
            ("status", Json::Str("failed".into())),
            ("wall_ms", Json::UInt(wall_ms)),
            ("error", Json::Str(error.to_string())),
        ]))
    }

    fn append_line(&mut self, value: &Json) -> std::io::Result<()> {
        // One write + flush per record: a crash can tear at most the
        // final line, which `load` tolerates.
        let mut line = value.to_string();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ccn-harness-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn write_then_load_round_trips() {
        let path = temp_path("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w =
                CheckpointWriter::open(&path, vec![("target", Json::Str("fig6".into()))]).unwrap();
            w.record_ok("a", 10, Json::obj([("cycles", Json::UInt(100))]))
                .unwrap();
            w.record_failed("b", 5, "panicked: boom").unwrap();
        }
        let cp = load(&path).unwrap();
        assert_eq!(
            cp.meta.as_ref().unwrap().get("target").unwrap().as_str(),
            Some("fig6")
        );
        assert_eq!(cp.completed_count(), 1);
        assert_eq!(
            cp.completed("a").unwrap().get("cycles").unwrap().as_u64(),
            Some(100)
        );
        assert!(cp.completed("b").is_none());
        assert_eq!(cp.entries["b"].error.as_deref(), Some("panicked: boom"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn later_lines_supersede_earlier_ones() {
        let path = temp_path("supersede.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
            w.record_failed("j", 5, "flaky").unwrap();
        }
        {
            // Re-opening appends; the meta line is not duplicated.
            let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
            w.record_ok("j", 7, Json::UInt(42)).unwrap();
        }
        let cp = load(&path).unwrap();
        assert_eq!(cp.completed("j"), Some(&Json::UInt(42)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().filter(|l| l.contains("\"meta\"")).count(),
            1,
            "meta must be written once:\n{text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = temp_path("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
            w.record_ok("good", 1, Json::Null).unwrap();
        }
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"job\",\"id\":\"to").unwrap();
        drop(f);
        let cp = load(&path).unwrap();
        assert_eq!(cp.completed_count(), 1);
        assert!(cp.completed("good").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lines_with_an_attempts_key_still_load() {
        let path = temp_path("attempts.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"job\",\"id\":\"old\",\"status\":\"ok\",\"attempts\":2,\
             \"wall_ms\":3,\"data\":7}\n",
        )
        .unwrap();
        let cp = load(&path).unwrap();
        assert_eq!(cp.completed("old"), Some(&Json::UInt(7)));
        assert_eq!(cp.entries["old"].wall_ms, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_checkpoint() {
        let cp = load(Path::new("/nonexistent/ccn-harness/nope.jsonl")).unwrap();
        assert_eq!(cp.completed_count(), 0);
        assert!(cp.meta.is_none());
    }
}
