//! Versioned sweep checkpoints: durable, validated, byte-exact.
//!
//! A checkpoint captures a resilient sweep's progress — which cells are
//! done, each done cell's serialized result or quarantine record — so a
//! killed run resumes to a final report **byte-identical** to an
//! uninterrupted one. Three properties make that possible:
//!
//! 1. **Exact value round-trip.** Cell results are stored as their own JSON
//!    (the vendored `serde_json` prints every `f64` through Rust's shortest
//!    round-trip `Display`), so a resumed cell's metrics are bit-equal to
//!    the freshly computed ones.
//! 2. **Identity binding.** The file carries a format [`CHECKPOINT_VERSION`]
//!    and a grid *fingerprint* (FNV-1a over the grid's canonical
//!    description, worker count deliberately excluded), so resuming against
//!    a different grid, mode, or retry policy is a typed error, never a
//!    silently wrong report.
//! 3. **Torn-write detection.** The on-disk format is one JSON payload line
//!    plus an FNV-1a checksum line, and writes go through a temp file +
//!    rename. A short or torn file fails the checksum (or the parse) and
//!    loads as [`DvsError::CheckpointCorrupt`] instead of garbage.
//!
//! The resilient executor calls [`Checkpoint::save`] from one writer thread
//! per run, never from a worker holding the executor lock, so the rename's
//! wait on the disk (tens of milliseconds on ext4, which flushes a file
//! renamed over another) delays only the next write, not the sweep.
//!
//! File operations return [`DvsError::Io`] carrying the path and operation,
//! the same typed-error discipline the golden helpers use.

use std::fs;
use std::path::Path;

use dvs_sim::{DvsError, DvsResult};
use serde::{Deserialize, Serialize};

/// The current checkpoint format version. Bump on any incompatible layout
/// change; loads of other versions fail with
/// [`DvsError::CheckpointIncompatible`] (compatibility rules in
/// `docs/resilience.md`).
pub const CHECKPOINT_VERSION: u32 = 1;

/// FNV-1a over a canonical description string — the same stable hash the
/// workspace uses for seeds (`dvs_sim::stable_seed`), reused here so grid
/// fingerprints are reproducible across platforms and runs.
pub fn fingerprint_of(canonical: &str) -> u64 {
    dvs_sim::stable_seed(canonical)
}

/// A quarantined cell's durable record inside a checkpoint slot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedSlot {
    /// The cell's stable key.
    pub key: String,
    /// The last attempt's failure cause.
    pub cause: String,
}

/// One completed cell's durable outcome: either a measured result (its own
/// JSON, for exact round-trip) or a quarantine record — never both.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSlot {
    /// JSON of the cell's measured result (`None` when quarantined).
    pub ok: Option<String>,
    /// The quarantine record (`None` when measured).
    pub quarantined: Option<QuarantinedSlot>,
    /// Attempts consumed by this cell (1 for a clean first try).
    pub attempts: u32,
}

/// A sweep checkpoint: the completed-cell slot map plus the identity that
/// binds it to one specific grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The grid fingerprint this progress belongs to.
    pub fingerprint: u64,
    /// Per-cell outcome slots; `None` marks a cell not yet completed. The
    /// slot map doubles as the completed-cell bitmap.
    pub slots: Vec<Option<CellSlot>>,
}

impl Checkpoint {
    /// An empty checkpoint for a grid of `total_cells` cells.
    pub fn new(fingerprint: u64, total_cells: usize) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            slots: (0..total_cells).map(|_| None).collect(),
        }
    }

    /// Completed cells (measured or quarantined).
    pub fn done(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Serializes to the on-disk text: payload line + checksum line.
    pub fn to_file_text(&self) -> DvsResult<String> {
        let payload = serde_json::to_string(self)
            // dvs-lint: allow(hot-alloc-transitive, reason = "checkpoint serialization runs at checkpoint cadence, once per N completed cells, not per frame")
            .map_err(|e| DvsError::InvalidConfig(format!("checkpoint serialization: {e}")))?;
        let checksum = fingerprint_of(&payload);
        // dvs-lint: allow(hot-alloc-transitive, reason = "checkpoint serialization runs at checkpoint cadence, once per N completed cells, not per frame")
        Ok(format!("{payload}\n{checksum:016x}\n"))
    }

    /// Writes the checkpoint durably: serialize, write to `<path>.tmp`,
    /// rename over `path` — a crash mid-write never corrupts an existing
    /// checkpoint.
    pub fn save(&self, path: &Path) -> DvsResult<()> {
        let text = self.to_file_text()?;
        write_atomic(path, &text)
    }

    /// The fault-harness arm of [`Checkpoint::save`]: writes a deliberately
    /// torn file — the front half of the bytes, directly to `path` with no
    /// rename — simulating a kill mid-write on a filesystem without atomic
    /// replacement. [`Checkpoint::load`] must reject the result.
    pub fn save_torn(&self, path: &Path) -> DvsResult<()> {
        let text = self.to_file_text()?;
        // dvs-lint: allow(panic-escape, reason = "the slice end is text.len()/2, always within the same buffer")
        let torn = &text.as_bytes()[..text.len() / 2];
        fs::write(path, torn).map_err(|e| checkpoint_io_error(path, "write", e))
    }

    /// Loads and validates a checkpoint: checksum, parse, version, and
    /// fingerprint, each failing with the matching typed error.
    pub fn load(path: &Path, expect_fingerprint: u64) -> DvsResult<Checkpoint> {
        let text = read_text(path)?;
        let corrupt = |detail: String| DvsError::CheckpointCorrupt {
            // dvs-lint: allow(hot-alloc-transitive, reason = "checkpoint resume runs once per process, before the sweep loop starts")
            path: path.display().to_string(),
            detail,
        };
        let body = text.trim_end_matches('\n');
        let Some((payload, checksum_line)) = body.rsplit_once('\n') else {
            return Err(corrupt("missing checksum line (torn or short write)".into()));
        };
        let Ok(expected) = u64::from_str_radix(checksum_line.trim(), 16) else {
            // dvs-lint: allow(hot-alloc-transitive, reason = "corrupt-checkpoint error path, at most once per resume")
            return Err(corrupt(format!("unparseable checksum line {checksum_line:?}")));
        };
        let actual = fingerprint_of(payload);
        if actual != expected {
            // dvs-lint: allow(hot-alloc-transitive, reason = "corrupt-checkpoint error path, at most once per resume")
            return Err(corrupt(format!(
                "checksum mismatch: payload hashes to {actual:016x}, file says {expected:016x}"
            )));
        }
        let ckpt: Checkpoint = serde_json::from_str(payload)
            // dvs-lint: allow(hot-alloc-transitive, reason = "corrupt-checkpoint error path, at most once per resume")
            .map_err(|e| corrupt(format!("payload does not parse: {e}")))?;
        let incompatible = |detail: String| DvsError::CheckpointIncompatible {
            // dvs-lint: allow(hot-alloc-transitive, reason = "checkpoint resume runs once per process, before the sweep loop starts")
            path: path.display().to_string(),
            detail,
        };
        if ckpt.version != CHECKPOINT_VERSION {
            // dvs-lint: allow(hot-alloc-transitive, reason = "incompatible-checkpoint error path, at most once per resume")
            return Err(incompatible(format!(
                "format version {} (this build reads version {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        if ckpt.fingerprint != expect_fingerprint {
            // dvs-lint: allow(hot-alloc-transitive, reason = "incompatible-checkpoint error path, at most once per resume")
            return Err(incompatible(format!(
                "grid fingerprint {:016x} does not match this sweep's {expect_fingerprint:016x} \
                 (different scenarios, buffers, mode, or retry policy)",
                ckpt.fingerprint
            )));
        }
        Ok(ckpt)
    }
}

/// Builds a [`DvsError::Io`] carrying the path and operation.
pub fn checkpoint_io_error(path: &Path, op: &str, e: std::io::Error) -> DvsError {
    // dvs-lint: allow(hot-alloc-transitive, reason = "I/O-failure error construction, cold by definition")
    DvsError::Io { path: path.display().to_string(), op: op.to_string(), detail: e.to_string() }
}

/// Reads a file to a string with a typed, path-carrying error.
pub fn read_text(path: &Path) -> DvsResult<String> {
    fs::read_to_string(path).map_err(|e| checkpoint_io_error(path, "read", e))
}

/// Writes a string to a file with a typed, path-carrying error.
pub fn write_text(path: &Path, text: &str) -> DvsResult<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent).map_err(|e| checkpoint_io_error(parent, "create dir", e))?;
    }
    fs::write(path, text).map_err(|e| checkpoint_io_error(path, "write", e))
}

/// Writes via a sibling temp file plus rename, so readers never observe a
/// half-written file.
pub fn write_atomic(path: &Path, text: &str) -> DvsResult<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    write_text(&tmp, text)?;
    fs::rename(&tmp, path).map_err(|e| checkpoint_io_error(path, "rename into", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dvsync_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(fingerprint_of("grid v1"), 4);
        c.slots[0] = Some(CellSlot {
            ok: Some("{\"fdps\":1.5,\"latency_ms\":33.25}".into()),
            quarantined: None,
            attempts: 1,
        });
        c.slots[2] = Some(CellSlot {
            ok: None,
            quarantined: Some(QuarantinedSlot {
                key: "app|dvsync|5buf|60hz".into(),
                cause: "injected panic".into(),
            }),
            attempts: 3,
        });
        c
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let path = temp_path("roundtrip.ckpt");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path, ckpt.fingerprint).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.done(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_is_detected_as_corrupt() {
        let path = temp_path("torn.ckpt");
        let ckpt = sample();
        ckpt.save_torn(&path).unwrap();
        let err = Checkpoint::load(&path, ckpt.fingerprint).unwrap_err();
        assert!(matches!(err, DvsError::CheckpointCorrupt { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let path = temp_path("flip.ckpt");
        let ckpt = sample();
        let mut text = ckpt.to_file_text().unwrap();
        // Corrupt one payload byte, keep the stale checksum.
        let idx = text.find("1.5").unwrap();
        text.replace_range(idx..idx + 3, "9.5");
        std::fs::write(&path, text).unwrap();
        let err = Checkpoint::load(&path, ckpt.fingerprint).unwrap_err();
        assert!(matches!(err, DvsError::CheckpointCorrupt { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_incompatible() {
        let path = temp_path("version.ckpt");
        let mut ckpt = sample();
        ckpt.version = CHECKPOINT_VERSION + 1;
        ckpt.save(&path).unwrap();
        let err = Checkpoint::load(&path, ckpt.fingerprint).unwrap_err();
        assert!(matches!(err, DvsError::CheckpointIncompatible { .. }), "{err}");

        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let err = Checkpoint::load(&path, ckpt.fingerprint ^ 1).unwrap_err();
        assert!(matches!(err, DvsError::CheckpointIncompatible { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/ckpt"), 0).unwrap_err();
        match err {
            DvsError::Io { path, op, .. } => {
                assert!(path.contains("/nonexistent/ckpt"));
                assert_eq!(op, "read");
            }
            other => panic!("expected Io, got {other}"),
        }
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let path = temp_path("atomic.txt");
        write_atomic(&path, "hello\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello\n");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        let _ = std::fs::remove_file(&path);
    }
}
