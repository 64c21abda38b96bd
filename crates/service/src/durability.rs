//! Durable write path: per-document write-ahead logs, periodic snapshots,
//! crash recovery, and a read-only follower.
//!
//! The in-memory corpus loses every committed epoch on restart. This
//! module makes the write path durable with the classic log + snapshot
//! design, using the workspace's own binary codec
//! ([`cqt_trees::codec`]) for payloads:
//!
//! * **Write-ahead log.** Every committed [`EditScript`] is appended to the
//!   document's `wal.log` as a length-prefixed binary record carrying the
//!   commit epoch, the pre- and post-commit [`Tree::structure_digest`], the
//!   encoded script, and a checksum — and the record is **fsync'd before
//!   the epoch swap**, so a commit is durable before it is visible to any
//!   reader.
//! * **Snapshots.** Every `snapshot_every` commits the full tree (plus the
//!   document id and routing tags) is serialized to
//!   `snapshot-<epoch>.snap` (written to a temp file, fsync'd, renamed),
//!   and the log is truncated: the log's only job is to cover the distance
//!   back to the newest snapshot.
//! * **Crash recovery.** [`recover_document`] loads the newest valid
//!   snapshot and replays the log tail, verifying each record's checksum
//!   and digest chain (`record.pre == previous.post`, and the replayed
//!   tree's digest must equal `record.post`). A **truncated final record**
//!   is tolerated — that is exactly what a crash mid-append leaves behind,
//!   and the fsync barrier guarantees no committed epoch is in it — but
//!   **mid-log corruption is refused** with a typed [`RecoveryError`]:
//!   bytes the log claims were durable cannot be quietly dropped.
//! * **Follower.** A [`Follower`] tails a leader's log directory into its
//!   own read-only [`Corpus`], applying new records (or reloading from a
//!   newer snapshot after a leader-side truncation) on every
//!   [`Follower::poll`] — the read-scaling half of the design, checked for
//!   per-epoch answer-fingerprint agreement by the `experiments recover`
//!   harness and the oracle machinery.
//!
//! # Failure model
//!
//! Opening and recovering return typed errors; a running log is
//! **fail-stop**: if an append or fsync fails, the process can no longer
//! guarantee the durable-before-visible invariant, so the writer panics
//! (the same PANIC-on-WAL-failure posture production databases take)
//! rather than serve commits it might lose.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/<sanitized-doc-id>/
//!     wal.log                      magic "CQTW" + version, then records
//!     snapshot-<epoch-20d>.snap    magic "CQTS" + version + body + checksum
//! ```
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! +-----------+---------------------------------------------+-----------+
//! | len: u32  | body                                        | sum: u64  |
//! |           |   epoch: u64                                | FxHash of |
//! |           |   pre_digest: u64   (chain: prev post)      | body      |
//! |           |   post_digest: u64  (replay must reproduce) |           |
//! |           |   script: cqt_trees::codec bytes            |           |
//! +-----------+---------------------------------------------+-----------+
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cqt_trees::codec::{self, Reader};
use cqt_trees::edit::EditScript;
use cqt_trees::Tree;
use rustc_hash::FxHasher;

use crate::shard::Corpus;

/// Magic prefix of a write-ahead log file.
const WAL_MAGIC: &[u8; 4] = b"CQTW";
/// Magic prefix of a snapshot file.
const SNAP_MAGIC: &[u8; 4] = b"CQTS";
/// Format version of both files.
const FORMAT_VERSION: u8 = 1;
/// Bytes of a WAL file header (magic + version).
const WAL_HEADER_LEN: u64 = 5;
/// The log file's name inside a document directory. Shared with the
/// replication layer, which streams the same files over the wire.
pub(crate) const WAL_FILE: &str = "wal.log";

/// Whether (and where) a [`Corpus`] persists its write path.
#[derive(Clone, Debug, Default)]
pub enum Durability {
    /// Keep every epoch in memory only (the historical behaviour; all
    /// pre-existing construction paths use this).
    #[default]
    None,
    /// Per-document write-ahead logs and snapshots under `dir`.
    Wal {
        /// Root directory of the log: one subdirectory per document.
        dir: PathBuf,
        /// Snapshot (and truncate the log) every this many commits per
        /// document; `0` disables periodic snapshots (the epoch-0 snapshot
        /// written at insert time is still the recovery base).
        snapshot_every: u64,
    },
}

impl Durability {
    /// WAL durability under `dir` with the default snapshot cadence (32
    /// commits).
    pub fn wal(dir: impl Into<PathBuf>) -> Self {
        Durability::Wal {
            dir: dir.into(),
            snapshot_every: 32,
        }
    }
}

/// Cumulative durability counters of one log (or, summed, of a corpus) —
/// reported over the wire in [`crate::net::protocol::Response::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records currently in the log (since the last truncation).
    pub log_records: u64,
    /// Bytes currently in the log, headers included.
    pub log_bytes: u64,
    /// Epoch of the newest snapshot written (the max across documents when
    /// summed at corpus level).
    pub snapshot_epoch: u64,
}

impl DurabilityStats {
    /// Accumulates another log's counters into this one (records and bytes
    /// add; the snapshot epoch takes the max).
    pub fn absorb(&mut self, other: &DurabilityStats) {
        self.log_records += other.log_records;
        self.log_bytes += other.log_bytes;
        self.snapshot_epoch = self.snapshot_epoch.max(other.snapshot_epoch);
    }
}

/// Why a log directory could not be opened or replayed. Torn **final**
/// records are not errors (they are the expected crash artifact and are
/// dropped); everything here means the durable prefix itself is
/// inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// A filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The operating system's error description.
        detail: String,
    },
    /// A log file exists but does not start with the expected magic and
    /// version — this is not a torn tail, it is the wrong file.
    BadHeader {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with the header.
        detail: String,
    },
    /// No snapshot of the document could be read and verified.
    NoSnapshot {
        /// The document directory searched.
        path: PathBuf,
    },
    /// A record **before the end of the log** failed its checksum or could
    /// not be decoded: mid-log corruption, refused (a torn *final* record
    /// would have been tolerated).
    CorruptRecord {
        /// The log file.
        path: PathBuf,
        /// Zero-based index of the offending record in the log.
        record: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A record's pre-commit digest does not equal the previous state's
    /// digest: the chain from the snapshot is broken.
    DigestChain {
        /// The log file.
        path: PathBuf,
        /// Zero-based index of the offending record.
        record: u64,
        /// The digest the chain required.
        expected: u64,
        /// The digest the record carries.
        found: u64,
    },
    /// Replaying a record did not reproduce the post-commit digest it
    /// promised (or the script failed to apply at all).
    Replay {
        /// The log file.
        path: PathBuf,
        /// Zero-based index of the offending record.
        record: u64,
        /// What went wrong during replay.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io { path, detail } => {
                write!(f, "i/o on {}: {detail}", path.display())
            }
            RecoveryError::BadHeader { path, detail } => {
                write!(f, "bad log header in {}: {detail}", path.display())
            }
            RecoveryError::NoSnapshot { path } => {
                write!(f, "no valid snapshot under {}", path.display())
            }
            RecoveryError::CorruptRecord {
                path,
                record,
                detail,
            } => write!(
                f,
                "corrupt record {record} (not the final record) in {}: {detail}",
                path.display()
            ),
            RecoveryError::DigestChain {
                path,
                record,
                expected,
                found,
            } => write!(
                f,
                "digest chain broken at record {record} in {}: expected pre-digest \
                 {expected:#018x}, found {found:#018x}",
                path.display()
            ),
            RecoveryError::Replay {
                path,
                record,
                detail,
            } => write!(
                f,
                "replay of record {record} in {} failed: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

fn io_err(path: &Path, error: std::io::Error) -> RecoveryError {
    RecoveryError::Io {
        path: path.to_path_buf(),
        detail: error.to_string(),
    }
}

/// Maps a document id to a filesystem-safe directory name: ASCII
/// alphanumerics and `-._` pass through, every other byte becomes `%XX`.
/// Unambiguous (so distinct ids never collide), but the authoritative id
/// is the one stored inside the snapshot, not the directory name.
pub(crate) fn sanitize_doc_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for byte in id.bytes() {
        if byte.is_ascii_alphanumeric() || matches!(byte, b'-' | b'.' | b'_') {
            out.push(byte as char);
        } else {
            out.push('%');
            out.push_str(&format!("{byte:02X}"));
        }
    }
    out
}

fn checksum(body: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(body);
    hasher.finish()
}

/// Best-effort directory fsync so a rename is durable before we rely on
/// it. Ignored on failure: some filesystems refuse to open directories,
/// and the data file itself is already synced.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

// ---- snapshots ----

fn snapshot_file_name(epoch: u64) -> String {
    // Zero-padded so lexical order is epoch order.
    format!("snapshot-{epoch:020}.snap")
}

fn snapshot_epoch_of(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Writes a snapshot of (`doc_id`, `tags`, `epoch`, `tree`) into `doc_dir`
/// atomically (temp file + fsync + rename) and returns its path.
fn write_snapshot(
    doc_dir: &Path,
    doc_id: &str,
    tags: &[String],
    epoch: u64,
    tree: &Tree,
) -> std::io::Result<PathBuf> {
    let mut body = Vec::new();
    body.extend_from_slice(&(doc_id.len() as u32).to_le_bytes());
    body.extend_from_slice(doc_id.as_bytes());
    body.extend_from_slice(&(tags.len() as u32).to_le_bytes());
    for tag in tags {
        body.extend_from_slice(&(tag.len() as u32).to_le_bytes());
        body.extend_from_slice(tag.as_bytes());
    }
    body.extend_from_slice(&epoch.to_le_bytes());
    body.extend_from_slice(&tree.structure_digest().to_le_bytes());
    codec::encode_tree(tree, &mut body);

    let mut file_bytes = Vec::with_capacity(body.len() + 17);
    file_bytes.extend_from_slice(SNAP_MAGIC);
    file_bytes.push(FORMAT_VERSION);
    file_bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    file_bytes.extend_from_slice(&body);
    file_bytes.extend_from_slice(&checksum(&body).to_le_bytes());

    let final_path = doc_dir.join(snapshot_file_name(epoch));
    let tmp_path = doc_dir.join(format!("{}.tmp", snapshot_file_name(epoch)));
    let mut tmp = File::create(&tmp_path)?;
    tmp.write_all(&file_bytes)?;
    tmp.sync_all()?;
    drop(tmp);
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(doc_dir);
    Ok(final_path)
}

/// One decoded, verified snapshot. `pub(crate)` because the replication
/// layer streams snapshots over the wire for followers behind truncation.
pub(crate) struct Snapshot {
    pub(crate) doc_id: String,
    pub(crate) tags: Vec<String>,
    pub(crate) epoch: u64,
    pub(crate) digest: u64,
    pub(crate) tree: Tree,
}

/// Reads and fully verifies one snapshot file (checksum and digest).
fn read_snapshot(path: &Path) -> Result<Snapshot, RecoveryError> {
    let corrupt = |detail: String| RecoveryError::BadHeader {
        path: path.to_path_buf(),
        detail,
    };
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < 9 || &bytes[0..4] != SNAP_MAGIC {
        return Err(corrupt("missing snapshot magic".into()));
    }
    if bytes[4] != FORMAT_VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {}",
            bytes[4]
        )));
    }
    let body_len = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize;
    if bytes.len() != 9 + body_len + 8 {
        return Err(corrupt(format!(
            "snapshot length {} does not match declared body of {body_len}",
            bytes.len()
        )));
    }
    let body = &bytes[9..9 + body_len];
    let sum = u64::from_le_bytes(bytes[9 + body_len..].try_into().expect("8 bytes"));
    if checksum(body) != sum {
        return Err(corrupt("snapshot checksum mismatch".into()));
    }
    let mut r = Reader::new(body);
    let parse = |detail: codec::CodecError| corrupt(format!("snapshot body: {detail}"));
    let doc_id = r.string().map_err(parse)?;
    let tag_count = r.u32().map_err(parse)? as usize;
    let mut tags = Vec::with_capacity(tag_count.min(r.remaining()));
    for _ in 0..tag_count {
        tags.push(r.string().map_err(parse)?);
    }
    let epoch = r.u64().map_err(parse)?;
    let digest = r.u64().map_err(parse)?;
    let tree = codec::decode_tree_from(&mut r).map_err(parse)?;
    r.finish().map_err(parse)?;
    if tree.structure_digest() != digest {
        return Err(corrupt(
            "snapshot tree does not match its recorded digest".into(),
        ));
    }
    Ok(Snapshot {
        doc_id,
        tags,
        epoch,
        digest,
        tree,
    })
}

// ---- the write-ahead log ----

/// One parsed (checksum-verified) log record; the script stays encoded
/// until replay so decode failures can be attributed to the right record.
#[derive(Debug)]
pub(crate) struct WalRecord {
    /// The epoch this record's commit created.
    pub(crate) epoch: u64,
    /// `structure_digest` of the tree the script was applied to.
    pub(crate) pre_digest: u64,
    /// `structure_digest` of the tree the commit produced.
    pub(crate) post_digest: u64,
    /// The committed script, in [`cqt_trees::codec`] encoding.
    pub(crate) script: Vec<u8>,
}

/// Encodes one record exactly as [`DocWal::append`] writes it to disk:
/// `u32 body_len | body (epoch, pre, post, script) | u64 checksum`, all
/// little-endian. The replication layer ships these frames verbatim inside
/// wire messages so a follower verifies the same checksum the durable log
/// carries.
pub(crate) fn wal_record_frame(record: &WalRecord) -> Vec<u8> {
    let mut body = Vec::with_capacity(24 + record.script.len());
    body.extend_from_slice(&record.epoch.to_le_bytes());
    body.extend_from_slice(&record.pre_digest.to_le_bytes());
    body.extend_from_slice(&record.post_digest.to_le_bytes());
    body.extend_from_slice(&record.script);
    frame_wal_body(&body)
}

/// Wraps an encoded record body in the on-disk frame (length prefix +
/// checksum).
fn frame_wal_body(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(body.len() + 12);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&checksum(body).to_le_bytes());
    frame
}

/// Parses one record frame received over the wire, verifying the length
/// prefix and the u64 checksum — the exact framing [`read_wal`] verifies on
/// disk. Errors are strings because the caller attributes them to a wire
/// peer, not a file.
pub(crate) fn wal_record_from_frame(bytes: &[u8]) -> Result<WalRecord, String> {
    if bytes.len() < 4 {
        return Err("record frame shorter than its length prefix".into());
    }
    let body_len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if bytes.len() != 4 + body_len + 8 {
        return Err(format!(
            "record frame of {} bytes does not match declared body of {body_len}",
            bytes.len()
        ));
    }
    let body = &bytes[4..4 + body_len];
    let sum = u64::from_le_bytes(bytes[4 + body_len..].try_into().expect("8 bytes"));
    if checksum(body) != sum {
        return Err("record checksum mismatch".into());
    }
    let mut r = Reader::new(body);
    let field = |e: codec::CodecError| format!("record fields: {e}");
    let epoch = r.u64().map_err(field)?;
    let pre_digest = r.u64().map_err(field)?;
    let post_digest = r.u64().map_err(field)?;
    let script = r.take(r.remaining()).expect("remaining bytes").to_vec();
    Ok(WalRecord {
        epoch,
        pre_digest,
        post_digest,
        script,
    })
}

impl WalRecord {
    /// Decodes the script, mapping failures to [`RecoveryError`] at
    /// `record` in `path`.
    pub(crate) fn decode_script(
        &self,
        path: &Path,
        record: u64,
    ) -> Result<EditScript, RecoveryError> {
        codec::script_from_bytes(&self.script).map_err(|e| RecoveryError::CorruptRecord {
            path: path.to_path_buf(),
            record,
            detail: format!("script: {e}"),
        })
    }
}

/// The parse of one log file: the verified records, how many bytes of the
/// file they cover, and how many trailing torn bytes were dropped.
#[derive(Debug)]
pub(crate) struct WalContents {
    pub(crate) records: Vec<WalRecord>,
    /// Bytes of valid prefix (header + whole records); the reopen path
    /// truncates the file to this length.
    pub(crate) valid_bytes: u64,
    /// Torn trailing bytes past the valid prefix (0 after a clean
    /// shutdown).
    pub(crate) torn_bytes: u64,
}

/// Parses a log file, tolerating a torn tail and refusing mid-log
/// corruption. A missing file parses as empty (the crash window between
/// directory creation and header write).
pub(crate) fn read_wal(path: &Path) -> Result<WalContents, RecoveryError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(path, e)),
    };
    if bytes.len() < WAL_HEADER_LEN as usize {
        // The header itself was torn: no record can have been made durable
        // before it, so the whole file is a (tolerated) torn tail.
        return Ok(WalContents {
            records: Vec::new(),
            valid_bytes: 0,
            torn_bytes: bytes.len() as u64,
        });
    }
    if &bytes[0..4] != WAL_MAGIC {
        return Err(RecoveryError::BadHeader {
            path: path.to_path_buf(),
            detail: "missing WAL magic".into(),
        });
    }
    if bytes[4] != FORMAT_VERSION {
        return Err(RecoveryError::BadHeader {
            path: path.to_path_buf(),
            detail: format!("unsupported WAL version {}", bytes[4]),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        // A record needs its length header, body, and checksum in full;
        // anything shorter is a torn tail — unless more bytes follow it,
        // which read_frame below rules out by construction (we stop at the
        // first incomplete record).
        if remaining < 4 {
            return Ok(torn(records, pos as u64, remaining as u64));
        }
        let body_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if remaining < 4 + body_len + 8 {
            return Ok(torn(records, pos as u64, remaining as u64));
        }
        let body = &bytes[pos + 4..pos + 4 + body_len];
        let sum = u64::from_le_bytes(
            bytes[pos + 4 + body_len..pos + 4 + body_len + 8]
                .try_into()
                .expect("8 bytes"),
        );
        let record_end = pos + 4 + body_len + 8;
        if checksum(body) != sum {
            if record_end == bytes.len() {
                // A checksum-failing *final* record is a torn overwrite of
                // the tail: tolerated, dropped.
                return Ok(torn(records, pos as u64, remaining as u64));
            }
            return Err(RecoveryError::CorruptRecord {
                path: path.to_path_buf(),
                record: records.len() as u64,
                detail: "checksum mismatch before the end of the log".into(),
            });
        }
        let mut r = Reader::new(body);
        let field = |e: codec::CodecError, at: usize| RecoveryError::CorruptRecord {
            path: path.to_path_buf(),
            record: at as u64,
            detail: format!("record fields: {e}"),
        };
        let epoch = r.u64().map_err(|e| field(e, records.len()))?;
        let pre_digest = r.u64().map_err(|e| field(e, records.len()))?;
        let post_digest = r.u64().map_err(|e| field(e, records.len()))?;
        let script = r.take(r.remaining()).expect("remaining bytes").to_vec();
        records.push(WalRecord {
            epoch,
            pre_digest,
            post_digest,
            script,
        });
        pos = record_end;
    }
    Ok(WalContents {
        records,
        valid_bytes: pos as u64,
        torn_bytes: 0,
    })
}

fn torn(records: Vec<WalRecord>, valid: u64, torn: u64) -> WalContents {
    WalContents {
        records,
        valid_bytes: valid,
        torn_bytes: torn,
    }
}

/// One document's live write-ahead log: owned by its
/// [`crate::corpus::CorpusHandle`], appended (and fsync'd) inside the
/// commit path *before* the epoch swap. See the [module docs](self) for
/// the failure model (fail-stop on append errors).
#[derive(Debug)]
pub(crate) struct DocWal {
    doc_id: String,
    tags: Vec<String>,
    doc_dir: PathBuf,
    wal_path: PathBuf,
    snapshot_every: u64,
    file: Mutex<File>,
    log_records: AtomicU64,
    log_bytes: AtomicU64,
    snapshot_epoch: AtomicU64,
}

impl DocWal {
    /// Creates a fresh document log under `root`: its directory, the
    /// epoch-0 snapshot of `tree`, and an empty log file, all fsync'd.
    pub(crate) fn create(
        root: &Path,
        doc_id: &str,
        tags: &[String],
        snapshot_every: u64,
        tree: &Tree,
    ) -> std::io::Result<DocWal> {
        let doc_dir = root.join(sanitize_doc_id(doc_id));
        fs::create_dir_all(&doc_dir)?;
        write_snapshot(&doc_dir, doc_id, tags, 0, tree)?;
        let wal_path = doc_dir.join(WAL_FILE);
        let mut file = File::create(&wal_path)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&[FORMAT_VERSION])?;
        file.sync_all()?;
        sync_dir(&doc_dir);
        Ok(DocWal {
            doc_id: doc_id.to_string(),
            tags: tags.to_vec(),
            doc_dir,
            wal_path,
            snapshot_every,
            file: Mutex::new(file),
            log_records: AtomicU64::new(0),
            log_bytes: AtomicU64::new(WAL_HEADER_LEN),
            snapshot_epoch: AtomicU64::new(0),
        })
    }

    /// Reopens a recovered document's log for appending: the torn tail (if
    /// any) is truncated away and the counters resume from the recovered
    /// state.
    pub(crate) fn reopen(
        root: &Path,
        recovered: &RecoveredDocument,
        snapshot_every: u64,
    ) -> std::io::Result<DocWal> {
        let doc_dir = root.join(sanitize_doc_id(&recovered.doc_id));
        let wal_path = doc_dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut valid_bytes = recovered.wal_valid_bytes;
        if valid_bytes < WAL_HEADER_LEN {
            // The header itself was torn (or the file was missing):
            // rewrite it from scratch.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&[FORMAT_VERSION])?;
            valid_bytes = WAL_HEADER_LEN;
        } else {
            file.set_len(valid_bytes)?;
            file.seek(SeekFrom::Start(valid_bytes))?;
        }
        file.sync_all()?;
        Ok(DocWal {
            doc_id: recovered.doc_id.clone(),
            tags: recovered.tags.clone(),
            doc_dir,
            wal_path,
            snapshot_every,
            file: Mutex::new(file),
            log_records: AtomicU64::new(recovered.wal_records),
            log_bytes: AtomicU64::new(valid_bytes),
            snapshot_epoch: AtomicU64::new(recovered.snapshot_epoch),
        })
    }

    /// Appends one commit record and fsyncs it. Called by the commit path
    /// **before** the epoch swap; panics on I/O failure (fail-stop — see
    /// the [module docs](self)).
    pub(crate) fn append(
        &self,
        epoch: u64,
        pre_digest: u64,
        post_digest: u64,
        script: &EditScript,
    ) {
        let mut body = Vec::new();
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(&pre_digest.to_le_bytes());
        body.extend_from_slice(&post_digest.to_le_bytes());
        codec::encode_script(script, &mut body);
        let frame = frame_wal_body(&body);
        let mut file = self.file.lock().expect("wal file lock poisoned");
        file.write_all(&frame)
            .and_then(|()| file.sync_data())
            .unwrap_or_else(|e| {
                panic!(
                    "WAL append failed for {}: {e} — cannot guarantee durability, aborting",
                    self.wal_path.display()
                )
            });
        self.log_records.fetch_add(1, Ordering::Relaxed);
        self.log_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
    }

    /// After the epoch swap: snapshots `tree` and truncates the log if
    /// `epoch` hits the snapshot cadence. Panics on I/O failure
    /// (fail-stop).
    pub(crate) fn maybe_snapshot(&self, epoch: u64, tree: &Tree) {
        if self.snapshot_every == 0 || epoch == 0 || epoch % self.snapshot_every != 0 {
            return;
        }
        let mut file = self.file.lock().expect("wal file lock poisoned");
        write_snapshot(&self.doc_dir, &self.doc_id, &self.tags, epoch, tree)
            .and_then(|_| {
                // Every record in the log is now covered by the snapshot:
                // truncate back to the bare header.
                file.set_len(WAL_HEADER_LEN)?;
                file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
                file.sync_all()
            })
            .unwrap_or_else(|e| {
                panic!(
                    "snapshot at epoch {epoch} failed for {}: {e} — aborting",
                    self.doc_dir.display()
                )
            });
        self.log_records.store(0, Ordering::Relaxed);
        self.log_bytes.store(WAL_HEADER_LEN, Ordering::Relaxed);
        self.snapshot_epoch.store(epoch, Ordering::Relaxed);
        // Older snapshots are superseded; losing this cleanup is harmless.
        if let Ok(entries) = fs::read_dir(&self.doc_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(e) = name.to_str().and_then(snapshot_epoch_of) {
                    if e < epoch {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
    }

    /// Removes the document's directory from disk (used by corpus-level
    /// document removal). Best-effort.
    pub(crate) fn remove_dir(&self) {
        let _ = fs::remove_dir_all(&self.doc_dir);
    }

    /// This log's cumulative counters.
    pub(crate) fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            log_records: self.log_records.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            snapshot_epoch: self.snapshot_epoch.load(Ordering::Relaxed),
        }
    }
}

// ---- recovery ----

/// The outcome of recovering one document directory: the state as of the
/// durable prefix, plus everything needed to resume logging.
#[derive(Clone, Debug)]
pub struct RecoveredDocument {
    /// The document id (from the snapshot, not the directory name).
    pub doc_id: String,
    /// The document's routing tags.
    pub tags: Vec<String>,
    /// The recovered epoch (snapshot epoch + replayed records).
    pub epoch: u64,
    /// The recovered tree.
    pub tree: Tree,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn trailing bytes dropped from the log (0 after a clean
    /// shutdown).
    pub torn_bytes: u64,
    /// Records in the valid log prefix (including any below the snapshot
    /// epoch that were skipped rather than replayed).
    pub wal_records: u64,
    /// Bytes of the valid log prefix.
    pub wal_valid_bytes: u64,
}

/// The newest verified snapshot of a document directory; older snapshots
/// are fallbacks (they can linger if a crash interrupted the post-snapshot
/// cleanup). Shared by [`recover_document`] and the replication layer's
/// leader-side scan.
pub(crate) fn newest_snapshot(doc_dir: &Path) -> Result<Snapshot, RecoveryError> {
    let mut snapshot_epochs: Vec<u64> = fs::read_dir(doc_dir)
        .map_err(|e| io_err(doc_dir, e))?
        .flatten()
        .filter_map(|entry| entry.file_name().to_str().and_then(snapshot_epoch_of))
        .collect();
    snapshot_epochs.sort_unstable_by(|a, b| b.cmp(a));
    for epoch in snapshot_epochs {
        if let Ok(snap) = read_snapshot(&doc_dir.join(snapshot_file_name(epoch))) {
            return Ok(snap);
        }
    }
    Err(RecoveryError::NoSnapshot {
        path: doc_dir.to_path_buf(),
    })
}

/// Recovers one document directory: newest valid snapshot + verified
/// replay of the log tail. See the [module docs](self) for what is
/// tolerated (torn final records) and what is refused (everything else).
pub fn recover_document(doc_dir: &Path) -> Result<RecoveredDocument, RecoveryError> {
    let snapshot = newest_snapshot(doc_dir)?;
    let wal_path = doc_dir.join(WAL_FILE);
    let contents = read_wal(&wal_path)?;
    let mut tree = snapshot.tree;
    let mut digest = snapshot.digest;
    let mut epoch = snapshot.epoch;
    let mut replayed = 0u64;
    for (index, record) in contents.records.iter().enumerate() {
        if record.epoch <= snapshot.epoch {
            // Covered by the snapshot (a crash between snapshot write and
            // log truncation leaves these behind); checksum-verified but
            // not replayed.
            continue;
        }
        if record.epoch != epoch + 1 {
            return Err(RecoveryError::CorruptRecord {
                path: wal_path.clone(),
                record: index as u64,
                detail: format!(
                    "epoch {} out of sequence (expected {})",
                    record.epoch,
                    epoch + 1
                ),
            });
        }
        if record.pre_digest != digest {
            return Err(RecoveryError::DigestChain {
                path: wal_path.clone(),
                record: index as u64,
                expected: digest,
                found: record.pre_digest,
            });
        }
        let script = record.decode_script(&wal_path, index as u64)?;
        let (next, _summary) = script.apply_to(&tree).map_err(|e| RecoveryError::Replay {
            path: wal_path.clone(),
            record: index as u64,
            detail: e.to_string(),
        })?;
        let next_digest = next.structure_digest();
        if next_digest != record.post_digest {
            return Err(RecoveryError::Replay {
                path: wal_path.clone(),
                record: index as u64,
                detail: format!(
                    "replayed digest {next_digest:#018x} does not match recorded \
                     post-digest {:#018x}",
                    record.post_digest
                ),
            });
        }
        tree = next;
        digest = next_digest;
        epoch = record.epoch;
        replayed += 1;
    }
    Ok(RecoveredDocument {
        doc_id: snapshot.doc_id,
        tags: snapshot.tags,
        epoch,
        tree,
        snapshot_epoch: snapshot.epoch,
        replayed_records: replayed,
        torn_bytes: contents.torn_bytes,
        wal_records: contents.records.len() as u64,
        wal_valid_bytes: contents.valid_bytes,
    })
}

/// Recovers every document directory under `dir`, sorted by directory
/// name. A missing root directory recovers as an empty corpus.
pub fn recover_corpus_dir(dir: &Path) -> Result<Vec<RecoveredDocument>, RecoveryError> {
    let mut doc_dirs: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .filter(|entry| entry.path().is_dir())
            .map(|entry| entry.path())
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(dir, e)),
    };
    doc_dirs.sort();
    doc_dirs.iter().map(|d| recover_document(d)).collect()
}

/// Summary of one [`Corpus::open_durable`] recovery, for reports and the
/// `experiments recover` harness.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Per-document recovery outcomes, sorted by document id.
    pub documents: Vec<DocRecovery>,
}

/// One document's slice of a [`RecoveryReport`].
#[derive(Clone, Debug)]
pub struct DocRecovery {
    /// The document id.
    pub doc_id: String,
    /// The epoch the document recovered to.
    pub epoch: u64,
    /// The snapshot epoch recovery started from.
    pub snapshot_epoch: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn trailing bytes dropped from the log.
    pub torn_bytes: u64,
}

impl RecoveryReport {
    /// Total log records replayed across all documents.
    pub fn replayed_records(&self) -> u64 {
        self.documents.iter().map(|d| d.replayed_records).sum()
    }

    /// Total torn bytes dropped across all documents.
    pub fn torn_bytes(&self) -> u64 {
        self.documents.iter().map(|d| d.torn_bytes).sum()
    }
}

// ---- follower ----

/// Per-document tail state of a [`Follower`].
struct FollowerDoc {
    epoch: u64,
    digest: u64,
}

/// A read-only replica that tails a leader's log directory into its own
/// [`Corpus`]. Each [`Follower::poll`] applies the records the leader
/// appended since the last poll (verifying the same checksum/digest chain
/// recovery does), or reloads from the newest snapshot when the leader
/// truncated the log past the follower's position. The follower's corpus
/// is read-only **by contract**: nothing else may commit to it, and the
/// follower itself only applies leader records.
pub struct Follower {
    dir: PathBuf,
    corpus: Arc<Corpus>,
    state: Mutex<BTreeMap<String, FollowerDoc>>,
}

impl Follower {
    /// Opens a follower over the leader log directory `dir`, catching up
    /// to the current durable state immediately.
    pub fn open(dir: impl Into<PathBuf>, shards: usize) -> Result<Follower, RecoveryError> {
        let follower = Follower {
            dir: dir.into(),
            corpus: Arc::new(Corpus::new(shards)),
            state: Mutex::new(BTreeMap::new()),
        };
        follower.poll()?;
        Ok(follower)
    }

    /// The follower's serving corpus. Readers snapshot and evaluate
    /// exactly as against a leader; commits are the follower's own
    /// business only.
    pub fn corpus(&self) -> &Arc<Corpus> {
        &self.corpus
    }

    /// Tails the leader's directory once: applies every new durable
    /// record (and picks up new or removed documents), returning how many
    /// records were applied plus how many documents were (re)loaded from
    /// snapshots.
    pub fn poll(&self) -> Result<FollowerProgress, RecoveryError> {
        let mut state = self.state.lock().expect("follower state lock poisoned");
        let mut progress = FollowerProgress::default();
        let mut seen: Vec<String> = Vec::new();
        let mut doc_dirs: Vec<PathBuf> = match fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .flatten()
                .filter(|entry| entry.path().is_dir())
                .map(|entry| entry.path())
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(&self.dir, e)),
        };
        doc_dirs.sort();
        for doc_dir in doc_dirs {
            let wal_path = doc_dir.join(WAL_FILE);
            let contents = read_wal(&wal_path)?;
            // Cheap id probe: the directory name is not authoritative, so
            // full (re)loads go through recover_document; the incremental
            // path only needs the records.
            let known = contents.records.first().and_then(|first| {
                state.iter().find_map(|(id, doc)| {
                    (self.dir.join(sanitize_doc_id(id)) == doc_dir && doc.epoch + 1 >= first.epoch)
                        .then(|| id.clone())
                })
            });
            match known {
                Some(doc_id) => {
                    let doc = state.get_mut(&doc_id).expect("probed above");
                    for (index, record) in contents.records.iter().enumerate() {
                        if record.epoch <= doc.epoch {
                            continue;
                        }
                        if record.pre_digest != doc.digest {
                            return Err(RecoveryError::DigestChain {
                                path: wal_path.clone(),
                                record: index as u64,
                                expected: doc.digest,
                                found: record.pre_digest,
                            });
                        }
                        let script = record.decode_script(&wal_path, index as u64)?;
                        let report = self
                            .corpus
                            .commit(&doc_id.as_str().into(), &script)
                            .map_err(|e| RecoveryError::Replay {
                                path: wal_path.clone(),
                                record: index as u64,
                                detail: e.to_string(),
                            })?;
                        if report.epoch != record.epoch
                            || report.structure_hash != record.post_digest
                        {
                            return Err(RecoveryError::Replay {
                                path: wal_path.clone(),
                                record: index as u64,
                                detail: format!(
                                    "applied epoch {} digest {:#018x}, record says epoch {} \
                                     digest {:#018x}",
                                    report.epoch,
                                    report.structure_hash,
                                    record.epoch,
                                    record.post_digest
                                ),
                            });
                        }
                        doc.epoch = record.epoch;
                        doc.digest = record.post_digest;
                        progress.records_applied += 1;
                    }
                    seen.push(doc_id);
                }
                None => {
                    // New document, or the leader truncated past our
                    // position: full (re)load from the newest snapshot.
                    let recovered = match recover_document(&doc_dir) {
                        Ok(recovered) => recovered,
                        Err(RecoveryError::NoSnapshot { .. }) => {
                            // The snapshot-rotation (or document-creation)
                            // window: the leader has renamed or not yet
                            // renamed a snapshot into place, so no snapshot
                            // is readable *right now*. That is not
                            // corruption and emphatically not a removal —
                            // keep whatever state we hold and retry on the
                            // next poll.
                            if let Some(id) = state
                                .keys()
                                .find(|id| self.dir.join(sanitize_doc_id(id)) == doc_dir)
                                .cloned()
                            {
                                seen.push(id);
                            }
                            continue;
                        }
                        Err(error @ RecoveryError::Io { .. }) => {
                            if fs::metadata(&doc_dir).is_err() {
                                // The directory vanished between the
                                // listing and the read: leave the verdict
                                // to the confirmed-removal pass below.
                                continue;
                            }
                            return Err(error);
                        }
                        Err(error) => return Err(error),
                    };
                    let doc_id = recovered.doc_id.clone();
                    let known_epoch = state.get(&doc_id).map(|d| d.epoch);
                    if known_epoch == Some(recovered.epoch) {
                        seen.push(doc_id);
                        continue;
                    }
                    if known_epoch.is_some() {
                        self.corpus.remove(&doc_id.as_str().into());
                    }
                    let digest = recovered.tree.structure_digest();
                    let epoch = recovered.epoch;
                    self.corpus
                        .insert_recovered(
                            doc_id.as_str(),
                            &recovered.tags,
                            recovered.tree,
                            epoch,
                            None,
                        )
                        .map_err(|e| RecoveryError::Replay {
                            path: doc_dir.clone(),
                            record: 0,
                            detail: e.to_string(),
                        })?;
                    state.insert(doc_id.clone(), FollowerDoc { epoch, digest });
                    progress.documents_loaded += 1;
                    seen.push(doc_id);
                }
            }
        }
        // Documents whose directory disappeared were removed by the
        // leader — but only a *confirmed* absence counts. The directory
        // listing above can transiently miss an entry while the leader is
        // rotating snapshots, and removal is destructive on the follower
        // (the tree and its replay position are dropped), so each
        // candidate is re-probed directly before being removed. A probe
        // that still finds the path — or fails for any reason other than
        // `NotFound` — defers the verdict to the next poll.
        let gone: Vec<String> = state
            .keys()
            .filter(|id| !seen.contains(id))
            .cloned()
            .collect();
        for id in gone {
            match fs::metadata(self.dir.join(sanitize_doc_id(&id))) {
                Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                    self.corpus.remove(&id.as_str().into());
                    state.remove(&id);
                    progress.documents_removed += 1;
                }
                _ => {}
            }
        }
        Ok(progress)
    }
}

/// What one [`Follower::poll`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FollowerProgress {
    /// Log records applied incrementally.
    pub records_applied: u64,
    /// Documents loaded (or reloaded) from snapshots.
    pub documents_loaded: u64,
    /// Documents dropped because the leader removed them.
    pub documents_removed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_trees::edit::TreeEdit;
    use cqt_trees::parse::parse_term;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cqt-durability-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn relabel(node_pre: u32, label: &str) -> EditScript {
        EditScript::single(TreeEdit::Relabel {
            node_pre,
            labels: vec![label.into()],
        })
    }

    #[test]
    fn sanitization_is_injective_on_interesting_ids() {
        let ids = ["doc-1", "doc/1", "doc%1", "../../etc", "päper", "a b"];
        let mut seen = std::collections::BTreeSet::new();
        for id in ids {
            let s = sanitize_doc_id(id);
            assert!(
                s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'%')),
                "{s}"
            );
            assert!(!s.contains('/'));
            assert!(seen.insert(s), "collision on {id}");
        }
    }

    #[test]
    fn wal_appends_parse_back_and_tolerate_torn_tails() {
        let root = temp_dir("torn");
        let tree = parse_term("R(A(B), C)").unwrap();
        let wal = DocWal::create(&root, "doc", &[], 0, &tree).unwrap();
        let mut current = tree.clone();
        for (epoch, label) in [(1u64, "X"), (2, "Y"), (3, "Z")] {
            let script = relabel(2, label);
            let (next, _) = script.apply_to(&current).unwrap();
            wal.append(
                epoch,
                current.structure_digest(),
                next.structure_digest(),
                &script,
            );
            current = next;
        }
        let wal_path = root.join("doc").join(WAL_FILE);
        let contents = read_wal(&wal_path).unwrap();
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.torn_bytes, 0);
        assert_eq!(wal.stats().log_records, 3);
        assert_eq!(wal.stats().log_bytes, contents.valid_bytes);

        // Truncating at every byte offset inside the last record drops
        // exactly that record and reports the torn bytes.
        let full = fs::read(&wal_path).unwrap();
        let second_end = {
            let two = read_wal(&wal_path).unwrap();
            // valid prefix of two records = full minus the last frame.
            let last_frame = two.records[2].script.len() + 8 + 8 + 8 + 4 + 8;
            full.len() - last_frame
        };
        for cut in second_end + 1..full.len() {
            fs::write(&wal_path, &full[..cut]).unwrap();
            let torn = read_wal(&wal_path).unwrap();
            assert_eq!(torn.records.len(), 2, "cut at {cut}");
            assert_eq!(torn.valid_bytes as usize, second_end);
            assert_eq!(torn.torn_bytes as usize, cut - second_end);
        }

        // Mid-log corruption (a flipped byte in record 0's body) is
        // refused, not truncated away.
        let mut corrupt = full.clone();
        corrupt[WAL_HEADER_LEN as usize + 6] ^= 0xff;
        fs::write(&wal_path, &corrupt).unwrap();
        match read_wal(&wal_path).unwrap_err() {
            RecoveryError::CorruptRecord { record, .. } => assert_eq!(record, 0),
            other => panic!("expected CorruptRecord, got {other}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_replays_the_log_over_the_snapshot() {
        let root = temp_dir("recover");
        let tree = parse_term("R(A(B), C)").unwrap();
        let tags = vec!["hot".to_string()];
        let wal = DocWal::create(&root, "docs/a", &tags, 0, &tree).unwrap();
        let mut current = tree.clone();
        for (epoch, label) in [(1u64, "X"), (2, "Y")] {
            let script = relabel(3, label);
            let (next, _) = script.apply_to(&current).unwrap();
            wal.append(
                epoch,
                current.structure_digest(),
                next.structure_digest(),
                &script,
            );
            current = next;
        }
        let recovered = recover_document(&root.join(sanitize_doc_id("docs/a"))).unwrap();
        assert_eq!(recovered.doc_id, "docs/a");
        assert_eq!(recovered.tags, tags);
        assert_eq!(recovered.epoch, 2);
        assert_eq!(recovered.snapshot_epoch, 0);
        assert_eq!(recovered.replayed_records, 2);
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(
            recovered.tree.structure_digest(),
            current.structure_digest()
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshots_truncate_the_log_and_anchor_recovery() {
        let root = temp_dir("snapshot");
        let tree = parse_term("R(A(B), C)").unwrap();
        // Snapshot every 2 commits.
        let wal = DocWal::create(&root, "doc", &[], 2, &tree).unwrap();
        let mut current = tree.clone();
        for epoch in 1u64..=3 {
            let script = relabel(3, &format!("L{epoch}"));
            let (next, _) = script.apply_to(&current).unwrap();
            wal.append(
                epoch,
                current.structure_digest(),
                next.structure_digest(),
                &script,
            );
            current = next;
            wal.maybe_snapshot(epoch, &current);
        }
        // After the epoch-2 snapshot the log holds only the epoch-3
        // record.
        let stats = wal.stats();
        assert_eq!(stats.snapshot_epoch, 2);
        assert_eq!(stats.log_records, 1);
        let doc_dir = root.join("doc");
        let recovered = recover_document(&doc_dir).unwrap();
        assert_eq!(recovered.snapshot_epoch, 2);
        assert_eq!(recovered.epoch, 3);
        assert_eq!(recovered.replayed_records, 1);
        assert_eq!(
            recovered.tree.structure_digest(),
            current.structure_digest()
        );
        // The old epoch-0 snapshot was cleaned up.
        assert!(!doc_dir.join(snapshot_file_name(0)).exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn digest_chain_breaks_are_typed_errors() {
        let root = temp_dir("chain");
        let tree = parse_term("R(A)").unwrap();
        let wal = DocWal::create(&root, "doc", &[], 0, &tree).unwrap();
        let script = relabel(1, "B");
        let (next, _) = script.apply_to(&tree).unwrap();
        // Lie about the pre-digest: recovery must refuse.
        wal.append(1, 0xbad, next.structure_digest(), &script);
        match recover_document(&root.join("doc")).unwrap_err() {
            RecoveryError::DigestChain { record, found, .. } => {
                assert_eq!(record, 0);
                assert_eq!(found, 0xbad);
            }
            other => panic!("expected DigestChain, got {other}"),
        }
        let _ = fs::remove_dir_all(&root);
    }
}
