//! Durable write path: per-document write-ahead logs, periodic snapshots,
//! and crash recovery.
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
//! * **One verified scan.** `scan_document` is the only reader of a
//!   document directory: the newest valid snapshot plus the log records
//!   after it, with each record's checksum, the epoch sequence and the
//!   pre-digest chain (`record.pre == previous.post`) verified. A
//!   **truncated final record** is tolerated — that is exactly what a
//!   crash mid-append leaves behind, and the fsync barrier guarantees no
//!   committed epoch is in it — but **mid-log corruption is refused** with
//!   a typed [`RecoveryError`]: bytes the log claims were durable cannot be
//!   quietly dropped. Crash recovery ([`recover_document`]) replays the
//!   scan, checking each replayed digest against `record.post`; promotion
//!   ([`crate::replication::durable_positions`]) reads only its tip; log
//!   shipping ([`crate::replication`]) streams it.
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

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cqt_trees::codec::{self, Reader};
use cqt_trees::edit::EditScript;
use cqt_trees::Tree;
use rustc_hash::FxHasher;

/// Magic prefix of a write-ahead log file.
const WAL_MAGIC: &[u8; 4] = b"CQTW";
/// Magic prefix of a snapshot file.
const SNAP_MAGIC: &[u8; 4] = b"CQTS";
/// Format version of both files.
const FORMAT_VERSION: u8 = 1;
/// Bytes of a WAL file header (magic + version).
const WAL_HEADER_LEN: u64 = 5;
/// The log file's name inside a document directory.
pub(crate) const WAL_FILE: &str = "wal.log";
/// Suffix of a removed document's directory while it is being deleted.
/// [`sanitize_doc_id`] never emits `~`, so no document directory has it.
const REMOVED_SUFFIX: &str = "~removed";

/// Whether (and where) a [`crate::Corpus`] persists its write path.
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
    record_from_body(body).map_err(|e| format!("record fields: {e}"))
}

/// Decodes the fields of a checksum-verified record body.
fn record_from_body(body: &[u8]) -> Result<WalRecord, codec::CodecError> {
    let mut r = Reader::new(body);
    Ok(WalRecord {
        epoch: r.u64()?,
        pre_digest: r.u64()?,
        post_digest: r.u64()?,
        script: r.take(r.remaining())?.to_vec(),
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
struct WalContents {
    records: Vec<WalRecord>,
    /// Bytes of valid prefix (header + whole records); the reopen path
    /// truncates the file to this length.
    valid_bytes: u64,
    /// Torn trailing bytes past the valid prefix (0 after a clean
    /// shutdown).
    torn_bytes: u64,
}

/// Parses a log file, tolerating a torn tail and refusing mid-log
/// corruption. A missing file parses as empty (the crash window between
/// directory creation and header write).
fn read_wal(path: &Path) -> Result<WalContents, RecoveryError> {
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
        let record = record_from_body(body).map_err(|e| RecoveryError::CorruptRecord {
            path: path.to_path_buf(),
            record: records.len() as u64,
            detail: format!("record fields: {e}"),
        })?;
        records.push(record);
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
    /// document removal). Best-effort. The directory is first renamed out
    /// of [`doc_dirs`]' listing, so a concurrent scan sees the whole
    /// document or none of it — never a snapshot whose log is already
    /// deleted, which would ship the document at its snapshot epoch.
    pub(crate) fn remove_dir(&self) {
        let mut doomed = self.doc_dir.clone().into_os_string();
        doomed.push(REMOVED_SUFFIX);
        match fs::rename(&self.doc_dir, &doomed) {
            Ok(()) => fs::remove_dir_all(doomed),
            Err(_) => fs::remove_dir_all(&self.doc_dir),
        }
        .unwrap_or(());
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
/// cleanup).
fn newest_snapshot(doc_dir: &Path) -> Result<Snapshot, RecoveryError> {
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

/// One document directory as [`scan_document`] read it: the newest valid
/// snapshot and the verified log records after it.
pub(crate) struct DocScan {
    pub(crate) snapshot: Snapshot,
    /// The records after the snapshot, epochs running contiguously from
    /// `snapshot.epoch + 1`, each `pre_digest` equal to the previous
    /// state's digest. Their `post_digest`s are as recorded, not replayed.
    pub(crate) records: Vec<WalRecord>,
    /// Leading log records at or below the snapshot epoch (a crash between
    /// the snapshot write and the log truncation leaves these): the index
    /// of `records[i]` in the whole log is `skipped + i`.
    pub(crate) skipped: u64,
    /// The log file scanned.
    pub(crate) wal_path: PathBuf,
    /// Torn trailing bytes dropped from the log (0 after a clean
    /// shutdown).
    pub(crate) torn_bytes: u64,
    /// Bytes of the valid log prefix.
    pub(crate) valid_bytes: u64,
}

impl DocScan {
    /// The newest durable epoch.
    pub(crate) fn tip_epoch(&self) -> u64 {
        self.snapshot.epoch + self.records.len() as u64
    }

    /// The digest at `epoch`, which must lie in
    /// `snapshot.epoch ..= tip_epoch`.
    pub(crate) fn digest_at(&self, epoch: u64) -> u64 {
        if epoch == self.snapshot.epoch {
            self.snapshot.digest
        } else {
            self.records[(epoch - self.snapshot.epoch - 1) as usize].post_digest
        }
    }
}

/// Reads one document directory: the newest valid snapshot plus the log
/// records after it, verifying record checksums, the epoch sequence and
/// the pre-digest chain. Errors carry the record's index in the whole log.
/// Nothing is replayed.
///
/// The log is read **before** the snapshot. Snapshots only move forward,
/// so a snapshot read later can only cover more of the log already read;
/// a writer rotating snapshots between the two reads cannot open a gap
/// between them.
pub(crate) fn scan_document(doc_dir: &Path) -> Result<DocScan, RecoveryError> {
    let wal_path = doc_dir.join(WAL_FILE);
    let contents = read_wal(&wal_path)?;
    let snapshot = newest_snapshot(doc_dir)?;
    let mut records = contents.records;
    let skipped = records
        .iter()
        .take_while(|record| record.epoch <= snapshot.epoch)
        .count();
    let (mut epoch, mut digest) = (snapshot.epoch, snapshot.digest);
    for (index, record) in records.iter().enumerate().skip(skipped) {
        if record.epoch != epoch + 1 {
            return Err(RecoveryError::CorruptRecord {
                path: wal_path,
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
                path: wal_path,
                record: index as u64,
                expected: digest,
                found: record.pre_digest,
            });
        }
        epoch = record.epoch;
        digest = record.post_digest;
    }
    records.drain(..skipped);
    Ok(DocScan {
        snapshot,
        records,
        skipped: skipped as u64,
        wal_path,
        torn_bytes: contents.torn_bytes,
        valid_bytes: contents.valid_bytes,
    })
}

/// Recovers one document directory: `scan_document` plus a replay of
/// the scanned records, each replayed tree checked against the record's
/// post-digest. See the [module docs](self) for what is tolerated (torn
/// final records) and what is refused (everything else).
pub fn recover_document(doc_dir: &Path) -> Result<RecoveredDocument, RecoveryError> {
    let scan = scan_document(doc_dir)?;
    let epoch = scan.tip_epoch();
    let mut tree = scan.snapshot.tree;
    for (offset, record) in scan.records.iter().enumerate() {
        let index = scan.skipped + offset as u64;
        let replay = |detail: String| RecoveryError::Replay {
            path: scan.wal_path.clone(),
            record: index,
            detail,
        };
        let script = record.decode_script(&scan.wal_path, index)?;
        let (next, _summary) = script.apply_to(&tree).map_err(|e| replay(e.to_string()))?;
        let next_digest = next.structure_digest();
        if next_digest != record.post_digest {
            return Err(replay(format!(
                "replayed digest {next_digest:#018x} does not match recorded \
                 post-digest {:#018x}",
                record.post_digest
            )));
        }
        tree = next;
    }
    let replayed_records = scan.records.len() as u64;
    Ok(RecoveredDocument {
        doc_id: scan.snapshot.doc_id,
        tags: scan.snapshot.tags,
        epoch,
        tree,
        snapshot_epoch: scan.snapshot.epoch,
        replayed_records,
        torn_bytes: scan.torn_bytes,
        wal_records: scan.skipped + replayed_records,
        wal_valid_bytes: scan.valid_bytes,
    })
}

/// The document directories under `dir`, sorted by name. Directories of
/// removed documents still being deleted are not listed.
pub(crate) fn doc_dirs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut doc_dirs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let removed = path.to_str().is_some_and(|p| p.ends_with(REMOVED_SUFFIX));
        if path.is_dir() && !removed {
            doc_dirs.push(path);
        }
    }
    doc_dirs.sort();
    Ok(doc_dirs)
}

/// Recovers every document directory under `dir`, sorted by directory
/// name. A missing root directory recovers as an empty corpus.
pub fn recover_corpus_dir(dir: &Path) -> Result<Vec<RecoveredDocument>, RecoveryError> {
    match doc_dirs(dir) {
        Ok(doc_dirs) => doc_dirs.iter().map(|d| recover_document(d)).collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err(dir, e)),
    }
}

/// Summary of one [`crate::Corpus::open_durable`] recovery, for reports and the
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
    fn removed_directories_leave_the_listing_at_once() {
        let root = temp_dir("removed");
        let tree = parse_term("R(A)").unwrap();
        let kept = DocWal::create(&root, "kept", &[], 0, &tree).unwrap();
        let gone = DocWal::create(&root, "gone", &[], 0, &tree).unwrap();
        gone.remove_dir();
        assert!(!root.join("gone").exists());
        // A removal cut short after its rename leaves a whole document
        // behind under the removed suffix: no scan may list it.
        fs::rename(
            root.join("kept"),
            root.join(format!("kept{REMOVED_SUFFIX}")),
        )
        .unwrap();
        assert!(recover_corpus_dir(&root).unwrap().is_empty());
        fs::rename(
            root.join(format!("kept{REMOVED_SUFFIX}")),
            root.join("kept"),
        )
        .unwrap();
        let recovered = recover_corpus_dir(&root).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].doc_id, "kept");
        kept.remove_dir();
        assert_eq!(fs::read_dir(&root).unwrap().count(), 0);
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

        // A log that still holds records at or below its snapshot epoch —
        // a crash between the snapshot write and the log truncation leaves
        // one — then breaks at its third record (index 2 of the whole log).
        // Recovery and promotion report the identical error, and the
        // producer refuses to ship the chain: a local replica's sync fails
        // and its position stays put.
        for gap in [false, true] {
            let root = temp_dir(if gap { "chain-gap" } else { "chain-pre" });
            let tree = parse_term("R(A(B), C)").unwrap();
            let wal = DocWal::create(&root, "doc", &[], 0, &tree).unwrap();
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
            let doc_dir = root.join("doc");
            write_snapshot(&doc_dir, "doc", &[], 2, &current).unwrap();
            let recovered = recover_document(&doc_dir).unwrap();
            assert_eq!((recovered.epoch, recovered.replayed_records), (2, 0));
            assert_eq!(recovered.wal_records, 2);
            let replica = crate::ReplicaFollower::local(&root, 1);
            replica.sync().unwrap();
            let before = replica.positions();
            assert_eq!(before, crate::durable_positions(&root).unwrap());

            let script = relabel(3, "Z");
            let (next, _) = script.apply_to(&current).unwrap();
            if gap {
                wal.append(
                    4,
                    current.structure_digest(),
                    next.structure_digest(),
                    &script,
                );
            } else {
                wal.append(3, 0xbad, next.structure_digest(), &script);
            }
            let from_recovery = recover_document(&doc_dir).unwrap_err();
            let from_promotion = crate::durable_positions(&root).unwrap_err();
            assert_eq!(from_recovery, from_promotion);
            match from_recovery {
                RecoveryError::CorruptRecord { record, .. } if gap => assert_eq!(record, 2),
                RecoveryError::DigestChain { record, found, .. } if !gap => {
                    assert_eq!((record, found), (2, 0xbad));
                }
                other => panic!("unexpected error {other}"),
            }
            assert!(matches!(
                replica.sync(),
                Err(crate::ReplicaError::Server(_))
            ));
            assert_eq!(replica.positions(), before);
            let _ = fs::remove_dir_all(&root);
        }
    }
}
