//! Log shipping: one producer streams a durable directory, one follower
//! applies the stream, over TCP or in-process.
//!
//! `stream_dir` is the producer. It reads each document directory of a
//! durable log root through the verified scan crash recovery uses
//! (`durability::scan_document`) and emits, per document, either the
//! write-ahead-log records the follower is missing — in their exact
//! on-disk framing, checksum and all — or a full snapshot when the
//! follower is cold, behind the log's truncation horizon, ahead of the
//! durable tip, or carries a digest the chain never produced. A leader
//! answers [`Request::Replicate`] by running it over its WAL directory,
//! so recovery, replication and promotion all trust the same files.
//!
//! A [`ReplicaFollower`] syncs from a leader's address
//! ([`ReplicaFollower::new`]) or directory ([`ReplicaFollower::local`])
//! and applies every frame through one path that re-verifies what
//! recovery verifies: record checksums, the sequential epoch + digest
//! chain, and the post-apply digest. A frame is applied (and the position
//! advanced) as it arrives, so a stream torn mid-way loses nothing: the
//! next [`ReplicaFollower::sync`] resumes from the last applied epoch.
//!
//! Failover is explicit and digest-gated: [`ReplicaFollower::promote`]
//! compares the follower's positions against the dead leader's durable
//! prefix ([`durable_positions`], the scan's tips without replaying
//! trees) and hands the corpus over for writes only on an exact match —
//! same documents, same epochs, same digests. Anything else is a typed
//! [`PromoteError`].
//!
//! The TCP stream rides the ordinary frame + protocol layers
//! ([`crate::net`]) so the differential tests can cut the connection at
//! any byte offset; the catch-up algorithm and the promote preconditions
//! are documented in `docs/ARCHITECTURE.md` ("Replication").

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cqt_trees::codec;

use crate::durability::{
    doc_dirs, recover_document, sanitize_doc_id, scan_document, wal_record_frame,
    wal_record_from_frame, DocScan, Durability, RecoveryError,
};
use crate::net::frame::{write_frame, FRAME_HEADER_LEN};
use crate::net::protocol::{Request, Response, WirePosition};
use crate::shard::Corpus;

/// The largest replication frame a follower will accept (matches the
/// server's default inbound cap, [`crate::net::DEFAULT_MAX_FRAME_LEN`]).
const MAX_REPL_FRAME_LEN: u32 = crate::net::DEFAULT_MAX_FRAME_LEN;

/// How many times the producer scans a document directory before it gives
/// up on a scan that keeps racing the writer (a snapshot rotation, or a
/// document still being created, can leave no readable snapshot for a
/// moment).
const SCAN_ATTEMPTS: usize = 5;

/// What one replication stream sent, accumulated leader-side for the
/// server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ReplTotals {
    /// Documents the stream covered.
    pub(crate) documents: u32,
    /// Log records streamed.
    pub(crate) records: u64,
    /// Snapshots streamed.
    pub(crate) snapshots: u32,
    /// Epochs the follower was behind the leader's tips, summed over
    /// documents, as observed at the start of the stream.
    pub(crate) lag_epochs: u64,
}

/// Whether `path` is confirmed absent: only a `NotFound` probe counts. Any
/// other outcome (the path exists, or the probe failed for another
/// reason) is not evidence of a removal.
fn is_gone(path: &Path) -> bool {
    matches!(std::fs::metadata(path), Err(e) if e.kind() == std::io::ErrorKind::NotFound)
}

/// [`scan_document`] with up to [`SCAN_ATTEMPTS`] tries. `Ok(None)` skips
/// the document for this stream: either it still has no readable snapshot
/// (a deferral, never a removal) or its directory is gone (the stream's
/// removal list reports that).
fn scan_settled(doc_dir: &Path) -> Result<Option<DocScan>, RecoveryError> {
    let mut scan = scan_document(doc_dir);
    for _ in 1..SCAN_ATTEMPTS {
        scan = scan.or_else(|_| scan_document(doc_dir));
    }
    match scan {
        Ok(scan) => Ok(Some(scan)),
        Err(RecoveryError::NoSnapshot { .. }) => Ok(None),
        Err(_) if is_gone(doc_dir) => Ok(None),
        Err(error) => Err(error),
    }
}

/// The log-shipping producer: streams the durable directory `dir` to a
/// follower at `positions`, emitting per document a
/// [`Response::ReplSnapshot`] and/or the [`Response::ReplRecord`]s it is
/// missing, then one [`Response::ReplDone`]. `emit` returns `false` when
/// the peer is gone, which ends the stream early.
///
/// A document whose scan fails verification (a broken digest chain, an
/// epoch gap, mid-log corruption) fails the stream with that
/// [`RecoveryError`] **before** any of its frames is emitted. A document
/// with no readable snapshot after the retries is skipped for this
/// stream. A position is listed as removed only when a direct probe of
/// its directory returns `NotFound`. A missing `dir` streams as empty.
pub(crate) fn stream_dir(
    dir: &Path,
    id: u64,
    positions: &[WirePosition],
    emit: &mut dyn FnMut(&Response) -> bool,
) -> Result<ReplTotals, RecoveryError> {
    let doc_dirs = match doc_dirs(dir) {
        Ok(doc_dirs) => doc_dirs,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(RecoveryError::Io {
                path: dir.to_path_buf(),
                detail: e.to_string(),
            })
        }
    };
    let by_doc: BTreeMap<&str, &WirePosition> = positions
        .iter()
        .map(|position| (position.doc_id.as_str(), position))
        .collect();
    let mut totals = ReplTotals::default();
    for doc_dir in doc_dirs {
        let Some(scan) = scan_settled(&doc_dir)? else {
            continue;
        };
        totals.documents += 1;
        let doc_id = &scan.snapshot.doc_id;
        let tip = scan.tip_epoch();
        // The follower resumes incrementally iff its position lies on the
        // leader's durable chain: an epoch the scan covers, carrying the
        // exact digest the chain had there. Anything else — cold follower,
        // behind the truncation horizon, ahead of the tip, or a matching
        // epoch with a foreign digest — restarts from the snapshot.
        let resume_from = by_doc.get(doc_id.as_str()).and_then(|position| {
            (position.epoch >= scan.snapshot.epoch
                && position.epoch <= tip
                && position.digest == scan.digest_at(position.epoch))
            .then_some(position.epoch)
        });
        let from = match resume_from {
            Some(epoch) => {
                totals.lag_epochs += tip - epoch;
                epoch
            }
            None => {
                totals.lag_epochs += tip;
                totals.snapshots += 1;
                let mut tree_bytes = Vec::new();
                codec::encode_tree(&scan.snapshot.tree, &mut tree_bytes);
                let frame = Response::ReplSnapshot {
                    id,
                    doc_id: doc_id.clone(),
                    tags: scan.snapshot.tags.clone(),
                    epoch: scan.snapshot.epoch,
                    digest: scan.snapshot.digest,
                    tree: tree_bytes,
                };
                if !emit(&frame) {
                    return Ok(totals);
                }
                scan.snapshot.epoch
            }
        };
        for record in &scan.records[(from - scan.snapshot.epoch) as usize..] {
            totals.records += 1;
            let frame = Response::ReplRecord {
                id,
                doc_id: doc_id.clone(),
                frame: wal_record_frame(record),
            };
            if !emit(&frame) {
                return Ok(totals);
            }
        }
    }
    let removed: Vec<String> = positions
        .iter()
        .filter(|position| is_gone(&dir.join(sanitize_doc_id(&position.doc_id))))
        .map(|position| position.doc_id.clone())
        .collect();
    emit(&Response::ReplDone {
        id,
        documents: totals.documents,
        records: totals.records,
        snapshots: totals.snapshots,
        removed,
    });
    Ok(totals)
}

/// Serves one [`Request::Replicate`]: [`stream_dir`] over the corpus's WAL
/// directory. Requires a durable corpus — an in-memory corpus has no log
/// to stream.
pub(crate) fn replicate_stream(
    corpus: &Corpus,
    id: u64,
    positions: &[WirePosition],
    emit: &mut dyn FnMut(&Response) -> bool,
) -> Result<ReplTotals, String> {
    let Durability::Wal { dir, .. } = corpus.durability() else {
        return Err("replication requires a durable corpus".to_string());
    };
    stream_dir(dir, id, positions, emit).map_err(|error| error.to_string())
}

/// Why a [`ReplicaFollower`] sync failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaError {
    /// Connecting, reading, or writing the socket failed (including a
    /// connection torn mid-stream).
    Io(String),
    /// A frame arrived but could not be decoded as a response.
    Wire(String),
    /// The leader refused the stream (a directory that fails its verified
    /// scan, such as a broken digest chain) or sent an unexpected frame
    /// kind.
    Server(String),
    /// A frame decoded but failed verification or application: a record
    /// checksum, the digest chain, or the commit's outcome disagreed with
    /// what the leader promised.
    Apply(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Io(detail) => write!(f, "replication i/o: {detail}"),
            ReplicaError::Wire(detail) => write!(f, "replication wire: {detail}"),
            ReplicaError::Server(detail) => write!(f, "replication server: {detail}"),
            ReplicaError::Apply(detail) => write!(f, "replication apply: {detail}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// What one [`ReplicaFollower::sync`] (or one backoff cycle) applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaProgress {
    /// Log records applied through the commit path.
    pub records_applied: u64,
    /// Documents (re)loaded from a streamed snapshot.
    pub snapshots_loaded: u64,
    /// Documents dropped because the leader removed them.
    pub documents_removed: u64,
    /// Connection attempts made (1 for a first-try sync).
    pub attempts: u32,
}

impl ReplicaProgress {
    fn absorb(&mut self, other: ReplicaProgress) {
        self.records_applied += other.records_applied;
        self.snapshots_loaded += other.snapshots_loaded;
        self.documents_removed += other.documents_removed;
        self.attempts += other.attempts;
    }
}

/// Why [`ReplicaFollower::promote`] refused to open the follower for
/// writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PromoteError {
    /// The leader's durable prefix has a document the follower never
    /// received.
    MissingDocument(String),
    /// The follower holds a document the leader's durable prefix does not
    /// — it cannot have come from this leader's log.
    UnknownDocument(String),
    /// A document's position disagrees with the leader's durable prefix
    /// in epoch or digest.
    Diverged {
        /// The document.
        doc_id: String,
        /// Epoch of the leader's durable prefix.
        expected_epoch: u64,
        /// Digest of the leader's durable prefix.
        expected_digest: u64,
        /// Epoch the follower is at.
        found_epoch: u64,
        /// Digest the follower holds.
        found_digest: u64,
    },
}

impl std::fmt::Display for PromoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromoteError::MissingDocument(doc_id) => {
                write!(f, "promote refused: follower never received {doc_id:?}")
            }
            PromoteError::UnknownDocument(doc_id) => {
                write!(
                    f,
                    "promote refused: follower holds {doc_id:?}, absent from the durable prefix"
                )
            }
            PromoteError::Diverged {
                doc_id,
                expected_epoch,
                expected_digest,
                found_epoch,
                found_digest,
            } => write!(
                f,
                "promote refused: {doc_id:?} diverged (durable prefix at epoch {expected_epoch} \
                 digest {expected_digest:#x}, follower at epoch {found_epoch} digest \
                 {found_digest:#x})"
            ),
        }
    }
}

impl std::error::Error for PromoteError {}

/// Where a [`ReplicaFollower`] reads the leader's stream from.
enum Source {
    /// A leader's [`crate::net`] front end, via [`Request::Replicate`].
    Tcp(SocketAddr),
    /// A leader's durable log directory, streamed in-process.
    Dir(PathBuf),
}

/// A read-only replica of a durable leader, fed over a socket
/// ([`ReplicaFollower::new`]) or straight from the leader's log directory
/// ([`ReplicaFollower::local`]).
///
/// The replica's corpus is plain in-memory ([`Durability::None`]): its
/// durability is the leader's. Every applied record re-runs the full
/// verification chain — frame checksum, sequential epoch, pre-digest
/// match, post-commit digest match — so a replica is only ever at states
/// the leader's durable log actually produced. The corpus is read-only
/// **by contract** until [`promote`](ReplicaFollower::promote): nothing
/// else may commit to it.
pub struct ReplicaFollower {
    source: Source,
    corpus: Arc<Corpus>,
    /// Per-document `(epoch, digest)` the replica has applied up to.
    state: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl ReplicaFollower {
    /// A cold replica that will sync from the leader at `addr` into a
    /// fresh `shards`-way corpus. No I/O happens until [`sync`].
    ///
    /// [`sync`]: ReplicaFollower::sync
    pub fn new(addr: SocketAddr, shards: usize) -> Self {
        Self::with_source(Source::Tcp(addr), shards)
    }

    /// A cold replica that will sync from the leader's durable log
    /// directory `dir` (the `dir` of its [`Durability::Wal`]) into a fresh
    /// `shards`-way corpus. No I/O happens until [`sync`].
    ///
    /// [`sync`]: ReplicaFollower::sync
    pub fn local(dir: impl Into<PathBuf>, shards: usize) -> Self {
        Self::with_source(Source::Dir(dir.into()), shards)
    }

    fn with_source(source: Source, shards: usize) -> Self {
        ReplicaFollower {
            source,
            corpus: Arc::new(Corpus::new(shards)),
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// The replica's corpus — readable at any time; between syncs it
    /// serves the last applied epochs.
    pub fn corpus(&self) -> Arc<Corpus> {
        Arc::clone(&self.corpus)
    }

    /// Points the replica at a leader address for subsequent [`sync`]s,
    /// keeping its corpus and positions. Used when a leader comes back (or
    /// a promoted peer takes over) somewhere else.
    ///
    /// [`sync`]: ReplicaFollower::sync
    pub fn retarget(&mut self, addr: SocketAddr) {
        self.source = Source::Tcp(addr);
    }

    /// The replica's per-document positions, as it would subscribe with.
    pub fn positions(&self) -> Vec<WirePosition> {
        let state = self.state.lock().expect("replica state lock");
        state
            .iter()
            .map(|(doc_id, (epoch, digest))| WirePosition {
                doc_id: doc_id.clone(),
                epoch: *epoch,
                digest: *digest,
            })
            .collect()
    }

    /// One subscription round: stream from the source with the current
    /// positions and apply frames until [`Response::ReplDone`].
    ///
    /// Every frame is applied (and the position advanced) as it arrives,
    /// so an error mid-stream — a torn connection included — loses no
    /// applied progress: the next `sync` resumes from the new positions.
    pub fn sync(&self) -> Result<ReplicaProgress, ReplicaError> {
        let mut progress = ReplicaProgress {
            attempts: 1,
            ..ReplicaProgress::default()
        };
        let positions = self.positions();
        match &self.source {
            Source::Tcp(addr) => {
                let io = |error: std::io::Error| ReplicaError::Io(error.to_string());
                let mut stream = TcpStream::connect(addr).map_err(io)?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(io)?;
                let request = Request::Replicate { id: 0, positions };
                write_frame(&mut stream, &request.encode()).map_err(io)?;
                loop {
                    let payload = read_one_frame(&mut stream).map_err(io)?;
                    let response = Response::decode(&payload)
                        .map_err(|error| ReplicaError::Wire(error.to_string()))?;
                    if self.receive(&response, &mut progress)? {
                        return Ok(progress);
                    }
                }
            }
            Source::Dir(dir) => {
                // A frame that fails to apply ends the stream early; its
                // error is the sync's.
                let mut applied = Ok(false);
                stream_dir(dir, 0, &positions, &mut |frame| {
                    applied = self.receive(frame, &mut progress);
                    applied.is_ok()
                })
                .map_err(|error| ReplicaError::Server(error.to_string()))?;
                applied.map(|_| progress)
            }
        }
    }

    /// Applies one stream frame, returning whether it ended the stream.
    fn receive(
        &self,
        frame: &Response,
        progress: &mut ReplicaProgress,
    ) -> Result<bool, ReplicaError> {
        match frame {
            Response::ReplSnapshot {
                doc_id,
                tags,
                epoch,
                digest,
                tree,
                ..
            } => {
                self.apply_snapshot(doc_id, tags, *epoch, *digest, tree)?;
                progress.snapshots_loaded += 1;
            }
            Response::ReplRecord { doc_id, frame, .. } => {
                self.apply_record(doc_id, frame)?;
                progress.records_applied += 1;
            }
            Response::ReplDone { removed, .. } => {
                let mut state = self.state.lock().expect("replica state lock");
                for doc_id in removed {
                    if state.remove(doc_id).is_some() {
                        self.corpus.remove(&doc_id.as_str().into());
                        progress.documents_removed += 1;
                    }
                }
                return Ok(true);
            }
            Response::Error { message, .. } => return Err(ReplicaError::Server(message.clone())),
            other => {
                return Err(ReplicaError::Server(format!(
                    "unexpected frame in replication stream: {other:?}"
                )))
            }
        }
        Ok(false)
    }

    /// [`sync`] with reconnect-on-failure: up to `attempts` tries, sleeping
    /// `initial` before the second and doubling after each failure.
    /// Progress from failed attempts (frames applied before the cut) is
    /// kept and included in the returned totals.
    ///
    /// [`sync`]: ReplicaFollower::sync
    pub fn sync_with_backoff(
        &self,
        attempts: u32,
        initial: Duration,
    ) -> Result<ReplicaProgress, ReplicaError> {
        let mut total = ReplicaProgress::default();
        let mut delay = initial;
        let mut last = ReplicaError::Io("no attempts made".to_string());
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match self.sync() {
                Ok(progress) => {
                    total.absorb(progress);
                    return Ok(total);
                }
                Err(error) => {
                    // The failed attempt still counted a connection and may
                    // have applied frames; those live in `state` already,
                    // but the attempt tally must not be lost.
                    total.attempts += 1;
                    last = error;
                }
            }
        }
        Err(last)
    }

    /// Digest-gated failover: consumes the replica and opens its corpus
    /// for writes **iff** its positions exactly match the dead leader's
    /// durable prefix (`durable` as scanned by [`durable_positions`]) —
    /// same documents, same epochs, same digests. The promoted corpus
    /// continues each document's epoch sequence in memory.
    pub fn promote(self, durable: &[WirePosition]) -> Result<Arc<Corpus>, PromoteError> {
        let state = self.state.lock().expect("replica state lock");
        for position in durable {
            match state.get(&position.doc_id) {
                None => return Err(PromoteError::MissingDocument(position.doc_id.clone())),
                Some((epoch, digest)) => {
                    if *epoch != position.epoch || *digest != position.digest {
                        return Err(PromoteError::Diverged {
                            doc_id: position.doc_id.clone(),
                            expected_epoch: position.epoch,
                            expected_digest: position.digest,
                            found_epoch: *epoch,
                            found_digest: *digest,
                        });
                    }
                }
            }
        }
        if let Some(extra) = state
            .keys()
            .find(|doc_id| !durable.iter().any(|p| &p.doc_id == *doc_id))
        {
            return Err(PromoteError::UnknownDocument(extra.clone()));
        }
        drop(state);
        Ok(self.corpus)
    }

    /// Installs a streamed snapshot: decode, verify the digest, replace
    /// whatever the replica held.
    fn apply_snapshot(
        &self,
        doc_id: &str,
        tags: &[String],
        epoch: u64,
        digest: u64,
        tree_bytes: &[u8],
    ) -> Result<(), ReplicaError> {
        let apply = |detail: String| ReplicaError::Apply(format!("{doc_id:?}: {detail}"));
        let tree = codec::tree_from_bytes(tree_bytes)
            .map_err(|error| apply(format!("snapshot tree: {error}")))?;
        if tree.structure_digest() != digest {
            return Err(apply(format!(
                "snapshot digest mismatch: promised {:#x}, decoded tree has {:#x}",
                digest,
                tree.structure_digest()
            )));
        }
        let mut state = self.state.lock().expect("replica state lock");
        if state.contains_key(doc_id) {
            self.corpus.remove(&doc_id.into());
        }
        self.corpus
            .insert_recovered(doc_id, tags, tree, epoch, None)
            .map_err(|error| apply(format!("snapshot install: {error:?}")))?;
        state.insert(doc_id.to_string(), (epoch, digest));
        Ok(())
    }

    /// Applies one streamed log record through the commit path, with the
    /// same verification crash recovery performs.
    fn apply_record(&self, doc_id: &str, frame: &[u8]) -> Result<(), ReplicaError> {
        let apply = |detail: String| ReplicaError::Apply(format!("{doc_id:?}: {detail}"));
        let record = wal_record_from_frame(frame).map_err(apply)?;
        let mut state = self.state.lock().expect("replica state lock");
        let Some((epoch, digest)) = state.get(doc_id).copied() else {
            return Err(apply(format!(
                "record for epoch {} arrived before any snapshot",
                record.epoch
            )));
        };
        if record.epoch != epoch + 1 {
            return Err(apply(format!(
                "record epoch {} does not follow applied epoch {epoch}",
                record.epoch
            )));
        }
        if record.pre_digest != digest {
            return Err(apply(format!(
                "digest chain broken at epoch {}: record expects {:#x}, replica is at {digest:#x}",
                record.epoch, record.pre_digest
            )));
        }
        let script = codec::script_from_bytes(&record.script)
            .map_err(|error| apply(format!("record script: {error}")))?;
        let report = self
            .corpus
            .commit(&doc_id.into(), &script)
            .map_err(|error| apply(format!("replay commit: {error:?}")))?;
        if report.epoch != record.epoch || report.structure_hash != record.post_digest {
            return Err(apply(format!(
                "replay of epoch {} produced digest {:#x}, record promised {:#x}",
                record.epoch, report.structure_hash, record.post_digest
            )));
        }
        state.insert(doc_id.to_string(), (record.epoch, record.post_digest));
        Ok(())
    }
}

/// Reads one length-prefixed frame off the socket (blocking), capping the
/// declared length at [`MAX_REPL_FRAME_LEN`] so a corrupt header cannot
/// provoke an oversized allocation.
fn read_one_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header);
    if len == 0 || len > MAX_REPL_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("replication frame of {len} bytes outside 1..={MAX_REPL_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Scans a (dead) leader's durable directory into per-document positions
/// — each document's verified scan tip — **without** replaying any trees.
/// This is the reference [`ReplicaFollower::promote`] checks a candidate
/// follower against. A document whose scan fails verification is a
/// [`RecoveryError`], the same one [`recover_document`] returns.
pub fn durable_positions(dir: &Path) -> Result<Vec<WirePosition>, RecoveryError> {
    let doc_dirs = doc_dirs(dir).map_err(|error| RecoveryError::Io {
        path: dir.to_path_buf(),
        detail: error.to_string(),
    })?;
    let mut positions = Vec::new();
    for doc_dir in doc_dirs {
        let scan = scan_document(&doc_dir)?;
        let epoch = scan.tip_epoch();
        positions.push(WirePosition {
            digest: scan.digest_at(epoch),
            epoch,
            doc_id: scan.snapshot.doc_id,
        });
    }
    // `recover_document` proves each position is actually reachable by
    // replay; `durable_positions` intentionally skips that work, but the
    // two must agree on what exists.
    debug_assert!(positions
        .iter()
        .all(|p| recover_document(&dir.join(sanitize_doc_id(&p.doc_id))).is_ok()));
    Ok(positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{WalRecord, WAL_FILE};
    use crate::net::{NetServer, NetServerConfig};
    use cqt_trees::edit::{EditScript, TreeEdit};
    use cqt_trees::parse::parse_term;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cqt-replication-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_corpus(dir: &Path, snapshot_every: u64) -> Arc<Corpus> {
        let (corpus, _) = Corpus::open_durable(
            2,
            Durability::Wal {
                dir: dir.to_path_buf(),
                snapshot_every,
            },
        )
        .unwrap();
        Arc::new(corpus)
    }

    fn relabel(epoch_hint: u64) -> EditScript {
        EditScript::single(TreeEdit::Relabel {
            node_pre: 0,
            labels: vec![format!("R{epoch_hint}")],
        })
    }

    /// Drives `replicate_stream` in-process (no socket) into a frame list.
    fn stream_frames(corpus: &Corpus, positions: &[WirePosition]) -> (Vec<Response>, ReplTotals) {
        let mut frames = Vec::new();
        let totals = replicate_stream(corpus, 9, positions, &mut |frame| {
            frames.push(frame.clone());
            true
        })
        .unwrap();
        (frames, totals)
    }

    #[test]
    fn cold_stream_sends_snapshots_then_records() {
        let dir = temp_dir("cold");
        let corpus = durable_corpus(&dir, 0);
        corpus
            .insert("doc", parse_term("R(A(B), C)").unwrap())
            .unwrap();
        for epoch in 1..=3 {
            corpus.commit(&"doc".into(), &relabel(epoch)).unwrap();
        }
        let (frames, totals) = stream_frames(&corpus, &[]);
        assert_eq!(totals.documents, 1);
        assert_eq!(totals.snapshots, 1);
        assert_eq!(totals.records, 3);
        assert_eq!(totals.lag_epochs, 3);
        assert!(matches!(frames[0], Response::ReplSnapshot { epoch: 0, .. }));
        assert!(matches!(frames[1], Response::ReplRecord { .. }));
        assert!(matches!(
            frames.last().unwrap(),
            Response::ReplDone {
                documents: 1,
                records: 3,
                snapshots: 1,
                ..
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caught_up_position_streams_nothing_and_divergence_restarts() {
        let dir = temp_dir("caught-up");
        let corpus = durable_corpus(&dir, 0);
        corpus
            .insert("doc", parse_term("R(A(B), C)").unwrap())
            .unwrap();
        corpus.commit(&"doc".into(), &relabel(1)).unwrap();
        let tip = corpus.snapshot(&"doc".into()).unwrap();
        let at_tip = WirePosition {
            doc_id: "doc".into(),
            epoch: tip.epoch,
            digest: tip.prepared.structure_hash(),
        };
        let (frames, totals) = stream_frames(&corpus, std::slice::from_ref(&at_tip));
        assert_eq!(totals.records, 0);
        assert_eq!(totals.snapshots, 0);
        assert_eq!(totals.lag_epochs, 0);
        assert_eq!(frames.len(), 1, "only the Done frame");
        // Same epoch, wrong digest: the chain never produced it, so the
        // leader restarts the document from a snapshot.
        let diverged = WirePosition {
            digest: at_tip.digest ^ 1,
            ..at_tip
        };
        let (frames, totals) = stream_frames(&corpus, &[diverged]);
        assert_eq!(totals.snapshots, 1);
        assert!(matches!(frames[0], Response::ReplSnapshot { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn position_behind_truncation_falls_back_to_snapshot() {
        let dir = temp_dir("truncated");
        // Snapshot every 2 commits: epoch 2's commit truncates the log, so
        // a follower at epoch 1 is behind the horizon.
        let corpus = durable_corpus(&dir, 2);
        corpus
            .insert("doc", parse_term("R(A(B), C)").unwrap())
            .unwrap();
        let report1 = corpus.commit(&"doc".into(), &relabel(1)).unwrap();
        let behind = WirePosition {
            doc_id: "doc".into(),
            epoch: 1,
            digest: report1.structure_hash,
        };
        for epoch in 2..=4 {
            corpus.commit(&"doc".into(), &relabel(epoch)).unwrap();
        }
        let (frames, totals) = stream_frames(&corpus, &[behind]);
        assert_eq!(totals.snapshots, 1, "epoch 1 predates the snapshot");
        assert!(matches!(frames[0], Response::ReplSnapshot { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replication_requires_a_durable_corpus() {
        let corpus = Corpus::new(2);
        let result = replicate_stream(&corpus, 1, &[], &mut |_| true);
        assert!(result.is_err());
    }

    #[test]
    fn removed_documents_are_listed_in_done() {
        let dir = temp_dir("removed");
        let corpus = durable_corpus(&dir, 0);
        corpus.insert("doc", parse_term("R(A)").unwrap()).unwrap();
        let gone = WirePosition {
            doc_id: "long-gone".into(),
            epoch: 7,
            digest: 7,
        };
        let (frames, _) = stream_frames(&corpus, &[gone]);
        let Some(Response::ReplDone { removed, .. }) = frames.last() else {
            panic!("stream must end in Done");
        };
        assert_eq!(removed, &["long-gone".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_positions_match_recovery_and_reject_broken_chains() {
        let dir = temp_dir("positions");
        let corpus = durable_corpus(&dir, 0);
        corpus
            .insert("doc-a", parse_term("R(A(B), C)").unwrap())
            .unwrap();
        corpus.insert("doc-b", parse_term("R(B)").unwrap()).unwrap();
        let report = corpus.commit(&"doc-a".into(), &relabel(1)).unwrap();
        let positions = durable_positions(&dir).unwrap();
        assert_eq!(positions.len(), 2);
        let a = positions.iter().find(|p| p.doc_id == "doc-a").unwrap();
        assert_eq!((a.epoch, a.digest), (1, report.structure_hash));
        let b = positions.iter().find(|p| p.doc_id == "doc-b").unwrap();
        assert_eq!(b.epoch, 0);
        // Two replicas at the good tip, one per source.
        let server = NetServer::start(Arc::clone(&corpus), NetServerConfig::default()).unwrap();
        let replicas = [
            ReplicaFollower::new(server.addr(), 2),
            ReplicaFollower::local(&dir, 2),
        ];
        for replica in &replicas {
            replica.sync().unwrap();
            assert_eq!(replica.positions(), positions);
        }
        // Break doc-a's chain: append a well-framed, checksummed record
        // whose pre-digest the chain never produced. The scan must refuse
        // with a DigestChain error rather than report a position.
        let bogus = wal_record_frame(&WalRecord {
            epoch: 2,
            pre_digest: report.structure_hash ^ 1,
            post_digest: 7,
            script: codec::script_to_bytes(&relabel(2)),
        });
        let wal_path = dir.join(sanitize_doc_id("doc-a")).join(WAL_FILE);
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .unwrap();
        std::io::Write::write_all(&mut log, &bogus).unwrap();
        drop(log);
        assert!(matches!(
            durable_positions(&dir),
            Err(RecoveryError::DigestChain { .. })
        ));
        // The producer refuses the same chain before streaming doc-a, over
        // either source, and neither replica's position moves.
        for replica in &replicas {
            assert!(matches!(replica.sync(), Err(ReplicaError::Server(_))));
            assert_eq!(replica.positions(), positions);
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_checks_are_exact() {
        let follower = ReplicaFollower::new("127.0.0.1:1".parse().unwrap(), 2);
        // Manufacture a replica state directly (promote is pure over it).
        follower
            .state
            .lock()
            .unwrap()
            .insert("doc".to_string(), (3, 0xabc));
        let exact = [WirePosition {
            doc_id: "doc".into(),
            epoch: 3,
            digest: 0xabc,
        }];
        let stale = [WirePosition {
            doc_id: "doc".into(),
            epoch: 4,
            digest: 0xdef,
        }];
        let follower2 = ReplicaFollower::new("127.0.0.1:1".parse().unwrap(), 2);
        follower2
            .state
            .lock()
            .unwrap()
            .insert("doc".to_string(), (3, 0xabc));
        assert!(matches!(
            follower2.promote(&stale),
            Err(PromoteError::Diverged {
                expected_epoch: 4,
                found_epoch: 3,
                ..
            })
        ));
        let follower3 = ReplicaFollower::new("127.0.0.1:1".parse().unwrap(), 2);
        assert!(matches!(
            follower3.promote(&exact),
            Err(PromoteError::MissingDocument(_))
        ));
        let follower4 = ReplicaFollower::new("127.0.0.1:1".parse().unwrap(), 2);
        follower4
            .state
            .lock()
            .unwrap()
            .insert("doc".to_string(), (3, 0xabc));
        follower4
            .state
            .lock()
            .unwrap()
            .insert("extra".to_string(), (1, 1));
        assert!(matches!(
            follower4.promote(&exact),
            Err(PromoteError::UnknownDocument(_))
        ));
        assert!(follower.promote(&exact).is_ok());
    }

    #[test]
    fn queries_run_identically_on_a_promoted_corpus() {
        // End-to-end in-process: leader commits, frames are hand-carried to
        // a replica's apply path, the replica promotes and keeps writing.
        let dir = temp_dir("promote-e2e");
        let corpus = durable_corpus(&dir, 0);
        corpus
            .insert("doc", parse_term("R(A(B), C)").unwrap())
            .unwrap();
        for epoch in 1..=4 {
            corpus.commit(&"doc".into(), &relabel(epoch)).unwrap();
        }
        let follower = ReplicaFollower::new("127.0.0.1:1".parse().unwrap(), 2);
        let (frames, _) = stream_frames(&corpus, &[]);
        for frame in &frames {
            match frame {
                Response::ReplSnapshot {
                    doc_id,
                    tags,
                    epoch,
                    digest,
                    tree,
                    ..
                } => follower
                    .apply_snapshot(doc_id, tags, *epoch, *digest, tree)
                    .unwrap(),
                Response::ReplRecord { doc_id, frame, .. } => {
                    follower.apply_record(doc_id, frame).unwrap()
                }
                Response::ReplDone { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        let positions = durable_positions(&dir).unwrap();
        let promoted = follower.promote(&positions).unwrap();
        // The promoted corpus is at exactly the leader's epoch and digest...
        let leader_snapshot = corpus.snapshot(&"doc".into()).unwrap();
        let promoted_snapshot = promoted.snapshot(&"doc".into()).unwrap();
        assert_eq!(leader_snapshot.epoch, promoted_snapshot.epoch);
        assert_eq!(
            leader_snapshot.prepared.structure_hash(),
            promoted_snapshot.prepared.structure_hash()
        );
        // ...and keeps writing at the recovered epoch.
        let report = promoted.commit(&"doc".into(), &relabel(5)).unwrap();
        assert_eq!(report.epoch, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
