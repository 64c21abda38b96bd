//! The request/response protocol spoken inside [`crate::net::frame`]s.
//!
//! Messages are encoded in a small tagged binary format (the vendored serde
//! shim is derive-only — it has no serializer — so encoding is hand-rolled,
//! like every JSON renderer in this workspace, but binary: no escaping
//! rules, fully round-trippable for arbitrary strings):
//!
//! * integers are little-endian (`u8` tags, `u32`/`u64` fields);
//! * strings are a `u32` byte length followed by that many UTF-8 bytes;
//! * every message starts with a one-byte kind tag.
//!
//! Decoding never panics: every malformed input (unknown tag, truncated
//! field, trailing bytes, invalid UTF-8) is a [`WireError`], and string
//! lengths are validated against the remaining payload before any
//! allocation, so a corrupt length cannot cause an oversized reservation.
//!
//! The request/response kinds and their fields are documented in
//! `docs/ARCHITECTURE.md` ("Network serving front end"); the invariants the
//! server maintains over them (SHED only at capacity, queue + exec = total)
//! are enforced by `experiments net` and the overload tests.

use std::fmt;

/// The fan-out target of a query request, mirroring
/// [`crate::shard::FanOut`] in wire-friendly form (owned strings, no
/// corpus types).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireFanOut {
    /// Every document in the corpus.
    All,
    /// The single named document.
    Doc(String),
    /// Every document carrying the tag.
    Tag(String),
}

impl WireFanOut {
    /// Converts the wire form into the corpus [`crate::shard::FanOut`].
    pub fn into_fanout(self) -> crate::shard::FanOut {
        match self {
            WireFanOut::All => crate::shard::FanOut::All,
            WireFanOut::Doc(name) => crate::shard::FanOut::One(name.into()),
            WireFanOut::Tag(tag) => crate::shard::FanOut::Tagged(tag),
        }
    }
}

/// The query language of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireLang {
    /// Datalog-syntax conjunctive query.
    Cq,
    /// Positive Core XPath.
    XPath,
}

/// One query of a [`Request::Batch`]: language, text, and the client's
/// fingerprint key for this query's per-document answer digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireQuery {
    /// Query language of `text`.
    pub lang: WireLang,
    /// Query text.
    pub text: String,
    /// Fingerprint key, folded per document exactly like
    /// [`Request::Query::fp_key`].
    pub fp_key: u64,
}

/// A follower's replay position for one document: the epoch it has
/// applied up to and the structure digest its tree had at that epoch.
///
/// Sent with [`Request::Replicate`] so the leader can stream only the
/// records the follower is missing, and checked by
/// `replication::ReplicaFollower::promote` against the dead leader's
/// durable prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePosition {
    /// Document id, exactly as the corpus knows it.
    pub doc_id: String,
    /// Epoch the sender has applied up to (inclusive).
    pub epoch: u64,
    /// `structure_digest` of the sender's tree at `epoch`.
    pub digest: u64,
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Evaluate a query against the corpus.
    Query {
        /// Client-chosen request id, echoed on the response (responses may
        /// be pipelined and can return out of order).
        id: u64,
        /// Query language of `text`.
        lang: WireLang,
        /// Query text.
        text: String,
        /// Documents to fan out to.
        fanout: WireFanOut,
        /// Client-chosen fingerprint key mixed into the answer digest: the
        /// per-document answers are folded as
        /// `answer_fingerprint(fp_key * 1_000_003 + doc_position, answer)`
        /// (wrapping arithmetic),
        /// exactly the keying `ServiceRunner::run_corpus` uses with its
        /// request index — so a client that keys by request kind can compare
        /// the server's digests against an in-process `run_corpus` run.
        fp_key: u64,
    },
    /// Evaluate a batch of queries against one fan-out in one unit: one
    /// frame in, one frame out, one snapshot per document serving every
    /// query of the batch. Admission is all-or-nothing (one queue slot per
    /// batch), and the response carries one fingerprint per query, in
    /// request order.
    Batch {
        /// Client-chosen request id, echoed on the response.
        id: u64,
        /// Documents the whole batch fans out to.
        fanout: WireFanOut,
        /// The queries of the batch, in answer order.
        queries: Vec<WireQuery>,
    },
    /// Subscribe this connection to a replication stream. The leader
    /// answers with a sequence of [`Response::ReplSnapshot`] and
    /// [`Response::ReplRecord`] frames (one per snapshot or write-ahead-log
    /// record the follower is missing, in the sorted order of the leader's
    /// document directories) terminated by one [`Response::ReplDone`] —
    /// all carrying the echoed id. Replication is answered inline by the
    /// connection's reader (never queued, never shed), so it belongs on a
    /// dedicated connection: queries sent on the same socket wait behind
    /// the stream.
    Replicate {
        /// Echoed id, carried on every frame of the stream.
        id: u64,
        /// The follower's per-document positions. Documents the leader
        /// has that are absent here — or whose digest does not match the
        /// leader's log at that epoch — are sent from a snapshot instead
        /// of incrementally.
        positions: Vec<WirePosition>,
    },
    /// Liveness probe, answered immediately (never queued).
    Ping {
        /// Echoed id.
        id: u64,
    },
    /// Server counters, answered immediately (never queued).
    Stats {
        /// Echoed id.
        id: u64,
    },
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The answer to an admitted, executed query.
    Answer {
        /// Id of the request this answers.
        id: u64,
        /// Order-independent digest of the per-document answers (see
        /// [`Request::Query::fp_key`]).
        fingerprint: u64,
        /// Documents the query fanned out to.
        docs: u32,
        /// Time spent waiting in the admission queue.
        queue_ns: u64,
        /// Time spent executing (snapshot + plan + evaluation, all
        /// documents).
        exec_ns: u64,
        /// Total server-side latency. Invariant: `queue_ns + exec_ns ==
        /// total_ns`, checked end-to-end by the load generator — queueing
        /// time and execution time account for every server-side
        /// nanosecond.
        total_ns: u64,
    },
    /// The answers to an admitted, executed [`Request::Batch`].
    BatchAnswer {
        /// Id of the batch this answers.
        id: u64,
        /// Documents the batch fanned out to.
        docs: u32,
        /// Time the batch spent waiting in the admission queue.
        queue_ns: u64,
        /// Time spent executing (snapshot + plans + evaluation, all queries
        /// on all documents).
        exec_ns: u64,
        /// Total server-side latency; `queue_ns + exec_ns == total_ns`
        /// holds exactly as for [`Response::Answer`].
        total_ns: u64,
        /// One per-document-folded digest per query of the batch, in
        /// request order, each keyed by its query's
        /// [`WireQuery::fp_key`].
        fingerprints: Vec<u64>,
    },
    /// The request was **shed**: the admission queue was full when it
    /// arrived. Shedding is always explicit — the server never silently
    /// drops an admitted or unadmitted request — and never affects
    /// requests admitted before it.
    Shed {
        /// Id of the shed request.
        id: u64,
        /// Queue depth observed at rejection (≥ `capacity` by the
        /// admission invariant).
        queue_depth: u32,
        /// The configured admission-queue capacity.
        capacity: u32,
    },
    /// The request was malformed (parse error, unknown document, …).
    Error {
        /// Id of the failed request.
        id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// Echoed id.
        id: u64,
    },
    /// One frame of a replication stream: a full document snapshot. Sent
    /// when the follower has no position for the document, its position
    /// is behind the leader's log truncation horizon, or its digest
    /// diverges from the leader's chain — the follower replaces any tree
    /// it holds with this one and resumes incrementally from `epoch`.
    ReplSnapshot {
        /// Id of the [`Request::Replicate`] this belongs to.
        id: u64,
        /// Document id.
        doc_id: String,
        /// The document's tags, in sorted order.
        tags: Vec<String>,
        /// Epoch the snapshot was taken at.
        epoch: u64,
        /// `structure_digest` of the snapshot tree; the follower verifies
        /// the decoded tree against it before installing.
        digest: u64,
        /// The tree in the durability codec's encoding
        /// (`codec::encode_tree` bytes).
        tree: Vec<u8>,
    },
    /// One frame of a replication stream: a single write-ahead-log record
    /// in its **on-disk framing** (`u32` body length, body of epoch +
    /// pre/post digests + edit script, `u64` checksum) — byte-identical to
    /// what the leader's log holds, so the follower re-verifies the same
    /// checksum and digest chain the crash-recovery path does.
    ReplRecord {
        /// Id of the [`Request::Replicate`] this belongs to.
        id: u64,
        /// Document the record applies to.
        doc_id: String,
        /// The record frame, exactly as stored in the leader's log.
        frame: Vec<u8>,
    },
    /// The terminal frame of a replication stream: totals for the stream
    /// and the documents the leader no longer has.
    ReplDone {
        /// Id of the [`Request::Replicate`] this belongs to.
        id: u64,
        /// Documents the stream covered (snapshot, records, or already
        /// caught up).
        documents: u32,
        /// Log records streamed.
        records: u64,
        /// Snapshots streamed.
        snapshots: u32,
        /// Documents in the request's positions that the leader has
        /// removed; the follower drops them.
        removed: Vec<String>,
    },
    /// Answer to [`Request::Stats`]: the server's cumulative counters.
    ///
    /// Encoded under the stats tag `RESP_STATS_V4 = 12`: the queue and
    /// plan-cache counters, then the prune, durability and replication
    /// counters. It is the only stats layout; the retired tags 5, 6 and 7
    /// of shorter layouts decode to [`WireError::UnknownTag`], as does this
    /// one on a client that predates it.
    Stats {
        /// Echoed id.
        id: u64,
        /// Queries admitted to the queue since start.
        admitted: u64,
        /// Admitted queries fully executed and answered.
        executed: u64,
        /// Queries shed at admission.
        shed: u64,
        /// Malformed requests answered with [`Response::Error`].
        errors: u64,
        /// Current queue depth.
        queue_depth: u32,
        /// Configured queue capacity.
        capacity: u32,
        /// Plan-cache hits.
        plan_hits: u64,
        /// Plan-cache misses / compilations.
        plan_misses: u64,
        /// Signature analyses performed by compilations.
        plan_analyses: u64,
        /// Cache hits served to a different document than the compiling
        /// one.
        plan_cross_document_hits: u64,
        /// Scatter candidates considered by the pruning layer.
        prune_candidates: u64,
        /// Candidates pruned without executing.
        prune_pruned: u64,
        /// Candidates that survived and executed.
        prune_survivors: u64,
        /// Survivors whose answer was empty anyway.
        prune_false_positives: u64,
        /// Records currently in the write-ahead logs (0 on an
        /// in-memory corpus).
        wal_records: u64,
        /// Bytes currently in the write-ahead logs.
        wal_bytes: u64,
        /// Newest snapshot epoch across documents.
        snapshot_epoch: u64,
        /// Replication streams served since start.
        repl_requests: u64,
        /// Log records streamed to followers since start.
        repl_records: u64,
        /// Snapshots streamed to followers since start.
        repl_snapshots: u64,
        /// Follower lag (epochs behind the leader's tips, summed over
        /// documents) observed at the start of the most recent
        /// replication stream.
        repl_lag_epochs: u64,
    },
}

/// Why a payload could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The message's kind tag is not one this version speaks.
    UnknownTag(u8),
    /// The payload ended before the message's fields did.
    Truncated,
    /// Bytes remained after the message's last field.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field had a domain-invalid value (e.g. an unknown enum byte).
    BadValue(&'static str),
    /// An **encode-side** error: the message is too large to frame. The
    /// frame header is a `u32` length, so a payload longer than
    /// `u32::MAX` bytes cannot be emitted — truncating the length (the
    /// pre-fix behaviour of `payload.len() as u32`) would desynchronize
    /// the peer's framing on a corrupt prefix instead.
    Oversized {
        /// Actual payload length.
        len: u64,
        /// The largest encodable payload length.
        max: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            WireError::Truncated => write!(f, "payload truncated mid-message"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadValue(what) => write!(f, "invalid value for {what}"),
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the framable maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---- encoding primitives ----

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A cursor over a payload being decoded.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, WireError> {
        // The length is validated against the remaining payload by `take`
        // before any allocation happens.
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        // As for strings: the declared length is validated by `take`
        // before the allocation.
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.bytes.len() - self.pos;
        if left != 0 {
            return Err(WireError::TrailingBytes(left));
        }
        Ok(())
    }
}

// ---- message tags ----

const REQ_QUERY: u8 = 1;
const REQ_PING: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_BATCH: u8 = 4;
const REQ_REPLICATE: u8 = 5;

const RESP_ANSWER: u8 = 1;
const RESP_SHED: u8 = 2;
const RESP_ERROR: u8 = 3;
const RESP_PONG: u8 = 4;
const RESP_BATCH: u8 = 8;
const RESP_REPL_SNAPSHOT: u8 = 9;
const RESP_REPL_RECORD: u8 = 10;
const RESP_REPL_DONE: u8 = 11;
/// The stats layout (tags 5–7 held retired shorter layouts and are no
/// longer decoded).
const RESP_STATS_V4: u8 = 12;

const LANG_CQ: u8 = 0;
const LANG_XPATH: u8 = 1;

const FANOUT_ALL: u8 = 0;
const FANOUT_DOC: u8 = 1;
const FANOUT_TAG: u8 = 2;

fn put_lang(out: &mut Vec<u8>, lang: WireLang) {
    out.push(match lang {
        WireLang::Cq => LANG_CQ,
        WireLang::XPath => LANG_XPATH,
    });
}

fn put_fanout(out: &mut Vec<u8>, fanout: &WireFanOut) {
    match fanout {
        WireFanOut::All => {
            out.push(FANOUT_ALL);
            put_str(out, "");
        }
        WireFanOut::Doc(name) => {
            out.push(FANOUT_DOC);
            put_str(out, name);
        }
        WireFanOut::Tag(tag) => {
            out.push(FANOUT_TAG);
            put_str(out, tag);
        }
    }
}

fn read_lang(r: &mut Reader<'_>) -> Result<WireLang, WireError> {
    match r.u8()? {
        LANG_CQ => Ok(WireLang::Cq),
        LANG_XPATH => Ok(WireLang::XPath),
        _ => Err(WireError::BadValue("query language")),
    }
}

fn read_fanout(r: &mut Reader<'_>) -> Result<WireFanOut, WireError> {
    let tag = r.u8()?;
    let target = r.string()?;
    match tag {
        FANOUT_ALL => Ok(WireFanOut::All),
        FANOUT_DOC => Ok(WireFanOut::Doc(target)),
        FANOUT_TAG => Ok(WireFanOut::Tag(target)),
        _ => Err(WireError::BadValue("fan-out")),
    }
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query {
                id,
                lang,
                text,
                fanout,
                fp_key,
            } => {
                out.push(REQ_QUERY);
                put_u64(&mut out, *id);
                put_lang(&mut out, *lang);
                put_str(&mut out, text);
                put_fanout(&mut out, fanout);
                put_u64(&mut out, *fp_key);
            }
            Request::Batch {
                id,
                fanout,
                queries,
            } => {
                out.push(REQ_BATCH);
                put_u64(&mut out, *id);
                put_fanout(&mut out, fanout);
                put_u32(&mut out, queries.len() as u32);
                for query in queries {
                    put_lang(&mut out, query.lang);
                    put_str(&mut out, &query.text);
                    put_u64(&mut out, query.fp_key);
                }
            }
            Request::Replicate { id, positions } => {
                out.push(REQ_REPLICATE);
                put_u64(&mut out, *id);
                put_u32(&mut out, positions.len() as u32);
                for position in positions {
                    put_str(&mut out, &position.doc_id);
                    put_u64(&mut out, position.epoch);
                    put_u64(&mut out, position.digest);
                }
            }
            Request::Ping { id } => {
                out.push(REQ_PING);
                put_u64(&mut out, *id);
            }
            Request::Stats { id } => {
                out.push(REQ_STATS);
                put_u64(&mut out, *id);
            }
        }
        out
    }

    /// Decodes a frame payload as a request.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            REQ_QUERY => {
                let id = r.u64()?;
                let lang = read_lang(&mut r)?;
                let text = r.string()?;
                let fanout = read_fanout(&mut r)?;
                let fp_key = r.u64()?;
                Request::Query {
                    id,
                    lang,
                    text,
                    fanout,
                    fp_key,
                }
            }
            REQ_BATCH => {
                let id = r.u64()?;
                let fanout = read_fanout(&mut r)?;
                let count = r.u32()? as usize;
                // Never pre-reserve the declared count: a corrupt header
                // must not cause an oversized allocation. A lying count
                // runs out of payload and fails as Truncated.
                let mut queries = Vec::new();
                for _ in 0..count {
                    let lang = read_lang(&mut r)?;
                    let text = r.string()?;
                    let fp_key = r.u64()?;
                    queries.push(WireQuery { lang, text, fp_key });
                }
                Request::Batch {
                    id,
                    fanout,
                    queries,
                }
            }
            REQ_REPLICATE => {
                let id = r.u64()?;
                let count = r.u32()? as usize;
                // As for batches: no reservation from the declared count.
                let mut positions = Vec::new();
                for _ in 0..count {
                    let doc_id = r.string()?;
                    let epoch = r.u64()?;
                    let digest = r.u64()?;
                    positions.push(WirePosition {
                        doc_id,
                        epoch,
                        digest,
                    });
                }
                Request::Replicate { id, positions }
            }
            REQ_PING => Request::Ping { id: r.u64()? },
            REQ_STATS => Request::Stats { id: r.u64()? },
            other => return Err(WireError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(request)
    }

    /// The request id (every request kind carries one).
    pub fn id(&self) -> u64 {
        match self {
            Request::Query { id, .. }
            | Request::Batch { id, .. }
            | Request::Replicate { id, .. }
            | Request::Ping { id }
            | Request::Stats { id } => *id,
        }
    }
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Answer {
                id,
                fingerprint,
                docs,
                queue_ns,
                exec_ns,
                total_ns,
            } => {
                out.push(RESP_ANSWER);
                put_u64(&mut out, *id);
                put_u64(&mut out, *fingerprint);
                put_u32(&mut out, *docs);
                put_u64(&mut out, *queue_ns);
                put_u64(&mut out, *exec_ns);
                put_u64(&mut out, *total_ns);
            }
            Response::BatchAnswer {
                id,
                docs,
                queue_ns,
                exec_ns,
                total_ns,
                fingerprints,
            } => {
                out.push(RESP_BATCH);
                put_u64(&mut out, *id);
                put_u32(&mut out, *docs);
                put_u64(&mut out, *queue_ns);
                put_u64(&mut out, *exec_ns);
                put_u64(&mut out, *total_ns);
                put_u32(&mut out, fingerprints.len() as u32);
                for fingerprint in fingerprints {
                    put_u64(&mut out, *fingerprint);
                }
            }
            Response::Shed {
                id,
                queue_depth,
                capacity,
            } => {
                out.push(RESP_SHED);
                put_u64(&mut out, *id);
                put_u32(&mut out, *queue_depth);
                put_u32(&mut out, *capacity);
            }
            Response::Error { id, message } => {
                out.push(RESP_ERROR);
                put_u64(&mut out, *id);
                put_str(&mut out, message);
            }
            Response::Pong { id } => {
                out.push(RESP_PONG);
                put_u64(&mut out, *id);
            }
            Response::ReplSnapshot {
                id,
                doc_id,
                tags,
                epoch,
                digest,
                tree,
            } => {
                out.push(RESP_REPL_SNAPSHOT);
                put_u64(&mut out, *id);
                put_str(&mut out, doc_id);
                put_u32(&mut out, tags.len() as u32);
                for tag in tags {
                    put_str(&mut out, tag);
                }
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *digest);
                put_bytes(&mut out, tree);
            }
            Response::ReplRecord { id, doc_id, frame } => {
                out.push(RESP_REPL_RECORD);
                put_u64(&mut out, *id);
                put_str(&mut out, doc_id);
                put_bytes(&mut out, frame);
            }
            Response::ReplDone {
                id,
                documents,
                records,
                snapshots,
                removed,
            } => {
                out.push(RESP_REPL_DONE);
                put_u64(&mut out, *id);
                put_u32(&mut out, *documents);
                put_u64(&mut out, *records);
                put_u32(&mut out, *snapshots);
                put_u32(&mut out, removed.len() as u32);
                for doc_id in removed {
                    put_str(&mut out, doc_id);
                }
            }
            Response::Stats {
                id,
                admitted,
                executed,
                shed,
                errors,
                queue_depth,
                capacity,
                plan_hits,
                plan_misses,
                plan_analyses,
                plan_cross_document_hits,
                prune_candidates,
                prune_pruned,
                prune_survivors,
                prune_false_positives,
                wal_records,
                wal_bytes,
                snapshot_epoch,
                repl_requests,
                repl_records,
                repl_snapshots,
                repl_lag_epochs,
            } => {
                out.push(RESP_STATS_V4);
                put_u64(&mut out, *id);
                put_u64(&mut out, *admitted);
                put_u64(&mut out, *executed);
                put_u64(&mut out, *shed);
                put_u64(&mut out, *errors);
                put_u32(&mut out, *queue_depth);
                put_u32(&mut out, *capacity);
                put_u64(&mut out, *plan_hits);
                put_u64(&mut out, *plan_misses);
                put_u64(&mut out, *plan_analyses);
                put_u64(&mut out, *plan_cross_document_hits);
                put_u64(&mut out, *prune_candidates);
                put_u64(&mut out, *prune_pruned);
                put_u64(&mut out, *prune_survivors);
                put_u64(&mut out, *prune_false_positives);
                put_u64(&mut out, *wal_records);
                put_u64(&mut out, *wal_bytes);
                put_u64(&mut out, *snapshot_epoch);
                put_u64(&mut out, *repl_requests);
                put_u64(&mut out, *repl_records);
                put_u64(&mut out, *repl_snapshots);
                put_u64(&mut out, *repl_lag_epochs);
            }
        }
        out
    }

    /// Decodes a frame payload as a response.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            RESP_ANSWER => Response::Answer {
                id: r.u64()?,
                fingerprint: r.u64()?,
                docs: r.u32()?,
                queue_ns: r.u64()?,
                exec_ns: r.u64()?,
                total_ns: r.u64()?,
            },
            RESP_BATCH => {
                let id = r.u64()?;
                let docs = r.u32()?;
                let queue_ns = r.u64()?;
                let exec_ns = r.u64()?;
                let total_ns = r.u64()?;
                let count = r.u32()? as usize;
                // As with batch requests: no reservation from the declared
                // count — push until the count is met or the payload ends.
                let mut fingerprints = Vec::new();
                for _ in 0..count {
                    fingerprints.push(r.u64()?);
                }
                Response::BatchAnswer {
                    id,
                    docs,
                    queue_ns,
                    exec_ns,
                    total_ns,
                    fingerprints,
                }
            }
            RESP_SHED => Response::Shed {
                id: r.u64()?,
                queue_depth: r.u32()?,
                capacity: r.u32()?,
            },
            RESP_ERROR => Response::Error {
                id: r.u64()?,
                message: r.string()?,
            },
            RESP_PONG => Response::Pong { id: r.u64()? },
            RESP_REPL_SNAPSHOT => {
                let id = r.u64()?;
                let doc_id = r.string()?;
                let count = r.u32()? as usize;
                // No reservation from the declared tag count.
                let mut tags = Vec::new();
                for _ in 0..count {
                    tags.push(r.string()?);
                }
                let epoch = r.u64()?;
                let digest = r.u64()?;
                let tree = r.bytes()?;
                Response::ReplSnapshot {
                    id,
                    doc_id,
                    tags,
                    epoch,
                    digest,
                    tree,
                }
            }
            RESP_REPL_RECORD => Response::ReplRecord {
                id: r.u64()?,
                doc_id: r.string()?,
                frame: r.bytes()?,
            },
            RESP_REPL_DONE => {
                let id = r.u64()?;
                let documents = r.u32()?;
                let records = r.u64()?;
                let snapshots = r.u32()?;
                let count = r.u32()? as usize;
                let mut removed = Vec::new();
                for _ in 0..count {
                    removed.push(r.string()?);
                }
                Response::ReplDone {
                    id,
                    documents,
                    records,
                    snapshots,
                    removed,
                }
            }
            RESP_STATS_V4 => Response::Stats {
                id: r.u64()?,
                admitted: r.u64()?,
                executed: r.u64()?,
                shed: r.u64()?,
                errors: r.u64()?,
                queue_depth: r.u32()?,
                capacity: r.u32()?,
                plan_hits: r.u64()?,
                plan_misses: r.u64()?,
                plan_analyses: r.u64()?,
                plan_cross_document_hits: r.u64()?,
                prune_candidates: r.u64()?,
                prune_pruned: r.u64()?,
                prune_survivors: r.u64()?,
                prune_false_positives: r.u64()?,
                wal_records: r.u64()?,
                wal_bytes: r.u64()?,
                snapshot_epoch: r.u64()?,
                repl_requests: r.u64()?,
                repl_records: r.u64()?,
                repl_snapshots: r.u64()?,
                repl_lag_epochs: r.u64()?,
            },
            other => return Err(WireError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(response)
    }

    /// The id of the request this response belongs to.
    pub fn id(&self) -> u64 {
        match self {
            Response::Answer { id, .. }
            | Response::BatchAnswer { id, .. }
            | Response::Shed { id, .. }
            | Response::Error { id, .. }
            | Response::Pong { id }
            | Response::ReplSnapshot { id, .. }
            | Response::ReplRecord { id, .. }
            | Response::ReplDone { id, .. }
            | Response::Stats { id, .. } => *id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let requests = [
            Request::Query {
                id: 7,
                lang: WireLang::Cq,
                text: "Q(y) :- A(x), Child+(x, y), B(y).".into(),
                fanout: WireFanOut::All,
                fp_key: 3,
            },
            Request::Query {
                id: u64::MAX,
                lang: WireLang::XPath,
                text: "//A[B]/following::C".into(),
                fanout: WireFanOut::Doc("doc-0001".into()),
                fp_key: 0,
            },
            Request::Query {
                id: 0,
                lang: WireLang::Cq,
                text: String::new(),
                fanout: WireFanOut::Tag("hot".into()),
                fp_key: u64::MAX,
            },
            Request::Ping { id: 1 },
            Request::Stats { id: 2 },
            Request::Batch {
                id: 21,
                fanout: WireFanOut::Tag("hot".into()),
                queries: vec![
                    WireQuery {
                        lang: WireLang::Cq,
                        text: "Q(y) :- A(x), Child(x, y), B(y).".into(),
                        fp_key: 5,
                    },
                    WireQuery {
                        lang: WireLang::XPath,
                        text: "//A[B]".into(),
                        fp_key: u64::MAX,
                    },
                ],
            },
            // An empty batch is wire-legal (the server answers it with an
            // empty fingerprint list).
            Request::Batch {
                id: 22,
                fanout: WireFanOut::All,
                queries: Vec::new(),
            },
            Request::Replicate {
                id: 23,
                positions: vec![
                    WirePosition {
                        doc_id: "doc-0001".into(),
                        epoch: 12,
                        digest: u64::MAX,
                    },
                    WirePosition {
                        doc_id: String::new(),
                        epoch: 0,
                        digest: 0,
                    },
                ],
            },
            // A cold follower subscribes with no positions at all.
            Request::Replicate {
                id: 24,
                positions: Vec::new(),
            },
        ];
        for request in requests {
            let wire = request.encode();
            assert_eq!(Request::decode(&wire), Ok(request));
        }
    }

    #[test]
    fn batch_roundtrips_and_rejects_malformed() {
        let response = Response::BatchAnswer {
            id: 30,
            docs: 12,
            queue_ns: 100,
            exec_ns: 900,
            total_ns: 1_000,
            fingerprints: vec![1, u64::MAX, 0, 42],
        };
        let wire = response.encode();
        assert_eq!(Response::decode(&wire), Ok(response));
        // A declared query count larger than the payload holds is
        // Truncated — and must not have provoked a count-sized allocation.
        let mut wire = Vec::new();
        wire.push(4); // REQ_BATCH
        wire.extend_from_slice(&9u64.to_le_bytes());
        wire.push(0); // FANOUT_ALL
        wire.extend_from_slice(&0u32.to_le_bytes()); // empty target string
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // lying count
        assert_eq!(Request::decode(&wire), Err(WireError::Truncated));
        // Same on the response side: a lying fingerprint count truncates.
        let mut wire = Vec::new();
        wire.push(8); // RESP_BATCH
        wire.extend_from_slice(&9u64.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        for v in [0u64, 0, 0] {
            wire.extend_from_slice(&v.to_le_bytes());
        }
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&7u64.to_le_bytes()); // only one of 2^32-1
        assert_eq!(Response::decode(&wire), Err(WireError::Truncated));
        // A bad language byte inside the batch is a BadValue, as for
        // single-query requests.
        let mut wire = Vec::new();
        wire.push(4);
        wire.extend_from_slice(&9u64.to_le_bytes());
        wire.push(0);
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(9); // bad language
        assert_eq!(
            Request::decode(&wire),
            Err(WireError::BadValue("query language"))
        );
        // Trailing bytes after the last fingerprint are rejected.
        let mut wire = Response::BatchAnswer {
            id: 1,
            docs: 0,
            queue_ns: 0,
            exec_ns: 0,
            total_ns: 0,
            fingerprints: vec![3],
        }
        .encode();
        wire.push(0);
        assert_eq!(Response::decode(&wire), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn response_roundtrips() {
        let responses = [
            Response::Answer {
                id: 9,
                fingerprint: 0xdead_beef,
                docs: 64,
                queue_ns: 1_000,
                exec_ns: 2_000,
                total_ns: 3_000,
            },
            Response::Shed {
                id: 10,
                queue_depth: 65,
                capacity: 64,
            },
            Response::Error {
                id: 11,
                message: "parse error: unexpected token".into(),
            },
            Response::Pong { id: 12 },
            Response::Stats {
                id: 13,
                admitted: 100,
                executed: 99,
                shed: 5,
                errors: 1,
                queue_depth: 1,
                capacity: 64,
                plan_hits: 90,
                plan_misses: 9,
                plan_analyses: 12,
                plan_cross_document_hits: 33,
                prune_candidates: 640,
                prune_pruned: 500,
                prune_survivors: 140,
                prune_false_positives: 7,
                wal_records: 12,
                wal_bytes: 4096,
                snapshot_epoch: 32,
                repl_requests: 3,
                repl_records: 40,
                repl_snapshots: 2,
                repl_lag_epochs: 5,
            },
            Response::ReplSnapshot {
                id: 14,
                doc_id: "doc-0002".into(),
                tags: vec!["hot".into(), "tenant-a".into()],
                epoch: 16,
                digest: 0xfeed_f00d,
                tree: vec![0, 1, 2, 0xff, 0xfe],
            },
            Response::ReplSnapshot {
                id: 15,
                doc_id: String::new(),
                tags: Vec::new(),
                epoch: 0,
                digest: 0,
                tree: Vec::new(),
            },
            Response::ReplRecord {
                id: 16,
                doc_id: "doc-0002".into(),
                frame: vec![12, 0, 0, 0, 0xab],
            },
            Response::ReplDone {
                id: 17,
                documents: 6,
                records: 40,
                snapshots: 2,
                removed: vec!["doc-0009".into()],
            },
            Response::ReplDone {
                id: 18,
                documents: 0,
                records: 0,
                snapshots: 0,
                removed: Vec::new(),
            },
        ];
        for response in responses {
            let wire = response.encode();
            assert_eq!(Response::decode(&wire), Ok(response));
        }
    }

    #[test]
    fn stats_encode_under_the_one_stats_tag() {
        let stats = Response::Stats {
            id: 4,
            admitted: 10,
            executed: 9,
            shed: 1,
            errors: 0,
            queue_depth: 2,
            capacity: 8,
            plan_hits: 7,
            plan_misses: 2,
            plan_analyses: 2,
            plan_cross_document_hits: 3,
            prune_candidates: 90,
            prune_pruned: 60,
            prune_survivors: 30,
            prune_false_positives: 4,
            wal_records: 3,
            wal_bytes: 777,
            snapshot_epoch: 2,
            repl_requests: 1,
            repl_records: 4,
            repl_snapshots: 1,
            repl_lag_epochs: 2,
        };
        let wire = stats.encode();
        assert_eq!(wire[0], 12, "stats encode under RESP_STATS_V4");
        // The retired shorter stats layouts no longer decode.
        for tag in [5u8, 6, 7] {
            let mut retired = wire.clone();
            retired[0] = tag;
            assert_eq!(Response::decode(&retired), Err(WireError::UnknownTag(tag)));
        }
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Request::decode(&[99]), Err(WireError::UnknownTag(99)));
        assert_eq!(Response::decode(&[0]), Err(WireError::UnknownTag(0)));
        // Truncated mid-field.
        let wire = Request::Ping { id: 5 }.encode();
        assert_eq!(
            Request::decode(&wire[..wire.len() - 1]),
            Err(WireError::Truncated)
        );
        // Trailing garbage.
        let mut wire = Response::Pong { id: 5 }.encode();
        wire.push(0);
        assert_eq!(Response::decode(&wire), Err(WireError::TrailingBytes(1)));
        // A string length pointing past the payload is Truncated, and the
        // decoder must not have tried to allocate the declared length.
        let mut wire = Vec::new();
        wire.push(3); // REQ_STATS... actually RESP_ERROR for responses
        wire.extend_from_slice(&5u64.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Response::decode(&wire), Err(WireError::Truncated));
        // Invalid UTF-8 in a string field.
        let mut wire = Vec::new();
        wire.push(3);
        wire.extend_from_slice(&5u64.to_le_bytes());
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Response::decode(&wire), Err(WireError::BadUtf8));
        // Invalid enum bytes.
        let mut wire = Vec::new();
        wire.push(1); // REQ_QUERY
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.push(9); // bad language
        assert_eq!(
            Request::decode(&wire),
            Err(WireError::BadValue("query language"))
        );
        // A lying position count in a replicate request is Truncated —
        // and must not have provoked a count-sized allocation.
        let mut wire = Vec::new();
        wire.push(5); // REQ_REPLICATE
        wire.extend_from_slice(&9u64.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&wire), Err(WireError::Truncated));
        // A snapshot frame whose declared tree length overruns the payload
        // is Truncated, not an oversized allocation.
        let mut wire = Vec::new();
        wire.push(9); // RESP_REPL_SNAPSHOT
        wire.extend_from_slice(&9u64.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes()); // empty doc id
        wire.extend_from_slice(&0u32.to_le_bytes()); // no tags
        wire.extend_from_slice(&3u64.to_le_bytes()); // epoch
        wire.extend_from_slice(&7u64.to_le_bytes()); // digest
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // lying tree length
        assert_eq!(Response::decode(&wire), Err(WireError::Truncated));
    }
}
