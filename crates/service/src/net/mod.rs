//! Network serving front end: a std-only TCP server over the sharded
//! [`crate::shard::Corpus`], with bounded admission and explicit
//! load-shedding.
//!
//! Three layers, one module each:
//!
//! * [`frame`] — length-prefixed framing (4-byte big-endian length +
//!   payload) with an incremental decoder that tolerates arbitrary TCP
//!   segmentation and rejects oversized frames before buffering them;
//! * [`protocol`] — the tagged binary request/response messages inside the
//!   frames (hand-rolled: the vendored serde shim is derive-only and has no
//!   serializer);
//! * [`queue`] + [`server`] — the bounded admission queue and the
//!   accept/reader/worker thread structure, with per-request latency split
//!   into queue-wait vs. execute time (`queue_ns + exec_ns == total_ns`,
//!   exactly). Accepted sockets set `TCP_NODELAY`, and shutdown ends the
//!   blocking readers by shutting each socket's read half.
//!
//! The backpressure contract: every request gets exactly one response.
//! Requests arriving while the admission queue is full get an immediate
//! [`protocol::Response::Shed`] carrying the observed depth and capacity —
//! never a silent drop, never a blocked connection — and shedding never
//! affects the answers of requests already admitted. The `experiments net`
//! harness in `crates/bench` drives this server open-loop over real sockets
//! and cross-checks its answer fingerprints against the in-process
//! [`crate::runner::ServiceRunner::run_corpus`] path.

pub mod frame;
pub mod protocol;
pub mod queue;
pub mod server;

pub use frame::{FrameBuffer, FrameError, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN};
pub use protocol::{Request, Response, WireError, WireFanOut, WireLang, WirePosition, WireQuery};
pub use queue::{BoundedQueue, PushError};
pub use server::{NetServer, NetServerConfig, ServerHandle, ServerStats};
