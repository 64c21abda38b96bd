//! Property tests for the network wire format: the frame codec
//! ([`cqt_service::net::frame`]) and the request/response protocol
//! ([`cqt_service::net::protocol`]).
//!
//! Three properties the serving layer relies on:
//!
//! 1. **Round-trip** — every representable request and response decodes
//!    back to itself after encoding (the client and server agree on the
//!    wire format by construction, not by luck).
//! 2. **Rejection without panic** — arbitrary garbage, truncated payloads
//!    and oversized frame headers produce `Err`, never a panic or an
//!    out-of-bounds allocation (a malicious or broken peer cannot take a
//!    connection thread down).
//! 3. **Reassembly across split writes** — a frame stream chopped at
//!    arbitrary byte boundaries (as TCP is free to do) reassembles into
//!    exactly the original frame sequence.

use cqt_service::net::frame::{FrameBuffer, FrameError};
use cqt_service::net::protocol::{Request, Response, WireFanOut, WireLang, WirePosition};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::Index;

/// Strategy for short ASCII strings (query texts, doc ids, error messages).
fn wire_string() -> impl Strategy<Value = String> {
    vec(0u8..96, 0..24usize).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| char::from(b' ' + (b % 95)))
            .collect()
    })
}

/// Strategy covering every request variant.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        (0..4usize, proptest::any::<Index>(), wire_string()),
        (
            0..3usize,
            wire_string(),
            proptest::any::<Index>(),
            proptest::any::<bool>(),
        ),
        vec(
            (
                wire_string(),
                proptest::any::<Index>(),
                proptest::any::<Index>(),
            ),
            0..4usize,
        ),
    )
        .prop_map(
            |((variant, id, text), (fanout, target, fp, xpath), positions)| {
                let id = id.index(usize::MAX) as u64;
                let fp_key = fp.index(usize::MAX) as u64;
                match variant {
                    0 => Request::Query {
                        id,
                        lang: if xpath { WireLang::XPath } else { WireLang::Cq },
                        text,
                        fanout: match fanout {
                            0 => WireFanOut::All,
                            1 => WireFanOut::Doc(target),
                            _ => WireFanOut::Tag(target),
                        },
                        fp_key,
                    },
                    1 => Request::Ping { id },
                    2 => Request::Stats { id },
                    _ => Request::Replicate {
                        id,
                        positions: positions
                            .into_iter()
                            .map(|(doc_id, epoch, digest)| WirePosition {
                                doc_id,
                                epoch: epoch.index(usize::MAX) as u64,
                                digest: digest.index(usize::MAX) as u64,
                            })
                            .collect(),
                    },
                }
            },
        )
}

/// Strategy covering every response variant.
fn arb_response() -> impl Strategy<Value = Response> {
    (
        (0..8usize, proptest::any::<Index>()),
        (proptest::any::<Index>(), proptest::any::<Index>()),
        (0..u32::MAX, 0..u32::MAX, wire_string()),
        (vec(wire_string(), 0..3usize), vec(0u8..=255, 0..24usize)),
    )
        .prop_map(
            |((variant, id), (a, b), (x, y, message), (strings, bytes))| {
                let id = id.index(usize::MAX) as u64;
                let (a, b) = (a.index(usize::MAX) as u64, b.index(usize::MAX) as u64);
                match variant {
                    0 => Response::Answer {
                        id,
                        fingerprint: a,
                        docs: x,
                        queue_ns: b,
                        exec_ns: a ^ b,
                        total_ns: b.wrapping_add(a ^ b),
                    },
                    1 => Response::Shed {
                        id,
                        queue_depth: x,
                        capacity: y,
                    },
                    2 => Response::Error { id, message },
                    3 => Response::Pong { id },
                    4 => Response::ReplSnapshot {
                        id,
                        doc_id: message,
                        tags: strings,
                        epoch: a,
                        digest: b,
                        tree: bytes,
                    },
                    5 => Response::ReplRecord {
                        id,
                        doc_id: message,
                        frame: bytes,
                    },
                    6 => Response::ReplDone {
                        id,
                        documents: x,
                        records: a,
                        snapshots: y,
                        removed: strings,
                    },
                    _ => Response::Stats {
                        id,
                        admitted: a,
                        executed: b,
                        shed: a ^ b,
                        errors: a.wrapping_add(b),
                        queue_depth: x,
                        capacity: y,
                        plan_hits: a.rotate_left(1),
                        plan_misses: b.rotate_left(3),
                        plan_analyses: a.rotate_right(7),
                        plan_cross_document_hits: b.rotate_right(11),
                        prune_candidates: a.wrapping_mul(3),
                        prune_pruned: b.wrapping_mul(5),
                        prune_survivors: a.wrapping_sub(b),
                        prune_false_positives: b.wrapping_sub(a),
                        wal_records: a.wrapping_mul(7),
                        wal_bytes: b.wrapping_mul(9),
                        snapshot_epoch: a.rotate_left(13),
                        repl_requests: b.rotate_left(17),
                        repl_records: a.wrapping_mul(11),
                        repl_snapshots: b.wrapping_mul(13),
                        repl_lag_epochs: a.rotate_right(19),
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip(request in arb_request()) {
        let encoded = request.encode();
        prop_assert_eq!(Request::decode(&encoded), Ok(request));
    }

    #[test]
    fn responses_round_trip(response in arb_response()) {
        let encoded = response.encode();
        prop_assert_eq!(Response::decode(&encoded), Ok(response));
    }

    #[test]
    fn arbitrary_payloads_never_panic_the_decoders(payload in vec(0u8..=255, 0..64usize)) {
        // Any byte string is either a valid message or a clean error.
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }

    #[test]
    fn truncated_payloads_are_errors(request in arb_request(), cut in proptest::any::<Index>()) {
        let encoded = request.encode();
        // Strictly shorter than the full encoding: never `Ok` of the same
        // request with trailing state, always a clean `Err`.
        let cut = cut.index(encoded.len().max(1));
        if cut < encoded.len() {
            prop_assert!(Request::decode(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn oversized_declared_lengths_are_rejected_before_buffering(
        declared in 9u32..u32::MAX,
        tail in vec(0u8..=255, 0..16usize),
    ) {
        // A peer declaring a frame longer than the cap is rejected from the
        // 4 header bytes alone — the payload is never allocated, however
        // large the declared length is.
        let max = 8u32;
        let mut buffer = FrameBuffer::new(max);
        buffer.push(&declared.to_be_bytes());
        buffer.push(&tail);
        prop_assert_eq!(
            buffer.next_frame(),
            Err(FrameError::TooLarge { declared, max })
        );
    }

    #[test]
    fn frame_streams_reassemble_across_arbitrary_split_writes(
        payloads in vec(vec(0u8..=255, 1..40usize), 1..8usize),
        cuts in vec(proptest::any::<Index>(), 0..12usize),
    ) {
        // Encode all frames back to back, then chop the byte stream at
        // arbitrary positions and feed the chunks one by one — exactly what
        // a TCP peer sees when writes split or coalesce in flight.
        let mut stream = Vec::new();
        for payload in &payloads {
            stream.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            stream.extend_from_slice(payload);
        }
        let mut positions: Vec<usize> =
            cuts.iter().map(|c| c.index(stream.len() + 1)).collect();
        positions.push(0);
        positions.push(stream.len());
        positions.sort_unstable();

        let mut buffer = FrameBuffer::new(1 << 10);
        let mut decoded = Vec::new();
        for window in positions.windows(2) {
            buffer.push(&stream[window[0]..window[1]]);
            while let Some(frame) = buffer.next_frame().expect("valid stream") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, payloads);
        prop_assert_eq!(buffer.pending(), 0);
    }
}

/// Headers alone (no payload yet) must park the decoder, not error it.
#[test]
fn header_split_across_pushes_waits_for_payload() {
    let mut buffer = FrameBuffer::new(64);
    let payload = b"hello";
    let header = (payload.len() as u32).to_be_bytes();
    buffer.push(&header[..2]);
    assert_eq!(buffer.next_frame(), Ok(None));
    buffer.push(&header[2..]);
    assert_eq!(buffer.next_frame(), Ok(None));
    buffer.push(payload);
    assert_eq!(buffer.next_frame(), Ok(Some(payload.to_vec())));
    assert_eq!(buffer.next_frame(), Ok(None));
    assert_eq!(buffer.pending(), 0);
}
