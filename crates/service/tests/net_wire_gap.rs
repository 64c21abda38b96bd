//! The TCP front end adds no latency of its own to pipelined answers.
//!
//! One client connection (with `TCP_NODELAY` on its side) sends a pair of
//! queries every 5 ms: a slower one, then a faster one. With two workers
//! the two answers are written on the connection close together. A server
//! socket that leaves Nagle's algorithm (RFC 896) on holds the second
//! answer back while the first is unacknowledged, so it leaves only when
//! the client's next request carries the ACK, or when the delayed-ACK
//! timer (RFC 1122 §4.2.3.2, ~40 ms on Linux) fires.
//!
//! The receiver timestamps every answer. An answer's **wire gap** is
//! `received − sent − total_ns`: everything the client waited for beyond
//! the server's own queue + execution accounting — two loopback hops,
//! frame decode and the response write. The test bounds its p90.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqt_service::net::frame::{write_frame, FRAME_HEADER_LEN};
use cqt_service::net::protocol::{Request, Response, WireFanOut, WireLang};
use cqt_service::shard::Corpus;
use cqt_service::{NetServer, NetServerConfig};
use cqt_trees::generate::{random_tree, RandomTreeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLOWER: &str = "Q(y) :- A(x), Child+(x, y), B(y).";
const FASTER: &str = "Q() :- A(x).";
const PAIRS: u64 = 200;
const PERIOD: Duration = Duration::from_millis(5);
const P90_BOUND: Duration = Duration::from_micros(2_500);

fn query(id: u64) -> Request {
    Request::Query {
        id,
        lang: WireLang::Cq,
        text: if id % 2 == 0 { SLOWER } else { FASTER }.into(),
        fanout: WireFanOut::All,
        fp_key: 0,
    }
}

fn read_response(stream: &mut TcpStream) -> Response {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    Response::decode(&payload).unwrap()
}

#[test]
fn pipelined_answers_leave_without_waiting_for_an_ack() {
    let corpus = Arc::new(Corpus::new(1));
    let tree = random_tree(
        &mut StdRng::seed_from_u64(17),
        &RandomTreeConfig {
            nodes: 2_000,
            ..RandomTreeConfig::default()
        },
    );
    corpus.insert("doc", tree).unwrap();
    let handle = NetServer::start(corpus, NetServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Compile both plans before timing anything.
    for id in [2 * PAIRS, 2 * PAIRS + 1] {
        write_frame(&mut stream, &query(id).encode()).unwrap();
        assert!(matches!(
            read_response(&mut stream),
            Response::Answer { .. }
        ));
    }

    let mut sender_stream = stream.try_clone().unwrap();
    let start = Instant::now();
    let sender = std::thread::spawn(move || {
        let mut sent = Vec::with_capacity(2 * PAIRS as usize);
        for pair in 0..PAIRS {
            let due = start + PERIOD * pair as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            for id in [2 * pair, 2 * pair + 1] {
                sent.push(Instant::now());
                write_frame(&mut sender_stream, &query(id).encode()).unwrap();
            }
        }
        sent
    });
    let mut received = Vec::with_capacity(2 * PAIRS as usize);
    for _ in 0..2 * PAIRS {
        match read_response(&mut stream) {
            Response::Answer { id, total_ns, .. } => {
                received.push((id, Instant::now(), total_ns));
            }
            other => panic!("expected an answer, got {other:?}"),
        }
    }
    let sent = sender.join().unwrap();
    handle.shutdown();

    let mut gaps: Vec<Duration> = received
        .iter()
        .map(|&(id, at, total_ns)| {
            at.duration_since(sent[id as usize])
                .saturating_sub(Duration::from_nanos(total_ns))
        })
        .collect();
    gaps.sort_unstable();
    let p90 = gaps[gaps.len() * 9 / 10];
    let max = gaps[gaps.len() - 1];
    assert!(
        p90 < P90_BOUND,
        "wire gap p90 {p90:?} (max {max:?}) exceeds {P90_BOUND:?}: \
         answers are waiting on the network path, not on the server"
    );
}
