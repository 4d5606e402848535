//! A misbehaving partition peer must not panic the coordinator. A fake
//! partition on a loopback listener answers one request with bytes that
//! are no reply frame at all and another with a well-formed reply whose
//! payload does not fit the op. Either way the handle answers the op's
//! neutral fallback and latches dead with `TransportError::Protocol`
//! naming the op, so the coordinator fences the partition like a crashed
//! one; nothing more goes on the wire afterwards.

use mobieyes_cluster::wire::{self, PartitionOp, PartitionReply, ReplyPayload};
use mobieyes_cluster::{PartitionHandle, RemotePartition};
use mobieyes_core::ObjectId;
use mobieyes_net::{Endpoint, FramedConn, Listener, TransportError};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Starts a fake partition that accepts one connection per entry of
/// `replies` and answers that connection's first request with the entry's
/// raw bytes. Returns one remote handle per connection.
fn fake_peer(replies: Vec<Vec<u8>>) -> (Vec<PartitionHandle>, JoinHandle<()>) {
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let n = replies.len();
    let peer = thread::spawn(move || {
        for reply in replies {
            let mut conn = FramedConn::new(listener.accept().unwrap());
            conn.read_frame().unwrap();
            conn.write_frame(&reply).unwrap();
            conn.flush().unwrap();
        }
    });
    let epoch = Arc::new(AtomicU64::new(0));
    let handles = (0..n)
        .map(|p| {
            let conn = FramedConn::new(endpoint.connect().unwrap());
            PartitionHandle::Remote(RemotePartition::new(p as u32, conn, Arc::clone(&epoch)))
        })
        .collect();
    (handles, peer)
}

fn reply_bytes(payload: ReplyPayload) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_reply(
        &PartitionReply {
            epoch: 0,
            outbox: Vec::new(),
            net: Vec::new(),
            payload,
        },
        &mut out,
    );
    out
}

fn assert_protocol_death(handle: &PartitionHandle, op: &str) {
    match handle.crashed() {
        Some(TransportError::Protocol(msg)) => {
            assert!(msg.contains(op), "protocol error does not name {op}: {msg}")
        }
        other => panic!("expected a protocol death for {op}, got {other:?}"),
    }
}

#[test]
fn garbage_and_wrong_payload_replies_latch_protocol_deaths() {
    let (mut handles, peer) = fake_peer(vec![
        b"no reply frame".to_vec(),
        reply_bytes(ReplyPayload::Bool(true)),
    ]);

    // Undecodable reply: the pipelined half of a fan-out.
    let probe = handles[0].start(PartitionOp::NumQueries);
    assert_eq!(handles[0].finish(probe), ReplyPayload::U64(0));
    assert_protocol_death(&handles[0], "NumQueries");

    // Well-formed reply of the wrong shape: a serial mutating call.
    let purged = handles[1].call(PartitionOp::PurgeObject(ObjectId(3)), None);
    assert_eq!(purged, ReplyPayload::Qids(Vec::new()));
    assert_protocol_death(&handles[1], "PurgeObject");

    peer.join().expect("fake peer exits cleanly");

    // Dead handles are inert: later ops answer their fallback at once,
    // with the fake peer gone, and the first cause sticks.
    for h in &mut handles {
        assert_eq!(
            h.read(PartitionOp::QueryIds),
            ReplyPayload::Qids(Vec::new())
        );
        assert!(!h.probe_alive());
    }
    assert_protocol_death(&handles[0], "NumQueries");
    assert_protocol_death(&handles[1], "PurgeObject");
}
