//! RPC frame relay for traced `procs-rpc` runs.
//!
//! The relay sits between the coordinator and each partition process. It
//! forwards every byte unchanged, splits both directions into the
//! length-prefixed frames of the partition RPC (`[len u32 LE][payload]`),
//! classifies each request with `wire::decode_request`, and matches
//! replies to requests in order per connection. From that it counts
//! calls, bytes, round trips (bursts of requests sent while nothing was
//! outstanding) and the time requests waited for replies, in total and
//! per `PartitionOp` kind.
//!
//! Malformed input — an oversize length prefix, a frame cut off by the end
//! of the stream, an undecodable request, a reply with no request — is an
//! error that ends the relayed connection, never a panic.

use mobieyes::cluster::wire;
use mobieyes::net::{Endpoint, MAX_FRAME};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a relayed byte stream was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// A length prefix above `MAX_FRAME`.
    Oversize(usize),
    /// The stream ended inside a frame, with this many bytes of it read.
    Truncated(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize(len) => {
                write!(f, "frame length {len} exceeds MAX_FRAME {MAX_FRAME}")
            }
            FrameError::Truncated(have) => write!(f, "stream ended inside a frame ({have} bytes)"),
        }
    }
}

/// Reassembles length-prefixed frames from arbitrary read boundaries.
#[derive(Debug, Default)]
pub struct FrameSplitter {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameSplitter {
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, or `None` until more bytes
    /// arrive. The length prefix is checked before anything is buffered
    /// for it.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let avail = &self.buf[self.pos..];
        let Some(prefix) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Oversize(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }

    /// Called at end of stream: an error when a partial frame remains.
    pub fn finish(&self) -> Result<(), FrameError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            have => Err(FrameError::Truncated(have)),
        }
    }
}

/// The `PartitionOp` variant name of a request frame.
pub fn op_name(request: &[u8]) -> Result<String, String> {
    let (_, op) = wire::decode_request(request).map_err(|e| format!("undecodable request: {e}"))?;
    Ok(variant_name(&op))
}

/// The leading identifier of a value's `Debug` form — an enum's variant
/// name. Formatting stops at the first character after the name, so a
/// large payload costs nothing to skip.
fn variant_name(value: &impl fmt::Debug) -> String {
    struct Ident(String);
    impl fmt::Write for Ident {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for c in s.chars() {
                if !(c.is_alphanumeric() || c == '_') {
                    return Err(fmt::Error);
                }
                self.0.push(c);
            }
            Ok(())
        }
    }
    let mut ident = Ident(String::new());
    // The error is the early stop, not a failure.
    let _ = write!(ident, "{value:?}");
    ident.0
}

/// Calls and request-to-reply time of one op kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    pub calls: u64,
    pub wait_s: f64,
}

/// Cumulative relay counters; subtract two readings to get a window's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RpcStats {
    pub calls: u64,
    /// Requests sent while no request was outstanding on any connection.
    pub round_trips: u64,
    /// Request and reply bytes, length prefixes included.
    pub req_bytes: u64,
    pub reply_bytes: u64,
    /// Time during which at least one request awaited its reply.
    pub wait_s: f64,
    pub ops: BTreeMap<String, OpStats>,
}

impl RpcStats {
    pub fn minus(&self, earlier: &RpcStats) -> RpcStats {
        let ops = self
            .ops
            .iter()
            .map(|(name, s)| {
                let e = earlier.ops.get(name).copied().unwrap_or_default();
                let d = OpStats {
                    calls: s.calls - e.calls,
                    wait_s: s.wait_s - e.wait_s,
                };
                (name.clone(), d)
            })
            .filter(|(_, d)| d.calls > 0)
            .collect();
        RpcStats {
            calls: self.calls - earlier.calls,
            round_trips: self.round_trips - earlier.round_trips,
            req_bytes: self.req_bytes - earlier.req_bytes,
            reply_bytes: self.reply_bytes - earlier.reply_bytes,
            wait_s: self.wait_s - earlier.wait_s,
            ops,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dir {
    Request,
    Reply,
}

/// Matches replies to requests and keeps the counters, across every
/// relayed connection.
#[derive(Debug)]
pub struct Accountant {
    stats: RpcStats,
    /// Per connection: op name and arrival time of each unanswered request.
    pending: Vec<VecDeque<(String, Instant)>>,
    outstanding: usize,
    busy_since: Option<Instant>,
    error: Option<String>,
}

impl Accountant {
    pub fn new(connections: usize) -> Accountant {
        Accountant {
            stats: RpcStats::default(),
            pending: vec![VecDeque::new(); connections],
            outstanding: 0,
            busy_since: None,
            error: None,
        }
    }

    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// Accounts one frame (the hello frames excluded) seen at `now`.
    pub fn record(
        &mut self,
        dir: Dir,
        conn: usize,
        frame: &[u8],
        now: Instant,
    ) -> Result<(), String> {
        let bytes = frame.len() as u64 + 4;
        match dir {
            Dir::Request => {
                let op = op_name(frame)?;
                self.stats.calls += 1;
                self.stats.req_bytes += bytes;
                if self.outstanding == 0 {
                    self.stats.round_trips += 1;
                    self.busy_since = Some(now);
                }
                self.outstanding += 1;
                self.stats.ops.entry(op.clone()).or_default().calls += 1;
                self.pending[conn].push_back((op, now));
            }
            Dir::Reply => {
                let (op, sent) = self.pending[conn]
                    .pop_front()
                    .ok_or_else(|| format!("connection {conn}: reply without a request"))?;
                self.stats.reply_bytes += bytes;
                self.stats.ops.entry(op).or_default().wait_s +=
                    now.saturating_duration_since(sent).as_secs_f64();
                self.outstanding -= 1;
                if self.outstanding == 0 {
                    if let Some(since) = self.busy_since.take() {
                        self.stats.wait_s += now.saturating_duration_since(since).as_secs_f64();
                    }
                }
            }
        }
        Ok(())
    }
}

fn lock(acct: &Mutex<Accountant>) -> MutexGuard<'_, Accountant> {
    acct.lock()
        .expect("relay accountant poisoned by a panicking pump")
}

/// Copies `src` to `dst` until end of stream, accounting every frame
/// before the read that completed it is forwarded. The first frame in
/// each direction is the hello and is not an RPC.
pub fn pump(
    mut src: impl Read,
    mut dst: impl Write,
    dir: Dir,
    conn: usize,
    acct: &Mutex<Accountant>,
) -> Result<(), String> {
    let mut split = FrameSplitter::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut hello_seen = false;
    loop {
        let n = match src.read(&mut chunk) {
            Ok(0) => return split.finish().map_err(|e| e.to_string()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("relay read: {e}")),
        };
        split.push(&chunk[..n]);
        let now = Instant::now();
        while let Some(frame) = split.next_frame().map_err(|e| e.to_string())? {
            if hello_seen {
                lock(acct).record(dir, conn, frame, now)?;
            } else {
                hello_seen = true;
            }
        }
        dst.write_all(&chunk[..n])
            .map_err(|e| format!("relay write: {e}"))?;
    }
}

/// A running relay: one listening socket per partition, each forwarding
/// to that partition's service.
pub struct Relay {
    acct: Arc<Mutex<Accountant>>,
    /// Every relayed stream, so teardown can unblock the pumps.
    streams: Arc<Mutex<Vec<UnixStream>>>,
    /// `/proc/self/task/<tid>` of every pump thread.
    tasks: Arc<Mutex<Vec<String>>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Result<(), String>>>,
    endpoints: Vec<Endpoint>,
}

const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

impl Relay {
    /// Listens on `socks[p]` and forwards the one connection it accepts
    /// there to `upstream[p]`.
    pub fn start(upstream: &[Endpoint], socks: &[PathBuf]) -> Result<Relay, String> {
        let mut relay = Relay {
            acct: Arc::new(Mutex::new(Accountant::new(upstream.len()))),
            streams: Arc::new(Mutex::new(Vec::new())),
            tasks: Arc::new(Mutex::new(Vec::new())),
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
            endpoints: Vec::new(),
        };
        for (conn, (up, sock)) in upstream.iter().zip(socks).enumerate() {
            let Endpoint::Uds(up) = up else {
                return Err(format!("relay forwards Unix sockets only, not {up}"));
            };
            let listener =
                UnixListener::bind(sock).map_err(|e| format!("binding {}: {e}", sock.display()))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("relay listener: {e}"))?;
            relay.endpoints.push(Endpoint::Uds(sock.clone()));
            let (up, acct, streams, tasks, stop) = (
                up.clone(),
                Arc::clone(&relay.acct),
                Arc::clone(&relay.streams),
                Arc::clone(&relay.tasks),
                Arc::clone(&relay.stop),
            );
            relay.threads.push(std::thread::spawn(move || {
                let result = relay_one(listener, &up, conn, &acct, &streams, &tasks, &stop);
                if let Err(e) = &result {
                    lock(&acct).error.get_or_insert_with(|| e.clone());
                    // Fail the coordinator's RPC instead of leaving it waiting.
                    for s in streams.lock().expect("relay stream list").iter() {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
                result
            }));
        }
        Ok(relay)
    }

    /// Where the coordinator connects, in partition order.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    pub fn stats(&self) -> RpcStats {
        lock(&self.acct).stats().clone()
    }

    /// `/proc/self/task/<tid>` of the relay's pump threads.
    pub fn tasks(&self) -> Vec<String> {
        self.tasks.lock().expect("relay task list").clone()
    }

    /// Waits for the pumps to see both ends close (after the partitions
    /// shut down and the coordinator dropped its connections), then
    /// reports the first error any pump met.
    pub fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && !self.threads.iter().all(|t| t.is_finished()) {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.teardown();
        match lock(&self.acct).error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn teardown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(streams) = self.streams.lock() {
            for s in streams.iter() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Accepts one coordinator connection, connects it to `up`, and pumps
/// both directions until they close.
fn relay_one(
    listener: UnixListener,
    up: &std::path::Path,
    conn: usize,
    acct: &Arc<Mutex<Accountant>>,
    streams: &Mutex<Vec<UnixStream>>,
    tasks: &Arc<Mutex<Vec<String>>>,
    stop: &AtomicBool,
) -> Result<(), String> {
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    let coord = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if stop.load(Ordering::SeqCst) || Instant::now() > deadline {
                    return Err(format!("relay {conn}: no coordinator connected"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("relay {conn} accept: {e}")),
        }
    };
    let io = |e: std::io::Error| format!("relay {conn}: {e}");
    coord.set_nonblocking(false).map_err(io)?;
    let service = UnixStream::connect(up).map_err(io)?;
    {
        let mut list = streams.lock().expect("relay stream list");
        list.push(coord.try_clone().map_err(io)?);
        list.push(service.try_clone().map_err(io)?);
    }
    let (coord_rx, service_tx) = (
        coord.try_clone().map_err(io)?,
        service.try_clone().map_err(io)?,
    );
    let (acct_up, tasks_up) = (Arc::clone(acct), Arc::clone(tasks));
    let replies = std::thread::spawn(move || {
        tasks_up
            .lock()
            .expect("relay task list")
            .extend(crate::procfs::current_task());
        let r = pump(&service, &coord, Dir::Reply, conn, &acct_up);
        let _ = coord.shutdown(Shutdown::Write);
        r
    });
    tasks
        .lock()
        .expect("relay task list")
        .extend(crate::procfs::current_task());
    let requests = pump(&coord_rx, &service_tx, Dir::Request, conn, acct);
    let _ = service_tx.shutdown(Shutdown::Write);
    let replies = replies
        .join()
        .unwrap_or_else(|_| Err(format!("relay {conn}: reply pump panicked")));
    requests.and(replies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes::cluster::{PartitionOp, PartitionReply, ReplyPayload};
    use mobieyes::core::ObjectId;

    fn frame(payload: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }

    fn request(op: &PartitionOp) -> Vec<u8> {
        let mut body = Vec::new();
        wire::encode_request(7, op, &mut body);
        body
    }

    fn reply(payload: ReplyPayload) -> Vec<u8> {
        let mut body = Vec::new();
        let r = PartitionReply {
            epoch: 7,
            outbox: Vec::new(),
            net: Vec::new(),
            payload,
        };
        wire::encode_reply(&r, &mut body);
        body
    }

    /// A recorded coordinator-to-partition stream and its reply stream:
    /// hello, then three calls.
    fn recorded() -> (Vec<u8>, Vec<u8>) {
        let (mut req, mut rep) = (Vec::new(), Vec::new());
        frame(b"MEHL\x01\0\0\0\0", &mut req);
        frame(b"MEHL\x01\x01\0\0\0", &mut rep);
        for op in [
            PartitionOp::SetTime(30.0),
            PartitionOp::RenewLease(ObjectId(3)),
            PartitionOp::NumQueries,
        ] {
            frame(&request(&op), &mut req);
        }
        for payload in [ReplyPayload::Unit, ReplyPayload::Unit, ReplyPayload::U64(5)] {
            frame(&reply(payload), &mut rep);
        }
        (req, rep)
    }

    #[test]
    fn recorded_stream_is_forwarded_and_counted() {
        let (req, rep) = recorded();
        let acct = Mutex::new(Accountant::new(1));
        let (mut fwd_req, mut fwd_rep) = (Vec::new(), Vec::new());
        pump(&req[..], &mut fwd_req, Dir::Request, 0, &acct).unwrap();
        pump(&rep[..], &mut fwd_rep, Dir::Reply, 0, &acct).unwrap();
        assert_eq!(fwd_req, req, "requests forwarded byte for byte");
        assert_eq!(fwd_rep, rep, "replies forwarded byte for byte");
        let acct = acct.into_inner().unwrap();
        let s = acct.stats();
        assert_eq!(s.calls, 3);
        // All three requests were out before the first reply came back.
        assert_eq!(s.round_trips, 1);
        assert_eq!(s.req_bytes as usize, req.len() - 13);
        assert_eq!(s.reply_bytes as usize, rep.len() - 13);
        let names: Vec<&str> = s.ops.keys().map(String::as_str).collect();
        assert_eq!(names, ["NumQueries", "RenewLease", "SetTime"]);
        assert!(s.ops.values().all(|o| o.calls == 1));
        assert_eq!(acct.outstanding, 0);
    }

    #[test]
    fn round_trips_count_bursts_across_connections() {
        let mut acct = Accountant::new(2);
        let now = Instant::now();
        let (set, unit) = (
            request(&PartitionOp::SetTime(1.0)),
            reply(ReplyPayload::Unit),
        );
        // A lone call on connection 0, then a burst fanned out to both.
        acct.record(Dir::Request, 0, &set, now).unwrap();
        acct.record(Dir::Reply, 0, &unit, now).unwrap();
        acct.record(Dir::Request, 0, &set, now).unwrap();
        acct.record(Dir::Request, 1, &set, now).unwrap();
        acct.record(Dir::Reply, 1, &unit, now).unwrap();
        acct.record(Dir::Reply, 0, &unit, now).unwrap();
        assert_eq!(acct.stats().calls, 3);
        assert_eq!(acct.stats().round_trips, 2);
    }

    #[test]
    fn frames_survive_one_byte_reads() {
        let (req, _) = recorded();
        let mut split = FrameSplitter::default();
        let mut frames = 0;
        for b in &req {
            split.push(std::slice::from_ref(b));
            while split.next_frame().unwrap().is_some() {
                frames += 1;
            }
        }
        assert_eq!(frames, 4);
        split.finish().unwrap();
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let (req, _) = recorded();
        let cut = &req[..req.len() - 3];
        let acct = Mutex::new(Accountant::new(1));
        let err = pump(cut, Vec::new(), Dir::Request, 0, &acct).unwrap_err();
        assert!(err.contains("ended inside a frame"), "{err}");
    }

    #[test]
    fn oversize_length_prefix_is_an_error() {
        let mut stream = Vec::new();
        frame(b"MEHL\x01\0\0\0\0", &mut stream);
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&[0; 16]);
        let acct = Mutex::new(Accountant::new(1));
        let err = pump(&stream[..], Vec::new(), Dir::Request, 0, &acct).unwrap_err();
        assert!(err.contains("exceeds MAX_FRAME"), "{err}");
    }

    #[test]
    fn garbage_request_and_unmatched_reply_are_errors() {
        let mut acct = Accountant::new(1);
        let now = Instant::now();
        assert!(acct.record(Dir::Request, 0, &[0xff; 11], now).is_err());
        assert!(acct.record(Dir::Request, 0, &[], now).is_err());
        assert!(acct
            .record(Dir::Reply, 0, &reply(ReplyPayload::Unit), now)
            .is_err());
        assert_eq!(acct.stats().calls, 0);
    }

    #[test]
    fn variant_name_stops_at_the_payload() {
        assert_eq!(variant_name(&PartitionOp::SetTime(1.0)), "SetTime");
        assert_eq!(variant_name(&PartitionOp::Shutdown), "Shutdown");
        assert_eq!(
            variant_name(&PartitionOp::ExportCells {
                flats: vec![1, 2],
                generation: 3
            }),
            "ExportCells"
        );
    }
}
