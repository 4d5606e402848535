//! Uniform handle over a partition server, local or remote.
//!
//! The coordinator drives every partition through [`PartitionHandle`]'s
//! one generic surface: [`start`](PartitionHandle::start) (read-only ops,
//! through `&self`) and [`start_mut`](PartitionHandle::start_mut) (quiet
//! ops, which emit no downlink) put a [`PartitionOp`] in flight and
//! [`finish`](PartitionHandle::finish) collects its [`ReplyPayload`];
//! [`read`](PartitionHandle::read) is the read-only pair back to back, and
//! [`call`](PartitionHandle::call) runs one serial op of any kind,
//! downlinks included. Callers take typed values out of the payload with
//! its `into_*` accessors.
//!
//! A [`Local`](PartitionHandle::Local) handle owns the `Server` in-process
//! and runs the partition service's own interpreter on it directly — no
//! encoding, and downlinks land on the coordinator's real agent network.
//! A [`Remote`](PartitionHandle::Remote) handle ships the same op over the
//! [`wire`](crate::wire) RPC protocol to a partition process.
//!
//! Remote calls are strictly serialized per handle (one request, one
//! reply), carry the coordinator's epoch view as a floor, and fold the
//! reply's epoch back with a `fetch_max` — reproducing the shared atomic
//! epoch counter of the in-process deployment. Side effects come back in
//! the reply: bus envelopes are buffered until
//! [`PartitionHandle::take_outbox`] (so the coordinator's pump discipline
//! is unchanged) and downlink traffic is replayed onto the real agent
//! network in emission order. Requests to *different* partitions may be
//! in flight together: a fan-out starts every probe before finishing any,
//! so all partition processes compute concurrently.
//!
//! A mid-run failure on a remote handle marks it dead and makes it
//! permanently inert: every later op answers its neutral fallback
//! ([`PartitionOp::fallback`] — empty, `None`, `false`) and nothing more
//! goes on the wire, so the coordinator's fan-out discipline survives the
//! loss and can notice via [`PartitionHandle::crashed`] at the next tick
//! boundary and fence the partition off. A failure that means the peer is
//! gone ([`TransportError::is_peer_death`] — closed socket, stream I/O
//! error, or an elapsed read deadline) is recorded as it is. Anything
//! else the wire hands back — an undecodable reply frame, a payload that
//! does not fit the op, downlinks from an op that emits none — is a
//! protocol violation: it latches the handle dead with
//! [`TransportError::Protocol`] naming the op, so a misbehaving peer is
//! fenced like a crashed one instead of panicking the coordinator. A dead
//! handle is never reused: a late reply from a half-executed primitive
//! would desynchronize the connection, so recovery always builds a fresh
//! handle (respawn) or abandons the slot (failover).

use crate::serve;
use crate::wire::{self, variant_name, NetAction, PartitionOp, PartitionReply, ReplyPayload};
use mobieyes_core::server::Net;
use mobieyes_core::{ClusterMsg, Server};
use mobieyes_net::{FramedConn, NodeId, StationId, TransportError};
use std::cell::RefCell;
use std::mem::discriminant;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A connected remote partition: the coordinator side of the RPC link.
pub struct RemotePartition {
    /// This partition's index (labels protocol-violation reports).
    partition: u32,
    conn: RefCell<FramedConn>,
    /// Coordinator-side view of the shared epoch, updated from every
    /// reply; shared across all remote handles of one deployment.
    epoch: Arc<AtomicU64>,
    /// Bus envelopes returned by replies, buffered until the coordinator
    /// pumps the bus.
    outbox: RefCell<Vec<(u32, ClusterMsg)>>,
    /// Reusable request/reply frame scratch — steady-state RPC traffic
    /// allocates no per-call buffers.
    frame: RefCell<Vec<u8>>,
    /// The failure that killed the handle (first one wins); the handle is
    /// inert once set (see module docs).
    death: RefCell<Option<TransportError>>,
}

impl RemotePartition {
    /// Wraps a connected, hello-completed connection. `epoch` is the
    /// coordinator's shared epoch view (one `Arc` across all handles).
    pub fn new(partition: u32, conn: FramedConn, epoch: Arc<AtomicU64>) -> Self {
        RemotePartition {
            partition,
            conn: RefCell::new(conn),
            epoch,
            outbox: RefCell::new(Vec::new()),
            frame: RefCell::new(Vec::new()),
            death: RefCell::new(None),
        }
    }

    /// Installs (or clears) the per-RPC read deadline on the connection.
    /// While set, a partition that hangs instead of crashing surfaces as
    /// [`TransportError::Timeout`] on the next reply wait.
    pub fn set_rpc_deadline(&self, dur: Option<std::time::Duration>) {
        let _ = self.conn.borrow().set_read_timeout(dur);
    }

    /// The transport failure that killed this handle, if any.
    pub fn crashed(&self) -> Option<TransportError> {
        self.death.borrow().clone()
    }

    /// Latches the handle dead. Peer death is kept as it is; any other
    /// failure is a protocol violation and is recorded as one, naming the
    /// op it broke.
    fn fail(&self, op: &PartitionOp, e: TransportError) {
        let e = if e.is_peer_death() {
            e
        } else {
            TransportError::Protocol(format!(
                "partition {} answering {}: {e}",
                self.partition,
                variant_name(op)
            ))
        };
        self.death.borrow_mut().get_or_insert(e);
    }

    /// Request half of an RPC: encodes and flushes the op without waiting
    /// for the reply.
    fn send_request(&self, op: &PartitionOp) -> Result<(), TransportError> {
        let floor = self.epoch.load(Ordering::Relaxed);
        let mut frame = self.frame.borrow_mut();
        frame.clear();
        wire::encode_request(floor, op, &mut frame);
        let mut conn = self.conn.borrow_mut();
        conn.write_frame(&frame)?;
        conn.flush()
    }

    /// Reply half of an RPC: blocks for the next reply frame, folds its
    /// epoch into the shared view and buffers its outbox envelopes.
    fn recv_reply(&self) -> Result<(Vec<NetAction>, ReplyPayload), TransportError> {
        let mut frame = self.frame.borrow_mut();
        self.conn.borrow_mut().read_frame_into(&mut frame)?;
        let PartitionReply {
            epoch,
            outbox,
            net,
            payload,
        } = wire::decode_reply(&frame)?;
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
        self.outbox.borrow_mut().extend(outbox);
        Ok((net, payload))
    }

    /// One unclassified round trip, for the setup ops whose failure the
    /// caller reports itself.
    fn try_call(&self, op: &PartitionOp) -> Result<ReplyPayload, TransportError> {
        self.send_request(op)?;
        self.recv_reply().map(|(_, payload)| payload)
    }

    /// Configures the peer; must be the first call on the connection.
    pub fn init(&self, init: wire::InitConfig) -> Result<(), TransportError> {
        self.try_call(&PartitionOp::Init(init)).map(|_| ())
    }

    /// Sends the shutdown op; the peer replies and exits its service loop.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        self.try_call(&PartitionOp::Shutdown).map(|_| ())
    }

    /// Puts `op` on the wire. A dead handle (already, or dying on the
    /// send) resolves at once to the op's fallback.
    fn start(&self, op: PartitionOp) -> Probe {
        if self.death.borrow().is_some() {
            return Probe::Ready(op.fallback());
        }
        match self.send_request(&op) {
            Ok(()) => Probe::Pending(op),
            Err(e) => {
                self.fail(&op, e);
                Probe::Ready(op.fallback())
            }
        }
    }

    /// Reads the reply to a started `op` and checks it fits the op; the
    /// reply's downlinks are replayed onto `net`. Every failure latches
    /// the handle dead and answers the op's fallback.
    fn finish(&self, op: PartitionOp, net: Option<&mut Net>) -> ReplyPayload {
        let fallback = op.fallback();
        if self.death.borrow().is_some() {
            return fallback;
        }
        let (actions, payload) = match self.recv_reply() {
            Ok(reply) => reply,
            Err(e) => {
                self.fail(&op, e);
                return fallback;
            }
        };
        let violation = if discriminant(&payload) != discriminant(&fallback) {
            Some(format!("wrong reply payload {}", variant_name(&payload)))
        } else if net.is_none() && !actions.is_empty() {
            Some(format!("{} downlinks from a quiet op", actions.len()))
        } else {
            None
        };
        if let Some(violation) = violation {
            self.fail(&op, TransportError::Protocol(violation));
            return fallback;
        }
        if let Some(net) = net {
            replay_net(actions, net);
        }
        payload
    }
}

/// Replays captured downlink actions onto the real agent network, in
/// emission order — the same queue entries the op would have pushed had
/// it run in-process.
fn replay_net(actions: Vec<NetAction>, net: &mut Net) {
    for action in actions {
        match action {
            NetAction::Unicast { node, msg } => net.send_unicast(NodeId(node), msg),
            NetAction::Broadcast { station, msg } => net.broadcast(StationId(station), msg),
        }
    }
}

/// A partition op in flight: the request half of a pipelined RPC.
///
/// Every started probe MUST be finished (on the same handle, in start
/// order) — an unconsumed reply would desynchronize the connection.
#[must_use = "every started probe must be finished on its handle"]
pub enum Probe {
    /// The reply is already here: a local handle ran the op, or a dead
    /// remote stood in with the op's fallback.
    Ready(ReplyPayload),
    /// The request is on the wire; finishing reads its reply.
    Pending(PartitionOp),
}

/// A partition server the coordinator can drive: in-process or over RPC.
pub enum PartitionHandle {
    Local(Box<Server>),
    Remote(RemotePartition),
}

impl PartitionHandle {
    /// The in-process server, for APIs that expose partition internals
    /// (`ClusterServer::partition`, borrowed result sets, store rebuilds).
    /// `None` for remote handles — those surfaces are lockstep-only, and
    /// callers must handle the miss instead of aborting the coordinator.
    pub fn local(&self) -> Option<&Server> {
        match self {
            PartitionHandle::Local(s) => Some(s),
            PartitionHandle::Remote(_) => None,
        }
    }

    fn remote(&self) -> Option<&RemotePartition> {
        match self {
            PartitionHandle::Local(_) => None,
            PartitionHandle::Remote(r) => Some(r),
        }
    }

    pub fn is_remote(&self) -> bool {
        self.remote().is_some()
    }

    /// Request half of a read-only op, through a shared borrow. A local
    /// handle answers at once; a remote one puts the request on the wire.
    /// Ops that change the partition go through [`Self::start_mut`].
    pub fn start(&self, op: PartitionOp) -> Probe {
        match self {
            PartitionHandle::Local(s) => Probe::Ready(serve::read(s, &op)),
            PartitionHandle::Remote(r) => r.start(op),
        }
    }

    /// Request half of a quiet op: one that may change the partition but
    /// emits no downlink. A local handle runs it at once. Ops that emit
    /// downlinks go through [`Self::call`], which finishes them onto the
    /// network they were started with.
    pub fn start_mut(&mut self, op: PartitionOp) -> Probe {
        match self {
            PartitionHandle::Local(s) => Probe::Ready(serve::execute_quiet(s, op)),
            PartitionHandle::Remote(r) => r.start(op),
        }
    }

    /// Reply half of a probe from [`Self::start`] or [`Self::start_mut`]:
    /// the op's reply, or its fallback when the peer is dead or broke the
    /// protocol.
    pub fn finish(&self, probe: Probe) -> ReplyPayload {
        match probe {
            Probe::Ready(payload) => payload,
            Probe::Pending(op) => self
                .remote()
                .expect("only remote handles leave a probe pending")
                .finish(op, None),
        }
    }

    /// One serial op of any kind. Its downlinks land on `net` — directly
    /// from a local handle, replayed from a remote reply; ops that emit
    /// none may pass `None`.
    pub fn call(&mut self, op: PartitionOp, net: Option<&mut Net>) -> ReplyPayload {
        match (self, net) {
            (PartitionHandle::Local(s), Some(net)) => serve::execute(s, net, op),
            (PartitionHandle::Local(s), None) => serve::execute_quiet(s, op),
            (PartitionHandle::Remote(r), net) => match r.start(op) {
                Probe::Ready(payload) => payload,
                Probe::Pending(op) => r.finish(op, net),
            },
        }
    }

    /// One serial read-only op: [`Self::start`] then [`Self::finish`].
    pub fn read(&self, op: PartitionOp) -> ReplyPayload {
        self.finish(self.start(op))
    }

    /// The partition's epoch. Exact for remote handles too under strict
    /// serialization: every epoch movement flows through a reply the
    /// coordinator's view already folded in.
    pub fn current_epoch(&self) -> u64 {
        match self {
            PartitionHandle::Local(s) => s.current_epoch(),
            PartitionHandle::Remote(r) => r.epoch.load(Ordering::Relaxed),
        }
    }

    pub fn take_outbox(&mut self) -> Vec<(u32, ClusterMsg)> {
        match self {
            PartitionHandle::Local(s) => s.take_outbox(),
            PartitionHandle::Remote(r) => std::mem::take(&mut *r.outbox.borrow_mut()),
        }
    }

    // --- crash detection --------------------------------------------------

    /// The transport failure that killed this handle, if any. Local
    /// handles never die this way (in-process crashes are injected
    /// through the coordinator instead).
    pub fn crashed(&self) -> Option<TransportError> {
        self.remote().and_then(RemotePartition::crashed)
    }

    /// Installs (or clears) the per-RPC read deadline on a remote handle,
    /// so a hung partition process surfaces as a
    /// [`TransportError::Timeout`] instead of blocking the coordinator
    /// forever. No-op for local handles.
    pub fn set_rpc_deadline(&self, dur: Option<std::time::Duration>) {
        if let Some(r) = self.remote() {
            r.set_rpc_deadline(dur);
        }
    }

    /// Swaps in a fresh in-process server, dropping the old one's entire
    /// state — the coordinator's crash-injection primitive (the lockstep
    /// analogue of `kill -9` on a partition process).
    pub fn replace_local(&mut self, fresh: Server) {
        match self {
            PartitionHandle::Local(s) => **s = fresh,
            PartitionHandle::Remote(_) => {
                panic!("crash injection replaces in-process servers only")
            }
        }
    }

    /// Actively verifies the peer is alive with a trivial round trip
    /// (`CurrentEpoch`). A crashed or hung peer fails the call, which
    /// latches the handle dead; the verdict is then readable via
    /// [`Self::crashed`]. Local handles are trivially alive.
    pub fn probe_alive(&self) -> bool {
        let _ = self.read(PartitionOp::CurrentEpoch);
        self.crashed().is_none()
    }
}

/// One pipelined round of a read-only op over every partition: all
/// requests go out before any reply is read, so partition processes
/// compute concurrently. Replies come back in partition order.
pub(crate) fn fan_out(
    handles: &[PartitionHandle],
    op: impl Fn() -> PartitionOp,
) -> Vec<ReplyPayload> {
    let probes: Vec<Probe> = handles.iter().map(|h| h.start(op())).collect();
    handles
        .iter()
        .zip(probes)
        .map(|(h, p)| h.finish(p))
        .collect()
}

/// [`fan_out`] for quiet ops that change the partitions.
pub(crate) fn fan_out_mut(
    handles: &mut [PartitionHandle],
    op: impl Fn() -> PartitionOp,
) -> Vec<ReplyPayload> {
    let probes: Vec<Probe> = handles.iter_mut().map(|h| h.start_mut(op())).collect();
    handles
        .iter()
        .zip(probes)
        .map(|(h, p)| h.finish(p))
        .collect()
}
