//! Uniform handle over a partition server, local or remote.
//!
//! The coordinator drives every partition through [`PartitionHandle`],
//! which mirrors the [`Server`] methods the decomposition uses. A
//! [`Local`](PartitionHandle::Local) handle owns the `Server` in-process
//! (the original deployment, zero overhead); a
//! [`Remote`](PartitionHandle::Remote) handle speaks the
//! [`wire`](crate::wire) RPC protocol to a partition process over a framed
//! socket connection.
//!
//! Remote calls are strictly serialized (one request, one reply), carry
//! the coordinator's epoch view as a floor, and fold the reply's epoch
//! back with a `fetch_max` — reproducing the shared atomic epoch counter
//! of the in-process deployment. Side effects come back in the reply: bus
//! envelopes are buffered until [`PartitionHandle::take_outbox`] (so the
//! coordinator's pump discipline is unchanged) and downlink traffic is
//! replayed onto the real agent network in emission order.
//!
//! A mid-run transport failure on a remote handle is *classified*: a
//! failure that means the peer is gone ([`TransportError::is_peer_death`]
//! — closed socket, stream I/O error, or an elapsed read deadline) marks
//! the handle dead and makes it permanently inert — every subsequent call
//! returns a neutral fallback (empty, `None`, `false`) and nothing more
//! goes on the wire, so the coordinator's fan-out discipline survives the
//! loss and can notice via [`PartitionHandle::crashed`] at the next tick
//! boundary and fence the partition off. A dead handle is never reused:
//! a late reply from a half-executed primitive would desynchronize the
//! connection, so recovery always builds a fresh handle (respawn) or
//! abandons the slot (failover). Protocol violations — wrong payload
//! shape, undecodable reply — still panic: they are bugs, not crashes.

use crate::wire::{self, NetAction, PartitionOp, PartitionReply, ReplyPayload};
use mobieyes_core::server::Net;
use mobieyes_core::{ClusterMsg, Filter, ObjectId, QueryId, Server};
use mobieyes_geo::{CellId, LinearMotion, QueryRegion};
use mobieyes_net::{FramedConn, NodeId, StationId, TransportError};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A connected remote partition: the coordinator side of the RPC link.
pub struct RemotePartition {
    /// This partition's index (labels panic messages).
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
    /// Set on the first transport failure classified as peer death; the
    /// handle is inert from then on (see module docs).
    dead: std::cell::Cell<bool>,
    /// The failure that killed the handle, for the coordinator's
    /// detection report.
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
            dead: std::cell::Cell::new(false),
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

    /// Classifies a transport failure: peer death marks the handle dead
    /// (first error wins) and returns `None`; anything else is a protocol
    /// bug and panics.
    fn classify<T>(&self, e: TransportError, what: &str) -> Option<T> {
        if e.is_peer_death() {
            self.dead.set(true);
            self.death.borrow_mut().get_or_insert(e);
            None
        } else {
            panic!("remote partition {} {what}: {e}", self.partition)
        }
    }

    /// Request half of an RPC: encodes and flushes the op without waiting
    /// for the reply. Every send must be paired with exactly one
    /// [`Self::recv_reply`] on this handle, in send order — the service
    /// loop replies strictly in request order, so requests to *different*
    /// partitions can be in flight simultaneously (pipelined fan-out).
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

    /// One strictly-serialized RPC round trip. The reply's outbox is
    /// buffered; the net actions and payload are returned to the caller.
    fn try_call(&self, op: &PartitionOp) -> Result<(Vec<NetAction>, ReplyPayload), TransportError> {
        self.send_request(op)?;
        self.recv_reply()
    }

    /// Pipelined request half with crash classification: `true` means the
    /// request is on the wire and a reply must be collected; `false`
    /// means the handle is (or just became) dead and no reply will come.
    fn send_classified(&self, op: &PartitionOp) -> bool {
        if self.dead.get() {
            return false;
        }
        match self.send_request(op) {
            Ok(()) => true,
            Err(e) => self.classify::<()>(e, "failed sending a request").is_some(),
        }
    }

    /// Collects the reply to a previously pipelined quiet (no-downlink)
    /// op; `None` means the peer died before replying.
    fn recv_quiet_classified(&self, what: &str) -> Option<ReplyPayload> {
        match self.recv_reply() {
            Ok((net, payload)) => {
                debug_assert!(net.is_empty(), "op unexpectedly emitted downlinks");
                Some(payload)
            }
            Err(e) => self.classify(e, what),
        }
    }

    /// One classified round trip: `None` means the peer is dead (already,
    /// or it died during this call) and the op did not take effect.
    fn call(&self, op: PartitionOp) -> Option<(Vec<NetAction>, ReplyPayload)> {
        if self.dead.get() {
            return None;
        }
        match self.try_call(&op) {
            Ok(result) => Some(result),
            Err(e) => self.classify(e, "failed executing a request"),
        }
    }

    /// A call whose op must not emit downlink traffic.
    fn call_quiet(&self, op: PartitionOp) -> Option<ReplyPayload> {
        let (net, payload) = self.call(op)?;
        debug_assert!(net.is_empty(), "op unexpectedly emitted downlinks");
        Some(payload)
    }

    /// A call whose downlink side effects are replayed onto `net`.
    fn call_net(&self, op: PartitionOp, net: &mut Net) -> Option<ReplyPayload> {
        let (actions, payload) = self.call(op)?;
        replay_net(actions, net);
        Some(payload)
    }

    /// A fire-and-forget quiet call: the payload is ignored and a dead
    /// peer makes the whole op a no-op.
    fn call_quiet_void(&self, op: PartitionOp) {
        let _ = self.call_quiet(op);
    }

    /// A fire-and-forget call with downlink replay; no-op on a dead peer.
    fn call_net_void(&self, op: PartitionOp, net: &mut Net) {
        let _ = self.call_net(op, net);
    }

    /// Configures the peer; must be the first call on the connection.
    pub fn init(&self, init: wire::InitConfig) -> Result<(), TransportError> {
        self.try_call(&PartitionOp::Init(init)).map(|_| ())
    }

    /// Sends the shutdown op; the peer replies and exits its service loop.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        self.try_call(&PartitionOp::Shutdown).map(|_| ())
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

fn bad_payload(what: &str, got: &ReplyPayload) -> ! {
    panic!("remote partition returned wrong payload for {what}: {got:?}")
}

/// A two-phase partition probe: the request half of a pipelined RPC.
///
/// Local handles resolve immediately ([`Probe::Ready`]); remote handles
/// have the request on the wire ([`Probe::Pending`]) and the partition
/// process computes while the coordinator issues probes to its siblings.
/// Every started probe MUST be finished (on the same handle, in start
/// order) — an unconsumed reply would desynchronize the connection.
/// A probe against a dead remote ([`Probe::Dead`]) put nothing on the
/// wire; finishing it yields the op's neutral fallback.
#[must_use = "every started probe must be finished on its handle"]
pub enum Probe<T> {
    Ready(T),
    Pending,
    Dead,
}

/// A partition server the coordinator can drive: in-process or over RPC.
///
/// Method-for-method mirror of the [`Server`] surface the coordinator's
/// decomposition uses; see the `Server` docs for semantics.
pub enum PartitionHandle {
    Local(Box<Server>),
    Remote(RemotePartition),
}

impl PartitionHandle {
    /// The in-process server, for APIs that expose partition internals
    /// (`ClusterServer::partition`, store rebuilds). `None` for remote
    /// handles — those surfaces are lockstep-only, and callers must
    /// handle the miss instead of aborting the coordinator.
    pub fn local(&self) -> Option<&Server> {
        match self {
            PartitionHandle::Local(s) => Some(s),
            PartitionHandle::Remote(_) => None,
        }
    }

    fn local_mut(&mut self) -> Option<&mut Server> {
        match self {
            PartitionHandle::Local(s) => Some(s),
            PartitionHandle::Remote(_) => None,
        }
    }

    pub fn is_remote(&self) -> bool {
        matches!(self, PartitionHandle::Remote(_))
    }

    // --- pipelined probes -------------------------------------------------
    //
    // The coordinator's fan-out loops (directory rebuilds, digest beacons,
    // lease scans) hit every partition with the same read-only op. Issued
    // through `try_call` those serialize: each remote round trip completes
    // before the next request leaves. The start/finish pairs below put
    // every request on the wire first, so all partition processes compute
    // concurrently, then collect replies in the same order — identical
    // results, one round-trip latency instead of N.

    /// Generic request half: local handles compute inline; a dead remote
    /// resolves to the fallback at finish time without touching the wire.
    fn start<T>(&self, op: PartitionOp, local: impl FnOnce(&Server) -> T) -> Probe<T> {
        match self {
            PartitionHandle::Local(s) => Probe::Ready(local(s)),
            PartitionHandle::Remote(r) => {
                if r.send_classified(&op) {
                    Probe::Pending
                } else {
                    Probe::Dead
                }
            }
        }
    }

    /// Generic reply half for quiet (no-downlink) ops. A probe whose peer
    /// is dead — at start, or dying before the reply — yields `T`'s
    /// default, the op's neutral fallback.
    fn finish<T: Default>(
        &self,
        probe: Probe<T>,
        what: &str,
        parse: impl FnOnce(ReplyPayload) -> T,
    ) -> T {
        match probe {
            Probe::Ready(v) => v,
            Probe::Dead => T::default(),
            Probe::Pending => match self {
                PartitionHandle::Local(_) => unreachable!("pending probe on a local handle"),
                PartitionHandle::Remote(r) => match r.recv_quiet_classified(what) {
                    Some(payload) => parse(payload),
                    None => T::default(),
                },
            },
        }
    }

    pub fn start_num_queries(&self) -> Probe<usize> {
        self.start(PartitionOp::NumQueries, |s| s.num_queries())
    }

    pub fn finish_num_queries(&self, probe: Probe<usize>) -> usize {
        self.finish(probe, "NumQueries", |p| match p {
            ReplyPayload::U64(n) => n as usize,
            other => bad_payload("NumQueries", &other),
        })
    }

    pub fn start_query_ids(&self) -> Probe<Vec<QueryId>> {
        self.start(PartitionOp::QueryIds, |s| s.query_ids().collect())
    }

    pub fn finish_query_ids(&self, probe: Probe<Vec<QueryId>>) -> Vec<QueryId> {
        self.finish(probe, "QueryIds", |p| match p {
            ReplyPayload::Qids(qids) => qids,
            other => bad_payload("QueryIds", &other),
        })
    }

    pub fn start_query_focal(&self, qid: QueryId) -> Probe<Option<ObjectId>> {
        self.start(PartitionOp::QueryFocal(qid), |s| s.query_focal(qid))
    }

    pub fn finish_query_focal(&self, probe: Probe<Option<ObjectId>>) -> Option<ObjectId> {
        self.finish(probe, "QueryFocal", |p| match p {
            ReplyPayload::OptOid(oid) => oid,
            other => bad_payload("QueryFocal", &other),
        })
    }

    pub fn start_expired_query_ids(&self, now: f64) -> Probe<Vec<QueryId>> {
        self.start(PartitionOp::ExpiredQueryIds(now), |s| {
            s.expired_query_ids(now)
        })
    }

    pub fn finish_expired_query_ids(&self, probe: Probe<Vec<QueryId>>) -> Vec<QueryId> {
        self.finish(probe, "ExpiredQueryIds", |p| match p {
            ReplyPayload::Qids(qids) => qids,
            other => bad_payload("ExpiredQueryIds", &other),
        })
    }

    pub fn start_expired_leases(&self) -> Probe<Vec<(ObjectId, Vec<QueryId>)>> {
        self.start(PartitionOp::ExpiredLeases, |s| s.expired_leases())
    }

    pub fn finish_expired_leases(
        &self,
        probe: Probe<Vec<(ObjectId, Vec<QueryId>)>>,
    ) -> Vec<(ObjectId, Vec<QueryId>)> {
        self.finish(probe, "ExpiredLeases", |p| match p {
            ReplyPayload::Leases(leases) => leases,
            other => bad_payload("ExpiredLeases", &other),
        })
    }

    pub fn start_digest_cells(&self) -> Probe<Vec<(CellId, u64)>> {
        self.start(PartitionOp::DigestCells, |s| s.digest_cells())
    }

    pub fn finish_digest_cells(&self, probe: Probe<Vec<(CellId, u64)>>) -> Vec<(CellId, u64)> {
        self.finish(probe, "DigestCells", |p| match p {
            ReplyPayload::Digests(digests) => digests,
            other => bad_payload("DigestCells", &other),
        })
    }

    /// Mutating fan-out op (clock distribution): local handles apply
    /// immediately, remote requests pipeline.
    pub fn start_set_time(&mut self, now: f64) -> Probe<()> {
        match self {
            PartitionHandle::Local(s) => {
                s.set_time(now);
                Probe::Ready(())
            }
            PartitionHandle::Remote(r) => {
                if r.send_classified(&PartitionOp::SetTime(now)) {
                    Probe::Pending
                } else {
                    Probe::Dead
                }
            }
        }
    }

    pub fn finish_unit(&self, probe: Probe<()>, what: &str) {
        self.finish(probe, what, |p| match p {
            ReplyPayload::Unit => (),
            other => bad_payload(what, &other),
        })
    }

    pub fn set_time(&mut self, now: f64) {
        match self {
            PartitionHandle::Local(s) => s.set_time(now),
            PartitionHandle::Remote(r) => r.call_quiet_void(PartitionOp::SetTime(now)),
        }
    }

    pub fn renew_lease(&mut self, oid: ObjectId) {
        match self {
            PartitionHandle::Local(s) => s.renew_lease(oid),
            PartitionHandle::Remote(r) => r.call_quiet_void(PartitionOp::RenewLease(oid)),
        }
    }

    pub fn on_velocity_report(&mut self, oid: ObjectId, motion: LinearMotion, net: &mut Net) {
        match self {
            PartitionHandle::Local(s) => s.on_velocity_report(oid, motion, net),
            PartitionHandle::Remote(r) => {
                r.call_net_void(PartitionOp::VelocityReport { oid, motion }, net);
            }
        }
    }

    pub fn apply_cell_change_focal(
        &mut self,
        oid: ObjectId,
        new_cell: CellId,
        motion: LinearMotion,
        net: &mut Net,
    ) {
        match self {
            PartitionHandle::Local(s) => s.apply_cell_change_focal(oid, new_cell, motion, net),
            PartitionHandle::Remote(r) => {
                r.call_net_void(
                    PartitionOp::CellChangeFocal {
                        oid,
                        new_cell,
                        motion,
                    },
                    net,
                );
            }
        }
    }

    pub fn apply_cell_change_fresh(
        &mut self,
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        motion: LinearMotion,
        net: &mut Net,
    ) {
        match self {
            PartitionHandle::Local(s) => {
                s.apply_cell_change_fresh(oid, prev_cell, new_cell, motion, net)
            }
            PartitionHandle::Remote(r) => {
                r.call_net_void(
                    PartitionOp::CellChangeFresh {
                        oid,
                        prev_cell,
                        new_cell,
                        motion,
                    },
                    net,
                );
            }
        }
    }

    pub fn apply_result_change(
        &mut self,
        qid: QueryId,
        oid: ObjectId,
        is_target: bool,
        net: &mut Net,
    ) -> bool {
        match self {
            PartitionHandle::Local(s) => s.apply_result_change(qid, oid, is_target, net),
            PartitionHandle::Remote(r) => {
                match r.call_net(
                    PartitionOp::ResultChange {
                        qid,
                        oid,
                        is_target,
                    },
                    net,
                ) {
                    Some(ReplyPayload::Bool(b)) => b,
                    None => false,
                    Some(other) => bad_payload("ResultChange", &other),
                }
            }
        }
    }

    pub fn apply_group_result_update(
        &mut self,
        oid: ObjectId,
        focal: ObjectId,
        mask: u64,
        targets: u64,
        net: &mut Net,
    ) {
        match self {
            PartitionHandle::Local(s) => {
                s.apply_group_result_update(oid, focal, mask, targets, net)
            }
            PartitionHandle::Remote(r) => {
                r.call_net_void(
                    PartitionOp::GroupResultUpdate {
                        oid,
                        focal,
                        mask,
                        targets,
                    },
                    net,
                );
            }
        }
    }

    pub fn refresh_focal_motion(
        &mut self,
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        insert: bool,
    ) {
        match self {
            PartitionHandle::Local(s) => s.refresh_focal_motion(oid, motion, max_vel, insert),
            PartitionHandle::Remote(r) => {
                r.call_quiet_void(PartitionOp::RefreshFocalMotion {
                    oid,
                    motion,
                    max_vel,
                    insert,
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn complete_install_at(
        &mut self,
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Arc<Filter>,
        expires_at: Option<f64>,
        net: &mut Net,
    ) {
        match self {
            PartitionHandle::Local(s) => {
                s.complete_install_at(qid, focal, region, filter, expires_at, net)
            }
            PartitionHandle::Remote(r) => {
                r.call_net_void(
                    PartitionOp::CompleteInstall {
                        qid,
                        focal,
                        region,
                        filter,
                        expires_at,
                    },
                    net,
                );
            }
        }
    }

    pub fn remove_query(&mut self, qid: QueryId, net: &mut Net) -> bool {
        match self {
            PartitionHandle::Local(s) => s.remove_query(qid, net),
            PartitionHandle::Remote(r) => match r.call_net(PartitionOp::RemoveQuery(qid), net) {
                Some(ReplyPayload::Bool(b)) => b,
                None => false,
                Some(other) => bad_payload("RemoveQuery", &other),
            },
        }
    }

    pub fn expired_query_ids(&self, now: f64) -> Vec<QueryId> {
        match self {
            PartitionHandle::Local(s) => s.expired_query_ids(now),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::ExpiredQueryIds(now)) {
                Some(ReplyPayload::Qids(qids)) => qids,
                None => Vec::new(),
                Some(other) => bad_payload("ExpiredQueryIds", &other),
            },
        }
    }

    pub fn expired_leases(&self) -> Vec<(ObjectId, Vec<QueryId>)> {
        match self {
            PartitionHandle::Local(s) => s.expired_leases(),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::ExpiredLeases) {
                Some(ReplyPayload::Leases(leases)) => leases,
                None => Vec::new(),
                Some(other) => bad_payload("ExpiredLeases", &other),
            },
        }
    }

    pub fn reinstall_info(&self, qid: QueryId) -> Option<(QueryRegion, Arc<Filter>, Option<f64>)> {
        match self {
            PartitionHandle::Local(s) => s.reinstall_info(qid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::ReinstallInfo(qid)) {
                Some(ReplyPayload::Reinstall(info)) => {
                    info.map(|(region, filter, expires_at)| (region, Arc::new(filter), expires_at))
                }
                None => None,
                Some(other) => bad_payload("ReinstallInfo", &other),
            },
        }
    }

    pub fn digest_cells(&self) -> Vec<(CellId, u64)> {
        match self {
            PartitionHandle::Local(s) => s.digest_cells(),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::DigestCells) {
                Some(ReplyPayload::Digests(digests)) => digests,
                None => Vec::new(),
                Some(other) => bad_payload("DigestCells", &other),
            },
        }
    }

    pub fn bump_epoch_for_coordinator(&mut self) -> u64 {
        match self {
            PartitionHandle::Local(s) => s.bump_epoch_for_coordinator(),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::BumpEpoch) {
                Some(ReplyPayload::U64(epoch)) => epoch,
                None => r.epoch.load(Ordering::Relaxed),
                Some(other) => bad_payload("BumpEpoch", &other),
            },
        }
    }

    pub fn current_epoch(&self) -> u64 {
        match self {
            PartitionHandle::Local(s) => s.current_epoch(),
            // Exact under strict serialization: every epoch movement flows
            // through a reply this view already folded in.
            PartitionHandle::Remote(r) => r.epoch.load(Ordering::Relaxed),
        }
    }

    pub fn num_queries(&self) -> usize {
        match self {
            PartitionHandle::Local(s) => s.num_queries(),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::NumQueries) {
                Some(ReplyPayload::U64(n)) => n as usize,
                None => 0,
                Some(other) => bad_payload("NumQueries", &other),
            },
        }
    }

    pub fn query_ids(&self) -> Vec<QueryId> {
        match self {
            PartitionHandle::Local(s) => s.query_ids().collect(),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::QueryIds) {
                Some(ReplyPayload::Qids(qids)) => qids,
                None => Vec::new(),
                Some(other) => bad_payload("QueryIds", &other),
            },
        }
    }

    /// Borrowed result set — in-process handles only (the lockstep
    /// deployments every existing caller runs). `None` for remote
    /// handles; those callers use [`Self::query_result_owned`].
    pub fn query_result_ref(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        match self {
            PartitionHandle::Local(s) => s.query_result(qid),
            PartitionHandle::Remote(_) => None,
        }
    }

    /// Owned copy of a query's result set, local or remote.
    pub fn query_result_owned(&self, qid: QueryId) -> Option<Vec<ObjectId>> {
        match self {
            PartitionHandle::Local(s) => s.query_result(qid).map(|r| r.iter().copied().collect()),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::QueryResult(qid)) {
                Some(ReplyPayload::ResultSet(oids)) => oids,
                None => None,
                Some(other) => bad_payload("QueryResult", &other),
            },
        }
    }

    pub fn query_focal(&self, qid: QueryId) -> Option<ObjectId> {
        match self {
            PartitionHandle::Local(s) => s.query_focal(qid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::QueryFocal(qid)) {
                Some(ReplyPayload::OptOid(oid)) => oid,
                None => None,
                Some(other) => bad_payload("QueryFocal", &other),
            },
        }
    }

    pub fn focal_motion(&self, oid: ObjectId) -> Option<LinearMotion> {
        match self {
            PartitionHandle::Local(s) => s.focal_motion(oid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::FocalMotion(oid)) {
                Some(ReplyPayload::OptMotion(m)) => m,
                None => None,
                Some(other) => bad_payload("FocalMotion", &other),
            },
        }
    }

    pub fn focal_queries(&self, oid: ObjectId) -> Option<Vec<QueryId>> {
        match self {
            PartitionHandle::Local(s) => s.focal_queries(oid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::FocalQueries(oid)) {
                Some(ReplyPayload::OptQids(qids)) => qids,
                None => None,
                Some(other) => bad_payload("FocalQueries", &other),
            },
        }
    }

    pub fn query_cell(&self, qid: QueryId) -> Option<CellId> {
        match self {
            PartitionHandle::Local(s) => s.query_cell(qid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::QueryCell(qid)) {
                Some(ReplyPayload::OptCell(cell)) => cell,
                None => None,
                Some(other) => bad_payload("QueryCell", &other),
            },
        }
    }

    pub fn purge_object(&mut self, oid: ObjectId) -> Vec<QueryId> {
        match self {
            PartitionHandle::Local(s) => s.purge_object(oid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::PurgeObject(oid)) {
                Some(ReplyPayload::Qids(qids)) => qids,
                None => Vec::new(),
                Some(other) => bad_payload("PurgeObject", &other),
            },
        }
    }

    pub fn deliver_result_delta(
        &mut self,
        qid: QueryId,
        oid: ObjectId,
        entered: bool,
        net: &mut Net,
    ) {
        match self {
            PartitionHandle::Local(s) => s.deliver_result_delta(qid, oid, entered, net),
            PartitionHandle::Remote(r) => {
                r.call_net_void(PartitionOp::DeliverResultDelta { qid, oid, entered }, net);
            }
        }
    }

    pub fn lqt_reconcile_one(&mut self, qid: QueryId, oid: ObjectId, is_target: bool) -> bool {
        match self {
            PartitionHandle::Local(s) => s.lqt_reconcile_one(qid, oid, is_target),
            PartitionHandle::Remote(r) => {
                match r.call_quiet(PartitionOp::LqtReconcileOne {
                    qid,
                    oid,
                    is_target,
                }) {
                    Some(ReplyPayload::Bool(b)) => b,
                    None => false,
                    Some(other) => bad_payload("LqtReconcileOne", &other),
                }
            }
        }
    }

    pub fn focal_reassert(&mut self, oid: ObjectId, net: &mut Net) {
        match self {
            PartitionHandle::Local(s) => s.focal_reassert(oid, net),
            PartitionHandle::Remote(r) => {
                r.call_net_void(PartitionOp::FocalReassert(oid), net);
            }
        }
    }

    pub fn cell_sync_reply(&mut self, oid: ObjectId, cell: CellId, net: &mut Net) {
        match self {
            PartitionHandle::Local(s) => s.cell_sync_reply(oid, cell, net),
            PartitionHandle::Remote(r) => {
                r.call_net_void(PartitionOp::CellSyncReply { oid, cell }, net);
            }
        }
    }

    pub fn extract_focal(&mut self, oid: ObjectId) -> Option<ClusterMsg> {
        match self {
            PartitionHandle::Local(s) => s.extract_focal(oid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::ExtractFocal(oid)) {
                Some(ReplyPayload::OptCluster(msg)) => msg,
                None => None,
                Some(other) => bad_payload("ExtractFocal", &other),
            },
        }
    }

    pub fn take_outbox(&mut self) -> Vec<(u32, ClusterMsg)> {
        match self {
            PartitionHandle::Local(s) => s.take_outbox(),
            PartitionHandle::Remote(r) => std::mem::take(&mut *r.outbox.borrow_mut()),
        }
    }

    pub fn apply_cluster_msg(&mut self, msg: &ClusterMsg) {
        match self {
            PartitionHandle::Local(s) => s.apply_cluster_msg(msg),
            PartitionHandle::Remote(r) => {
                r.call_quiet_void(PartitionOp::Deliver(msg.clone()));
            }
        }
    }

    pub fn check_invariants(&self) {
        match self {
            PartitionHandle::Local(s) => s.check_invariants(),
            PartitionHandle::Remote(r) => {
                r.call_quiet_void(PartitionOp::CheckInvariants);
            }
        }
    }

    // --- rebalance / recovery surface ------------------------------------
    //
    // The fence's per-partition rounds (ownership sync, RQI export, focal
    // census, stub prune) are fan-outs like the read probes above, so each
    // op also has a pipelined start/finish pair: all partition processes
    // cut their state concurrently and the coordinator collects replies in
    // start order.

    /// Pipelined ownership-table sync: local handles share the
    /// coordinator's table and resolve immediately.
    pub fn start_install_bounds(&mut self, generation: u64, bounds: &[usize]) -> Probe<()> {
        match self {
            PartitionHandle::Local(_) => Probe::Ready(()),
            PartitionHandle::Remote(r) => {
                let bounds = bounds.iter().map(|&b| b as u64).collect();
                if r.send_classified(&PartitionOp::InstallBounds { generation, bounds }) {
                    Probe::Pending
                } else {
                    Probe::Dead
                }
            }
        }
    }

    pub fn start_export_cells(
        &mut self,
        flats: &[usize],
        generation: u64,
    ) -> Probe<Option<ClusterMsg>> {
        match self {
            PartitionHandle::Local(s) => Probe::Ready(s.export_cells(flats, generation)),
            PartitionHandle::Remote(r) => {
                let flats = flats.iter().map(|&f| f as u32).collect();
                if r.send_classified(&PartitionOp::ExportCells { flats, generation }) {
                    Probe::Pending
                } else {
                    Probe::Dead
                }
            }
        }
    }

    pub fn finish_export_cells(&self, probe: Probe<Option<ClusterMsg>>) -> Option<ClusterMsg> {
        self.finish(probe, "ExportCells", |p| match p {
            ReplyPayload::OptCluster(msg) => msg,
            other => bad_payload("ExportCells", &other),
        })
    }

    pub fn start_focal_ids(&self) -> Probe<Vec<ObjectId>> {
        self.start(PartitionOp::FocalIds, |s| s.focal_ids())
    }

    pub fn finish_focal_ids(&self, probe: Probe<Vec<ObjectId>>) -> Vec<ObjectId> {
        self.finish(probe, "FocalIds", |p| match p {
            ReplyPayload::Oids(oids) => oids,
            other => bad_payload("FocalIds", &other),
        })
    }

    pub fn start_focal_anchor_cell(&self, oid: ObjectId) -> Probe<Option<CellId>> {
        self.start(PartitionOp::FocalAnchorCell(oid), |s| {
            s.focal_anchor_cell(oid)
        })
    }

    pub fn finish_focal_anchor_cell(&self, probe: Probe<Option<CellId>>) -> Option<CellId> {
        self.finish(probe, "FocalAnchorCell", |p| match p {
            ReplyPayload::OptCell(cell) => cell,
            other => bad_payload("FocalAnchorCell", &other),
        })
    }

    pub fn start_extract_focal(&mut self, oid: ObjectId) -> Probe<Option<ClusterMsg>> {
        match self {
            PartitionHandle::Local(s) => Probe::Ready(s.extract_focal(oid)),
            PartitionHandle::Remote(r) => {
                if r.send_classified(&PartitionOp::ExtractFocal(oid)) {
                    Probe::Pending
                } else {
                    Probe::Dead
                }
            }
        }
    }

    pub fn finish_extract_focal(&self, probe: Probe<Option<ClusterMsg>>) -> Option<ClusterMsg> {
        self.finish(probe, "ExtractFocal", |p| match p {
            ReplyPayload::OptCluster(msg) => msg,
            other => bad_payload("ExtractFocal", &other),
        })
    }

    pub fn start_prune_stubs(&mut self) -> Probe<()> {
        match self {
            PartitionHandle::Local(s) => {
                s.prune_stubs();
                Probe::Ready(())
            }
            PartitionHandle::Remote(r) => {
                if r.send_classified(&PartitionOp::PruneStubs) {
                    Probe::Pending
                } else {
                    Probe::Dead
                }
            }
        }
    }

    /// Partition state weight `(focals, queries, stubs)` for rebalance
    /// telemetry. Zeroes on a dead peer.
    pub fn start_load_signal(&self) -> Probe<(u64, u64, u64)> {
        self.start(PartitionOp::LoadSignal, |s| {
            (
                s.focal_ids().len() as u64,
                s.num_queries() as u64,
                s.num_stubs() as u64,
            )
        })
    }

    pub fn finish_load_signal(&self, probe: Probe<(u64, u64, u64)>) -> (u64, u64, u64) {
        self.finish(probe, "LoadSignal", |p| match p {
            ReplyPayload::Load {
                focals,
                queries,
                stubs,
            } => (focals, queries, stubs),
            other => bad_payload("LoadSignal", &other),
        })
    }

    pub fn export_cells(&mut self, flats: &[usize], generation: u64) -> Option<ClusterMsg> {
        match self {
            PartitionHandle::Local(s) => s.export_cells(flats, generation),
            PartitionHandle::Remote(r) => {
                let flats = flats.iter().map(|&f| f as u32).collect();
                match r.call_quiet(PartitionOp::ExportCells { flats, generation }) {
                    Some(ReplyPayload::OptCluster(msg)) => msg,
                    None => None,
                    Some(other) => bad_payload("ExportCells", &other),
                }
            }
        }
    }

    pub fn prune_stubs(&mut self) {
        match self {
            PartitionHandle::Local(s) => s.prune_stubs(),
            PartitionHandle::Remote(r) => r.call_quiet_void(PartitionOp::PruneStubs),
        }
    }

    pub fn focal_ids(&self) -> Vec<ObjectId> {
        match self {
            PartitionHandle::Local(s) => s.focal_ids(),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::FocalIds) {
                Some(ReplyPayload::Oids(oids)) => oids,
                None => Vec::new(),
                Some(other) => bad_payload("FocalIds", &other),
            },
        }
    }

    pub fn focal_anchor_cell(&self, oid: ObjectId) -> Option<CellId> {
        match self {
            PartitionHandle::Local(s) => s.focal_anchor_cell(oid),
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::FocalAnchorCell(oid)) {
                Some(ReplyPayload::OptCell(cell)) => cell,
                None => None,
                Some(other) => bad_payload("FocalAnchorCell", &other),
            },
        }
    }

    /// Syncs a remote partition's ownership-table copy to the
    /// coordinator's exact bounds and generation after a fence. Local
    /// handles share the coordinator's table and need nothing.
    pub fn install_bounds(&mut self, generation: u64, bounds: &[usize]) {
        match self {
            PartitionHandle::Local(_) => {}
            PartitionHandle::Remote(r) => {
                let bounds = bounds.iter().map(|&b| b as u64).collect();
                r.call_quiet_void(PartitionOp::InstallBounds { generation, bounds });
            }
        }
    }

    // --- durable store surface --------------------------------------------

    /// Cuts a checkpoint into a remote partition's durable log, returning
    /// the log's next sequence number. `None` for local handles (the
    /// coordinator owns their stores directly), storeless deployments
    /// (the op replies 0, mapped to `None`) and dead peers.
    pub fn checkpoint_remote(&self) -> Option<u64> {
        match self {
            PartitionHandle::Local(_) => None,
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::Checkpoint) {
                Some(ReplyPayload::U64(0)) | None => None,
                Some(ReplyPayload::U64(seq)) => Some(seq),
                Some(other) => bad_payload("Checkpoint", &other),
            },
        }
    }

    /// Historical trajectory samples of `oid` in `[t0, t1]` from a remote
    /// partition's durable log; empty for local handles, storeless
    /// deployments and dead peers.
    pub fn trajectory_remote(&self, oid: ObjectId, t0: f64, t1: f64) -> Vec<LinearMotion> {
        match self {
            PartitionHandle::Local(_) => Vec::new(),
            PartitionHandle::Remote(r) => {
                match r.call_quiet(PartitionOp::Trajectory { oid, t0, t1 }) {
                    Some(ReplyPayload::Motions(motions)) => motions,
                    None => Vec::new(),
                    Some(other) => bad_payload("Trajectory", &other),
                }
            }
        }
    }

    // --- crash detection --------------------------------------------------

    /// The transport failure that killed this handle, if any. Local
    /// handles never die this way (in-process crashes are injected
    /// through the coordinator instead).
    pub fn crashed(&self) -> Option<TransportError> {
        match self {
            PartitionHandle::Local(_) => None,
            PartitionHandle::Remote(r) => r.crashed(),
        }
    }

    /// Installs (or clears) the per-RPC read deadline on a remote handle,
    /// so a hung partition process surfaces as a
    /// [`TransportError::Timeout`] instead of blocking the coordinator
    /// forever. No-op for local handles.
    pub fn set_rpc_deadline(&self, dur: Option<std::time::Duration>) {
        if let PartitionHandle::Remote(r) = self {
            r.set_rpc_deadline(dur);
        }
    }

    /// Swaps in a fresh in-process server, dropping the old one's entire
    /// state — the coordinator's crash-injection primitive (the lockstep
    /// analogue of `kill -9` on a partition process).
    pub fn replace_local(&mut self, fresh: Server) {
        *self
            .local_mut()
            .expect("crash injection replaces in-process servers only") = fresh;
    }

    /// Actively verifies the peer is alive with a trivial round trip
    /// (`CurrentEpoch`). A crashed or hung peer fails the call, which
    /// classifies the handle dead; the verdict is then readable via
    /// [`Self::crashed`]. Local handles are trivially alive.
    pub fn probe_alive(&self) -> bool {
        match self {
            PartitionHandle::Local(_) => true,
            PartitionHandle::Remote(r) => match r.call_quiet(PartitionOp::CurrentEpoch) {
                Some(ReplyPayload::U64(_)) => true,
                None => false,
                Some(other) => bad_payload("CurrentEpoch", &other),
            },
        }
    }
}
