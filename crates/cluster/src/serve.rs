//! The partition-process service loop: one [`Server`] behind the
//! [`wire`](crate::wire) RPC protocol.
//!
//! A partition process accepts exactly one coordinator connection, then
//! executes strictly-serialized [`PartitionOp`]s until
//! [`Shutdown`](PartitionOp::Shutdown). Per request it:
//!
//! 1. raises its local epoch to the request's floor (`fetch_max`), so the
//!    distributed epoch behaves exactly like the shared atomic counter of
//!    the in-process deployment;
//! 2. executes the op against the `Server` and a *partition-local* agent
//!    network built from the same deterministic base-station layout the
//!    coordinator uses — so broadcast cover sets resolve identically;
//! 3. replies with the post-op epoch, the drained inter-server outbox,
//!    every downlink the op emitted (as [`NetAction`]s the coordinator
//!    replays onto the real network) and the op's return value.
//!
//! The service is deliberately synchronous and single-connection: the
//! coordinator's decomposition depends on one-op-at-a-time execution, and
//! the process model (one partition per process) is the unit of scaling.
//!
//! Step 2 goes through `execute`, the one interpreter for partition
//! ops: an in-process partition handle runs the same function, so local
//! and remote partitions cannot drift apart op by op.

use crate::partition::PartitionMap;
use crate::wire::{
    self, variant_name, InitConfig, NetAction, PartitionOp, PartitionReply, ReplyPayload,
};
use mobieyes_core::server::Net;
use mobieyes_core::{LogRecord, PartitionScope, ProtocolConfig, Server};
use mobieyes_net::{BaseStationLayout, FramedConn, Listener, TransportError};
use mobieyes_store::{self as store, Store, StoreConfig};
use mobieyes_telemetry::Telemetry;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The configured state of a running partition service.
struct ServiceState {
    server: Server,
    /// Partition-local downlink capture network; never delivers to an
    /// agent, only queues so the service can ship the actions back.
    net: Net,
    /// This process's shard of the distributed epoch.
    epoch: Arc<AtomicU64>,
    /// This process's copy of the cell-ownership table. Starts as the
    /// contiguous default and tracks the coordinator's table through
    /// [`PartitionOp::InstallBounds`] after rebalance/failover fences.
    map: PartitionMap,
    /// The partition's durable input journal, when the deployment runs
    /// with a `--store-dir`. Opened (and replayed) before the first op.
    store: Option<Store>,
}

impl ServiceState {
    fn build(init: &InitConfig) -> ServiceState {
        let grid = mobieyes_geo::Grid::new(init.universe, init.alpha);
        let mut config = ProtocolConfig::new(grid);
        config.delta = init.delta;
        config.propagation = init.propagation;
        config.grouping = init.grouping;
        config.safe_period = init.safe_period;
        config.deliver_results = init.deliver_results;
        config.system_max_speed = init.system_max_speed;
        config.lease_secs = init.lease_secs;
        config.heartbeat_secs = init.heartbeat_secs;
        let config = Arc::new(config);
        let map = PartitionMap::contiguous(&config.grid, init.num_partitions as usize);
        let epoch = Arc::new(AtomicU64::new(0));
        let telemetry = Telemetry::new();
        let mut server = Server::new(Arc::clone(&config))
            .with_telemetry(telemetry.clone())
            .with_scope(PartitionScope::new(
                init.partition,
                Arc::clone(map.table()),
                Arc::clone(&epoch),
            ));
        let mut net = Net::new(BaseStationLayout::new(init.universe, init.alen));
        let store = init.store_dir.as_ref().map(|dir| {
            let dir = Path::new(dir);
            if init.store_fresh {
                // Post-failover respawn: the survivors own this span's
                // state now; replaying the stale journal would fork it.
                store::wipe_dir(dir)
                    .unwrap_or_else(|e| panic!("wiping stale store {}: {e}", dir.display()));
            }
            let store = Store::open(StoreConfig::new(dir, init.partition), telemetry.clone())
                .unwrap_or_else(|e| panic!("opening store {}: {e}", dir.display()));
            // Crash recovery: rebuild FOT/SQT/RQI by replaying the journal
            // into the fresh server. The replay re-emits the historical
            // downlinks and bus envelopes; those were already delivered in
            // the previous life, so they are discarded — only state stays.
            let summary =
                store::replay_into(dir, init.partition, &mut server, &mut net, &telemetry)
                    .unwrap_or_else(|e| panic!("replaying store {}: {e}", dir.display()));
            if summary.records_applied > 0 {
                net.take_downlinks();
                server.take_outbox();
            }
            if store.next_seq() == 0 {
                store.append_record(&LogRecord::Meta {
                    partition: init.partition,
                    num_partitions: init.num_partitions,
                });
            }
            // Attach AFTER replay so replayed ops do not re-journal.
            server.set_journal(Some(Arc::new(store.clone())));
            store
        });
        ServiceState {
            server,
            net,
            epoch,
            map,
            store,
        }
    }

    /// Drains the downlinks the last op queued on the local network into
    /// replayable actions, preserving emission order within each kind.
    fn drain_net_actions(&mut self) -> Vec<NetAction> {
        let (unicasts, broadcasts) = self.net.take_downlinks();
        let mut actions = Vec::with_capacity(unicasts.len() + broadcasts.len());
        for (node, msg, _) in unicasts {
            actions.push(NetAction::Unicast {
                node: node.0,
                msg: (*msg).clone(),
            });
        }
        for (station, msg, _) in broadcasts {
            actions.push(NetAction::Broadcast {
                station: station.0,
                msg: (*msg).clone(),
            });
        }
        actions
    }

    /// Runs one op: the service-only ops that act on the ownership table
    /// or the durable log here, everything else through [`execute`].
    fn execute(&mut self, op: PartitionOp) -> ReplyPayload {
        match op {
            PartitionOp::InstallBounds { generation, bounds } => {
                // Ownership changes shape every later op; journal them so
                // a replay resolves cells against the same table history.
                if let Some(store) = &self.store {
                    store.append_record(&LogRecord::Bounds {
                        generation,
                        bounds: bounds.clone(),
                    });
                }
                let bounds: Vec<usize> = bounds.iter().map(|&b| b as usize).collect();
                self.map.table().install_at(&bounds, generation);
                ReplyPayload::Unit
            }
            PartitionOp::Checkpoint => ReplyPayload::U64(match &self.store {
                Some(store) => {
                    store.checkpoint(self.server.checkpoint_bytes());
                    store.next_seq()
                }
                None => 0,
            }),
            PartitionOp::Trajectory { oid, t0, t1 } => ReplyPayload::Motions(match &self.store {
                Some(store) => store.trajectory(oid, t0, t1).unwrap_or_default(),
                None => Vec::new(),
            }),
            op => execute(&mut self.server, &mut self.net, op),
        }
    }
}

/// Serves one coordinator connection until `Shutdown` or disconnect.
///
/// `conn` must already have completed the hello exchange. Returns `Ok(())`
/// on a clean shutdown, or the transport error that ended the session.
pub fn serve_connection(mut conn: FramedConn) -> Result<(), TransportError> {
    let mut state: Option<ServiceState> = None;
    // Persistent request/reply scratch: the service loop allocates nothing
    // per RPC in steady state.
    let mut request = Vec::new();
    let mut frame = Vec::new();
    loop {
        conn.read_frame_into(&mut request)?;
        let (floor, op) = wire::decode_request(&request)?;
        if let PartitionOp::Shutdown = op {
            let reply = PartitionReply {
                epoch: state
                    .as_ref()
                    .map_or(0, |s| s.epoch.load(Ordering::Relaxed)),
                outbox: Vec::new(),
                net: Vec::new(),
                payload: ReplyPayload::Unit,
            };
            frame.clear();
            wire::encode_reply(&reply, &mut frame);
            conn.write_frame(&frame)?;
            conn.flush()?;
            return Ok(());
        }
        if let PartitionOp::Init(init) = &op {
            state = Some(ServiceState::build(init));
            let reply = PartitionReply {
                epoch: 0,
                outbox: Vec::new(),
                net: Vec::new(),
                payload: ReplyPayload::Unit,
            };
            frame.clear();
            wire::encode_reply(&reply, &mut frame);
            conn.write_frame(&frame)?;
            conn.flush()?;
            continue;
        }
        let Some(s) = state.as_mut() else {
            return Err(TransportError::Protocol(format!("op before Init: {op:?}")));
        };
        s.epoch.fetch_max(floor, Ordering::Relaxed);
        let payload = s.execute(op);
        // Acknowledged implies journaled: push buffered frames to the OS
        // before the reply, so a SIGKILL never loses an op the
        // coordinator saw complete (a buffered write, not an fsync — the
        // page cache survives process death).
        if let Some(st) = &s.store {
            st.flush();
        }
        let reply = PartitionReply {
            epoch: s.epoch.load(Ordering::Relaxed),
            outbox: s.server.take_outbox(),
            net: s.drain_net_actions(),
            payload,
        };
        frame.clear();
        wire::encode_reply(&reply, &mut frame);
        conn.write_frame(&frame)?;
        conn.flush()?;
    }
}

/// The partition-op interpreter: the one place a [`PartitionOp`] turns
/// into [`Server`] calls. The service loop runs it behind the wire against
/// its capture network; an in-process [`PartitionHandle::Local`] runs it
/// directly, with downlinks landing on the coordinator's agent network.
/// Ops that emit no downlink fall through to [`execute_quiet`].
///
/// [`PartitionHandle::Local`]: crate::PartitionHandle::Local
pub(crate) fn execute(server: &mut Server, net: &mut Net, op: PartitionOp) -> ReplyPayload {
    // Ops with a return value reply from their arm; the rest fall out of
    // the match to the shared `Unit` reply.
    match op {
        PartitionOp::VelocityReport { oid, motion } => server.on_velocity_report(oid, motion, net),
        PartitionOp::CellChangeFocal {
            oid,
            new_cell,
            motion,
        } => server.apply_cell_change_focal(oid, new_cell, motion, net),
        PartitionOp::CellChangeFresh {
            oid,
            prev_cell,
            new_cell,
            motion,
        } => server.apply_cell_change_fresh(oid, prev_cell, new_cell, motion, net),
        PartitionOp::ResultChange {
            qid,
            oid,
            is_target,
        } => return ReplyPayload::Bool(server.apply_result_change(qid, oid, is_target, net)),
        PartitionOp::GroupResultUpdate {
            oid,
            focal,
            mask,
            targets,
        } => server.apply_group_result_update(oid, focal, mask, targets, net),
        PartitionOp::CompleteInstall {
            qid,
            focal,
            region,
            filter,
            expires_at,
        } => server.complete_install_at(qid, focal, region, filter, expires_at, net),
        PartitionOp::RemoveQuery(qid) => return ReplyPayload::Bool(server.remove_query(qid, net)),
        PartitionOp::DeliverResultDelta { qid, oid, entered } => {
            server.deliver_result_delta(qid, oid, entered, net)
        }
        PartitionOp::FocalReassert(oid) => server.focal_reassert(oid, net),
        PartitionOp::CellSyncReply { oid, cell } => server.cell_sync_reply(oid, cell, net),
        op => return execute_quiet(server, op),
    }
    ReplyPayload::Unit
}

/// The quiet half of [`execute`]: ops that change the partition but emit
/// no downlink. Read-only ops fall through to [`read`].
pub(crate) fn execute_quiet(server: &mut Server, op: PartitionOp) -> ReplyPayload {
    // Reply convention as in `execute`.
    match op {
        PartitionOp::SetTime(now) => server.set_time(now),
        PartitionOp::RenewLease(oid) => server.renew_lease(oid),
        PartitionOp::RefreshFocalMotion {
            oid,
            motion,
            max_vel,
            insert,
        } => server.refresh_focal_motion(oid, motion, max_vel, insert),
        PartitionOp::BumpEpoch => return ReplyPayload::U64(server.bump_epoch_for_coordinator()),
        PartitionOp::PurgeObject(oid) => return ReplyPayload::Qids(server.purge_object(oid)),
        PartitionOp::LqtReconcileOne {
            qid,
            oid,
            is_target,
        } => return ReplyPayload::Bool(server.lqt_reconcile_one(qid, oid, is_target)),
        PartitionOp::ExtractFocal(oid) => {
            return ReplyPayload::OptCluster(server.extract_focal(oid))
        }
        PartitionOp::Deliver(msg) => server.apply_cluster_msg(&msg),
        PartitionOp::ExportCells { flats, generation } => {
            let flats: Vec<usize> = flats.iter().map(|&f| f as usize).collect();
            return ReplyPayload::OptCluster(server.export_cells(&flats, generation));
        }
        PartitionOp::PruneStubs => server.prune_stubs(),
        op => return read(server, &op),
    }
    ReplyPayload::Unit
}

/// The read-only half of [`execute`]: ops answered from `&Server`, so a
/// coordinator can ask them through a shared borrow. The service-only ops
/// (`Init`, `Shutdown`, `InstallBounds`, `Checkpoint`, `Trajectory`) act
/// on the service's ownership table or durable log, which an in-process
/// server does not have: here they answer their neutral payload.
pub(crate) fn read(server: &Server, op: &PartitionOp) -> ReplyPayload {
    match *op {
        PartitionOp::ExpiredQueryIds(now) => ReplyPayload::Qids(server.expired_query_ids(now)),
        PartitionOp::ExpiredLeases => ReplyPayload::Leases(server.expired_leases()),
        PartitionOp::ReinstallInfo(qid) => ReplyPayload::Reinstall(server.reinstall_info(qid)),
        PartitionOp::DigestCells => ReplyPayload::Digests(server.digest_cells()),
        PartitionOp::CurrentEpoch => ReplyPayload::U64(server.current_epoch()),
        PartitionOp::NumQueries => ReplyPayload::U64(server.num_queries() as u64),
        PartitionOp::QueryIds => ReplyPayload::Qids(server.query_ids().collect()),
        PartitionOp::QueryResult(qid) => ReplyPayload::ResultSet(
            server
                .query_result(qid)
                .map(|r| r.iter().copied().collect()),
        ),
        PartitionOp::QueryFocal(qid) => ReplyPayload::OptOid(server.query_focal(qid)),
        PartitionOp::FocalMotion(oid) => ReplyPayload::OptMotion(server.focal_motion(oid)),
        PartitionOp::FocalQueries(oid) => ReplyPayload::OptQids(server.focal_queries(oid)),
        PartitionOp::QueryCell(qid) => ReplyPayload::OptCell(server.query_cell(qid)),
        PartitionOp::CheckInvariants => {
            server.check_invariants();
            ReplyPayload::Unit
        }
        PartitionOp::FocalIds => ReplyPayload::Oids(server.focal_ids()),
        PartitionOp::FocalAnchorCell(oid) => ReplyPayload::OptCell(server.focal_anchor_cell(oid)),
        PartitionOp::LoadSignal => ReplyPayload::Load {
            focals: server.focal_ids().len() as u64,
            queries: server.num_queries() as u64,
            stubs: server.num_stubs() as u64,
        },
        PartitionOp::Init(_)
        | PartitionOp::Shutdown
        | PartitionOp::InstallBounds { .. }
        | PartitionOp::Checkpoint
        | PartitionOp::Trajectory { .. } => op.fallback(),
        _ => unreachable!(
            "{} was started on the wrong path: ops that change the partition \
             need `start_mut`, ops that emit downlinks need `call`",
            variant_name(op)
        ),
    }
}

/// Accepts exactly one coordinator on `listener`, completes the hello
/// exchange (the partition announces its id, the coordinator its own node
/// id 0) and runs the service loop to completion. Connections that close
/// before their hello are skipped.
pub fn serve_partition(listener: Listener, partition: u32) -> Result<(), TransportError> {
    loop {
        let mut conn = FramedConn::new(listener.accept()?);
        match conn
            .send_hello(partition)
            .and_then(|()| conn.expect_hello())
        {
            Ok(_coordinator) => return serve_connection(conn),
            // A peer gone before its hello is not a coordinator — e.g.
            // another `Listener::bind` probing whether this path is live.
            Err(e) if e.is_peer_death() => continue,
            Err(e) => return Err(e),
        }
    }
}
