//! The partitioned tier's headline invariant: for any seed and fault
//! plan, an N-partition deployment produces byte-identical per-tick query
//! results, result-change uplink counts and protocol telemetry to the
//! single-server deployment — at any thread count of the tick engine,
//! with or without periodic load-driven partition-map rebalancing.
//!
//! The reference run is `partitions = 1` (literally the existing
//! single-server code path); each cluster run is stepped tick by tick
//! against the reference's captured per-tick result sets, then the final
//! protocol snapshots are compared with
//! [`MetricsSnapshot::protocol_eq`](mobieyes_telemetry::MetricsSnapshot::protocol_eq).

use mobieyes_core::server::srv_keys;
use mobieyes_core::{ObjectId, Propagation};
use mobieyes_net::meter::keys as net_keys;
use mobieyes_net::{FaultPlan, PartitionCrashPlan};
use mobieyes_sim::{ClusterSim, MobiEyesSim, RecoveryKind, SimConfig};
use mobieyes_telemetry::MetricsSnapshot;
use std::collections::BTreeSet;

/// Ticks stepped in every run (warm-up is part of the comparison: the
/// handshake traffic must match too).
const TICKS: usize = 12;

fn base_config(seed: u64, propagation: Propagation, chaos: bool) -> SimConfig {
    let mut c = SimConfig::small_test(seed).with_propagation(propagation);
    if chaos {
        c = SimConfig {
            seed: c.seed,
            num_objects: c.num_objects,
            num_queries: c.num_queries,
            objects_changing_velocity: c.objects_changing_velocity,
            area: c.area,
            uplink_drop: 0.12,
            downlink_drop: 0.08,
            dup_rate: 0.05,
            churn_rate: 0.10,
            ..SimConfig::default()
        }
        .with_propagation(propagation)
        .with_lease_ticks(4)
        .validate()
        .expect("valid chaos config");
    }
    c
}

struct Trace {
    /// `results[tick][query]` — every query's result set after each tick.
    results: Vec<Vec<BTreeSet<ObjectId>>>,
    snapshot: MetricsSnapshot,
    /// Final partition-map generation (0 for single-server runs and for
    /// cluster runs that never rebalanced).
    map_generation: u64,
}

fn run_traced(config: SimConfig) -> Trace {
    let partitions = config.partitions;
    let mut sim = MobiEyesSim::new(config);
    let mut results = Vec::with_capacity(TICKS);
    for _ in 0..TICKS {
        sim.step(true);
        results.push(
            sim.query_ids()
                .iter()
                .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
                .collect(),
        );
    }
    let map_generation = if partitions > 1 {
        sim.cluster().map_generation()
    } else {
        0
    };
    Trace {
        results,
        snapshot: sim.telemetry().snapshot(),
        map_generation,
    }
}

fn assert_equivalent(seed: u64, propagation: Propagation, chaos: bool) {
    let reference = run_traced(base_config(seed, propagation, chaos));
    assert!(
        reference.snapshot.counter(srv_keys::RESULT_UPDATES) > 0,
        "reference run must exercise result reporting (seed {seed})"
    );
    // (partitions, threads, rebalance cadence). The rebalancing rows prove
    // the headline invariant of the load balancer: recomputing the
    // partition map mid-run from observed load must not change a single
    // result byte or protocol counter.
    let matrix = [
        (2usize, 1usize, 0usize),
        (2, 4, 0),
        (4, 1, 0),
        (4, 4, 0),
        (2, 1, 3),
        (4, 4, 3),
    ];
    for (partitions, threads, rebalance) in matrix {
        let config = base_config(seed, propagation, chaos)
            .with_partitions(partitions)
            .with_threads(threads)
            .with_rebalance_ticks(rebalance);
        let run = run_traced(config);
        for (tick, (a, b)) in reference.results.iter().zip(&run.results).enumerate() {
            assert_eq!(
                a, b,
                "per-tick results diverged: seed {seed} {propagation:?} chaos={chaos} \
                 partitions={partitions} threads={threads} rebalance={rebalance} tick {tick}"
            );
        }
        assert_eq!(
            reference.snapshot.counter(srv_keys::RESULT_UPDATES),
            run.snapshot.counter(srv_keys::RESULT_UPDATES),
            "result-change uplink count diverged: seed {seed} partitions={partitions} \
             rebalance={rebalance}"
        );
        assert!(
            reference.snapshot.protocol_eq(&run.snapshot),
            "protocol telemetry diverged: seed {seed} {propagation:?} chaos={chaos} \
             partitions={partitions} threads={threads} rebalance={rebalance}"
        );
        if rebalance > 0 {
            assert!(
                run.map_generation > 0,
                "rebalance cadence never installed a new map generation: seed {seed} \
                 partitions={partitions} rebalance={rebalance}"
            );
        }
    }
}

#[test]
fn eqp_fault_free_matches_single_server() {
    for seed in [61, 62] {
        assert_equivalent(seed, Propagation::Eager, false);
    }
}

#[test]
fn lqp_fault_free_matches_single_server() {
    for seed in [63, 64] {
        assert_equivalent(seed, Propagation::Lazy, false);
    }
}

#[test]
fn eqp_chaos_matches_single_server() {
    for seed in [65, 66] {
        assert_equivalent(seed, Propagation::Eager, true);
    }
}

#[test]
fn lqp_chaos_matches_single_server() {
    for seed in [67, 68] {
        assert_equivalent(seed, Propagation::Lazy, true);
    }
}

// --- partition crash recovery (DESIGN.md §13) ---

/// Lease duration for the crash runs; heartbeats fire every 3 ticks.
const LEASE_TICKS: usize = 6;
/// The §13 convergence contract: after the last fence, with mobility
/// frozen, every result set is exact within three leases plus the
/// digest-beacon round trip.
const MAX_RECOVERY: usize = 3 * LEASE_TICKS + 2;
/// Tick boundary at which the crash plan fires (after the warm-up
/// handshake has settled and some measured ticks have run).
const CRASH_TICK: u64 = 8;
/// Ticks stepped after the crash before the convergence phase, so the
/// run exercises recovery under live mobility first.
const POST_CRASH_TICKS: usize = 4;

fn crash_config(seed: u64, propagation: Propagation, partitions: usize) -> SimConfig {
    SimConfig::small_test(seed)
        .with_propagation(propagation)
        .with_lease_ticks(LEASE_TICKS)
        .with_partitions(partitions)
}

struct CrashTrace {
    /// Per-tick results for the live (pre-freeze) phase.
    results: Vec<Vec<BTreeSet<ObjectId>>>,
    /// Ticks of frozen mobility needed to reach exact ground truth.
    converged_after: usize,
    digest: u64,
}

fn collect_results(sim: &MobiEyesSim) -> Vec<BTreeSet<ObjectId>> {
    sim.query_ids()
        .iter()
        .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
        .collect()
}

fn matches_truth(sim: &MobiEyesSim, truth: &[BTreeSet<ObjectId>]) -> bool {
    sim.query_ids()
        .iter()
        .zip(truth)
        .all(|(&q, t)| sim.query_result(q).map(|r| r == t).unwrap_or(t.is_empty()))
}

/// Runs a deployment through a deterministic partition crash and the
/// configured recovery mode, asserting the §13 contract: the dead
/// partitions are fenced, their cells reassigned, and — once mobility is
/// frozen — every result set reconverges *exactly* to ground truth
/// within [`MAX_RECOVERY`] ticks.
fn run_crash_traced(
    config: SimConfig,
    kills: usize,
    recovery: RecoveryKind,
    threads: usize,
) -> CrashTrace {
    let partitions = config.partitions;
    let seed = config.seed;
    let plan = PartitionCrashPlan::seeded(seed, partitions as u32, kills, CRASH_TICK);
    let victims = plan.victims.clone();
    let mut sim = MobiEyesSim::new(config.with_threads(threads));
    sim.set_crash_plan(plan);
    sim.set_recovery(recovery);
    let mut results = Vec::new();
    for _ in 0..CRASH_TICK as usize + POST_CRASH_TICKS {
        sim.step(false);
        results.push(collect_results(&sim));
    }
    match recovery {
        RecoveryKind::Failover => {
            assert_eq!(
                sim.cluster().dead_partitions(),
                victims,
                "victims must stay fenced off under failover (seed {seed})"
            );
        }
        RecoveryKind::Respawn => {
            assert!(
                sim.cluster().dead_partitions().is_empty(),
                "respawn must bring every victim back (seed {seed})"
            );
        }
    }
    assert!(
        sim.cluster().map_generation() > 0,
        "the failover fence must install a new map generation (seed {seed})"
    );
    // Freeze mobility and measure convergence to exact ground truth.
    sim.freeze(true);
    let truth = sim.ground_truth();
    let mut converged_after = None;
    for extra in 0..=MAX_RECOVERY {
        if matches_truth(&sim, &truth) {
            converged_after = Some(extra);
            break;
        }
        sim.step(false);
    }
    let converged_after = converged_after.unwrap_or_else(|| {
        panic!(
            "results did not reconverge to ground truth within {MAX_RECOVERY} frozen ticks: \
             seed {seed} partitions={partitions} kills={kills} recovery={recovery}"
        )
    });
    CrashTrace {
        results,
        converged_after,
        digest: sim.result_digest(),
    }
}

fn assert_crash_recovery(propagation: Propagation, recovery: RecoveryKind) {
    // (seed, partitions, kills): one of 2, one of 4, two of 8.
    for (seed, partitions, kills) in [(71u64, 2usize, 1usize), (72, 4, 1), (73, 8, 2)] {
        let trace = run_crash_traced(
            crash_config(seed, propagation, partitions),
            kills,
            recovery,
            1,
        );
        assert!(
            trace.converged_after <= MAX_RECOVERY,
            "convergence bound violated: {} > {MAX_RECOVERY}",
            trace.converged_after
        );
        // The tick engine's headline invariant survives the crash path:
        // the same scenario is byte-identical at four worker threads.
        let threaded = run_crash_traced(
            crash_config(seed, propagation, partitions),
            kills,
            recovery,
            4,
        );
        assert_eq!(
            trace.results, threaded.results,
            "per-tick results diverged across thread counts: seed {seed} \
             partitions={partitions} kills={kills} recovery={recovery}"
        );
        assert_eq!(
            trace.digest, threaded.digest,
            "post-recovery digest diverged across thread counts: seed {seed}"
        );
        assert_eq!(trace.converged_after, threaded.converged_after);
    }
}

#[test]
fn eqp_failover_reconverges_exactly() {
    assert_crash_recovery(Propagation::Eager, RecoveryKind::Failover);
}

#[test]
fn lqp_failover_reconverges_exactly() {
    assert_crash_recovery(Propagation::Lazy, RecoveryKind::Failover);
}

#[test]
fn eqp_respawn_reconverges_exactly() {
    assert_crash_recovery(Propagation::Eager, RecoveryKind::Respawn);
}

#[test]
fn lqp_respawn_reconverges_exactly() {
    assert_crash_recovery(Propagation::Lazy, RecoveryKind::Respawn);
}

/// Regression: a query lost with a crashed partition is re-installed at a
/// new home with a freshly computed monitoring region, and every
/// partition that monitored its pre-crash region — including the new
/// home itself — must retire the old RQI coverage. A dense grid with a
/// moving focal makes the regions differ; the stale rows then either
/// skew the heartbeat digests or, once the stub is pruned during
/// re-adoption, panic the digest beacon outright.
#[test]
fn reinstalled_query_retires_stale_rqi_coverage() {
    for recovery in [RecoveryKind::Failover, RecoveryKind::Respawn] {
        let mut config = SimConfig::small_test(0x4D6F_6269_4579_6573)
            .with_objects(400)
            .with_queries(40)
            .with_nmo(40)
            .with_lease_ticks(LEASE_TICKS)
            .with_partitions(4)
            .with_partition_crash_ticks(5)
            .with_recovery(recovery);
        config.area = 4000.0;
        config.ticks = 12;
        config.warmup_ticks = 2;
        let mut sim = MobiEyesSim::new(config);
        for _ in 0..14 {
            sim.step(false);
            sim.cluster().check_invariants();
        }
        sim.shutdown();
    }
}

// --- faulty inter-partition bus ---

/// A faulty server↔server bus drops and duplicates handoff traffic. A
/// duplicated `MigrateFocal` applies idempotently; a dropped one leaves
/// the focal's rows homeless on both partitions until the coordinator
/// re-installs its queries through the pending pipeline. The
/// coordinator's home directory must follow every outcome exactly, so the
/// structural check (directory included) runs after every tick. Once the
/// bus heals and mobility freezes, the repair must re-home every query.
///
/// Result sets are not compared with ground truth here: a dropped
/// `StubUpdate` that should have created a stub leaves that partition's
/// cells uncovered until the query's region moves again, and with
/// mobility frozen it never does.
#[test]
fn faulty_bus_keeps_the_home_directory_exact_and_rehomes_lost_queries() {
    for seed in 1..=6u64 {
        let propagation = if seed % 2 == 0 {
            Propagation::Lazy
        } else {
            Propagation::Eager
        };
        let config = SimConfig::small_test(seed)
            .with_propagation(propagation)
            .with_lease_ticks(LEASE_TICKS);
        let mut cluster = ClusterSim::new(config, 4);
        cluster.set_bus_fault(FaultPlan::new(0.2, 0.2, seed));
        for _ in 0..36 {
            cluster.step(false);
            cluster.cluster().expect("4 partitions").check_invariants();
        }
        let faults = cluster
            .cluster()
            .expect("4 partitions")
            .bus_telemetry()
            .snapshot();
        assert!(
            faults.counter(net_keys::FAULT_UPLINK_DROPPED) > 0
                && faults.counter(net_keys::FAULT_UPLINK_DUPLICATED) > 0,
            "the fault plan must both drop and duplicate handoff traffic (seed {seed})"
        );
        cluster.set_bus_fault(FaultPlan::none());
        let sim = cluster.sim_mut();
        sim.freeze(true);
        let rehomed = (0..=MAX_RECOVERY).any(|_| {
            let c = sim.cluster();
            if sim.query_ids().iter().all(|&q| c.query_focal(q).is_some()) {
                return true;
            }
            sim.step(false);
            sim.cluster().check_invariants();
            false
        });
        assert!(
            rehomed,
            "queries still homeless {MAX_RECOVERY} frozen ticks after the bus healed (seed {seed})"
        );
    }
}
