//! Multi-process MobiEyes: partition services and a coordinator driver.
//!
//! `mobieyes-serve partition` hosts one grid partition behind the framed
//! RPC protocol on a TCP or Unix-domain endpoint; it prints `READY
//! <endpoint>` (with `port 0` resolved) once listening, then serves one
//! coordinator until `Shutdown`. Exit code 0 means a clean `Shutdown`;
//! exit code 2 means the transport died underneath the service (peer
//! vanished, poisoned listener) — the supervisor treats that as a crash.
//!
//! `mobieyes-serve drive` spawns one partition process per shard, runs
//! the standard simulation workload against them from this process, and
//! cross-checks the final result digest against an in-process lock-step
//! run of the identical configuration — the self-contained smoke test
//! `scripts/check.sh` calls. With a partition crash tick configured it
//! additionally plays supervisor: at the scheduled tick it `SIGKILL`s the
//! victim partition processes, lets the coordinator detect the deaths and
//! run the failover fence, and — under respawn recovery — restarts
//! each victim on a fresh endpoint and hands the re-connected socket back
//! to the coordinator for the re-adoption fence (DESIGN.md §13). The
//! lock-step reference runs the *same* crash plan in-process, so the
//! final digests must still match exactly. Every partition process is
//! killed and reaped, and its socket removed, on every exit path.

use mobieyes::cluster::serve_partition;
use mobieyes::net::{Endpoint, Listener};
use mobieyes::prelude::*;
use mobieyes::sim::{connect_partition, flags_help, PartitionProcess};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Duration;

/// How long the coordinator retries a freshly spawned service's socket.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

const HELP: &str = "\
mobieyes-serve: run MobiEyes partitions as separate OS processes

USAGE:
    mobieyes-serve partition --partition <N> --listen <endpoint>
    mobieyes-serve drive [options]

ENDPOINTS:
    tcp:host:port    TCP (port 0 = OS-assigned, resolved in READY line)
    uds:/path.sock   Unix-domain socket

PARTITION:
    Hosts one grid partition. Prints `READY <endpoint>` when listening,
    serves exactly one coordinator connection, exits after Shutdown.
    Exits 0 on clean Shutdown, 2 when the transport dies underneath it.

DRIVE:
    Spawns one partition process per partition, runs the workload
    against them and checks the final result digest against the same
    configuration on the in-process lock-step bus. The transport must be
    tcp or uds. With a store directory P, the live partitions journal
    under P/live and the lock-step reference under P/reference (both
    wiped at start). A crash tick must fall within the measured ticks.

DRIVE OPTIONS:
    --mode <eqp|lqp>              propagation mode [default: eqp]
    --json <path>                 write the outcome as JSON
    -h, --help                    print this help

SIMULATION OPTIONS:
";

/// The configuration `drive` starts from before its flags apply.
fn drive_base() -> SimConfig {
    SimConfig {
        ticks: 50,
        partitions: 2,
        transport: Some(TransportKind::Uds),
        ..SimConfig::small_test(7)
    }
}

fn help() -> String {
    format!("{HELP}{}", flags_help(&drive_base()))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("unparseable value: {s}"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let code = match args.next().as_deref() {
        Some("partition") => run_partition(args),
        Some("drive") => run_drive(args),
        Some("-h") | Some("--help") | None => {
            print!("{}", help());
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown subcommand {other:?} (see mobieyes-serve --help)"
        )),
    };
    if let Err(e) = code {
        eprintln!("mobieyes-serve: {e}");
        std::process::exit(1);
    }
}

fn run_partition(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut partition: Option<u32> = None;
    let mut listen: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--partition" => partition = Some(parse(&value("--partition")?)?),
            "--listen" => listen = Some(value("--listen")?),
            other => return Err(format!("unknown partition flag {other:?}")),
        }
    }
    let partition = partition.ok_or("--partition is required")?;
    let listen = listen.ok_or("--listen is required")?;
    let endpoint = Endpoint::parse(&listen).map_err(|e| e.to_string())?;
    let listener = Listener::bind(&endpoint).map_err(|e| e.to_string())?;
    let bound = listener.local_endpoint().map_err(|e| e.to_string())?;
    println!("READY {bound}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // A transport death is not a usage error: exit 2 so a supervisor can
    // tell "the coordinator vanished" apart from "bad arguments".
    if let Err(e) = serve_partition(listener, partition) {
        eprintln!("mobieyes-serve: partition {partition}: {e}");
        std::process::exit(2);
    }
    Ok(())
}

/// Spawns partition `p`'s service process. `incarnation` keeps
/// respawned Unix-socket paths apart from their SIGKILLed predecessors'.
fn spawn_service(
    exe: &std::path::Path,
    transport: TransportKind,
    p: usize,
    incarnation: u64,
) -> Result<PartitionProcess, String> {
    let listen = match transport {
        TransportKind::Uds => format!(
            "uds:{}",
            std::env::temp_dir()
                .join(format!(
                    "mobieyes-serve-{}-{p}-{incarnation}.sock",
                    std::process::id()
                ))
                .display()
        ),
        _ => "tcp:127.0.0.1:0".to_string(),
    };
    PartitionProcess::spawn(exe, p as u32, &listen)
}

fn run_drive(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut config = drive_base();
    let mut json_out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                let mode = args.next().ok_or("missing value for --mode")?;
                config.propagation = match mode.as_str() {
                    "eqp" => Propagation::Eager,
                    "lqp" => Propagation::Lazy,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--json" => json_out = Some(args.next().ok_or("missing value for --json")?),
            "-h" | "--help" => {
                print!("{}", help());
                return Ok(());
            }
            flag => config
                .apply_flag(flag, &mut args)
                .map_err(|e| e.to_string())?,
        }
    }
    let mut config = config.validate().map_err(|e| e.to_string())?;
    let transport = config.resolved_transport();
    if transport == TransportKind::Lockstep {
        return Err("drive needs a socket transport: tcp or uds".into());
    }
    let (partitions, crash_tick) = (config.partitions, config.partition_crash_ticks);
    if crash_tick >= config.ticks {
        return Err(format!(
            "crash tick {crash_tick} never fires within {} measured ticks",
            config.ticks
        ));
    }

    // The live deployment and the lock-step reference run the same
    // configuration in the same process, so they journal to separate
    // subtrees of the store root — the reference would otherwise replay
    // the live run's journal. Without a root both run unjournaled.
    let store_root = config.store_root().map(std::path::Path::to_path_buf);
    let (live_store, reference_store) = match &store_root {
        Some(root) => {
            let (live, reference) = (root.join("live"), root.join("reference"));
            for dir in [&live, &reference] {
                if let Err(e) = std::fs::remove_dir_all(dir) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(format!("wiping {}: {e}", dir.display()));
                    }
                }
            }
            (live, reference)
        }
        None => (std::path::PathBuf::new(), std::path::PathBuf::new()),
    };
    config = config.with_store_dir(live_store);

    // Spawn one partition process per shard and collect their endpoints.
    // The supervisor hooks below take and refill slots, so the services
    // live behind a shared, optional-per-slot vector; whatever is still
    // in it when the vector drops is killed and reaped.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let children: Rc<RefCell<Vec<Option<PartitionProcess>>>> = Rc::new(RefCell::new(Vec::new()));
    let mut endpoints: Vec<Endpoint> = Vec::with_capacity(partitions);
    for p in 0..partitions {
        let service = spawn_service(&exe, transport, p, 0)?;
        endpoints.push(service.endpoint().clone());
        children.borrow_mut().push(Some(service));
    }

    // Run the workload against the live processes...
    let client = ClusterClient::connect(&endpoints, CONNECT_TIMEOUT).map_err(|e| e.to_string())?;
    let mut sim = client.into_sim(config.clone(), Telemetry::new());
    if crash_tick > 0 {
        // Kill hook: SIGKILL the victim and reap it, so its sockets are
        // provably closed before the coordinator's liveness probe runs.
        let kill_slots = Rc::clone(&children);
        sim.set_crash_hook(move |p| {
            if let Some(service) = kill_slots.borrow_mut()[p as usize].take() {
                let _ = service.kill();
            }
        });
        if config.recovery == RecoveryKind::Respawn {
            // Respawn hook: restart the victim on a fresh endpoint,
            // redo the hello exchange, and hand the connection back for
            // the re-adoption fence. `None` retries at the next tick.
            let respawn_slots = Rc::clone(&children);
            let respawn_exe = exe.clone();
            let incarnation = RefCell::new(0u64);
            sim.set_respawn_hook(move |p| {
                *incarnation.borrow_mut() += 1;
                let seq = *incarnation.borrow();
                let service = match spawn_service(&respawn_exe, transport, p as usize, seq) {
                    Ok(service) => service,
                    Err(e) => {
                        eprintln!("mobieyes-serve: respawning partition {p}: {e}");
                        return None;
                    }
                };
                match connect_partition(service.endpoint(), p, CONNECT_TIMEOUT) {
                    Ok(conn) => {
                        respawn_slots.borrow_mut()[p as usize] = Some(service);
                        Some(conn)
                    }
                    Err(e) => {
                        eprintln!("mobieyes-serve: reconnecting partition {p}: {e}");
                        None
                    }
                }
            });
        }
    }
    let metrics = sim.run();
    let digest = sim.result_digest();
    // Crash-recovery and rebalance counters live on the cluster's private
    // bus sink (kept out of the protocol snapshot the equivalence tests
    // compare).
    let snapshot = sim.cluster().bus_telemetry().snapshot();
    let map_generation = sim.cluster().map_generation();
    sim.shutdown();
    drop(sim);
    // Surviving children (and respawned victims) saw `Shutdown` and must
    // exit cleanly; failover victims were reaped by the kill hook and
    // their slots hold `None`.
    for (p, slot) in children.borrow_mut().iter_mut().enumerate() {
        if let Some(service) = slot.take() {
            let status = service
                .wait()
                .map_err(|e| format!("waiting for partition {p}: {e}"))?;
            if !status.success() {
                return Err(format!("partition {p} exited with {status}"));
            }
        }
    }

    // ...and the identical configuration on the in-process lock-step bus:
    // same seed, same crash plan, same recovery mode, so the final
    // digests must agree byte-for-byte even across a mid-run crash.
    let reference_config = config
        .clone()
        .with_transport(TransportKind::Lockstep)
        .with_store_dir(reference_store);
    let mut reference = MobiEyesSim::new(reference_config);
    reference.run();
    let reference_digest = reference.result_digest();

    let matched = digest == reference_digest;
    let crash_detections = snapshot.counter(mobieyes::telemetry::rec_keys::CRASH_DETECTIONS);
    let fences = snapshot.counter(mobieyes::telemetry::rec_keys::FENCES);
    let queries_replayed = snapshot.counter(mobieyes::telemetry::rec_keys::QUERIES_REPLAYED);
    let rebalance_installs = snapshot.counter(mobieyes::telemetry::rebal_keys::INSTALLS);
    let rebalance_skips = snapshot.counter(mobieyes::telemetry::rebal_keys::SKIPPED);
    let rebalance_aborts = snapshot.counter(mobieyes::telemetry::rebal_keys::ABORTS);
    let json = format!(
        concat!(
            "{{\n",
            "  \"transport\": \"{}\",\n",
            "  \"partitions\": {},\n",
            "  \"mode\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"ticks\": {},\n",
            "  \"crash_tick\": {},\n",
            "  \"kills\": {},\n",
            "  \"recovery\": \"{}\",\n",
            "  \"crash_detections\": {},\n",
            "  \"fences\": {},\n",
            "  \"store\": {},\n",
            "  \"queries_replayed\": {},\n",
            "  \"rebalance_ticks\": {},\n",
            "  \"map_generation\": {},\n",
            "  \"rebalance_installs\": {},\n",
            "  \"rebalance_skips\": {},\n",
            "  \"rebalance_aborts\": {},\n",
            "  \"digest\": \"{:016x}\",\n",
            "  \"reference_digest\": \"{:016x}\",\n",
            "  \"digests_match\": {},\n",
            "  \"msgs_per_second\": {},\n",
            "  \"avg_result_error\": {}\n",
            "}}\n"
        ),
        transport,
        partitions,
        if config.propagation == Propagation::Lazy {
            "lqp"
        } else {
            "eqp"
        },
        config.seed,
        config.ticks,
        crash_tick,
        if crash_tick > 0 {
            config.partition_crash_kills
        } else {
            0
        },
        config.recovery,
        crash_detections,
        fences,
        store_root.is_some(),
        queries_replayed,
        config.rebalance_ticks,
        map_generation,
        rebalance_installs,
        rebalance_skips,
        rebalance_aborts,
        digest,
        reference_digest,
        matched,
        metrics.msgs_per_second,
        metrics.avg_result_error,
    );
    print!("{json}");
    if let Some(path) = json_out {
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if !matched {
        return Err(format!(
            "result digest diverged: live {digest:016x} vs lock-step {reference_digest:016x}"
        ));
    }
    Ok(())
}
