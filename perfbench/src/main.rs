//! MobiEyes deployment benchmark.
//!
//! Runs one named workload against one deployment shape and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`:
//!
//! ```text
//! perfbench --workload <single-sparse|procs-rpc|lockstep-dense> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: the benchmark steps the next tick as
//! soon as the previous one returns. A tick is one `MobiEyesSim::step(false)`
//! (plus the workload's own `checkpoint_now()` on checkpoint ticks), so
//! ground-truth scoring stays outside the timer. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer breakdown of a traced deployment, plus the tracing overhead
//! against an untraced deployment measured in the same run. The line
//! before the result carries the host provenance. `README.md` next to
//! this file describes the workloads and metrics.
//!
//! The partition processes are the `mobieyes-serve` binary built next to
//! this one. The run's sockets and journals live under `.perfbench-tmp/`
//! in the working directory and are removed on every exit path.

mod procfs;
mod relay;

use mobieyes::core::{ObjectId, Propagation};
use mobieyes::net::Endpoint;
use mobieyes::sim::truth::result_error;
use mobieyes::sim::{ClusterClient, EngineKind, MobiEyesSim, SimConfig, TransportKind};
use mobieyes::telemetry::{MetricsSnapshot, Telemetry};
use procfs::{CpuTimes, RunDir, ServeChild};
use relay::{Relay, RpcStats};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Warm-up ticks before anything is measured; setup time includes them.
const WARMUP_TICKS: usize = 5;
/// Measured ticks at least, whatever `--seconds` says: the 90th
/// percentile then has ten ticks beyond it.
const MIN_TICKS: usize = 100;
/// Each of the two windows of a traced run measures at least this many.
const TRACE_MIN_TICKS: usize = 50;
/// Window tick after which the live results are kept for the
/// `lockstep-dense` twin: a fixed tick keeps the twin's cost the same at
/// any `--seconds`.
const CHECK_TICK: usize = 50;
/// Ticks a traced run samples against ground truth, between warm-up and
/// the timed window. A fixed count keeps `sim.result_error` a function of
/// the seed.
const ACCURACY_TICKS: usize = 20;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `lockstep-dense` checkpoints its journal every this many ticks. At
/// one tick in five the 90th-percentile tick was a checkpoint tick, whose
/// cost swings with host load, and `tick_p90_s` was too unsteady to bound
/// (README.md); at one in twenty it is an ordinary tick.
const CHECKPOINT_EVERY: usize = 20;
/// Partition processes of `procs-rpc`.
const PROCS: usize = 2;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Tick-engine worker threads of every workload. With two, a tick waits
/// for the slower of the host's two vCPUs, and hypervisor steal on either
/// made `single-sparse` too unsteady to bound (README.md).
const ENGINE_THREADS: usize = 1;

/// Op kinds reported one by one on `procs-rpc`; any other kind is folded
/// into `cluster.rpc.op.other`.
const REPORTED_OPS: &[&str] = &[
    "SetTime",
    "VelocityReport",
    "CellChangeFocal",
    "CellChangeFresh",
    "ExtractFocal",
    "ResultChange",
    "HasFocal",
    "HasQuery",
    "Deliver",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SingleSparse,
    ProcsRpc,
    LockstepDense,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "single-sparse" => Some(Workload::SingleSparse),
            "procs-rpc" => Some(Workload::ProcsRpc),
            "lockstep-dense" => Some(Workload::LockstepDense),
            _ => None,
        }
    }

    /// The simulated workload: Table 1 parameters at the Table 1 density
    /// of one object per 10 square miles. `store` turns the journal on.
    fn config(self, seed: u64, store: Option<PathBuf>) -> SimConfig {
        let (objects, queries) = match self {
            Workload::SingleSparse => (250_000, 1_000),
            Workload::ProcsRpc => (5_000, 500),
            Workload::LockstepDense => (50_000, 5_000),
        };
        let config = SimConfig {
            seed,
            warmup_ticks: WARMUP_TICKS,
            num_objects: objects,
            num_queries: queries,
            objects_changing_velocity: queries,
            area: objects as f64 * 10.0,
            threads: ENGINE_THREADS,
            // An empty path pins the journal off.
            store_dir: Some(store.unwrap_or_default()),
            ..SimConfig::default()
        }
        .with_engine(EngineKind::Soa)
        .with_transport(TransportKind::Lockstep);
        match self {
            Workload::SingleSparse => config.with_safe_period(true).with_partitions(1),
            // The remote deployment takes its partition count from its
            // connections; this one is for the in-process twin.
            Workload::ProcsRpc => config.with_partitions(PROCS),
            Workload::LockstepDense => config
                .with_propagation(Propagation::Lazy)
                .with_grouping(true)
                .with_partitions(2),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One deployment under test, with the processes and relay serving it.
struct Deployment {
    sim: MobiEyesSim,
    /// Partition processes, in partition order (empty in-process).
    children: Vec<ServeChild>,
    relay: Option<Relay>,
    store: Option<PathBuf>,
    ticks: usize,
    /// Duration of each `checkpoint_now()` since the last window began.
    checkpoint_s: Vec<f64>,
}

impl Deployment {
    fn tick(&mut self) {
        self.sim.step(false);
        self.ticks += 1;
        if self.store.is_some() && self.ticks.is_multiple_of(CHECKPOINT_EVERY) {
            let t = Instant::now();
            self.sim.checkpoint_now();
            self.checkpoint_s.push(t.elapsed().as_secs_f64());
        }
    }

    /// Shuts the partitions down and checks that they, and the relay,
    /// ended cleanly.
    fn close(self) -> Result<(), String> {
        let Deployment {
            mut sim,
            children,
            relay,
            store,
            ..
        } = self;
        sim.shutdown();
        drop(sim);
        for child in children {
            child.finish(Duration::from_secs(10))?;
        }
        if let Some(relay) = relay {
            relay.finish()?;
        }
        if let Some(dir) = store {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// Builds deployment `id` of this run and warms it up. Returns it with
/// its set-up time: workload generation, process spawn and hello, query
/// install and the warm-up ticks.
fn setup(
    w: Workload,
    seed: u64,
    dir: &RunDir,
    id: usize,
    traced: bool,
) -> Result<(Deployment, f64), String> {
    let start = Instant::now();
    let store = (w == Workload::LockstepDense).then(|| dir.join(&format!("store{id}")));
    let config = w.config(seed, store.clone());
    let mut children = Vec::new();
    let mut relay = None;
    let sim = if w == Workload::ProcsRpc {
        let serve_bin = serve_bin()?;
        for p in 0..PROCS {
            let sock = dir.join(&format!("s{id}p{p}.sock"));
            children.push(ServeChild::spawn(&serve_bin, p, &sock)?);
        }
        let mut endpoints: Vec<Endpoint> = children.iter().map(|c| c.endpoint.clone()).collect();
        if traced {
            let socks: Vec<PathBuf> = (0..PROCS)
                .map(|p| dir.join(&format!("r{id}p{p}.sock")))
                .collect();
            let r = Relay::start(&endpoints, &socks)?;
            endpoints = r.endpoints().to_vec();
            relay = Some(r);
        }
        let client =
            ClusterClient::connect(&endpoints, CONNECT_TIMEOUT).map_err(|e| e.to_string())?;
        client.into_sim(config, Telemetry::new())
    } else {
        MobiEyesSim::new(config)
    };
    let mut dep = Deployment {
        sim,
        children,
        relay,
        store,
        ticks: 0,
        checkpoint_s: Vec::new(),
    };
    for _ in 0..WARMUP_TICKS {
        dep.tick();
    }
    let setup_s = start.elapsed().as_secs_f64();
    dep.sim.telemetry().reset();
    Ok((dep, setup_s))
}

/// `mobieyes-serve`, built into the same directory as this binary.
fn serve_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let bin = exe.with_file_name("mobieyes-serve");
    if !bin.is_file() {
        return Err(format!("{} not built", bin.display()));
    }
    Ok(bin)
}

/// Runs `ACCURACY_TICKS` ticks and, when `sample` is set, returns the
/// mean `result_error` against ground truth sampled after each of them.
fn accuracy(dep: &mut Deployment, sample: bool) -> f64 {
    let qids = dep.sim.query_ids().to_vec();
    let (mut sum, mut samples) = (0.0, 0u64);
    for _ in 0..ACCURACY_TICKS {
        dep.tick();
        if !sample {
            continue;
        }
        let truth = dep.sim.ground_truth();
        for (t, &qid) in truth.iter().zip(&qids) {
            if let Some(reported) = dep.sim.query_result_owned(qid) {
                sum += result_error(t, &reported);
                samples += 1;
            }
        }
    }
    if samples == 0 {
        0.0
    } else {
        sum / samples as f64
    }
}

/// Cumulative counters of every layer, read between ticks.
struct Probe {
    snap: MetricsSnapshot,
    bus_msgs: u64,
    bus_bytes: u64,
    rpc: RpcStats,
    /// The coordinator process, less the relay's threads.
    coord: CpuTimes,
    coord_ctx: u64,
    /// Summed over partition processes.
    serve: CpuTimes,
    serve_ctx: u64,
}

fn probe(dep: &Deployment, clk: f64) -> Result<Probe, String> {
    let (bus_msgs, bus_bytes) = match dep.sim.bus_snapshot() {
        Some(_) => {
            let meter = dep.sim.cluster().bus_meter();
            (meter.total_msgs(), meter.total_bytes())
        }
        None => (0, 0),
    };
    let mut coord = procfs::cpu_times("self", clk)?;
    let mut rpc = RpcStats::default();
    if let Some(relay) = &dep.relay {
        rpc = relay.stats();
        for task in relay.tasks() {
            coord = coord.minus(&procfs::cpu_times(&task, clk)?);
        }
    }
    let (mut serve, mut serve_ctx) = (CpuTimes::default(), 0);
    for child in &dep.children {
        let pid = child.pid().to_string();
        let t = procfs::cpu_times(&pid, clk)?;
        serve.user_s += t.user_s;
        serve.sys_s += t.sys_s;
        serve_ctx += procfs::status(&pid)?.ctx_switches;
    }
    Ok(Probe {
        snap: dep.sim.telemetry().snapshot(),
        bus_msgs,
        bus_bytes,
        rpc,
        coord,
        coord_ctx: procfs::status("self")?.ctx_switches,
        serve,
        serve_ctx,
    })
}

fn radio_bytes(snap: &MetricsSnapshot) -> u64 {
    snap.counter("net.uplink.bytes")
        + snap.counter("net.unicast.bytes")
        + snap.counter("net.broadcast.bytes")
}

/// One timed window of ticks and the counters around it.
struct Window {
    tick_s: Vec<f64>,
    /// Radio bytes of the window's first `MIN_TICKS` ticks, and peak
    /// resident memory of the coordinator plus every partition (KiB) after
    /// them: read at a fixed tick, so neither depends on how many ticks
    /// fit in `--seconds`.
    radio_bytes: Option<u64>,
    peak_rss_kb: Option<u64>,
    /// The deployment's tick count and results after `CHECK_TICK` window
    /// ticks.
    early: Option<(usize, Results)>,
    before: Probe,
    after: Probe,
    checkpoint_s: Vec<f64>,
}

impl Window {
    fn n(&self) -> f64 {
        self.tick_s.len() as f64
    }

    fn counter(&self, key: &str) -> f64 {
        (self.after.snap.counter(key) - self.before.snap.counter(key)) as f64
    }

    /// Seconds per tick spent in a `TickProfiler` phase.
    fn phase_s(&self, name: &str) -> f64 {
        let nanos = |s: &MetricsSnapshot| {
            s.profiler
                .iter()
                .find(|p| p.phase == name)
                .map_or(0, |p| p.nanos)
        };
        (nanos(&self.after.snap) - nanos(&self.before.snap)) as f64 / 1e9 / self.n()
    }
}

/// Ticks the deployment for `seconds` and at least `min_ticks` ticks.
fn measure(
    dep: &mut Deployment,
    seconds: f64,
    min_ticks: usize,
    clk: f64,
) -> Result<Window, String> {
    dep.checkpoint_s.clear();
    let before = probe(dep, clk)?;
    let radio_start = radio_bytes(&before.snap);
    let (mut radio, mut peak_rss_kb, mut early) = (None, None, None);
    let mut tick_s = Vec::new();
    let start = Instant::now();
    while tick_s.len() < min_ticks || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        dep.tick();
        tick_s.push(t.elapsed().as_secs_f64());
        if tick_s.len() == CHECK_TICK {
            early = Some((dep.ticks, results(&dep.sim)));
        }
        if tick_s.len() == MIN_TICKS {
            radio = Some(radio_bytes(&dep.sim.telemetry().snapshot()) - radio_start);
            let mut kb = procfs::status("self")?.vm_hwm_kb;
            for child in &dep.children {
                kb += procfs::status(&child.pid().to_string())?.vm_hwm_kb;
            }
            peak_rss_kb = Some(kb);
        }
    }
    let after = probe(dep, clk)?;
    Ok(Window {
        tick_s,
        radio_bytes: radio,
        peak_rss_kb,
        early,
        before,
        after,
        checkpoint_s: std::mem::take(&mut dep.checkpoint_s),
    })
}

/// Every query's result set, in install order.
type Results = Vec<Option<BTreeSet<ObjectId>>>;

fn results(sim: &MobiEyesSim) -> Results {
    sim.query_ids()
        .iter()
        .map(|&q| sim.query_result_owned(q))
        .collect()
}

/// Indices of the queries whose result sets differ.
fn mismatches(a: &Results, b: &Results) -> BTreeSet<usize> {
    if a.len() != b.len() {
        return (0..a.len().max(b.len())).collect();
    }
    (0..a.len()).filter(|&q| a[q] != b[q]).collect()
}

/// The results of a fresh in-process deployment after `ticks` ticks.
fn twin_results(config: SimConfig, ticks: usize) -> Results {
    let mut twin = MobiEyesSim::new(config);
    for _ in 0..ticks {
        twin.step(false);
    }
    results(&twin)
}

/// Checks the deployment's results and returns the indices of the
/// queries that failed.
///
/// - `procs-rpc`: every final result set equals an in-process lock-step
///   twin's.
/// - `lockstep-dense`: every result set after `CHECK_TICK` window ticks
///   equals a single-server twin's, and at the end a cold replay of every
///   partition from its journal reproduces the live results and digest.
/// - `single-sparse`: no reference; only an aborted run fails.
fn verify(
    w: Workload,
    dep: &mut Deployment,
    window: &Window,
    seed: u64,
) -> Result<BTreeSet<usize>, String> {
    match w {
        Workload::SingleSparse => Ok(BTreeSet::new()),
        Workload::ProcsRpc => {
            let twin = twin_results(w.config(seed, None), dep.ticks);
            Ok(mismatches(&results(&dep.sim), &twin))
        }
        Workload::LockstepDense => {
            let (ticks, early) = window
                .early
                .as_ref()
                .ok_or("window shorter than CHECK_TICK")?;
            let twin = twin_results(w.config(seed, None).with_partitions(1), *ticks);
            let mut failed = mismatches(early, &twin);
            let live = results(&dep.sim);
            let digest = dep.sim.result_digest();
            let partitions = dep.sim.cluster().num_partitions() as u32;
            for p in 0..partitions {
                dep.sim.cluster_mut().rebuild_partition_from_log(p);
            }
            failed.extend(mismatches(&live, &results(&dep.sim)));
            if dep.sim.result_digest() != digest {
                eprintln!("perfbench: replayed digest differs from the live one");
                failed.extend(0..live.len());
            }
            Ok(failed)
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Metrics in report order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(
    w: &Window,
    setups: &[f64],
    queries: usize,
    failed: usize,
) -> Result<Metrics, String> {
    let cpu =
        w.after.coord.minus(&w.before.coord).total() + w.after.serve.minus(&w.before.serve).total();
    let short = "window shorter than MIN_TICKS";
    let radio = w.radio_bytes.ok_or(short)?;
    let peak_rss_kb = w.peak_rss_kb.ok_or(short)?;
    Ok(vec![
        ("tick_s".into(), median(&w.tick_s), "s"),
        ("tick_p90_s".into(), percentile(&w.tick_s, 0.9), "s"),
        ("setup_s".into(), median(setups), "s"),
        ("cpu_s_per_tick".into(), cpu / w.n(), "s"),
        ("peak_rss_mb".into(), peak_rss_kb as f64 / 1024.0, "MiB"),
        (
            "radio_bytes_per_tick".into(),
            radio as f64 / MIN_TICKS as f64,
            "B",
        ),
        (
            "match_frac".into(),
            (queries - failed) as f64 / queries as f64,
            "ratio",
        ),
    ])
}

/// Per-layer metrics of traced window `b`, with `a` the untraced window
/// of the same run and `error` the traced deployment's accuracy.
fn per_layer(wl: Workload, a: &Window, b: &Window, error: f64) -> Metrics {
    let n = b.n();
    let per = |x: f64| x / n;
    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let evaluated = b.counter("agent.evaluated");
    put("sim.mobility_s", b.phase_s("mobility"), "s/tick");
    put("sim.motion_s", b.phase_s("motion"), "s/tick");
    put("sim.process_s", b.phase_s("process"), "s/tick");
    put("sim.evals_per_tick", per(evaluated), "1/tick");
    put(
        "sim.uplinks_per_tick",
        per(b.counter("agent.uplinks_sent")),
        "1/tick",
    );
    let useful = if evaluated > 0.0 {
        b.counter("agent.result_changes") / evaluated
    } else {
        0.0
    };
    put("sim.eval_useful_ratio", useful, "ratio");
    put("sim.result_error", error, "ratio");
    put(
        "net.uplink_bytes_per_tick",
        per(b.counter("net.uplink.bytes")),
        "B/tick",
    );
    let downlink = b.counter("net.unicast.bytes") + b.counter("net.broadcast.bytes");
    put("net.downlink_bytes_per_tick", per(downlink), "B/tick");
    put("core.mediation_s", b.phase_s("mediation"), "s/tick");
    put("core.ingest_s", b.phase_s("ingest"), "s/tick");
    // Remote partitions keep their server counters in their own process
    // and export none; -1 marks the value as missing, not zero.
    let srv = |key: &str| {
        if wl == Workload::ProcsRpc {
            -1.0
        } else {
            per(b.counter(key))
        }
    };
    put(
        "core.uplinks_per_tick",
        srv("srv.uplinks_processed"),
        "1/tick",
    );
    put(
        "core.rqi_updates_per_tick",
        srv("srv.rqi_updates"),
        "1/tick",
    );
    put(
        "core.broadcasts_per_tick",
        srv("srv.broadcast_ops"),
        "1/tick",
    );
    put(
        "cluster.bus_msgs_per_tick",
        per((b.after.bus_msgs - b.before.bus_msgs) as f64),
        "1/tick",
    );
    put(
        "cluster.bus_bytes_per_tick",
        per((b.after.bus_bytes - b.before.bus_bytes) as f64),
        "B/tick",
    );
    let coord = b.after.coord.minus(&b.before.coord);
    put("cluster.coord.cpu_s", per(coord.total()), "s/tick");
    put("cluster.coord.sys_s", per(coord.sys_s), "s/tick");
    put(
        "cluster.coord.ctx_switches_per_tick",
        per((b.after.coord_ctx - b.before.coord_ctx) as f64),
        "1/tick",
    );
    let rpc = b.after.rpc.minus(&b.before.rpc);
    put(
        "cluster.rpc.calls_per_tick",
        per(rpc.calls as f64),
        "1/tick",
    );
    put(
        "cluster.rpc.round_trips_per_tick",
        per(rpc.round_trips as f64),
        "1/tick",
    );
    put(
        "cluster.rpc.req_bytes_per_tick",
        per(rpc.req_bytes as f64),
        "B/tick",
    );
    put(
        "cluster.rpc.reply_bytes_per_tick",
        per(rpc.reply_bytes as f64),
        "B/tick",
    );
    put("cluster.rpc.wait_s", per(rpc.wait_s), "s/tick");
    let (mut other_calls, mut other_wait) = (0.0, 0.0);
    for (op, s) in &rpc.ops {
        if !REPORTED_OPS.contains(&op.as_str()) {
            other_calls += s.calls as f64;
            other_wait += s.wait_s;
        }
    }
    for op in REPORTED_OPS {
        let s = rpc.ops.get(*op).copied().unwrap_or_default();
        put(
            &format!("cluster.rpc.op.{op}.calls_per_tick"),
            per(s.calls as f64),
            "1/tick",
        );
        put(
            &format!("cluster.rpc.op.{op}.wait_s"),
            per(s.wait_s),
            "s/tick",
        );
    }
    put(
        "cluster.rpc.op.other.calls_per_tick",
        per(other_calls),
        "1/tick",
    );
    put("cluster.rpc.op.other.wait_s", per(other_wait), "s/tick");
    let serve = b.after.serve.minus(&b.before.serve);
    put("cluster.serve.cpu_s", per(serve.total()), "s/tick");
    put("cluster.serve.sys_s", per(serve.sys_s), "s/tick");
    put(
        "cluster.serve.ctx_switches_per_tick",
        per((b.after.serve_ctx - b.before.serve_ctx) as f64),
        "1/tick",
    );
    put(
        "store.appends_per_tick",
        per(b.counter("store.appends")),
        "1/tick",
    );
    put(
        "store.bytes_per_tick",
        per(b.counter("store.bytes")),
        "B/tick",
    );
    put(
        "store.flushes_per_tick",
        per(b.counter("store.flushes")),
        "1/tick",
    );
    put("store.checkpoint_s", median(&b.checkpoint_s), "s");
    let traced = median(&b.tick_s);
    let layers: f64 = ["mobility", "motion", "process", "mediation", "ingest"]
        .iter()
        .map(|p| b.phase_s(p))
        .sum();
    put("trace.tick_s", traced, "s");
    put("trace.tick_mean_s", b.tick_s.iter().sum::<f64>() / n, "s");
    put("trace.layer_sum_s", layers, "s/tick");
    put("trace.untraced_tick_s", median(&a.tick_s), "s");
    put("trace.overhead_s", traced - median(&a.tick_s), "s");
    m
}

/// A finished run: what the result line reports.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    provenance: String,
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let clk = procfs::clk_tck();
    let host_before = procfs::host_cpu()?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dir = RunDir::create()?;
    if w == Workload::ProcsRpc {
        // One shared CPU for the coordinator and its partitions, so the
        // figure is the program's cost per RPC rather than cross-CPU
        // wake-up latency. Children inherit the affinity.
        let allowed = procfs::status("self")?.cpus_allowed;
        let cpu = procfs::last_cpu(&allowed).ok_or_else(|| format!("no CPU in {allowed:?}"))?;
        procfs::pin_self(cpu)?;
    }
    let queries = w.config(args.seed, None).num_queries;
    let (metrics, failed, ticks) = if args.trace {
        // Both windows start at the same tick, so their difference is
        // the tracing overhead.
        let (mut a, _) = setup(w, args.seed, &dir, 0, false)?;
        accuracy(&mut a, false);
        let wa = measure(&mut a, args.seconds / 2.0, TRACE_MIN_TICKS, clk)?;
        a.close()?;
        let (mut b, _) = setup(w, args.seed, &dir, 1, true)?;
        let error = accuracy(&mut b, true);
        let wb = measure(&mut b, args.seconds / 2.0, TRACE_MIN_TICKS, clk)?;
        let failed = verify(w, &mut b, &wb, args.seed)?;
        b.close()?;
        (per_layer(w, &wa, &wb, error), failed.len(), wb.tick_s.len())
    } else {
        let mut setups = Vec::new();
        for id in 0..SETUPS - 1 {
            let (d, s) = setup(w, args.seed, &dir, id, false)?;
            setups.push(s);
            d.close()?;
        }
        let (mut dep, s) = setup(w, args.seed, &dir, SETUPS - 1, false)?;
        setups.push(s);
        let win = measure(&mut dep, args.seconds, MIN_TICKS, clk)?;
        let failed = verify(w, &mut dep, &win, args.seed)?;
        dep.close()?;
        let metrics = end_to_end(&win, &setups, queries, failed.len())?;
        (metrics, failed.len(), win.tick_s.len())
    };
    let steal = procfs::steal_share(host_before, procfs::host_cpu()?);
    let (model, listed) = procfs::cpu_model();
    let pin_set = procfs::status("self")?.cpus_allowed;
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpus_listed\": {listed}, \"cpu_model\": \"{}\", \"engine_threads\": {}, \
         \"partition_processes\": {}, \"pin_set\": \"{}\", \"steal_share\": {steal}, \
         \"measured_ticks\": {ticks}, \"clk_tck\": {clk}}}}}",
        workload_name(w),
        args.seed,
        args.trace,
        json_escape(&model),
        ENGINE_THREADS,
        if w == Workload::ProcsRpc { PROCS } else { 0 },
        json_escape(&pin_set),
    );
    Ok(Report {
        attempted: queries,
        failed,
        metrics,
        provenance,
    })
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::SingleSparse => "single-sparse",
        Workload::ProcsRpc => "procs-rpc",
        Workload::LockstepDense => "lockstep-dense",
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let queries = args.workload.config(args.seed, None).num_queries;
    // Guards inside `run` kill partitions and remove sockets while a
    // panic unwinds; the panic then counts as an aborted run.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(&args)));
    let report = match outcome {
        Ok(Ok(r)) => r,
        failure => {
            match failure {
                Ok(Err(e)) => eprintln!("perfbench: aborted: {e}"),
                _ => eprintln!("perfbench: aborted by a panic"),
            }
            // An aborted run fails every query.
            println!("{}", result_line(false, queries, queries, &Vec::new()));
            std::process::exit(1);
        }
    };
    if let Some((name, v, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is {v}");
        std::process::exit(1);
    }
    let correct = report.failed == 0;
    println!("{}", report.provenance);
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, &report.metrics)
    );
    if !correct {
        eprintln!(
            "perfbench: {} of {} queries failed their check",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}
