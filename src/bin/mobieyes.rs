//! Command-line simulation driver: run any MobiEyes or baseline scenario
//! with Table 1 defaults and per-flag overrides, printing the full metric
//! set and optionally exporting the raw telemetry snapshot.
//!
//! ```console
//! $ mobieyes --objects 5000 --queries 500 --mode mobieyes-lqp --alpha 4
//! $ mobieyes --mode mobieyes-eqp --grouping --safe-period --ticks 60
//! $ mobieyes --mode naive            # centralized messaging baselines
//! $ mobieyes --mode object-index     # centralized engine baselines
//! $ mobieyes run --metrics-out results/run.json
//! $ mobieyes run --store-dir results/log --checkpoint-ticks 20
//! $ mobieyes trajectory --store-dir results/log --oid 7 --t0 0 --t1 600
//! ```

use mobieyes::prelude::*;
use mobieyes::sim::flags_help;

const USAGE: &str = "\
mobieyes — distributed moving-query simulation driver

USAGE:
    mobieyes [run] [OPTIONS]
    mobieyes trajectory --store-dir <P> --oid <N> [--t0 <S>] [--t1 <S>]

The `trajectory` subcommand answers a historical query offline: it scans
the durable logs a previous `run --store-dir` left behind (one `p<N>`
directory per partition), merges every motion sample object <N> reported
within simulated seconds [t0, t1], and prints them in time order. The
logs are read cold — no simulation runs and nothing is modified.

OPTIONS:
    --mode <M>                    mobieyes-eqp | mobieyes-lqp | naive |
                                  central-optimal | object-index | query-index
                                  (eqp / lqp are short aliases)
                                  [default: mobieyes-eqp]
    --metrics-out <P>             write the telemetry snapshot (phase timings,
                                  message counters, query lifecycle events) to
                                  P; .csv selects CSV, anything else JSON
    -h, --help                    print this help

SIMULATION OPTIONS:
";

fn help() -> String {
    format!("{USAGE}{}", flags_help(&SimConfig::default()))
}

struct Cli {
    approach: Approach,
    config: SimConfig,
    metrics_out: Option<String>,
}

fn parse_approach(name: &str) -> Result<Approach, String> {
    match name {
        "eqp" => Ok(Approach::MobiEyesEqp),
        "lqp" => Ok(Approach::MobiEyesLqp),
        other => other.parse(),
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut config = SimConfig::default();
    let mut approach = Approach::MobiEyesEqp;
    let mut metrics_out = None;
    let mut args = std::env::args().skip(1).peekable();
    // Accept an optional leading `run` subcommand (`mobieyes run ...`).
    if args.peek().map(String::as_str) == Some("run") {
        args.next();
    }
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--mode" => approach = parse_approach(&value("--mode")?)?,
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "-h" | "--help" => {
                print!("{}", help());
                std::process::exit(0);
            }
            flag => config
                .apply_flag(flag, &mut args)
                .map_err(|e| e.to_string())?,
        }
    }
    Ok(Cli {
        approach,
        config: config.validate().map_err(|e| e.to_string())?,
        metrics_out,
    })
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value: {s}"))
}

/// `mobieyes trajectory`: offline historical query over the durable logs
/// of a previous `run --store-dir`, no simulation involved.
fn run_trajectory(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut oid: Option<u32> = None;
    let mut t0 = 0.0f64;
    let mut t1 = f64::INFINITY;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--store-dir" => dir = Some(value("--store-dir")?),
            "--oid" => oid = Some(parse(&value("--oid")?)?),
            "--t0" => t0 = parse(&value("--t0")?)?,
            "--t1" => t1 = parse(&value("--t1")?)?,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let dir = std::path::PathBuf::from(dir.ok_or("trajectory requires --store-dir")?);
    let oid = ObjectId(oid.ok_or("trajectory requires --oid")?);
    // One `p<N>` log directory per partition; a single-server run writes
    // only `p0`. Merge whatever partitions the run left behind.
    let mut motions = Vec::new();
    let mut partitions = 0u32;
    loop {
        let sub = dir.join(format!("p{partitions}"));
        if !sub.is_dir() {
            break;
        }
        let part = mobieyes::store::read_trajectory(&sub, partitions, oid, t0, t1)
            .map_err(|e| format!("reading {}: {e}", sub.display()))?;
        motions.extend(part);
        partitions += 1;
    }
    if partitions == 0 {
        return Err(format!(
            "no partition logs (p0, p1, ...) under {}",
            dir.display()
        ));
    }
    mobieyes::store::sort_dedupe_motions(&mut motions);
    eprintln!(
        "trajectory of object {} over [{t0}, {}] s: {} samples from {partitions} partition log(s)",
        oid.0,
        if t1.is_finite() {
            format!("{t1}")
        } else {
            "inf".to_string()
        },
        motions.len()
    );
    println!("time_s\tpos_x\tpos_y\tvel_x\tvel_y");
    for m in &motions {
        println!(
            "{:.3}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            m.tm, m.pos.x, m.pos.y, m.vel.x, m.vel.y
        );
    }
    Ok(())
}

fn print_metrics(m: &RunMetrics) {
    println!("label:                        {}", m.label);
    println!("measured ticks:               {}", m.ticks);
    println!("simulated duration:           {:.0} s", m.duration_s);
    println!(
        "server load:                  {:.6} s/tick",
        m.server_seconds_per_tick
    );
    println!("messages/second:              {:.2}", m.msgs_per_second);
    println!(
        "  uplink:                     {:.2}",
        m.uplink_msgs_per_second
    );
    println!(
        "  downlink:                   {:.2}",
        m.downlink_msgs_per_second
    );
    println!(
        "bytes (up/down):              {} / {}",
        m.uplink_bytes, m.downlink_bytes
    );
    println!("avg LQT size:                 {:.3}", m.avg_lqt_size);
    println!(
        "avg evals/object/tick:        {:.3}",
        m.avg_evals_per_object_tick
    );
    println!(
        "avg safe-period skips:        {:.3}",
        m.avg_safe_period_skips
    );
    println!(
        "avg eval time:                {:.3} µs/object/tick",
        m.avg_eval_micros_per_object_tick
    );
    println!("avg result error:             {:.5}", m.avg_result_error);
    println!(
        "avg power:                    {:.3} mW/object",
        m.avg_power_mw
    );
}

fn export_snapshot(path: &str, snapshot: &MetricsSnapshot) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let body = if path.ends_with(".csv") {
        snapshot.to_csv()
    } else {
        snapshot.to_json()
    };
    std::fs::write(path, body)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("trajectory") {
        if let Err(e) = run_trajectory(std::env::args().skip(2)) {
            eprintln!("error: {e}\n(see mobieyes --help)");
            std::process::exit(2);
        }
        return;
    }
    let cli = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n(see mobieyes --help)");
            std::process::exit(2);
        }
    };
    let config = cli.config;
    eprintln!(
        "running {}: {} objects, {} queries, alpha={}, alen={}, {} ticks (+{} warmup)...",
        cli.approach.name(),
        config.num_objects,
        config.num_queries,
        config.alpha,
        config.alen,
        config.ticks,
        config.warmup_ticks
    );
    let start = std::time::Instant::now();
    let report = run_approach(config, cli.approach);
    print_metrics(&report.metrics);
    if let Some(path) = &cli.metrics_out {
        // Exported snapshots include the coordinator's private bus-sink
        // data (rec.* / rebal.* counters, recovery + rebalance events) so
        // skipped or aborted fences are diagnosable from --metrics-out.
        let mut snapshot = report.snapshot.clone();
        if let Some(bus) = &report.bus_snapshot {
            snapshot.absorb(bus);
        }
        match export_snapshot(path, &snapshot) {
            Ok(()) => eprintln!("wrote telemetry snapshot to {path}"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("(wall time {:.1} s)", start.elapsed().as_secs_f64());
}
