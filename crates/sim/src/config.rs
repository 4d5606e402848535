//! Simulation parameters (Table 1 of the paper) and the one flag table
//! every command-line driver parses them from.

use crate::mobility::MobilityKind;
use mobieyes_core::Propagation;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Backend for the cluster tier's inter-server bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Deterministic in-memory lock-step bus (the default; byte-identical
    /// to the single server at any partition count).
    #[default]
    Lockstep,
    /// Loopback TCP socket: every bus frame crosses the kernel with real
    /// length-prefixed framing.
    Tcp,
    /// Loopback Unix-domain socket; same framing as TCP.
    Uds,
}

impl FromStr for TransportKind {
    type Err = String;

    /// Parses `"lockstep"`, `"tcp"` or `"uds"` (case-insensitive).
    fn from_str(s: &str) -> Result<TransportKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "lockstep" => Ok(TransportKind::Lockstep),
            "tcp" => Ok(TransportKind::Tcp),
            "uds" | "unix" => Ok(TransportKind::Uds),
            other => Err(format!(
                "unknown transport {other:?} (expected lockstep, tcp or uds)"
            )),
        }
    }
}

impl TransportKind {
    /// The backend name (`"lockstep"`, `"tcp"`, `"uds"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::Lockstep => "lockstep",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How the cluster tier brings a crashed partition's cells back into
/// service (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryKind {
    /// Reassign the dead partition's cells to the surviving neighbors
    /// under an epoch fence; the process stays dead (the default).
    #[default]
    Failover,
    /// Fail over first, then restart the partition and hand its original
    /// cell span back under a second fence.
    Respawn,
}

impl FromStr for RecoveryKind {
    type Err = String;

    /// Parses `"failover"` or `"respawn"` (case-insensitive).
    fn from_str(s: &str) -> Result<RecoveryKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "failover" => Ok(RecoveryKind::Failover),
            "respawn" => Ok(RecoveryKind::Respawn),
            other => Err(format!(
                "unknown recovery mode {other:?} (expected failover or respawn)"
            )),
        }
    }
}

impl RecoveryKind {
    /// The mode name (`"failover"`, `"respawn"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryKind::Failover => "failover",
            RecoveryKind::Respawn => "respawn",
        }
    }
}

impl std::fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tick-engine variant driving the agent side of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Struct-of-arrays fast path (the default): cold agents — empty LQT,
    /// not focal, cell unchanged, nothing to deliver — are skipped from
    /// per-agent flag/cell/deadline vectors without touching their heap
    /// state. Protocol-identical to the seed engine (only wall-clock
    /// samples differ); falls back to the seed path per step whenever
    /// faults or churn are active.
    #[default]
    Soa,
    /// The original engine: every agent's motion and processing hooks run
    /// every tick.
    Seed,
}

impl FromStr for EngineKind {
    type Err = String;

    /// Parses `"soa"` or `"seed"` (case-insensitive).
    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "soa" => Ok(EngineKind::Soa),
            "seed" => Ok(EngineKind::Seed),
            other => Err(format!("unknown engine {other:?} (expected soa or seed)")),
        }
    }
}

impl EngineKind {
    /// The engine name (`"soa"`, `"seed"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Soa => "soa",
            EngineKind::Seed => "seed",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rejected simulation configuration: which knob (flag or environment
/// variable), what value, and what the validator expected instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Environment override for [`SimConfig::threads`] when it is 0 (auto).
const THREADS_ENV: &str = "MOBIEYES_THREADS";
/// Environment override for [`SimConfig::transport`] when it is unset.
const TRANSPORT_ENV: &str = "MOBIEYES_TRANSPORT";

/// Reads an environment override: unset or empty is `None`; a value that
/// does not parse is an error naming the variable and the value.
fn env_knob<T: FromStr>(var: &str) -> Result<Option<T>, ConfigError>
where
    T::Err: std::fmt::Display,
{
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(ConfigError(format!("{var}={v:?}: not valid unicode")))
        }
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) => v
            .parse()
            .map(Some)
            .map_err(|e| ConfigError(format!("{var}={v:?}: {e}"))),
    }
}

/// All knobs of a simulation run. `Default` reproduces Table 1's default
/// column; the figure harnesses sweep individual fields. Build one with
/// struct-update syntax or the `with_*` setters, then
/// [`validate`](Self::validate) it; the command-line drivers set fields
/// one flag table with [`apply_flag`](Self::apply_flag).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every run with the same seed and parameters produces
    /// bit-identical traces and metrics.
    pub seed: u64,
    /// Time step `ts` in seconds (Table 1: 30 s).
    pub time_step: f64,
    /// Number of simulated time steps measured (after warm-up).
    pub ticks: usize,
    /// Warm-up steps excluded from metrics (query installation settles).
    pub warmup_ticks: usize,
    /// Grid cell side length α in miles (Table 1: 5, range 0.5–16).
    pub alpha: f64,
    /// Number of moving objects (Table 1: 10 000).
    pub num_objects: usize,
    /// Number of moving queries (Table 1: 1 000).
    pub num_queries: usize,
    /// Objects changing velocity vector per time step (Table 1: 1 000).
    pub objects_changing_velocity: usize,
    /// Area of the (square) universe of discourse in square miles
    /// (Table 1: 100 000).
    pub area: f64,
    /// Base station side length in miles (Table 1: 10, range 5–80).
    pub alen: f64,
    /// Query radius means in miles, zipf-ordered (Table 1: {3,2,1,4,5}).
    pub radius_means: Vec<f64>,
    /// Zipf parameter for radius means and speed classes (paper: 0.8).
    pub zipf_param: f64,
    /// Multiplier applied to every query radius (Figure 12's radius
    /// factor; 1.0 elsewhere).
    pub radius_factor: f64,
    /// Query filter selectivity (Table 1: 0.75).
    pub selectivity: f64,
    /// Object maximum speed classes in miles/hour, zipf-ordered
    /// (Table 1: {100, 50, 150, 200, 250}).
    pub speed_classes_mph: Vec<f64>,
    /// Dead-reckoning threshold Δ in miles (see DESIGN.md: chosen so every
    /// simulated velocity reset triggers a report on the next step).
    pub delta: f64,
    /// MobiEyes propagation mode.
    pub propagation: Propagation,
    /// MobiEyes query grouping optimization.
    pub grouping: bool,
    /// MobiEyes safe-period optimization.
    pub safe_period: bool,
    /// Trajectory generator (paper's velocity-reset model by default).
    pub mobility: MobilityKind,
    /// When set, query focal objects are drawn uniformly from the first
    /// `k` objects only, skewing the query-per-focal distribution (used by
    /// the grouping experiments; `None` = uniform over all objects, the
    /// paper's default).
    pub focal_pool: Option<usize>,
    /// Worker threads for the parallel tick engine. `0` (the default)
    /// means auto: the `MOBIEYES_THREADS` environment variable if set,
    /// otherwise the machine's available parallelism. Results are
    /// byte-identical at every thread count (see
    /// [`resolved_threads`](Self::resolved_threads)).
    pub threads: usize,
    /// Probability that an uplink message is dropped ([0, 1]; 0 = off).
    pub uplink_drop: f64,
    /// Probability that a downlink message is dropped ([0, 1]; 0 = off).
    pub downlink_drop: f64,
    /// Probability that a delivered message (either direction) is
    /// duplicated ([0, 1]; 0 = off).
    pub dup_rate: f64,
    /// Fraction of objects that experience one offline window during the
    /// faulty phase of the run ([0, 1]; 0 = no churn).
    pub churn_rate: f64,
    /// Focal-object lease duration in ticks; 0 disables the
    /// fault-tolerance layer (leases, heartbeats, soft-state refresh).
    /// Heartbeats fire every `max(1, lease_ticks / 2)` ticks.
    pub lease_ticks: usize,
    /// Server partitions for the grid-sharded cluster tier (default 1,
    /// the plain single-server path). Results are byte-identical at every
    /// partition count.
    pub partitions: usize,
    /// Rebalance cadence for the cluster tier: recompute the partition
    /// map from observed load every `n` ticks (0, the default, = off).
    /// Ignored on the single-server path. Rebalancing never changes query
    /// results — only the load split.
    pub rebalance_ticks: usize,
    /// Inter-server bus backend for the cluster tier. `None` (the
    /// default) means auto: the `MOBIEYES_TRANSPORT` environment variable
    /// if set, otherwise lock-step. Ignored on the single-server path;
    /// results are identical on every backend (see
    /// [`resolved_transport`](Self::resolved_transport)).
    pub transport: Option<TransportKind>,
    /// Agent tick-engine variant. Results are protocol-identical on
    /// either engine.
    pub engine: EngineKind,
    /// Measured tick at which the crash-injection plan kills partitions
    /// (once per run; 0, the default, = off). Victims are drawn
    /// deterministically from the seed; partition 0 (the epoch anchor) is
    /// never chosen. Requires the cluster tier.
    pub partition_crash_ticks: usize,
    /// Partitions killed at the crash tick (default 1). Must leave at
    /// least one partition alive.
    pub partition_crash_kills: usize,
    /// Recovery mode for crashed partitions.
    pub recovery: RecoveryKind,
    /// Root directory of the durable trajectory logs (`<dir>/p<N>` per
    /// partition). `None` or an empty path (the default) means no
    /// persistence (see [`store_root`](Self::store_root)). Existing logs
    /// under the directory are replayed into the server tier at build —
    /// point a fresh run at a fresh directory.
    pub store_dir: Option<PathBuf>,
    /// Checkpoint cadence in ticks for the durable logs (snapshot +
    /// segment GC; this is what bounds log growth). 0 (the default) = no
    /// periodic checkpoints.
    pub store_checkpoint_ticks: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x4D6F6269_45796573, // "MobiEyes"
            time_step: 30.0,
            ticks: 40,
            warmup_ticks: 5,
            alpha: 5.0,
            num_objects: 10_000,
            num_queries: 1_000,
            objects_changing_velocity: 1_000,
            area: 100_000.0,
            alen: 10.0,
            radius_means: vec![3.0, 2.0, 1.0, 4.0, 5.0],
            zipf_param: 0.8,
            radius_factor: 1.0,
            selectivity: 0.75,
            speed_classes_mph: vec![100.0, 50.0, 150.0, 200.0, 250.0],
            delta: 0.2,
            propagation: Propagation::Eager,
            grouping: false,
            safe_period: false,
            mobility: MobilityKind::default(),
            focal_pool: None,
            threads: 0,
            uplink_drop: 0.0,
            downlink_drop: 0.0,
            dup_rate: 0.0,
            churn_rate: 0.0,
            lease_ticks: 0,
            partitions: 1,
            rebalance_ticks: 0,
            transport: None,
            engine: EngineKind::Soa,
            partition_crash_ticks: 0,
            partition_crash_kills: 1,
            recovery: RecoveryKind::Failover,
            store_dir: None,
            store_checkpoint_ticks: 0,
        }
    }
}

impl SimConfig {
    /// Side length of the square universe of discourse, miles.
    pub fn side(&self) -> f64 {
        self.area.sqrt()
    }

    /// A small configuration for tests: few objects, small area, fast.
    pub fn small_test(seed: u64) -> Self {
        SimConfig {
            seed,
            ticks: 15,
            warmup_ticks: 3,
            num_objects: 300,
            num_queries: 30,
            objects_changing_velocity: 30,
            area: 10_000.0, // 100 x 100 miles
            ..SimConfig::default()
        }
    }

    /// Builder-style helpers for parameter sweeps.
    pub fn with_queries(mut self, n: usize) -> Self {
        self.num_queries = n;
        self
    }

    pub fn with_objects(mut self, n: usize) -> Self {
        self.num_objects = n;
        self
    }

    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    pub fn with_alen(mut self, alen: f64) -> Self {
        self.alen = alen;
        self
    }

    pub fn with_nmo(mut self, nmo: usize) -> Self {
        self.objects_changing_velocity = nmo;
        self
    }

    pub fn with_propagation(mut self, p: Propagation) -> Self {
        self.propagation = p;
        self
    }

    pub fn with_grouping(mut self, on: bool) -> Self {
        self.grouping = on;
        self
    }

    pub fn with_safe_period(mut self, on: bool) -> Self {
        self.safe_period = on;
        self
    }

    pub fn with_radius_factor(mut self, f: f64) -> Self {
        self.radius_factor = f;
        self
    }

    pub fn with_focal_pool(mut self, k: usize) -> Self {
        self.focal_pool = Some(k);
        self
    }

    pub fn with_mobility(mut self, kind: MobilityKind) -> Self {
        self.mobility = kind;
        self
    }

    pub fn with_lease_ticks(mut self, n: usize) -> Self {
        self.lease_ticks = n;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    pub fn with_rebalance_ticks(mut self, n: usize) -> Self {
        self.rebalance_ticks = n;
        self
    }

    pub fn with_transport(mut self, t: TransportKind) -> Self {
        self.transport = Some(t);
        self
    }

    pub fn with_engine(mut self, e: EngineKind) -> Self {
        self.engine = e;
        self
    }

    pub fn with_partition_crash_ticks(mut self, tick: usize) -> Self {
        self.partition_crash_ticks = tick;
        self
    }

    pub fn with_partition_crash_kills(mut self, kills: usize) -> Self {
        self.partition_crash_kills = kills;
        self
    }

    pub fn with_recovery(mut self, r: RecoveryKind) -> Self {
        self.recovery = r;
        self
    }

    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    pub fn with_store_checkpoint_ticks(mut self, n: usize) -> Self {
        self.store_checkpoint_ticks = n;
        self
    }

    /// Resolves the effective worker-thread count: an explicit
    /// `threads > 0` wins; otherwise a positive `MOBIEYES_THREADS`
    /// environment variable; otherwise the machine's available
    /// parallelism. Always at least 1.
    ///
    /// # Panics
    /// When `MOBIEYES_THREADS` does not parse ([`validate`](Self::validate)
    /// reports the same error without panicking).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        env_knob::<usize>(THREADS_ENV)
            .unwrap_or_else(|e| panic!("{e}"))
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    }

    /// Resolves the effective bus backend: an explicit `transport` wins;
    /// otherwise the `MOBIEYES_TRANSPORT` environment variable; otherwise
    /// lock-step.
    ///
    /// # Panics
    /// When `MOBIEYES_TRANSPORT` does not parse ([`validate`](Self::validate)
    /// reports the same error without panicking).
    pub fn resolved_transport(&self) -> TransportKind {
        match self.transport {
            Some(t) => t,
            None => env_knob(TRANSPORT_ENV)
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or_default(),
        }
    }

    /// The durable-log root, or `None` when persistence is off (`store_dir`
    /// unset or empty — an empty path lets a driver pin the journal off
    /// explicitly).
    pub fn store_root(&self) -> Option<&Path> {
        self.store_dir
            .as_deref()
            .filter(|d| !d.as_os_str().is_empty())
    }

    /// Number of grid cells the run's universe decomposes into, matching
    /// `Grid::new(universe, alpha)` for the square universe the workload
    /// builds (`ceil(side/alpha)²`).
    pub fn grid_cells(&self) -> usize {
        let cols = (self.side() / self.alpha).ceil() as usize;
        cols * cols
    }

    /// Total measured duration in seconds.
    pub fn measured_seconds(&self) -> f64 {
        self.ticks as f64 * self.time_step
    }

    /// Rejects configurations the simulator cannot meaningfully run —
    /// non-positive α, zero objects, out-of-range probabilities, more
    /// partitions than grid cells, a crash plan without a survivor — and
    /// environment overrides that do not parse. Messages name the flag
    /// (or variable) that set the bad value.
    pub fn validate(self) -> Result<SimConfig, ConfigError> {
        // Written to reject NaN along with non-positive values.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        let err = |msg: String| Err(ConfigError(msg));
        let c = self;
        for (flag, v) in [
            ("--alpha", c.alpha),
            ("--radius-factor", c.radius_factor),
            ("time_step", c.time_step),
            ("--area", c.area),
            ("--alen", c.alen),
            ("--delta", c.delta),
        ] {
            if !positive(v) {
                return err(format!("{flag} must be > 0 (got {v})"));
            }
        }
        for (flag, v) in [
            ("selectivity", c.selectivity),
            ("--uplink-drop", c.uplink_drop),
            ("--downlink-drop", c.downlink_drop),
            ("--dup-rate", c.dup_rate),
            ("--churn-rate", c.churn_rate),
        ] {
            // `!(..).contains()` also rejects NaN.
            if !(0.0..=1.0).contains(&v) {
                return err(format!("{flag} must be within [0, 1] (got {v})"));
            }
        }
        for (flag, n) in [
            ("--objects", c.num_objects),
            ("--ticks", c.ticks),
            ("--partitions", c.partitions),
        ] {
            if n == 0 {
                return err(format!("{flag} must be > 0"));
            }
        }
        if c.radius_means.is_empty() || c.speed_classes_mph.is_empty() {
            return err("radius_means and speed_classes_mph must be non-empty".to_string());
        }
        if c.focal_pool == Some(0) {
            return err("--focal-pool must be > 0 when set".to_string());
        }
        // The cluster tier needs at least one grid cell per partition;
        // catching this here turns a `PartitionMap::contiguous` panic
        // deep inside the run into a clear configuration error.
        let cells = c.grid_cells();
        if c.partitions > cells {
            return err(format!(
                "--partitions ({}) exceeds the grid's cell count ({cells}); \
                 shrink --partitions, lower --alpha, or grow --area",
                c.partitions
            ));
        }
        // Crash injection needs a survivor to fail over to.
        if c.partition_crash_ticks > 0 {
            if c.partitions < 2 {
                return err(format!(
                    "--partition-crash-ticks requires at least 2 partitions (got {})",
                    c.partitions
                ));
            }
            if c.partition_crash_kills == 0 || c.partition_crash_kills >= c.partitions {
                return err(format!(
                    "--partition-crash-kills must be between 1 and {} for {} partitions (got {})",
                    c.partitions - 1,
                    c.partitions,
                    c.partition_crash_kills
                ));
            }
        }
        if c.threads == 0 {
            env_knob::<usize>(THREADS_ENV)?;
        }
        if c.transport.is_none() {
            env_knob::<TransportKind>(TRANSPORT_ENV)?;
        }
        Ok(c)
    }

    /// Applies one command-line flag from the flag table, taking its value (if
    /// it has one) from `args`. An unknown flag, a missing value or one
    /// that does not parse is an error naming the flag; range checks are
    /// [`validate`](Self::validate)'s.
    pub fn apply_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<(), ConfigError> {
        let entry = FLAGS
            .iter()
            .find(|f| f.name == flag)
            .ok_or_else(|| ConfigError(format!("unknown flag {flag}")))?;
        let value = match entry.value {
            "" => String::new(),
            name => args
                .next()
                .ok_or_else(|| ConfigError(format!("{flag} needs a value <{name}>")))?,
        };
        (entry.set)(self, &value).map_err(|e| ConfigError(format!("{flag} {value:?}: {e}")))
    }
}

/// One command-line knob of [`SimConfig`]: the flag, the name of its
/// value (empty for a switch), a help line, and the field it reads and
/// writes.
struct Flag {
    name: &'static str,
    value: &'static str,
    help: &'static str,
    /// Renders the field's current value (empty when unset).
    get: fn(&SimConfig) -> String,
    /// Parses a value into the field (switches receive an empty string).
    set: fn(&mut SimConfig, &str) -> Result<(), String>,
}

fn parse<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// A valued flag over a field whose type is `FromStr + Display`.
macro_rules! knob {
    ($name:literal, $value:literal, $field:ident, $help:literal) => {
        Flag {
            name: $name,
            value: $value,
            help: $help,
            get: |c| c.$field.to_string(),
            set: |c, v| {
                c.$field = parse(v)?;
                Ok(())
            },
        }
    };
}

/// A switch that turns a `bool` field on.
macro_rules! switch {
    ($name:literal, $field:ident, $help:literal) => {
        Flag {
            name: $name,
            value: "",
            help: $help,
            get: |c| c.$field.to_string(),
            set: |c, _| {
                c.$field = true;
                Ok(())
            },
        }
    };
}

/// Every [`SimConfig`] knob settable from a command line — the only flag
/// parser ([`SimConfig::apply_flag`]) and help renderer ([`flags_help`])
/// the drivers use.
const FLAGS: &[Flag] = &[
    knob!("--seed", "N", seed, "RNG seed"),
    knob!("--objects", "N", num_objects, "number of moving objects"),
    knob!("--queries", "N", num_queries, "number of moving queries"),
    knob!(
        "--nmo",
        "N",
        objects_changing_velocity,
        "velocity changes per time step"
    ),
    knob!("--alpha", "MILES", alpha, "grid cell side length"),
    knob!("--alen", "MILES", alen, "base station side length"),
    knob!("--area", "SQMI", area, "universe area"),
    knob!("--ticks", "N", ticks, "measured time steps"),
    knob!("--warmup", "N", warmup_ticks, "warm-up time steps"),
    knob!("--delta", "MILES", delta, "dead-reckoning threshold"),
    knob!(
        "--radius-factor",
        "F",
        radius_factor,
        "query radius multiplier"
    ),
    Flag {
        name: "--focal-pool",
        value: "N",
        help: "draw focal objects from the first N objects only (unset = all)",
        get: |c| c.focal_pool.map(|k| k.to_string()).unwrap_or_default(),
        set: |c, v| {
            c.focal_pool = Some(parse(v)?);
            Ok(())
        },
    },
    switch!("--grouping", grouping, "enable query grouping"),
    switch!(
        "--safe-period",
        safe_period,
        "enable the safe-period optimization"
    ),
    knob!(
        "--threads",
        "N",
        threads,
        "tick-engine worker threads; 0 = MOBIEYES_THREADS, else the host CPU count"
    ),
    knob!(
        "--engine",
        "E",
        engine,
        "tick engine: soa (skips provably inert agents) | seed; results are identical"
    ),
    knob!(
        "--partitions",
        "N",
        partitions,
        "grid-sharded server partitions; results are identical at every count"
    ),
    Flag {
        name: "--transport",
        value: "T",
        help:
            "cluster bus backend: lockstep | tcp | uds; unset = MOBIEYES_TRANSPORT, else lockstep",
        get: |c| c.transport.map(|t| t.to_string()).unwrap_or_default(),
        set: |c, v| {
            c.transport = Some(parse(v)?);
            Ok(())
        },
    },
    knob!(
        "--rebalance-ticks",
        "N",
        rebalance_ticks,
        "rebalance the partition map from observed load every N ticks (0 = off)"
    ),
    knob!(
        "--partition-crash-ticks",
        "N",
        partition_crash_ticks,
        "kill seeded victim partitions at measured tick N and recover (0 = off)"
    ),
    knob!(
        "--partition-crash-kills",
        "N",
        partition_crash_kills,
        "partitions killed at the crash tick"
    ),
    knob!(
        "--recovery",
        "R",
        recovery,
        "crash recovery: failover (survivors keep the cells) | respawn (victims restart)"
    ),
    Flag {
        name: "--store-dir",
        value: "P",
        help: "journal server inputs to durable logs under P, one p<N> per partition (unset = off)",
        get: |c| {
            c.store_root()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        },
        set: |c, v| {
            c.store_dir = Some(PathBuf::from(v));
            Ok(())
        },
    },
    knob!(
        "--checkpoint-ticks",
        "N",
        store_checkpoint_ticks,
        "checkpoint the durable logs every N ticks (0 = off)"
    ),
    knob!(
        "--uplink-drop",
        "P",
        uplink_drop,
        "uplink message drop probability (0..=1)"
    ),
    knob!(
        "--downlink-drop",
        "P",
        downlink_drop,
        "downlink message drop probability (0..=1)"
    ),
    knob!(
        "--dup-rate",
        "P",
        dup_rate,
        "message duplication probability (0..=1)"
    ),
    knob!(
        "--churn-rate",
        "P",
        churn_rate,
        "fraction of objects that disconnect (0..=1)"
    ),
    knob!(
        "--lease-ticks",
        "N",
        lease_ticks,
        "focal-object lease duration in ticks; 0 disables the fault-tolerance layer"
    ),
];

/// Renders one help line per flag-table entry, each valued flag's default
/// read from `base` — the configuration the driver starts from.
pub fn flags_help(base: &SimConfig) -> String {
    FLAGS
        .iter()
        .map(|f| {
            let head = match f.value {
                "" => f.name.to_string(),
                value => format!("{} <{value}>", f.name),
            };
            let default = match (f.value, (f.get)(base)) {
                ("", _) => String::new(),
                (_, d) if d.is_empty() => String::new(),
                (_, d) => format!(" [default: {d}]"),
            };
            format!("    {head:<29} {}{default}\n", f.help)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = SimConfig::default();
        assert_eq!(c.time_step, 30.0);
        assert_eq!(c.alpha, 5.0);
        assert_eq!(c.num_objects, 10_000);
        assert_eq!(c.num_queries, 1_000);
        assert_eq!(c.objects_changing_velocity, 1_000);
        assert_eq!(c.area, 100_000.0);
        assert_eq!(c.alen, 10.0);
        assert_eq!(c.radius_means, vec![3.0, 2.0, 1.0, 4.0, 5.0]);
        assert_eq!(c.selectivity, 0.75);
        assert_eq!(c.speed_classes_mph, vec![100.0, 50.0, 150.0, 200.0, 250.0]);
        assert!((c.side() - 316.227766).abs() < 1e-6);
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::small_test(1)
            .with_queries(5)
            .with_alpha(2.0)
            .with_nmo(7);
        assert_eq!(c.num_queries, 5);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.objects_changing_velocity, 7);
    }

    #[test]
    fn measured_seconds() {
        let c = SimConfig {
            ticks: 10,
            time_step: 30.0,
            ..SimConfig::default()
        };
        assert_eq!(c.measured_seconds(), 300.0);
    }

    #[test]
    fn validate_accepts_valid_configs() {
        let c = SimConfig {
            seed: 7,
            num_objects: 500,
            uplink_drop: 0.3,
            churn_rate: 0.15,
            ..SimConfig::default()
        }
        .with_alpha(2.0)
        .with_radius_factor(1.5)
        .with_lease_ticks(6)
        .validate()
        .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.num_objects, 500);
        assert_eq!(c.uplink_drop, 0.3);
        assert_eq!(c.lease_ticks, 6);
    }

    #[test]
    fn validate_rejects_degenerate_values() {
        let d = SimConfig::default;
        for bad in [
            d().with_alpha(0.0),
            d().with_alpha(-1.0),
            d().with_alpha(f64::NAN),
            d().with_objects(0),
            d().with_radius_factor(0.0),
            d().with_radius_factor(-2.0),
            d().with_focal_pool(0),
            d().with_partitions(0),
            SimConfig {
                time_step: 0.0,
                ..d()
            },
            SimConfig {
                selectivity: 1.5,
                ..d()
            },
            SimConfig {
                uplink_drop: 1.5,
                ..d()
            },
            SimConfig {
                downlink_drop: -0.1,
                ..d()
            },
            SimConfig {
                dup_rate: f64::NAN,
                ..d()
            },
            SimConfig {
                churn_rate: 2.0,
                ..d()
            },
        ] {
            assert!(bad.clone().validate().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validate_rejects_more_partitions_than_cells() {
        // 100 mi² with α = 5 → a 2×2 grid of 4 cells; 8 partitions can
        // never tile it and used to panic deep inside
        // `PartitionMap::contiguous`.
        let tiny = SimConfig {
            area: 100.0,
            ..SimConfig::default()
        };
        let err = tiny.clone().with_partitions(8).validate().unwrap_err();
        assert!(
            err.to_string().contains("exceeds the grid's cell count"),
            "unhelpful message: {err}"
        );
        // The boundary case (one cell per partition) stays valid.
        assert!(tiny.with_partitions(4).validate().is_ok());
    }

    #[test]
    fn kinds_parse_case_insensitively() {
        assert_eq!("tcp".parse(), Ok(TransportKind::Tcp));
        assert_eq!("UDS".parse(), Ok(TransportKind::Uds));
        assert_eq!("lockstep".parse(), Ok(TransportKind::Lockstep));
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
        assert_eq!("failover".parse(), Ok(RecoveryKind::Failover));
        assert_eq!("RESPAWN".parse(), Ok(RecoveryKind::Respawn));
        assert!("reboot".parse::<RecoveryKind>().is_err());
        assert_eq!("Seed".parse(), Ok(EngineKind::Seed));
        assert!("sao".parse::<EngineKind>().is_err());
    }

    #[test]
    fn explicit_threads_and_transport_win() {
        assert_eq!(SimConfig::default().with_threads(3).resolved_threads(), 3);
        assert!(SimConfig::default().resolved_threads() >= 1);
        assert_eq!(
            SimConfig::default()
                .with_transport(TransportKind::Tcp)
                .resolved_transport(),
            TransportKind::Tcp
        );
    }

    #[test]
    fn crash_knobs_need_a_survivor() {
        let crash = SimConfig::default()
            .with_partitions(4)
            .with_partition_crash_ticks(5);
        assert_eq!(crash.partition_crash_kills, 1, "one victim by default");
        assert!(crash.clone().validate().is_ok());
        for bad in [
            crash.clone().with_partitions(1),
            crash.clone().with_partition_crash_kills(4),
            crash.clone().with_partition_crash_kills(0),
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(crash
            .clone()
            .with_partition_crash_kills(2)
            .with_recovery(RecoveryKind::Respawn)
            .validate()
            .is_ok());
        // Without a crash tick the kill count is never consulted.
        assert!(SimConfig::default()
            .with_partition_crash_kills(0)
            .validate()
            .is_ok());
    }

    /// A value for every flag that differs from its default; switches
    /// take none.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--grouping" | "--safe-period" => "",
            "--engine" => "seed",
            "--transport" => "tcp",
            "--recovery" => "respawn",
            "--store-dir" => "logs/run",
            "--alpha" | "--alen" | "--area" | "--delta" | "--radius-factor" => "2.5",
            "--uplink-drop" | "--downlink-drop" | "--dup-rate" | "--churn-rate" => "0.25",
            _ => "7",
        }
    }

    #[test]
    fn flag_names_are_unique() {
        let mut names: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate flag in FLAGS");
    }

    #[test]
    fn every_flag_sets_its_field() {
        let base = SimConfig::default();
        for f in FLAGS {
            let sample = sample(f.name);
            let mut c = base.clone();
            c.apply_flag(f.name, &mut std::iter::once(sample.to_string()))
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
            let expected = if f.value.is_empty() { "true" } else { sample };
            assert_eq!((f.get)(&c), expected, "{} did not round-trip", f.name);
            assert_ne!(
                format!("{c:?}"),
                format!("{base:?}"),
                "{} changed nothing",
                f.name
            );
        }
    }

    #[test]
    fn bad_flags_are_errors_naming_the_flag() {
        let mut c = SimConfig::default();
        let none = || std::iter::empty::<String>();
        let one = |v: &str| std::iter::once(v.to_string());
        let err = c.apply_flag("--bogus", &mut none()).unwrap_err();
        assert!(err.0.contains("--bogus"), "{err}");
        let err = c.apply_flag("--objects", &mut none()).unwrap_err();
        assert!(err.0.contains("--objects"), "{err}");
        let err = c.apply_flag("--objects", &mut one("many")).unwrap_err();
        assert!(
            err.0.contains("--objects") && err.0.contains("many"),
            "{err}"
        );
        let err = c.apply_flag("--engine", &mut one("sao")).unwrap_err();
        assert!(err.0.contains("--engine") && err.0.contains("sao"), "{err}");
        // Out-of-range values parse, then fail validation naming the flag.
        for (flag, value) in [
            ("--alpha", "0"),
            ("--objects", "0"),
            ("--partitions", "0"),
            ("--dup-rate", "1.5"),
        ] {
            let mut c = SimConfig::default();
            c.apply_flag(flag, &mut one(value)).unwrap();
            let err = c.validate().unwrap_err();
            assert!(err.0.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn help_lists_every_flag_with_the_base_default() {
        let help = flags_help(&SimConfig::small_test(7));
        for f in FLAGS {
            assert!(help.contains(f.name), "{} missing from help", f.name);
        }
        assert!(help.contains("--objects <N>"));
        assert!(help.contains("number of moving objects [default: 300]"));
        assert!(help.contains("--seed <N>"));
        assert!(help.contains("RNG seed [default: 7]"));
    }
}
