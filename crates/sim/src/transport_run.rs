//! Driving live multi-process deployments: the coordinator-side
//! [`ClusterClient`], [`PartitionProcess`] for `mobieyes-serve partition`
//! children, and an in-process host for partition services (tests and
//! single-machine smoke runs use it; `mobieyes-serve` runs the same
//! service loop behind a real process boundary).

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::mobieyes_run::MobiEyesSim;
use mobieyes_cluster::serve_partition;
use mobieyes_net::{Endpoint, FramedConn, Listener, TransportError};
use mobieyes_telemetry::Telemetry;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// The coordinator side of a live deployment: one framed connection per
/// partition service, agents and the agent-facing network staying in this
/// process. Only the server tier's partition ops cross the wire.
pub struct ClusterClient {
    conns: Vec<FramedConn>,
}

impl ClusterClient {
    /// Connects to every endpoint in partition order, retrying each for up
    /// to `timeout` (freshly spawned services may still be binding),
    /// completes the hello exchange and checks the service at position `p`
    /// actually announces partition `p`.
    pub fn connect(endpoints: &[Endpoint], timeout: Duration) -> Result<Self, TransportError> {
        let conns = endpoints
            .iter()
            .enumerate()
            .map(|(p, ep)| connect_partition(ep, p as u32, timeout))
            .collect::<Result<_, _>>()?;
        Ok(ClusterClient { conns })
    }

    /// The number of connected partition services.
    pub fn num_partitions(&self) -> usize {
        self.conns.len()
    }

    /// Builds the remote deployment. The cluster is sharded over the
    /// connected services — one partition each, regardless of
    /// `config.partitions` (which selects the in-process layout only).
    pub fn into_sim(self, config: SimConfig, telemetry: Telemetry) -> MobiEyesSim {
        MobiEyesSim::with_remote_cluster(config, telemetry, self.conns)
    }

    /// Runs the configured workload to completion against the live
    /// services, shuts them down, and returns the run metrics plus the
    /// final result digest.
    pub fn run(self, config: SimConfig) -> (RunMetrics, u64) {
        let mut sim = self.into_sim(config, Telemetry::new());
        let metrics = sim.run();
        let digest = sim.result_digest();
        sim.shutdown();
        (metrics, digest)
    }
}

/// Connects to the partition service at `ep`, retrying for up to
/// `timeout` (a freshly spawned service may still be binding), completes
/// the hello exchange and checks the service announces partition `p`.
pub fn connect_partition(
    ep: &Endpoint,
    p: u32,
    timeout: Duration,
) -> Result<FramedConn, TransportError> {
    let mut conn = FramedConn::new(ep.connect_with_retry(timeout)?);
    conn.send_hello(0)?;
    let announced = conn.expect_hello()?;
    if announced != p {
        return Err(TransportError::Handshake(format!(
            "service at {ep} announced partition {announced}, expected {p}"
        )));
    }
    Ok(conn)
}

/// One `mobieyes-serve partition` child process. Dropping it SIGKILLs
/// and reaps the process and removes its Unix socket file, so no exit
/// path of a driver leaves a service blocked in `accept` or a stale
/// socket behind.
pub struct PartitionProcess {
    child: Child,
    /// The bound endpoint, known once the service printed `READY`.
    endpoint: Option<Endpoint>,
}

impl PartitionProcess {
    /// Spawns `exe partition --partition <partition> --listen <listen>`
    /// and waits for its `READY <endpoint>` line (`port 0` resolved).
    pub fn spawn(exe: &Path, partition: u32, listen: &str) -> Result<Self, String> {
        let child = Command::new(exe)
            .args([
                "partition",
                "--partition",
                &partition.to_string(),
                "--listen",
                listen,
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning partition {partition}: {e}"))?;
        let mut process = PartitionProcess {
            child,
            endpoint: None,
        };
        let stdout = process.child.stdout.take().expect("piped stdout");
        let mut ready = String::new();
        BufReader::new(stdout)
            .read_line(&mut ready)
            .map_err(|e| format!("reading READY from partition {partition}: {e}"))?;
        let bound = ready
            .trim()
            .strip_prefix("READY ")
            .ok_or_else(|| format!("partition {partition} printed {ready:?}, expected READY"))?;
        process.endpoint = Some(Endpoint::parse(bound).map_err(|e| e.to_string())?);
        Ok(process)
    }

    /// The endpoint the service listens on.
    pub fn endpoint(&self) -> &Endpoint {
        self.endpoint.as_ref().expect("set by spawn")
    }

    /// SIGKILLs the service and reaps it.
    pub fn kill(mut self) -> std::io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }

    /// Waits for the service to exit on its own (after `Shutdown`).
    pub fn wait(mut self) -> std::io::Result<ExitStatus> {
        self.child.wait()
    }
}

impl Drop for PartitionProcess {
    fn drop(&mut self) {
        // Both are no-ops on a child already reaped by `kill`/`wait`.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(Endpoint::Uds(path)) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Partition services hosted on in-process threads — the same service
/// loop `mobieyes-serve partition` runs, minus the process boundary.
/// Useful wherever a test needs real sockets without managing child
/// processes.
pub struct HostedPartitions {
    endpoints: Vec<Endpoint>,
    handles: Vec<JoinHandle<Result<(), TransportError>>>,
}

impl HostedPartitions {
    /// Binds `n` fresh endpoints — loopback TCP with OS-assigned ports, or
    /// Unix-domain sockets in the temp dir — and serves one partition on
    /// each from its own thread.
    pub fn spawn(n: usize, uds: bool) -> Result<Self, TransportError> {
        let mut endpoints = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for p in 0..n {
            let ep = if uds {
                Endpoint::Uds(unique_service_path(p))
            } else {
                Endpoint::Tcp("127.0.0.1:0".into())
            };
            let listener = Listener::bind(&ep)?;
            endpoints.push(listener.local_endpoint()?);
            handles.push(std::thread::spawn(move || {
                serve_partition(listener, p as u32)
            }));
        }
        Ok(HostedPartitions { endpoints, handles })
    }

    /// The bound service endpoints, in partition order.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Waits for every service to exit its loop; returns the first
    /// failure, if any. Call after the client has sent `Shutdown` (by
    /// dropping through [`ClusterClient::run`] or `MobiEyesSim::shutdown`),
    /// or this blocks forever.
    pub fn join(self) -> Result<(), TransportError> {
        let mut first: Option<TransportError> = None;
        for handle in self.handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first.get_or_insert(e);
                }
                Err(_) => {
                    first.get_or_insert(TransportError::Protocol(
                        "partition service thread panicked".into(),
                    ));
                }
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A fresh, collision-free Unix-domain socket path for a hosted service.
fn unique_service_path(partition: usize) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mobieyes-part{partition}-{}-{seq}.sock",
        std::process::id()
    ))
}
