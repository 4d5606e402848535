//! Process accounting and hygiene: `/proc` readers for CPU time, context
//! switches and peak memory, CPU pinning, partition child processes that
//! are killed when dropped, and a per-run directory that is
//! removed when dropped.

use mobieyes::net::Endpoint;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// CPU seconds a process (or one thread) has run, from `/proc/.../stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn minus(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// `utime` and `stime` of `/proc/<path>/stat`, where `path` is a pid,
/// `self`, or `self/task/<tid>`. Process-level files include the time of
/// threads that have already exited.
pub fn cpu_times(path: &str, clk_tck: f64) -> Result<CpuTimes, String> {
    let file = format!("/proc/{path}/stat");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?;
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after its closing parenthesis, at field 3.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{file}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|v| v as f64 / clk_tck)
            .ok_or_else(|| format!("{file}: field {} unreadable", i + 3))
    };
    // utime and stime are fields 14 and 15 (1-based) of the whole line.
    Ok(CpuTimes {
        user_s: tick(11)?,
        sys_s: tick(12)?,
    })
}

/// The fields of `/proc/<path>/status` the benchmark reads.
#[derive(Debug, Clone, Default)]
pub struct Status {
    /// Peak resident set size (`VmHWM`), KiB.
    pub vm_hwm_kb: u64,
    /// Voluntary plus involuntary context switches. For a process this
    /// counts its main thread only.
    pub ctx_switches: u64,
    /// CPUs the task may run on (`Cpus_allowed_list`).
    pub cpus_allowed: String,
}

pub fn status(path: &str) -> Result<Status, String> {
    let file = format!("/proc/{path}/status");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?;
    let mut st = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let number = || {
            value
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{file}: {key} unreadable"))
        };
        match key {
            "VmHWM" => st.vm_hwm_kb = number()?,
            "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => {
                st.ctx_switches += number()?
            }
            "Cpus_allowed_list" => st.cpus_allowed = value.to_string(),
            _ => {}
        }
    }
    Ok(st)
}

/// Host-wide CPU jiffies from the first line of `/proc/stat`: the total
/// and the part the hypervisor stole.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

pub fn host_cpu() -> Result<HostCpu, String> {
    let text =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("/proc/stat: no aggregate cpu line")?;
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse::<u64>().map_err(|_| "/proc/stat: bad cpu field"))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    Ok(HostCpu {
        total: vals.iter().take(8).sum(),
        steal: vals.get(7).copied().unwrap_or(0),
    })
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// The kernel's clock tick (`USER_HZ`), the unit of `/proc/.../stat`.
pub fn clk_tck() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(100.0)
}

/// The first `model name` of `/proc/cpuinfo`, and the number of CPUs it
/// lists.
pub fn cpu_model() -> (String, usize) {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let models: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_once(':').filter(|(k, _)| k.trim() == "model name"))
        .map(|(_, v)| v.trim())
        .collect();
    (
        models.first().copied().unwrap_or("unknown").to_string(),
        models.len(),
    )
}

/// `/proc/self/task/<tid>` of the calling thread.
pub fn current_task() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    let text = link.to_str()?;
    let (_, tid) = text.rsplit_once('/')?;
    Some(format!("self/task/{tid}"))
}

/// The last CPU of a `Cpus_allowed_list` such as `0-1` or `0,2-3`.
pub fn last_cpu(list: &str) -> Option<u32> {
    list.split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse::<u32>().ok())
        .max()
}

/// Pins every thread of this process, and every process it starts later,
/// to `cpu` (with the installed `taskset`).
pub fn pin_self(cpu: u32) -> Result<(), String> {
    let status = Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !status.success() {
        return Err(format!("taskset failed: {status}"));
    }
    Ok(())
}

/// One `mobieyes-serve partition` process. Dropping it kills and reaps
/// the process, so no exit path — an error or a panic included — leaves
/// a partition running.
pub struct ServeChild {
    child: Child,
    /// Kept open so a late write to stdout cannot kill the child.
    _stdout: Option<BufReader<ChildStdout>>,
    pub endpoint: Endpoint,
}

impl ServeChild {
    /// Starts partition `p` listening on the Unix socket `sock` and waits
    /// for its `READY` line.
    pub fn spawn(serve_bin: &Path, p: usize, sock: &Path) -> Result<ServeChild, String> {
        let listen = format!("uds:{}", sock.display());
        let mut child = Command::new(serve_bin)
            .args([
                "partition",
                "--partition",
                &p.to_string(),
                "--listen",
                &listen,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Built now so the guard reaps the child on the error paths below.
        let mut guard = ServeChild {
            child,
            _stdout: None,
            endpoint: Endpoint::Uds(sock.to_path_buf()),
        };
        let mut ready = String::new();
        stdout
            .read_line(&mut ready)
            .map_err(|e| format!("reading READY from partition {p}: {e}"))?;
        let bound = ready
            .trim()
            .strip_prefix("READY ")
            .ok_or_else(|| format!("partition {p} printed {ready:?}, expected READY"))?;
        guard.endpoint = Endpoint::parse(bound).map_err(|e| e.to_string())?;
        guard._stdout = Some(stdout);
        Ok(guard)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to `timeout` for a clean exit (status 0, as after
    /// `Shutdown`); kills the process and reports an error otherwise.
    pub fn finish(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("partition exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("partition did not exit after Shutdown".into()),
                Err(e) => return Err(format!("waiting for partition: {e}")),
            }
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The directory for one run's sockets and journals, under
/// `.perfbench-tmp/` in the working directory. Paths handed out are
/// relative, which keeps Unix socket paths short whatever the checkout's
/// location. Dropping it removes everything inside.
pub struct RunDir {
    path: PathBuf,
}

const RUN_ROOT: &str = ".perfbench-tmp";

impl RunDir {
    pub fn create() -> Result<RunDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(RUN_ROOT).join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only when no concurrent run still uses the root.
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}
