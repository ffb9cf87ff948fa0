//! The process under test, seen from outside: spawn, readiness, peak
//! memory and CPU time, teardown.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running `streamcolor serve --listen 127.0.0.1:0 --reactor`. Killed
/// and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it announced.
    pub addr: String,
}

impl Server {
    /// Spawns the server and waits for its `listening on ADDR` line.
    ///
    /// On a machine with two or more CPUs the single-threaded server is
    /// pinned to the last one with `taskset`, so the load generator's
    /// threads do not compete with it for a core; where that fails it
    /// runs unpinned.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let args = ["serve", "--listen", "127.0.0.1:0", "--reactor"];
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        if cpus >= 2 {
            let mut pinned = Command::new("taskset");
            pinned.arg("-c").arg((cpus - 1).to_string()).arg(bin).args(args);
            if let Ok(server) = Self::launch(pinned) {
                return Ok(server);
            }
        }
        let mut plain = Command::new(bin);
        plain.args(args);
        Self::launch(plain).map_err(|e| format!("{}: {e}", bin.display()))
    }

    fn launch(mut command: Command) -> Result<Self, String> {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line.trim().strip_prefix("listening on ").map(str::to_string),
            Err(_) => None,
        };
        match addr {
            Some(addr) => Ok(Self { child, _stdout: stdout, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address (got {line:?})"))
            }
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))?;
        Ok(kib / 1024.0)
    }

    /// User plus system CPU time the server has used so far.
    pub fn cpu_time(&self) -> Result<Duration, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<u64, String> {
            fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(|| format!("{path}: field {i}"))
        };
        // USER_HZ is 100 on every Linux ABI.
        Ok(Duration::from_millis((ticks(11)? + ticks(12)?) * 10))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Peak resident set of the largest child process this program has
/// spawned and reaped so far, in MiB (`getrusage(RUSAGE_CHILDREN)`).
/// This is how the multipass workload sees its worker fleet, whose
/// processes the cluster pool spawns and reaps itself.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mib() -> Result<f64, String> {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words) and 14
    // `long`s; `ru_maxrss` (KiB) is word 4.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a live, writable 144-byte buffer, the exact size
    // and alignment of `struct rusage` on 64-bit Linux; getrusage writes
    // only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err("getrusage(RUSAGE_CHILDREN) failed".to_string());
    }
    Ok(usage[4] as f64 / 1024.0)
}

/// Peak resident set of reaped children (unsupported here).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mib() -> Result<f64, String> {
    Err("child peak RSS needs 64-bit Linux".to_string())
}
