//! CPU time and peak memory of the processes doing the work: each CLI child
//! reaped with `wait4`, the daemon read from `/proc/<pid>`; and the host's
//! busy and stolen CPU ticks from `/proc/stat`. Linux only, like the rest of
//! the harness.

use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};
use std::time::Duration;

/// CPU time and peak resident set size of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu: Duration,
    pub peak_rss_kb: u64,
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;
const EINTR: i32 = 4;

fn timeval(tv: [i64; 2]) -> Duration {
    Duration::from_secs(tv[0] as u64) + Duration::from_micros(tv[1] as u64)
}

/// Waits for `child` and returns its exit status with its own usage. Unlike
/// `getrusage(RUSAGE_CHILDREN)`, which also counts every process reaped
/// earlier (and, across `exec`, those of the process this one replaced),
/// this is the usage of `child` alone.
pub fn wait(child: Child) -> std::io::Result<(ExitStatus, Usage)> {
    let pid = child.id() as i32;
    // `child` is dropped without std waiting on it: `wait4` reaps it here.
    drop(child);
    let mut status = 0;
    let mut raw = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `raw` are live, writable and laid out as the
        // 64-bit Linux `int` and `struct rusage` (two `timeval`s then
        // fourteen `long`s) that `wait4` fills.
        if unsafe { wait4(pid, &mut status, 0, &mut raw) } == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(e);
        }
    }
    let usage = Usage {
        cpu: timeval(raw.utime) + timeval(raw.stime),
        peak_rss_kb: raw.maxrss as u64,
    };
    Ok((ExitStatus::from_raw(status), usage))
}

/// User+system CPU and `VmHWM` of a live process, from `/proc/<pid>`.
pub fn process(pid: u32) -> Result<Usage, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let after = stat
        .rsplit_once(") ")
        .ok_or("malformed /proc stat")?
        .1
        .split_whitespace()
        .collect::<Vec<_>>();
    let ticks = |i: usize| -> Result<u64, String> {
        after
            .get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("missing /proc stat field {}", i + 3))
    };
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    let cpu_ticks = ticks(11)? + ticks(12)?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let peak_rss_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("missing VmHWM in /proc status")?;
    Ok(Usage {
        cpu: Duration::from_nanos(cpu_ticks * 1_000_000_000 / hz),
        peak_rss_kb,
    })
}

/// Cumulative ticks of one CPU, or of all of them, from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    /// Running: user, nice, system, irq and softirq.
    pub busy: u64,
    /// Wanting to run while the hypervisor ran something else.
    pub steal: u64,
}

impl Ticks {
    /// Busy and stolen ticks from `self` to `later`: how long the CPU
    /// wanted to run.
    pub fn wanted(self, later: Ticks) -> u64 {
        later.busy.saturating_sub(self.busy) + later.steal.saturating_sub(self.steal)
    }

    /// The share of the time the CPU wanted to run, from `self` to
    /// `later`, that the hypervisor took.
    pub fn steal_share(self, later: Ticks) -> f64 {
        let wanted = self.wanted(later);
        if wanted == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / wanted as f64
        }
    }
}

/// The ticks of each of `cpus` (`None`: all CPUs together), from one read
/// of `/proc/stat`.
pub fn cpu_ticks(cpus: &[Option<usize>]) -> Result<Vec<Ticks>, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    cpus.iter()
        .map(|cpu| {
            let prefix = match cpu {
                Some(n) => format!("cpu{n} "),
                None => "cpu ".to_string(),
            };
            let fields: Vec<u64> = stat
                .lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .ok_or_else(|| format!("no `{}` line in /proc/stat", prefix.trim_end()))?
                .split_whitespace()
                .map(|v| v.parse().unwrap_or(0))
                .collect();
            let field = |i: usize| fields.get(i).copied().unwrap_or(0);
            // user nice system idle iowait irq softirq steal ...
            Ok(Ticks {
                busy: field(0) + field(1) + field(2) + field(5) + field(6),
                steal: field(7),
            })
        })
        .collect()
}
