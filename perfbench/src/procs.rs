//! Child-process helpers: reaping with resource usage, and resident-set
//! readings from `/proc`.

use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

/// `struct rusage` on 64-bit Linux: two `timeval`s (2 × i64 each) followed
/// by fourteen `long` fields; `ru_maxrss` (KiB) is the first of those.
#[repr(C)]
struct Rusage {
    words: [i64; 18],
}

const RU_MAXRSS: usize = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Wait for `child` and return its exit status with its peak resident set
/// (the kernel's `ru_maxrss`, which is the VmHWM at exit) in MiB. The
/// child is reaped here, so `Child::wait` must not be called on it after.
pub fn wait_with_peak(child: Child) -> std::io::Result<(ExitStatus, f64)> {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = Rusage { words: [0; 18] };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // exact C layouts wait4 fills (int and 64-bit Linux struct rusage),
        // and `pid` names a child of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    Ok((
        ExitStatus::from_raw(status),
        usage.words[RU_MAXRSS] as f64 / 1024.0,
    ))
}

/// Peak resident set (VmHWM) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative CPU ticks of the guest over all its CPUs, from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ticks {
    /// Time the hypervisor ran other guests while this one was runnable.
    pub steal: u64,
    /// Idle and I/O-wait time.
    pub idle: u64,
    pub total: u64,
}

impl Ticks {
    /// Share of the guest's non-idle CPU time from `self` to `later` that
    /// the hypervisor stole. Taken over non-idle time, so it measures how
    /// contended the host was, not how busy the guest was.
    pub fn steal_share(self, later: Ticks) -> f64 {
        let steal = later.steal.saturating_sub(self.steal);
        let busy = (later.total - later.idle).saturating_sub(self.total - self.idle);
        steal as f64 / busy.max(1) as f64
    }
}

pub fn cpu_ticks() -> Option<Ticks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some(Ticks {
        steal: *ticks.get(7)?,
        idle: ticks[3] + ticks[4],
        total: ticks.iter().sum(),
    })
}

/// Percentage of CPU time stolen by the hypervisor since `start`.
pub fn steal_pct_since(start: Option<Ticks>) -> Option<f64> {
    let (a, b) = (start?, cpu_ticks()?);
    Some(
        100.0 * b.steal.saturating_sub(a.steal) as f64
            / b.total.saturating_sub(a.total).max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_with_peak_reports_status_and_rss() {
        let child = std::process::Command::new("true").spawn().unwrap();
        let (status, peak) = wait_with_peak(child).unwrap();
        assert!(status.success());
        assert!(peak > 0.0);
        let child = std::process::Command::new("false").spawn().unwrap();
        assert!(!wait_with_peak(child).unwrap().0.success());
        assert!(vm_hwm_mb(std::process::id()).unwrap() > 0.0);
    }

    #[test]
    fn steal_share_is_taken_over_non_idle_time() {
        let a = Ticks {
            steal: 10,
            idle: 100,
            total: 200,
        };
        // 100 ticks pass: 60 idle, 30 busy, 10 stolen.
        let b = Ticks {
            steal: 20,
            idle: 160,
            total: 300,
        };
        assert_eq!(a.steal_share(b), 0.25);
        assert_eq!(a.steal_share(a), 0.0);
        assert!(cpu_ticks().is_some_and(|t| t.total >= t.idle + t.steal));
    }
}
