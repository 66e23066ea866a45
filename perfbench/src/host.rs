//! Host diagnostics read from `/proc` with no dependencies: how much of
//! a timed phase this thread spent on a CPU, how long it waited in the
//! run queue, and the process's peak resident set.

use movr_math::convert::u64_to_f64;
use std::fs;

/// Scheduler accounting of the calling thread
/// (`/proc/thread-self/schedstat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl SchedStat {
    /// The calling thread's counters, or `None` where the kernel does not
    /// expose them.
    pub fn now() -> Option<Self> {
        Self::parse(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
    }

    /// Parses the `run_ns wait_ns timeslices` line.
    pub fn parse(text: &str) -> Option<Self> {
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        Some(SchedStat {
            run_ns: fields.next()?.ok()?,
            wait_ns: fields.next()?.ok()?,
        })
    }
}

/// On-CPU share and run-queue wait of one timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseHost {
    /// Run time over wall time (1.0 = never preempted).
    pub on_cpu_share: f64,
    /// Time spent waiting for a CPU, milliseconds.
    pub runq_wait_ms: f64,
}

impl PhaseHost {
    /// Diagnostics between two schedstat readings `wall_ns` apart; zeros
    /// where schedstat is unavailable.
    pub fn between(before: Option<SchedStat>, after: Option<SchedStat>, wall_ns: u64) -> Self {
        match (before, after) {
            (Some(a), Some(b)) if wall_ns > 0 => PhaseHost {
                on_cpu_share: u64_to_f64(b.run_ns.saturating_sub(a.run_ns)) / u64_to_f64(wall_ns),
                runq_wait_ms: u64_to_f64(b.wait_ns.saturating_sub(a.wait_ns)) / 1e6,
            },
            _ => PhaseHost {
                on_cpu_share: 0.0,
                runq_wait_ms: 0.0,
            },
        }
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(u64_to_f64(kib) / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(
            SchedStat::parse("123 45 6\n"),
            Some(SchedStat {
                run_ns: 123,
                wait_ns: 45
            })
        );
        assert_eq!(SchedStat::parse("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
    }

    #[test]
    fn phase_shares_come_from_deltas() {
        let a = SchedStat {
            run_ns: 1_000,
            wait_ns: 0,
        };
        let b = SchedStat {
            run_ns: 901_000,
            wait_ns: 2_000_000,
        };
        let h = PhaseHost::between(Some(a), Some(b), 1_000_000);
        assert!((h.on_cpu_share - 0.9).abs() < 1e-12);
        assert!((h.runq_wait_ms - 2.0).abs() < 1e-12);
    }
}
