//! Process memory and CPU readings from `/proc`.

use std::time::Duration;

/// `USER_HZ`: the unit of the CPU-time fields in `/proc/<pid>/stat`.
/// Fixed at 100 on every Linux ABI the repo builds for.
const CLOCK_TICKS_PER_SEC: u64 = 100;

/// Peak resident set size (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{}/status", pid);
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{}: {}", path, e))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("{}: no VmHWM line", path))
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// User + system CPU time consumed so far by all threads of `pid`.
pub fn cpu_time(pid: u32) -> Result<Duration, String> {
    let path = format!("/proc/{}/stat", pid);
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{}: {}", path, e))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| Duration::from_millis(ticks * 1000 / CLOCK_TICKS_PER_SEC))
        .ok_or_else(|| format!("{}: malformed", path))
}

/// `utime + stime` (fields 14 and 15). The command name in field 2 may
/// contain spaces, so fields are counted from the closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Time the calling thread has spent running on a CPU (first field of
/// `/proc/thread-self/schedstat`, nanoseconds); zero where the kernel
/// does not keep it.
pub fn thread_cpu_time() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// Summed peak resident set size of several processes, in MiB.
pub fn peak_rss_mb_of(pids: &[u32]) -> Result<f64, String> {
    pids.iter().map(|p| peak_rss_mb(*p)).sum()
}

/// Summed CPU time of several processes.
pub fn cpu_time_of(pids: &[u32]) -> Result<Duration, String> {
    pids.iter().map(|p| cpu_time(*p)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t    1568 kB\nVmRSS:\t 9 kB\n"),
            Some(1568)
        );
        let stat = "30087 (born dist) R 30080 30087 30080 0 -1 4194304 80 0 0 0 7 5 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(12));
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        cpu_time(std::process::id()).unwrap();
    }
}
