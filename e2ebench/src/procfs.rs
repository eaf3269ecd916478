//! CPU time and peak memory from the kernel's own accounting in `/proc`.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// which Linux fixes at 100 on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) used so far by every thread this process
/// has run, exited ones included.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    stat_cpu_s(&stat).expect("/proc/self/stat has utime and stime")
}

/// CPU seconds used so far by the calling thread, at nanosecond
/// resolution (`/proc/thread-self/schedstat`, field 1).
pub fn thread_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds");
    ns as f64 / 1e9
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_kb(&status, "VmHWM:").expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name in
/// parentheses may hold spaces, so fields are counted after the last `)`:
/// field 3 (state) is the first there, so utime (14) and stime (15) sit
/// at offsets 11 and 12.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let stat = "42 (my (odd) prog) S 1 42 42 0 -1 4194304 10 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(stat_cpu_s(stat), Some(3.0));
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(2048));
        assert_eq!(status_kb(status, "VmPeak:"), None);
    }

    #[test]
    fn live_probes_are_positive() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
