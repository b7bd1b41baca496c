//! CPU time and peak memory of a process, from Linux `/proc`.

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 for every userspace interface.
const TICKS_PER_SEC: f64 = 100.0;

/// One reading of a process's CPU time and peak resident set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User plus system CPU seconds consumed so far.
    pub cpu_secs: f64,
    /// Peak resident set (`VmHWM`) in bytes.
    pub peak_rss_bytes: u64,
}

impl ProcSample {
    /// Reads process `pid`; zeros when `/proc` is unavailable.
    pub fn read(pid: u32) -> ProcSample {
        ProcSample::read_path(&format!("/proc/{pid}"))
    }

    /// Reads this process.
    pub fn read_self() -> ProcSample {
        ProcSample::read_path("/proc/self")
    }

    fn read_path(dir: &str) -> ProcSample {
        let stat = std::fs::read_to_string(format!("{dir}/stat")).unwrap_or_default();
        let status = std::fs::read_to_string(format!("{dir}/status")).unwrap_or_default();
        ProcSample {
            cpu_secs: cpu_ticks(&stat) as f64 / TICKS_PER_SEC,
            peak_rss_bytes: vm_hwm_kb(&status) * 1024,
        }
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from
/// the last `)`: `utime` and `stime` are the 12th and 13th after it.
fn cpu_ticks(stat: &str) -> u64 {
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    field(11).unwrap_or(0) + field(12).unwrap_or(0)
}

fn vm_hwm_kb(status: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The 1-minute load average, for the run record.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_a_hostile_command_name() {
        let stat = "42 (my (bad) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1";
        assert_eq!(cpu_ticks(stat), 300);
        assert_eq!(cpu_ticks("garbage"), 0);
        assert_eq!(vm_hwm_kb("Name:\tx\nVmHWM:\t   20688 kB\n"), 20688);
    }

    #[test]
    fn reads_this_process() {
        let me = ProcSample::read_self();
        assert!(me.peak_rss_bytes > 0);
    }
}
