//! The daemon as the kernel sees it: CPU time, memory high-water mark,
//! thread count and context switches, read from `/proc/<pid>`.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux ABI).
const TICKS_PER_SEC: u64 = 100;

/// CPU time a process has consumed, µs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTime {
    /// Time in user mode, µs.
    pub user_us: u64,
    /// Time in kernel mode, µs.
    pub system_us: u64,
}

impl CpuTime {
    /// User plus system time, µs.
    pub fn total_us(&self) -> u64 {
        self.user_us + self.system_us
    }

    /// The time consumed since `earlier`.
    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            system_us: self.system_us.saturating_sub(earlier.system_us),
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name in field 2 may itself hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_us: utime * 1_000_000 / TICKS_PER_SEC,
        system_us: stime * 1_000_000 / TICKS_PER_SEC,
    })
}

/// Parses one `Key:   <number> [kB]` line out of a `/proc/<pid>/status`
/// text.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// One reading of a live process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// CPU time consumed so far, all threads.
    pub cpu: CpuTime,
    /// Peak resident set (`VmHWM`), bytes.
    pub hwm_bytes: u64,
    /// Threads alive.
    pub threads: u64,
    /// Voluntary plus involuntary context switches, summed over the
    /// threads alive now.
    pub ctx_switches: u64,
}

/// Reads `pid`'s CPU time, memory peak, thread count and context
/// switches. `None` once the process is gone.
pub fn sample(pid: u32) -> Option<ProcSample> {
    let cpu = parse_stat_cpu(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    // `status` counts switches of the main thread only: sum the tasks.
    let mut ctx_switches = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let Ok(text) = fs::read_to_string(task.ok()?.path().join("status")) else {
            continue; // the thread ended between readdir and read
        };
        ctx_switches += parse_status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
            + parse_status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(ProcSample {
        cpu,
        hwm_bytes: parse_status_field(&status, "VmHWM")? * 1024,
        threads: parse_status_field(&status, "Threads")?,
        ctx_switches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let line = "4242 (near) peerd (x)) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 269 0 0 20 0 11 0 123456 987654321 2345 18446744073709551615";
        let cpu = parse_stat_cpu(line).unwrap();
        assert_eq!(cpu.user_us, 7_310_000);
        assert_eq!(cpu.system_us, 2_690_000);
        assert_eq!(cpu.total_us(), 10_000_000);
        let later = CpuTime {
            user_us: 8_000_000,
            system_us: 3_000_000,
        };
        assert_eq!(later.since(&cpu).total_us(), 1_000_000);
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tnearpeerd\nVmPeak:\t  300000 kB\nVmHWM:\t   61440 kB\n\
                      VmRSS:\t   60000 kB\nThreads:\t11\nvoluntary_ctxt_switches:\t900\n\
                      nonvoluntary_ctxt_switches:\t77\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(61440));
        assert_eq!(parse_status_field(status, "Threads"), Some(11));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(900)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(77)
        );
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn samples_this_process() {
        let s = sample(std::process::id()).expect("own /proc entry");
        assert!(s.threads >= 1);
        assert!(s.hwm_bytes > 0);
        assert_eq!(sample(u32::MAX), None);
    }
}
