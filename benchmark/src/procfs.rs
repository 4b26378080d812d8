//! CPU time and peak memory of this process, from `/proc`.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, 100 on
/// every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_ascii_whitespace().skip(1);
    let value: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// User + system CPU seconds this process (all threads, including ended
/// ones) has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|t| t as f64 / TICKS_PER_S)
        .ok_or_else(|| "/proc/self/stat: unexpected format".to_string())
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (dema) bench) x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 29 5 6 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(760));
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no paren"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tdema\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
    }

    #[test]
    fn this_process_has_used_cpu_and_memory() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
