//! Process CPU time and peak memory, read from Linux `/proc`.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// which Linux fixes at 100 for user space on every architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, all threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|err| format!("cannot read /proc/self/stat: {err}"))?;
    parse_cpu_seconds(&stat)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    parse_vm_hwm_mb(&status)
}

/// Extracts `utime + stime` from the text of `/proc/<pid>/stat`. The command
/// name (field 2) is parenthesised and may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    let rest = stat
        .rfind(')')
        .map(|at| &stat[at + 1..])
        .ok_or("no command name in /proc stat")?;
    // After the command name come field 3 (state) onwards; utime and stime
    // are fields 14 and 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |number: usize| -> Result<u64, String> {
        fields
            .get(number - 3)
            .ok_or_else(|| format!("/proc stat has no field {number}"))?
            .parse::<u64>()
            .map_err(|err| format!("/proc stat field {number}: {err}"))
    };
    Ok((field(14)? + field(15)?) as f64 / USER_HZ)
}

/// Extracts the `VmHWM:` line (in kB) from the text of `/proc/<pid>/status`
/// and converts it to MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc status")?;
    let kb = line
        .trim()
        .strip_suffix("kB")
        .ok_or("VmHWM is not in kB")?
        .trim()
        .parse::<u64>()
        .map_err(|err| format!("VmHWM: {err}"))?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_from_the_last_parenthesis() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (we (ird) name) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 75 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.25));
        assert!(parse_cpu_seconds("4242 (short) R 1").is_err());
        assert!(parse_cpu_seconds("no parenthesis").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_kib_and_reported_in_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Ok(50.0));
        assert!(parse_vm_hwm_mb("Name:\tx\n").is_err());
        assert!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n").is_err());
    }

    #[test]
    fn this_process_is_readable() {
        assert!(cpu_seconds().expect("own stat") >= 0.0);
        assert!(peak_rss_mb().expect("own status") > 0.0);
    }
}
