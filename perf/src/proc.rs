//! What the harness reads from `/proc`: peak resident set, process CPU
//! time, and the filesystem a directory lives on. Each reader is a pure
//! parser over the file's text plus a thin wrapper that reads the file,
//! so the parsers are tested against canned text.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 on every architecture since 2.6 (`USER_HZ`), and the
/// harness has no libc to ask `sysconf`.
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set) in MiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds from `/proc/<pid>/stat` text. The command
/// name (field 2) may itself hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Filesystem type of the mount holding `path`, from `/proc/<pid>/mountinfo`
/// text: the entry with the longest mount point that prefixes `path`.
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fs_type = right.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type)
}

/// Peak resident set of this process so far, MiB (0 if `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_mb(&t))
        .unwrap_or(0.0)
}

/// CPU seconds this process has consumed so far, all threads.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_cpu_seconds(&t))
        .unwrap_or(0.0)
}

/// Filesystem type under `path` (`"unknown"` when it cannot be resolved).
pub fn fs_type(path: &Path) -> String {
    let resolved = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|t| parse_fs_type(&t, &resolved))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores the scheduler offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tperf\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   4096 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tperf\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // comm = "a) (b" — spaces and parentheses inside field 2.
        let stat = "1234 (a) (b) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_matching_mount() {
        let mountinfo = "\
22 1 254:0 / / rw,relatime shared:1 - ext4 /dev/vda rw
30 22 0:26 / /tmp rw,nosuid - tmpfs tmpfs rw
31 22 0:27 / /tmpfoo rw - xfs /dev/vdb rw
";
        let fs = |p: &str| parse_fs_type(mountinfo, Path::new(p));
        assert_eq!(fs("/tmp/bench/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo/perf/out").as_deref(), Some("ext4"));
        // `/tmpfoo` must not match a path under `/tmp` and vice versa.
        assert_eq!(fs("/tmpfoo/a").as_deref(), Some("xfs"));
        assert_eq!(parse_fs_type("", Path::new("/")), None);
    }
}
