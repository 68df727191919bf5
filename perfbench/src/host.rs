//! Host-side probes of the current process, read from `/proc` (std has
//! no `getrusage`, and the benchmark takes no third-party crates).

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 on Linux's mainstream
/// architectures).
pub const USER_HZ: f64 = 100.0;

/// User and system CPU seconds from the text of `/proc/<pid>/stat`.
/// Fields are counted after the parenthesised command name, which may
/// itself contain spaces or parentheses.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime as f64 / USER_HZ, stime as f64 / USER_HZ))
}

/// Peak resident set size (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// This process's `(user, sys)` CPU seconds so far, all threads
/// included (exited ones too).
pub fn cpu_seconds() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or((0.0, 0.0))
}

/// This process's CPU seconds so far (user + system, every thread,
/// exited ones too), at nanosecond resolution where `/proc/self/stat`
/// counts 10 ms ticks.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it on Linux);
    // `ts` is a live, writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) and the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Restrict the calling thread, and every thread it spawns afterwards,
/// to the highest-numbered CPU it may run on (CPU 0 tends to take the
/// most interrupts). Returns whether it did.
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls are the C library's (std links it on Linux);
    // `mask` is a live buffer of exactly `size` bytes, which the first
    // call writes and the second only reads. Pid 0 is the calling thread.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return false;
        }
        let Some(word) = mask.iter().rposition(|w| *w != 0) else {
            return false;
        };
        let mut one = [0u64; 16];
        one[word] = 1 << (63 - mask[word].leading_zeros());
        sched_setaffinity(0, size, one.as_ptr()) == 0
    }
}

/// This process's peak resident set size in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_follow_the_command_name() {
        let stat = "4242 (perf bench) R 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    561 642 0 0 20 0 3 0 12345 1000000 3000 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((5.61, 6.42)));
        // A command name with a closing parenthesis inside it.
        let tricky = "7 (a) b) S 1 7 7 0 -1 0 0 0 0 0 100 50 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_cpu(tricky), Some((1.0, 0.5)));
        assert_eq!(parse_stat_cpu("7 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no command name"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  400000 kB\nVmHWM:\t  147456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(147_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        let t0 = process_cpu_s();
        let spin = (0..2_000_000u64).fold(0u64, |a, x| a.wrapping_add(std::hint::black_box(x)));
        std::hint::black_box(spin);
        assert!(t0 > 0.0 && process_cpu_s() > t0);
    }
}
