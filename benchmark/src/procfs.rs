//! Process and thread counters read from `/proc`.
//!
//! CPU time comes from `/proc/self/stat` (utime + stime), which the
//! kernel keeps for the whole thread group, threads that already exited
//! included — so the scoped workers of a finished epoch still count.
//! `sies_telemetry::cpu_time_ns` reads `/proc/self/schedstat` instead,
//! which covers the main thread only; the benchmark never uses it.
//! Per-span CPU time is the calling thread's own CPU clock.

use std::fs;

/// Clock ticks per second of the `/proc/self/stat` time fields. Linux
/// fixes `USER_HZ` at 100 on every architecture this benchmark targets.
const USER_HZ: f64 = 100.0;

/// Whole-process counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    /// User-mode CPU time of all threads, ms.
    pub user_ms: f64,
    /// Kernel-mode CPU time of all threads, ms.
    pub sys_ms: f64,
    /// Minor page faults of all threads.
    pub minflt: u64,
}

impl ProcStat {
    /// Samples the calling process.
    pub fn sample() -> Result<ProcStat, String> {
        let text =
            fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
        parse_stat(&text)
    }

    /// User plus kernel CPU time, ms.
    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

/// Parses the text of a `/proc/<pid>/stat` file. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_stat(text: &str) -> Result<ProcStat, String> {
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat line has no command field")?;
    // `rest` starts at field 3 (state): minflt is field 10, utime 14,
    // stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .ok_or(format!("stat line lacks field {n}"))?
            .parse()
            .map_err(|e| format!("stat field {n}: {e}"))
    };
    Ok(ProcStat {
        minflt: field(10)?,
        user_ms: field(14)? as f64 * 1000.0 / USER_HZ,
        sys_ms: field(15)? as f64 * 1000.0 / USER_HZ,
    })
}

/// Reads one `kB` field of `/proc/self/status` as bytes.
fn status_bytes(key: &str) -> Result<u64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or(format!("/proc/self/status has no {key}"))
}

/// Current resident set size, bytes.
pub fn rss_bytes() -> Result<u64, String> {
    status_bytes("VmRSS")
}

/// Peak resident set size of this process, bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    status_bytes("VmHWM")
}

/// On-CPU nanoseconds of the calling thread, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. (`/proc/thread-self/schedstat`
/// only advances at scheduler ticks, so it reads 0 for a span shorter
/// than one.) Returns 0 if the clock fails.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout of this target, and the clock id is a valid Linux clock;
    // the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU nanoseconds of the calling thread, at scheduler-tick
/// resolution; 0 where the kernel does not expose schedstat.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Spins until the calling thread has run for `d` on a CPU (bounded
    /// by 10× `d` of wall time, should other tests crowd the cores).
    fn burn(d: Duration) -> u64 {
        let (t0, cpu0) = (Instant::now(), thread_cpu_ns());
        let mut x = 1u64;
        while thread_cpu_ns() - cpu0 < d.as_nanos() as u64 && t0.elapsed() < d * 10 {
            for i in 0..10_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
        }
        std::hint::black_box(x)
    }

    #[test]
    fn parses_a_stat_line_with_a_hostile_command_name() {
        let line = "42 (a) b (c) R 1 2 3 4 5 6 777 8 9 10 250 30 0 0 20 0 3 0";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minflt, 777);
        assert_eq!(s.user_ms, 2500.0);
        assert_eq!(s.sys_ms, 300.0);
    }

    #[test]
    fn process_cpu_counts_a_joined_thread() {
        // The burn runs on a thread that has exited before the second
        // sample: a main-thread-only gauge would see none of it.
        let before = ProcStat::sample().unwrap();
        let main_before = thread_cpu_ns();
        std::thread::spawn(|| burn(Duration::from_millis(300)))
            .join()
            .unwrap();
        let spent = ProcStat::sample().unwrap().since(&before);
        assert!(
            spent.cpu_ms() >= 200.0,
            "only {:.0} ms of a 300 ms burn on a joined thread",
            spent.cpu_ms()
        );
        let main_spent_ms = (thread_cpu_ns() - main_before) as f64 / 1e6;
        assert!(
            main_spent_ms < 100.0,
            "main thread itself burned {main_spent_ms:.0} ms"
        );
    }

    #[test]
    fn thread_cpu_grows_with_work() {
        let a = thread_cpu_ns();
        burn(Duration::from_millis(30));
        let b = thread_cpu_ns();
        assert!(b >= a + 10_000_000, "thread cpu {a} -> {b}");
    }

    #[test]
    fn memory_fields_are_plausible() {
        let rss = rss_bytes().unwrap();
        let peak = peak_rss_bytes().unwrap();
        assert!(rss > 100 * 1024 && peak >= rss, "rss {rss} peak {peak}");
    }
}
