//! Process-level gauges: peak RSS, per-node footprint, and cpu time.
//!
//! The million-sensor throughput experiment promises a *stated* memory
//! budget, so the budget has to be machine-readable: `repro throughput`
//! emits these gauges into `BENCH_throughput.json` and CI gates on
//! bytes-per-node. Peak RSS comes from the kernel (`VmHWM` in
//! `/proc/self/status`), which covers everything the process ever held —
//! key material and allocator slack included — while the bytes-per-node
//! gauge is the engine's own accounting of its reusable epoch state.
//! Cpu time (user + system time of every thread the process ever ran,
//! from `/proc/self/stat`) lets the `/metrics` endpoint expose
//! utilisation without any wall clock arithmetic in-process.
//!
//! Everything procfs-backed degrades gracefully off Linux: the readers
//! return `None`, the recorders record nothing, and callers treat the
//! value as *unknown*, never zero.

use crate::registry::global;

/// Gauge name for the process's peak resident set size, in bytes.
pub const PEAK_RSS_GAUGE: &str = "process.peak_rss_bytes";

/// Gauge name for the epoch engine's per-node state footprint, in bytes
/// (arena + the pipeline's epoch buffers, excluding scheme key material).
pub const BYTES_PER_NODE_GAUGE: &str = "engine.bytes_per_node";

/// Gauge name for cumulative process CPU time, in nanoseconds.
pub const CPU_TIME_GAUGE: &str = "process.cpu_time_ns";

/// Reads the process's peak resident set size in bytes from
/// `/proc/self/status` (`VmHWM`). Returns `None` on platforms without
/// procfs or if the field is missing — callers must treat the budget as
/// unchecked rather than zero.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Samples [`peak_rss_bytes`] and records it into the global
/// [`PEAK_RSS_GAUGE`] (when telemetry is enabled), returning the sample
/// so callers can also report it out-of-band (JSON artifacts).
pub fn record_peak_rss() -> Option<u64> {
    let bytes = peak_rss_bytes()?;
    if crate::enabled() {
        global().gauge(PEAK_RSS_GAUGE).set(bytes);
    }
    Some(bytes)
}

/// Clock ticks per second of the `/proc/self/stat` time fields. Linux
/// fixes `USER_HZ` at 100 on every architecture this crate targets.
#[cfg(target_os = "linux")]
const USER_HZ: u64 = 100;

/// Reads the CPU time this whole process has used, in nanoseconds: user
/// plus system time (`utime` + `stime` in `/proc/self/stat`). The kernel
/// keeps these for the thread group, so worker threads count — including
/// ones that already exited. The resolution is one clock tick (10 ms).
/// Returns `None` on platforms without procfs — callers must treat cpu
/// time as unknown, not zero.
pub fn cpu_time_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let (utime, stime) = parse_cpu_ticks(&stat)?;
        Some((utime + stime) * (1_000_000_000 / USER_HZ))
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// `(utime, stime)` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from its closing parenthesis: `utime` and `stime` are the
/// 12th and 13th fields after it.
#[cfg(target_os = "linux")]
fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let mut fields = stat.get(stat.rfind(')')? + 1..)?.split_whitespace();
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Samples [`cpu_time_ns`] and records it into the global
/// [`CPU_TIME_GAUGE`] (when telemetry is enabled), returning the sample
/// so callers can also report it out-of-band.
pub fn record_cpu_time() -> Option<u64> {
    let ns = cpu_time_ns()?;
    if crate::enabled() {
        global().gauge(CPU_TIME_GAUGE).set(ns);
    }
    Some(ns)
}

/// Samples every procfs-backed process gauge that is available on this
/// platform (peak RSS, cpu time). Intended for periodic calls from the
/// metrics endpoint or epoch loop; missing sources are skipped.
pub fn record_process_gauges() {
    let _ = record_peak_rss();
    let _ = record_cpu_time();
}

/// Records the engine's bytes-per-node footprint into the global
/// [`BYTES_PER_NODE_GAUGE`] (when telemetry is enabled), returning the
/// rounded value it stored.
pub fn record_bytes_per_node(state_bytes: usize, nodes: usize) -> u64 {
    let per_node = if nodes == 0 {
        0
    } else {
        (state_bytes as u64).div_ceil(nodes as u64)
    };
    if crate::enabled() {
        global().gauge(BYTES_PER_NODE_GAUGE).set(per_node);
    }
    per_node
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_plausible_value() {
        let rss = peak_rss_bytes().expect("procfs available on linux");
        // Any running test binary holds at least 100 KiB and (sanity
        // ceiling) under 1 TiB.
        assert!(rss > 100 * 1024, "peak RSS {rss} implausibly small");
        assert!(rss < 1 << 40, "peak RSS {rss} implausibly large");
    }

    #[test]
    fn bytes_per_node_rounds_up_and_handles_zero() {
        assert_eq!(record_bytes_per_node(0, 0), 0);
        assert_eq!(record_bytes_per_node(100, 3), 34);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn cpu_time_is_monotone_and_plausible() {
        let a = cpu_time_ns().expect("procfs available on linux");
        // Burn a little cpu so the second sample can only be >=.
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = cpu_time_ns().unwrap();
        assert!(b >= a, "cpu time went backwards: {a} -> {b}");
        // A running test process has burned under an hour of cpu.
        assert!(b < 3_600_000_000_000_000, "cpu time {b} implausible");
    }

    /// The calling thread's own on-cpu time, ns.
    #[cfg(target_os = "linux")]
    fn thread_cpu_ns() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        stat.split_whitespace().next().unwrap().parse().unwrap()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn joined_worker_cpu_is_counted() {
        let before = cpu_time_ns().unwrap();
        // The worker burns 200 ms of its own CPU, then exits; the calling
        // thread only waits.
        let worker_ns = std::thread::spawn(|| {
            let start = thread_cpu_ns();
            let mut x = 0u64;
            while thread_cpu_ns() - start < 200_000_000 {
                for i in 0..100_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x);
            }
            thread_cpu_ns() - start
        })
        .join()
        .unwrap();
        let counted = cpu_time_ns().unwrap() - before;
        // Two ticks of slack for the 10 ms resolution at either end.
        assert!(
            counted + 20_000_000 >= worker_ns,
            "process CPU grew {counted} ns while a joined worker used {worker_ns} ns"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stat_parser_skips_the_command_name() {
        let line = "4242 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 17 12 13 20 0 3 0 99 1 2";
        assert_eq!(parse_cpu_ticks(line), Some((250, 17)));
        assert_eq!(parse_cpu_ticks("4242 (short"), None);
    }

    #[test]
    fn record_process_gauges_never_panics() {
        record_process_gauges();
    }
}
