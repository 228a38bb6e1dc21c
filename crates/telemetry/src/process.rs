//! Process-level gauges: peak RSS and per-node footprint.
//!
//! The million-sensor throughput experiment promises a *stated* memory
//! budget, so the budget has to be machine-readable: `repro throughput`
//! emits these gauges into `BENCH_throughput.json` and CI gates on
//! bytes-per-node. Peak RSS comes from the kernel (`VmHWM` in
//! `/proc/self/status`), which covers everything the process ever held —
//! key material and allocator slack included — while the bytes-per-node
//! gauge is the engine's own accounting of its reusable epoch state.
//!
//! The procfs reader degrades gracefully off Linux: it returns `None`,
//! the recorder records nothing, and callers treat the value as
//! *unknown*, never zero.

use crate::registry::global;

/// Gauge name for the process's peak resident set size, in bytes.
pub const PEAK_RSS_GAUGE: &str = "process.peak_rss_bytes";

/// Gauge name for the epoch engine's per-node state footprint, in bytes
/// (arena + the pipeline's epoch buffers, excluding scheme key material).
pub const BYTES_PER_NODE_GAUGE: &str = "engine.bytes_per_node";

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
}
