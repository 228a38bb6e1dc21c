//! The `repro trace` experiment: structured per-epoch traces from the
//! telemetry stack and the telemetry-overhead benchmark
//! (`BENCH_observability.json`).
//!
//! Two phases:
//!
//! 1. **Trace** — a short chaos run with telemetry enabled and a journal
//!    sized to hold every event; the drained journal plus the global
//!    metric snapshot diff become one structured JSON document.
//! 2. **Overhead** — the reliability workload (the `adversarial` chaos
//!    mix) run repeatedly with the kill-switch alternating off/on;
//!    medians bound the record-site cost, and the chaos result digest is
//!    asserted byte-identical across the switch and across worker
//!    thread counts 1/2/8.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sies_core::SystemParams;
use sies_net::chaos::{run_chaos, ChaosConfig};
use sies_net::recovery::RecoveryConfig;
use sies_net::{SiesDeployment, Threads, Topology};
use sies_telemetry as tel;
use sies_telemetry::{Event, Snapshot};
use std::time::Instant;

/// The chaos mix every harness on [`deployment`] runs: the reliability
/// experiment's `adversarial` scenario (10% frame loss, 20% crash
/// epochs, 30% attack epochs).
pub fn workload_config(seed: u64, epochs: u64, threads: Threads) -> ChaosConfig {
    ChaosConfig {
        seed,
        epochs,
        loss_rate: 0.10,
        max_retries: 3,
        crash_prob: 0.20,
        attack_prob: 0.30,
        max_value: 1000,
        recovery: RecoveryConfig::default(),
        threads,
    }
}

/// The `N = 64, F = 4` SIES deployment every chaos harness in this crate
/// runs: the trace, both overhead benchmarks, the alert oracle,
/// forensics and recovery.
pub fn deployment(seed: u64) -> (SiesDeployment, Topology) {
    let n = 64u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    (dep, Topology::complete_tree(n, 4))
}

// ---------------------------------------------------------------------
// Phase 1: structured per-epoch trace
// ---------------------------------------------------------------------

/// A captured trace: the journal's typed events, the metric snapshot
/// diff the run produced, and the run's result fingerprint.
pub struct Trace {
    /// Epochs traced.
    pub epochs: u64,
    /// Chaos result digest of the traced run.
    pub result_digest: String,
    /// Every journal event the run recorded, in order.
    pub events: Vec<Event>,
    /// Events evicted because the ring filled (0 when the journal was
    /// sized for the run).
    pub dropped: u64,
    /// Global metric diff attributable to the traced run.
    pub metrics: Snapshot,
}

impl Trace {
    /// Renders the trace as one JSON document: run metadata, the event
    /// stream, and the metric snapshot.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 4096);
        out.push_str("{\n  \"epochs\": ");
        out.push_str(&self.epochs.to_string());
        out.push_str(",\n  \"result_digest\": \"");
        out.push_str(&self.result_digest);
        out.push_str("\",\n  \"dropped_events\": ");
        out.push_str(&self.dropped.to_string());
        out.push_str(",\n  \"events\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&ev.to_json());
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"metrics\": ");
        out.push_str(&self.metrics.to_json());
        out.push_str("\n}\n");
        out
    }

    /// Events recorded for one epoch, in journal order.
    pub fn epoch_events(&self, epoch: u64) -> Vec<&Event> {
        self.events.iter().filter(|e| e.epoch == epoch).collect()
    }
}

/// Runs `epochs` of the trace workload with telemetry enabled and a
/// journal sized to hold every event, then drains journal and metrics.
pub fn capture_trace(seed: u64, epochs: u64, threads: Threads) -> Trace {
    let (dep, topo) = deployment(seed);
    let cfg = workload_config(seed, epochs, threads);

    tel::set_enabled(true);
    // ~96 events/epoch bounds the adversarial mix at N=64 comfortably.
    let cap = (epochs as usize).saturating_mul(96).clamp(4096, 1 << 20);
    tel::journal().set_capacity(cap);
    let _ = tel::journal().drain();
    let dropped_before = tel::journal().dropped();
    let before = tel::global().snapshot();

    let m = run_chaos(&dep, &topo, &cfg);

    let after = tel::global().snapshot();
    let events = tel::journal().drain();
    let dropped = tel::journal().dropped() - dropped_before;
    tel::clear_enabled();

    Trace {
        epochs,
        result_digest: m.result_digest,
        events,
        dropped,
        metrics: after.diff(&before),
    }
}

// ---------------------------------------------------------------------
// Phase 2: overhead benchmark
// ---------------------------------------------------------------------

/// Digest of one thread-count determinism run (the measured feature
/// on).
#[derive(Debug, Clone, Serialize)]
pub struct ThreadDigest {
    /// Worker threads the run used.
    pub threads: u64,
    /// Chaos result digest it produced.
    pub digest: String,
}

/// Paired feature-off vs feature-on rounds of the chaos workload plus the
/// determinism evidence: what [`paired_overhead`] measures for `repro
/// trace` (the telemetry kill-switch) and `repro profile` (the sampler).
#[derive(Debug)]
pub struct PairedOverhead {
    /// Measured rounds per setting.
    pub runs_per_mode: u64,
    /// Wall-clock of each feature-off round, milliseconds.
    pub off_ms: Vec<f64>,
    /// Wall-clock of each feature-on round, milliseconds.
    pub on_ms: Vec<f64>,
    /// Median of `off_ms`.
    pub off_median_ms: f64,
    /// Median of `on_ms`.
    pub on_median_ms: f64,
    /// Median of the per-round ratios `on_i / off_i`, minus one, in
    /// percent; negative means noise favoured on.
    pub overhead_pct: f64,
    /// Result digest with the feature off.
    pub digest_off: String,
    /// Result digest with the feature on.
    pub digest_on: String,
    /// Whether the digests match (asserted: they must).
    pub digests_match: bool,
    /// Digest per worker-thread count, feature on.
    pub thread_digests: Vec<ThreadDigest>,
    /// Whether every thread count produced the same digest (asserted).
    pub threads_invariant: bool,
}

fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Measures the chaos workload `runs_per_mode` rounds per setting of a
/// switchable `feature`, then checks digest identity across the switch
/// and, with the feature on, across threads 1/2/8.
///
/// `run_seg(on, dep, topo, cfg)` runs one segment of the workload with
/// the feature on or off and returns its wall-clock in milliseconds and
/// its chaos result digest.
///
/// Panics if either determinism check fails — each benchmark doubles as
/// its feature's transparency oracle.
pub fn paired_overhead(
    seed: u64,
    epochs: u64,
    threads: Threads,
    runs_per_mode: u64,
    feature: &str,
    mut run_seg: impl FnMut(bool, &SiesDeployment, &Topology, &ChaosConfig) -> (f64, String),
) -> PairedOverhead {
    let (dep, topo) = deployment(seed);

    // Hosts (especially shared or thermally-throttled single-core ones)
    // flip between CPU frequency states on a ~100 ms timescale, which
    // makes whole-run wall-clocks bimodal. Chopping each measured round
    // into short alternating off/on segment pairs keeps both modes
    // inside the same host state, so the per-round ratio compares like
    // with like; the identical segment workload also means every
    // segment's digest is directly comparable across modes.
    const SEGMENTS: u64 = 20;
    let seg_epochs = (epochs / SEGMENTS).max(1);
    let cfg = workload_config(seed, seg_epochs, threads);

    let mut off_ms = Vec::new();
    let mut on_ms = Vec::new();
    let mut digest_off = String::new();
    let mut digest_on = String::new();
    for _ in 0..runs_per_mode.max(1) {
        let mut off_t = 0.0;
        let mut on_t = 0.0;
        for seg in 0..SEGMENTS {
            // Balance pair order (off-first on even segments, on-first
            // on odd) so neither mode systematically occupies the same
            // position relative to periodic host-state flips.
            let first_off = seg % 2 == 0;
            let (ms_a, d_a) = run_seg(!first_off, &dep, &topo, &cfg);
            let (ms_b, d_b) = run_seg(first_off, &dep, &topo, &cfg);
            let (ms_off, d_off, ms_on, d_on) = if first_off {
                (ms_a, d_a, ms_b, d_b)
            } else {
                (ms_b, d_b, ms_a, d_a)
            };
            off_t += ms_off;
            digest_off = d_off;
            on_t += ms_on;
            digest_on = d_on;
        }
        off_ms.push(off_t);
        on_ms.push(on_t);
    }
    let digests_match = digest_off == digest_on;
    assert!(
        digests_match,
        "{feature} changed the chaos result digest: off={digest_off} on={digest_on}"
    );

    let thread_digests: Vec<ThreadDigest> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            let cfg = ChaosConfig {
                threads: Threads::fixed(t),
                ..cfg
            };
            ThreadDigest {
                threads: t as u64,
                digest: run_seg(true, &dep, &topo, &cfg).1,
            }
        })
        .collect();
    let threads_invariant = thread_digests
        .iter()
        .all(|d| d.digest == thread_digests[0].digest && d.digest == digest_on);
    assert!(
        threads_invariant,
        "chaos result digest varied with thread count ({feature} on): {thread_digests:?}"
    );

    let ratios: Vec<f64> = off_ms.iter().zip(&on_ms).map(|(o, n)| n / o).collect();
    PairedOverhead {
        runs_per_mode: runs_per_mode.max(1),
        off_median_ms: median(&off_ms),
        on_median_ms: median(&on_ms),
        overhead_pct: (median(&ratios) - 1.0) * 100.0,
        off_ms,
        on_ms,
        digest_off,
        digest_on,
        digests_match,
        thread_digests,
        threads_invariant,
    }
}

/// Telemetry-on vs telemetry-off cost on the reliability workload, plus
/// the determinism evidence, ready for `BENCH_observability.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ObservabilityReport {
    /// Epochs measured per mode per round (run as twenty interleaved
    /// segments of `epochs / 20`).
    pub epochs: u64,
    /// Measured rounds per kill-switch setting.
    pub runs_per_mode: u64,
    /// Wall-clock of each telemetry-off round, milliseconds.
    pub off_ms: Vec<f64>,
    /// Wall-clock of each telemetry-on round, milliseconds.
    pub on_ms: Vec<f64>,
    /// Median of `off_ms`.
    pub off_median_ms: f64,
    /// Median of `on_ms`.
    pub on_median_ms: f64,
    /// Best (minimum) of `off_ms`.
    pub off_min_ms: f64,
    /// Best (minimum) of `on_ms`.
    pub on_min_ms: f64,
    /// Median of the per-pair ratios `on_i / off_i`, minus one, in
    /// percent; negative means noise favoured on. The runs alternate
    /// off/on, so each ratio compares two back-to-back runs and host
    /// frequency drift cancels out of the quotient (the same
    /// interleaved-sampling idiom `repro micro` uses); the median then
    /// sheds pairs hit by a scheduling burst. Medians, minima and raw
    /// samples are reported alongside for context.
    pub overhead_pct: f64,
    /// Result digest with telemetry off.
    pub digest_off: String,
    /// Result digest with telemetry on.
    pub digest_on: String,
    /// Whether the digests match (asserted: they must).
    pub digests_match: bool,
    /// Digest per worker-thread count, telemetry on.
    pub thread_digests: Vec<ThreadDigest>,
    /// Whether every thread count produced the same digest.
    pub threads_invariant: bool,
}

/// The telemetry kill-switch through [`paired_overhead`]: each segment
/// runs with telemetry forced off or on.
///
/// Panics if either determinism check fails — the benchmark doubles as
/// the telemetry-transparency oracle.
pub fn overhead_suite(
    seed: u64,
    epochs: u64,
    threads: Threads,
    runs_per_mode: u64,
) -> ObservabilityReport {
    let p = paired_overhead(
        seed,
        epochs,
        threads,
        runs_per_mode,
        "telemetry",
        |on, dep, topo, cfg| {
            tel::set_enabled(on);
            let t0 = Instant::now();
            let m = run_chaos(dep, topo, cfg);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tel::clear_enabled();
            (ms, m.result_digest)
        },
    );
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    ObservabilityReport {
        epochs,
        runs_per_mode: p.runs_per_mode,
        off_min_ms: min(&p.off_ms),
        on_min_ms: min(&p.on_ms),
        off_ms: p.off_ms,
        on_ms: p.on_ms,
        off_median_ms: p.off_median_ms,
        on_median_ms: p.on_median_ms,
        overhead_pct: p.overhead_pct,
        digest_off: p.digest_off,
        digest_on: p.digest_on,
        digests_match: p.digests_match,
        thread_digests: p.thread_digests,
        threads_invariant: p.threads_invariant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sies_telemetry::switch_lock;

    #[test]
    fn trace_captures_events_and_metrics() {
        let _guard = switch_lock();
        // The journal and kill-switch are process-global and the switch
        // defaults ON, so unrelated tests running concurrently in this
        // binary can push events into the shared ring and evict ours.
        // Capturing is deterministic: re-capture if a concurrent burst
        // polluted the window (drops are all but impossible thrice).
        let mut trace = capture_trace(5, 8, Threads::serial());
        for _ in 0..2 {
            if trace.dropped == 0 {
                break;
            }
            trace = capture_trace(5, 8, Threads::serial());
        }
        assert_eq!(trace.epochs, 8);
        assert_eq!(trace.result_digest.len(), 64);
        assert_eq!(trace.dropped, 0);
        assert!(
            trace.events.len() >= 8 * 3,
            "expected at least dissemination/source-init/verdict per epoch, got {}",
            trace.events.len()
        );
        // Every epoch shows up, and the per-epoch view agrees.
        for epoch in 0..8 {
            assert!(
                !trace.epoch_events(epoch).is_empty(),
                "epoch {epoch} recorded no events"
            );
        }
        assert!(trace.metrics.counter("engine.sources_run") >= 8);
        let json = trace.to_json();
        assert!(json.contains("\"result_digest\""));
        assert!(json.contains("query_disseminated"));
    }

    #[test]
    fn overhead_suite_is_deterministic_across_modes() {
        let _guard = switch_lock();
        let report = overhead_suite(7, 12, Threads::serial(), 1);
        assert!(report.digests_match);
        assert!(report.threads_invariant);
        assert_eq!(report.thread_digests.len(), 3);
        assert!(report.off_median_ms > 0.0 && report.on_median_ms > 0.0);
    }
}
