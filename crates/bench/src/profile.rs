//! The `repro profile` experiment: the continuous sampling profiler on
//! the chaos workload, its paired on/off overhead benchmark, and the
//! chaos-verified SLO alert detection oracle (`BENCH_profile.json`).
//!
//! Three phases:
//!
//! 1. **Profile** — one chaos run sampled by the in-process profiler
//!    with the trace-event timeline recording; the folded stacks
//!    (flamegraph format) and Chrome `trace_event` JSON become on-disk
//!    artifacts.
//! 2. **Overhead** — the same workload run with the profiler
//!    alternating off/on in short paired segments (the
//!    [`paired_overhead`] routine `repro trace` also uses); the median
//!    paired ratio bounds the sampler's cost, and the chaos result
//!    digest is asserted byte-identical across the profiler switch and
//!    across worker threads 1/2/8.
//! 3. **Oracle** — every injected fault class must raise its mapped
//!    default alert rule, and a long clean seeded run must raise zero
//!    alerts: the alert engine's detection is verified against the
//!    chaos harness's ground truth, not just unit-tested.

use serde::Serialize;
use sies_net::chaos::{run_chaos, ChaosConfig};
use sies_net::journal::{FsyncPolicy, JournalConfig, Receipt, ReceiptJournal};
use sies_net::recovery::RecoveryConfig;
use sies_net::{PrewarmPolicy, Threads};
use sies_telemetry as tel;
use sies_telemetry::{AlertEngine, ProfileData, Profiler, TimelineCapture};
use std::time::Instant;

use crate::observability::{deployment, paired_overhead, workload_config, ThreadDigest};

// ---------------------------------------------------------------------
// Phase 1: profiled run → folded stacks + trace-event timeline
// ---------------------------------------------------------------------

/// One profiled chaos run's artifacts, ready to write to disk.
pub struct ProfileCapture {
    /// Folded stacks (`outer;inner count` per line) for flamegraph.pl /
    /// inferno / speedscope.
    pub folded: String,
    /// Chrome `trace_event` JSON timeline of every completed span.
    pub trace_json: String,
    /// Raw profile data (sample counts per stack).
    pub data: ProfileData,
    /// Timeline capture stats (event count, overflow drops).
    pub timeline: TimelineCapture,
    /// Chaos result digest of the profiled run.
    pub result_digest: String,
}

/// Runs `epochs` of the chaos workload under the sampling profiler and
/// the trace-event timeline, both at full telemetry.
pub fn profiled_run(seed: u64, epochs: u64, threads: Threads, hz: u32) -> ProfileCapture {
    let (dep, topo) = deployment(seed);
    let cfg = workload_config(seed, epochs, threads);

    tel::set_enabled(true);
    tel::start_recording(tel::DEFAULT_TIMELINE_CAPACITY);
    let profiler = Profiler::start(hz);
    let m = run_chaos(&dep, &topo, &cfg);
    let data = profiler.stop();
    let timeline = tel::stop_recording();
    tel::clear_enabled();

    ProfileCapture {
        folded: data.to_folded(),
        trace_json: tel::to_trace_json(&timeline.events),
        data,
        timeline,
        result_digest: m.result_digest,
    }
}

// ---------------------------------------------------------------------
// Phase 2: profiler overhead + digest transparency
// ---------------------------------------------------------------------

/// Profiler-on vs profiler-off cost on the chaos workload plus the
/// determinism evidence.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileOverhead {
    /// Epochs per mode per round (run as interleaved segment pairs).
    pub epochs: u64,
    /// Sampling frequency the profiled segments used.
    pub hz: u32,
    /// Measured rounds per profiler setting.
    pub runs_per_mode: u64,
    /// Wall-clock of each profiler-off round, milliseconds.
    pub off_ms: Vec<f64>,
    /// Wall-clock of each profiler-on round, milliseconds.
    pub on_ms: Vec<f64>,
    /// Median of `off_ms`.
    pub off_median_ms: f64,
    /// Median of `on_ms`.
    pub on_median_ms: f64,
    /// Median of the per-pair ratios `on_i / off_i`, minus one, in
    /// percent (the CI gate asserts ≤ 3.0). Paired alternating segments
    /// cancel host frequency drift out of each quotient.
    pub overhead_pct: f64,
    /// Result digest with the profiler off.
    pub digest_off: String,
    /// Result digest with the profiler on.
    pub digest_on: String,
    /// Whether the digests match (asserted: the sampler only reads).
    pub digests_match: bool,
    /// Digest per worker-thread count, profiler on.
    pub thread_digests: Vec<ThreadDigest>,
    /// Whether every thread count produced the same digest (asserted).
    pub threads_invariant: bool,
}

/// The sampling profiler through [`paired_overhead`]: telemetry stays ON
/// in both modes and only the sampler thread at `hz` is toggled, so the
/// measured delta is the profiler's own cost.
///
/// Panics if either determinism check fails: the suite doubles as the
/// profiler-transparency oracle.
pub fn profile_overhead(
    seed: u64,
    epochs: u64,
    threads: Threads,
    hz: u32,
    runs_per_mode: u64,
) -> ProfileOverhead {
    let p = paired_overhead(
        seed,
        epochs,
        threads,
        runs_per_mode,
        "profiler",
        |profiled, dep, topo, cfg| {
            tel::set_enabled(true);
            let profiler = profiled.then(|| Profiler::start(hz));
            let t0 = Instant::now();
            let m = run_chaos(dep, topo, cfg);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(p) = profiler {
                let _ = p.stop();
            }
            tel::clear_enabled();
            (ms, m.result_digest)
        },
    );
    ProfileOverhead {
        epochs,
        hz,
        runs_per_mode: p.runs_per_mode,
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

// ---------------------------------------------------------------------
// Phase 3: the alert detection oracle
// ---------------------------------------------------------------------

/// One fault-injection scenario's verdict.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// The default rule that must fire.
    pub expected_alert: String,
    /// Every rule that fired in the scenario's window.
    pub raised: Vec<String>,
    /// Whether `expected_alert` is among `raised`.
    pub detected: bool,
}

/// The full oracle outcome: every fault class detected, clean run quiet.
#[derive(Debug, Clone, Serialize)]
pub struct OracleReport {
    /// Per-fault-class scenario verdicts.
    pub scenarios: Vec<ScenarioResult>,
    /// Epochs of the clean seeded run.
    pub clean_epochs: u64,
    /// Alerts the clean run raised (must be 0).
    pub clean_alerts: u64,
    /// Rules that fired during the clean run (must be empty).
    pub clean_raised: Vec<String>,
    /// All scenarios detected and the clean run stayed quiet.
    pub passed: bool,
}

/// Evaluates the default rules over the global-registry diff produced
/// by `work`, returning the names of every rule that fired.
fn alert_window<F: FnOnce()>(engine: &AlertEngine, epoch: u64, work: F) -> Vec<String> {
    let before = tel::global().snapshot();
    work();
    let diff = tel::global().snapshot().diff(&before);
    engine
        .evaluate(&diff, epoch)
        .into_iter()
        .map(|a| a.rule)
        .collect()
}

/// Runs the detection oracle: a long clean seeded run first (its window
/// must raise zero alerts), then one scenario per fault class, each of
/// which must raise its mapped rule. Extra alerts inside a fault
/// scenario are legitimate (a crash epoch can also lose an epoch); a
/// missing expected alert is not.
pub fn detection_oracle(seed: u64, clean_epochs: u64, threads: Threads) -> OracleReport {
    let engine = AlertEngine::with_default_rules();
    let (dep, topo) = deployment(seed);

    tel::set_enabled(true);
    // Size the event ring for the largest window so a full ring never
    // bleeds `telemetry.events_dropped` into a clean window.
    let cap = (clean_epochs as usize)
        .saturating_mul(96)
        .clamp(4096, 1 << 20);
    tel::journal().set_capacity(cap);
    let _ = tel::journal().drain();

    let clean_cfg = ChaosConfig {
        seed,
        epochs: clean_epochs,
        loss_rate: 0.0,
        max_retries: 3,
        crash_prob: 0.0,
        attack_prob: 0.0,
        max_value: 1000,
        recovery: RecoveryConfig::default(),
        threads,
    };
    // Evaluate the clean run in chunks: each window must stay silent,
    // exactly the cadence a live alerting loop would use.
    let chunks = 8u64.min(clean_epochs.max(1));
    let chunk_epochs = (clean_epochs / chunks).max(1);
    let mut clean_raised: Vec<String> = Vec::new();
    for c in 0..chunks {
        let cfg = ChaosConfig {
            seed: seed.wrapping_add(c),
            epochs: chunk_epochs,
            ..clean_cfg
        };
        let mut raised = alert_window(&engine, c, || {
            let _ = run_chaos(&dep, &topo, &cfg);
        });
        clean_raised.append(&mut raised);
        let _ = tel::journal().drain();
    }
    let clean_alerts = clean_raised.len() as u64;

    let mut scenarios = Vec::new();
    let mut scenario = |name: &str, expected: &str, work: &mut dyn FnMut()| {
        let raised = alert_window(&engine, 0, work);
        let _ = tel::journal().drain();
        scenarios.push(ScenarioResult {
            name: name.to_string(),
            expected_alert: expected.to_string(),
            detected: raised.iter().any(|r| r == expected),
            raised,
        });
    };

    // Covert attacks every epoch → the scheme rejects at least one.
    scenario("attack_storm", "integrity_reject", &mut || {
        let cfg = ChaosConfig {
            attack_prob: 1.0,
            epochs: 40,
            ..clean_cfg
        };
        let _ = run_chaos(&dep, &topo, &cfg);
    });

    // Node crashes every epoch → orphans re-home to backup parents.
    scenario("crash_storm", "crash_churn", &mut || {
        let cfg = ChaosConfig {
            crash_prob: 1.0,
            epochs: 40,
            ..clean_cfg
        };
        let _ = run_chaos(&dep, &topo, &cfg);
    });

    // Heavy frame loss → the recovery protocol retransmits.
    scenario("lossy_links", "loss_retransmit", &mut || {
        let cfg = ChaosConfig {
            loss_rate: 0.5,
            epochs: 40,
            ..clean_cfg
        };
        let _ = run_chaos(&dep, &topo, &cfg);
    });

    // A starved event ring evicts events → the overflow counter climbs.
    scenario("event_ring_overflow", "events_dropped", &mut || {
        tel::journal().set_capacity(64);
        let cfg = ChaosConfig {
            epochs: 20,
            ..clean_cfg
        };
        let _ = run_chaos(&dep, &topo, &cfg);
        tel::journal().set_capacity(cap);
    });

    // A receipt journal that never fsyncs accumulates unsynced records
    // past the rule's 64-record durability budget.
    scenario("lazy_fsync", "fsync_lag", &mut || {
        let dir = std::env::temp_dir().join(format!("sies-profile-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("fsync-lag-{seed}.journal"));
        let jcfg = JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::default()
        };
        let mut journal = ReceiptJournal::create(&path, &jcfg).expect("journal create");
        for epoch in 0..100u64 {
            let mut receipt = Receipt {
                epoch,
                ..Receipt::default()
            };
            journal.record(&mut receipt);
        }
        let _ = std::fs::remove_file(&path);
    });
    // The lag gauge is absolute (diff keeps the latest value): park it
    // back at zero so later windows aren't haunted by this scenario.
    tel::set_gauge!("journal.fsync_lag", 0);

    // A cold, enabled prewarm pool misses every lookup.
    scenario("cold_prewarm", "prewarm_miss_rate", &mut || {
        dep.set_prewarm_policy(PrewarmPolicy::default());
        let cfg = ChaosConfig {
            epochs: 32,
            ..clean_cfg
        };
        let _ = run_chaos(&dep, &topo, &cfg);
        dep.set_prewarm_policy(PrewarmPolicy::disabled());
    });

    tel::clear_enabled();

    let passed = clean_alerts == 0 && scenarios.iter().all(|s| s.detected);
    OracleReport {
        scenarios,
        clean_epochs,
        clean_alerts,
        clean_raised,
        passed,
    }
}

// ---------------------------------------------------------------------
// The combined report (BENCH_profile.json)
// ---------------------------------------------------------------------

/// Everything `repro profile` measured, ready for `BENCH_profile.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Profiler samples captured in the profiled run.
    pub samples: u64,
    /// Samples where no instrumented span was live anywhere.
    pub idle_samples: u64,
    /// Distinct folded stacks observed.
    pub distinct_stacks: u64,
    /// Trace-event timeline entries captured.
    pub timeline_events: u64,
    /// Timeline entries lost to ring overflow.
    pub timeline_dropped: u64,
    /// The overhead + determinism phase.
    pub overhead: ProfileOverhead,
    /// The alert detection oracle.
    pub oracle: OracleReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sies_telemetry::switch_lock;

    #[test]
    fn profiled_run_captures_stacks_and_timeline() {
        let _guard = switch_lock();
        // 2 kHz sampling over a short run still lands samples: each
        // epoch holds the engine.epoch span for the whole epoch body.
        let cap = profiled_run(11, 30, Threads::serial(), 2000);
        assert_eq!(cap.result_digest.len(), 64);
        assert!(cap.data.samples + cap.data.idle_samples > 0, "no samples");
        assert!(
            cap.folded.contains("engine.epoch"),
            "profiled run should observe the epoch span, folded:\n{}",
            cap.folded
        );
        assert!(cap.trace_json.starts_with("{\"traceEvents\":["));
        assert!(
            cap.timeline.events.iter().any(|e| e.name == "engine.epoch"),
            "timeline should record completed epoch spans"
        );
    }

    #[test]
    fn profile_overhead_is_digest_transparent() {
        let _guard = switch_lock();
        let report = profile_overhead(7, 12, Threads::serial(), 499, 1);
        assert!(report.digests_match);
        assert!(report.threads_invariant);
        assert_eq!(report.thread_digests.len(), 3);
        assert!(report.off_median_ms > 0.0 && report.on_median_ms > 0.0);
    }

    #[test]
    fn oracle_detects_every_fault_class_and_stays_quiet_when_clean() {
        let _guard = switch_lock();
        let report = detection_oracle(13, 200, Threads::serial());
        assert_eq!(
            report.clean_alerts, 0,
            "clean run raised alerts: {:?}",
            report.clean_raised
        );
        for s in &report.scenarios {
            assert!(
                s.detected,
                "scenario {} failed to raise {} (raised: {:?})",
                s.name, s.expected_alert, s.raised
            );
        }
        assert!(report.passed);
    }
}
