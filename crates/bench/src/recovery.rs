//! The `repro recovery` experiment: crash-restart recovery from the
//! durable signed receipt journal (`BENCH_recovery.json`).
//!
//! Three claims, all asserted (the benchmark doubles as the recovery
//! oracle):
//!
//! 1. **Digest identity across restarts** — a chaos run whose querier is
//!    killed at seeded epochs and rebuilt *only* from the journal ends
//!    with metrics and a result digest byte-identical to the same
//!    seed's uninterrupted run, at worker threads 1/2/8.
//! 2. **Soundness across restarts** — zero false accepts, zero false
//!    rejects, zero sum mismatches, restarts included.
//! 3. **Replay equals live** — a cold [`replay`] of the finished
//!    journal reproduces the live digest, and its throughput
//!    (records/sec, MB/sec) plus the journal's bytes/epoch are the
//!    numbers a deployment would size its recovery window with.

use serde::Serialize;
use sies_net::chaos::{
    run_chaos, run_chaos_with_restarts, ChaosConfig, ChaosMetrics, RestartConfig,
};
use sies_net::journal::{replay, JournalConfig};
use sies_net::Threads;
use std::path::PathBuf;
use std::time::Instant;

use crate::observability::{deployment, workload_config};

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sies-recovery-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.journal"))
}

/// Digest of one restarted run at a given worker-thread count.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadDigest {
    /// Worker threads the run used.
    pub threads: u64,
    /// Chaos result digest the restarted run produced.
    pub digest: String,
    /// Kill-restart cycles the run executed.
    pub restarts: u64,
}

/// Everything `repro recovery` measures, ready for
/// `BENCH_recovery.json`.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryReport {
    /// Epochs per run.
    pub epochs: u64,
    /// Seeded epochs at whose start the querier was killed.
    pub kill_epochs: Vec<u64>,
    /// Kill-restart cycles executed by the primary restarted run.
    pub restarts: u64,
    /// Receipts replayed from the journal across all restarts.
    pub replayed_receipts: u64,
    /// Restarts that found (and tolerated) a torn final record.
    pub torn_tails: u64,
    /// Final journal size in bytes.
    pub journal_bytes: u64,
    /// Journal bytes per epoch (size / epochs).
    pub bytes_per_epoch: f64,
    /// Wall-clock of one cold full-journal replay, milliseconds.
    pub replay_ms: f64,
    /// Receipts authenticated and folded per second during that replay.
    pub replay_records_per_sec: f64,
    /// Journal megabytes scanned per second during that replay.
    pub replay_mb_per_sec: f64,
    /// Result digest of the uninterrupted run.
    pub live_digest: String,
    /// Result digest of the kill-restart run.
    pub restarted_digest: String,
    /// Result digest rebuilt by the cold replay alone.
    pub replayed_digest: String,
    /// Whether all three digests are byte-identical (asserted).
    pub digests_match: bool,
    /// False accepts across the restarted run (asserted zero).
    pub false_accepts: u64,
    /// False rejects across the restarted run (asserted zero).
    pub false_rejects: u64,
    /// Sum mismatches across the restarted run (asserted zero).
    pub sum_mismatches: u64,
    /// Availability of the restarted run.
    pub availability: f64,
    /// Restarted-run digest per worker-thread count.
    pub thread_digests: Vec<ThreadDigest>,
    /// Whether every thread count matched the live digest (asserted).
    pub threads_invariant: bool,
}

fn hex_of(digest: sies_crypto::sha256::Sha256) -> String {
    use sies_crypto::HashFunction;
    digest
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Runs the recovery benchmark: an uninterrupted baseline, a seeded
/// kill-restart run on the same fault stream, a thread sweep at 1/2/8,
/// and a timed cold replay of the finished journal. When `keep_journal`
/// is set, the primary run's finished journal is copied there (CI
/// uploads it as the run's durable artifact).
///
/// Panics if any digest diverges or any run is unsound — recovery that
/// loses or invents state must fail the benchmark, not ship a number.
pub fn recovery_suite(
    seed: u64,
    epochs: u64,
    threads: Threads,
    kills: usize,
    keep_journal: Option<&std::path::Path>,
) -> RecoveryReport {
    let (dep, topo) = deployment(seed);
    let cfg = workload_config(seed, epochs, threads);
    let baseline = run_chaos(&dep, &topo, &cfg);

    let jcfg = JournalConfig {
        session: seed,
        capacity: epochs.max(1024),
        ..JournalConfig::default()
    };
    // A dedicated kill-schedule seed keeps the fault stream identical to
    // the baseline's.
    let kill_epochs = RestartConfig::seeded_kills(seed.wrapping_add(0x9E37), epochs, kills);

    let assert_run = |m: &ChaosMetrics, restarts: u64, label: &str| {
        assert!(
            m.sound(),
            "{label}: unsound across restarts (fa={} fr={} sm={})",
            m.false_accepts,
            m.false_rejects,
            m.sum_mismatches
        );
        assert_eq!(
            m.result_digest, baseline.result_digest,
            "{label}: restarted digest diverged from the uninterrupted run"
        );
        assert_eq!(restarts, kill_epochs.len() as u64, "{label}: missed kills");
    };

    let rcfg = RestartConfig {
        journal_path: journal_path(&format!("primary-{seed}")),
        journal: jcfg.clone(),
        kill_epochs: kill_epochs.clone(),
    };
    let out = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).expect("journal I/O failed");
    assert_run(&out.metrics, out.restarts, "primary");
    assert_eq!(
        out.metrics, baseline,
        "restarted metrics diverged from the uninterrupted run"
    );

    // Cold replay of the finished journal: authenticate every record,
    // rebuild the digest, time it.
    let journal_bytes = std::fs::metadata(&rcfg.journal_path)
        .map(|m| m.len())
        .unwrap_or(0);
    let t0 = Instant::now();
    let state = replay(&rcfg.journal_path, &jcfg).expect("cold replay failed");
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replayed_digest = hex_of(state.digest.clone());
    assert_eq!(
        replayed_digest, baseline.result_digest,
        "cold replay digest diverged from the live run"
    );
    assert_eq!(state.summary.receipts.len() as u64, epochs);
    let replay_secs = (replay_ms / 1e3).max(1e-9);
    let replay_records_per_sec = state.summary.receipts.len() as f64 / replay_secs;
    let replay_mb_per_sec = journal_bytes as f64 / 1e6 / replay_secs;

    // Thread sweep: the whole kill-restart story must be worker-count
    // invariant, like every other engine metric.
    let thread_digests: Vec<ThreadDigest> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            let cfg = ChaosConfig {
                threads: Threads::fixed(t),
                ..cfg
            };
            let rcfg = RestartConfig {
                journal_path: journal_path(&format!("threads{t}-{seed}")),
                journal: jcfg.clone(),
                kill_epochs: kill_epochs.clone(),
            };
            let out = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).expect("journal I/O");
            assert_run(&out.metrics, out.restarts, &format!("threads={t}"));
            let _ = std::fs::remove_file(&rcfg.journal_path);
            ThreadDigest {
                threads: t as u64,
                digest: out.metrics.result_digest,
                restarts: out.restarts,
            }
        })
        .collect();
    let threads_invariant = thread_digests
        .iter()
        .all(|d| d.digest == baseline.result_digest);
    assert!(
        threads_invariant,
        "thread sweep diverged: {thread_digests:?}"
    );
    if let Some(dest) = keep_journal {
        if let Some(parent) = dest.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _ = std::fs::copy(&rcfg.journal_path, dest);
    }
    let _ = std::fs::remove_file(&rcfg.journal_path);

    RecoveryReport {
        epochs,
        kill_epochs,
        restarts: out.restarts,
        replayed_receipts: out.replayed_receipts,
        torn_tails: out.torn_tails,
        journal_bytes,
        bytes_per_epoch: journal_bytes as f64 / epochs.max(1) as f64,
        replay_ms,
        replay_records_per_sec,
        replay_mb_per_sec,
        live_digest: baseline.result_digest.clone(),
        restarted_digest: out.metrics.result_digest.clone(),
        replayed_digest,
        digests_match: true,
        false_accepts: out.metrics.false_accepts,
        false_rejects: out.metrics.false_rejects,
        sum_mismatches: out.metrics.sum_mismatches,
        availability: out.metrics.availability(),
        thread_digests,
        threads_invariant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Engine runs record into the process-global event journal; every
    // such test holds the shared switch lock so the capture tests
    // (observability, profile, forensics) see only their own events.
    use sies_telemetry::switch_lock;

    #[test]
    fn recovery_suite_asserts_identity_on_a_short_run() {
        let _guard = switch_lock();
        let report = recovery_suite(5, 40, Threads::serial(), 2, None);
        assert_eq!(report.epochs, 40);
        assert_eq!(report.kill_epochs.len(), 2);
        assert_eq!(report.restarts, 2);
        assert!(report.digests_match && report.threads_invariant);
        assert!(report.replayed_receipts > 0);
        assert!(report.journal_bytes > 0);
        assert!(report.bytes_per_epoch > 0.0);
        assert_eq!(report.live_digest, report.replayed_digest);
        assert_eq!(report.false_accepts + report.false_rejects, 0);
    }
}
