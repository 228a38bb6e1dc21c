//! Crash-restart recovery from the signed receipt journal (PR
//! acceptance gate).
//!
//! A SIES querier's verification state must survive its own death: the
//! journal is the only thing a restarted querier trusts, so these tests
//! drive the full loop — chaos run, seeded kills, journal-only rebuild —
//! and assert the restarted run is indistinguishable from one that never
//! crashed:
//!
//! * ≥500-epoch kill-restart smoke with ≥3 seeded kill points: zero
//!   false accepts, zero false rejects, metrics and result digest
//!   byte-identical to the uninterrupted run;
//! * the same identity at every worker-thread count (the determinism
//!   matrix's restart leg — CI sweeps `SIES_TEST_THREADS` ∈ {1, 2, 3, 8});
//! * a torn final record (crash mid-write) tolerated end-to-end: the
//!   journal resumes, re-records the torn epoch, and a cold replay of
//!   the finished file still matches the live digest.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_core::SystemParams;
use sies_net::chaos::{run_chaos, run_chaos_with_restarts, ChaosConfig, RestartConfig};
use sies_net::journal::{replay, JournalConfig, ReceiptJournal};
use sies_net::{SiesDeployment, Threads, Topology};
use std::path::PathBuf;

const N: u64 = 64;
const F: usize = 4;

fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, 8];
    if let Some(t) = std::env::var("SIES_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if t > 0 && !sweep.contains(&t) {
            sweep.push(t);
        }
    }
    sweep
}

fn deployment(seed: u64) -> (SiesDeployment, Topology) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        SiesDeployment::new(&mut rng, SystemParams::new(N).unwrap()),
        Topology::complete_tree(N, F),
    )
}

fn chaos_config(seed: u64, epochs: u64, threads: Threads) -> ChaosConfig {
    ChaosConfig {
        seed,
        epochs,
        loss_rate: 0.10,
        crash_prob: 0.20,
        attack_prob: 0.30,
        threads,
        ..ChaosConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sies-restart-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The CI recovery smoke: 500 adversarial epochs, 3 seeded querier
/// kills, recovery from the journal alone — and nothing distinguishes
/// the result from the run that never died.
#[test]
fn kill_restart_smoke_is_sound_and_loses_nothing() {
    let (dep, topo) = deployment(31);
    let cfg = chaos_config(31, 500, Threads::serial());
    let baseline = run_chaos(&dep, &topo, &cfg);
    assert!(baseline.sound());

    let kill_epochs = RestartConfig::seeded_kills(77, cfg.epochs, 3);
    assert_eq!(kill_epochs.len(), 3);
    let rcfg = RestartConfig {
        journal_path: tmp("smoke.journal"),
        journal: JournalConfig::default(),
        kill_epochs,
    };
    let out = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).unwrap();

    assert_eq!(out.restarts, 3);
    assert!(out.replayed_receipts > 0);
    assert_eq!(out.metrics.false_accepts, 0, "false accept across restart");
    assert_eq!(out.metrics.false_rejects, 0, "false reject across restart");
    assert_eq!(out.metrics.sum_mismatches, 0);
    assert_eq!(
        out.metrics, baseline,
        "restarted run must be byte-identical to the uninterrupted run"
    );
    std::fs::remove_file(&rcfg.journal_path).unwrap();
}

/// The determinism matrix's restart leg: the replayed-from-journal
/// digest equals the uninterrupted digest at every worker-thread count.
#[test]
fn restart_digest_is_thread_count_invariant() {
    let (dep, topo) = deployment(47);
    let base_cfg = chaos_config(47, 120, Threads::serial());
    let baseline = run_chaos(&dep, &topo, &base_cfg);

    let kill_epochs = RestartConfig::seeded_kills(9, base_cfg.epochs, 3);
    for threads in thread_sweep() {
        let cfg = ChaosConfig {
            threads: Threads::fixed(threads),
            ..base_cfg
        };
        let rcfg = RestartConfig {
            journal_path: tmp(&format!("threads-{threads}.journal")),
            journal: JournalConfig::default(),
            kill_epochs: kill_epochs.clone(),
        };
        let out = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).unwrap();
        assert_eq!(
            out.metrics.result_digest, baseline.result_digest,
            "restart digest diverged at {threads} threads"
        );
        assert_eq!(
            out.metrics, baseline,
            "metrics diverged at {threads} threads"
        );
        std::fs::remove_file(&rcfg.journal_path).unwrap();
    }
}

/// Crash *mid-write*: the journal's final record is torn at an arbitrary
/// byte. Resume truncates the tail, re-records the torn epoch, and the
/// finished journal cold-replays to the same digest as a live run.
#[test]
fn torn_tail_recovery_end_to_end() {
    let (dep, topo) = deployment(53);
    let cfg = chaos_config(53, 30, Threads::serial());
    let baseline = run_chaos(&dep, &topo, &cfg);

    // Journal the full run live, then tear the last record.
    let path = tmp("torn-e2e.journal");
    let jcfg = JournalConfig::default();
    let rcfg = RestartConfig {
        journal_path: path.clone(),
        journal: jcfg.clone(),
        kill_epochs: vec![],
    };
    let out = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).unwrap();
    assert_eq!(out.metrics, baseline);

    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);

    // The restarted querier sees 29 intact receipts plus torn evidence…
    let (mut journal, state) = ReceiptJournal::resume(&path, &jcfg).unwrap();
    assert_eq!(state.summary.receipts.len() as u64, cfg.epochs - 1);
    assert!(state.summary.torn_tail.is_some());
    assert_eq!(state.next_epoch, cfg.epochs - 1);

    // …re-runs the torn epoch on a fresh network replica of the same
    // seed (deterministic, so the receipt is bit-identical), and ends
    // with a journal whose cold replay matches the uninterrupted run.
    let rerun = run_chaos(&dep, &topo, &cfg);
    assert_eq!(rerun.result_digest, baseline.result_digest);
    // Rebuild the torn epoch's receipt by replaying the chaos stream up
    // to it: simplest honest stand-in for "the engine re-runs epoch 29".
    let replayed = state.summary.receipts.clone();
    drop(state);
    let mut complete = ChaosConfig { epochs: 30, ..cfg };
    complete.threads = Threads::serial();
    let full_path = tmp("torn-e2e-full.journal");
    let full_rcfg = RestartConfig {
        journal_path: full_path.clone(),
        journal: jcfg.clone(),
        kill_epochs: vec![],
    };
    let _ = run_chaos_with_restarts(&dep, &topo, &complete, &full_rcfg).unwrap();
    let full = replay(&full_path, &jcfg).unwrap();
    let mut torn_epoch_receipt = full.summary.receipts.last().unwrap().clone();
    assert_eq!(torn_epoch_receipt.epoch, 29);
    assert_eq!(&full.summary.receipts[..29], &replayed[..]);

    journal.record(&mut torn_epoch_receipt);
    journal.finish().unwrap();

    let healed = replay(&path, &jcfg).unwrap();
    assert_eq!(healed.summary.receipts.len() as u64, cfg.epochs);
    assert!(healed.summary.torn_tail.is_none());
    use sies_crypto::HashFunction;
    let digest: String = healed
        .digest
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        digest, baseline.result_digest,
        "healed journal must replay to the live digest"
    );

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&full_path).unwrap();
}
