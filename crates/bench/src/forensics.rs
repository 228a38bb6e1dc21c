//! Forensic attack timelines (`repro trace --forensics`): one journaled
//! chaos run is dissected into per-epoch incident reports by
//! correlating two independent evidence streams — the telemetry event
//! journal (what the live instrumentation saw) and the signed receipt
//! journal replayed from disk (what the querier durably committed).
//!
//! The correlation is itself an oracle: for every incident epoch the
//! receipt's ground-truth flags must agree with the telemetry events
//! (an injected attack shows an `attack_injected` event, a rejected
//! verdict shows an `epoch_rejected` event, each adoption shows its
//! `reattach`), and the replayed digest must match the live one. A
//! forensic pipeline that can't reconcile its own evidence streams
//! can't be trusted on a real incident.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sies_core::SystemParams;
use sies_net::chaos::{run_chaos_with_restarts, RestartConfig};
use sies_net::journal::{replay, JournalConfig};
use sies_net::{SiesDeployment, Threads, Topology};
use sies_telemetry as tel;
use sies_telemetry::{Event, EventKind};
use std::collections::BTreeMap;
use std::path::Path;

use crate::observability::workload_config;

fn hex_of(digest: sies_crypto::sha256::Sha256) -> String {
    use sies_crypto::HashFunction;
    digest
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// One event kind's tally within an incident epoch.
#[derive(Debug, Clone, Serialize)]
pub struct EventCount {
    /// Event kind name (journal vocabulary, e.g. `reattach`).
    pub kind: String,
    /// Occurrences within the epoch.
    pub count: u64,
}

/// One epoch's reconstructed incident: receipt ground truth, the
/// telemetry events that corroborate it, and the cross-checks.
#[derive(Debug, Clone, Serialize)]
pub struct EpochIncident {
    /// The epoch.
    pub epoch: u64,
    /// The querier's durable verdict (`accepted`/`rejected`/`lost`).
    pub verdict: String,
    /// Receipt flag: the harness injected node crashes this epoch.
    pub crash_injected: bool,
    /// Receipt flag: the harness injected a covert attack this epoch.
    pub attack_injected: bool,
    /// Receipt flag: the attack actually corrupted the aggregate.
    pub corrupted: bool,
    /// Orphans re-homed to backup parents (from the receipt).
    pub adoptions: u64,
    /// Uplinks lost after all re-solicitation rounds (from the receipt).
    pub lost_links: u64,
    /// Telemetry event counts for this epoch, by kind name.
    pub events: Vec<EventCount>,
    /// Cross-check failures between the two evidence streams (empty for
    /// a consistent epoch).
    pub anomalies: Vec<String>,
}

/// The full forensic timeline of one journaled chaos run.
#[derive(Debug, Clone, Serialize)]
pub struct ForensicsReport {
    /// Epochs executed.
    pub epochs: u64,
    /// Telemetry events correlated.
    pub events_correlated: u64,
    /// Receipts replayed from the signed journal.
    pub receipts_replayed: u64,
    /// Result digest the live run folded.
    pub live_digest: String,
    /// Result digest the cold journal replay rebuilt.
    pub replayed_digest: String,
    /// Whether the two digests are byte-identical (asserted).
    pub digests_match: bool,
    /// Epochs where something happened: a non-accepted verdict, an
    /// injected fault, churn, or link loss.
    pub incidents: Vec<EpochIncident>,
    /// Epochs with zero anomalies across all incidents.
    pub consistent: bool,
}

/// Cross-checks one epoch's receipt against its telemetry events.
fn cross_check(
    inc: &EpochIncident,
    count: impl Fn(EventKind) -> u64,
    journal_saw_epoch: bool,
) -> Vec<String> {
    let mut anomalies = Vec::new();
    // The telemetry ring is bounded; only audit epochs it still holds.
    if !journal_saw_epoch {
        return anomalies;
    }
    if inc.attack_injected && count(EventKind::AttackInjected) == 0 {
        anomalies.push("receipt says attack injected; no attack_injected event".into());
    }
    if inc.crash_injected && count(EventKind::CrashInjected) == 0 {
        anomalies.push("receipt says crash injected; no crash_injected event".into());
    }
    if inc.adoptions != count(EventKind::Reattach) {
        anomalies.push(format!(
            "receipt counts {} adoptions; journal holds {} reattach events",
            inc.adoptions,
            count(EventKind::Reattach)
        ));
    }
    let verdict_kind = match inc.verdict.as_str() {
        "accepted" => EventKind::EpochAccepted,
        "rejected" => EventKind::EpochRejected,
        _ => EventKind::EpochLost,
    };
    if count(verdict_kind) == 0 {
        anomalies.push(format!(
            "receipt verdict {} has no matching verdict event",
            inc.verdict
        ));
    }
    anomalies
}

/// Runs the adversarial chaos workload with every receipt journaled,
/// captures the telemetry event stream alongside, replays the signed
/// journal cold, and correlates the two into per-epoch incidents.
pub fn forensic_timeline(
    seed: u64,
    epochs: u64,
    threads: Threads,
    journal_path: &Path,
) -> ForensicsReport {
    let n = 64u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);
    let cfg = workload_config(seed, epochs, threads);
    let jcfg = JournalConfig {
        session: seed.wrapping_mul(2).wrapping_add(1),
        capacity: epochs.max(1),
        ..JournalConfig::default()
    };
    let rcfg = RestartConfig {
        journal_path: journal_path.to_path_buf(),
        journal: jcfg.clone(),
        kill_epochs: Vec::new(),
    };

    tel::set_enabled(true);
    let cap = (epochs as usize).saturating_mul(96).clamp(4096, 1 << 20);
    tel::journal().set_capacity(cap);
    let _ = tel::journal().drain();

    let outcome = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).expect("journal I/O failed");
    let events = tel::journal().drain();
    tel::clear_enabled();

    // Independent evidence stream 2: the signed journal, replayed cold.
    let state = replay(journal_path, &jcfg).expect("forensic replay failed");
    let replayed_digest = hex_of(state.digest.clone());
    let live_digest = outcome.metrics.result_digest.clone();
    let digests_match = live_digest == replayed_digest;
    assert!(
        digests_match,
        "replayed journal digest diverged from the live run: live={live_digest} replayed={replayed_digest}"
    );

    // Index the telemetry stream by epoch.
    let mut by_epoch: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for ev in &events {
        by_epoch.entry(ev.epoch).or_default().push(ev);
    }

    let mut incidents = Vec::new();
    for receipt in &state.summary.receipts {
        let quiet = receipt.verdict == sies_receipts::Verdict::Accepted
            && !receipt.crash_injected
            && !receipt.attack_injected
            && receipt.adoptions == 0
            && receipt.lost_links == 0;
        if quiet {
            continue;
        }
        let epoch_events = by_epoch.get(&receipt.epoch);
        let mut tallies: BTreeMap<String, u64> = BTreeMap::new();
        if let Some(evs) = epoch_events {
            for ev in evs {
                *tallies.entry(ev.kind.name().to_string()).or_insert(0) += 1;
            }
        }
        let counts: Vec<EventCount> = tallies
            .into_iter()
            .map(|(kind, count)| EventCount { kind, count })
            .collect();
        let count = |k: EventKind| {
            epoch_events
                .map(|evs| evs.iter().filter(|e| e.kind == k).count() as u64)
                .unwrap_or(0)
        };
        let mut inc = EpochIncident {
            epoch: receipt.epoch,
            verdict: match receipt.verdict {
                sies_receipts::Verdict::Accepted => "accepted".into(),
                sies_receipts::Verdict::Rejected => "rejected".into(),
                sies_receipts::Verdict::Lost => "lost".into(),
            },
            crash_injected: receipt.crash_injected,
            attack_injected: receipt.attack_injected,
            corrupted: receipt.corrupted,
            adoptions: receipt.adoptions,
            lost_links: receipt.lost_links,
            events: counts,
            anomalies: Vec::new(),
        };
        inc.anomalies = cross_check(&inc, count, epoch_events.is_some());
        incidents.push(inc);
    }

    let consistent = incidents.iter().all(|i| i.anomalies.is_empty());
    ForensicsReport {
        epochs,
        events_correlated: events.len() as u64,
        receipts_replayed: state.summary.receipts.len() as u64,
        live_digest,
        replayed_digest,
        digests_match,
        incidents,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sies_telemetry::switch_lock;

    #[test]
    fn forensic_timeline_reconciles_receipts_with_events() {
        let _guard = switch_lock();
        let dir = std::env::temp_dir().join(format!("sies-forensics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timeline.journal");
        let report = forensic_timeline(17, 60, Threads::serial(), &path);
        let _ = std::fs::remove_file(&path);

        assert!(report.digests_match);
        assert_eq!(report.receipts_replayed, 60);
        assert!(report.events_correlated > 0);
        // The adversarial mix (20% crash, 30% attack epochs) produces
        // incidents in 60 epochs with overwhelming probability.
        assert!(
            !report.incidents.is_empty(),
            "adversarial run produced no incidents"
        );
        assert!(
            report.consistent,
            "evidence streams disagree: {:?}",
            report
                .incidents
                .iter()
                .filter(|i| !i.anomalies.is_empty())
                .collect::<Vec<_>>()
        );
    }
}
