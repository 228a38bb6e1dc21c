//! Telemetry cross-checks: the counters the stack records must
//! reconcile exactly with the ground truth the engine and chaos harness
//! hand back through their return values, turning telemetry on or off
//! (or changing the worker-thread count) must not change a single result
//! byte, and every injected fault class must leave its evidence in the
//! counters while a clean run leaves none.
//!
//! Every test here snapshots the process-global registry around a run
//! and compares the diff against independently accumulated reports.
//! Because the registry and kill-switch are process-global, all tests in
//! this file serialize on one lock.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_core::{SystemParams, Threads};
use sies_net::chaos::{run_chaos, ChaosConfig};
use sies_net::engine::{metric, Engine, EpochStats};
use sies_net::journal::{FsyncPolicy, JournalConfig, Receipt, ReceiptJournal};
use sies_net::radio::LossyRadio;
use sies_net::recovery::{RecoveryConfig, RecoveryReport};
use sies_net::{PrewarmPolicy, SiesDeployment, Topology};
use sies_telemetry as tel;
use sies_telemetry::{switch_lock, Snapshot};
use std::collections::HashSet;

const N: u64 = 16;

fn sies(seed: u64) -> SiesDeployment {
    let mut rng = StdRng::seed_from_u64(seed);
    SiesDeployment::new(&mut rng, SystemParams::new(N).unwrap())
}

/// Runs `epochs` recovering epochs, returning the summed recovery
/// reports and per-epoch stats totals — the engine-side ground truth.
struct GroundTruth {
    reports: RecoveryReport,
    retransmit_bytes: u64,
    control_bytes: u64,
    data_bytes: u64,
}

fn run_recovering(seed: u64, epochs: u64, loss: f64) -> GroundTruth {
    let dep = sies(seed);
    let topo = Topology::complete_tree(N, 4);
    let mut engine = Engine::new(&dep, &topo);
    let radio = LossyRadio::new(loss, 2);
    let recovery = RecoveryConfig::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut gt = GroundTruth {
        reports: RecoveryReport::default(),
        retransmit_bytes: 0,
        control_bytes: 0,
        data_bytes: 0,
    };
    let values = vec![7u64; N as usize];
    for epoch in 0..epochs {
        let run = engine.run_epoch_recovering(
            epoch,
            &values,
            &HashSet::new(),
            &[],
            &radio,
            &recovery,
            &mut rng,
        );
        let r = &run.report;
        gt.reports.link.attempts += r.link.attempts;
        gt.reports.link.failed_links += r.link.failed_links;
        gt.reports.link.retransmitted_links += r.link.retransmitted_links;
        gt.reports.delivered_links += r.delivered_links;
        gt.reports.lost_links += r.lost_links;
        gt.reports.recovered_by_resolicit += r.recovered_by_resolicit;
        gt.reports.acks += r.acks;
        gt.reports.nacks += r.nacks;
        gt.reports.resolicitations += r.resolicitations;
        gt.reports.failure_reports += r.failure_reports;
        gt.reports.control_bytes += r.control_bytes;
        gt.retransmit_bytes += run.outcome.stats.bytes.retransmit;
        gt.control_bytes += run.outcome.stats.bytes.control;
        gt.data_bytes += run.outcome.stats.bytes.data_total();
    }
    gt
}

/// The recovery-protocol counters recorded inside `simulate_uplink`
/// must reconcile exactly with the reports the engine aggregates from
/// the same outcomes: every ACK, NACK, re-solicitation, retransmission
/// and loss observed by telemetry was injected by the protocol, and
/// vice versa.
#[test]
fn recovery_counters_reconcile_with_engine_reports() {
    let _guard = switch_lock();
    tel::set_enabled(true);
    let before = tel::global().snapshot();
    let gt = run_recovering(42, 60, 0.25);
    let d = tel::global().snapshot().diff(&before);
    tel::clear_enabled();

    assert_eq!(d.counter("recovery.acks"), gt.reports.acks);
    assert_eq!(d.counter("recovery.nacks"), gt.reports.nacks);
    assert_eq!(
        d.counter("recovery.resolicitations"),
        gt.reports.resolicitations
    );
    assert_eq!(
        d.counter("recovery.data_attempts"),
        gt.reports.link.attempts
    );
    assert_eq!(d.counter("recovery.delivered"), gt.reports.delivered_links);
    assert_eq!(d.counter("recovery.lost"), gt.reports.lost_links);
    // One simulate_uplink call per uplink transfer, delivered or not.
    assert_eq!(
        d.counter("recovery.uplinks"),
        gt.reports.delivered_links + gt.reports.lost_links
    );
    // Retransmitted frames = attempts beyond the first per uplink.
    assert_eq!(
        d.counter("recovery.retransmits"),
        gt.reports.link.attempts - (gt.reports.delivered_links + gt.reports.lost_links)
    );
    // Byte-class counters absorbed from the engine's epoch meter.
    assert_eq!(d.counter("net.bytes.retransmit"), gt.retransmit_bytes);
    assert_eq!(d.counter("net.bytes.control"), gt.control_bytes);
    assert_eq!(
        d.counter("net.bytes.source_to_agg")
            + d.counter("net.bytes.agg_to_agg")
            + d.counter("net.bytes.agg_to_querier"),
        gt.data_bytes
    );
    assert!(gt.reports.nacks > 0, "25% loss should produce NACKs");
    assert!(
        d.counter("recovery.retransmits") > 0,
        "25% loss should retransmit"
    );
}

/// Chaos-harness fault injection must reconcile with telemetry: every
/// injected attack is counted, every crash epoch contributes its crash
/// count, and the journal's injected-fault events match.
#[test]
fn chaos_fault_injection_reconciles_with_telemetry() {
    let _guard = switch_lock();
    let dep = sies(3);
    let topo = Topology::complete_tree(N, 4);
    let cfg = ChaosConfig {
        seed: 3,
        epochs: 120,
        loss_rate: 0.10,
        crash_prob: 0.3,
        attack_prob: 0.4,
        threads: Threads::serial(),
        ..ChaosConfig::default()
    };

    tel::set_enabled(true);
    tel::journal().set_capacity(1 << 16);
    let _ = tel::journal().drain();
    let before = tel::global().snapshot();
    let m = run_chaos(&dep, &topo, &cfg);
    let d = tel::global().snapshot().diff(&before);
    let events = tel::journal().drain();
    tel::clear_enabled();

    // One attack per attack epoch; crashes are 1–3 per crash epoch.
    assert_eq!(d.counter("chaos.attacks_injected"), m.attack_epochs);
    let crashes = d.counter("chaos.crashes_injected");
    assert!(
        crashes >= m.crash_epochs && crashes <= 3 * m.crash_epochs,
        "{crashes} crashes over {} crash epochs",
        m.crash_epochs
    );

    // Journal events agree with the counters.
    let attack_events = events
        .iter()
        .filter(|e| e.kind == tel::EventKind::AttackInjected)
        .count() as u64;
    let crash_events: u64 = events
        .iter()
        .filter(|e| e.kind == tel::EventKind::CrashInjected)
        .map(|e| e.a)
        .sum();
    assert_eq!(attack_events, m.attack_epochs);
    assert_eq!(crash_events, crashes);

    // Losses observed by the recovery layer equal the harness totals.
    assert_eq!(d.counter("recovery.lost"), m.lost_links);
    assert_eq!(d.counter("recovery.delivered"), m.delivered_links);
    assert_eq!(d.counter("recovery.resolicitations"), m.resolicitations);
    assert_eq!(d.counter("net.bytes.retransmit"), m.retransmit_bytes);
    assert_eq!(d.counter("net.bytes.control"), m.control_bytes);

    // Verdict counters cover every epoch.
    let accepted = events
        .iter()
        .filter(|e| e.kind == tel::EventKind::EpochAccepted)
        .count() as u64;
    assert_eq!(accepted, m.ok_epochs);
}

/// The determinism oracle: the chaos result digest (verdicts, sums,
/// contributor sets) is byte-identical with telemetry on or off and at
/// every worker-thread count — recording is observation, never
/// interference.
#[test]
fn chaos_digest_invariant_under_telemetry_and_threads() {
    let _guard = switch_lock();
    let dep = sies(9);
    let topo = Topology::complete_tree(N, 4);
    let cfg = ChaosConfig {
        seed: 9,
        epochs: 50,
        loss_rate: 0.10,
        crash_prob: 0.2,
        attack_prob: 0.3,
        threads: Threads::serial(),
        ..ChaosConfig::default()
    };

    tel::set_enabled(false);
    let off = run_chaos(&dep, &topo, &cfg);
    tel::set_enabled(true);
    let on = run_chaos(&dep, &topo, &cfg);
    assert_eq!(off.result_digest, on.result_digest);
    assert_eq!(off, on, "telemetry changed chaos metrics");

    for threads in [1usize, 2, 8] {
        let cfg_t = ChaosConfig {
            threads: Threads::fixed(threads),
            ..cfg
        };
        tel::set_enabled(threads % 2 == 0); // alternate the switch too
        let m = run_chaos(&dep, &topo, &cfg_t);
        assert_eq!(
            m.result_digest, off.result_digest,
            "digest diverged at {threads} threads"
        );
    }
    tel::clear_enabled();
}

/// EpochStats derived from the meter diff must still satisfy the byte
/// accounting identities the old hand-threaded code guaranteed, with
/// the kill-switch in both positions.
#[test]
fn epoch_stats_identical_with_switch_on_and_off() {
    let _guard = switch_lock();
    let dep = sies(5);
    let topo = Topology::complete_tree(N, 4);
    let values = vec![11u64; N as usize];

    tel::set_enabled(false);
    let mut engine_off = Engine::new(&dep, &topo);
    let off = engine_off.run_epoch_with(0, &values, &HashSet::new(), &[]);
    tel::set_enabled(true);
    let mut engine_on = Engine::new(&dep, &topo);
    let on = engine_on.run_epoch_with(0, &values, &HashSet::new(), &[]);
    tel::clear_enabled();

    assert_eq!(off.stats.bytes, on.stats.bytes);
    assert_eq!(off.stats.sources_run, on.stats.sources_run);
    assert_eq!(off.stats.aggregators_run, on.stats.aggregators_run);
    assert_eq!(off.stats.contributors, on.stats.contributors);
    assert_eq!(off.stats.energy_tx, on.stats.energy_tx);
    assert_eq!(off.stats.energy_rx, on.stats.energy_rx);
    assert!(off.result.is_ok() && on.result.is_ok());
    assert_eq!(off.stats.sources_run, N);
}

/// Each engine epoch adds its stats to the global registry exactly once,
/// under the `metric` names, and journals one verdict event — a wrong
/// reading count included, as a lost epoch.
#[test]
fn engine_counters_reconcile_with_epoch_stats() {
    let _guard = switch_lock();
    let dep = sies(5);
    let topo = Topology::complete_tree(N, 4);
    let values = vec![11u64; N as usize];
    let failed = HashSet::from([topo.source_node(3).unwrap()]);

    tel::set_enabled(true);
    let _ = tel::journal().drain();
    let before = tel::global().snapshot();
    let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(2));
    let a = engine.run_epoch(0, &values).stats;
    let b = engine.run_epoch_with(1, &values, &failed, &[]).stats;
    let lost = engine.run_epoch(2, &values[1..]);
    let d = tel::global().snapshot().diff(&before);
    let events = tel::journal().drain();
    tel::clear_enabled();

    assert!(lost.result.is_err());
    let sum = |f: fn(&EpochStats) -> u64| f(&a) + f(&b) + f(&lost.stats);
    assert_eq!(d.counter(metric::SOURCES_RUN), sum(|s| s.sources_run));
    assert_eq!(
        d.counter(metric::AGGREGATORS_RUN),
        sum(|s| s.aggregators_run)
    );
    assert_eq!(d.counter(metric::SA_BYTES), sum(|s| s.bytes.source_to_agg));
    assert_eq!(
        d.counter(metric::SA_EDGES),
        sum(|s| s.bytes.source_to_agg_edges)
    );
    assert_eq!(d.counter(metric::AA_BYTES), sum(|s| s.bytes.agg_to_agg));
    assert_eq!(
        d.counter(metric::AA_EDGES),
        sum(|s| s.bytes.agg_to_agg_edges)
    );
    assert_eq!(d.counter(metric::AQ_BYTES), sum(|s| s.bytes.agg_to_querier));
    let ns = |f: fn(&EpochStats) -> std::time::Duration| {
        (f(&a) + f(&b) + f(&lost.stats)).as_nanos() as u64
    };
    assert_eq!(d.counter(metric::SOURCE_CPU_NS), ns(|s| s.source_cpu));
    assert_eq!(
        d.counter(metric::AGGREGATOR_CPU_NS),
        ns(|s| s.aggregator_cpu)
    );
    assert_eq!(d.counter(metric::QUERIER_CPU_NS), ns(|s| s.querier_cpu));
    // The global float counters are cumulative, so their diff carries
    // the rounding of every earlier epoch in the process.
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * y.abs();
    assert!(close(
        d.float(metric::ENERGY_TX_J),
        a.energy_tx + b.energy_tx
    ));
    assert!(close(
        d.float(metric::ENERGY_RX_J),
        a.energy_rx + b.energy_rx
    ));
    assert_eq!(d.counter(metric::EPOCHS_ACCEPTED), 2);
    assert_eq!(d.counter(metric::EPOCHS_LOST), 1);
    let verdicts: Vec<(u64, tel::EventKind)> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                tel::EventKind::EpochAccepted | tel::EventKind::EpochLost
            )
        })
        .map(|e| (e.epoch, e.kind))
        .collect();
    assert_eq!(
        verdicts,
        [
            (0, tel::EventKind::EpochAccepted),
            (1, tel::EventKind::EpochAccepted),
            (2, tel::EventKind::EpochLost)
        ]
    );
}

/// What `work` returns, and the global registry's diff across it.
fn window<T>(work: impl FnOnce() -> T) -> (T, Snapshot) {
    let before = tel::global().snapshot();
    let out = work();
    (out, tel::global().snapshot().diff(&before))
}

/// Every kind of fault evidence a registry window holds, at the
/// thresholds worth paging on: a rejected or lost epoch, a
/// retransmission, an adoption or a dropped event at all; more than 64
/// receipts not yet durable; prewarm misses above 0.9 of at least 16
/// lookups; an `engine.epoch` p99 bucket bound above 10 s.
fn evidence(d: &Snapshot) -> Vec<&'static str> {
    let lookups = d.counter("net.prewarm.lookups");
    [
        ("reject", d.counter(metric::EPOCHS_REJECTED) > 0),
        ("lost epoch", d.counter(metric::EPOCHS_LOST) > 0),
        ("retransmit", d.counter("recovery.retransmits") > 0),
        ("adoption", d.counter(metric::ADOPTIONS) > 0),
        ("dropped event", d.counter(tel::EVENTS_DROPPED) > 0),
        ("fsync lag", d.gauge("journal.fsync_lag") > 64),
        (
            "prewarm misses",
            lookups >= 16 && d.counter("net.prewarm.misses") as f64 > 0.9 * lookups as f64,
        ),
        (
            "slow epochs",
            d.hist(metric::EPOCH_SPAN).quantile_upper_bound(0.99) > 10_000_000_000,
        ),
    ]
    .into_iter()
    .filter_map(|(kind, seen)| seen.then_some(kind))
    .collect()
}

/// The fault-evidence oracle on the N = 64, F = 4 chaos deployment:
/// 2 000 clean epochs, in 8 windows, leave no evidence at all, and each
/// fault class leaves its own in its window — and in the run's own
/// report where it has one.
#[test]
fn every_fault_class_leaves_its_evidence_and_a_clean_run_none() {
    let _guard = switch_lock();
    let seed = 42;
    let (dep, topo) = sies_bench::observability::deployment(seed);
    let clean = ChaosConfig {
        seed,
        epochs: 250,
        loss_rate: 0.0,
        crash_prob: 0.0,
        attack_prob: 0.0,
        threads: Threads::serial(),
        ..ChaosConfig::default()
    };
    let run = |cfg: ChaosConfig| run_chaos(&dep, &topo, &cfg);

    tel::set_enabled(true);
    // Sized so no clean window overflows the event ring.
    tel::journal().set_capacity(2_000 * 96);
    let _ = tel::journal().drain();
    for w in 0..8 {
        let (_, d) = window(|| {
            run(ChaosConfig {
                seed: seed + w,
                ..clean
            })
        });
        let _ = tel::journal().drain();
        let found = evidence(&d);
        assert!(found.is_empty(), "clean window {w} holds {found:?}");
    }

    let (m, d) = window(|| {
        run(ChaosConfig {
            attack_prob: 1.0,
            epochs: 40,
            ..clean
        })
    });
    assert!(
        evidence(&d).contains(&"reject"),
        "attack storm: {:?}",
        evidence(&d)
    );
    assert!(m.detected_corruptions > 0);

    let (m, d) = window(|| {
        run(ChaosConfig {
            crash_prob: 1.0,
            epochs: 40,
            ..clean
        })
    });
    assert!(
        evidence(&d).contains(&"adoption"),
        "crash storm: {:?}",
        evidence(&d)
    );
    assert!(m.adoptions > 0);

    let (m, d) = window(|| {
        run(ChaosConfig {
            loss_rate: 0.5,
            epochs: 40,
            ..clean
        })
    });
    assert!(
        evidence(&d).contains(&"retransmit"),
        "lossy links: {:?}",
        evidence(&d)
    );
    assert!(m.retransmit_bytes > 0);
    let _ = tel::journal().drain();

    tel::journal().set_capacity(64);
    let (_, d) = window(|| {
        run(ChaosConfig {
            epochs: 20,
            ..clean
        })
    });
    tel::journal().set_capacity(tel::journal::DEFAULT_CAPACITY);
    let _ = tel::journal().drain();
    assert!(
        evidence(&d).contains(&"dropped event"),
        "64-event ring: {:?}",
        evidence(&d)
    );

    let path = std::env::temp_dir().join(format!("sies-fsync-lag-{}.journal", std::process::id()));
    let lazy = JournalConfig {
        fsync: FsyncPolicy::Never,
        ..JournalConfig::default()
    };
    let mut journal = ReceiptJournal::create(&path, &lazy).unwrap();
    let (_, d) = window(|| {
        for epoch in 0..100 {
            journal.record(&mut Receipt {
                epoch,
                ..Receipt::default()
            });
        }
    });
    assert!(
        evidence(&d).contains(&"fsync lag"),
        "lazy fsync: {:?}",
        evidence(&d)
    );
    journal.finish().unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        tel::global().snapshot().gauge("journal.fsync_lag"),
        0,
        "finish() made every receipt durable"
    );

    dep.set_prewarm_policy(PrewarmPolicy::default());
    let (_, d) = window(|| {
        run(ChaosConfig {
            epochs: 32,
            ..clean
        })
    });
    let misses = dep.prewarm_stats().misses;
    dep.set_prewarm_policy(PrewarmPolicy::disabled());
    let _ = tel::journal().drain();
    tel::clear_enabled();
    assert!(
        evidence(&d).contains(&"prewarm misses"),
        "cold pool: {:?}",
        evidence(&d)
    );
    assert!(misses > 0);
}
