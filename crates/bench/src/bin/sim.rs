//! `sim`: command-line sensor-network simulator — run any scheme on any
//! topology with losses, failures and attacks, and read the verdicts.
//!
//! ```text
//! sim [--scheme sies|cmt|secoa|paillier|tag] [--sources N] [--fanout F]
//!     [--epochs E] [--loss P] [--retries R] [--attack tamper|drop|duplicate|replay]
//!     [--attack-epoch E] [--seed S] [--domain-power K] [--threads T] [--json FILE]
//! ```
//!
//! `--json FILE` writes a machine-readable run summary (including the
//! seed, so the run can be replayed exactly). With `--loss` above zero
//! every epoch runs under the recovery protocol
//! (`Engine::run_epoch_recovering` with `RecoveryConfig::default()`), so
//! its stats charge retransmissions, ACKs, NACKs, re-solicitations and
//! failure reports.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_baselines::cmt::CmtDeployment;
use sies_baselines::paillier_agg::PaillierDeployment;
use sies_baselines::plain::PlainAggregation;
use sies_baselines::secoa::SecoaSum;
use sies_core::SystemParams;
use sies_net::engine::{Attack, Engine};
use sies_net::radio::LossyRadio;
use sies_net::recovery::RecoveryConfig;
use sies_net::scheme::AggregationScheme;
use sies_net::{SiesDeployment, Threads, Topology};
use sies_workload::intel_lab::{DomainScale, IntelLabGenerator};
use std::collections::HashSet;

struct Args {
    scheme: String,
    sources: u64,
    fanout: usize,
    epochs: u64,
    loss: f64,
    retries: u32,
    attack: Option<String>,
    attack_epoch: u64,
    seed: u64,
    domain_power: u32,
    threads: Threads,
    json_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scheme: "sies".into(),
            sources: 64,
            fanout: 4,
            epochs: 10,
            loss: 0.0,
            retries: 3,
            attack: None,
            attack_epoch: 5,
            seed: 42,
            domain_power: 2,
            threads: Threads::serial(),
            json_out: None,
        }
    }
}

const HELP: &str = "sim - run a secure in-network aggregation simulation

usage: sim [--scheme sies|cmt|secoa|paillier|tag] [--sources N] [--fanout F]
           [--epochs E] [--loss P] [--retries R]
           [--attack tamper|drop|duplicate|replay] [--attack-epoch E]
           [--seed S] [--domain-power K] [--threads T] [--json FILE]

--loss P runs every epoch under the ACK/NACK + re-solicitation recovery
protocol, each frame lost with probability P; --retries R caps the
retransmissions per uplink.
--threads T runs the epoch walk on T worker threads (0 = all cores);
results are byte-identical at every thread count.";

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("error: {name} needs a value\n\n{HELP}");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag.as_str() {
            "--scheme" => args.scheme = value("--scheme"),
            "--sources" => args.sources = value("--sources").parse().expect("number"),
            "--fanout" => args.fanout = value("--fanout").parse().expect("number"),
            "--epochs" => args.epochs = value("--epochs").parse().expect("number"),
            "--loss" => args.loss = value("--loss").parse().expect("probability"),
            "--retries" => args.retries = value("--retries").parse().expect("number"),
            "--attack" => args.attack = Some(value("--attack")),
            "--attack-epoch" => {
                args.attack_epoch = value("--attack-epoch").parse().expect("number")
            }
            "--seed" => args.seed = value("--seed").parse().expect("number"),
            "--domain-power" => {
                args.domain_power = value("--domain-power").parse().expect("number")
            }
            "--threads" => {
                args.threads = Threads::fixed(value("--threads").parse().expect("number"))
            }
            "--json" => args.json_out = Some(value("--json")),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}\n\n{HELP}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn run<S: AggregationScheme>(scheme: &S, args: &Args) {
    let topo = Topology::complete_tree(args.sources, args.fanout);
    let mut engine = Engine::new(scheme, &topo).with_threads(args.threads);
    let mut workload = IntelLabGenerator::new(args.seed, args.sources as usize);
    let scale = DomainScale {
        power: args.domain_power,
    };
    let radio = LossyRadio::new(args.loss, args.retries);
    let recovery = RecoveryConfig::default();
    let mut loss_rng = StdRng::seed_from_u64(args.seed ^ 0xBAD);
    let none = HashSet::new();

    println!(
        "scheme {} | N={} F={} | domain x10^{} | loss {:.0}% (retries {})\n",
        scheme.name(),
        args.sources,
        args.fanout,
        args.domain_power,
        args.loss * 100.0,
        args.retries
    );

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    // Full per-epoch stats for the machine-readable summary: telemetry
    // snapshot diffs rendered through EpochStats' serde impl.
    let mut epoch_stats = Vec::with_capacity(args.epochs as usize);
    for epoch in 0..args.epochs {
        let values = workload.epoch_values(epoch, scale);
        let true_sum: u64 = values.iter().sum();

        let mut attacks = Vec::new();
        if epoch == args.attack_epoch {
            if let Some(kind) = &args.attack {
                let victim = topo.source_node(args.sources as u32 / 2).unwrap();
                attacks.push(match kind.as_str() {
                    "tamper" => Attack::TamperAtNode(victim),
                    "drop" => Attack::DropAtNode(victim),
                    "duplicate" => Attack::DuplicateAtNode(victim),
                    "replay" => Attack::ReplayFinal,
                    other => {
                        eprintln!("error: unknown attack '{other}'\n\n{HELP}");
                        std::process::exit(2);
                    }
                });
            }
        }

        let (out, lost_links) = if args.loss > 0.0 {
            let run = engine.run_epoch_recovering(
                epoch,
                &values,
                &none,
                &attacks,
                &radio,
                &recovery,
                &mut loss_rng,
            );
            (run.outcome, run.report.lost_links)
        } else {
            (engine.run_epoch_with(epoch, &values, &none, &attacks), 0)
        };
        if args.json_out.is_some() {
            epoch_stats.push(out.stats.clone());
        }
        let tag = if attacks.is_empty() {
            ""
        } else {
            "  << ATTACK"
        };
        match out.result {
            Ok(res) => {
                accepted += 1;
                let err = if true_sum > 0 {
                    (res.sum - true_sum as f64).abs() / true_sum as f64 * 100.0
                } else {
                    0.0
                };
                println!(
                    "epoch {epoch:>3}: ACCEPTED sum={:>14.1} (true {true_sum}, err {err:.2}%) contributors={} lost_links={} verified={}{tag}",
                    res.sum,
                    out.stats.contributors.len(),
                    lost_links,
                    res.integrity_checked,
                );
            }
            Err(e) => {
                rejected += 1;
                println!("epoch {epoch:>3}: REJECTED ({e}){tag}");
            }
        }
        if epoch == 0 {
            println!(
                "           bytes/edge: S-A {:.0}  A-A {:.0}  A-Q {}  | tx energy {:.6} J",
                out.stats.bytes.per_sa_edge(),
                out.stats.bytes.per_aa_edge(),
                out.stats.bytes.agg_to_querier,
                out.stats.energy_tx
            );
        }
    }
    println!(
        "\n{accepted} accepted, {rejected} rejected over {} epochs",
        args.epochs
    );

    if let Some(path) = &args.json_out {
        let summary = serde_json::json!({
            "seed": args.seed,
            "scheme": scheme.name(),
            "sources": args.sources,
            "fanout": args.fanout,
            "epochs": args.epochs,
            "loss": args.loss,
            "retries": args.retries,
            "attack": args.attack.clone().unwrap_or_default(),
            "accepted": accepted,
            "rejected": rejected,
            "epoch_stats": epoch_stats
        });
        let body = serde_json::to_string_pretty(&summary).expect("serializable");
        std::fs::write(path, body + "\n").unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("summary written to {path}");
    }
}

fn main() {
    let args = parse_args();
    let mut rng = StdRng::seed_from_u64(args.seed);
    match args.scheme.as_str() {
        "sies" => {
            let dep = SiesDeployment::new(
                &mut rng,
                SystemParams::new(args.sources).expect("valid parameters"),
            );
            run(&dep, &args);
        }
        "cmt" => run(&CmtDeployment::new(&mut rng, args.sources), &args),
        "secoa" => {
            // Reduced parameters keep interactive runs snappy; `repro`
            // measures the paper-grade configuration.
            run(&SecoaSum::new(&mut rng, args.sources, 60, 512), &args)
        }
        "paillier" => run(&PaillierDeployment::new(&mut rng, args.sources, 512), &args),
        "tag" => run(&PlainAggregation, &args),
        other => {
            eprintln!("error: unknown scheme '{other}'\n\n{HELP}");
            std::process::exit(2);
        }
    }
}
