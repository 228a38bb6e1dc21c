//! `repro`: regenerates every table and figure of the paper's evaluation
//! (§VI) on the current host.
//!
//! ```text
//! repro [--fast] [--epochs E] [--paper-costs] [--out DIR] <experiment>...
//!
//! experiments:
//!   table2   primitive costs (calibrated vs paper)
//!   table3   cost-model evaluation at the typical values
//!   table5   communication cost per network edge
//!   fig4     source CPU vs domain
//!   fig5     aggregator CPU vs fanout
//!   fig6a    querier CPU vs number of sources
//!   fig6b    querier CPU vs domain
//!   params   system parameter table (Table IV)
//!   security attack-detection matrix (SIES vs CMT vs SECOA)
//!   lifetime network-lifetime comparison (2 J battery, hottest node)
//!   reliability  seeded chaos harness: availability, detection rate,
//!                recovery overhead (also writes BENCH_reliability.json)
//!   throughput   parallel epoch pipeline: epochs/sec vs thread count,
//!                digest-checked against the serial engine and across
//!                hash lane widths W ∈ {1,4,8} (also writes
//!                BENCH_throughput.json)
//!   micro    modexp kernels (windowed Montgomery, Montgomery
//!            batches) and lane-batched PRF kernels (hm1/hm256_epoch_many,
//!            derive_mod_p_many at x4/x8) vs their generic oracles;
//!            differential checks at 1/2/8 threads and lane widths
//!            1/4/8/16 (also writes BENCH_micro.json); `--baseline FILE`
//!            gates on >25% median regression
//!   trace    telemetry: structured per-epoch trace (events + metric
//!            snapshot, written to trace.json; the span timeline as
//!            Chrome trace events, written to trace_timeline.json) and
//!            the telemetry-on vs -off overhead benchmark on the chaos
//!            workload, with digest-checked determinism across the
//!            kill-switch and across 1/2/8 threads (also writes
//!            BENCH_observability.json); `--forensics` additionally
//!            runs a journaled chaos run and correlates the telemetry
//!            event stream with the replayed signed receipt journal
//!            into per-epoch incident reports (forensics.json)
//!   recovery durable receipt journal: seeded kill-restart chaos run
//!            recovered from the journal alone, digest-checked against
//!            the uninterrupted run at 1/2/8 threads, plus cold-replay
//!            throughput and journal bytes/epoch (also writes
//!            BENCH_recovery.json)
//!   all      everything above
//! ```
//!
//! An unknown flag or experiment name exits with status 2 before any
//! experiment runs.
//!
//! `--threads T` sizes the sharded epoch walk (0 or omitted = all
//! available cores) for the reliability and throughput experiments.

use sies_bench::calibrate::PrimitiveCosts;
use sies_bench::chart;
use sies_bench::cost_model::CostModel;
use sies_bench::experiments::{self, Options};
use sies_bench::report::{fmt_bytes, fmt_ms, fmt_us, render_table, write_json_seeded};
use sies_bench::throughput;
use sies_net::Threads;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options::default();
    let mut out_dir = PathBuf::from("results");
    let mut use_paper_costs = false;
    let mut chaos_epochs = 2_000u64;
    let mut threads = Threads::Auto;
    let mut max_n: u64 = 1_000_000;
    let mut baseline: Option<PathBuf> = None;
    let mut forensics = false;
    let mut requested: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => opts = Options::fast(),
            "--epochs" => {
                opts.epochs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--epochs needs a number"));
            }
            "--secoa-epochs" => {
                opts.secoa_epochs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--secoa-epochs needs a number"));
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--chaos-epochs" => {
                chaos_epochs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--chaos-epochs needs a number"));
            }
            "--threads" => {
                let t: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
                threads = Threads::fixed(t); // 0 means Auto
            }
            "--out" => {
                out_dir = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            "--baseline" => {
                baseline = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--baseline needs a path")),
                );
            }
            "--max-n" => {
                max_n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max-n needs a number"));
            }
            "--paper-costs" => use_paper_costs = true,
            "--forensics" => forensics = true,
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            other if !other.starts_with('-') => requested.push(other.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if requested.is_empty() {
        println!("{HELP}");
        return;
    }
    if let Some(bad) = requested
        .iter()
        .find(|e| *e != "all" && !EXPERIMENTS.contains(&e.as_str()))
    {
        usage(&format!("unknown experiment '{bad}'"));
    }
    if requested.iter().any(|e| e == "all") {
        requested = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let costs = if use_paper_costs {
        println!("using the paper's Table II primitive costs");
        PrimitiveCosts::PAPER
    } else {
        println!("calibrating primitive costs on this host (Table II)...");
        PrimitiveCosts::calibrate(false)
    };

    for exp in &requested {
        match exp.as_str() {
            "table2" => table2(&costs, &opts, &out_dir),
            "table3" => table3(&costs, &opts, &out_dir),
            "params" => params(),
            "table5" => table5(&costs, &opts, &out_dir),
            "fig4" => fig4(&costs, &opts, &out_dir),
            "fig5" => fig5(&costs, &opts, &out_dir),
            "fig6a" => fig6a(&costs, &opts, &out_dir),
            "fig6b" => fig6b(&costs, &opts, &out_dir),
            "security" => security(),
            "lifetime" => lifetime(&opts, &out_dir),
            "reliability" => reliability(&opts, chaos_epochs, threads, &out_dir),
            "throughput" => throughput_exp(&opts, threads, max_n, &out_dir),
            "micro" => micro(&opts, baseline.as_deref(), &out_dir),
            "trace" => trace(&opts, chaos_epochs, threads, forensics, &out_dir),
            "recovery" => recovery_exp(&opts, chaos_epochs, threads, &out_dir),
            other => unreachable!("unchecked experiment '{other}'"),
        }
    }
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 15] = [
    "table2",
    "table3",
    "params",
    "table5",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "security",
    "lifetime",
    "reliability",
    "throughput",
    "micro",
    "trace",
    "recovery",
];

const HELP: &str = "repro - regenerate the SIES paper's tables and figures

usage: repro [--fast] [--epochs E] [--secoa-epochs E] [--seed S] [--chaos-epochs E]
             [--threads T] [--max-n N] [--paper-costs] [--baseline FILE]
             [--forensics] [--out DIR] <experiment>...

`--max-n N` caps the struct-of-arrays scale sweep of the throughput
experiment (default 1000000). `--forensics` makes the trace experiment
also correlate telemetry events with the replayed signed receipt
journal into per-epoch incident reports (forensics.json).

experiments: table2 table3 table5 fig4 fig5 fig6a fig6b params security lifetime
             reliability throughput micro trace recovery all";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2);
}

fn table2(costs: &PrimitiveCosts, opts: &Options, out: &Path) {
    println!("\n== Table II: primitive costs ==");
    let paper = PrimitiveCosts::PAPER;
    let rows: Vec<Vec<String>> = costs
        .rows()
        .iter()
        .zip(paper.rows())
        .map(|((sym, ours), (_, theirs))| {
            vec![
                sym.to_string(),
                format!("{ours:.4} us"),
                format!("{theirs:.4} us"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["primitive", "this host", "paper (i7 2.66GHz)"], &rows)
    );
    let _ = write_json_seeded(out, "table2", opts.seed, costs);
}

fn table3(costs: &PrimitiveCosts, opts: &Options, out: &Path) {
    println!("\n== Table III: cost-model evaluation at typical values ==");
    for (label, model) in [
        (
            "calibrated costs (this host)",
            CostModel {
                costs: *costs,
                ..CostModel::paper_defaults()
            },
        ),
        ("paper costs", CostModel::paper_defaults()),
    ] {
        println!("-- {label} --");
        let rows: Vec<Vec<String>> = model
            .table3()
            .into_iter()
            .map(|(metric, cmt, secoa, sies)| {
                let is_bytes = metric.contains("bytes");
                let f = |v: f64| if is_bytes { fmt_bytes(v) } else { fmt_us(v) };
                vec![
                    metric.to_string(),
                    f(cmt),
                    format!("{} / {}", f(secoa.min), f(secoa.max)),
                    f(sies),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["metric", "CMT", "SECOAS (min/max)", "SIES"], &rows)
        );
    }
    let model = CostModel {
        costs: *costs,
        ..CostModel::paper_defaults()
    };
    let json_rows: Vec<serde_json::Value> = model
        .table3()
        .iter()
        .map(|(m, c, s, v)| {
            serde_json::json!({
                "metric": m, "cmt": c, "secoa_min": s.min, "secoa_max": s.max, "sies": v
            })
        })
        .collect();
    let _ = write_json_seeded(out, "table3", opts.seed, &json_rows);
}

fn params() {
    println!("\n== Table IV: system parameters ==");
    let rows = vec![
        vec![
            "Number of sources (N)".into(),
            "1024".into(),
            "64, 256, 1024, 4096, 16384".into(),
        ],
        vec!["Fanout (F)".into(), "4".into(), "2, 3, 4, 5, 6".into()],
        vec![
            "Domain (D=[18,50])".into(),
            "x10^2".into(),
            "x1, x10, x10^2, x10^3, x10^4".into(),
        ],
    ];
    println!(
        "{}",
        render_table(&["parameter", "default", "range"], &rows)
    );
}

fn table5(costs: &PrimitiveCosts, opts: &Options, out: &Path) {
    println!("\n== Table V: communication cost per edge (N=1024, F=4, D=[1800,5000]) ==");
    let rows_data = experiments::table5_communication(costs, opts);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.edge.clone(),
                fmt_bytes(r.cmt),
                format!(
                    "{} / {} / {}",
                    fmt_bytes(r.secoa_actual),
                    fmt_bytes(r.secoa_min),
                    fmt_bytes(r.secoa_max)
                ),
                fmt_bytes(r.sies),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["edge", "CMT", "SECOAS (actual/min/max)", "SIES"], &rows)
    );
    let _ = write_json_seeded(out, "table5", opts.seed, &rows_data);
}

fn print_series(title: &str, x_label: &str, points: &[experiments::SeriesPoint]) {
    println!("\n== {title} ==");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.x.clone(),
                fmt_ms(p.sies_ms),
                fmt_ms(p.cmt_ms),
                fmt_ms(p.secoa_ms),
                format!(
                    "{} / {}",
                    fmt_ms(p.secoa_model_min_ms),
                    fmt_ms(p.secoa_model_max_ms)
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[x_label, "SIES", "CMT", "SECOAS", "SECOAS model (min/max)"],
            &rows
        )
    );

    // The paper's figures are log-Y plots; render the same shape.
    let xs: Vec<String> = points.iter().map(|p| p.x.clone()).collect();
    let sies: Vec<f64> = points.iter().map(|p| p.sies_ms).collect();
    let cmt: Vec<f64> = points.iter().map(|p| p.cmt_ms).collect();
    let secoa: Vec<f64> = points.iter().map(|p| p.secoa_ms).collect();
    println!(
        "{}",
        chart::render_log_chart(
            "CPU time (ms, log scale)",
            &xs,
            &[
                chart::Series {
                    marker: 'S',
                    name: "SIES",
                    values: &sies
                },
                chart::Series {
                    marker: 'C',
                    name: "CMT",
                    values: &cmt
                },
                chart::Series {
                    marker: 'X',
                    name: "SECOAS",
                    values: &secoa
                },
            ],
        )
    );
}

fn fig4(costs: &PrimitiveCosts, opts: &Options, out: &Path) {
    let points = experiments::fig4_source_vs_domain(costs, opts);
    print_series(
        "Figure 4: source CPU vs domain (N=1024, F=4)",
        "domain",
        &points,
    );
    let _ = write_json_seeded(out, "fig4", opts.seed, &points);
}

fn fig5(costs: &PrimitiveCosts, opts: &Options, out: &Path) {
    let points = experiments::fig5_aggregator_vs_fanout(costs, opts);
    print_series(
        "Figure 5: aggregator CPU vs fanout (N=1024, D=[1800,5000])",
        "fanout",
        &points,
    );
    let _ = write_json_seeded(out, "fig5", opts.seed, &points);
}

fn fig6a(costs: &PrimitiveCosts, opts: &Options, out: &Path) {
    let points = experiments::fig6a_querier_vs_n(costs, opts);
    print_series(
        "Figure 6(a): querier CPU vs N (F=4, D=[1800,5000])",
        "N",
        &points,
    );
    let _ = write_json_seeded(out, "fig6a", opts.seed, &points);
}

fn fig6b(costs: &PrimitiveCosts, opts: &Options, out: &Path) {
    let points = experiments::fig6b_querier_vs_domain(costs, opts);
    print_series(
        "Figure 6(b): querier CPU vs domain (N=1024, F=4)",
        "domain",
        &points,
    );
    let _ = write_json_seeded(out, "fig6b", opts.seed, &points);
}

fn lifetime(opts: &Options, out: &Path) {
    println!("\n== Network lifetime: hottest first-level aggregator, 2 J battery, F=4 ==");
    let rows_data = experiments::lifetime_table(opts);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                fmt_bytes(r.leaf_bytes as f64),
                format!("{:.3e} J", r.hottest_drain_j),
                format!("{:.0}", r.lifetime_epochs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["scheme", "bytes/edge", "drain/epoch", "lifetime (epochs)"],
            &rows
        )
    );
    let _ = write_json_seeded(out, "lifetime", opts.seed, &rows_data);
}

fn reliability(opts: &Options, chaos_epochs: u64, threads: Threads, out: &Path) {
    println!(
        "\n== Reliability: seeded chaos harness (SIES, N=64, F=4, seed {}, {} epochs total, {} worker thread(s)) ==",
        opts.seed,
        chaos_epochs,
        threads.resolve()
    );
    let points = experiments::reliability_threaded(opts.seed, chaos_epochs, threads);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scenario.clone(),
                format!("{:.0}%", p.loss_rate * 100.0),
                format!("{:.0}%", p.crash_prob * 100.0),
                format!("{:.0}%", p.attack_prob * 100.0),
                format!("{:.1}%", p.availability * 100.0),
                format!("{}/{}", p.detected_corruptions, p.corrupted_epochs),
                format!("{:.2}x", p.overhead_factor),
                format!("{}", p.false_accepts + p.false_rejects + p.sum_mismatches),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "loss",
                "crash",
                "attack",
                "availability",
                "detected",
                "overhead",
                "unsound"
            ],
            &rows
        )
    );
    println!("zero false accepts, zero false rejects across every scenario (asserted)");
    let _ = write_json_seeded(out, "reliability", opts.seed, &points);
    // The canonical artifact lives at the repo root for the paper repro.
    let _ = write_json_seeded(Path::new("."), "BENCH_reliability", opts.seed, &points);
}

/// Environment header of `BENCH_throughput.json`: detected cores and
/// peak RSS make a 1.0x speedup on a 1-core container self-explaining
/// and the memory budget machine-checkable.
#[derive(serde::Serialize)]
struct ThroughputHeader {
    /// Detected CPU cores (`std::thread::available_parallelism`); on a
    /// 1-core host every multi-thread speedup is expected to be ~1.0x.
    cpu_cores: usize,
    /// Peak resident set size of this process after the sweep, bytes
    /// (`VmHWM`); `null` when procfs is unavailable.
    peak_rss_bytes: Option<u64>,
    /// Hash lane width the sweep ran at (after the lane oracle).
    lane_width: usize,
    /// Largest population the scale sweep ran (`--max-n` cap applied).
    scale_max_n: u64,
    note: String,
}

/// The full `BENCH_throughput.json` payload.
#[derive(serde::Serialize)]
struct ThroughputArtifact {
    header: ThroughputHeader,
    sweep: Vec<throughput::ThroughputPoint>,
    scale: Vec<throughput::ScalePoint>,
    prewarm: Vec<throughput::PrewarmPoint>,
}

fn throughput_exp(opts: &Options, threads: Threads, max_n: u64, out: &Path) {
    // Sweep 1..=resolved threads in powers of two, always including the
    // requested count, so `--threads 8` on an 8-core host measures
    // 1, 2, 4 and 8 workers.
    let top = threads.resolve().max(1);
    let mut sweep: Vec<usize> = throughput::DEFAULT_THREAD_SWEEP
        .iter()
        .copied()
        .filter(|&t| t <= top)
        .collect();
    if !sweep.contains(&top) {
        sweep.push(top);
    }
    let epochs = opts.epochs.max(1);
    println!(
        "\n== Throughput: parallel epoch pipeline (seed {}, {} epochs/config, threads {:?}) ==",
        opts.seed, epochs, sweep
    );
    let points = throughput::throughput_suite(opts.seed, epochs, &sweep);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                p.threads.to_string(),
                format!("{:.1}", p.epochs_per_sec),
                fmt_ms(p.wall_ms),
                fmt_ms(p.source_cpu_ms),
                fmt_ms(p.aggregator_cpu_ms),
                fmt_ms(p.querier_cpu_ms),
                format!("{:.2}x", p.speedup_vs_serial),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "N",
                "threads",
                "epochs/s",
                "wall",
                "source CPU",
                "agg CPU",
                "querier CPU",
                "speedup"
            ],
            &rows
        )
    );
    println!(
        "result digests identical across all thread counts (asserted per N) \
         and across hash lane widths 1/4/8/16 (asserted at N={})",
        throughput::THROUGHPUT_N[0]
    );

    // Prewarm on/off digest sweep: the precompute-ahead key pool must
    // change no result byte at any thread count.
    println!(
        "\n-- Prewarm: precompute-ahead epoch crypto on/off, N={}, threads {:?} --",
        throughput::THROUGHPUT_N[0],
        throughput::PREWARM_THREADS
    );
    let prewarm = throughput::prewarm_suite(opts.seed, throughput::THROUGHPUT_N[0], epochs);
    let rows: Vec<Vec<String>> = prewarm
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                if p.prewarmed { "on" } else { "off" }.to_string(),
                format!("{:.1}", p.epochs_per_sec),
                fmt_ms(p.wall_ms),
                p.derived.to_string(),
                p.pool_hits.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "threads",
                "prewarm",
                "epochs/s",
                "wall",
                "derived",
                "pool hits"
            ],
            &rows
        )
    );
    println!(
        "prewarm digest oracle passed: warm and cold runs bit-identical at \
         threads {:?}",
        throughput::PREWARM_THREADS
    );

    // Struct-of-arrays scale sweep: serial single-epoch reference vs
    // clean runs at 1/2/8 threads, digest-asserted.
    let scale_ns: Vec<u64> = throughput::SCALE_N
        .iter()
        .copied()
        .filter(|&n| n <= max_n)
        .collect();
    let mut scale = Vec::new();
    if scale_ns.is_empty() {
        println!("scale sweep skipped (--max-n {max_n} below the smallest population)");
    } else {
        println!(
            "\n-- Scale: clean runs over the struct-of-arrays arena, N up to {} --",
            scale_ns.last().unwrap()
        );
        // Epoch budget shrinks with N so the 1M point stays minutes, not
        // hours, on a 1-core host; every point still runs >= 2 epochs.
        let epoch_budget = move |n: u64| epochs.min((200_000 / n).max(2));
        scale = throughput::scale_suite(opts.seed, &scale_ns, epoch_budget);
        let rows: Vec<Vec<String>> = scale
            .iter()
            .map(|p| {
                vec![
                    p.n.to_string(),
                    p.layout.clone(),
                    p.threads.to_string(),
                    p.epochs.to_string(),
                    format!("{:.2}", p.epochs_per_sec),
                    fmt_ms(p.wall_ms),
                    if p.layout == "soa" {
                        format!("{:.0}", p.bytes_per_node)
                    } else {
                        "-".to_string()
                    },
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["N", "layout", "threads", "epochs", "epochs/s", "wall", "B/node"],
                &rows
            )
        );
        println!(
            "serial-equivalence digest asserted: every SoA configuration \
             (threads 1/2/8) matches the legacy serial reference per N"
        );
        // The largest SoA point's footprint feeds the telemetry gauge the
        // CI budget gate reads.
        if let Some(p) = scale.iter().rev().find(|p| p.layout == "soa") {
            sies_telemetry::record_bytes_per_node(
                (p.arena_bytes + p.state_bytes) as usize,
                p.nodes as usize,
            );
        }
    }

    let cpu_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let artifact = ThroughputArtifact {
        header: ThroughputHeader {
            cpu_cores,
            peak_rss_bytes: sies_telemetry::record_peak_rss(),
            lane_width: sies_crypto::lanes::lane_width(),
            scale_max_n: scale_ns.last().copied().unwrap_or(0),
            note: "speedup_vs_serial ~1.0 is expected when cpu_cores is 1; \
                   bytes_per_node covers the flat arena plus the engine's epoch state"
                .to_string(),
        },
        sweep: points,
        scale,
        prewarm,
    };
    println!("detected {cpu_cores} CPU core(s)");
    let _ = write_json_seeded(out, "throughput", opts.seed, &artifact);
    // The canonical artifact lives at the repo root for the paper repro.
    let _ = write_json_seeded(Path::new("."), "BENCH_throughput", opts.seed, &artifact);
}

fn micro(opts: &Options, baseline: Option<&Path>, out: &Path) {
    use sies_bench::micro::{micro_suite, regressions_against, MicroReport, REGRESSION_FACTOR};

    const ORACLE_THREADS: [usize; 3] = [1, 2, 8];
    println!("\n== Micro: modular-exponentiation and batched-PRF kernels vs generic oracles ==");
    println!(
        "running differential oracles at {ORACLE_THREADS:?} thread(s) and \
         lane widths 1/4/8/16, then timing medians..."
    );
    let report = micro_suite(&ORACLE_THREADS);
    let rows: Vec<Vec<String>> = report
        .kernels
        .iter()
        .map(|k| {
            vec![
                k.name.clone(),
                fmt_us(k.generic_median_us),
                fmt_us(k.fast_median_us),
                format!("{:.2}x", k.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["kernel", "generic median", "fast median", "speedup"],
            &rows
        )
    );
    println!(
        "differential oracles passed at {:?} worker thread(s); \
         batched PRFs lane-verified at widths {:?}",
        report.oracle_threads, report.lane_widths
    );
    let _ = write_json_seeded(out, "micro", opts.seed, &report);
    // The canonical artifact lives at the repo root for the paper repro.
    let _ = write_json_seeded(Path::new("."), "BENCH_micro", opts.seed, &report);

    if let Some(path) = baseline {
        #[derive(serde::Deserialize)]
        struct Seeded {
            data: MicroReport,
        }
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read baseline {}: {e}", path.display())));
        let base: Seeded = serde_json::from_str(&text)
            .unwrap_or_else(|e| usage(&format!("cannot parse baseline {}: {e}", path.display())));
        let failures = regressions_against(&report, &base.data);
        if failures.is_empty() {
            println!(
                "regression gate PASSED against {} (threshold {REGRESSION_FACTOR}x)",
                path.display()
            );
        } else {
            eprintln!(
                "\nregression gate FAILED against {} — a kernel got more than {:.0}% slower \
                 than the committed baseline AND lost its speedup margin over the generic path:",
                path.display(),
                (REGRESSION_FACTOR - 1.0) * 100.0
            );
            for f in &failures {
                eprintln!("  - {f}");
            }
            eprintln!(
                "if this slowdown is intentional, regenerate the baseline with \
                 `cargo run --release -p sies-bench --bin repro -- micro` and commit \
                 BENCH_micro.json as BENCH_micro_baseline.json"
            );
            std::process::exit(1);
        }
    }
}

fn trace(opts: &Options, chaos_epochs: u64, threads: Threads, forensics: bool, out: &Path) {
    use sies_bench::observability::{capture_trace, overhead_suite};

    // Phase 1: a short traced run — enough epochs to show every event
    // kind without drowning the terminal or the JSON artifact.
    let trace_epochs = chaos_epochs.clamp(1, 200);
    println!(
        "\n== Trace: telemetry event journal + metric snapshot (SIES, N=64, F=4, seed {}, {} epochs) ==",
        opts.seed, trace_epochs
    );
    let trace = capture_trace(opts.seed, trace_epochs, threads);

    let mut kind_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for ev in &trace.events {
        *kind_counts.entry(ev.kind.name()).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = kind_counts
        .iter()
        .map(|(k, n)| vec![k.to_string(), n.to_string()])
        .collect();
    println!("{}", render_table(&["event", "count"], &rows));

    let last_epoch = trace_epochs - 1;
    println!("last epoch ({last_epoch}) event stream:");
    for ev in trace.epoch_events(last_epoch) {
        println!("  {}", ev.to_json());
    }
    println!(
        "\n{} events captured ({} dropped), result digest {}",
        trace.events.len(),
        trace.dropped,
        trace.result_digest
    );
    let key_counters = [
        "engine.epochs_accepted",
        "engine.epochs_rejected",
        "engine.epochs_lost",
        "engine.sources_run",
        "recovery.nacks",
        "recovery.retransmits",
        "net.bytes.retransmit",
        "crypto.sha256.compressions",
    ];
    for name in key_counters {
        println!("  {name} = {}", trace.metrics.counter(name));
    }

    let threads_seen: HashSet<u64> = trace.timeline.events.iter().map(|e| e.tid).collect();
    println!(
        "timeline: {} spans ({} dropped) on {} thread label(s)",
        trace.timeline.events.len(),
        trace.timeline.dropped,
        threads_seen.len()
    );

    let _ = std::fs::create_dir_all(out);
    for (name, body) in [
        ("trace.json", trace.to_json()),
        (
            "trace_timeline.json",
            sies_telemetry::to_trace_json(&trace.timeline.events),
        ),
    ] {
        let path = out.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => println!("written: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    // Phase 2: the overhead benchmark on the full chaos workload.
    println!(
        "\n== Observability overhead: telemetry on vs off (chaos workload, {} epochs/run, {} worker thread(s)) ==",
        chaos_epochs,
        threads.resolve()
    );
    let report = overhead_suite(opts.seed, chaos_epochs, threads, 7);
    let rows = vec![
        vec![
            "telemetry off".to_string(),
            fmt_ms(report.off_min_ms),
            fmt_ms(report.off_median_ms),
            format!(
                "{:?}",
                report.off_ms.iter().map(|v| v.round()).collect::<Vec<_>>()
            ),
        ],
        vec![
            "telemetry on".to_string(),
            fmt_ms(report.on_min_ms),
            fmt_ms(report.on_median_ms),
            format!(
                "{:?}",
                report.on_ms.iter().map(|v| v.round()).collect::<Vec<_>>()
            ),
        ],
    ];
    println!(
        "{}",
        render_table(&["mode", "best", "median", "samples (ms)"], &rows)
    );
    println!(
        "overhead (median of {} paired ratios): {:+.2}% | digest identical across kill-switch: {} | across threads 1/2/8: {}",
        report.runs_per_mode, report.overhead_pct, report.digests_match, report.threads_invariant
    );
    let _ = write_json_seeded(out, "observability", opts.seed, &report);
    // The canonical artifact lives at the repo root for the paper repro.
    let _ = write_json_seeded(Path::new("."), "BENCH_observability", opts.seed, &report);

    // Phase 3 (opt-in): the forensic attack timeline.
    if forensics {
        use sies_bench::forensics::forensic_timeline;
        let fepochs = chaos_epochs.clamp(1, 500);
        println!(
            "\n== Forensics: receipt journal × telemetry event correlation (seed {}, {} epochs) ==",
            opts.seed, fepochs
        );
        let _ = std::fs::create_dir_all(out);
        let journal_path = out.join("forensics.journal");
        let freport = forensic_timeline(opts.seed, fepochs, threads, &journal_path);
        let _ = std::fs::remove_file(&journal_path);
        println!(
            "{} receipts replayed, {} telemetry events correlated, {} incident epoch(s)",
            freport.receipts_replayed,
            freport.events_correlated,
            freport.incidents.len()
        );
        let rows: Vec<Vec<String>> = freport
            .incidents
            .iter()
            .take(12)
            .map(|i| {
                vec![
                    i.epoch.to_string(),
                    i.verdict.clone(),
                    i.crash_injected.to_string(),
                    i.attack_injected.to_string(),
                    i.adoptions.to_string(),
                    i.lost_links.to_string(),
                    i.anomalies.len().to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "epoch",
                    "verdict",
                    "crash",
                    "attack",
                    "adoptions",
                    "lost links",
                    "anomalies"
                ],
                &rows
            )
        );
        println!(
            "digest live == replayed: {} | evidence streams consistent: {}",
            freport.digests_match, freport.consistent
        );
        let _ = write_json_seeded(out, "forensics", opts.seed, &freport);
    }
}

fn recovery_exp(opts: &Options, chaos_epochs: u64, threads: Threads, out: &Path) {
    use sies_bench::recovery::recovery_suite;

    const KILLS: usize = 3;
    println!(
        "\n== Recovery: kill-restart from the signed receipt journal (SIES, N=64, F=4, seed {}, {} epochs, {} kill points, {} worker thread(s)) ==",
        opts.seed,
        chaos_epochs,
        KILLS,
        threads.resolve()
    );
    let journal_copy = out.join("recovery.journal");
    let report = recovery_suite(opts.seed, chaos_epochs, threads, KILLS, Some(&journal_copy));
    let rows = vec![
        vec!["epochs".to_string(), report.epochs.to_string()],
        vec![
            "kill epochs".to_string(),
            format!("{:?}", report.kill_epochs),
        ],
        vec![
            "replayed receipts".to_string(),
            report.replayed_receipts.to_string(),
        ],
        vec![
            "journal size".to_string(),
            format!(
                "{} ({:.1} bytes/epoch)",
                fmt_bytes(report.journal_bytes as f64),
                report.bytes_per_epoch
            ),
        ],
        vec![
            "cold replay".to_string(),
            format!(
                "{} ({:.0} records/s, {:.1} MB/s)",
                fmt_ms(report.replay_ms),
                report.replay_records_per_sec,
                report.replay_mb_per_sec
            ),
        ],
        vec![
            "availability".to_string(),
            format!("{:.1}%", report.availability * 100.0),
        ],
        vec![
            "unsound epochs".to_string(),
            format!(
                "{}",
                report.false_accepts + report.false_rejects + report.sum_mismatches
            ),
        ],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
    println!(
        "digest identity live == restarted == replayed: {} | thread sweep 1/2/8 invariant: {} (all asserted)",
        report.digests_match, report.threads_invariant
    );
    println!("signed receipt journal kept at {}", journal_copy.display());
    let _ = write_json_seeded(out, "recovery", opts.seed, &report);
    // The canonical artifact lives at the repo root for the paper repro.
    let _ = write_json_seeded(Path::new("."), "BENCH_recovery", opts.seed, &report);
}

/// Attack-detection matrix: which scheme detects which covert attack.
fn security() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sies_baselines::cmt::CmtDeployment;
    use sies_baselines::secoa::SecoaSum;
    use sies_core::SystemParams;
    use sies_net::engine::{Attack, Engine};
    use sies_net::scheme::AggregationScheme;
    use sies_net::{SiesDeployment, Topology};

    println!("\n== Security: covert-attack detection matrix (N=16, F=4) ==");
    let n = 16u64;
    let topo = Topology::complete_tree(n, 4);
    let victim = topo.source_node(5).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let cmt = CmtDeployment::new(&mut rng, n);
    let secoa = SecoaSum::new(&mut rng, n, 32, 512);

    fn run<S: AggregationScheme>(scheme: &S, topo: &Topology, attacks: &[Attack]) -> String {
        let mut engine = Engine::new(scheme, topo);
        let values = vec![100u64; topo.num_sources() as usize];
        // Warm-up epoch so replay has something to replay.
        let _ = engine.run_epoch(0, &values);
        let out = engine.run_epoch_with(1, &values, &HashSet::new(), attacks);
        match out.result {
            Err(_) => "DETECTED".into(),
            Ok(r) if !r.integrity_checked => "undetected (no integrity)".into(),
            Ok(_) => "undetected".into(),
        }
    }

    let attack_list: Vec<(&str, Vec<Attack>)> = vec![
        ("tamper PSR in flight", vec![Attack::TamperAtNode(victim)]),
        ("drop a contribution", vec![Attack::DropAtNode(victim)]),
        ("inject duplicate", vec![Attack::DuplicateAtNode(victim)]),
        ("replay previous epoch", vec![Attack::ReplayFinal]),
    ];
    let rows: Vec<Vec<String>> = attack_list
        .iter()
        .map(|(name, attacks)| {
            vec![
                name.to_string(),
                run(&sies, &topo, attacks),
                run(&cmt, &topo, attacks),
                run(&secoa, &topo, attacks),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["attack", "SIES", "CMT", "SECOAS"], &rows)
    );
}
