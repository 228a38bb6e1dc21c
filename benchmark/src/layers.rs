//! The traced run: per-layer numbers for one workload.
//!
//! Real executor epochs run as in the end-to-end run. Every tenth one
//! (at least five in all) is followed by two *composed* epochs over the
//! same readings, built from the layer calls themselves — source init on
//! `threads` contiguous chunks, each on a scoped thread; `try_merge` up
//! the tree in post-order; `evaluate_par` — one with spans recorded and
//! one without, in alternating order. The composed final PSR must equal
//! the executor's, which shows the decomposition measures the same work;
//! the traced-over-untraced ratio is the tracing overhead.
//!
//! Paced composed epochs run on their own schedule after the paced
//! executor run (its warmer thread owns the idle gaps while it runs) and
//! derive the next sampled epoch's keys in the gap. Chaos composed
//! epochs also carry the executor epoch's receipt and journal record.

use crate::procfs::{self, ProcStat};
use crate::refclock::{RefClock, NOMINAL_NS};
use crate::stats::{median, percentile};
use crate::sut::{self, PrfFloor, PsrBytes, SetupCost, Sum, System};
use crate::trace::{Span, SpanId, Tracer};
use crate::workloads::{
    check_sum, journal_path, median_cost, ms_since, readings, run_paced, Chaos, Clean, Kind,
    Report, Setup, Spec, MIB,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// One composed epoch.
struct Composed {
    /// The still-open `epoch` span (callers may add children first).
    span: SpanId,
    psr: PsrBytes,
    sum: Result<Sum, String>,
    /// Source + merge + querier wall time, ms.
    core_ms: f64,
    merges: u64,
}

/// Builds one epoch from the layer calls, recording spans in `tracer`.
fn compose(
    sys: &System,
    tracer: &mut Tracer,
    epoch: u64,
    values: &[u64],
    threads: usize,
) -> Result<Composed, String> {
    let t0 = Instant::now();
    let span = tracer.open("epoch", epoch, None);

    let src = tracer.open("core.source", epoch, Some(span));
    let mut jobs = Vec::with_capacity(values.len());
    sys.source_jobs(values, &mut jobs);
    let (clock, traced) = (tracer.clock(), tracer.on());
    let chunk = |(i, jobs): (usize, &[(u32, u64)])| {
        let (start, cpu0) = (
            clock.now_ns(),
            if traced { procfs::thread_cpu_ns() } else { 0 },
        );
        let psrs = sys.batch_source_init(epoch, jobs);
        let cpu = traced.then(|| procfs::thread_cpu_ns().saturating_sub(cpu0));
        (psrs, i as u32, start, clock.now_ns(), cpu)
    };
    let parts: Vec<_> = if threads <= 1 {
        vec![chunk((0, &jobs[..]))]
    } else {
        let size = jobs.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(size)
                .enumerate()
                .map(|(i, c)| s.spawn(move || chunk((i + 1, c))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("source worker panicked"))
                .collect()
        })
    };
    let mut inits = Vec::with_capacity(jobs.len());
    for (psrs, thread, start_ns, end_ns, cpu_ns) in parts {
        tracer.push(Span {
            name: "core.source.chunk",
            epoch,
            parent: Some(src),
            thread,
            start_ns,
            end_ns,
            cpu_ns,
        });
        inits.extend(psrs?);
    }
    tracer.close(src);

    let m = tracer.open("core.merge", epoch, Some(span));
    let (root, merges) = sys.merge_tree(&inits)?;
    tracer.close(m);

    let q = tracer.open("core.querier", epoch, Some(span));
    let sum = sys.evaluate(&root, epoch, threads);
    tracer.close(q);

    Ok(Composed {
        span,
        psr: sut::psr_bytes(&root),
        sum,
        core_ms: ms_since(t0),
        merges,
    })
}

/// What the composed epochs of a run measured.
#[derive(Default)]
struct Pairs {
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    merges: u64,
}

impl Pairs {
    /// Runs a traced and an untraced composed epoch over `values`
    /// (order alternating), checks both against `expected` and the
    /// executor's `reference` PSR (when there is one), and hands the
    /// traced epoch's open span to `extra` before closing it. Returns
    /// the composed final PSR.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        sys: &System,
        tracer: &mut Tracer,
        epoch: u64,
        values: &[u64],
        threads: usize,
        expected: u64,
        reference: Option<Option<PsrBytes>>,
        report: &mut Report,
        extra: impl FnOnce(&mut Tracer, SpanId) -> Result<(), String>,
    ) -> Result<PsrBytes, String> {
        let mut off = Tracer::new(false);
        let traced_first = self.traced_ms.len().is_multiple_of(2);
        let untraced = if traced_first {
            None
        } else {
            Some(compose(sys, &mut off, epoch, values, threads)?)
        };
        let traced = compose(sys, tracer, epoch, values, threads)?;
        extra(tracer, traced.span)?;
        tracer.close(traced.span);
        let untraced = match untraced {
            Some(u) => u,
            None => compose(sys, &mut off, epoch, values, threads)?,
        };
        for c in [&traced, &untraced] {
            check_sum(report, "composed", epoch, Some(&c.sum), expected);
        }
        let reference = reference.unwrap_or(Some(untraced.psr));
        report.check(
            reference == Some(traced.psr) && traced.psr == untraced.psr,
            || format!("composed epoch {epoch}: final PSR differs from the executor's"),
        );
        self.traced_ms.push(traced.core_ms);
        self.untraced_ms.push(untraced.core_ms);
        self.merges = traced.merges;
        Ok(traced.psr)
    }

    /// Median traced-over-untraced excess, %.
    fn overhead_pct(&self) -> f64 {
        let ratios: Vec<f64> = self
            .traced_ms
            .iter()
            .zip(&self.untraced_ms)
            .map(|(t, u)| t / u - 1.0)
            .collect();
        median(&ratios) * 100.0
    }
}

/// Telemetry overhead from paired segments with the system's telemetry
/// off and on, order alternating; `segment()` runs one segment and
/// returns its ms per epoch. Leaves telemetry on.
fn telemetry_overhead_pct(
    budget: Duration,
    mut segment: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut ratios = Vec::new();
    while ratios.len() < 3 || t0.elapsed() < budget {
        let on_first = ratios.len() % 2 == 1;
        sut::set_telemetry(on_first);
        let first = segment()?;
        sut::set_telemetry(!on_first);
        let second = segment()?;
        let (on, off) = if on_first {
            (first, second)
        } else {
            (second, first)
        };
        ratios.push(on / off - 1.0);
    }
    sut::set_telemetry(true);
    Ok(median(&ratios) * 100.0)
}

/// ns per key of both per-source PRF sweeps over `n` fresh keys.
fn prf_ns_per_key(sys: &System, seed: u64, budget: Duration) -> f64 {
    let n = sys.num_sources();
    let floor = PrfFloor::new(seed, n, sys);
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (t0.elapsed() < budget && samples.len() < 50) {
        let t = Instant::now();
        std::hint::black_box(floor.sweep(samples.len() as u64));
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&samples)
}

/// Executor epochs with process counters summed over them alone, and
/// the host's contention probed after each.
struct Executor {
    latency_ms: Vec<f64>,
    counters: ProcStat,
    busy_ms: f64,
    clock: RefClock,
}

impl Executor {
    fn new(threads: usize) -> Self {
        Executor {
            latency_ms: Vec::new(),
            counters: ProcStat::default(),
            busy_ms: 0.0,
            clock: RefClock::new(threads),
        }
    }

    fn time(&mut self, f: impl FnOnce() -> Result<f64, String>) -> Result<(), String> {
        let s0 = ProcStat::sample()?;
        let t = Instant::now();
        let ms = f()?;
        let d = ProcStat::sample()?.since(&s0);
        self.busy_ms += ms_since(t);
        self.counters.user_ms += d.user_ms;
        self.counters.sys_ms += d.sys_ms;
        self.counters.minflt += d.minflt;
        self.latency_ms.push(ms);
        self.clock.factor();
        Ok(())
    }
}

/// Numbers only some workloads produce; the rest report 0.
#[derive(Default)]
struct Extra {
    prewarm_hit_ratio: f64,
    prewarm_derive_ms: f64,
    backlog_ms_max: f64,
    deadline_miss_frac: f64,
    engine_ms_p50: f64,
    wire: [f64; 5],
    journal: [f64; 4],
    detection_ratio: f64,
    pipeline_state_bytes: f64,
}

/// The traced run of one workload.
pub fn run(spec: &Spec, seed: u64, seconds: Duration, out: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let rss0 = procfs::rss_bytes()? as f64;
    let setup = Setup::new(spec, seed, Duration::ZERO)?;
    let first = setup.first;
    let sys = &setup.sys;
    let n = sys.num_sources();
    let threads = spec.threads;
    let mut tracer = Tracer::new(true);
    let mut pairs = Pairs::default();
    let mut exec = Executor::new(threads);
    let mut extra = Extra::default();
    let main_budget = seconds.mul_f64(0.6);
    let tel_budget = seconds.mul_f64(0.2);
    let peak_rss;
    let telemetry_pct;

    match spec.kind {
        Kind::Closed { warmup } => {
            let mut c = Clean::new(sys, threads, seed);
            for e in 0..warmup {
                c.epoch(e, &mut report);
            }
            extra.pipeline_state_bytes = c.pipe.state_bytes() as f64;
            let t0 = Instant::now();
            let mut e = warmup;
            while t0.elapsed() < main_budget || pairs.traced_ms.len() < 5 {
                exec.time(|| Ok(c.epoch(e, &mut report)))?;
                if (e - warmup) % 10 == 0 {
                    let reference = Some(c.pipe.last_final_psr());
                    pairs.run(
                        sys,
                        &mut tracer,
                        e,
                        &c.values,
                        threads,
                        c.expected,
                        reference,
                        &mut report,
                        |_, _| Ok(()),
                    )?;
                }
                e += 1;
            }
            peak_rss = procfs::peak_rss_bytes()? as f64;
            let per_segment = segment_epochs(median(&exec.latency_ms));
            telemetry_pct = telemetry_overhead_pct(tel_budget, || {
                let t = Instant::now();
                for _ in 0..per_segment {
                    c.epoch(e, &mut report);
                    e += 1;
                }
                Ok(ms_since(t) / per_segment as f64)
            })?;
        }
        Kind::Paced { period } => {
            sys.set_prewarm(true);
            let mut c = Clean::new(sys, threads, seed);
            for e in 0..2 {
                c.epoch(e, &mut report);
            }
            extra.pipeline_state_bytes = c.pipe.state_bytes() as f64;
            let epochs = (main_budget.as_secs_f64() / 2.0 / period.as_secs_f64()).max(10.0) as u64;
            let (hits0, lookups0) = sys.prewarm_hits();
            let s0 = ProcStat::sample()?;
            let paced = run_paced(&mut c, 2, epochs, period, &mut exec.clock, &mut report);
            let mut d = ProcStat::sample()?.since(&s0);
            // The generator's busy-waiting is user time, not the system's.
            d.user_ms -= paced.wait_cpu_ms;
            let (hits, lookups) = sys.prewarm_hits();
            extra.prewarm_hit_ratio = (hits - hits0) as f64 / (lookups - lookups0).max(1) as f64;
            extra.backlog_ms_max = paced.backlog_ms;
            extra.deadline_miss_frac = paced.misses as f64 / epochs as f64;
            exec.counters = d;
            exec.busy_ms = paced.latency_ms.iter().sum();
            exec.latency_ms = paced.latency_ms;

            // Composed epochs on sampled epochs of the run above, one per
            // period, deriving the next sample's keys in the gap.
            let samples: Vec<u64> = (0..epochs.div_ceil(10).max(5))
                .map(|i| 2 + (i * 10) % epochs)
                .collect();
            let start = Instant::now() + period;
            let mut derive_ms = Vec::new();
            for (i, &s) in samples.iter().enumerate() {
                if let Some(wait) =
                    (start + period * i as u32).checked_duration_since(Instant::now())
                {
                    std::thread::sleep(wait);
                }
                let expected = readings(seed, s, &mut c.values);
                let reference = Some(paced.psrs[(s - 2) as usize]);
                pairs.run(
                    sys,
                    &mut tracer,
                    s,
                    &c.values,
                    threads,
                    expected,
                    reference,
                    &mut report,
                    |_, _| Ok(()),
                )?;
                if let Some(&next) = samples.get(i + 1) {
                    let span = tracer.open("net.prewarm", next, None);
                    sys.prewarm_derive(next);
                    tracer.close(span);
                    derive_ms.push(tracer.spans()[span].dur_ns() as f64 / 1e6);
                }
            }
            extra.prewarm_derive_ms = median(&derive_ms);
            peak_rss = procfs::peak_rss_bytes()? as f64;

            // Telemetry pairs need back-to-back epochs: closed loop,
            // pool off, so no warmer competes for the cores.
            sys.set_prewarm(false);
            let per_segment = segment_epochs(median(&pairs.untraced_ms));
            let mut e = 2 + epochs;
            telemetry_pct = telemetry_overhead_pct(tel_budget, || {
                let t = Instant::now();
                for _ in 0..per_segment {
                    c.epoch(e, &mut report);
                    e += 1;
                }
                Ok(ms_since(t) / per_segment as f64)
            })?;
        }
        Kind::Chaos { kill_horizon } => {
            let mut c = Chaos::new(sys, seed, journal_path(out, spec), kill_horizon)?;
            for _ in 0..20 {
                c.epoch(&mut report, |_, _| Ok(None))?;
            }
            let t0 = Instant::now();
            let mut k = 0u64;
            while t0.elapsed() < main_budget || pairs.traced_ms.len() < 5 || !c.kills_done() {
                k += 1;
                if !k.is_multiple_of(10) {
                    exec.time(|| c.epoch(&mut report, |_, _| Ok(None)))?;
                    continue;
                }
                // A sampled epoch: the composed pair runs between the
                // engine's epoch and its journal record, so it is left
                // out of the executor's counters.
                let mut composed = Report::default();
                c.epoch(&mut report, |c, run| {
                    let e = c.epoch;
                    let values = c.values.clone();
                    let mut receipt = None;
                    // The composed epoch is clean: its sum is over every
                    // source, and its PSR must match the engine's only
                    // when the engine's epoch was clean too.
                    let truth = values.iter().sum();
                    let psr = pairs.run(
                        sys,
                        &mut tracer,
                        e,
                        &values,
                        threads,
                        truth,
                        None,
                        &mut composed,
                        |tr, span| {
                            let s = tr.open("net.engine.receipt", e, Some(span));
                            let mut r = run.receipt(e, &values);
                            tr.close(s);
                            let s = tr.open("net.journal.record", e, Some(span));
                            c.record(&mut r);
                            tr.close(s);
                            receipt = Some(r);
                            Ok(())
                        },
                    )?;
                    let r = receipt.ok_or("composed epoch recorded no receipt")?;
                    if c.is_clean_full(&r) {
                        composed.check(c.net.last_final_psr() == Some(psr), || {
                            format!("composed epoch {e}: final PSR differs from the engine's")
                        });
                    }
                    Ok(Some(r))
                })?;
                report.absorb(composed);
            }
            peak_rss = procfs::peak_rss_bytes()? as f64;
            let per_segment = segment_epochs(median(&c.run_ms));
            telemetry_pct = telemetry_overhead_pct(tel_budget, || {
                let t = Instant::now();
                for _ in 0..per_segment {
                    c.epoch(&mut report, |_, _| Ok(None))?;
                }
                Ok(ms_since(t) / per_segment as f64)
            })?;
            extra.wire = c.wire.map(|sum| sum as f64 / c.epoch as f64);
            extra.engine_ms_p50 = median(&c.run_ms);
            extra.detection_ratio = c.detection_ratio();
            let record_us_p50 = median(&c.record_us);
            let resume_ms = median(&c.resume_ms);
            let (bytes_per_receipt, replay_rate) = c.finish(&mut report)?;
            extra.journal = [record_us_p50, bytes_per_receipt, resume_ms, replay_rate];
        }
    }

    let prf_ns = prf_ns_per_key(sys, seed, seconds.mul_f64(0.1));
    let (nodes, arena_bytes) = (sys.num_nodes(), sys.arena_bytes());
    let costs = setup.repeat(spec, seed, seconds / 5)?;
    layer_metrics(
        &mut report,
        &costs,
        &tracer,
        &pairs,
        &exec,
        &extra,
        LayerInputs {
            first,
            n,
            nodes,
            arena_bytes,
            threads,
            rss0,
            peak_rss,
            prf_ns,
            telemetry_pct,
        },
    );
    let path = out.join(format!("{}.trace.json", spec.name));
    tracer
        .write_chrome(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}

/// Epochs per telemetry segment: enough for ~100 ms.
fn segment_epochs(epoch_ms: f64) -> usize {
    (100.0 / epoch_ms.max(0.01)).ceil().clamp(1.0, 1000.0) as usize
}

struct LayerInputs {
    /// The run's own set-up, in a fresh process.
    first: SetupCost,
    n: u64,
    nodes: usize,
    arena_bytes: usize,
    threads: usize,
    rss0: f64,
    peak_rss: f64,
    prf_ns: f64,
    telemetry_pct: f64,
}

/// Assembles every per-layer metric from the spans and counters.
fn layer_metrics(
    report: &mut Report,
    costs: &[SetupCost],
    tracer: &Tracer,
    pairs: &Pairs,
    exec: &Executor,
    extra: &Extra,
    inp: LayerInputs,
) {
    let n = inp.n as f64;
    let nodes = inp.nodes as f64;
    let epochs = exec.latency_ms.len().max(1) as f64;

    // Per composed epoch: each layer span's duration, source CPU summed
    // over the chunk threads, and how much of the epoch spans cover.
    let (mut source, mut source_cpu, mut merge, mut querier, mut coverage) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut self_ms: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (id, span) in tracer.spans().iter().enumerate() {
        self_ms
            .entry(span.name)
            .or_default()
            .push(tracer.self_ns(id) as f64 / 1e6);
    }
    for (id, _) in tracer.named("epoch") {
        coverage.push(tracer.coverage(id));
        for (cid, child) in tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
        {
            let ms = child.dur_ns() as f64 / 1e6;
            match child.name {
                "core.source" => {
                    source.push(ms);
                    let cpu: u64 = tracer
                        .spans()
                        .iter()
                        .filter(|s| s.parent == Some(cid))
                        .filter_map(|s| s.cpu_ns)
                        .sum();
                    source_cpu.push(cpu as f64 / 1e6);
                }
                "core.merge" => merge.push(ms),
                "core.querier" => querier.push(ms),
                _ => {}
            }
        }
    }
    let source_cpu_ms = median(&source_cpu);
    let querier_ms = median(&querier);
    let keys = inp.first.keys_rss as f64;
    let tree = inp.first.tree_rss as f64;

    report.set(
        "net.deploy.keygen_s",
        "s",
        median_cost(costs, |c| c.keygen_s),
    );
    report.set("net.flat.build_s", "s", median_cost(costs, |c| c.tree_s));
    report.set("mem.keys_bytes_per_source", "B", keys / n);
    report.set(
        "mem.arena_bytes_per_node",
        "B",
        inp.arena_bytes as f64 / nodes,
    );
    report.set(
        "mem.pipeline_state_bytes_per_node",
        "B",
        extra.pipeline_state_bytes / nodes,
    );
    report.set(
        "mem.unattributed_mb",
        "MB",
        (inp.peak_rss - inp.rss0 - keys - tree - extra.pipeline_state_bytes) / MIB,
    );
    report.set("mem.peak_rss_mb", "MB", inp.peak_rss / MIB);
    report.set(
        "process.user_cpu_ms_per_epoch",
        "ms",
        exec.counters.user_ms / epochs,
    );
    report.set(
        "process.sys_cpu_ms_per_epoch",
        "ms",
        exec.counters.sys_ms / epochs,
    );
    report.set(
        "process.minflt_per_epoch",
        "count",
        exec.counters.minflt as f64 / epochs,
    );
    report.set(
        "process.parallel_efficiency",
        "ratio",
        exec.counters.cpu_ms() / (exec.busy_ms * inp.threads as f64).max(1e-9),
    );
    report.set("crypto.prf.ns_per_key", "ns", inp.prf_ns);
    report.set(
        "crypto.lanes.effective_width",
        "count",
        sut::effective_lane_width() as f64,
    );
    report.set("core.source.ms_per_epoch", "ms", median(&source));
    report.set("core.source.cpu_ms_per_epoch", "ms", source_cpu_ms);
    report.set("core.source.ns_per_source", "ns", source_cpu_ms * 1e6 / n);
    // The PRF floor over all source-side work, including keys the prewarm
    // pool derived in the gap (0 where it is off).
    let source_work_ms = source_cpu_ms + extra.prewarm_derive_ms;
    report.set(
        "core.source.crypto_share",
        "ratio",
        inp.prf_ns * n / 1e6 / source_work_ms.max(1e-9),
    );
    report.set("core.merge.ms_per_epoch", "ms", median(&merge));
    report.set("core.merge.calls_per_epoch", "count", pairs.merges as f64);
    report.set("core.querier.ms_per_epoch", "ms", querier_ms);
    report.set(
        "core.querier.ns_per_contributor",
        "ns",
        querier_ms * 1e6 / n,
    );
    report.set(
        "core.querier.detection_ratio",
        "ratio",
        extra.detection_ratio,
    );
    let executor_p50 = if extra.engine_ms_p50 > 0.0 {
        0.0
    } else {
        median(&exec.latency_ms) - median(&pairs.untraced_ms)
    };
    report.set("net.pipeline.overhead_ms_per_epoch", "ms", executor_p50);
    report.set("net.prewarm.hit_ratio", "ratio", extra.prewarm_hit_ratio);
    report.set("net.prewarm.derive_ms", "ms", extra.prewarm_derive_ms);
    report.set("paced.backlog_ms_max", "ms", extra.backlog_ms_max);
    report.set(
        "paced.deadline_miss_frac",
        "ratio",
        extra.deadline_miss_frac,
    );
    report.set("net.engine.recovering_ms_p50", "ms", extra.engine_ms_p50);
    report.set("net.recovery.wire_bytes_per_epoch", "B", extra.wire[0]);
    report.set(
        "net.recovery.retransmit_bytes_per_epoch",
        "B",
        extra.wire[1],
    );
    report.set("net.recovery.control_bytes_per_epoch", "B", extra.wire[2]);
    report.set(
        "net.recovery.resolicitations_per_epoch",
        "count",
        extra.wire[3],
    );
    report.set("net.recovery.adoptions_per_epoch", "count", extra.wire[4]);
    report.set("net.journal.record_us_p50", "us", extra.journal[0]);
    report.set("net.journal.bytes_per_receipt", "B", extra.journal[1]);
    report.set("net.journal.resume_ms", "ms", extra.journal[2]);
    report.set("net.journal.replay_records_per_s", "1/s", extra.journal[3]);
    report.set("telemetry.overhead_pct", "%", inp.telemetry_pct);
    report.set(
        "host.slowdown",
        "ratio",
        median(exec.clock.probes()) / NOMINAL_NS,
    );
    report.set("trace.overhead_pct", "%", pairs.overhead_pct());
    report.set(
        "trace.coverage",
        "ratio",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
    );

    report.detail.push(("executor_epochs".into(), epochs));
    report
        .detail
        .push(("executor_p50_ms".into(), median(&exec.latency_ms)));
    report
        .detail
        .push(("executor_p90_ms".into(), percentile(&exec.latency_ms, 90.0)));
    report
        .detail
        .push(("composed_epochs".into(), pairs.traced_ms.len() as f64 * 2.0));
    report
        .detail
        .push(("composed_p50_ms".into(), median(&pairs.untraced_ms)));
    report
        .detail
        .push(("trace.coverage_median".into(), median(&coverage)));
    for (name, v) in self_ms {
        report
            .detail
            .push((format!("self_ms_p50.{name}"), median(&v)));
    }
}
