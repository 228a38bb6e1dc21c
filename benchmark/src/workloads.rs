//! The four workloads and their end-to-end runs.
//!
//! Every workload runs on a complete fanout-4 tree with uniform seeded
//! readings. The sizes and the paced rate were chosen from measurements
//! on a 2-vCPU host with 2 MiB of L2 per core and a 300 MiB L3 shared
//! with other tenants; the figures are in the README.
//!
//! * `clean-50k`: 50 000 sources, 2 pipeline workers, closed loop; the
//!   only parallel workload. Per-source crypto dominates. Key material
//!   (~70 MB) spills the L2 but fits the L3, and kernel time is a few
//!   percent of CPU. At 300 000 sources keys outgrow the L3 and page
//!   faults take a sixth of the CPU, as at 10⁶, but a 20 s run then
//!   fits 20 epochs in six times the memory, and its time metrics
//!   spread 7.5–8.3 % over ten seeds where 50 000 sources spread
//!   2.1–2.9 % in the same hour.
//! * `clean-10k`: 10 000 sources, serial, closed loop. Keys (~14 MB)
//!   stay near cache, so fixed per-epoch costs (K_t inversion, buffers,
//!   telemetry, executor glue) are a visible share.
//! * `paced-16k`: 16 384 sources, serial plus the prewarm pool, open
//!   loop at one epoch per 200 ms. The only workload with idle gaps, so
//!   the only one where precompute-ahead can work. At 125 ms a busy
//!   host left the warmer too little of the gap, and the corrected
//!   median rose by up to 39 % where the serial closed loop's did not.
//! * `chaos-1k`: 1 000 sources through `Engine::run_epoch_recovering`
//!   with frame loss, crashes and covert attacks, every receipt
//!   journaled with fsync, and four querier kills resumed from the
//!   journal. Crypto is a small share; the fault path is the rest.

use crate::heap;
use crate::procfs::{self, ProcStat};
use crate::refclock::RefClock;
use crate::stats::{median, percentile, tail_percentile};
use crate::sut::{
    self, AttackKind, ChaosNet, Digest, Faults, Journal, Pipeline, PsrBytes, Receipt, Sum, System,
    Tally, Verdict,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bytes per MB in the reported metrics.
pub const MIB: f64 = (1 << 20) as f64;
/// Largest reading a source reports (uniform in `0..=MAX_READING`).
const MAX_READING: u64 = 4095;
/// Fewest measured epochs a run reports, however short `--seconds` is.
const MIN_EPOCHS: usize = 20;

/// Chaos mix per epoch: frame loss with link retries, crash of 1–3
/// nodes, and one covert attack.
const LOSS: f64 = 0.1;
const RETRIES: u32 = 3;
const CRASH_P: f64 = 0.2;
const ATTACK_P: f64 = 0.2;
/// Querier kills per chaos run, resumed from the journal.
const KILLS: usize = 4;

/// Every workload, in the order `run --all` runs them.
pub const NAMES: [&str; 4] = ["clean-50k", "clean-10k", "paced-16k", "chaos-1k"];

/// How epochs are driven.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The next epoch starts when the previous one is verified.
    Closed {
        /// Unmeasured epochs before timing starts.
        warmup: u64,
    },
    /// Epoch `t`'s readings are due at `t × period`, whether or not the
    /// previous result is in.
    Paced {
        /// Time between due times.
        period: Duration,
    },
    /// Closed loop over the fault path.
    Chaos {
        /// Kills are drawn from epochs below this.
        kill_horizon: u64,
    },
}

/// One workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Number of sources.
    pub n: u64,
    /// Executor worker threads.
    pub threads: usize,
    /// How epochs are driven.
    pub kind: Kind,
}

/// The named workload; `smoke` shrinks it to at most 1 000 sources.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let (name, n, threads, kind) = match name {
        "clean-50k" => ("clean-50k", 50_000, 2, Kind::Closed { warmup: 1 }),
        "clean-10k" => ("clean-10k", 10_000, 1, Kind::Closed { warmup: 10 }),
        "paced-16k" => (
            "paced-16k",
            16_384,
            1,
            Kind::Paced {
                period: Duration::from_millis(200),
            },
        ),
        "chaos-1k" => (
            "chaos-1k",
            1_000,
            1,
            Kind::Chaos {
                kill_horizon: 2_000,
            },
        ),
        _ => return None,
    };
    let spec = Spec {
        name,
        n,
        threads,
        kind,
    };
    Some(if smoke { spec.smoke() } else { spec })
}

impl Spec {
    fn smoke(self) -> Spec {
        let kind = match self.kind {
            Kind::Paced { .. } => Kind::Paced {
                period: Duration::from_millis(20),
            },
            Kind::Chaos { .. } => Kind::Chaos { kill_horizon: 60 },
            k => k,
        };
        Spec {
            n: self.n.min(match self.kind {
                Kind::Chaos { .. } => 200,
                _ => 1_000,
            }),
            kind,
            ..self
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Epochs (and whole-run checks) attempted.
    pub attempted: u64,
    /// Those that failed a correctness check.
    pub failed: u64,
    /// The first few failures, described.
    pub violations: Vec<String>,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Supporting numbers for the result file (self times, counts).
    pub detail: Vec<(String, f64)>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Counts one attempted check and records it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.violations.len() < 20 {
                self.violations.push(what());
            }
        }
    }

    /// Adds another report's checks to this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.violations.len());
        self.violations
            .extend(other.violations.into_iter().take(room));
    }
}

/// Writes epoch `epoch`'s readings into `out`; returns their sum. The
/// stream depends only on the seed and the epoch, so an epoch's inputs
/// can be regenerated for a second executor.
pub fn readings(seed: u64, epoch: u64, out: &mut [u64]) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    out.iter_mut()
        .map(|v| {
            *v = rng.random_range(0..=MAX_READING);
            *v
        })
        .sum()
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Checks a clean epoch: accepted, verified, and equal to Σ readings.
pub fn check_sum(
    report: &mut Report,
    what: &str,
    epoch: u64,
    got: Option<&Result<Sum, String>>,
    expected: u64,
) {
    report.check(
        matches!(got, Some(Ok(s)) if s.verified && s.value == expected),
        || format!("{what} epoch {epoch}: got {got:?}, expected verified sum {expected}"),
    );
}

/// The system a run measures, and the cost of setting it up.
pub struct Setup {
    /// The system.
    pub sys: System,
    /// Its own set-up cost; in a fresh process when no set-ups were
    /// timed before it, so that its memory growth is attributable.
    pub first: sut::SetupCost,
    /// Every set-up's contention-corrected cost so far, its own last.
    costs: Vec<sut::SetupCost>,
}

impl Setup {
    /// Times set-ups for `window`, each dropped before the next, then
    /// sets up the run's system.
    pub fn new(spec: &Spec, seed: u64, window: Duration) -> Result<Setup, String> {
        let mut clock = RefClock::new(1);
        let mut costs = Vec::new();
        timed_setups(&mut clock, spec, seed, window, &mut costs)?;
        let (sys, first) = corrected_setup(&mut clock, spec, seed)?;
        costs.push(first);
        Ok(Setup { sys, first, costs })
    }

    /// Drops the run's system and times further set-ups for `window`,
    /// at least five in all. Set-ups timed on both sides of the
    /// measured stretch see more of the host's phases than one window
    /// would, so their median moves less between runs. Returns every
    /// set-up's cost.
    pub fn repeat(
        self,
        spec: &Spec,
        seed: u64,
        window: Duration,
    ) -> Result<Vec<sut::SetupCost>, String> {
        let mut costs = self.costs;
        drop(self.sys);
        let mut clock = RefClock::new(1);
        timed_setups(&mut clock, spec, seed, window, &mut costs)?;
        while costs.len() < 5 {
            costs.push(corrected_setup(&mut clock, spec, seed)?.1);
        }
        Ok(costs)
    }
}

/// Set-ups until `window` has passed (at most 500), each dropped before
/// the next, so none moves the peak heap.
fn timed_setups(
    clock: &mut RefClock,
    spec: &Spec,
    seed: u64,
    window: Duration,
    costs: &mut Vec<sut::SetupCost>,
) -> Result<(), String> {
    let t0 = Instant::now();
    for _ in 0..500 {
        if t0.elapsed() >= window {
            break;
        }
        costs.push(corrected_setup(clock, spec, seed)?.1);
    }
    Ok(())
}

/// One set-up, its times corrected by the probes on either side.
fn corrected_setup(
    clock: &mut RefClock,
    spec: &Spec,
    seed: u64,
) -> Result<(System, sut::SetupCost), String> {
    let (sys, mut cost) = System::setup(seed, spec.n)?;
    let f = clock.factor();
    cost.keygen_s *= f;
    cost.tree_s *= f;
    Ok((sys, cost))
}

/// Median over set-ups of a part of their cost, s.
pub fn median_cost(costs: &[sut::SetupCost], part: fn(&sut::SetupCost) -> f64) -> f64 {
    median(&costs.iter().map(part).collect::<Vec<_>>())
}

/// The clean-path executor with its reading buffer.
pub struct Clean<'a> {
    /// The pipeline.
    pub pipe: Pipeline<'a>,
    /// The last epoch's readings.
    pub values: Vec<u64>,
    /// Their sum.
    pub expected: u64,
    seed: u64,
}

impl<'a> Clean<'a> {
    /// A pipeline over `sys` with `threads` workers.
    pub fn new(sys: &'a System, threads: usize, seed: u64) -> Self {
        Clean {
            pipe: Pipeline::new(sys, threads),
            values: vec![0; sys.num_sources() as usize],
            expected: 0,
            seed,
        }
    }

    /// Runs and checks one epoch; returns its latency, ms. Readings are
    /// generated before the clock starts.
    pub fn epoch(&mut self, epoch: u64, report: &mut Report) -> f64 {
        self.expected = readings(self.seed, epoch, &mut self.values);
        let values = &self.values;
        let mut got = None;
        let t = Instant::now();
        self.pipe.run(
            epoch,
            1,
            |_, v| v.copy_from_slice(values),
            |_, r, _| got = Some(r),
        );
        let ms = ms_since(t);
        check_sum(report, "pipeline", epoch, got.as_ref(), self.expected);
        ms
    }
}

/// What an open-loop run of the pipeline saw.
pub struct Paced {
    /// Due time to verified result, per epoch, ms.
    pub latency_ms: Vec<f64>,
    /// Each epoch's contention factor.
    pub factors: Vec<f64>,
    /// Each epoch's final PSR.
    pub psrs: Vec<Option<PsrBytes>>,
    /// Epochs whose result came after the next epoch was due.
    pub misses: u64,
    /// How late the generator handed over readings, at most, ms.
    pub backlog_ms: f64,
    /// Each epoch's heap high-water mark, from the previous result to
    /// its own, bytes.
    pub heap_peaks: Vec<f64>,
    /// CPU the generator burned waiting for due times, ms; not the
    /// system's.
    pub wait_cpu_ms: f64,
}

/// Runs `epochs` epochs from `first`, epoch `first + i` due `i` periods
/// after the run starts (one period from now). `clock` brackets each
/// epoch with probes 1 ms before it is due and right after its result,
/// before the prewarm warmer is let loose on the gap.
///
/// The generator busy-waits for due times rather than sleeping. When it
/// slept, the vCPU halted in the gap and the host gave its core to other
/// tenants; the epoch after the gap then ran up to 2.8× slower at
/// random (uncorrected deciles 24–91 ms sleeping, 23–46 ms busy-waiting,
/// on a busy 2-vCPU host), and the corrected median's interquartile
/// range over ten seeds reached 27 %. The system still has the gap to
/// itself: nothing but its prewarm warmer runs there.
pub fn run_paced(
    c: &mut Clean<'_>,
    first: u64,
    epochs: u64,
    period: Duration,
    clock: &mut RefClock,
    report: &mut Report,
) -> Paced {
    let start = Instant::now() + period;
    let due = |e: u64| start + period * (e - first) as u32;
    let wait_cpu_ms = Cell::new(0.0f64);
    let wait_until = |t: Instant| {
        let cpu0 = procfs::thread_cpu_ns();
        while Instant::now() < t {
            std::hint::spin_loop();
        }
        let ms = procfs::thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e6;
        wait_cpu_ms.set(wait_cpu_ms.get() + ms);
    };
    let expected: Vec<Cell<u64>> = vec![Cell::new(0); epochs as usize];
    let mut out = Paced {
        latency_ms: Vec::with_capacity(epochs as usize),
        factors: Vec::with_capacity(epochs as usize),
        psrs: Vec::with_capacity(epochs as usize),
        misses: 0,
        backlog_ms: 0.0,
        heap_peaks: Vec::with_capacity(epochs as usize),
        wait_cpu_ms: 0.0,
    };
    let (seed, backlog, clock) = (c.seed, Cell::new(0.0f64), RefCell::new(clock));
    c.pipe.run(
        first,
        epochs,
        |e, v| {
            expected[(e - first) as usize].set(readings(seed, e, v));
            wait_until(due(e) - Duration::from_millis(1));
            // Opens the bracket around epoch e.
            clock.borrow_mut().factor();
            let now = Instant::now();
            if now > due(e) {
                backlog.set(backlog.get().max((now - due(e)).as_secs_f64() * 1e3));
            }
            wait_until(due(e));
        },
        |e, r, psr| {
            let late = Instant::now().saturating_duration_since(due(e));
            out.misses += u64::from(late > period);
            out.latency_ms.push(late.as_secs_f64() * 1e3);
            out.factors.push(clock.borrow_mut().factor());
            out.heap_peaks.push(heap::take_peak() as f64);
            out.psrs.push(psr);
            check_sum(
                report,
                "paced pipeline",
                e,
                Some(&r),
                expected[(e - first) as usize].get(),
            );
        },
    );
    out.backlog_ms = backlog.get();
    out.wait_cpu_ms = wait_cpu_ms.get();
    out
}

/// The chaos executor, its querier journal and the checks on both.
pub struct Chaos<'a> {
    /// The recovering engine.
    pub net: ChaosNet<'a>,
    n: usize,
    rng: StdRng,
    /// The current epoch's readings.
    pub values: Vec<u64>,
    journal: Option<Journal>,
    path: PathBuf,
    kills: BTreeSet<u64>,
    tally: Tally,
    digest: Digest,
    recorded: u64,
    /// The next epoch to run.
    pub epoch: u64,
    /// `run_epoch_recovering` time per epoch, ms.
    pub run_ms: Vec<f64>,
    /// Journal record time per epoch, µs.
    pub record_us: Vec<f64>,
    /// Resume time per querier kill, ms.
    pub resume_ms: Vec<f64>,
    /// Per-epoch sums over receipts: wire (data + retransmit + control),
    /// retransmit and control bytes, re-solicitations, adoptions.
    pub wire: [u64; 5],
}

/// The faults and readings of one chaos epoch, from the benchmark's RNG.
fn draw_faults(rng: &mut StdRng, candidates: &[usize]) -> Faults {
    let mut faults = Faults::default();
    if rng.random_range(0.0..1.0) < CRASH_P {
        for _ in 0..rng.random_range(1..=3usize) {
            let node = candidates[rng.random_range(0..candidates.len())];
            if !faults.crashed.contains(&node) {
                faults.crashed.push(node);
            }
        }
    }
    if rng.random_range(0.0..1.0) < ATTACK_P {
        let live: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|c| !faults.crashed.contains(c))
            .collect();
        let kind = [
            AttackKind::Tamper,
            AttackKind::Drop,
            AttackKind::Duplicate,
            AttackKind::Replay,
        ][rng.random_range(0..4usize)];
        faults.attack = Some((kind, live[rng.random_range(0..live.len())]));
    }
    faults
}

impl<'a> Chaos<'a> {
    /// A chaos run over `sys`, journaling to `path`.
    pub fn new(
        sys: &'a System,
        seed: u64,
        path: PathBuf,
        kill_horizon: u64,
    ) -> Result<Self, String> {
        // Kill i falls within ±1% of the horizon around i/(KILLS+1) of
        // it: seeded, yet each resume replays about as many receipts
        // under every seed (a resume holds them all in memory), which
        // keeps peak RSS steady across seeds.
        let mut kill_rng = StdRng::seed_from_u64(seed ^ 0x0004_B111);
        let slot = kill_horizon / (KILLS as u64 + 1);
        let jitter = (kill_horizon / 100).max(1);
        let kills: BTreeSet<u64> = (1..=KILLS as u64)
            .map(|i| {
                (i * slot + kill_rng.random_range(0..2 * jitter))
                    .saturating_sub(jitter)
                    .max(1)
            })
            .collect();
        Ok(Chaos {
            net: ChaosNet::new(sys, LOSS, RETRIES),
            n: sys.num_sources() as usize,
            rng: StdRng::seed_from_u64(seed ^ 0x000C_4A05),
            values: vec![0; sys.num_sources() as usize],
            journal: Some(Journal::create(&path)?),
            path,
            kills,
            tally: Tally::default(),
            digest: Digest::new(),
            recorded: 0,
            epoch: 0,
            run_ms: Vec::new(),
            record_us: Vec::new(),
            resume_ms: Vec::new(),
            wire: [0; 5],
        })
    }

    /// Whether every scheduled kill has happened.
    pub fn kills_done(&self) -> bool {
        self.kills.last().is_none_or(|&k| self.epoch > k)
    }

    /// Kills the querier at an epoch boundary and resumes it from the
    /// journal alone; the rebuilt counters and digest must equal the
    /// live ones.
    fn restart(&mut self, report: &mut Report) -> Result<(), String> {
        let t = Instant::now();
        drop(self.journal.take());
        let (journal, replayed) = Journal::resume(&self.path)?;
        self.resume_ms.push(ms_since(t));
        let mut tally = Tally::default();
        for r in &replayed.receipts {
            sut::classify(&mut tally, r);
        }
        report.check(
            replayed.digest.hex() == self.digest.hex()
                && tally == self.tally
                && replayed.receipts.len() as u64 == self.recorded,
            || {
                format!(
                    "resume at epoch {}: replayed state differs from the live querier",
                    self.epoch
                )
            },
        );
        self.journal = Some(journal);
        self.tally = tally;
        self.digest = replayed.digest;
        Ok(())
    }

    /// Runs one epoch: readings and faults, a kill-and-resume when one is
    /// scheduled, the recovering epoch, its receipt and journal record.
    /// `between` runs after the epoch and may take over building and
    /// recording the receipt (the traced run puts spans around them); it
    /// returns `None` to leave that to this method. Returns the latency
    /// from kill (if any) to recorded receipt, ms.
    pub fn epoch<F>(&mut self, report: &mut Report, between: F) -> Result<f64, String>
    where
        F: FnOnce(&mut Self, &sut::Recovered) -> Result<Option<Receipt>, String>,
    {
        let e = self.epoch;
        readings(self.rng.random_range(0..u64::MAX), e, &mut self.values);
        let faults = draw_faults(&mut self.rng, self.net.candidates());
        let t = Instant::now();
        if self.kills.contains(&e) {
            self.restart(report)?;
        }
        let tr = Instant::now();
        let run = self.net.run(e, &self.values, &faults, &mut self.rng);
        self.run_ms.push(ms_since(tr));
        let receipt = match between(self, &run)? {
            Some(r) => r,
            None => {
                let mut r = run.receipt(e, &self.values);
                self.record(&mut r);
                r
            }
        };
        let ms = ms_since(t);
        self.digest.fold(&receipt);
        sut::classify(&mut self.tally, &receipt);
        let values = &self.values;
        report.check(receipt_is_correct(&receipt, values), || {
            format!(
                "chaos epoch {e}: {:?} (corrupted {}, sum mismatch {})",
                receipt.verdict, receipt.corrupted, receipt.sum_mismatch
            )
        });
        let r = &receipt;
        for (sum, v) in self.wire.iter_mut().zip([
            r.data_bytes + r.retransmit_bytes + r.control_bytes,
            r.retransmit_bytes,
            r.control_bytes,
            r.resolicitations,
            r.adoptions,
        ]) {
            *sum += v;
        }
        self.epoch += 1;
        Ok(ms)
    }

    /// Records a receipt in the journal, timing the write.
    pub fn record(&mut self, r: &mut Receipt) {
        let t = Instant::now();
        if let Some(j) = self.journal.as_mut() {
            j.record(r);
        }
        self.record_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.recorded += 1;
    }

    /// Whether `receipt`'s final PSR is the clean aggregate of every
    /// source, so a composed epoch over the same readings must match it.
    pub fn is_clean_full(&self, receipt: &Receipt) -> bool {
        receipt.verdict == Verdict::Accepted
            && !receipt.attack_injected
            && receipt.contributors.len() == self.n
    }

    /// Closes the journal, replays it cold and checks the run's
    /// soundness. Returns the journal's bytes per receipt and the replay
    /// rate, records/s.
    pub fn finish(mut self, report: &mut Report) -> Result<(f64, f64), String> {
        if let Some(j) = self.journal.take() {
            j.finish()?;
        }
        let bytes = std::fs::metadata(&self.path)
            .map_err(|e| format!("journal size: {e}"))?
            .len();
        let t = Instant::now();
        let replayed = sut::replay(&self.path)?;
        let replay_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&self.path);
        report.check(
            replayed.digest.hex() == self.digest.hex()
                && replayed.receipts.len() as u64 == self.recorded,
            || "cold replay of the journal differs from the live run".into(),
        );
        let t = &self.tally;
        report.check(
            t.false_accepts == 0 && t.false_rejects == 0 && t.sum_mismatches == 0,
            || {
                format!(
                    "unsound chaos run: {} false accepts, {} false rejects, {} sum mismatches",
                    t.false_accepts, t.false_rejects, t.sum_mismatches
                )
            },
        );
        let per_receipt = bytes as f64 / self.recorded.max(1) as f64;
        Ok((per_receipt, replayed.receipts.len() as f64 / replay_s))
    }

    /// Corrupted epochs rejected, over corrupted epochs.
    pub fn detection_ratio(&self) -> f64 {
        match self.tally.corrupted_epochs {
            0 => 1.0,
            c => self.tally.detected_corruptions as f64 / c as f64,
        }
    }
}

/// A chaos epoch is correct when a verified sum is accepted exactly when
/// no attack corrupted the aggregate, and equals Σ readings over the
/// reported contributors. A lost epoch is not correct.
fn receipt_is_correct(r: &Receipt, values: &[u64]) -> bool {
    match r.verdict {
        Verdict::Accepted => {
            let truth: u64 = r.contributors.iter().map(|&c| values[c as usize]).sum();
            !r.corrupted
                && !r.sum_mismatch
                && r.integrity_checked
                && f64::from_bits(r.sum_bits) == truth as f64
        }
        Verdict::Rejected => r.corrupted,
        Verdict::Lost => false,
    }
}

/// Where a run writes its journal and results.
pub fn journal_path(out: &Path, spec: &Spec) -> PathBuf {
    out.join(format!("{}-{}.journal", spec.name, std::process::id()))
}

/// The end-to-end run of one workload: set-ups for a tenth of
/// `seconds`, warm-up, then `seconds` of measured epochs with every
/// output checked, then set-ups for another tenth. Every time it
/// reports is corrected for host contention ([`RefClock`]).
pub fn run(spec: &Spec, seed: u64, seconds: Duration, out: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = Setup::new(spec, seed, seconds / 10)?;
    let setup_heap = heap::take_peak() as f64;
    let sys = &setup.sys;
    let enough = |t0: Instant, n: usize| t0.elapsed() >= seconds && n >= MIN_EPOCHS;
    // Raw latency, contention factor and heap peak per measured epoch.
    let (mut raw, mut factors, mut heap_peaks) = (Vec::new(), Vec::new(), Vec::new());
    // Bytes of the benchmark's own per-epoch records, which grow with
    // the epochs a run fits; they are taken off each epoch's heap peak,
    // or a faster system would read as a bigger one (on `chaos-1k` the
    // median peak stepped by 3 % when a run passed 4 096 epochs).
    let records = |vecs: &[&Vec<f64>]| -> f64 {
        vecs.iter()
            .map(|v| (v.capacity() * std::mem::size_of::<f64>()) as f64)
            .sum()
    };
    let mut clock = RefClock::new(spec.threads);
    let (s0, t0);
    // CPU the paced generator burned waiting, ms; not the system's.
    let mut wait_cpu_ms = 0.0;
    // The chaos journal's cold replay checks the run after measuring
    // ends: it loads every receipt, so its memory would grow with the
    // epochs a faster system fits into the run.
    let mut to_replay = None;
    match spec.kind {
        Kind::Closed { warmup } => {
            let mut c = Clean::new(sys, spec.threads, seed);
            for e in 0..warmup {
                c.epoch(e, &mut report);
            }
            heap::take_peak();
            (s0, t0) = (ProcStat::sample()?, Instant::now());
            let mut e = warmup;
            while !enough(t0, raw.len()) {
                raw.push(c.epoch(e, &mut report));
                factors.push(clock.factor());
                let own = records(&[&raw, &factors, &heap_peaks]);
                heap_peaks.push(heap::take_peak() as f64 - own);
                e += 1;
            }
        }
        Kind::Paced { period } => {
            sys.set_prewarm(true);
            let mut c = Clean::new(sys, spec.threads, seed);
            for e in 0..2 {
                c.epoch(e, &mut report);
            }
            let epochs = (seconds.as_secs_f64() / period.as_secs_f64())
                .floor()
                .max(MIN_EPOCHS as f64) as u64;
            heap::take_peak();
            (s0, t0) = (ProcStat::sample()?, Instant::now());
            let paced = run_paced(&mut c, 2, epochs, period, &mut clock, &mut report);
            (raw, factors, heap_peaks) = (paced.latency_ms, paced.factors, paced.heap_peaks);
            wait_cpu_ms = paced.wait_cpu_ms;
        }
        Kind::Chaos { kill_horizon } => {
            let mut c = Chaos::new(sys, seed, journal_path(out, spec), kill_horizon)?;
            for _ in 0..20 {
                c.epoch(&mut report, |_, _| Ok(None))?;
            }
            heap::take_peak();
            (s0, t0) = (ProcStat::sample()?, Instant::now());
            while !enough(t0, raw.len()) || !c.kills_done() {
                raw.push(c.epoch(&mut report, |_, _| Ok(None))?);
                factors.push(clock.factor());
                let own = records(&[&raw, &factors, &heap_peaks, &c.run_ms, &c.record_us]);
                heap_peaks.push(heap::take_peak() as f64 - own);
            }
            to_replay = Some(c);
        }
    }
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), ProcStat::sample()?.since(&s0));
    let peak_rss = procfs::peak_rss_bytes()?;
    if let Some(c) = to_replay {
        c.finish(&mut report)?;
    }
    let costs = setup.repeat(spec, seed, seconds / 10)?;

    let lat: Vec<f64> = raw.iter().zip(&factors).map(|(ms, f)| ms * f).collect();
    let (epochs, lat_sum) = (lat.len() as f64, lat.iter().sum::<f64>());
    // The whole stretch's factor, weighted by epoch time.
    let factor = lat_sum / raw.iter().sum::<f64>();
    report.set("setup_s", "s", median_cost(&costs, sut::SetupCost::total_s));
    report.set("epoch_p50_ms", "ms", median(&lat));
    let system_cpu_ms = cpu.cpu_ms() - wait_cpu_ms;
    report.set("cpu_ms_per_epoch", "ms", system_cpu_ms / epochs * factor);
    // A typical epoch's heap peak, not the run's: how often the paced
    // warmer's derivation overlaps an epoch, or a chaos resume holds
    // the journal's receipts, depends on host timing, and either moved
    // the run's peak by up to 17 % between seeds.
    let epoch_heap = median(&heap_peaks);
    report.set("peak_heap_mb", "MB", setup_heap.max(epoch_heap) / MIB);
    // The tail is left out of the metrics: contention bursts slow an
    // epoch more than the probes around it, so the corrected p90 still
    // spread by ~10 % across seeds, and a closed loop's rate (1 / mean
    // latency) carries the tail with it. `tail_percentile` is the
    // highest percentile with ten samples beyond it; below 90 the p90
    // rests on fewer than ten epochs. The paced workload's rate is its
    // schedule's unless it falls behind.
    let rate = match spec.kind {
        Kind::Paced { .. } => epochs / wall,
        _ => epochs / lat_sum * 1e3,
    };
    let detail = [
        ("epochs_per_s", rate),
        ("epoch_p90_ms", percentile(&lat, 90.0)),
        ("raw_epoch_p50_ms", median(&raw)),
        ("raw_epoch_p90_ms", percentile(&raw, 90.0)),
        ("contention_factor", factor),
        ("peak_rss_mb", peak_rss as f64 / MIB),
        ("setup_heap_peak_mb", setup_heap / MIB),
        (
            "epoch_heap_peak_max_mb",
            heap_peaks.iter().copied().fold(0.0, f64::max) / MIB,
        ),
        ("measured_epochs", epochs),
        ("setups", costs.len() as f64),
        ("tail_percentile", tail_percentile(lat.len()).unwrap_or(0.0)),
    ];
    report
        .detail
        .extend(detail.map(|(name, v)| (name.to_string(), v)));
    Ok(report)
}
