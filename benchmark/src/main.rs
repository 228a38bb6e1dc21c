//! One SIES epoch, measured end to end and layer by layer.
//!
//! ```text
//! sies-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! sies-benchmark run (--all | --smoke) [--seed N] [--seconds S] [--out DIR]
//! sies-benchmark trace --workload W [--seed N] [--seconds S] [--out DIR]
//! sies-benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! A single run prints every metric by name with its unit, then, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}` as JSON. It
//! exits 0 when every output was correct, 1 on any correctness
//! violation, 2 on a usage or I/O error (with no result line). `--trace 1`
//! runs the traced decomposition instead and reports the per-layer
//! metrics. `run --all` re-executes this binary once per workload, so
//! peak RSS and CPU counters belong to one workload each.

mod heap;
mod layers;
mod procfs;
mod refclock;
mod stats;
mod sut;
mod trace;
mod workloads;

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::{Report, NAMES};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sies-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Command-line options shared by every form.
struct Opts {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        all: false,
        smoke: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--all" => o.all = true,
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [parent, change] => compare(Path::new(parent), Path::new(change)),
            _ => Err("usage: compare PARENT_DIR CHANGE_DIR".into()),
        },
        Some("run") => {
            let o = parse(&args[1..])?;
            match (o.all, o.smoke, &o.workload) {
                (true, false, None) => run_all(&o, false),
                (false, true, None) => run_all(&o, true),
                _ => {
                    Err("usage: run (--all | --smoke) [--seed N] [--seconds S] [--out DIR]".into())
                }
            }
        }
        Some("trace") => {
            let mut o = parse(&args[1..])?;
            o.trace = true;
            single(&o)
        }
        _ => {
            let o = parse(args)?;
            if o.all {
                return Err("--all belongs to `run`".into());
            }
            single(&o)
        }
    }
}

/// One workload in this process.
fn single(o: &Opts) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name, o.smoke)
        .ok_or(format!("unknown workload {name}; one of {NAMES:?}"))?;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    sut::set_telemetry(true);
    let seconds = Duration::from_secs_f64(o.seconds);
    let report = if o.trace {
        layers::run(&spec, o.seed, seconds, &o.out)?
    } else {
        workloads::run(&spec, o.seed, seconds, &o.out)?
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", m.name));
    }

    let host = host_json(o.seed);
    println!(
        "# {} seed={} seconds={} trace={} smoke={}",
        spec.name,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.smoke
    );
    println!("# host {host}");
    for m in &report.metrics {
        println!(
            "  {:<42} {:>16} {}",
            m.name,
            format!("{:.4}", m.value),
            m.unit
        );
    }
    for (name, value) in &report.detail {
        println!("# {name:<42} {value:>16.4}");
    }
    for v in &report.violations {
        println!("! {v}");
    }
    let result = result_json(&report);
    let file = o.out.join(format!(
        "{}-seed{}-{}.json",
        spec.name,
        o.seed,
        if o.trace { "layers" } else { "e2e" }
    ));
    let mut detail = String::new();
    for (i, (k, v)) in report.detail.iter().enumerate() {
        let _ = write!(
            detail,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            num(*v)
        );
    }
    let violations: Vec<String> = report.violations.iter().map(|v| json_str(v)).collect();
    let doc = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"host\":{host},\"result\":{result},\"detail\":{{{detail}}},\"violations\":[{}]}}\n",
        json_str(spec.name),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.smoke,
        violations.join(",")
    );
    std::fs::write(&file, doc).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{result}");
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

/// A finite number with all its digits (Rust prints the shortest
/// decimal that reads back to the same `f64`, never an exponent).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host a result was measured on.
fn host_json(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let ifma = std::arch::is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    let ifma = false;
    format!(
        "{{\"cpu_cores\":{cores},\"lane_width\":{},\"ifma\":{ifma},\"commit\":{},\"seed\":{seed}}}",
        sut::effective_lane_width(),
        json_str(&commit())
    )
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, each in its own process; `smoke` adds the traced
/// run of each, so every check runs.
fn run_all(o: &Opts, smoke: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = if smoke { 1.0 } else { o.seconds };
    let mut failures = Vec::new();
    for name in NAMES {
        for trace in if smoke { &["0", "1"][..] } else { &["0"][..] } {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args([
                    "--seed",
                    &o.seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--out")
                .arg(&o.out);
            if smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("running {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let correct = stdout
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\":true"));
            if !output.status.success() || !correct {
                failures.push(format!("{name} trace={trace} ({})", output.status));
            }
        }
    }
    if failures.is_empty() {
        println!("# all workloads correct");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("# FAILED: {}", failures.join(", "));
        Ok(ExitCode::from(1))
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One end-to-end run as `compare` reads it back.
#[derive(Debug, Clone, Default)]
struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// End-to-end runs of one commit, by (workload, seed).
type Runs = BTreeMap<(String, u64), Run>;

/// An end-to-end metric's direction and bound, from `BENCHMARK.json`.
struct Rule {
    name: String,
    better: stats::Better,
    bound: f64,
}

fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !path.to_string_lossy().ends_with("-e2e.json") {
            continue;
        }
        let doc = read_json(&path)?;
        let bad = |what: &str| format!("{}: no {what}", path.display());
        let workload = get(&doc, "workload")
            .and_then(as_str)
            .ok_or(bad("workload"))?;
        let seed = get(&doc, "seed").and_then(as_f64).ok_or(bad("seed"))? as u64;
        let result = get(&doc, "result").ok_or(bad("result"))?;
        let correct = match get(result, "correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(bad("result.correct")),
        };
        let failed = get(result, "failed")
            .and_then(as_f64)
            .ok_or(bad("result.failed"))? as u64;
        let Some(Value::Map(metrics)) = get(result, "metrics") else {
            return Err(bad("result.metrics"));
        };
        let metrics = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), get(v, "value").and_then(as_f64)?)))
            .collect();
        let run = Run {
            correct,
            failed,
            metrics,
        };
        runs.insert((workload.to_string(), seed), run);
    }
    Ok(runs)
}

fn load_rules() -> Result<Vec<Rule>, String> {
    let bench = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let Some(Value::Seq(metrics)) = get(&bench, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = get(m, "name").and_then(as_str);
            let bound = get(m, "bound").and_then(as_f64);
            let better = match get(m, "better").and_then(as_str) {
                Some("lower") => Some(stats::Better::Lower),
                Some("higher") => Some(stats::Better::Higher),
                _ => None,
            };
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Rule {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err("BENCHMARK.json: an end_to_end metric lacks name, better or bound".into()),
            }
        })
        .collect()
}

/// Compares the end-to-end results of two directories of runs, pairing
/// runs of the same workload and seed, under each metric's bound from
/// `BENCHMARK.json`. Exits 1 if any metric regressed or the runs cannot
/// be compared soundly (see [`compare_runs`]).
fn compare(parent_dir: &Path, change_dir: &Path) -> Result<ExitCode, String> {
    let rules = load_rules()?;
    let (parent, change) = (load_runs(parent_dir)?, load_runs(change_dir)?);
    let (lines, ok) = compare_runs(&parent, &change, &rules);
    for line in lines {
        println!("{line}");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The comparison behind `compare`: the lines it prints and whether it
/// passes. It fails on a regression and on any run it cannot weigh: a
/// change run that is incorrect or failed more checks than its parent
/// run (a gain counts only if no more operations fail), a run without a
/// partner on the other side, and a metric missing from any run.
fn compare_runs(parent: &Runs, change: &Runs, rules: &[Rule]) -> (Vec<String>, bool) {
    let (mut lines, mut errors) = (Vec::new(), Vec::new());
    let mut regressed = false;
    for (side, runs, other) in [("parent", parent, change), ("change", change, parent)] {
        for (w, s) in runs.keys().filter(|k| !other.contains_key(*k)) {
            errors.push(format!("{w} seed {s}: {side} run has no partner"));
        }
    }
    for ((w, s), c) in change {
        let parent_failed = parent.get(&(w.clone(), *s)).map_or(0, |p| p.failed);
        if !c.correct || c.failed > parent_failed {
            errors.push(format!(
                "{w} seed {s}: change run correct={} with {} failed checks (parent: {parent_failed})",
                c.correct, c.failed
            ));
        }
    }
    let workloads: BTreeSet<&str> = parent.keys().map(|(w, _)| w.as_str()).collect();
    for name in workloads {
        let pairs: Vec<(&Run, &Run)> = parent
            .iter()
            .filter(|((w, _), _)| w == name)
            .filter_map(|(k, p)| Some((p, change.get(k)?)))
            .collect();
        if pairs.is_empty() {
            continue;
        }
        lines.push(format!("{name} ({} paired runs)", pairs.len()));
        for rule in rules {
            let values = |of_change: bool| -> Option<Vec<f64>> {
                pairs
                    .iter()
                    .map(|&(p, c)| if of_change { c } else { p })
                    .map(|run| run.metrics.get(&rule.name).copied())
                    .collect()
            };
            let (Some(p), Some(c)) = (values(false), values(true)) else {
                errors.push(format!("{name}: {} missing from a run", rule.name));
                continue;
            };
            let cmp = stats::compare(&p, &c, rule.better, rule.bound);
            regressed |= cmp.verdict == stats::Verdict::Regressed;
            lines.push(format!(
                "  {:<20} parent {:>12.4}  change {:>12.4}  worse by {:>+7.2}% (bound {:.0}%)  wins {}/{}  {:?}",
                rule.name,
                cmp.parent,
                cmp.change,
                cmp.worse_by * 100.0,
                rule.bound * 100.0,
                cmp.wins,
                cmp.pairs,
                cmp.verdict
            ));
        }
    }
    let ok = errors.is_empty() && !regressed;
    lines.extend(errors.into_iter().map(|e| format!("error: {e}")));
    (lines, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> Vec<Rule> {
        vec![Rule {
            name: "epoch_p50_ms".into(),
            better: stats::Better::Lower,
            bound: 0.1,
        }]
    }

    /// Ten correct runs of `w` whose p50 is `ms` plus a little per seed.
    fn runs(w: &str, ms: f64) -> Runs {
        (1..=10)
            .map(|s| {
                let run = Run {
                    correct: true,
                    failed: 0,
                    metrics: [("epoch_p50_ms".to_string(), ms + 0.1 * s as f64)].into(),
                };
                ((w.to_string(), s), run)
            })
            .collect()
    }

    #[test]
    fn faster_correct_change_passes() {
        let (lines, ok) = compare_runs(&runs("a", 20.0), &runs("a", 15.0), &rules());
        assert!(ok, "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("Improved")), "{lines:?}");
    }

    #[test]
    fn incorrect_change_fails_however_fast() {
        let mut change = runs("a", 15.0);
        let run = change.get_mut(&("a".to_string(), 3)).unwrap();
        run.correct = false;
        run.failed = 1;
        let (lines, ok) = compare_runs(&runs("a", 20.0), &change, &rules());
        assert!(!ok);
        assert!(
            lines.iter().any(|l| l.starts_with("error: a seed 3")),
            "{lines:?}"
        );
    }

    #[test]
    fn change_with_more_failures_than_its_parent_fails() {
        let (mut parent, mut change) = (runs("a", 20.0), runs("a", 20.0));
        parent.get_mut(&("a".to_string(), 1)).unwrap().failed = 2;
        change.get_mut(&("a".to_string(), 1)).unwrap().failed = 2;
        assert!(
            compare_runs(&parent, &change, &rules()).1,
            "as many failures as the parent"
        );
        change.get_mut(&("a".to_string(), 2)).unwrap().failed = 1;
        assert!(!compare_runs(&parent, &change, &rules()).1);
    }

    #[test]
    fn missing_metric_or_workload_is_an_error() {
        let mut change = runs("a", 20.0);
        change
            .get_mut(&("a".to_string(), 5))
            .unwrap()
            .metrics
            .clear();
        let (lines, ok) = compare_runs(&runs("a", 20.0), &change, &rules());
        assert!(!ok);
        assert!(
            lines.iter().any(|l| l.contains("epoch_p50_ms missing")),
            "{lines:?}"
        );

        let mut parent = runs("a", 20.0);
        parent.extend(runs("b", 20.0));
        let (lines, ok) = compare_runs(&parent, &runs("a", 20.0), &rules());
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("b seed 1: parent run has no partner")));
        let (_, ok) = compare_runs(&runs("a", 20.0), &parent, &rules());
        assert!(!ok, "a workload only the change ran");
    }

    #[test]
    fn regression_fails() {
        let (lines, ok) = compare_runs(&runs("a", 20.0), &runs("a", 25.0), &rules());
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("Regressed")), "{lines:?}");
    }
}
