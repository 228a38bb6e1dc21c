//! `run --smoke`: every workload at N ≤ 1000 for about a second, end to
//! end and traced, with every correctness check on.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_runs_every_workload_and_check() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("smoke");
    let t0 = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_sies-benchmark"))
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed ({}):\n{stdout}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "smoke took {:?}",
        t0.elapsed()
    );
    // Eight results (four workloads, end to end and traced), each ending
    // in a correct result line with exactly the result line's four keys.
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":"))
        .collect();
    assert_eq!(results.len(), 8, "{stdout}");
    for line in results {
        let v: serde_json::Value = serde_json::from_str(line).expect("result line is JSON");
        let serde_json::Value::Map(fields) = v else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, serde_json::Value::Bool(true), "{line}");
    }
    for name in ["clean-50k", "clean-10k", "paced-16k", "chaos-1k"] {
        assert!(
            out.join(format!("{name}.trace.json")).exists(),
            "{name} wrote no trace"
        );
    }
}
