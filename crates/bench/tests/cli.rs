//! The command-line input contract of `sim` and `repro`: a malformed or
//! out-of-range argument exits with status 2 and an `error:` line on
//! stderr, never with a panic, and `repro` rejects an unknown experiment
//! before it calibrates or runs anything.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"))
}

fn assert_usage_error(bin: &str, args: &[&str]) -> Output {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} should exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("error:"),
        "{bin} {args:?} printed no error line; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked; stderr:\n{stderr}"
    );
    out
}

#[test]
fn sim_rejects_bad_input_with_usage() {
    let sim = env!("CARGO_BIN_EXE_sim");
    for args in [
        &["--sources", "0"][..],
        &["--fanout", "1"],
        &["--loss", "1.5"],
        &["--loss", "-0.5"],
        &["--sources", "abc"],
        &["--epochs", "abc"],
        &["--scheme", "paillier"],
    ] {
        assert_usage_error(sim, args);
    }
}

#[test]
fn sim_still_runs_valid_input() {
    let out = run(env!("CARGO_BIN_EXE_sim"), &["--epochs", "1"]);
    assert!(
        out.status.success(),
        "sim --epochs 1 failed; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 accepted, 0 rejected"));
}

#[test]
fn repro_rejects_unknown_experiments_before_running_any() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [
        &["nosuch"][..],
        &["--paper-costs", "nosuch"],
        &["params", "nosuch"],
        // A removed experiment is as unknown as a misspelt one.
        &["profile"],
    ] {
        let out = assert_usage_error(repro, args);
        assert!(
            out.stdout.is_empty(),
            "repro {args:?} ran something first:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
