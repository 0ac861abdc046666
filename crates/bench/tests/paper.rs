//! The `paper` binary end to end: its deterministic modes reproduce the
//! committed logs under `results/` byte for byte, the Table 2 smoke gate
//! passes, and every usage error exits 2 with a usage line instead of
//! panicking.

use std::path::Path;
use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("the paper binary starts")
}

fn committed_log(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_reproduces(mode: &str, log: &str) {
    let out = paper(&[mode]);
    assert!(
        out.status.success(),
        "paper {mode} failed: {:?}",
        out.status
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        committed_log(log),
        "paper {mode} no longer reproduces results/{log}"
    );
}

#[test]
fn table1_reproduces_committed_log() {
    assert_reproduces("table1", "table1_run.log");
}

#[test]
fn mrrg_figures_reproduce_committed_log() {
    assert_reproduces("mrrg_figures", "mrrg_figures_run.log");
}

#[test]
fn table2_smoke_gate_passes() {
    let out = paper(&["table2", "--smoke"]);
    assert!(
        out.status.success(),
        "paper table2 --smoke failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn usage_errors_exit_2_without_panicking() {
    for args in [
        &[][..],
        &["table3"],
        &["table2", "--bogus"],
        &["table2", "--jobs", "x"],
        &["table2", "no_such_kernel"],
        &["table1", "extra"],
    ] {
        let out = paper(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "paper {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "paper {args:?}: {stderr}");
    }
}
