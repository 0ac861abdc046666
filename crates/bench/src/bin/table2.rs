//! Regenerates the paper's **Table 2**: ILP-mapper feasibility of the 19
//! benchmarks over the 8 test architectures (4 families x 1/2 contexts),
//! plus the solve-time summary behind the paper's ">80% of runs completed
//! within one hour" statement (E6 in DESIGN.md).
//!
//! Usage:
//!
//! ```text
//! table2 [--time-limit <seconds>] [--no-warm-start] [--no-presolve]
//!        [--jobs <n>] [--threads <n>] [--certify] [--mem-limit <MiB>]
//!        [--smoke] [benchmark ...]
//! ```
//!
//! `--jobs n` sweeps n matrix cells concurrently (0 = all cores);
//! `--threads n` gives each cell's solver a portfolio of n racing
//! engines. The two compose, so keep `jobs x threads` near the core
//! count.
//!
//! The per-cell budget defaults to 60 s (the paper used 1 h / 24 h on a
//! server; see EXPERIMENTS.md for the scaling rationale). Cells that
//! exceed the budget print as `T`, exactly as in the paper.
//!
//! `--no-presolve` disables the `bilp` presolve pipeline. `--smoke` runs a
//! 2-benchmark x 1-architecture subset and exits nonzero if any cell
//! disagrees with the paper — a fast CI gate, not an experiment.
//!
//! `--certify` audits every verdict: infeasible cells must carry a
//! checker-replayed UNSAT certificate (or an independently verified
//! build-stage refutation), and the run exits nonzero if any cell's
//! audit comes back `check-failed`. `--mem-limit <MiB>` bounds each
//! solve's learnt-clause database plus proof log.

use cgra_bench::{compare_to_paper, render_matrix, run_matrix_parallel, time_summary, WhichMapper};
use std::time::Duration;

fn main() {
    let mut cli = cgra_bench::cli::Cli::new(
        "table2 [--time-limit <seconds>] [--no-warm-start] [--no-presolve] [--jobs <n>] \
         [--threads <n>] [--certify] [--mem-limit <MiB>] [--smoke] [benchmark ...]",
    );
    let mut time_limit = Duration::from_secs(60);
    let mut warm_start = true;
    let mut presolve = true;
    let mut smoke = false;
    let mut certify = false;
    let mut mem_limit: Option<usize> = None;
    let mut jobs = 1usize;
    let mut threads = bilp::threads_from_env().unwrap_or(1);
    let mut filter: Vec<String> = Vec::new();
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--time-limit" => time_limit = cli.seconds("--time-limit"),
            "--no-warm-start" => warm_start = false,
            "--no-presolve" => presolve = false,
            "--smoke" => smoke = true,
            "--certify" => certify = true,
            "--mem-limit" => {
                mem_limit = Some(cli.value::<usize>("--mem-limit", "a MiB count") << 20)
            }
            "--jobs" => jobs = cli.value("--jobs", "a job count"),
            "--threads" => threads = cli.value("--threads", "a thread count"),
            name => filter.push(cli.benchmark_name(name)),
        }
    }
    let jobs = if jobs == 0 {
        cgra_par::default_jobs(1)
    } else {
        jobs
    };
    let mapper = WhichMapper::Ilp {
        warm_start,
        threads,
        presolve,
        certify,
        mem_limit,
    };

    if smoke {
        run_smoke(mapper, time_limit);
        return;
    }

    eprintln!(
        "Running Table 2 sweep (budget {time_limit:?}/cell, warm start {warm_start}, \
         presolve {presolve}, {jobs} jobs x {threads} solver threads) ..."
    );
    let cells = run_matrix_parallel(mapper, time_limit, &filter, jobs, |cell| {
        eprintln!(
            "  {:<14} {:>12}/{}  ->  {}  ({:.2?}){}",
            cell.benchmark,
            cell.arch,
            cell.contexts,
            cell.symbol,
            cell.elapsed,
            match cell.check {
                Some(label) => format!("  [{label}]"),
                None => String::new(),
            }
        );
    });

    println!("\nTable 2: ILP mapping feasibility (1 feasible, 0 infeasible, T timeout)\n");
    println!("{}", render_matrix(&cells));

    let (agree, total, mismatches) = compare_to_paper(&cells);
    println!("Agreement with the paper's Table 2: {agree}/{total} cells");
    for (bench, col, paper, ours) in &mismatches {
        println!("  mismatch: {bench} @ {col}: paper {paper}, measured {ours}");
    }
    println!("\nRuntime (paper E6): {}", time_summary(&cells, time_limit));

    if certify {
        let audited = cells.iter().filter(|c| c.check.is_some()).count();
        let bad: Vec<&cgra_bench::Cell> = cells
            .iter()
            .filter(|c| c.check == Some("check-failed"))
            .collect();
        println!(
            "\nCertification: {}/{} cells audited, {} check failures",
            audited,
            cells.len(),
            bad.len()
        );
        for c in &bad {
            println!(
                "  CHECK FAILED: {} @ {}/{} ({})",
                c.benchmark, c.arch, c.contexts, c.symbol
            );
        }
        if !bad.is_empty() {
            std::process::exit(1);
        }
    }
}

/// The CI smoke gate: two cheap benchmarks on one architecture — one
/// feasible, one provably infeasible — checked against the paper's
/// published verdicts. Exits nonzero on any disagreement or timeout;
/// with `--certify`, additionally requires every decided verdict to
/// audit as `certified` (the certified-smoke CI gate).
fn run_smoke(mapper: WhichMapper, time_limit: Duration) {
    let certify = matches!(mapper, WhichMapper::Ilp { certify: true, .. });
    let configs = cgra_arch::families::paper_configs();
    let config = configs
        .iter()
        .find(|c| c.label == "hetero-orth" && c.contexts == 1)
        .expect("paper config exists");
    let mut failed = false;
    for (bench, expected) in [("accum", "1"), ("mult_10", "0")] {
        let entry = cgra_dfg::benchmarks::by_name(bench).expect("known benchmark");
        let cell = cgra_bench::run_cell(entry, config, mapper, time_limit);
        let mut ok = cell.symbol == expected;
        if certify && cell.check != Some("certified") {
            ok = false;
        }
        println!(
            "smoke {:<10} {}/{}: {} (expected {}, {:.2?}){} {}",
            cell.benchmark,
            cell.arch,
            cell.contexts,
            cell.symbol,
            expected,
            cell.elapsed,
            match cell.check {
                Some(label) => format!(" [{label}]"),
                None => String::new(),
            },
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if failed {
        std::process::exit(1);
    }
}
