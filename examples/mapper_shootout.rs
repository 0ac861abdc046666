//! Exact versus heuristic — the paper's Fig 8 story on one benchmark:
//! run the simulated-annealing mapper and the ILP mapper on progressively
//! harder cells and watch the heuristic start failing where the exact
//! mapper still decides.
//!
//! Run with: `cargo run --release --example mapper_shootout [benchmark] [--threads N]`
//!
//! `--threads N` gives the ILP mapper a portfolio of N racing engines;
//! the annealing baseline stays single-threaded.

use cgra::arch::families::paper_configs;
use cgra::mapper::{AnnealParams, AnnealingMapper, IlpMapper, MapperOptions};
use cgra::mrrg::build_mrrg;
use std::time::Duration;

fn main() {
    let mut name = String::from("exp_5");
    let mut threads = 1;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = match args.next().map(|v| v.parse()) {
                    Some(Ok(n)) => n,
                    _ => fail("--threads needs a number"),
                };
            }
            other => name = other.to_owned(),
        }
    }
    let Some(entry) = cgra::dfg::benchmarks::by_name(&name) else {
        let known: Vec<&str> = cgra::dfg::benchmarks::all()
            .iter()
            .map(|e| e.name)
            .collect();
        fail(&format!(
            "unknown benchmark `{name}`; known: {}",
            known.join(", ")
        ));
    };
    let dfg = (entry.build)();
    let s = dfg.stats();
    println!(
        "benchmark {name}: {} I/Os, {} operations, {} multiplies\n",
        s.ios, s.operations, s.multiplies
    );

    let budget = Duration::from_secs(30);
    println!(
        "{:<16} {:>4} {:>14} {:>14}",
        "architecture", "II", "annealing", "ILP"
    );
    for config in paper_configs() {
        let mrrg = build_mrrg(&config.arch, config.contexts);
        let options = MapperOptions {
            time_limit: Some(budget),
            ..MapperOptions::default()
        };
        let sa = AnnealingMapper::new(options, AnnealParams::default()).map(&dfg, &mrrg);
        let ilp = IlpMapper::new(MapperOptions {
            warm_start: true,
            threads,
            ..options
        })
        .map(&dfg, &mrrg);
        println!(
            "{:<16} {:>4} {:>8} {:>5.1}s {:>8} {:>5.1}s",
            config.label,
            config.contexts,
            sa.outcome.table_symbol(),
            sa.elapsed.as_secs_f64(),
            ilp.outcome.table_symbol(),
            ilp.elapsed.as_secs_f64(),
        );
    }
    println!("\nlegend: 1 = mapped, 0 = proven infeasible (ILP only), T = gave up/timed out");
}

/// Prints a usage error and exits — an invocation typo should read as a
/// message, not a panic backtrace.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: cargo run --release --example mapper_shootout -- [benchmark] [--threads N]");
    std::process::exit(2);
}
