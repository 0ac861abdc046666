//! Minimum-II search: "what is the best throughput this architecture can
//! give my kernel?" — answered exactly, II by II, with the DRESC-style
//! outer loop around the exact mapper.
//!
//! Run with: `cargo run --release --example min_ii_search [benchmark] [--threads N]`
//!
//! `--threads N` races N diversified solver engines per II attempt;
//! verdicts are identical to the sequential run, usually sooner.

use cgra::arch::families::{grid, FuMix, GridParams, Interconnect};
use cgra::mapper::{map_min_ii, MapperOptions};
use std::time::Duration;

fn main() {
    let mut name = String::from("cos_4");
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
    println!("kernel {name}: {}\n", dfg);
    if threads != 1 {
        println!("(portfolio solving with {threads} threads; 0 = all cores)\n");
    }

    let options = MapperOptions {
        time_limit: Some(Duration::from_secs(60)),
        warm_start: true,
        threads,
        ..MapperOptions::default()
    };
    for (label, mix, ic) in [
        (
            "hetero-orth",
            FuMix::Heterogeneous,
            Interconnect::Orthogonal,
        ),
        ("homo-diag", FuMix::Homogeneous, Interconnect::Diagonal),
    ] {
        let arch = grid(GridParams::paper(mix, ic));
        let report = map_min_ii(&dfg, &arch, options, 4);
        print!("{label:<14}");
        for attempt in &report.attempts {
            print!(
                "  II={}: {} [{}]",
                attempt.ii,
                attempt.report.outcome.table_symbol(),
                attempt.provenance.label()
            );
        }
        match report.min_ii {
            Some(ii) => println!("  => best throughput 1/{ii}"),
            None => println!("  => not mappable up to II=4"),
        }
    }
    println!(
        "\n(an exact verdict at each II: a 0 means that throughput is *provably*\n\
         unachievable, which no heuristic mapper can tell you)"
    );
}

/// Prints a usage error and exits — an invocation typo should read as a
/// message, not a panic backtrace.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: cargo run --release --example min_ii_search -- [benchmark] [--threads N]");
    std::process::exit(2);
}
