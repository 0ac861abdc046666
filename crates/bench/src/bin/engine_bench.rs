//! Engine benchmark: raw CDCL throughput on the BENCH_incremental
//! 12-cell ladder, written as JSON to `BENCH_engine.json`.
//!
//! Usage:
//!
//! ```text
//! engine_bench [--time-limit <seconds>] [--reps <n>] [--out <path>]
//!              [--baseline <path>] [--smoke] [config/kernel ...]
//! ```
//!
//! Each instance runs the task whose timings the *incremental* arm of
//! `BENCH_incremental.json` records (EXPERIMENTS.md A5) — the optimising
//! minimum-II ladder to its first incumbent (`objective_stop =
//! i64::MAX`) — with certification on, so any infeasible II verdict is
//! replayed through the proof logger and re-derived by the independent
//! RUP checker. Because the task is identical and the instance keys
//! (`config/kernel`), `symbols` and `wall_seconds` fields match
//! `BENCH_incremental.json`, that file doubles as the *baseline*: point
//! `--baseline` at a
//! `BENCH_incremental.json` produced by an older engine build and the
//! summary reports the per-instance and geomean wall speedup of the
//! current engine over it, plus engine-level throughput (propagations
//! and conflicts per second) and the process's peak RSS.
//!
//! Gates (exit nonzero):
//!
//! * any *decided* verdict that differs from the baseline's (`T`
//!   symbols are budget artefacts and excluded) — decided-verdict drift
//!   is a solver bug, never a performance trade;
//! * any certificate check-failure;
//! * in `--smoke` mode, the two cheap instances failing to map at II=1.

use cgra_arch::families::paper_configs;
use cgra_dfg::benchmarks;
use cgra_mapper::{map_min_ii, MapperOptions, MinIiReport};
use std::fmt::Write as _;
use std::time::Duration;

/// The BENCH_incremental 12-cell ladder (see EXPERIMENTS.md A5).
const DEFAULT_SUBSET: [(&str, &str); 12] = [
    ("hetero-orth", "accum"),
    ("hetero-orth", "mac"),
    ("hetero-diag", "accum"),
    ("hetero-diag", "mac"),
    ("hetero-diag", "2x2-f"),
    ("hetero-diag", "2x2-p"),
    ("homo-orth", "accum"),
    ("homo-diag", "accum"),
    ("homo-diag", "mac"),
    ("homo-diag", "2x2-f"),
    ("homo-diag", "2x2-p"),
    ("homo-diag", "mult_10"),
];

const MAX_II: u32 = 2;

/// One baseline row scraped from a `BENCH_incremental.json` (or a prior
/// `BENCH_engine.json`): the incremental arm's wall and symbols.
struct BaselineRow {
    key: String,
    wall_seconds: f64,
    symbols: Vec<String>,
}

fn main() {
    let mut time_limit = Duration::from_secs(60);
    let mut reps: usize = 3;
    let mut out_path = String::from("BENCH_engine.json");
    let mut baseline_path: Option<String> = None;
    let mut smoke = false;
    let mut filter: Vec<String> = Vec::new();
    let mut cli = cgra_bench::cli::Cli::new(
        "engine_bench [--time-limit <seconds>] [--reps <n>] [--out <path>] \
         [--baseline <path>] [--smoke] [config/kernel ...]",
    );
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--time-limit" => time_limit = cli.seconds("--time-limit"),
            "--reps" => {
                reps = cli.value("--reps", "a positive repetition count");
                if reps == 0 {
                    cli.fail("--reps requires a positive repetition count");
                }
            }
            "--out" => out_path = cli.value("--out", "a path"),
            "--baseline" => baseline_path = Some(cli.value("--baseline", "a path")),
            "--smoke" => smoke = true,
            name if name.starts_with('-') => cli.fail(&format!("unknown option {name}")),
            name => filter.push(name.to_owned()),
        }
    }
    let pairs: Vec<(String, String)> = if smoke {
        time_limit = time_limit.min(Duration::from_secs(20));
        reps = 1;
        vec![
            ("hetero-diag".into(), "2x2-f".into()),
            ("hetero-orth".into(), "accum".into()),
        ]
    } else if filter.is_empty() {
        DEFAULT_SUBSET
            .iter()
            .map(|&(a, k)| (a.to_string(), k.to_string()))
            .collect()
    } else {
        filter
            .iter()
            .map(|s| {
                let Some((a, k)) = s.split_once('/') else {
                    cli.fail(&format!("instance `{s}` is not config/kernel"));
                };
                (a.to_string(), k.to_string())
            })
            .collect()
    };

    let baseline: Vec<BaselineRow> = match &baseline_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => parse_baseline(&text),
            Err(e) => cli.fail(&format!("cannot read baseline {p}: {e}")),
        },
        None => Vec::new(),
    };

    let configs = paper_configs();
    let mut rows: Vec<String> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut mismatches = 0usize;
    let mut check_failures = 0usize;
    for (arch_label, name) in &pairs {
        let Some(config) = configs.iter().find(|c| c.label == *arch_label) else {
            cli.fail(&format!("unknown paper config `{arch_label}`"));
        };
        let Some(entry) = benchmarks::by_name(name) else {
            cli.fail(&format!("unknown benchmark `{name}`"));
        };
        let dfg = (entry.build)();
        let key = cgra_bench::cli::instance_key(arch_label, name);

        let report = best_of(reps, || {
            let options = MapperOptions {
                optimize: true,
                certify: true,
                time_limit: Some(time_limit),
                objective_stop: Some(i64::MAX),
                ..MapperOptions::default()
            };
            map_min_ii(&dfg, &config.arch, options, MAX_II)
        });

        let wall = report.totals.elapsed.as_secs_f64();
        let mut conflicts = 0u64;
        let mut propagations = 0u64;
        let mut symbols: Vec<String> = Vec::new();
        for attempt in &report.attempts {
            symbols.push(attempt.report.outcome.table_symbol().to_string());
            conflicts += attempt.report.solver.engine.conflicts;
            propagations += attempt.report.solver.engine.propagations;
            if let Some(cert) = &attempt.report.certificate {
                if cert.is_check_failed() {
                    check_failures += 1;
                    eprintln!("  CHECK FAILURE: {key} II={}", attempt.ii);
                }
            }
        }
        let props_per_sec = propagations as f64 / wall.max(1e-9);
        let conflicts_per_sec = conflicts as f64 / wall.max(1e-9);

        let base = baseline.iter().find(|b| b.key == key);
        let speedup = base.map(|b| b.wall_seconds / wall.max(1e-9));
        if let Some(s) = speedup {
            speedups.push(s);
        }
        if let Some(b) = base {
            if decided_symbols_drift(&symbols, &b.symbols) {
                mismatches += 1;
                eprintln!(
                    "  MISMATCH: {key} decided {:?}, baseline decided {:?}",
                    symbols, b.symbols
                );
            }
        }
        if smoke && report.min_ii != Some(1) {
            mismatches += 1;
            eprintln!(
                "  SMOKE FAIL: {key} should map at II=1, got {:?}",
                report.min_ii
            );
        }
        eprintln!(
            "  {key:<22} {wall:>8.3}s  {:>6.2}M props/s  {:>6.0} conflicts/s{}",
            props_per_sec / 1e6,
            conflicts_per_sec,
            speedup.map_or(String::new(), |s| format!("  {s:.2}x vs baseline")),
        );
        let mut row = String::new();
        write!(
            row,
            "    {{\"benchmark\": \"{name}\", \"arch\": \"{arch_label}\", \"max_ii\": {MAX_II}, \
             \"symbols\": [{}], \"wall_seconds\": {wall:.6}, \"conflicts\": {conflicts}, \
             \"propagations\": {propagations}, \"props_per_sec\": {props_per_sec:.0}, \
             \"conflicts_per_sec\": {conflicts_per_sec:.0}, \"baseline_wall_seconds\": {}, \
             \"speedup_vs_baseline\": {}}}",
            symbols
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", "),
            base.map_or(String::from("null"), |b| format!("{:.6}", b.wall_seconds)),
            speedup.map_or(String::from("null"), |s| format!("{s:.3}")),
        )
        .unwrap();
        rows.push(row);
    }

    let geomean = cgra_bench::cli::geomean(&speedups);
    let peak_rss = cgra_bench::cli::peak_rss_bytes();
    let json = format!(
        "{{\n  \"host_cores\": {},\n  \"thread_counts\": {},\n  \
         \"time_limit_secs\": {},\n  \"smoke\": {smoke},\n  \"baseline\": {},\n  \
         \"instances\": [\n{}\n  ],\n  \"geomean_wall_speedup\": {},\n  \
         \"peak_rss_bytes\": {},\n  \"verdict_mismatches\": {mismatches},\n  \
         \"certificate_check_failures\": {check_failures}\n}}\n",
        cgra_bench::cli::host_cores_checked(&[1]),
        cgra_bench::cli::thread_counts_json(&[1]),
        time_limit.as_secs(),
        baseline_path
            .as_ref()
            .map_or(String::from("null"), |p| format!("{p:?}")),
        rows.join(",\n"),
        if speedups.is_empty() {
            String::from("null")
        } else {
            format!("{geomean:.3}")
        },
        peak_rss.map_or(String::from("null"), |b| b.to_string()),
    );
    cgra_bench::cli::write_output(&out_path, &json);
    println!(
        "({} instances{}, {mismatches} decided-verdict mismatches, \
         {check_failures} certificate check-failures)",
        rows.len(),
        if speedups.is_empty() {
            String::new()
        } else {
            format!(", geomean wall speedup {geomean:.2}x over baseline")
        },
    );
    if mismatches > 0 || check_failures > 0 {
        std::process::exit(1);
    }
}

/// Runs `f` `reps` times and keeps the fastest report (the mapper is
/// deterministic; repetitions differ only in machine noise).
fn best_of(reps: usize, mut f: impl FnMut() -> MinIiReport) -> MinIiReport {
    let mut best: Option<MinIiReport> = None;
    for _ in 0..reps {
        let r = f();
        if best
            .as_ref()
            .is_none_or(|b| r.totals.elapsed < b.totals.elapsed)
        {
            best = Some(r);
        }
    }
    best.expect("reps >= 1")
}

/// Whether two per-II symbol ladders disagree on any verdict both
/// decided (`T` entries are excluded — they depend only on the budget).
fn decided_symbols_drift(ours: &[String], baseline: &[String]) -> bool {
    ours.iter()
        .zip(baseline)
        .any(|(a, b)| a != "T" && b != "T" && a != b)
}

/// Scrapes per-instance baseline rows from a `BENCH_incremental.json`
/// (using its `incremental` arm) or a prior `BENCH_engine.json`. The
/// files are machine-written by this crate, one instance object per
/// line, so a field-targeted scan is reliable; unrecognisable lines are
/// skipped rather than failing the run.
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(bench) = field_str(line, "\"benchmark\": \"") else {
            continue;
        };
        let Some(arch) = field_str(line, "\"arch\": \"") else {
            continue;
        };
        // In BENCH_incremental.json the relevant arm starts at
        // `"incremental": {`; in BENCH_engine.json the fields are
        // top-level in the row. Scan from the arm marker when present.
        let scope = match line.find("\"incremental\": {") {
            Some(at) => &line[at..],
            None => line,
        };
        let Some(wall) = field_str(scope, "\"wall_seconds\": ").and_then(|s| s.parse::<f64>().ok())
        else {
            continue;
        };
        let symbols = field_str(scope, "\"symbols\": [")
            .map(|s| {
                s.split(',')
                    .map(|t| t.trim().trim_matches('"').to_string())
                    .filter(|t| !t.is_empty())
                    .collect()
            })
            .unwrap_or_default();
        rows.push(BaselineRow {
            key: cgra_bench::cli::instance_key(&arch, &bench),
            wall_seconds: wall,
            symbols,
        });
    }
    rows
}

/// The text following `marker` up to the next `"`, `]`, `,` or `}` —
/// enough to slice one scalar or array body out of a known-shape line.
fn field_str(line: &str, marker: &str) -> Option<String> {
    let at = line.find(marker)? + marker.len();
    let rest = &line[at..];
    let end = rest.find(['"', ']', ',', '}']).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}
