//! Golden digests of the mapper's solve path.
//!
//! With `threads: 1` a mapping request is deterministic down to the
//! solver's work counters: under a per-query `conflict_limit` (the time
//! limit is only a guard, never reached) the same input gives the same
//! verdict, routing usage, optimality flag, conflicts, decisions,
//! propagations and descent incumbents on every run. The first test asks
//! `IlpMapper::map` and `map_min_ii`, with and without routing
//! minimisation, on a slice of Table 2 cells and on seeded random
//! kernels on small fabrics, and compares one line per request against
//! lines recorded from the reference implementation.
//!
//! With `threads: 2` the portfolio races engines, so its work counters
//! do not repeat, but verdicts and proven optima must: the second test
//! runs the optimising min-II ladder and compares per-II verdicts and
//! proven optima wherever both the recording and the current run
//! decided.
//!
//! On a mismatch each test prints its full table, so an intended change
//! can be re-recorded in one step.

use cgra_arch::families::{grid, paper_configs, FuMix, GridParams, Interconnect};
use cgra_arch::Architecture;
use cgra_dfg::random::{random_dfg, RandomDfgParams};
use cgra_dfg::{Dfg, OpKind};
use cgra_mapper::{map_min_ii, IlpMapper, MapOutcome, MapReport, MapperOptions, MinIiReport};
use cgra_mrrg::build_mrrg;
use std::time::Duration;

/// Conflict budget per solver query: the work every request does.
const CONFLICTS: u64 = 2_000;

/// Wall-clock guard; reaching it would make a digest timing-dependent.
const GUARD: Duration = Duration::from_secs(60);

/// The largest II the min-II ladder tries.
const MAX_II: u32 = 2;

/// One input: a kernel on a fabric, mapped at `ii` by `IlpMapper::map`
/// (the ladder always starts at II 1), under a per-query conflict budget.
struct Case {
    name: String,
    dfg: Dfg,
    arch: Architecture,
    ii: u32,
    conflicts: u64,
}

fn paper_kernel(name: &str) -> Dfg {
    (cgra_dfg::benchmarks::by_name(name)
        .expect("paper kernel")
        .build)()
}

/// `o = a + b`: small enough for the descent to prove its optimum.
fn tiny_add() -> Dfg {
    let mut g = Dfg::new("add");
    let a = g.add_op("a", OpKind::Input).unwrap();
    let b = g.add_op("b", OpKind::Input).unwrap();
    let s = g.add_op("s", OpKind::Add).unwrap();
    let o = g.add_op("o", OpKind::Output).unwrap();
    g.connect(a, s, 0).unwrap();
    g.connect(b, s, 1).unwrap();
    g.connect(s, o, 0).unwrap();
    g
}

fn small_grid(rows: usize, cols: usize, mix: FuMix, ic: Interconnect) -> Architecture {
    grid(GridParams {
        rows,
        cols,
        ..GridParams::paper(mix, ic)
    })
}

fn corpus() -> Vec<Case> {
    let mut out = Vec::new();
    // Table 2 cells (column = fabric + 4 * (II - 1)): four that map
    // within the budget, across both FU mixes, both interconnects and
    // both context counts, and one the budget leaves undecided.
    let configs = paper_configs();
    for (kernel, col) in [
        ("mac", 0usize),
        ("2x2-f", 1),
        ("accum", 2),
        ("2x2-p", 6),
        ("accum", 0),
    ] {
        let c = &configs[col];
        out.push(Case {
            name: format!("table2/{kernel}/{}x{}", c.label, c.contexts),
            dfg: paper_kernel(kernel),
            arch: c.arch.clone(),
            ii: c.contexts,
            conflicts: CONFLICTS,
        });
    }
    // A hand-written adder and seeded random kernels on 2x2 and 3x3
    // fabrics.
    let fabrics = [
        (
            "2x2-homo-orth",
            small_grid(2, 2, FuMix::Homogeneous, Interconnect::Orthogonal),
            1,
        ),
        (
            "3x3-hetero-diag",
            small_grid(3, 3, FuMix::Heterogeneous, Interconnect::Diagonal),
            3,
        ),
    ];
    out.push(Case {
        name: "family/2x2-homo-orth/add".to_owned(),
        dfg: tiny_add(),
        arch: fabrics[0].1.clone(),
        ii: 1,
        conflicts: CONFLICTS,
    });
    for (label, arch, smallest) in &fabrics {
        for seed in 0..3u64 {
            let ops = smallest + seed as usize;
            let dfg = random_dfg(
                RandomDfgParams {
                    inputs: 2,
                    internal_ops: ops,
                    allow_multiplies: true,
                    allow_memory: false,
                },
                21 + seed,
            );
            out.push(Case {
                name: format!("family/{label}/rand{ops}:{}", 21 + seed),
                dfg,
                arch: arch.clone(),
                ii: 1 + (seed % 2) as u32,
                conflicts: CONFLICTS,
            });
        }
    }
    out
}

fn options(case: &Case, optimize: bool, threads: usize) -> MapperOptions {
    MapperOptions {
        optimize,
        threads,
        conflict_limit: Some(case.conflicts),
        time_limit: Some(GUARD),
        ..MapperOptions::default()
    }
}

/// Verdict, routing usage, optimality and the solver's work counters.
fn digest(report: &MapReport) -> String {
    let (routing, optimal) = match &report.outcome {
        MapOutcome::Mapped {
            routing_usage,
            optimal,
            ..
        } => (routing_usage.to_string(), *optimal),
        _ => ("-".to_owned(), false),
    };
    let e = &report.solver.engine;
    format!(
        "{} r={routing} o={} c={} d={} p={} i={}",
        report.outcome.table_symbol(),
        optimal as u8,
        e.conflicts,
        e.decisions,
        e.propagations,
        report.solver.incumbents
    )
}

fn ladder_digest(report: &MinIiReport) -> String {
    let attempts: Vec<String> = report
        .attempts
        .iter()
        .map(|a| format!("[{}: {}]", a.ii, digest(&a.report)))
        .collect();
    format!(
        "{} min={:?} c={} d={}",
        attempts.join(" "),
        report.min_ii,
        report.totals.conflicts,
        report.totals.decisions
    )
}

fn sequential_lines() -> Vec<String> {
    let mut out = Vec::new();
    for case in corpus() {
        let mrrg = build_mrrg(&case.arch, case.ii);
        for optimize in [false, true] {
            let opts = options(&case, optimize, 1);
            let report = IlpMapper::new(opts).map(&case.dfg, &mrrg);
            out.push(format!(
                "{} map@{} opt={}: {}",
                case.name,
                case.ii,
                optimize as u8,
                digest(&report)
            ));
            let ladder = map_min_ii(&case.dfg, &case.arch, opts, MAX_II);
            out.push(format!(
                "{} min_ii opt={}: {}",
                case.name,
                optimize as u8,
                ladder_digest(&ladder)
            ));
        }
    }
    out
}

const GOLDEN_SEQUENTIAL: &[&str] = &[
    "table2/mac/hetero-orthx1 map@1 opt=0: 1 r=98 o=0 c=182 d=3457 p=117691 i=0",
    "table2/mac/hetero-orthx1 min_ii opt=0: [1: 1 r=98 o=0 c=182 d=3457 p=117691 i=0] min=Some(1) c=182 d=3457",
    "table2/mac/hetero-orthx1 map@1 opt=1: 1 r=82 o=0 c=11204 d=31589 p=11241748 i=49",
    "table2/mac/hetero-orthx1 min_ii opt=1: [1: 1 r=82 o=0 c=11204 d=31589 p=11241748 i=49] min=Some(1) c=11204 d=31589",
    "table2/2x2-f/hetero-diagx1 map@1 opt=0: 1 r=78 o=0 c=1912 d=28782 p=1652270 i=0",
    "table2/2x2-f/hetero-diagx1 min_ii opt=0: [1: 1 r=78 o=0 c=1912 d=28782 p=1652270 i=0] min=Some(1) c=1912 d=28782",
    "table2/2x2-f/hetero-diagx1 map@1 opt=1: 1 r=78 o=0 c=6031 d=53049 p=4027489 i=37",
    "table2/2x2-f/hetero-diagx1 min_ii opt=1: [1: 1 r=78 o=0 c=6031 d=53049 p=4027489 i=37] min=Some(1) c=6031 d=53049",
    "table2/accum/homo-orthx1 map@1 opt=0: 1 r=114 o=0 c=831 d=11551 p=929355 i=0",
    "table2/accum/homo-orthx1 min_ii opt=0: [1: 1 r=114 o=0 c=831 d=11551 p=929355 i=0] min=Some(1) c=831 d=11551",
    "table2/accum/homo-orthx1 map@1 opt=1: 1 r=110 o=0 c=5870 d=31872 p=4379323 i=30",
    "table2/accum/homo-orthx1 min_ii opt=1: [1: 1 r=110 o=0 c=5870 d=31872 p=4379323 i=30] min=Some(1) c=5870 d=31872",
    "table2/2x2-p/homo-orthx2 map@2 opt=0: 1 r=142 o=0 c=907 d=10990 p=660929 i=0",
    "table2/2x2-p/homo-orthx2 min_ii opt=0: [1: T r=- o=0 c=2000 d=24175 p=1759043 i=0] [2: 1 r=142 o=0 c=907 d=10990 p=660929 i=0] min=Some(2) c=2907 d=35165",
    "table2/2x2-p/homo-orthx2 map@2 opt=1: 1 r=142 o=0 c=3431 d=69389 p=7709682 i=31",
    "table2/2x2-p/homo-orthx2 min_ii opt=1: [1: T r=- o=0 c=2000 d=24175 p=1759043 i=0] [2: 1 r=142 o=0 c=3431 d=69389 p=7709682 i=31] min=Some(2) c=5431 d=93564",
    "table2/accum/hetero-orthx1 map@1 opt=0: T r=- o=0 c=2000 d=18441 p=2117808 i=0",
    "table2/accum/hetero-orthx1 min_ii opt=0: [1: T r=- o=0 c=2000 d=18441 p=2117808 i=0] [2: T r=- o=0 c=2000 d=17345 p=2677391 i=0] min=None c=4000 d=35786",
    "table2/accum/hetero-orthx1 map@1 opt=1: T r=- o=0 c=2000 d=18441 p=2117808 i=0",
    "table2/accum/hetero-orthx1 min_ii opt=1: [1: T r=- o=0 c=2000 d=18441 p=2117808 i=0] [2: T r=- o=0 c=2000 d=17345 p=2677391 i=0] min=None c=4000 d=35786",
    "family/2x2-homo-orth/add map@1 opt=0: 1 r=18 o=0 c=4 d=177 p=1023 i=0",
    "family/2x2-homo-orth/add min_ii opt=0: [1: 1 r=18 o=0 c=4 d=177 p=1023 i=0] min=Some(1) c=4 d=177",
    "family/2x2-homo-orth/add map@1 opt=1: 1 r=14 o=0 c=3409 d=7091 p=623278 i=9",
    "family/2x2-homo-orth/add min_ii opt=1: [1: 1 r=14 o=0 c=3409 d=7091 p=623278 i=9] min=Some(1) c=3409 d=7091",
    "family/2x2-homo-orth/rand1:21 map@1 opt=0: 1 r=27 o=0 c=10 d=115 p=1397 i=0",
    "family/2x2-homo-orth/rand1:21 min_ii opt=0: [1: 1 r=27 o=0 c=10 d=115 p=1397 i=0] min=Some(1) c=10 d=115",
    "family/2x2-homo-orth/rand1:21 map@1 opt=1: 1 r=15 o=0 c=2515 d=4722 p=322092 i=11",
    "family/2x2-homo-orth/rand1:21 min_ii opt=1: [1: 1 r=15 o=0 c=2515 d=4722 p=322092 i=11] min=Some(1) c=2515 d=4722",
    "family/2x2-homo-orth/rand2:22 map@2 opt=0: 1 r=39 o=0 c=40 d=521 p=10281 i=0",
    "family/2x2-homo-orth/rand2:22 min_ii opt=0: [1: 1 r=37 o=0 c=9 d=148 p=2099 i=0] min=Some(1) c=9 d=148",
    "family/2x2-homo-orth/rand2:22 map@2 opt=1: 1 r=31 o=0 c=2459 d=5952 p=944481 i=13",
    "family/2x2-homo-orth/rand2:22 min_ii opt=1: [1: 1 r=29 o=0 c=3330 d=5780 p=535999 i=10] min=Some(1) c=3330 d=5780",
    "family/2x2-homo-orth/rand3:23 map@1 opt=0: 0 r=- o=0 c=134 d=482 p=31020 i=0",
    "family/2x2-homo-orth/rand3:23 min_ii opt=0: [1: 0 r=- o=0 c=134 d=482 p=31020 i=0] [2: 1 r=63 o=0 c=13 d=652 p=6997 i=0] min=Some(2) c=147 d=1134",
    "family/2x2-homo-orth/rand3:23 map@1 opt=1: 0 r=- o=0 c=134 d=482 p=31020 i=0",
    "family/2x2-homo-orth/rand3:23 min_ii opt=1: [1: 0 r=- o=0 c=134 d=482 p=31020 i=0] [2: 1 r=41 o=0 c=3292 d=6865 p=1058818 i=4] min=Some(2) c=3426 d=7347",
    "family/3x3-hetero-diag/rand3:21 map@1 opt=0: 1 r=43 o=0 c=88 d=1575 p=37939 i=0",
    "family/3x3-hetero-diag/rand3:21 min_ii opt=0: [1: 1 r=43 o=0 c=88 d=1575 p=37939 i=0] min=Some(1) c=88 d=1575",
    "family/3x3-hetero-diag/rand3:21 map@1 opt=1: 1 r=35 o=0 c=5502 d=17290 p=3454718 i=36",
    "family/3x3-hetero-diag/rand3:21 min_ii opt=1: [1: 1 r=35 o=0 c=5502 d=17290 p=3454718 i=36] min=Some(1) c=5502 d=17290",
    "family/3x3-hetero-diag/rand4:22 map@2 opt=0: 1 r=74 o=0 c=519 d=4222 p=271595 i=0",
    "family/3x3-hetero-diag/rand4:22 min_ii opt=0: [1: 1 r=66 o=0 c=117 d=2070 p=77072 i=0] min=Some(1) c=117 d=2070",
    "family/3x3-hetero-diag/rand4:22 map@2 opt=1: 1 r=68 o=0 c=10123 d=45554 p=10942019 i=51",
    "family/3x3-hetero-diag/rand4:22 min_ii opt=1: [1: 1 r=48 o=0 c=5414 d=17894 p=3588110 i=40] min=Some(1) c=5414 d=17894",
    "family/3x3-hetero-diag/rand5:23 map@1 opt=0: 1 r=61 o=0 c=192 d=2926 p=163912 i=0",
    "family/3x3-hetero-diag/rand5:23 min_ii opt=0: [1: 1 r=61 o=0 c=192 d=2926 p=163912 i=0] min=Some(1) c=192 d=2926",
    "family/3x3-hetero-diag/rand5:23 map@1 opt=1: 1 r=53 o=0 c=4256 d=18619 p=2839145 i=48",
    "family/3x3-hetero-diag/rand5:23 min_ii opt=1: [1: 1 r=53 o=0 c=4256 d=18619 p=2839145 i=48] min=Some(1) c=4256 d=18619",
];

#[test]
fn sequential_solve_path_matches_golden_digests() {
    let actual = sequential_lines();
    let table: String = actual.iter().map(|l| format!("    \"{l}\",\n")).collect();
    assert!(
        actual == GOLDEN_SEQUENTIAL,
        "solve path drifted from the golden digests; actual table:\n{table}"
    );
}

/// Per-II verdicts of an optimising ladder: `ii:symbol`, with `*n`
/// appended when routing usage `n` was proven optimal.
fn verdict_line(report: &MinIiReport) -> String {
    let cells: Vec<String> = report
        .attempts
        .iter()
        .map(|a| match &a.report.outcome {
            MapOutcome::Mapped {
                routing_usage,
                optimal: true,
                ..
            } => format!("{}:1*{routing_usage}", a.ii),
            other => format!("{}:{}", a.ii, other.table_symbol()),
        })
        .collect();
    cells.join(" ")
}

/// `(ii, symbol, proven optimum)` per attempt of a [`verdict_line`].
fn parse_verdicts(line: &str) -> Vec<(u32, String, Option<usize>)> {
    line.split_whitespace()
        .map(|cell| {
            let (ii, rest) = cell.split_once(':').expect("ii:symbol");
            let (symbol, optimum) = match rest.split_once('*') {
                Some((s, n)) => (s, Some(n.parse().expect("optimum"))),
                None => (rest, None),
            };
            (ii.parse().expect("ii"), symbol.to_owned(), optimum)
        })
        .collect()
}

const GOLDEN_PORTFOLIO: &[(&str, &str)] = &[
    ("table2/mac/hetero-orthx1", "1:1"),
    ("table2/2x2-f/hetero-diagx1", "1:1"),
    ("table2/accum/homo-orthx1", "1:1"),
    ("table2/2x2-p/homo-orthx2", "1:T 2:1"),
    ("table2/accum/hetero-orthx1", "1:T 2:T"),
    ("family/2x2-homo-orth/add", "1:1"),
    ("family/2x2-homo-orth/rand1:21", "1:1"),
    ("family/2x2-homo-orth/rand2:22", "1:1"),
    ("family/2x2-homo-orth/rand3:23", "1:0 2:1"),
    ("family/3x3-hetero-diag/rand3:21", "1:1"),
    ("family/3x3-hetero-diag/rand4:22", "1:1"),
    ("family/3x3-hetero-diag/rand5:23", "1:1"),
];

#[test]
fn portfolio_ladder_agrees_with_recorded_verdicts() {
    let mut table = String::new();
    let mut disagreements = Vec::new();
    let mut recorded_cases = 0;
    for case in corpus() {
        let name = &case.name;
        let report = map_min_ii(&case.dfg, &case.arch, options(&case, true, 2), MAX_II);
        let line = verdict_line(&report);
        table.push_str(&format!("    (\"{name}\", \"{line}\"),\n"));
        let Some(&(_, recorded)) = GOLDEN_PORTFOLIO.iter().find(|(n, _)| n == name) else {
            continue;
        };
        recorded_cases += 1;
        for (ii, symbol, optimum) in parse_verdicts(&line) {
            let Some((_, was, was_optimum)) =
                parse_verdicts(recorded).into_iter().find(|r| r.0 == ii)
            else {
                continue;
            };
            let decided = |s: &str| s != "T";
            if decided(&symbol) && decided(&was) && symbol != was {
                disagreements.push(format!("{name} II {ii}: {was} recorded, {symbol} now"));
            }
            if let (Some(now), Some(then)) = (optimum, was_optimum) {
                if now != then {
                    disagreements.push(format!(
                        "{name} II {ii}: optimum {then} recorded, {now} now"
                    ));
                }
            }
        }
    }
    assert_eq!(
        recorded_cases,
        GOLDEN_PORTFOLIO.len().max(corpus().len()),
        "every case needs a recording; actual table:\n{table}"
    );
    assert!(
        disagreements.is_empty(),
        "{disagreements:#?}\nactual table:\n{table}"
    );
}
