//! Reproduces the DAC 2018 paper's tables and figures, one mode each
//! (DESIGN.md §3):
//!
//! ```text
//! paper table1
//! paper table2 [--time-limit <seconds>] [--no-warm-start] [--no-presolve]
//!              [--jobs <n>] [--threads <n>] [--certify] [--mem-limit <MiB>]
//!              [--smoke] [benchmark ...]
//! paper fig8 [--time-limit <seconds>] [--jobs <n>] [benchmark ...]
//! paper mrrg_figures
//! paper ablation_objective [--time-limit <seconds>] [--jobs <n>] [benchmark ...]
//! paper ablation_constraints
//! ```
//!
//! * **`table1`** regenerates Table 1 (benchmark I/Os, operations and
//!   multiplies) and exits nonzero if any row differs from the paper.
//! * **`table2`** regenerates Table 2 — ILP-mapper feasibility of the 19
//!   benchmarks over the 8 test architectures (4 families x 1/2
//!   contexts) — plus the solve-time summary behind the paper's ">80% of
//!   runs completed within one hour" statement (E6). The per-cell budget
//!   defaults to 60 s (the paper used 1 h / 24 h on a server; see
//!   EXPERIMENTS.md); cells that exceed it print as `T`, as in the paper.
//!   `--threads n` gives each cell's solver n racing engines;
//!   `--no-presolve` disables the `bilp` presolve pipeline;
//!   `--mem-limit <MiB>` bounds each solve's learnt clauses plus proof
//!   log. `--certify` audits every verdict: infeasible cells must carry
//!   a checker-replayed UNSAT certificate (or an independently verified
//!   build-stage refutation), and the run exits nonzero if any cell
//!   audits `check-failed`. `--smoke` runs a 2-benchmark x
//!   1-architecture subset and exits nonzero if any cell disagrees with
//!   the paper (with `--certify`, also unless every verdict audits
//!   `certified`) — a fast CI gate, not an experiment.
//! * **`fig8`** regenerates Fig 8: per-architecture counts of benchmarks
//!   mapped by the simulated-annealing mapper (moderate parameters)
//!   versus the exact ILP mapper. The paper's headline is the *shape*:
//!   the ILP mapper finds at least as many mappings on every one of the
//!   eight architectures.
//! * **`mrrg_figures`** prints the per-context node/edge structure the
//!   MRRG translation rules produce for the fragments of Figs 1-3.
//! * **`ablation_objective`** (A1) compares, on homo-diag at II=1, the
//!   routing usage of the first feasible mapping against the
//!   proven-minimal one, and the solve-time cost of optimality.
//! * **`ablation_constraints`** (A2) drops the Multiplexer Input
//!   Exclusivity constraint (9) and shows the self-reinforcing routing
//!   loops of the paper's Example 2: on the crafted fragment, then on
//!   four cells Table 2 reports infeasible.
//!
//! `--jobs n` evaluates n cells (or benchmarks) concurrently, `0` = all
//! cores; with `--threads` the two compose, so keep `jobs x threads`
//! near the core count. Usage errors exit 2 with the usage text.

use bilp::{Outcome, Solver, SolverConfig};
use cgra_arch::families::{
    example2_fragment, grid, paper_configs, FuMix, GridParams, Interconnect,
};
use cgra_arch::{alu_ops, Architecture, ComponentKind, PortRef};
use cgra_bench::cli::Cli;
use cgra_bench::{
    compare_to_paper, render_matrix, run_cell, run_matrix, time_summary, Cell, WhichMapper,
};
use cgra_dfg::{benchmarks, Dfg, OpKind};
use cgra_mapper::{Formulation, IlpMapper, MapOutcome, MapperOptions};
use cgra_mrrg::{build_mrrg, Mrrg};
use std::time::Duration;

const USAGE: &str = "\
paper table1
       paper table2 [--time-limit <seconds>] [--no-warm-start] [--no-presolve] [--jobs <n>]
                    [--threads <n>] [--certify] [--mem-limit <MiB>] [--smoke] [benchmark ...]
       paper fig8 [--time-limit <seconds>] [--jobs <n>] [benchmark ...]
       paper mrrg_figures
       paper ablation_objective [--time-limit <seconds>] [--jobs <n>] [benchmark ...]
       paper ablation_constraints";

fn main() {
    let mut cli = Cli::new(USAGE);
    let Some(mode) = cli.next_arg() else {
        cli.fail("missing mode");
    };
    match mode.as_str() {
        "table1" => table1(cli),
        "table2" => table2(cli),
        "fig8" => fig8(cli),
        "mrrg_figures" => mrrg_figures(cli),
        "ablation_objective" => ablation_objective(cli),
        "ablation_constraints" => ablation_constraints(cli),
        other => cli.fail(&format!("unknown mode {other:?}")),
    }
}

/// Rejects any argument after a mode that takes none.
fn no_args(mut cli: Cli) {
    if let Some(arg) = cli.next_arg() {
        cli.fail(&format!("unexpected argument {arg}"));
    }
}

/// The value of `--jobs`, with `0` meaning all cores.
fn job_count(cli: &mut Cli) -> usize {
    match cli.value("--jobs", "a job count") {
        0 => cgra_par::default_jobs(1),
        n => n,
    }
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

fn table1(cli: Cli) {
    no_args(cli);
    println!(
        "{:<14} {:>6} {:>12} {:>12}   (paper: ios/ops/muls)",
        "Benchmark", "I/Os", "Operations", "#Multiplies"
    );
    let mut mismatches = 0;
    for entry in benchmarks::all() {
        let dfg = (entry.build)();
        let s = dfg.stats();
        let ok = s == entry.expected;
        if !ok {
            mismatches += 1;
        }
        println!(
            "{:<14} {:>6} {:>12} {:>12}   ({}/{}/{}) {}",
            entry.name,
            s.ios,
            s.operations,
            s.multiplies,
            entry.expected.ios,
            entry.expected.operations,
            entry.expected.multiplies,
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    if mismatches == 0 {
        println!("\nAll 19 rows match the paper's Table 1 exactly.");
    } else {
        println!("\n{mismatches} rows mismatch the paper's Table 1.");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

fn table2(mut cli: Cli) {
    let mut time_limit = Duration::from_secs(60);
    let mut smoke = false;
    let mut jobs = 1usize;
    let mut options = MapperOptions {
        warm_start: true,
        ..MapperOptions::default()
    };
    let mut filter: Vec<String> = Vec::new();
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--time-limit" => time_limit = cli.seconds("--time-limit"),
            "--no-warm-start" => options.warm_start = false,
            "--no-presolve" => options.presolve = false,
            "--smoke" => smoke = true,
            "--certify" => options.certify = true,
            "--mem-limit" => {
                options.mem_limit = Some(cli.value::<usize>("--mem-limit", "a MiB count") << 20)
            }
            "--jobs" => jobs = job_count(&mut cli),
            "--threads" => options.threads = cli.value("--threads", "a thread count"),
            name => filter.push(cli.benchmark_name(name)),
        }
    }
    if smoke {
        table2_smoke(options, time_limit);
        return;
    }

    eprintln!(
        "Running Table 2 sweep (budget {time_limit:?}/cell, warm start {}, \
         presolve {}, {jobs} jobs x {} solver threads) ...",
        options.warm_start, options.presolve, options.threads
    );
    let mapper = WhichMapper::Ilp(options);
    let cells = run_matrix(mapper, time_limit, &filter, jobs, |cell| {
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

    if options.certify {
        let audited = cells.iter().filter(|c| c.check.is_some()).count();
        let bad: Vec<&Cell> = cells
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
fn table2_smoke(options: MapperOptions, time_limit: Duration) {
    let configs = paper_configs();
    let config = configs
        .iter()
        .find(|c| c.label == "hetero-orth" && c.contexts == 1)
        .expect("paper config exists");
    let mut failed = false;
    for (bench, expected) in [("accum", "1"), ("mult_10", "0")] {
        let entry = benchmarks::by_name(bench).expect("known benchmark");
        let cell = run_cell(entry, config, WhichMapper::Ilp(options), time_limit);
        let mut ok = cell.symbol == expected;
        if options.certify && cell.check != Some("certified") {
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

// ---------------------------------------------------------------------
// Fig 8
// ---------------------------------------------------------------------

fn fig8(mut cli: Cli) {
    let mut time_limit = Duration::from_secs(60);
    let mut jobs = 1usize;
    let mut filter: Vec<String> = Vec::new();
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--time-limit" => time_limit = cli.seconds("--time-limit"),
            "--jobs" => jobs = job_count(&mut cli),
            name => filter.push(cli.benchmark_name(name)),
        }
    }

    eprintln!("Running SA sweep ({jobs} jobs) ...");
    let sa = run_matrix(WhichMapper::Annealing, time_limit, &filter, jobs, |cell| {
        eprintln!(
            "  SA  {:<14} {:>12}/{}  ->  {}  ({:.2?})",
            cell.benchmark, cell.arch, cell.contexts, cell.symbol, cell.elapsed
        );
    });
    eprintln!("Running ILP sweep ({jobs} jobs) ...");
    let ilp = run_matrix(WhichMapper::ilp(), time_limit, &filter, jobs, |cell| {
        eprintln!(
            "  ILP {:<14} {:>12}/{}  ->  {}  ({:.2?})",
            cell.benchmark, cell.arch, cell.contexts, cell.symbol, cell.elapsed
        );
    });

    let configs = paper_configs();
    println!("\nFig 8: number of benchmarks mapped per architecture\n");
    println!("{:<16} {:>6} {:>6}", "Architecture", "SA", "ILP");
    let mut sa_total = 0;
    let mut ilp_total = 0;
    let mut ilp_dominates = true;
    for c in &configs {
        let count = |cells: &[Cell]| {
            cells
                .iter()
                .filter(|x| x.arch == c.label && x.contexts == c.contexts && x.symbol == "1")
                .count()
        };
        let (s, i) = (count(&sa), count(&ilp));
        sa_total += s;
        ilp_total += i;
        if i < s {
            ilp_dominates = false;
        }
        let bar = |n: usize| "#".repeat(n);
        println!(
            "{:<16} {:>6} {:>6}   SA  |{}",
            format!("{}/{}", c.label, c.contexts),
            s,
            i,
            bar(s)
        );
        println!("{:<16} {:>6} {:>6}   ILP |{}", "", "", "", bar(i));
    }
    println!("\nTotals: SA {sa_total}, ILP {ilp_total}");
    println!(
        "ILP >= SA on every architecture: {}",
        if ilp_dominates {
            "yes (matches the paper)"
        } else {
            "NO"
        }
    );
}

// ---------------------------------------------------------------------
// Figs 1-3
// ---------------------------------------------------------------------

fn dump(title: &str, mrrg: &Mrrg, prefixes: &[&str]) {
    println!("--- {title} ({}) ---", mrrg);
    for id in mrrg.node_ids() {
        let n = &mrrg.nodes()[id.index()];
        if !prefixes.iter().any(|p| n.name.starts_with(p)) {
            continue;
        }
        let outs: Vec<&str> = mrrg
            .fanouts(id)
            .iter()
            .map(|&t| mrrg.nodes()[t.index()].name.as_str())
            .collect();
        println!("  {:<12} -> {}", n.name, outs.join(", "));
    }
    println!();
}

fn closed_test_arch(latency: u32, unit_ii: u32) -> Architecture {
    let mut a = Architecture::new("fragment");
    let mux = a
        .add_component("mux", ComponentKind::Mux { inputs: 2 })
        .expect("static");
    let fu = a
        .add_component(
            "fu",
            ComponentKind::FuncUnit {
                ops: alu_ops(true),
                latency,
                ii: unit_ii,
            },
        )
        .expect("static");
    let reg = a
        .add_component("reg", ComponentKind::Register)
        .expect("static");
    a.connect(PortRef::out(mux), PortRef::input(fu, 0))
        .expect("static");
    a.connect(PortRef::out(mux), PortRef::input(fu, 1))
        .expect("static");
    a.connect(PortRef::out(fu), PortRef::input(reg, 0))
        .expect("static");
    a.connect(PortRef::out(reg), PortRef::input(mux, 0))
        .expect("static");
    a.connect(PortRef::out(fu), PortRef::input(mux, 1))
        .expect("static");
    a
}

fn mrrg_figures(cli: Cli) {
    no_args(cli);
    // Fig 1: multiplexer and register over two contexts.
    let g = build_mrrg(&closed_test_arch(0, 1), 2);
    dump("Fig 1 (left): 2:1 multiplexer, two contexts", &g, &["mux."]);
    dump(
        "Fig 1 (right): register crossing contexts (in@c -> out@(c+1) mod II)",
        &g,
        &["reg."],
    );

    // Fig 2: the three latency/II functional-unit variants.
    dump(
        "Fig 2 (top): multiply L=1, II=1 — slot every cycle, result next cycle",
        &build_mrrg(&closed_test_arch(1, 1), 2),
        &["fu."],
    );
    dump(
        "Fig 2 (middle): multiply L=2, II=2 — slot every other cycle",
        &build_mrrg(&closed_test_arch(2, 2), 2),
        &["fu."],
    );
    dump(
        "Fig 2 (bottom): multiply L=2, II=1 — fully pipelined",
        &build_mrrg(&closed_test_arch(2, 1), 4),
        &["fu."],
    );

    // Fig 3: a full functional block of the test architecture.
    let arch = grid(GridParams {
        rows: 1,
        cols: 2,
        fu_mix: FuMix::Homogeneous,
        interconnect: Interconnect::Orthogonal,
        io_pads: true,
        memory_ports: false,
        toroidal: false,
        alu_latency: 0,
        bypass_channel: false,
    });
    let g = build_mrrg(&arch, 1);
    dump(
        "Fig 3: one functional block (ALU latency 0, register, operand/output muxes)",
        &g,
        &["b0_0."],
    );
    println!(
        "Full MRRG of the two-block fragment: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );
}

// ---------------------------------------------------------------------
// Ablation A1: objective (10) on vs off
// ---------------------------------------------------------------------

fn ablation_objective(mut cli: Cli) {
    let mut time_limit = Duration::from_secs(120);
    let mut jobs = 1usize;
    let mut filter: Vec<String> = Vec::new();
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--time-limit" => time_limit = cli.seconds("--time-limit"),
            "--jobs" => jobs = job_count(&mut cli),
            name => filter.push(cli.benchmark_name(name)),
        }
    }
    if filter.is_empty() {
        // A default set that maps quickly on the easiest architecture.
        filter = ["accum", "mac", "2x2-f", "2x2-p", "exp_4", "tay_4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let configs = paper_configs();
    let config = configs
        .iter()
        .find(|c| c.label == "homo-diag" && c.contexts == 1)
        .expect("homo-diag II=1 exists");

    println!(
        "{:<14} {:>14} {:>14} {:>10} {:>12} {:>12}",
        "Benchmark", "first-feasible", "optimal", "saved", "t_feas", "t_opt"
    );
    let rows = cgra_par::par_map(jobs, &filter, |name| {
        let entry = benchmarks::by_name(name).expect("known benchmark");
        let dfg = (entry.build)();
        let mrrg = build_mrrg(&config.arch, config.contexts);

        // Deliberately cold (no warm start): the first feasible solution the
        // exact search stumbles on, versus the optimizer's best.
        let feas = IlpMapper::new(MapperOptions {
            time_limit: Some(time_limit),
            optimize: false,
            ..MapperOptions::default()
        })
        .map(&dfg, &mrrg);
        let opt = IlpMapper::new(MapperOptions {
            time_limit: Some(time_limit),
            optimize: true,
            warm_start: true,
            ..MapperOptions::default()
        })
        .map(&dfg, &mrrg);
        (feas, opt)
    });
    for (name, (feas, opt)) in filter.iter().zip(&rows) {
        let usage = |o: &MapOutcome| match o {
            MapOutcome::Mapped { routing_usage, .. } => Some(*routing_usage),
            _ => None,
        };
        let (uf, uo) = (usage(&feas.outcome), usage(&opt.outcome));
        let optimal_proven = matches!(opt.outcome, MapOutcome::Mapped { optimal: true, .. });
        println!(
            "{:<14} {:>14} {:>14} {:>10} {:>12} {:>12}",
            name,
            uf.map_or("-".into(), |u| u.to_string()),
            uo.map_or("-".into(), |u| format!(
                "{}{}",
                u,
                if optimal_proven { "*" } else { "+" }
            )),
            match (uf, uo) {
                (Some(a), Some(b)) => format!("{:.0}%", 100.0 * (a - b) as f64 / a as f64),
                _ => "-".into(),
            },
            format!("{:.2?}", feas.elapsed),
            format!("{:.2?}", opt.elapsed),
        );
    }
    println!("\n(* proven optimal; + best found within budget)");
}

// ---------------------------------------------------------------------
// Ablation A2: Multiplexer Input Exclusivity (9)
// ---------------------------------------------------------------------

fn two_in_two_out() -> Dfg {
    let mut g = Dfg::new("copy2");
    let a = g.add_op("a", OpKind::Input).expect("static");
    let b = g.add_op("b", OpKind::Input).expect("static");
    let oa = g.add_op("oa", OpKind::Output).expect("static");
    let ob = g.add_op("ob", OpKind::Output).expect("static");
    g.connect(a, oa, 0).expect("static");
    g.connect(b, ob, 0).expect("static");
    g
}

/// Solves with/without constraint (9); returns (verdict, decoded-ok).
fn probe(
    dfg: &Dfg,
    mrrg: &Mrrg,
    mux_exclusivity: bool,
    budget: Duration,
) -> (String, Option<bool>) {
    let options = MapperOptions {
        mux_exclusivity,
        time_limit: Some(budget),
        ..MapperOptions::default()
    };
    let formulation = match Formulation::build(dfg, mrrg, options) {
        Ok(f) => f,
        Err(e) => return (format!("infeasible at presolve ({e})"), None),
    };
    let mut solver = Solver::with_config(SolverConfig {
        time_limit: Some(budget),
        ..SolverConfig::default()
    });
    match solver.solve(formulation.model()) {
        Outcome::Optimal { solution, .. } | Outcome::Feasible { solution, .. } => {
            match formulation.try_decode(dfg, mrrg, &solution) {
                Ok(mapping) => {
                    let valid = cgra_mapper::validate_mapping(dfg, mrrg, &mapping).is_ok();
                    ("sat".into(), Some(valid))
                }
                Err(e) => (format!("sat, but {e}"), Some(false)),
            }
        }
        Outcome::Infeasible => ("infeasible".into(), None),
        Outcome::Unknown => ("timeout".into(), None),
    }
}

fn ablation_constraints(cli: Cli) {
    no_args(cli);
    println!("Part 1: the Example 2 fragment (loop cloud + shared mux)\n");
    let dfg = two_in_two_out();
    let mrrg = build_mrrg(&example2_fragment(), 1);
    let budget = Duration::from_secs(30);

    let (with9, _) = probe(&dfg, &mrrg, true, budget);
    println!("  with constraint (9):    {with9}");
    let (without9, decoded) = probe(&dfg, &mrrg, false, budget);
    println!("  without constraint (9): {without9}");
    match decoded {
        Some(false) => println!(
            "  -> as Example 2 predicts, dropping (9) admits a self-reinforcing\n\
             \u{20}    loop that satisfies Fanout Routing (5) without ever reaching\n\
             \u{20}    the sink: the \"solution\" does not decode to a real mapping."
        ),
        Some(true) => println!("  -> unexpectedly decoded to a valid mapping"),
        None => {}
    }

    println!("\nPart 2: paper cells that Table 2 reports infeasible\n");
    let configs = paper_configs();
    let cells: [(&str, &str, u32); 4] = [
        ("cos_4", "homo-diag", 1),
        ("weighted_sum", "hetero-orth", 1),
        ("exp_5", "homo-orth", 1),
        ("sinh_4", "hetero-diag", 1),
    ];
    // The four probes are independent; sweep them concurrently.
    let probed = cgra_par::par_map(
        cgra_par::default_jobs(1).min(cells.len()),
        &cells,
        |&(bench, arch, ctx)| {
            let entry = benchmarks::by_name(bench).expect("known");
            let dfg = (entry.build)();
            let config = configs
                .iter()
                .find(|c| c.label == arch && c.contexts == ctx)
                .expect("config exists");
            let mrrg = build_mrrg(&config.arch, config.contexts);
            let (with9, _) = probe(&dfg, &mrrg, true, budget);
            let (without9, decoded) = probe(&dfg, &mrrg, false, budget);
            (with9, without9, decoded)
        },
    );
    let mut flips = 0;
    for ((bench, arch, ctx), (with9, without9, decoded)) in cells.iter().zip(&probed) {
        // A "bogus SAT": the ablated model is satisfied by an assignment
        // whose routing never reaches some sink.
        let bogus = matches!(decoded, Some(false));
        if bogus {
            flips += 1;
        }
        println!(
            "  {bench:<14} {arch}/{ctx}: with (9) {with9}; without (9) {without9}{}",
            if bogus { "  [BOGUS SAT]" } else { "" }
        );
    }
    println!(
        "\n{flips} of {} cells accepted a non-mapping \"solution\" once (9) was dropped.",
        cells.len()
    );
}
