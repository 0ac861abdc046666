//! Fixed-work benchmark for the CGRA mapper, its ILP solver and its
//! mapping service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `table2` — exact feasibility over a fixed 6-kernel x 8-column slice
//!   of the paper's Table 2, one request at a time;
//! * `descent` — routing minimisation (objective (10)) over cells this
//!   build maps within the conflict budget, one request at a time;
//! * `serve` — an in-process service behind its TCP reactor, two
//!   closed-loop clients over a skewed hot set plus first-seen solves.
//!
//! Each request's solver work is set by its input and a per-query
//! conflict budget, never by the clock. With `--trace 0` the last stdout
//! line carries the end-to-end metrics; with `--trace 1` the run repeats
//! the same requests through the layer functions with spans and the
//! last line carries the per-layer metrics. Every output is checked; a
//! breach fails its request and makes the command exit 1.

mod inputs;
mod mapper;
mod report;
mod serve;
mod stats;
mod trace;

use inputs::{paper_fabrics, paper_kernel, random_kernel, stratified_order, Cell, SplitMix64};
use report::{peak_rss_mb, RunResult, E2E, LAYERS};
use std::path::PathBuf;
use std::process::ExitCode;

/// The run length the request counts below are sized for.
const NOMINAL_SECONDS: u64 = 30;

/// Conflict budget per query on `table2`.
const TABLE2_CONFLICTS: u64 = 3_000;
/// Kernels of the `table2` slice, each asked on all 8 columns.
const TABLE2_KERNELS: [&str; 6] = ["accum", "mac", "mult_10", "2x2-f", "2x2-p", "exp_4"];

/// Conflict budget per query (feasibility and each descent probe) on
/// `descent`.
const DESCENT_CONFLICTS: u64 = 2_000;
/// `descent` cells: (kernel, fabric index, II). Every one is mapped
/// within the feasibility budget on this code; the paper kernels are the
/// four Table 2 cells that are, the generated kernels
/// (`rand<ops>:<generator seed>`) fill every column.
const DESCENT_CELLS: [(&str, usize, u32); 32] = [
    ("mac", 0, 1),
    ("accum", 2, 1),
    ("2x2-f", 1, 1),
    ("2x2-p", 2, 2),
    ("rand4:12", 0, 1),
    ("rand3:13", 0, 1),
    ("rand4:11", 0, 1),
    ("rand5:11", 0, 1),
    ("rand5:4", 1, 1),
    ("rand3:13", 1, 1),
    ("rand5:8", 1, 1),
    ("rand4:7", 1, 1),
    ("rand3:13", 2, 1),
    ("rand4:12", 2, 1),
    ("rand4:11", 2, 1),
    ("rand5:11", 2, 1),
    ("rand4:8", 3, 1),
    ("rand5:4", 3, 1),
    ("rand3:13", 3, 1),
    ("rand4:7", 3, 1),
    ("rand3:13", 0, 2),
    ("rand4:8", 0, 2),
    ("rand3:14", 0, 2),
    ("rand4:11", 1, 2),
    ("rand5:7", 1, 2),
    ("rand4:9", 1, 2),
    ("rand3:13", 2, 2),
    ("rand3:14", 2, 2),
    ("rand4:11", 2, 2),
    ("rand5:7", 3, 2),
    ("rand4:8", 3, 2),
    ("rand4:9", 3, 2),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> &'static str {
    "usage: cgra-perfbench --workload <table2|descent|serve> --seed <n> --seconds <n> --trace <0|1>"
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` is 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `list` scaled to `seconds`: a prefix for shorter runs, whole repeats
/// for longer ones.
fn scaled<T: Clone>(list: Vec<T>, seconds: u64) -> Vec<T> {
    if seconds < NOMINAL_SECONDS {
        let n = (list.len() as u64 * seconds).div_ceil(NOMINAL_SECONDS) as usize;
        list.into_iter().take(n.max(1)).collect()
    } else {
        let passes = (seconds / NOMINAL_SECONDS) as usize;
        std::iter::repeat(list).take(passes).flatten().collect()
    }
}

fn table2_spec(seed: u64, seconds: u64) -> mapper::Spec {
    let kernels: Vec<_> = TABLE2_KERNELS.iter().map(|k| paper_kernel(k)).collect();
    let groups: Vec<Vec<Cell>> = (0..8)
        .map(|column| {
            (0..kernels.len())
                .map(|kernel| Cell {
                    kernel,
                    fabric: column % 4,
                    ii: 1 + (column / 4) as u32,
                })
                .collect()
        })
        .collect();
    let rounds = if seconds < NOMINAL_SECONDS {
        (TABLE2_KERNELS.len() as u64 * seconds).div_ceil(NOMINAL_SECONDS) as usize
    } else {
        TABLE2_KERNELS.len()
    };
    let order = stratified_order(groups, rounds, &mut SplitMix64::new(seed, 2));
    mapper::Spec {
        name: "table2",
        optimize: false,
        conflict_limit: TABLE2_CONFLICTS,
        kernels,
        fabrics: paper_fabrics(),
        cells: scaled(order, seconds.max(NOMINAL_SECONDS)),
    }
}

fn descent_spec(seed: u64, seconds: u64) -> mapper::Spec {
    let mut names: Vec<&str> = DESCENT_CELLS.iter().map(|c| c.0).collect();
    names.sort_unstable();
    names.dedup();
    let kernels = names
        .iter()
        .map(
            |name| match name.strip_prefix("rand").and_then(|r| r.split_once(':')) {
                Some((ops, gen)) => random_kernel(
                    ops.parse().expect("op count in a descent kernel name"),
                    gen.parse()
                        .expect("generator seed in a descent kernel name"),
                ),
                None => paper_kernel(name),
            },
        )
        .collect();
    let mut cells: Vec<Cell> = DESCENT_CELLS
        .iter()
        .map(|&(name, fabric, ii)| Cell {
            kernel: names.binary_search(&name).expect("listed kernel"),
            fabric,
            ii,
        })
        .collect();
    SplitMix64::new(seed, 3).shuffle(&mut cells);
    mapper::Spec {
        name: "descent",
        optimize: true,
        conflict_limit: DESCENT_CONFLICTS,
        kernels,
        fabrics: paper_fabrics(),
        cells: scaled(cells, seconds),
    }
}

/// Directory for run artifacts (fingerprints, spans): next to the
/// benchmark executable, inside the build directory.
fn artifact_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("the executable sits in a directory")
        .join("perfbench-runs")
}

/// Identifies this build: the executable's size and modification time.
fn build_stamp() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{modified:x}", m.len())
        })
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Compares this run's fingerprints with the first run of the same build,
/// workload, seed and length (recording them if this is that run), and
/// fails every request whose fingerprint differs.
fn check_fingerprints(result: &mut RunResult, args: &Args, dir: &std::path::Path) {
    let path = dir.join(format!(
        "{}-seed{}-s{}-{}.fingerprints",
        result.workload,
        args.seed,
        args.seconds,
        build_stamp()
    ));
    let current: Vec<&str> = result
        .fingerprints
        .iter()
        .map(|(_, fp)| fp.as_str())
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) => {
            let earlier: Vec<&str> = earlier.lines().collect();
            let mut differing = 0;
            for (i, (id, fp)) in result.fingerprints.iter().enumerate() {
                if earlier.get(i) != Some(&fp.as_str()) {
                    result
                        .tally
                        .fail(*id, "fingerprint differs from an earlier run");
                    differing += 1;
                }
            }
            result.header.push(format!(
                "fixed-work guard: {differing} of {} fingerprints differ from {}",
                result.fingerprints.len(),
                path.display()
            ));
        }
        Err(_) => {
            let _ = std::fs::write(&path, current.join("\n"));
            result.header.push(format!(
                "fixed-work guard: fingerprints recorded in {}",
                path.display()
            ));
        }
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cgra-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let dir = artifact_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cgra-perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let mut result = match args.workload.as_str() {
        "table2" => mapper::run(&table2_spec(args.seed, args.seconds), args.trace),
        "descent" => mapper::run(&descent_spec(args.seed, args.seconds), args.trace),
        "serve" => serve::run(args.seed, args.seconds, args.trace, &dir),
        other => {
            eprintln!("cgra-perfbench: unknown workload `{other}`\n{}", usage());
            return ExitCode::from(2);
        }
    };
    result.e2e.push("peak_rss_mb", peak_rss_mb(), "MiB");

    check_fingerprints(&mut result, &args, &dir);
    if let Some(tracer) = &result.tracer {
        let path = dir.join(format!("{}-seed{}.spans.tsv", result.workload, args.seed));
        let _ = std::fs::write(&path, tracer.to_tsv());
        result.header.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# cgra-perfbench rev={} nproc={cores} profile={profile} workload={} seed={} seconds={} trace={}",
        git_rev(),
        result.workload,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for line in &result.header {
        println!("# {line}");
    }
    println!(
        "# failed_share={}{}",
        result.tally.failed_share(),
        result
            .tally
            .reasons()
            .iter()
            .map(|(r, n)| format!("; {r}: {n}"))
            .collect::<String>()
    );
    if !args.trace {
        for (name, unit, definition) in E2E {
            println!("#   {name} [{unit}]: {definition}");
        }
    }
    if args.trace {
        println!("# layer metric -> end-to-end metric it should move | heavy on | light on");
        for (name, unit, moves, heavy, light) in LAYERS {
            let value = result.layers.get(name).unwrap_or(0.0);
            println!("#   {name} = {value} {unit} -> {moves} | {heavy} | {light}");
        }
    }
    let catalogue: Vec<(&str, &str)> = if args.trace {
        LAYERS.iter().map(|m| (m.0, m.1)).collect()
    } else {
        E2E.iter().map(|m| (m.0, m.1)).collect()
    };
    let metrics = if args.trace {
        &result.layers
    } else {
        &result.e2e
    };
    let correct = result.tally.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.tally.attempted(),
        result.tally.failed(),
        metrics.json(&catalogue)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
