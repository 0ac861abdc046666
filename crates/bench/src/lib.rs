//! # cgra-bench — the paper's experiment harness
//!
//! One binary, `paper`, reproduces every table and figure of the DAC
//! 2018 paper, one mode each (see DESIGN.md §3):
//!
//! * `paper table1` — benchmark characteristics (paper Table 1),
//! * `paper table2` — the 19-benchmark x 8-architecture feasibility
//!   matrix (paper Table 2) plus the solve-time distribution (paper
//!   Section 5's runtime statement),
//! * `paper fig8` — ILP vs simulated-annealing mapped-benchmark counts,
//! * `paper mrrg_figures` — the MRRG construction fragments of Figs 1-3,
//! * `paper ablation_objective` / `paper ablation_constraints` — this
//!   repository's own ablations (DESIGN.md A1/A2).
//!
//! Performance is measured by the separate fixed-work benchmark in
//! `perfbench/`, which reads [`PAPER_TABLE2`] from this crate.
//!
//! This library crate carries the shared harness: the paper's published
//! Table 2 values for comparison, cell runners, text-table rendering and
//! the command-line dialect of [`cli`].

#![warn(missing_docs)]

pub mod cli;

use cgra_arch::families::{paper_configs, PaperConfig};
use cgra_dfg::benchmarks::{self, BenchmarkEntry};
use cgra_mapper::{
    verdict_provenance, AnnealParams, AnnealingMapper, IlpMapper, MapOutcome, MapperOptions,
};
use cgra_mrrg::build_mrrg;
use std::time::Duration;

/// The paper's Table 2, row-per-benchmark in Table 1 order; columns are
/// Hetero-Orth, Hetero-Diag, Homo-Orth, Homo-Diag at II=1 then II=2.
/// `"1"` = feasible, `"0"` = infeasible, `"T"` = solver timeout.
pub const PAPER_TABLE2: [(&str, [&str; 8]); 19] = [
    ("accum", ["1", "1", "1", "1", "1", "1", "1", "1"]),
    ("mac", ["1", "1", "1", "1", "1", "1", "1", "1"]),
    ("add_10", ["1", "1", "1", "1", "1", "1", "1", "1"]),
    ("add_14", ["0", "1", "0", "1", "1", "1", "1", "1"]),
    ("add_16", ["0", "1", "0", "1", "1", "1", "1", "1"]),
    ("mult_10", ["0", "0", "1", "1", "1", "1", "1", "1"]),
    ("mult_14", ["0", "0", "0", "1", "1", "1", "1", "1"]),
    ("mult_16", ["0", "0", "0", "1", "1", "1", "1", "1"]),
    ("2x2-f", ["1", "1", "1", "1", "1", "1", "1", "1"]),
    ("2x2-p", ["1", "1", "1", "1", "1", "1", "1", "1"]),
    ("cos_4", ["0", "0", "0", "0", "1", "1", "1", "1"]),
    ("cosh_4", ["0", "0", "0", "0", "1", "1", "1", "1"]),
    ("exp_4", ["0", "1", "0", "1", "1", "1", "1", "1"]),
    ("exp_5", ["0", "0", "0", "1", "1", "1", "1", "1"]),
    ("exp_6", ["0", "0", "0", "0", "T", "1", "T", "1"]),
    ("sinh_4", ["0", "0", "0", "1", "1", "1", "1", "1"]),
    ("tay_4", ["0", "1", "0", "1", "1", "1", "1", "1"]),
    ("extreme", ["0", "0", "0", "0", "1", "1", "1", "1"]),
    ("weighted_sum", ["0", "0", "0", "1", "1", "1", "1", "1"]),
];

/// The paper's per-architecture "Total Feasible" row of Table 2.
pub const PAPER_TABLE2_TOTALS: [usize; 8] = [5, 9, 6, 15, 18, 19, 18, 19];

/// One evaluated cell of the feasibility matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Architecture label (e.g. `"hetero-orth"`).
    pub arch: &'static str,
    /// Context count (mapping II).
    pub contexts: u32,
    /// `"1"`, `"0"` or `"T"`.
    pub symbol: &'static str,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Routing resources used, for feasible cells.
    pub routing_usage: Option<usize>,
    /// Verdict provenance label (`"certified"`, `"unchecked"` or
    /// `"check-failed"`) when the cell ran with certification enabled;
    /// `None` otherwise. See [`cgra_mapper::VerdictProvenance`].
    pub check: Option<&'static str>,
}

/// Mapper selection for [`run_cell`] and [`run_matrix`].
#[derive(Debug, Clone, Copy)]
pub enum WhichMapper {
    /// The exact ILP mapper with these options; [`run_cell`] overrides
    /// only their `time_limit`.
    Ilp(MapperOptions),
    /// The simulated-annealing baseline with "moderate parameters".
    Annealing,
}

impl WhichMapper {
    /// The exact mapper with warm start and the sequential engine — the
    /// configuration every paper experiment defaults to.
    pub fn ilp() -> Self {
        WhichMapper::Ilp(MapperOptions {
            warm_start: true,
            ..MapperOptions::default()
        })
    }
}

/// Runs one benchmark x configuration cell.
pub fn run_cell(
    entry: &BenchmarkEntry,
    config: &PaperConfig,
    mapper: WhichMapper,
    time_limit: Duration,
) -> Cell {
    let dfg = (entry.build)();
    let mrrg = build_mrrg(&config.arch, config.contexts);
    let options = MapperOptions {
        time_limit: Some(time_limit),
        ..match mapper {
            WhichMapper::Ilp(options) => options,
            WhichMapper::Annealing => MapperOptions {
                presolve: false,
                ..MapperOptions::default()
            },
        }
    };
    let report = match mapper {
        WhichMapper::Ilp(_) => IlpMapper::new(options).map(&dfg, &mrrg),
        WhichMapper::Annealing => {
            AnnealingMapper::new(options, AnnealParams::default()).map(&dfg, &mrrg)
        }
    };
    let routing_usage = match &report.outcome {
        MapOutcome::Mapped { routing_usage, .. } => Some(*routing_usage),
        _ => None,
    };
    let check = if options.certify {
        let mrrg1 = if config.contexts == 1 {
            mrrg
        } else {
            build_mrrg(&config.arch, 1)
        };
        Some(verdict_provenance(&dfg, &mrrg1, config.contexts, &report, &options).label())
    } else {
        None
    };
    Cell {
        benchmark: entry.name,
        arch: config.label,
        contexts: config.contexts,
        symbol: report.outcome.table_symbol(),
        elapsed: report.elapsed,
        routing_usage,
        check,
    }
}

/// Runs the full (or filtered) benchmark x architecture matrix with
/// `jobs` worker threads.
///
/// `filter` selects benchmarks by name; an empty filter runs all 19.
/// Cells come back in row-major order; each instance's wall-clock is
/// captured inside [`run_cell`] so a parallel sweep reports
/// per-instance times, not wall-clock shares. `progress` is invoked from
/// worker threads as cells complete (i.e. possibly out of order). With
/// `jobs <= 1` the sweep runs sequentially on the calling thread.
pub fn run_matrix(
    mapper: WhichMapper,
    time_limit: Duration,
    filter: &[String],
    jobs: usize,
    progress: impl Fn(&Cell) + Sync,
) -> Vec<Cell> {
    let configs = paper_configs();
    let mut work: Vec<(&BenchmarkEntry, &PaperConfig)> = Vec::new();
    for entry in benchmarks::all() {
        if !filter.is_empty() && !filter.iter().any(|f| f == entry.name) {
            continue;
        }
        for config in &configs {
            work.push((entry, config));
        }
    }
    cgra_par::par_map(jobs, &work, |&(entry, config)| {
        let cell = run_cell(entry, config, mapper, time_limit);
        progress(&cell);
        cell
    })
}

/// Renders a feasibility matrix in the paper's Table 2 layout, including
/// the "Total Feasible" row.
pub fn render_matrix(cells: &[Cell]) -> String {
    let configs = paper_configs();
    let mut out = String::new();
    out.push_str(&format!("{:<14}", "Benchmark"));
    for c in &configs {
        out.push_str(&format!(" {:>14}", format!("{}/{}", c.label, c.contexts)));
    }
    out.push('\n');
    let mut totals = vec![0usize; configs.len()];
    let mut row_names: Vec<&str> = Vec::new();
    for cell in cells {
        if !row_names.contains(&cell.benchmark) {
            row_names.push(cell.benchmark);
        }
    }
    for name in row_names {
        out.push_str(&format!("{name:<14}"));
        for (ci, c) in configs.iter().enumerate() {
            let cell = cells
                .iter()
                .find(|x| x.benchmark == name && x.arch == c.label && x.contexts == c.contexts);
            match cell {
                Some(cell) => {
                    if cell.symbol == "1" {
                        totals[ci] += 1;
                    }
                    out.push_str(&format!(" {:>14}", cell.symbol));
                }
                None => out.push_str(&format!(" {:>14}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<14}", "Total Feasible"));
    for t in &totals {
        out.push_str(&format!(" {t:>14}"));
    }
    out.push('\n');
    out
}

/// One Table 2 disagreement: `(benchmark, column, paper, measured)`.
pub type Mismatch = (String, String, &'static str, &'static str);

/// Compares measured cells against the paper's Table 2, returning
/// `(agreements, comparisons, mismatches)`.
pub fn compare_to_paper(cells: &[Cell]) -> (usize, usize, Vec<Mismatch>) {
    let configs = paper_configs();
    let mut agree = 0;
    let mut total = 0;
    let mut mismatches = Vec::new();
    for (name, row) in PAPER_TABLE2 {
        for (ci, c) in configs.iter().enumerate() {
            let Some(cell) = cells
                .iter()
                .find(|x| x.benchmark == name && x.arch == c.label && x.contexts == c.contexts)
            else {
                continue;
            };
            total += 1;
            if cell.symbol == row[ci] {
                agree += 1;
            } else {
                mismatches.push((
                    name.to_owned(),
                    format!("{}/{}", c.label, c.contexts),
                    row[ci],
                    cell.symbol,
                ));
            }
        }
    }
    (agree, total, mismatches)
}

/// Summarises the solve-time distribution (the paper's "more than 80% of
/// the runs completed within one hour" statement, scaled to our budget).
pub fn time_summary(cells: &[Cell], budget: Duration) -> String {
    if cells.is_empty() {
        return "no cells".into();
    }
    let mut times: Vec<Duration> = cells.iter().map(|c| c.elapsed).collect();
    times.sort();
    let within = cells.iter().filter(|c| c.symbol != "T").count();
    let med = times[times.len() / 2];
    let max = *times.last().expect("non-empty");
    format!(
        "{}/{} cells decided within the {:.0?} budget ({:.1}%); median {:.2?}, max {:.2?}",
        within,
        cells.len(),
        budget,
        100.0 * within as f64 / cells.len() as f64,
        med,
        max
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals_consistent_with_rows() {
        let mut totals = [0usize; 8];
        for (_, row) in PAPER_TABLE2 {
            for (i, s) in row.iter().enumerate() {
                if *s == "1" {
                    totals[i] += 1;
                }
            }
        }
        assert_eq!(totals, PAPER_TABLE2_TOTALS);
    }

    #[test]
    fn paper_rows_cover_all_benchmarks() {
        let names: Vec<&str> = PAPER_TABLE2.iter().map(|(n, _)| *n).collect();
        for e in cgra_dfg::benchmarks::all() {
            assert!(names.contains(&e.name), "missing row for {}", e.name);
        }
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn run_cell_accum_on_easiest_config() {
        let entry = cgra_dfg::benchmarks::by_name("accum").expect("known");
        let configs = paper_configs();
        let homo_diag_2 = configs
            .iter()
            .find(|c| c.label == "homo-diag" && c.contexts == 2)
            .expect("config exists");
        let cell = run_cell(
            entry,
            homo_diag_2,
            WhichMapper::Ilp(MapperOptions {
                certify: true,
                ..MapperOptions::default()
            }),
            Duration::from_secs(120),
        );
        assert_eq!(cell.symbol, "1");
        assert!(cell.routing_usage.is_some());
        assert_eq!(cell.check, Some("certified"));
    }

    #[test]
    fn render_matrix_contains_totals_row() {
        let cell = Cell {
            benchmark: "accum",
            arch: "hetero-orth",
            contexts: 1,
            symbol: "1",
            elapsed: Duration::from_millis(1),
            routing_usage: Some(10),
            check: None,
        };
        let text = render_matrix(&[cell]);
        assert!(text.contains("Total Feasible"));
        assert!(text.contains("accum"));
    }

    #[test]
    fn compare_detects_mismatch() {
        let cell = Cell {
            benchmark: "accum",
            arch: "hetero-orth",
            contexts: 1,
            symbol: "0", // paper says 1
            elapsed: Duration::from_millis(1),
            routing_usage: None,
            check: None,
        };
        let (agree, total, mismatches) = compare_to_paper(&[cell]);
        assert_eq!((agree, total), (0, 1));
        assert_eq!(mismatches.len(), 1);
        assert_eq!(mismatches[0].2, "1");
        assert_eq!(mismatches[0].3, "0");
    }
}
