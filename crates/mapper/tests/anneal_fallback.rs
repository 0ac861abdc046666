//! The annealer reaches the exact mapper only as a probe
//! (`MapperOptions::warm_start` / `seed_probes`): each mapping it finds
//! is a candidate incumbent that the solver validates before use. That
//! candidate is the annealing fallback: an exact search that runs out
//! of budget still returns the validated probe mapping. These tests pin
//! it, and its limits: a probe that finds nothing leaves an honest `T`
//! within the attempt's time limit, a build-stage refutation never
//! starts the annealer, and an interrupt ends the probe's window at
//! once.
//!
//! A tiny `conflict_limit` makes the exact search exhaust its budget
//! deterministically (wall-clock limits would race the machine), while
//! the time limit sets the probe's window to 45% of it.

use bilp::IncumbentSource;
use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
use cgra_dfg::benchmarks;
use cgra_mapper::{map_min_ii, IlpMapper, MapOutcome, MapperOptions, VerdictProvenance};
use cgra_mrrg::build_mrrg;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn options(warm_start: bool, time_limit: Duration) -> MapperOptions {
    MapperOptions {
        time_limit: Some(time_limit),
        conflict_limit: Some(10),
        warm_start,
        threads: 1,
        ..MapperOptions::default()
    }
}

fn bench(name: &str) -> cgra_dfg::Dfg {
    (benchmarks::by_name(name).expect("known benchmark").build)()
}

fn paper_hetero_orth() -> cgra_arch::Architecture {
    grid(GridParams::paper(
        FuMix::Heterogeneous,
        Interconnect::Orthogonal,
    ))
}

#[test]
fn timeout_upgrades_to_validated_heuristic_mapping() {
    // accum maps on hetero-orth at II=1 but needs far more than 10
    // conflicts, so the exact search alone times out; the probe
    // legalises the 9-op kernel well inside its 2.25 s window.
    let arch = paper_hetero_orth();
    let dfg = bench("accum");
    let limit = Duration::from_secs(5);
    let report = map_min_ii(&dfg, &arch, options(true, limit), 1);

    assert_eq!(report.min_ii, Some(1), "the probe should decide the cell");
    let attempt = &report.attempts[0];
    assert!(matches!(attempt.report.outcome, MapOutcome::Mapped { .. }));
    assert_eq!(
        attempt.report.solver.incumbent_source,
        Some(IncumbentSource::Heuristic),
        "the mapping must be credited to the probe"
    );
    // Probe mappings pass the same structural validation as solver
    // ones, so the verdict is Certified, not Unchecked.
    assert_eq!(attempt.provenance, VerdictProvenance::Certified);

    // Same budget without the probe: the cell stays a timeout.
    let report = map_min_ii(&dfg, &arch, options(false, limit), 1);
    assert_eq!(report.min_ii, None);
    let attempt = &report.attempts[0];
    assert!(matches!(attempt.report.outcome, MapOutcome::Timeout));
    assert_eq!(attempt.report.solver.incumbent_source, None);
    assert_eq!(attempt.provenance, VerdictProvenance::Unchecked);
}

#[test]
fn failed_heuristic_leaves_the_timeout_honest() {
    // exp_4 on hetero-orth/II=1 defeats both: the exact search exhausts
    // its conflict budget and the annealer cannot legalise the kernel in
    // its window. The cell stays a `T`, and nothing anneals past the
    // attempt's time limit.
    let limit = Duration::from_secs(3);
    let report = map_min_ii(
        &bench("exp_4"),
        &paper_hetero_orth(),
        options(true, limit),
        1,
    );
    assert_eq!(report.min_ii, None);
    let attempt = &report.attempts[0];
    assert!(matches!(attempt.report.outcome, MapOutcome::Timeout));
    assert_eq!(attempt.report.solver.probe_workers, 1, "the probe ran");
    assert_eq!(attempt.report.solver.probe_incumbents, 0);
    assert_eq!(attempt.provenance, VerdictProvenance::Unchecked);
    assert!(
        report.totals.elapsed <= limit + Duration::from_millis(100),
        "search took {:?} under a {limit:?} limit",
        report.totals.elapsed
    );
}

#[test]
fn fallback_never_runs_on_a_build_stage_refutation() {
    // cos_4 is rejected at build stage on hetero-orth/II=1 (capacity).
    // No solver runs, so neither does its probe: a proven `0` is never
    // second-guessed by a heuristic that could not map it anyway.
    let limit = Duration::from_secs(5);
    let report = map_min_ii(
        &bench("cos_4"),
        &paper_hetero_orth(),
        options(true, limit),
        1,
    );
    assert_eq!(report.min_ii, None, "cos_4 must not map at II=1");
    let attempt = &report.attempts[0];
    assert!(matches!(
        attempt.report.outcome,
        MapOutcome::Infeasible { .. }
    ));
    assert_eq!(attempt.report.solver.probe_workers, 0, "the annealer ran");
}

#[test]
fn interrupt_ends_the_probe_window() {
    // add_14 on homo-diag/II=1 is a cell the annealer does not map in
    // 10 s, so a 60 s attempt would anneal for its whole 27 s window.
    // An interrupt 200 ms in must end the attempt at once.
    let arch = grid(GridParams::paper(
        FuMix::Homogeneous,
        Interconnect::Diagonal,
    ));
    let mrrg = build_mrrg(&arch, 1);
    let dfg = bench("add_14");
    let flag = Arc::new(AtomicBool::new(false));
    let canceller = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            flag.store(true, Ordering::SeqCst);
            Instant::now()
        })
    };
    let mapper = IlpMapper::new(MapperOptions {
        time_limit: Some(Duration::from_secs(60)),
        warm_start: true,
        threads: 1,
        ..MapperOptions::default()
    })
    .with_interrupt(flag);
    let report = mapper.map(&dfg, &mrrg);
    let returned = Instant::now();
    let fired = canceller.join().expect("canceller");
    assert_eq!(report.outcome, MapOutcome::Timeout);
    assert!(
        returned.duration_since(fired) < Duration::from_secs(1),
        "the attempt ran {:?} past its interrupt",
        returned.duration_since(fired)
    );
}
