//! Differential soundness for the MRRG reachability reduction and the
//! solver presolve at the mapper level: across a spread of benchmarks and
//! architectures, mapping with reduction + presolve enabled must reach
//! exactly the same feasible/infeasible verdicts as the unreduced path,
//! while building a formulation that is no larger — and on real instances
//! strictly smaller.

use cgra_arch::families::{grid, paper_configs, FuMix, GridParams, Interconnect};
use cgra_dfg::{Dfg, OpKind};
use cgra_mapper::{Formulation, IlpMapper, MapperOptions};
use cgra_mrrg::build_mrrg;
use std::time::Duration;

fn small_arch() -> cgra_arch::Architecture {
    grid(GridParams {
        rows: 2,
        cols: 2,
        fu_mix: FuMix::Homogeneous,
        interconnect: Interconnect::Orthogonal,
        io_pads: true,
        memory_ports: true,
        toroidal: false,
        alu_latency: 0,
        bypass_channel: false,
    })
}

fn diamond() -> Dfg {
    let mut g = Dfg::new("fan");
    let a = g.add_op("a", OpKind::Input).unwrap();
    let b = g.add_op("b", OpKind::Input).unwrap();
    let s1 = g.add_op("s1", OpKind::Add).unwrap();
    let s2 = g.add_op("s2", OpKind::Add).unwrap();
    let s3 = g.add_op("s3", OpKind::Add).unwrap();
    let o = g.add_op("o", OpKind::Output).unwrap();
    g.connect(a, s1, 0).unwrap();
    g.connect(b, s1, 1).unwrap();
    g.connect(a, s2, 0).unwrap();
    g.connect(b, s2, 1).unwrap();
    g.connect(s1, s3, 0).unwrap();
    g.connect(s2, s3, 1).unwrap();
    g.connect(s3, o, 0).unwrap();
    g
}

fn verdicts_match(dfg: &Dfg, mrrg: &cgra_mrrg::Mrrg, limit: Duration, label: &str) {
    let base = MapperOptions {
        time_limit: Some(limit),
        ..MapperOptions::default()
    };
    let raw = IlpMapper::new(MapperOptions {
        presolve: false,
        reach_reduction: false,
        ..base
    })
    .map(dfg, mrrg);
    let reduced = IlpMapper::new(MapperOptions {
        presolve: true,
        reach_reduction: true,
        ..base
    })
    .map(dfg, mrrg);
    // A timeout is not a verdict: if only the textbook formulation times
    // out that is the gap the reduction exists to open, and there is
    // nothing to compare; if only the *reduced* path times out, the
    // reduction made the instance harder — fail. Decided verdicts must
    // agree exactly.
    let (r, d) = (raw.outcome.table_symbol(), reduced.outcome.table_symbol());
    if r == "T" && d != "T" {
        eprintln!(
            "[{label}] unreduced formulation timed out; reduced verdict {}",
            reduced.outcome
        );
        return;
    }
    assert_eq!(
        r, d,
        "[{label}] raw {} vs reduced {}",
        raw.outcome, reduced.outcome
    );
}

#[test]
fn reduction_preserves_verdicts_on_small_instances() {
    let arch = small_arch();
    for contexts in [1u32, 2] {
        let mrrg = build_mrrg(&arch, contexts);
        verdicts_match(
            &diamond(),
            &mrrg,
            Duration::from_secs(60),
            &format!("diamond@{contexts}"),
        );
    }
}

#[test]
fn reduction_preserves_verdicts_on_paper_benchmarks() {
    // A feasible, an infeasible, and a tight-capacity benchmark on two
    // paper architectures each — the verdict classes Table 2 reports.
    let configs = paper_configs();
    for (bench, arch_label, contexts, limit) in [
        ("accum", "hetero-orth", 1u32, 60u64),
        ("accum", "homo-diag", 2, 60),
        ("mac", "hetero-orth", 1, 60),
        // Infeasible at II=1 and hard to refute either way — both paths
        // time out, which must still count as agreement.
        ("cos_4", "homo-diag", 1, 15),
        ("mult_10", "hetero-diag", 1, 60), // capacity-infeasible at build
    ] {
        let config = configs
            .iter()
            .find(|c| c.label == arch_label && c.contexts == contexts)
            .expect("paper config exists");
        let dfg = (cgra_dfg::benchmarks::by_name(bench).expect("known").build)();
        let mrrg = build_mrrg(&config.arch, config.contexts);
        verdicts_match(
            &dfg,
            &mrrg,
            Duration::from_secs(limit),
            &format!("{bench}/{arch_label}/{contexts}"),
        );
    }
}

#[test]
fn reduction_shrinks_the_formulation() {
    // On a paper-sized array the reachability reduction must strictly
    // shrink the formulation relative to the textbook all-candidates
    // encoding, and the combined reach + presolve pipeline must deliver
    // the headline ≥ 25% (vars + constraints) reduction; correctness of
    // the shrunken model is covered by the verdict tests above.
    let configs = paper_configs();
    let config = configs
        .iter()
        .find(|c| c.label == "hetero-orth" && c.contexts == 1)
        .expect("paper config exists");
    let dfg = cgra_dfg::benchmarks::accum();
    let mrrg = build_mrrg(&config.arch, 1);
    let off = Formulation::build(
        &dfg,
        &mrrg,
        MapperOptions {
            reach_reduction: false,
            ..MapperOptions::default()
        },
    )
    .expect("builds");
    let on = Formulation::build(&dfg, &mrrg, MapperOptions::default()).expect("builds");
    let (off_stats, on_stats) = (off.stats(), on.stats());
    let total = |s: &cgra_mapper::FormulationStats| {
        s.f_vars + s.r_vars + s.rs_vars + s.swap_vars + s.constraints
    };
    assert!(on_stats.reach_rounds >= 1);
    assert_eq!(off_stats.reach_rounds, 0);
    assert!(
        total(&on_stats) < total(&off_stats),
        "reduction should shrink the model: {on_stats:?} !< {off_stats:?}"
    );

    // The acceptance bar: reach + presolve vs the unreduced model.
    let raw_size = off.model().num_vars() + off.model().constraints().len();
    let presolved_size = match bilp::presolve(on.model(), None) {
        bilp::Presolved::Reduced { stats, .. } => {
            (stats.vars_after + stats.constraints_after) as usize
        }
        bilp::Presolved::Infeasible { .. } => panic!("accum maps on hetero-orth"),
    };
    assert!(
        (presolved_size as f64) <= 0.75 * raw_size as f64,
        "reach + presolve should cut ≥ 25%: {presolved_size} vs raw {raw_size}"
    );
}
