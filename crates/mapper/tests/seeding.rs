//! Heuristic incumbent seeding end to end: annealer probes on cheap
//! Table 2 cells, run before the one engine's search or racing two,
//! must never change a decided verdict, and must actually publish
//! incumbents — the guard that the probe plumbing stays alive from
//! `MapperOptions::seed_probes` down to the solver at every width.

use bilp::IncumbentSource;
use cgra_arch::families::paper_configs;
use cgra_mapper::{IlpMapper, MapperOptions};
use cgra_mrrg::build_mrrg;
use std::time::Duration;

#[test]
fn seeded_runs_agree_with_unseeded_and_publish_heuristic_incumbents() {
    for threads in [1, 2] {
        seeded_runs_agree(threads);
    }
}

fn seeded_runs_agree(threads: usize) {
    let unseeded = MapperOptions {
        time_limit: Some(Duration::from_secs(5)),
        threads,
        ..MapperOptions::default()
    };
    let seeded = MapperOptions {
        seed_probes: 4,
        ..unseeded
    };
    let mut heuristic_incumbents = 0u64;
    for config in paper_configs().iter().filter(|c| c.label == "homo-diag") {
        let mrrg = build_mrrg(&config.arch, config.contexts);
        for kernel in ["accum", "mac", "add_10"] {
            let dfg = (cgra_dfg::benchmarks::by_name(kernel)
                .expect("known benchmark")
                .build)();
            let base = IlpMapper::new(unseeded).map(&dfg, &mrrg);
            let probed = IlpMapper::new(seeded).map(&dfg, &mrrg);
            let (a, b) = (base.outcome.table_symbol(), probed.outcome.table_symbol());
            assert!(
                a == "T" || b == "T" || a == b,
                "{kernel} on homo-diag/{} at {threads} threads: unseeded {a}, seeded {b}",
                config.contexts
            );
            heuristic_incumbents += probed.solver.probe_incumbents
                + u64::from(probed.solver.incumbent_source == Some(IncumbentSource::Heuristic));
        }
    }
    assert!(
        heuristic_incumbents > 0,
        "no seeded run at {threads} threads published a heuristic incumbent"
    );
}
