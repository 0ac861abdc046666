//! `MapperOptions::time_limit` bounds a whole mapping attempt: presolve,
//! the feasibility solve and the optimising descent share one deadline,
//! so an attempt that finds a mapping late cannot restart the clock for
//! its descent. Each cell below usually maps within the limit, some of
//! them late in it, and then runs its descent into the deadline.

use cgra_arch::families::paper_configs;
use cgra_mapper::{IlpMapper, MapperOptions};
use cgra_mrrg::build_mrrg;
use std::time::{Duration, Instant};

const LIMIT: Duration = Duration::from_secs(1);

#[test]
fn optimising_attempts_end_near_the_time_limit() {
    let configs = paper_configs();
    for (kernel, label, ii) in [
        ("exp_4", "homo-diag", 2),
        ("add_10", "hetero-diag", 1),
        ("2x2-f", "homo-orth", 2),
        ("accum", "homo-diag", 1),
        ("2x2-f", "homo-diag", 1),
    ] {
        let dfg = (cgra_dfg::benchmarks::by_name(kernel)
            .expect("paper kernel")
            .build)();
        let config = configs
            .iter()
            .find(|c| c.label == label && c.contexts == ii)
            .expect("paper column");
        let mrrg = build_mrrg(&config.arch, ii);
        let mapper = IlpMapper::new(MapperOptions {
            optimize: true,
            threads: 1,
            time_limit: Some(LIMIT),
            ..MapperOptions::default()
        });
        let started = Instant::now();
        let report = mapper.map(&dfg, &mrrg);
        let elapsed = started.elapsed();
        assert!(
            elapsed <= LIMIT.mul_f64(1.3),
            "{kernel} on {label} at II {ii}: {} after {elapsed:?} under a {LIMIT:?} limit",
            report.outcome
        );
    }
}
