//! Presolve shares the solver's deadline, so a short `time_limit` can
//! expire in the middle of a presolve pass. Whatever pass it stops, the
//! mapper must return a verdict (usually a timeout), never panic, and any
//! mapping it does return must validate.

use cgra_arch::families::paper_configs;
use cgra_mapper::{validate_mapping, IlpMapper, MapOutcome, MapperOptions};
use cgra_mrrg::build_mrrg;
use std::time::Duration;

#[test]
fn short_time_limits_never_panic() {
    for kernel in ["accum", "mac"] {
        let dfg = (cgra_dfg::benchmarks::by_name(kernel)
            .expect("paper kernel")
            .build)();
        for config in paper_configs() {
            let mrrg = build_mrrg(&config.arch, config.contexts);
            for ms in [5, 10, 20, 40, 80] {
                let report = IlpMapper::new(MapperOptions {
                    time_limit: Some(Duration::from_millis(ms)),
                    threads: 1,
                    ..MapperOptions::default()
                })
                .map(&dfg, &mrrg);
                if let MapOutcome::Mapped { mapping, .. } = &report.outcome {
                    assert_eq!(
                        validate_mapping(&dfg, &mrrg, mapping),
                        Ok(()),
                        "{kernel} on {} x{} at {ms} ms",
                        config.label,
                        config.contexts
                    );
                }
            }
        }
    }
}
