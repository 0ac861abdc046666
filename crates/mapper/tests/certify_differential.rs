//! Certification is an observer, never a participant: turning
//! `MapperOptions::certify` on may spend extra time auditing verdicts
//! (proof replay, Hall-witness re-derivation) but must never change a
//! decided verdict of the min-II search — and on the Table 2 smoke set
//! every decided verdict must audit cleanly, with every infeasible II
//! step carrying an independently checked certificate.

use cgra_arch::families::{grid, paper_configs, FuMix, GridParams, Interconnect};
use cgra_mapper::{map_min_ii, MapOutcome, MapperOptions, VerdictProvenance};
use std::time::Duration;

fn options(certify: bool) -> MapperOptions {
    MapperOptions {
        time_limit: Some(Duration::from_secs(60)),
        certify,
        ..MapperOptions::default()
    }
}

/// The Table 2 smoke set on the paper's most constrained architecture
/// (hetero-orth): `accum` maps at II=1; `mult_10` is capacity-infeasible
/// at II=1 (audited by the independent Hall-witness re-derivation) and
/// maps at II=2.
#[test]
fn certify_preserves_smoke_verdicts_and_audits_cleanly() {
    let arch = grid(GridParams::paper(
        FuMix::Heterogeneous,
        Interconnect::Orthogonal,
    ));
    for bench in ["accum", "mult_10"] {
        let dfg = (cgra_dfg::benchmarks::by_name(bench).expect("known").build)();
        let off = map_min_ii(&dfg, &arch, options(false), 2);
        let on = map_min_ii(&dfg, &arch, options(true), 2);

        assert!(
            !on.any_check_failed(),
            "{bench}: certification audit contradicted a verdict"
        );
        assert_eq!(off.min_ii, on.min_ii, "{bench}: min-II changed");
        for at_on in &on.attempts {
            let Some(at_off) = off.attempts.iter().find(|a| a.ii == at_on.ii) else {
                continue;
            };
            let (s_on, s_off) = (
                at_on.report.outcome.table_symbol(),
                at_off.report.outcome.table_symbol(),
            );
            if s_on != "T" && s_off != "T" {
                assert_eq!(s_on, s_off, "{bench} II={}: verdict changed", at_on.ii);
            }
            // Every decided verdict of the certified run audits as
            // certified: mapped by structural validation, infeasible by
            // proof replay or the independent capacity re-derivation.
            if s_on != "T" {
                assert_eq!(
                    at_on.provenance,
                    VerdictProvenance::Certified,
                    "{bench} II={}: decided verdict left unchecked",
                    at_on.ii
                );
            }
        }
    }
}

/// A routing bottleneck the build-stage analyses cannot see: four I/O
/// pads whose only interconnect is a single shared mux, and two
/// independent input->output flows. Operation counts fit (no capacity
/// shortcut) and every source reaches every sink (no unroutable-sink
/// rejection), but both values would have to cross the one-value-per-
/// context bus — so the verdict comes from the *solver*, and with
/// `certify` on it must carry a checker-replayed UNSAT certificate.
fn bottleneck_arch() -> cgra_arch::Architecture {
    let arch = cgra_arch::text::parse(
        "arch bottleneck\n\
         fu p0 ops=input,output latency=0 ii=1\n\
         fu p1 ops=input,output latency=0 ii=1\n\
         fu p2 ops=input,output latency=0 ii=1\n\
         fu p3 ops=input,output latency=0 ii=1\n\
         mux bus inputs=2\n\
         connect p0.out -> bus.in0\n\
         connect p1.out -> bus.in1\n\
         connect bus.out -> p0.in0\n\
         connect bus.out -> p1.in0\n\
         connect bus.out -> p2.in0\n\
         connect bus.out -> p3.in0\n",
    )
    .expect("bottleneck description parses");
    arch.validate().expect("bottleneck architecture is valid");
    arch
}

fn two_flows() -> cgra_dfg::Dfg {
    let mut dfg = cgra_dfg::Dfg::new("two_flows");
    let i0 = dfg.add_op("i0", cgra_dfg::OpKind::Input).unwrap();
    let i1 = dfg.add_op("i1", cgra_dfg::OpKind::Input).unwrap();
    let o0 = dfg.add_op("o0", cgra_dfg::OpKind::Output).unwrap();
    let o1 = dfg.add_op("o1", cgra_dfg::OpKind::Output).unwrap();
    dfg.connect(i0, o0, 0).unwrap();
    dfg.connect(i1, o1, 0).unwrap();
    dfg
}

#[test]
fn solver_level_unsat_carries_replayed_certificate() {
    let arch = bottleneck_arch();
    let dfg = two_flows();

    let off = map_min_ii(&dfg, &arch, options(false), 1);
    let on = map_min_ii(&dfg, &arch, options(true), 1);
    for report in [&off, &on] {
        assert_eq!(report.min_ii, None);
        let attempt = report.attempts.first().expect("one attempt");
        assert!(matches!(
            attempt.report.outcome,
            MapOutcome::Infeasible { reason: None }
        ));
    }
    // Certify off: the UNSAT verdict stands but is unaudited.
    assert_eq!(off.attempts[0].provenance, VerdictProvenance::Unchecked);
    assert!(off.attempts[0].report.certificate.is_none());
    // Certify on: proof-logged solve, replayed by the independent
    // checker on a fresh engine.
    assert_eq!(on.attempts[0].provenance, VerdictProvenance::Certified);
    let cert = on.attempts[0]
        .report
        .certificate
        .as_ref()
        .expect("certificate attached");
    assert!(cert.is_certified(), "expected certified, got {cert:?}");
    assert!(!on.any_check_failed());
}

/// Without `certify`, infeasible verdicts are reported as unchecked —
/// the audit machinery must not run (and must not claim trust it never
/// established).
#[test]
fn uncertified_infeasibility_is_unchecked() {
    let arch = grid(GridParams::paper(
        FuMix::Heterogeneous,
        Interconnect::Orthogonal,
    ));
    let dfg = (cgra_dfg::benchmarks::by_name("mult_10")
        .expect("known")
        .build)();
    let report = map_min_ii(&dfg, &arch, options(false), 1);
    let attempt = report.attempts.first().expect("one attempt");
    assert_eq!(attempt.report.outcome.table_symbol(), "0");
    assert_eq!(attempt.provenance, VerdictProvenance::Unchecked);
}

/// The certified first-incumbent ladder (`objective_stop` at the first
/// mapping, certification on) on two cheap instances: each maps at II=1,
/// its recorded baseline ladder, and no attempt's certificate fails its
/// independent check.
#[test]
fn certified_first_incumbent_ladder_maps_cheap_instances_at_ii_1() {
    let configs = paper_configs();
    for (label, kernel) in [("hetero-diag", "2x2-f"), ("hetero-orth", "accum")] {
        let config = configs
            .iter()
            .find(|c| c.label == label)
            .expect("paper config");
        let dfg = (cgra_dfg::benchmarks::by_name(kernel).expect("known").build)();
        let options = MapperOptions {
            optimize: true,
            certify: true,
            time_limit: Some(Duration::from_secs(20)),
            objective_stop: Some(i64::MAX),
            ..MapperOptions::default()
        };
        let report = map_min_ii(&dfg, &config.arch, options, 2);
        let ladder: Vec<&str> = report
            .attempts
            .iter()
            .map(|a| a.report.outcome.table_symbol())
            .collect();
        assert_eq!(ladder, ["1"], "{label}/{kernel}: per-II verdicts");
        for attempt in &report.attempts {
            let failed = attempt
                .report
                .certificate
                .as_ref()
                .is_some_and(|c| c.is_check_failed());
            assert!(!failed, "{label}/{kernel} II={}: check-failed", attempt.ii);
        }
    }
}
