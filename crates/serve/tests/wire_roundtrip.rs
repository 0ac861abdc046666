//! Wire-format round-trips and malformed-input rejection.
//!
//! Every report kind the service can emit must survive
//! encode → decode → encode with byte-identical text (the report types
//! deliberately have no `PartialEq`; text equality over the
//! key-order-preserving JSON writer is the stronger check anyway), and
//! every decoder must reject arbitrary mutations of valid documents
//! with a typed error, never a panic — the same seeded-mutation
//! discipline as `crates/dfg/tests/fuzz_parse.rs`.

use bilp::Certificate;
use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
use cgra_dfg::Dfg;
use cgra_mapper::{
    BuildInfeasible, IlpMapper, MapOutcome, MapperOptions, Objective, ObjectiveWeights, Session,
};
use cgra_mrrg::Mrrg;
use cgra_rng::Rng;
use cgra_serve::client::decode_response;
use cgra_serve::json::Json;
use cgra_serve::wire::{
    decode_map_report, decode_min_ii_report, decode_options, encode_certificate, encode_map_report,
    encode_min_ii_report, encode_options, error_response, ok_response, parse_request, ErrorKind,
    RequestBody, Served, WireError,
};
use std::time::Duration;

fn homo_diag() -> cgra_arch::Architecture {
    grid(GridParams::paper(
        FuMix::Homogeneous,
        Interconnect::Diagonal,
    ))
}

fn kernel(name: &str) -> Dfg {
    (cgra_dfg::benchmarks::by_name(name)
        .expect("known kernel")
        .build)()
}

fn quick_options() -> MapperOptions {
    MapperOptions {
        time_limit: Some(Duration::from_secs(60)),
        threads: 1,
        ..MapperOptions::default()
    }
}

/// encode → decode → encode must be a fixed point.
fn assert_map_roundtrip(dfg: &Dfg, mrrg: &Mrrg, report: &cgra_mapper::MapReport) {
    let first = encode_map_report(dfg, mrrg, report);
    let decoded = decode_map_report(dfg, mrrg, &first).expect("own encoding decodes");
    let second = encode_map_report(dfg, mrrg, &decoded);
    assert_eq!(first.to_string(), second.to_string());
}

#[test]
fn mapped_report_roundtrips() {
    let arch = homo_diag();
    let mrrg = cgra_mrrg::build_mrrg(&arch, 1);
    for name in ["accum", "mac", "add_10"] {
        let dfg = kernel(name);
        let report = IlpMapper::new(quick_options()).map(&dfg, &mrrg);
        assert!(
            matches!(report.outcome, MapOutcome::Mapped { .. }),
            "{name} should map at II=1"
        );
        assert_map_roundtrip(&dfg, &mrrg, &report);
    }
}

#[test]
fn synthetic_outcome_and_certificate_variants_roundtrip() {
    // Start from a real report (for genuine formulation/solver stats),
    // then swap in every outcome, infeasibility reason and certificate
    // variant the wire format must carry.
    let arch = homo_diag();
    let mrrg = cgra_mrrg::build_mrrg(&arch, 1);
    let dfg = kernel("accum");
    let base = IlpMapper::new(quick_options()).map(&dfg, &mrrg);

    let reasons = [
        None,
        Some(BuildInfeasible::NoCompatibleSlot {
            op: "n3".to_owned(),
            kind: "mul".parse().expect("mnemonic parses"),
        }),
        Some(BuildInfeasible::CapacityExceeded {
            matched: 19,
            ops: 16,
        }),
        Some(BuildInfeasible::UnroutableSink {
            from: "n1".to_owned(),
            to: "n2".to_owned(),
        }),
    ];
    let certificates = [
        None,
        Some(Certificate::Certified {
            steps: 1234,
            bytes: 56789,
        }),
        Some(Certificate::Unchecked {
            reason: "proof replay budget exhausted".to_owned(),
        }),
        Some(Certificate::CheckFailed {
            detail: "step 17: clause not implied".to_owned(),
        }),
    ];
    for reason in reasons {
        for certificate in &certificates {
            let mut report = base.clone();
            report.outcome = MapOutcome::Infeasible {
                reason: reason.clone(),
            };
            report.infeasible_core = Some(vec![
                "place:n3".to_owned(),
                "route:n1->n3".to_owned(),
                "mux-excl".to_owned(),
            ]);
            report.certificate = certificate.clone();
            assert_map_roundtrip(&dfg, &mrrg, &report);
        }
    }
    let mut timeout = base.clone();
    timeout.outcome = MapOutcome::Timeout;
    timeout.infeasible_core = None;
    timeout.certificate = None;
    assert_map_roundtrip(&dfg, &mrrg, &timeout);
}

#[test]
fn certificate_variants_roundtrip_directly() {
    let variants = [
        Certificate::Certified { steps: 0, bytes: 0 },
        Certificate::Unchecked {
            reason: "time".to_owned(),
        },
        Certificate::CheckFailed {
            detail: "bad step".to_owned(),
        },
    ];
    for c in variants {
        let doc = encode_certificate(&c);
        let decoded = cgra_serve::wire::decode_certificate(&doc).unwrap();
        assert_eq!(doc.to_string(), encode_certificate(&decoded).to_string());
    }
}

#[test]
fn min_ii_report_roundtrips() {
    // extreme: II=1 rejected by the capacity shortcut (an infeasible
    // attempt with a reason), II=2 maps — both attempt shapes in one
    // report, produced cheaply.
    let session = Session::new(
        homo_diag(),
        MapperOptions {
            warm_start: true,
            ..quick_options()
        },
    );
    for name in ["accum", "extreme"] {
        let dfg = kernel(name);
        let report = session.min_ii(&dfg, 2);
        assert_eq!(report.min_ii, Some(if name == "accum" { 1 } else { 2 }));
        let first = encode_min_ii_report(&dfg, &report, |ii| session.mrrg(ii));
        let decoded = decode_min_ii_report(&dfg, &first, |ii| session.mrrg(ii)).expect("decodes");
        let second = encode_min_ii_report(&dfg, &decoded, |ii| session.mrrg(ii));
        assert_eq!(first.to_string(), second.to_string());
    }
}

/// Puts back the presolve counters of the clique and probing passes
/// (`cliques`, `probed_vars`, `failed_literals`) into every `presolve`
/// object of `doc`, after `strengthened`, where reports encoded before
/// those passes were removed carry them, as cache segments still hold
/// them.
fn with_retired_presolve_counters(doc: &Json) -> Json {
    match doc {
        Json::Object(members) => Json::Object(
            members
                .iter()
                .map(|(key, v)| {
                    let mut v = with_retired_presolve_counters(v);
                    if key == "presolve" {
                        let Json::Object(counters) = &mut v else {
                            panic!("`presolve` is an object");
                        };
                        let at = 1 + counters
                            .iter()
                            .position(|(k, _)| k == "strengthened")
                            .expect("presolve counters name `strengthened`");
                        let retired =
                            [("cliques", 2), ("probed_vars", 512), ("failed_literals", 3)];
                        counters.splice(at..at, retired.map(|(k, n)| (k.to_owned(), Json::Int(n))));
                    }
                    (key.clone(), v)
                })
                .collect(),
        ),
        Json::Array(items) => {
            Json::Array(items.iter().map(with_retired_presolve_counters).collect())
        }
        other => other.clone(),
    }
}

#[test]
fn reports_with_retired_presolve_counters_still_decode() {
    let arch = homo_diag();
    let mrrg = cgra_mrrg::build_mrrg(&arch, 1);
    let dfg = kernel("accum");
    let current = encode_map_report(
        &dfg,
        &mrrg,
        &IlpMapper::new(quick_options()).map(&dfg, &mrrg),
    );
    let old = with_retired_presolve_counters(&current);
    assert!(old
        .to_string()
        .contains("\"cliques\":2,\"probed_vars\":512,"));
    let from_old = decode_map_report(&dfg, &mrrg, &old).expect("an old map report decodes");
    let from_current = decode_map_report(&dfg, &mrrg, &current).expect("decodes");
    assert_eq!(from_old.solver.presolve, from_current.solver.presolve);
    assert_eq!(
        encode_map_report(&dfg, &mrrg, &from_old).to_string(),
        current.to_string()
    );

    let session = Session::new(arch, quick_options());
    let current = encode_min_ii_report(&dfg, &session.min_ii(&dfg, 2), |ii| session.mrrg(ii));
    let old = with_retired_presolve_counters(&current);
    let from_old = decode_min_ii_report(&dfg, &old, |ii| session.mrrg(ii))
        .expect("an old min-II report decodes");
    let from_current =
        decode_min_ii_report(&dfg, &current, |ii| session.mrrg(ii)).expect("decodes");
    assert_eq!(from_old.totals.presolve, from_current.totals.presolve);
    for (a, b) in from_old.attempts.iter().zip(&from_current.attempts) {
        assert_eq!(a.report.solver.presolve, b.report.solver.presolve);
    }
    assert_eq!(
        encode_min_ii_report(&dfg, &from_old, |ii| session.mrrg(ii)).to_string(),
        current.to_string()
    );
}

#[test]
fn options_roundtrip_every_field() {
    let full = MapperOptions {
        time_limit: Some(Duration::from_micros(123_456_789)),
        optimize: true,
        objective: Objective::Weighted(ObjectiveWeights {
            wire: 1,
            mux: 5,
            register: 3,
        }),
        commutativity: false,
        mux_exclusivity: false,
        redundant_capacity: false,
        seed: 0xDEAD_BEEF,
        warm_start: true,
        threads: 3,
        presolve: false,
        reach_reduction: false,
        conflict_limit: Some(10_000),
        objective_stop: Some(-7),
        explain_infeasible: true,
        certify: true,
        mem_limit: Some(1 << 20),
        build_jobs: 4,
        seed_probes: 6,
    };
    // Seeds from 2^63 up travel as negative integers and must come back.
    let high_seeds = [1 << 63, u64::MAX].map(|seed| MapperOptions { seed, ..full });
    for options in [MapperOptions::default(), full]
        .into_iter()
        .chain(high_seeds)
    {
        let doc = encode_options(&options);
        let decoded = decode_options(Some(&doc)).expect("own encoding decodes");
        assert_eq!(doc.to_string(), encode_options(&decoded).to_string());
        assert_eq!(decoded.seed, options.seed);
        // The content-address fingerprint must survive the trip too —
        // otherwise a client echoing options back would miss the cache.
        assert_eq!(
            cgra_serve::cache::options_fingerprint(&options),
            cgra_serve::cache::options_fingerprint(&decoded),
        );
    }
    // And an absent options block means defaults.
    let defaulted = decode_options(None).unwrap();
    assert_eq!(
        cgra_serve::cache::options_fingerprint(&MapperOptions::default()),
        cgra_serve::cache::options_fingerprint(&defaulted),
    );
}

fn decode_options_text(text: &str) -> Result<MapperOptions, WireError> {
    decode_options(Some(&Json::parse(text).expect("test input is JSON")))
}

#[test]
fn seed_decodes_as_twos_complement() {
    assert_eq!(decode_options_text("{\"seed\":-1}").unwrap().seed, u64::MAX);
    assert_eq!(
        decode_options_text("{\"seed\":-9223372036854775808}")
            .unwrap()
            .seed,
        1 << 63
    );
    for bad in ["null", "\"7\"", "1.5", "18446744073709551615"] {
        let err = decode_options_text(&format!("{{\"seed\":{bad}}}")).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Request, "{bad}");
        assert_eq!(err.detail, "`seed` must be an integer", "{bad}");
    }
}

#[test]
fn objective_weights_must_be_integers() {
    for (text, weight) in [
        ("{\"wire\":\"x\",\"mux\":2.5}", "wire"),
        ("{\"mux\":2.5}", "mux"),
        ("{\"register\":null}", "register"),
        ("{\"wire\":1,\"mux\":2,\"register\":true}", "register"),
        ("{\"wire\":[1]}", "wire"),
    ] {
        let err = decode_options_text(&format!("{{\"objective\":{text}}}")).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Request, "{text}");
        assert_eq!(
            err.detail,
            format!("`objective.{weight}` must be an integer"),
            "{text}"
        );
    }
    // Absent weights take the defaults; present ones are kept.
    let d = ObjectiveWeights::default();
    let decoded = decode_options_text("{\"objective\":{\"mux\":-4}}").unwrap();
    assert_eq!(
        decoded.objective,
        Objective::Weighted(ObjectiveWeights { mux: -4, ..d })
    );
    let decoded = decode_options_text("{\"objective\":{}}").unwrap();
    assert_eq!(decoded.objective, Objective::Weighted(d));
}

#[test]
fn retired_incremental_option_is_ignored() {
    // `incremental` chose a solve path the mapper no longer has, and
    // `anneal_fallback` and `probe_budget_us` tuned annealer entries that
    // are gone. Clients that still send them must get an answer, from
    // the same cache entry.
    let dfg = cgra_dfg::text::print(&kernel("accum"));
    let arch = cgra_arch::text::print(&homo_diag());
    let d = cgra_serve::json::s(&dfg).to_string();
    let a = cgra_serve::json::s(&arch).to_string();
    let key = |extra: &str| {
        let line = format!(
            "{{\"id\":\"r\",\"cmd\":\"map\",\"dfg\":{d},\"arch\":{a},\"ii\":1,\
             \"options\":{{\"optimize\":true{extra}}}}}"
        );
        let RequestBody::Map {
            dfg,
            arch,
            ii,
            options,
        } = parse_request(&line).expect("request decodes").body
        else {
            panic!("a map request");
        };
        let dfg_hash = cgra_dfg::text::parse(&dfg).expect("dfg").content_hash();
        let arch_hash = cgra_arch::text::parse(&arch).expect("arch").content_hash();
        cgra_serve::cache::request_key("map", dfg_hash, arch_hash, ii, &options)
    };
    for retired in [
        ",\"incremental\":false",
        ",\"anneal_fallback\":true",
        ",\"probe_budget_us\":750000",
    ] {
        assert_eq!(key(retired), key(""), "{retired}");
    }
}

// ---------------------------------------------------------------------
// Malformed-input rejection (seeded fuzz, same recipe as the DFG
// parser's `fuzz_parse.rs`)
// ---------------------------------------------------------------------

/// Applies 1..=8 random byte-level edits: flips, insertions, deletions,
/// chunk splices from elsewhere in the input, and truncations.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    for _ in 0..=rng.below(7) {
        if bytes.is_empty() {
            bytes.push(rng.below(256) as u8);
            continue;
        }
        match rng.below(5) {
            0 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.below(256) as u8;
            }
            1 => {
                let i = rng.gen_range(0..bytes.len() + 1);
                bytes.insert(i, rng.below(256) as u8);
            }
            2 => {
                let i = rng.gen_range(0..bytes.len());
                bytes.remove(i);
            }
            3 => {
                let src = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1..(bytes.len() - src).min(16) + 1);
                let chunk: Vec<u8> = bytes[src..src + len].to_vec();
                let dst = rng.gen_range(0..bytes.len() + 1);
                for (k, b) in chunk.into_iter().enumerate() {
                    bytes.insert(dst + k, b);
                }
            }
            _ => {
                let keep = rng.gen_range(0..bytes.len());
                bytes.truncate(keep);
            }
        }
    }
}

fn request_corpus() -> Vec<String> {
    let dfg = cgra_dfg::text::print(&kernel("accum"));
    let arch = cgra_arch::text::print(&homo_diag());
    let d = cgra_serve::json::s(&dfg).to_string();
    let a = cgra_serve::json::s(&arch).to_string();
    vec![
        format!("{{\"id\":\"r1\",\"cmd\":\"map\",\"dfg\":{d},\"arch\":{a},\"ii\":1}}"),
        format!(
            "{{\"id\":\"r2\",\"cmd\":\"map\",\"dfg\":{d},\"arch\":{a},\"ii\":4,\"options\":{}}}",
            Json::to_string(&encode_options(&MapperOptions::default()))
        ),
        format!("{{\"id\":\"r3\",\"cmd\":\"min_ii\",\"dfg\":{d},\"arch\":{a},\"max_ii\":8}}"),
        "{\"id\":\"r4\",\"cmd\":\"stats\"}".to_owned(),
        "{\"id\":\"r5\",\"cmd\":\"shutdown\"}".to_owned(),
    ]
}

#[test]
fn mutated_requests_never_panic() {
    let corpus = request_corpus();
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x5E12_E001 + seed);
        for original in &corpus {
            let mut bytes = original.clone().into_bytes();
            mutate(&mut bytes, &mut rng);
            let garbled = String::from_utf8_lossy(&bytes);
            // A request or a typed error — never a panic.
            let _ = parse_request(&garbled);
        }
    }
}

#[test]
fn mutated_responses_never_panic() {
    let arch = homo_diag();
    let mrrg = cgra_mrrg::build_mrrg(&arch, 1);
    let dfg = kernel("accum");
    let report = IlpMapper::new(quick_options()).map(&dfg, &mrrg);
    let served = Served {
        cache_hit: false,
        mrrg_warm: true,
        coalesced: false,
        wait: Duration::from_micros(12),
        solve: Duration::from_micros(3400),
    };
    let corpus = vec![
        ok_response(
            "r1",
            &encode_map_report(&dfg, &mrrg, &report).to_string(),
            Some(&served),
        ),
        error_response(
            Some("r2"),
            &WireError::new(ErrorKind::Overloaded, "queue full"),
        ),
        error_response(None, &WireError::new(ErrorKind::Parse, "bad json")),
    ];
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x5E12_E002 + seed);
        for original in &corpus {
            let mut bytes = original.clone().into_bytes();
            mutate(&mut bytes, &mut rng);
            let garbled = String::from_utf8_lossy(&bytes);
            let _ = decode_response(&garbled);
        }
    }
}

#[test]
fn mutated_report_documents_never_panic() {
    let arch = homo_diag();
    let mrrg = cgra_mrrg::build_mrrg(&arch, 1);
    let dfg = kernel("accum");
    let map_doc = encode_map_report(
        &dfg,
        &mrrg,
        &IlpMapper::new(quick_options()).map(&dfg, &mrrg),
    )
    .to_string();
    let session = Session::new(arch.clone(), quick_options());
    let min_ii_doc =
        encode_min_ii_report(&dfg, &session.min_ii(&dfg, 2), |ii| session.mrrg(ii)).to_string();
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x5E12_E003 + seed);
        for original in [&map_doc, &min_ii_doc] {
            let mut bytes = original.clone().into_bytes();
            mutate(&mut bytes, &mut rng);
            let garbled = String::from_utf8_lossy(&bytes);
            // Mutations that stay valid JSON exercise the structural
            // decoders; either way, a typed error is the worst allowed
            // outcome.
            if let Ok(doc) = Json::parse(&garbled) {
                let _ = decode_map_report(&dfg, &mrrg, &doc);
                let _ = decode_min_ii_report(&dfg, &doc, |ii| session.mrrg(ii));
                let _ = Served::decode(&doc);
                let _ = cgra_serve::wire::decode_certificate(&doc);
                let _ = decode_options(Some(&doc));
            }
        }
    }
}

#[test]
fn pure_garbage_is_rejected_not_crashed() {
    let mut rng = Rng::seed_from_u64(0x5E12_6A5B);
    for _ in 0..512 {
        let len = rng.gen_range(0..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let garbled = String::from_utf8_lossy(&bytes);
        assert!(
            parse_request(&garbled).is_err(),
            "random bytes parsed as a request: {garbled:?}"
        );
        let _ = decode_response(&garbled);
    }
}
