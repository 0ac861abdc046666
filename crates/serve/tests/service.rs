//! End-to-end service behaviour: the differential correctness test,
//! cache-hit semantics, admission control and graceful shutdown.

use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
use cgra_mapper::{IlpMapper, MapperOptions};
use cgra_serve::client::Client;
use cgra_serve::json::{obj, Json};
use cgra_serve::server;
use cgra_serve::service::{Service, ServiceConfig};
use cgra_serve::wire::encode_map_report;
use cgra_serve::ErrorKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn homo_diag_arch_text() -> String {
    cgra_arch::text::print(&grid(GridParams::paper(
        FuMix::Homogeneous,
        Interconnect::Diagonal,
    )))
}

fn kernel_text(name: &str) -> String {
    cgra_dfg::text::print(&(cgra_dfg::benchmarks::by_name(name)
        .expect("known kernel")
        .build)())
}

fn options_json() -> Json {
    obj(vec![
        ("time_limit_us", Json::Int(60_000_000)),
        ("threads", Json::Int(1)),
    ])
}

/// Zeroes every wall-clock field, recursively: two runs of the same
/// deterministic solve differ only in timing.
fn normalize_times(doc: &mut Json) {
    match doc {
        Json::Object(pairs) => {
            for (key, value) in pairs {
                if key.ends_with("_us") {
                    *value = Json::Int(0);
                } else {
                    normalize_times(value);
                }
            }
        }
        Json::Array(items) => items.iter_mut().for_each(normalize_times),
        _ => {}
    }
}

/// The differential test: N identical + M distinct concurrent requests
/// through the full TCP stack must produce reports identical to direct
/// in-process mapper calls, and the identical requests must collapse
/// onto one cache entry replayed byte-for-byte.
#[test]
fn differential_against_direct_mapper() {
    let service = Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let (addr, accept) = server::spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = addr.to_string();

    let arch_text = homo_diag_arch_text();
    // Seed the cache with one solve of the kernel the identical batch
    // will repeat, so the batch exercises concurrent cache *replay*
    // (concurrent first-time misses each solve independently and agree
    // only modulo timing — the byte-identical guarantee is the cache's).
    let warmup = {
        let mut client = Client::connect(&addr).expect("connect");
        let response = client
            .map(&kernel_text("accum"), &arch_text, 1, Some(options_json()))
            .expect("warm-up map succeeds");
        assert!(!response.served.as_ref().unwrap().cache_hit);
        response.result_text
    };

    // 4 identical + 3 distinct, interleaved, all submitted concurrently.
    let identical = ["accum"; 4];
    let distinct = ["mac", "add_10", "2x2-f"];
    let submissions: Vec<&str> = identical.iter().chain(distinct.iter()).copied().collect();

    let responses: Vec<(String, String, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = submissions
            .iter()
            .map(|name| {
                let addr = addr.clone();
                let arch_text = arch_text.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let response = client
                        .map(&kernel_text(name), &arch_text, 1, Some(options_json()))
                        .expect("map request succeeds");
                    (
                        name.to_string(),
                        response.result_text,
                        response.served.expect("served stats").cache_hit,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Identical requests: all cache hits, every report byte-identical
    // to the seeded solve.
    let accum_responses: Vec<_> = responses
        .iter()
        .filter(|(name, ..)| name == "accum")
        .collect();
    assert_eq!(accum_responses.len(), 4);
    for (_, text, hit) in &accum_responses {
        assert!(*hit, "repeat of a cached request must be a cache hit");
        assert_eq!(
            text, &warmup,
            "cached replay must be byte-identical to the original report"
        );
    }

    // Every distinct response must match a direct mapper call modulo
    // wall-clock fields (the sequential solver is deterministic).
    let arch = cgra_arch::text::parse(&arch_text).unwrap();
    let options = MapperOptions {
        time_limit: Some(Duration::from_secs(60)),
        ..MapperOptions::default()
    };
    let mrrg = cgra_mrrg::build_mrrg(&arch, 1);
    for name in submissions
        .iter()
        .collect::<std::collections::BTreeSet<_>>()
    {
        let dfg = cgra_dfg::text::parse(&kernel_text(name)).unwrap();
        let direct = IlpMapper::new(options).map(&dfg, &mrrg);
        let mut expected = encode_map_report(&dfg, &mrrg, &direct);
        normalize_times(&mut expected);
        let (_, served_text, _) = responses
            .iter()
            .find(|(n, ..)| n == *name)
            .expect("every submission answered");
        let mut served_doc = Json::parse(served_text).unwrap();
        normalize_times(&mut served_doc);
        assert_eq!(
            served_doc.to_string(),
            expected.to_string(),
            "service and direct mapper disagree on `{name}`"
        );
    }

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    accept.join().unwrap();
    service.join_workers();
}

#[test]
fn repeat_hits_cache_with_near_zero_solve_time() {
    let service = Service::start(ServiceConfig::default());
    let dfg = kernel_text("accum");
    let arch = homo_diag_arch_text();
    let line = |id: &str| {
        format!(
            "{{\"id\":\"{id}\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1}}",
            cgra_serve::json::s(&dfg),
            cgra_serve::json::s(&arch),
        )
    };
    let first = cgra_serve::client::decode_response(&service.handle(&line("a"))).unwrap();
    let second = cgra_serve::client::decode_response(&service.handle(&line("b"))).unwrap();
    let first_served = first.served.unwrap();
    let second_served = second.served.unwrap();
    assert!(!first_served.cache_hit);
    assert!(second_served.cache_hit);
    assert_eq!(first.result_text, second.result_text);
    assert!(
        second_served.solve < Duration::from_millis(50),
        "cache hit should have near-zero solve time, got {:?}",
        second_served.solve
    );
    assert!(second_served.solve < first_served.solve);

    // Third request with *different options* must not hit the first
    // entry — content addressing covers the options fingerprint.
    let third = cgra_serve::client::decode_response(&service.handle(&format!(
        "{{\"id\":\"c\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1,\"options\":{{\"seed\":7}}}}",
        cgra_serve::json::s(&dfg),
        cgra_serve::json::s(&arch),
    )))
    .unwrap();
    assert!(!third.served.unwrap().cache_hit);

    service.initiate_shutdown();
    service.join_workers();
}

#[test]
fn warm_mrrg_is_reported_for_new_kernel_on_known_arch() {
    let service = Service::start(ServiceConfig::default());
    let arch = homo_diag_arch_text();
    let submit = |id: &str, kernel: &str| {
        let line = format!(
            "{{\"id\":\"{id}\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1}}",
            cgra_serve::json::s(kernel_text(kernel)),
            cgra_serve::json::s(&arch),
        );
        cgra_serve::client::decode_response(&service.handle(&line)).unwrap()
    };
    let first = submit("a", "accum");
    // Different kernel, same fabric: a cache miss, but the session's
    // II=1 MRRG is already built.
    let second = submit("b", "mac");
    assert!(!first.served.unwrap().mrrg_warm);
    let second_served = second.served.unwrap();
    assert!(!second_served.cache_hit);
    assert!(second_served.mrrg_warm);
    service.initiate_shutdown();
    service.join_workers();
}

#[test]
fn malformed_inputs_get_typed_errors_not_panics() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let cases: Vec<(String, ErrorKind)> = vec![
        ("not json at all".into(), ErrorKind::Parse),
        ("{\"cmd\":\"map\"}".into(), ErrorKind::Request),
        (
            "{\"id\":\"x\",\"cmd\":\"teleport\"}".into(),
            ErrorKind::Request,
        ),
        (
            "{\"id\":\"x\",\"cmd\":\"map\",\"dfg\":\"bogus\",\"arch\":\"bogus\",\"ii\":0}".into(),
            ErrorKind::Request,
        ),
        (
            format!(
                "{{\"id\":\"x\",\"cmd\":\"map\",\"dfg\":\"bogus\",\"arch\":{},\"ii\":1}}",
                cgra_serve::json::s(homo_diag_arch_text())
            ),
            ErrorKind::Dfg,
        ),
        (
            format!(
                "{{\"id\":\"x\",\"cmd\":\"map\",\"dfg\":{},\"arch\":\"bogus\",\"ii\":1}}",
                cgra_serve::json::s(kernel_text("accum"))
            ),
            ErrorKind::Arch,
        ),
    ];
    for (line, expected) in cases {
        let error = cgra_serve::client::decode_response(&service.handle(&line))
            .expect_err("malformed input must fail");
        assert_eq!(error.kind, expected, "for line {line:?}");
    }
    service.initiate_shutdown();
    service.join_workers();
}

/// Admission control + graceful shutdown, against a deliberately tiny
/// pool: one worker, queue bound 1. A slow solve occupies the worker, a
/// second request queues, a third is rejected `overloaded`; shutdown
/// then fails the queued request with `shutting_down` and cancels the
/// in-flight solve, which still answers with a clean timeout report.
#[test]
fn admission_control_and_graceful_shutdown() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Some(Duration::from_secs(120)),
        ..ServiceConfig::default()
    });
    // cos_4 at II=1 on homo-diag takes many seconds to refute — plenty
    // of time to stack requests behind it. Each request gets a distinct
    // seed: identical requests would *coalesce* onto the in-flight
    // solve instead of exercising the queue bound.
    let slow_line = |id: &str, seed: u64| {
        format!(
            "{{\"id\":\"{id}\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1,\"options\":{{\"time_limit_us\":120000000,\"seed\":{seed}}}}}",
            cgra_serve::json::s(kernel_text("cos_4")),
            cgra_serve::json::s(homo_diag_arch_text()),
        )
    };

    let started = Instant::now();
    let (in_flight, queued) = std::thread::scope(|scope| {
        let svc = &service;
        let in_flight = scope.spawn(move || svc.handle(&slow_line("in-flight", 1)));
        std::thread::sleep(Duration::from_millis(300)); // worker picks it up
        let queued = scope.spawn(move || svc.handle(&slow_line("queued", 2)));
        std::thread::sleep(Duration::from_millis(300)); // sits in the queue

        // Queue full: typed rejection, immediately.
        let rejected = cgra_serve::client::decode_response(&service.handle(&slow_line("extra", 3)))
            .expect_err("over-capacity request must be rejected");
        assert_eq!(rejected.kind, ErrorKind::Overloaded);

        service.initiate_shutdown();
        (in_flight.join().unwrap(), queued.join().unwrap())
    });

    // The queued request never started: typed shutting_down error.
    let queued_err =
        cgra_serve::client::decode_response(&queued).expect_err("queued request fails on shutdown");
    assert_eq!(queued_err.kind, ErrorKind::ShuttingDown);

    // The in-flight request was cooperatively cancelled: a clean *ok*
    // response whose outcome is a timeout, long before its 120 s budget.
    let in_flight_ok = cgra_serve::client::decode_response(&in_flight)
        .expect("in-flight request still answers cleanly");
    assert_eq!(
        in_flight_ok
            .result
            .get("outcome")
            .and_then(|o| o.get("kind"))
            .and_then(Json::as_str),
        Some("timeout"),
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "cancellation must cut the solve well before its budget"
    );

    // After shutdown: new requests get the typed error.
    let late = cgra_serve::client::decode_response(&service.handle(&slow_line("late", 4)))
        .expect_err("post-shutdown request must fail");
    assert_eq!(late.kind, ErrorKind::ShuttingDown);

    service.join_workers();
}

/// Request coalescing: K identical concurrent cold requests trigger
/// exactly one solve; every waiter receives the same result bytes, and
/// the attachees are marked `coalesced` without consuming queue slots.
#[test]
fn identical_concurrent_requests_coalesce_onto_one_solve() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1, // attachees must not need queue capacity
        deadline: Some(Duration::from_secs(120)),
        ..ServiceConfig::default()
    });
    // A deliberately slow solve so the attach window stays open.
    let line = |id: &str| {
        format!(
            "{{\"id\":\"{id}\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1,\"options\":{{\"time_limit_us\":120000000}}}}",
            cgra_serve::json::s(kernel_text("cos_4")),
            cgra_serve::json::s(homo_diag_arch_text()),
        )
    };
    const ATTACHEES: usize = 3;
    let responses: Vec<String> = std::thread::scope(|scope| {
        let svc = &service;
        let leader = scope.spawn(move || svc.handle(&line("leader")));
        std::thread::sleep(Duration::from_millis(300)); // solve starts
        let followers: Vec<_> = (0..ATTACHEES)
            .map(|i| {
                let id = format!("follower-{i}");
                scope.spawn(move || svc.handle(&line(&id)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300)); // all attached
        let stats = service.stats_json();
        assert_eq!(
            stats.get("coalesced").and_then(Json::as_u64),
            Some(ATTACHEES as u64),
            "every follower must attach, not queue"
        );
        assert_eq!(stats.get("solves").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("queued").and_then(Json::as_u64), Some(0));
        // End the solve early; the cancelled solve still fans out a
        // clean timeout report to every waiter.
        service.initiate_shutdown();
        let mut all = vec![leader.join().unwrap()];
        all.extend(followers.into_iter().map(|h| h.join().unwrap()));
        all
    });

    assert_eq!(
        service.stats_json().get("solves").and_then(Json::as_u64),
        Some(1),
        "K identical requests must cost exactly one solve"
    );
    let mut texts = std::collections::BTreeSet::new();
    let mut coalesced_count = 0;
    for raw in &responses {
        let decoded = cgra_serve::client::decode_response(raw).expect("fan-out answers ok");
        texts.insert(decoded.result_text.clone());
        let served = decoded.served.expect("solve responses carry served");
        assert!(!served.cache_hit);
        if served.coalesced {
            coalesced_count += 1;
        }
    }
    assert_eq!(texts.len(), 1, "all waiters share one result byte-for-byte");
    assert_eq!(coalesced_count, ATTACHEES, "exactly the followers coalesce");
    service.join_workers();
}

/// Sharding: a daemon that does not own an architecture's hash range
/// answers `wrong_shard` without parsing-cost side effects; the owning
/// shard serves it normally.
#[test]
fn sharded_service_rejects_foreign_architectures() {
    let arch_text = homo_diag_arch_text();
    let arch_hash = cgra_arch::text::parse(&arch_text).unwrap().content_hash();
    let owner = (arch_hash % 2) as u32;
    let line = format!(
        "{{\"id\":\"s\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1}}",
        cgra_serve::json::s(kernel_text("accum")),
        cgra_serve::json::s(&arch_text),
    );

    let wrong = Service::start(ServiceConfig {
        shards: 2,
        shard_index: 1 - owner,
        ..ServiceConfig::default()
    });
    let err = cgra_serve::client::decode_response(&wrong.handle(&line))
        .expect_err("foreign shard must reject");
    assert_eq!(err.kind, ErrorKind::WrongShard);
    wrong.initiate_shutdown();
    wrong.join_workers();

    let owning = Service::start(ServiceConfig {
        shards: 2,
        shard_index: owner,
        ..ServiceConfig::default()
    });
    let ok = cgra_serve::client::decode_response(&owning.handle(&line))
        .expect("owning shard serves normally");
    assert!(!ok.served.unwrap().cache_hit);
    owning.initiate_shutdown();
    owning.join_workers();
}

/// Two-tier persistence: a result solved by one service generation is
/// replayed byte-identically by a fresh service sharing the same cache
/// directory — the hit comes off the mmap'd segment, not memory.
#[test]
fn persistent_tier_survives_service_restart() {
    let dir = std::env::temp_dir().join(format!("cgra-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let line = format!(
        "{{\"id\":\"p\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1}}",
        cgra_serve::json::s(kernel_text("accum")),
        cgra_serve::json::s(homo_diag_arch_text()),
    );

    let first_text = {
        let service = Service::start(ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let response = cgra_serve::client::decode_response(&service.handle(&line)).unwrap();
        assert!(!response.served.unwrap().cache_hit);
        service.initiate_shutdown();
        service.join_workers();
        response.result_text
    };

    let service = Service::start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let replay = cgra_serve::client::decode_response(&service.handle(&line)).unwrap();
    assert!(
        replay.served.unwrap().cache_hit,
        "restart must not re-solve"
    );
    assert_eq!(
        replay.result_text, first_text,
        "byte-identical across tiers"
    );
    assert_eq!(
        service
            .stats_json()
            .get("cache_disk_hits")
            .and_then(Json::as_u64),
        Some(1),
        "the hit must come from the persistent tier"
    );
    service.initiate_shutdown();
    service.join_workers();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn min_ii_requests_answer_and_cache() {
    let service = Service::start(ServiceConfig::default());
    // extreme (19 internal ops) cannot fit 16 single-context ALUs, so
    // II=1 is a fast capacity shortcut and II=2 maps.
    let line = format!(
        "{{\"id\":\"m\",\"cmd\":\"min_ii\",\"dfg\":{},\"arch\":{},\"max_ii\":2,\"options\":{{\"time_limit_us\":60000000,\"warm_start\":true}}}}",
        cgra_serve::json::s(kernel_text("extreme")),
        cgra_serve::json::s(homo_diag_arch_text()),
    );
    let response = cgra_serve::client::decode_response(&service.handle(&line)).unwrap();
    assert_eq!(
        response.result.get("min_ii").and_then(Json::as_u64),
        Some(2)
    );
    let attempts = response.result.get("attempts").unwrap().as_array().unwrap();
    assert_eq!(attempts.len(), 2);
    // Re-asking is a pure cache hit.
    let again = cgra_serve::client::decode_response(&service.handle(&line)).unwrap();
    assert!(again.served.unwrap().cache_hit);
    assert_eq!(again.result_text, response.result_text);
    service.initiate_shutdown();
    service.join_workers();
}

/// Deadline shaping: once the solve-time EWMA is established, a cold
/// request whose `deadline_ms` cannot possibly be met is refused
/// immediately with a typed `overloaded` + `retry_after_ms` — while a
/// *warm* request with the same hopeless deadline is still served
/// (deadlines shape admission only; they never enter cache keys).
#[test]
fn unmeetable_deadline_sheds_cold_but_not_warm() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let line = |id: &str, seed: u64, deadline_ms: Option<u64>| {
        let deadline = match deadline_ms {
            Some(ms) => format!(",\"deadline_ms\":{ms}"),
            None => String::new(),
        };
        format!(
            "{{\"id\":\"{id}\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1,\"options\":{{\"seed\":{seed}}}{deadline}}}",
            cgra_serve::json::s(kernel_text("accum")),
            cgra_serve::json::s(homo_diag_arch_text()),
        )
    };
    // Establish the solve-time EWMA with one real solve.
    let first = cgra_serve::client::decode_response(&service.handle(&line("warmup", 1, None)))
        .expect("warmup solve");

    // Cold request (distinct seed), zero deadline: predicted completion
    // exceeds the budget, so admission refuses it without queueing.
    let err = cgra_serve::client::decode_response(&service.handle(&line("cold", 2, Some(0))))
        .expect_err("unmeetable deadline must be shed");
    assert_eq!(err.kind, ErrorKind::Overloaded);
    assert!(
        err.retry_after_ms.is_some(),
        "deadline shed must carry a retry hint"
    );
    assert!(
        err.detail.contains("deadline"),
        "detail should name the deadline, got: {}",
        err.detail
    );

    // Warm lane: the same request as the warmup, same hopeless
    // deadline — served from cache, byte-identical.
    let warm = cgra_serve::client::decode_response(&service.handle(&line("warm", 1, Some(0))))
        .expect("warm requests bypass deadline shaping");
    assert!(warm.served.unwrap().cache_hit);
    assert_eq!(warm.result_text, first.result_text);
    assert_eq!(
        service
            .stats_json()
            .get("shed_deadline")
            .and_then(Json::as_u64),
        Some(1)
    );
    service.initiate_shutdown();
    service.join_workers();
}

/// Sustained overload trips the brownout: once the queue has sat at
/// 3/4 capacity or above for longer than the window, cold admission
/// steps down and refusals say so — while warm requests keep flowing.
#[test]
fn sustained_overload_brownout_sheds_cold_keeps_warm() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        brownout_window: Duration::from_millis(50),
        deadline: Some(Duration::from_secs(120)),
        ..ServiceConfig::default()
    });
    // Prime the warm lane while the service is idle.
    let warm_line = format!(
        "{{\"id\":\"w\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1}}",
        cgra_serve::json::s(kernel_text("accum")),
        cgra_serve::json::s(homo_diag_arch_text()),
    );
    let warm_text = cgra_serve::client::decode_response(&service.handle(&warm_line))
        .expect("prime")
        .result_text;

    // Saturate: 1 in-flight + 4 queued slow solves (distinct seeds so
    // nothing coalesces), held there past the brownout window.
    let slow_line = |id: &str, seed: u64| {
        format!(
            "{{\"id\":\"{id}\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1,\"options\":{{\"time_limit_us\":120000000,\"seed\":{seed}}}}}",
            cgra_serve::json::s(kernel_text("cos_4")),
            cgra_serve::json::s(homo_diag_arch_text()),
        )
    };
    std::thread::scope(|scope| {
        let svc = &service;
        let slow: Vec<_> = (0..5u64)
            .map(|i| {
                let line = slow_line(&format!("slow-{i}"), i + 1);
                let handle = scope.spawn(move || svc.handle(&line));
                std::thread::sleep(Duration::from_millis(100));
                handle
            })
            .collect();
        // The queue has been >= 3/4 full for several windows now: a new
        // cold request must be refused as a *brownout* shed.
        std::thread::sleep(Duration::from_millis(200));
        let err = cgra_serve::client::decode_response(&service.handle(&slow_line("cold", 99)))
            .expect_err("cold request under brownout must be shed");
        assert_eq!(err.kind, ErrorKind::Overloaded);
        assert!(err.retry_after_ms.is_some());
        assert!(
            err.detail.contains("brownout"),
            "sustained overload must shed as brownout, got: {}",
            err.detail
        );
        let stats = service.stats_json();
        assert!(stats.get("shed_brownout").and_then(Json::as_u64) >= Some(1));
        assert!(stats.get("brownout_level").and_then(Json::as_u64) >= Some(1));

        // The warm lane is untouched: same bytes, still a cache hit.
        let warm = cgra_serve::client::decode_response(&service.handle(&warm_line))
            .expect("warm lane must survive brownout");
        assert!(warm.served.unwrap().cache_hit);
        assert_eq!(warm.result_text, warm_text);

        service.initiate_shutdown();
        for handle in slow {
            let _ = handle.join().unwrap();
        }
    });
    service.join_workers();
}

/// Every `shutting_down` refusal carries a `retry_after_ms` hint so a
/// supervisor-restarted fleet's clients know when to come back.
#[test]
fn shutdown_refusals_carry_retry_hint() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    service.initiate_shutdown();
    let line = format!(
        "{{\"id\":\"z\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1}}",
        cgra_serve::json::s(kernel_text("accum")),
        cgra_serve::json::s(homo_diag_arch_text()),
    );
    let err = cgra_serve::client::decode_response(&service.handle(&line))
        .expect_err("post-shutdown request must fail");
    assert_eq!(err.kind, ErrorKind::ShuttingDown);
    assert_eq!(err.retry_after_ms, Some(1_000));
    service.join_workers();
}

fn memo_hits(service: &Service) -> u64 {
    service
        .stats_json()
        .get("memo_hits")
        .and_then(Json::as_u64)
        .expect("stats carry memo_hits")
}

/// The `id` the full parser reads off a line (first match wins).
fn parsed_id(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()?
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// The line memo against the full parse. Once a line is solved, lines
/// that differ from it only in the `id` token are answered from the
/// memo with the solved result bytes and the id the parser would read;
/// every other line takes the full parse and gets its reply or typed
/// error from it.
#[test]
fn line_memo_answers_like_the_full_parse() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let body = format!(
        "\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1",
        cgra_serve::json::s(kernel_text("accum")),
        cgra_serve::json::s(homo_diag_arch_text()),
    );
    let rest = format!("{body},\"options\":{}", options_json());
    let hot = |id: &str| format!("{{\"id\":{id},{rest}}}");
    let solved = cgra_serve::client::decode_response(&service.handle(&hot("\"hot\""))).unwrap();
    assert!(!solved.served.unwrap().cache_hit);

    // A layout is the text before and after the id token. Each is asked
    // with three ids, spliced in as raw JSON; a layout the memo has not
    // seen misses once, then hits.
    let inner_id =
        format!("{body},\"options\":{{\"id\":\"inner\",\"time_limit_us\":60000000,\"threads\":1}}");
    let layouts = [
        ("id first", "{\"id\":".to_owned(), format!(",{rest}}}"), 3),
        ("id last", format!("{{{rest},\"id\":"), "}".to_owned(), 2),
        (
            "id after an options object with its own id",
            format!("{{{inner_id},\"id\":"),
            "}".to_owned(),
            2,
        ),
        (
            "duplicate id",
            "{\"id\":".to_owned(),
            format!(",{rest},\"id\":\"dup\"}}"),
            2,
        ),
        (
            "whitespace",
            " { \"id\" :\t".to_owned(),
            format!(" ,\n{rest} }} "),
            2,
        ),
        (
            "escaped key",
            "{\"\\u0069d\":".to_owned(),
            format!(",{rest}}}"),
            0,
        ),
    ];
    let ids = [
        "\"v1\"",
        "\"\\u0076\\u00e9\\ud83d\\ude00\"",
        "\"r\u{e9}-\u{1F600}\"",
    ];
    for (name, head, tail, expected_hits) in &layouts {
        let before = memo_hits(&service);
        for id in ids {
            let line = format!("{head}{id}{tail}");
            let reply = cgra_serve::client::decode_response(&service.handle(&line))
                .unwrap_or_else(|e| panic!("{name} {id}: {e}"));
            assert_eq!(Some(reply.id), parsed_id(&line), "{name} {id}");
            assert_eq!(reply.result_text, solved.result_text, "{name} {id}");
            assert!(reply.served.unwrap().cache_hit, "{name} {id}");
        }
        assert_eq!(memo_hits(&service) - before, *expected_hits, "{name}");
    }

    // A broken id is the full parse's business: same typed error.
    let before = memo_hits(&service);
    for line in [hot("7"), hot("\"v1"), hot("\"v\u{1}1\"")] {
        let expected = cgra_serve::wire::parse_request(&line).unwrap_err().kind;
        let error = cgra_serve::client::decode_response(&service.handle(&line))
            .expect_err("a broken id must fail");
        assert_eq!(error.kind, expected, "{line:.40}");
    }
    assert_eq!(memo_hits(&service), before);

    // Shutdown is checked before the memo answers.
    service.initiate_shutdown();
    let raw = service.handle(&hot("\"late\""));
    let error = cgra_serve::client::decode_response(&raw).expect_err("refused after shutdown");
    assert_eq!(error.kind, ErrorKind::ShuttingDown);
    assert_eq!(parsed_id(&raw).as_deref(), Some("late"));
    service.join_workers();
}

/// A memoized line whose result has left the cache (one in-memory
/// entry, no `cache_dir`) is solved again, to the same result up to its
/// wall-clock fields.
#[test]
fn line_memo_hit_after_eviction_resolves() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        result_capacity: 1,
        ..ServiceConfig::default()
    });
    let line = |id: &str, kernel: &str| {
        format!(
            "{{\"id\":\"{id}\",\"cmd\":\"map\",\"dfg\":{},\"arch\":{},\"ii\":1,\"options\":{}}}",
            cgra_serve::json::s(kernel_text(kernel)),
            cgra_serve::json::s(homo_diag_arch_text()),
            options_json(),
        )
    };
    let solve = |id: &str, kernel: &str| {
        cgra_serve::client::decode_response(&service.handle(&line(id, kernel))).unwrap()
    };
    let first = solve("a", "accum");
    solve("b", "mac"); // evicts accum's result
    let again = solve("c", "accum");
    assert_eq!(again.id, "c");
    assert!(
        !again.served.unwrap().cache_hit,
        "the evicted result is solved again"
    );
    assert_eq!(memo_hits(&service), 0);
    let normalized = |text: &str| {
        let mut doc = Json::parse(text).unwrap();
        normalize_times(&mut doc);
        doc.to_string()
    };
    assert_eq!(
        normalized(&again.result_text),
        normalized(&first.result_text)
    );
    let stats = service.stats_json();
    assert_eq!(stats.get("solves").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(3));
    service.initiate_shutdown();
    service.join_workers();
}
