//! Seeded fuzz suite for the reactor's NDJSON framing.
//!
//! The reactor reassembles request frames from whatever byte chunks the
//! kernel hands it; nothing about TCP aligns segments with frames. These
//! tests drive the real TCP front end with adversarial segmentation —
//! frames split at arbitrary byte boundaries, many frames merged into
//! one segment, slow-loris one-byte-at-a-time writes, and mid-frame
//! disconnects — and assert the invariants that matter:
//!
//! * the daemon never panics or wedges;
//! * every completed request line produces exactly one response, in
//!   request order on its connection;
//! * a misbehaving connection never corrupts an adjacent connection's
//!   responses (ids and bytes stay paired with their own socket).
//!
//! All randomness is seeded `cgra_rng` — failures reproduce exactly.

use cgra_rng::Rng;
use cgra_serve::json::{obj, s, Json};
use cgra_serve::server;
use cgra_serve::service::{Service, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn kernel_text() -> String {
    cgra_dfg::text::print(&cgra_dfg::benchmarks::accum())
}

fn arch_text() -> String {
    let configs = cgra_arch::families::paper_configs();
    cgra_arch::text::print(&configs[3].arch) // homo-diag
}

fn map_line(id: &str) -> String {
    obj(vec![
        ("id", s(id)),
        ("cmd", s("map")),
        ("dfg", s(kernel_text())),
        ("arch", s(arch_text())),
        ("ii", Json::Int(1)),
        (
            "options",
            obj(vec![
                ("time_limit_us", Json::Int(60_000_000)),
                ("threads", Json::Int(1)),
            ]),
        ),
    ])
    .to_string()
}

fn stats_line(id: &str) -> String {
    obj(vec![("id", s(id)), ("cmd", s("stats"))]).to_string()
}

/// Boots a service on an ephemeral port and primes the result cache so
/// `map_line` requests are warm (the fuzz measures framing, not solves).
fn boot() -> (Arc<Service>, String, std::thread::JoinHandle<()>) {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (addr, accept) = server::spawn_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = addr.to_string();
    let mut prime = cgra_serve::client::Client::connect(&addr).expect("prime connection");
    prime
        .roundtrip_line(&map_line("prime"))
        .expect("prime solve");
    (service, addr, accept)
}

fn teardown(service: Arc<Service>, accept: std::thread::JoinHandle<()>) {
    service.initiate_shutdown();
    let _ = accept.join();
    service.join_workers();
}

/// Reads `n` response lines and asserts they echo `ids` in order — the
/// reactor owes in-request-order delivery per connection.
fn expect_responses(reader: &mut BufReader<TcpStream>, ids: &[String]) {
    for want in ids {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed before response for id {want}");
        let doc = Json::parse(line.trim()).expect("response parses");
        assert_eq!(
            doc.get("id").and_then(Json::as_str),
            Some(want.as_str()),
            "response out of order or cross-delivered"
        );
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {want} failed: {line}"
        );
    }
}

/// Frames split and merged across arbitrary segment boundaries: the
/// whole batch is one byte stream cut at seeded random offsets, with
/// occasional pauses so partial frames sit buffered across poll cycles.
#[test]
fn frames_reassemble_across_arbitrary_segment_boundaries() {
    let (service, addr, accept) = boot();
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0xF4A3 + seed);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        // A mixed batch: cheap inline stats responses interleaved with
        // warm map replays (worker-side completions) — both must come
        // back in request order.
        let mut ids = Vec::new();
        let mut bytes = Vec::new();
        for i in 0..24 {
            let id = format!("f{seed}-{i}");
            let line = if rng.gen_bool(0.5) {
                stats_line(&id)
            } else {
                map_line(&id)
            };
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            ids.push(id);
        }

        let mut at = 0usize;
        while at < bytes.len() {
            let cut = rng.gen_range(1..64.min(bytes.len() - at + 1));
            stream.write_all(&bytes[at..at + cut]).expect("write chunk");
            stream.flush().expect("flush");
            at += cut;
            if rng.gen_bool(0.1) {
                // Leave a partial frame buffered across poll cycles.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        expect_responses(&mut reader, &ids);
    }
    teardown(service, accept);
}

/// Many complete frames merged into a single write: one segment, many
/// responses, still in order.
#[test]
fn merged_frames_in_one_segment_all_answer() {
    let (service, addr, accept) = boot();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let ids: Vec<String> = (0..16).map(|i| format!("m-{i}")).collect();
    let mut batch = String::new();
    for id in &ids {
        batch.push_str(&map_line(id));
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).expect("write batch");
    expect_responses(&mut reader, &ids);
    teardown(service, accept);
}

/// Slow-loris: a client dribbles one request a byte at a time while a
/// neighbor runs full-speed round trips. The dribbled request completes
/// once its newline lands; the neighbor never stalls on it.
#[test]
fn slow_loris_writer_does_not_stall_neighbors() {
    let (service, addr, accept) = boot();
    let loris_addr = addr.clone();
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&loris_addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let line = stats_line("loris");
        for chunk in line.as_bytes().chunks(3) {
            stream.write_all(chunk).expect("dribble");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(5));
        }
        stream.write_all(b"\n").expect("newline");
        expect_responses(&mut reader, &["loris".to_owned()]);
    });

    // Meanwhile the neighbor's requests must answer promptly.
    let mut client = cgra_serve::client::Client::connect(&addr).expect("neighbor");
    for i in 0..10 {
        let response = client
            .roundtrip_line(&map_line(&format!("n-{i}")))
            .expect("neighbor roundtrip");
        let doc = Json::parse(&response).expect("parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("id").and_then(Json::as_str),
            Some(format!("n-{i}").as_str())
        );
    }
    loris.join().expect("loris thread");
    teardown(service, accept);
}

/// Mid-frame disconnects — a half-written frame, then the socket drops.
/// The fragment must be discarded (never dispatched, never glued onto
/// another connection's frames) and neighbors keep answering.
#[test]
fn mid_frame_disconnect_never_corrupts_neighbors() {
    let (service, addr, accept) = boot();
    for seed in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0xD15C + seed);
        let line = map_line(&format!("dead-{seed}"));
        let cut = rng.gen_range(1..line.len()); // strictly mid-frame
        {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.write_all(&line.as_bytes()[..cut]).expect("partial");
            stream.flush().expect("flush");
            // Dropped here: RST/FIN with a partial frame buffered.
        }
        let mut client = cgra_serve::client::Client::connect(&addr).expect("neighbor");
        let response = client
            .roundtrip_line(&map_line(&format!("alive-{seed}")))
            .expect("neighbor roundtrip");
        let doc = Json::parse(&response).expect("parses");
        assert_eq!(
            doc.get("id").and_then(Json::as_str),
            Some(format!("alive-{seed}").as_str()),
            "neighbor got someone else's response"
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }
    // The dead fragments never became requests.
    let stats = service.stats_json();
    let requests = stats.get("requests").and_then(Json::as_u64).unwrap();
    assert_eq!(requests, 1 + 8, "a partial frame was dispatched"); // prime + 8 alive
    teardown(service, accept);
}

/// A client that disconnects after dispatch but before its response is
/// ready: the completion must be dropped cleanly (stale socket), and a
/// coalesced neighbor on the same solve still gets its bytes.
#[test]
fn disconnect_before_response_drops_completion_cleanly() {
    let (service, addr, accept) = boot();
    // A cold request (unique options fingerprint) so the solve is
    // genuinely in flight when the socket dies.
    let cold_line = |id: &str, us: i64| {
        obj(vec![
            ("id", s(id)),
            ("cmd", s("map")),
            ("dfg", s(kernel_text())),
            ("arch", s(arch_text())),
            ("ii", Json::Int(1)),
            (
                "options",
                obj(vec![
                    ("time_limit_us", Json::Int(us)),
                    ("threads", Json::Int(1)),
                ]),
            ),
        ])
        .to_string()
    };
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .write_all(format!("{}\n", cold_line("vanishes", 59_000_001)).as_bytes())
            .expect("send");
        stream.flush().expect("flush");
        // Dropped with the solve (or its fan-out) still pending.
    }
    // An identical request coalesces onto the orphaned solve — its
    // response must arrive intact on *this* socket.
    let mut client = cgra_serve::client::Client::connect(&addr).expect("survivor");
    let response = client
        .roundtrip_line(&cold_line("survivor", 59_000_001))
        .expect("survivor roundtrip");
    let doc = Json::parse(&response).expect("parses");
    assert_eq!(doc.get("id").and_then(Json::as_str), Some("survivor"));
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    teardown(service, accept);
}

/// Randomized multi-connection storm: every connection pipelines its own
/// id sequence with seeded chunking; each must get exactly its own ids
/// back, in order, regardless of how the others behave.
#[test]
fn concurrent_connections_never_cross_deliver() {
    let (service, addr, accept) = boot();
    std::thread::scope(|scope| {
        for conn in 0..4u64 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(0xC4_055 + conn);
                let mut stream = TcpStream::connect(&addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut ids = Vec::new();
                let mut bytes = Vec::new();
                for i in 0..20 {
                    let id = format!("x{conn}-{i}");
                    let line = if rng.gen_bool(0.3) {
                        stats_line(&id)
                    } else {
                        map_line(&id)
                    };
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.push(b'\n');
                    ids.push(id);
                }
                let mut at = 0usize;
                while at < bytes.len() {
                    let cut = rng.gen_range(1..128.min(bytes.len() - at + 1));
                    stream.write_all(&bytes[at..at + cut]).expect("chunk");
                    at += cut;
                    if rng.gen_bool(0.05) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                expect_responses(&mut reader, &ids);
                // Half the connections hang up abruptly, half linger.
                if conn % 2 == 0 {
                    drop(stream);
                } else {
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    let mut rest = Vec::new();
                    let _ = stream.take(4096).read_to_end(&mut rest);
                }
            });
        }
    });
    teardown(service, accept);
}
