//! Load generator and CI smoke test for the `cgra-serve` daemon.
//!
//! Full mode (the default) measures what the fixed-work benchmark's
//! single-client `serve` workload does not: the pipelined warm *storm*.
//! For each worker count in {1, 2, 4, 8} it starts a fresh in-process
//! service, primes the cache with every cell of a Table-2 arch × kernel
//! matrix, then has a handful of persistent connections pipeline
//! identical warm requests. The number printed per worker count is the
//! daemon's frame-reassembly + cache-fast-path capacity, not
//! per-connection round-trip latency. Nothing is written to disk; the
//! run exits nonzero if a priming request fails or a storm response is
//! missing or not `ok`.
//!
//! ```text
//! serve_bench [--time-limit <seconds>]
//! serve_bench --smoke [--connect HOST:PORT]
//! ```
//!
//! `--smoke` is the CI path: byte-identical miss → hit replay, a
//! K-identical-requests coalescing assertion (exactly one solve),
//! pipelined warm replays, graceful shutdown, and post-shutdown
//! rejection. Solver threads are pinned to 1 so core oversubscription
//! on small CI hosts cannot pollute the verdict signal. With
//! `--connect` it drives an externally started daemon (assertions use
//! counter deltas, so a warm daemon is fine); otherwise it spins one up
//! in-process.
//!
//! Service-level behaviour — verdict parity with the direct mapper,
//! coalescing, restart persistence, sharded redirects, load shedding —
//! is asserted by `tests/service.rs`.

use cgra_arch::families::paper_configs;
use cgra_dfg::benchmarks;
use cgra_serve::client::Client;
use cgra_serve::json::{obj, s, Json};
use cgra_serve::server;
use cgra_serve::service::{Service, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Small kernels that decide quickly on every paper configuration —
/// the bench measures the service, not the solver.
const KERNELS: [&str; 4] = ["accum", "mac", "add_10", "mult_10"];

/// Warm-storm shape: pipelined connections × requests per connection.
const STORM_CONNS: usize = 4;
const STORM_PER_CONN: usize = 2000;
/// In-flight window per pipelined connection (send W, then receive W).
const PIPELINE_WINDOW: usize = 64;

const USAGE: &str = "\
usage: serve_bench [--time-limit <seconds>]
       serve_bench --smoke [--connect HOST:PORT]";

fn fail(message: &str) -> ! {
    eprintln!("serve_bench: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Cell {
    label: String,
    dfg_text: String,
    arch_text: String,
    ii: u32,
}

fn options_json(time_limit: Duration) -> Json {
    obj(vec![
        ("time_limit_us", Json::Int(time_limit.as_micros() as i64)),
        ("threads", Json::Int(1)),
    ])
}

/// A raw `map` request line (the pipelined phases write lines directly
/// instead of going through `Client::map`'s round-trip).
fn map_line(id: &str, cell: &Cell, time_limit_us: i64) -> String {
    let doc = obj(vec![
        ("id", s(id)),
        ("cmd", s("map")),
        ("dfg", s(cell.dfg_text.clone())),
        ("arch", s(cell.arch_text.clone())),
        ("ii", Json::Int(cell.ii as i64)),
        (
            "options",
            obj(vec![
                ("time_limit_us", Json::Int(time_limit_us)),
                ("threads", Json::Int(1)),
            ]),
        ),
    ]);
    doc.to_string()
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn main() {
    let mut smoke = false;
    let mut connect: Option<String> = None;
    let mut time_limit = Duration::from_secs(10);

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--connect" => {
                connect = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--connect needs HOST:PORT")),
                )
            }
            "--time-limit" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--time-limit takes seconds"));
                time_limit = Duration::from_secs(secs);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }

    if smoke {
        run_smoke(connect.as_deref(), time_limit);
    } else {
        run_full(time_limit);
    }
}

// ---------------------------------------------------------------------
// Smoke mode (CI)
// ---------------------------------------------------------------------

fn run_smoke(connect: Option<&str>, time_limit: Duration) {
    // An in-process daemon unless CI started one for us. One worker and
    // `threads: 1` in every request: nothing in the smoke path may
    // oversubscribe a 1-core CI host.
    let local = connect.is_none();
    let (addr, service, accept) = if let Some(addr) = connect {
        (addr.to_owned(), None, None)
    } else {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (addr, accept) =
            server::spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap_or_else(|e| {
                eprintln!("serve_bench: cannot start in-process server: {e}");
                std::process::exit(1);
            });
        (addr.to_string(), Some(service), Some(accept))
    };

    let dfg = cgra_dfg::text::print(&benchmarks::accum());
    let config = &paper_configs()[3]; // homo-diag, II=1
    let arch = cgra_arch::text::print(&config.arch);

    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("serve_bench: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut failures = Vec::new();

    // Counter deltas, so the assertions hold against a warm external
    // daemon too.
    let stats_before = client
        .stats()
        .map(|r| r.result)
        .unwrap_or_else(|e| fail(&format!("initial stats failed: {e}")));

    // Phase 1: miss -> hit, byte-identical replay.
    let first = client
        .map(&dfg, &arch, 1, Some(options_json(time_limit)))
        .unwrap_or_else(|e| {
            eprintln!("serve_bench: first request failed: {e}");
            std::process::exit(1);
        });
    let second = client
        .map(&dfg, &arch, 1, Some(options_json(time_limit)))
        .unwrap_or_else(|e| {
            eprintln!("serve_bench: second request failed: {e}");
            std::process::exit(1);
        });
    let first_served = first.served.expect("map responses carry served");
    let second_served = second.served.expect("map responses carry served");
    if !second_served.cache_hit && !second_served.coalesced {
        failures.push("second identical request must be served from cache".to_owned());
    }
    if first.result_text != second.result_text {
        failures.push("cache hit must replay a byte-identical report".to_owned());
    }
    if first
        .result
        .get("outcome")
        .and_then(|o| o.get("kind"))
        .and_then(Json::as_str)
        != Some("mapped")
    {
        failures.push("accum on homo-diag at II=1 must map".to_owned());
    }
    let _ = first_served; // cold-vs-warm asserted via counters below

    // Phase 2: K identical concurrent cold requests -> exactly 1 solve.
    // A unique time limit makes the request cold even on a warm daemon.
    let cell = Cell {
        label: "smoke".into(),
        dfg_text: cgra_dfg::text::print(&(benchmarks::by_name("cos_4")
            .expect("cos_4 benchmark")
            .build)()),
        arch_text: arch.clone(),
        ii: 1,
    };
    let unique_us = 2_000_000 + (std::process::id() as i64 % 500_000);
    let coalesce_stats_before = client
        .stats()
        .map(|r| r.result)
        .unwrap_or_else(|e| fail(&format!("stats failed: {e}")));
    const SMOKE_WAITERS: usize = 4;
    let texts: Vec<String> = std::thread::scope(|scope| {
        let cell = &cell;
        let addr = addr.as_str();
        let mut handles = Vec::new();
        for i in 0..SMOKE_WAITERS {
            handles.push(scope.spawn(move || {
                if i > 0 {
                    // Leader first; followers attach mid-solve.
                    std::thread::sleep(Duration::from_millis(200));
                }
                let mut c = Client::connect(addr).expect("coalesce connection");
                let line = map_line(&format!("sm-{i}"), cell, unique_us);
                c.send_line(&line).expect("send");
                c.recv_response().expect("coalesced solve").result_text
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    if texts.windows(2).any(|w| w[0] != w[1]) {
        failures.push("coalesced waiters must receive identical bytes".to_owned());
    }
    let coalesce_stats_after = client
        .stats()
        .map(|r| r.result)
        .unwrap_or_else(|e| fail(&format!("stats failed: {e}")));
    let solves_delta = stat_u64(&coalesce_stats_after, "solves")
        .saturating_sub(stat_u64(&coalesce_stats_before, "solves"));
    let coalesced_delta = stat_u64(&coalesce_stats_after, "coalesced")
        .saturating_sub(stat_u64(&coalesce_stats_before, "coalesced"));
    if solves_delta != 1 {
        failures.push(format!(
            "{SMOKE_WAITERS} identical concurrent requests must trigger exactly 1 solve, saw {solves_delta}"
        ));
    }
    if coalesced_delta == 0 {
        failures.push("no request coalesced onto the in-flight solve".to_owned());
    }

    // Phase 3: pipelined warm replays — all byte-identical to `first`.
    let warm_cell = Cell {
        label: "warm".into(),
        dfg_text: dfg.clone(),
        arch_text: arch.clone(),
        ii: 1,
    };
    const SMOKE_PIPELINE: usize = 32;
    for i in 0..SMOKE_PIPELINE {
        let line = map_line(
            &format!("wp-{i}"),
            &warm_cell,
            time_limit.as_micros() as i64,
        );
        if let Err(e) = client.send_line(&line) {
            failures.push(format!("pipelined send failed: {e}"));
            break;
        }
    }
    for i in 0..SMOKE_PIPELINE {
        match client.recv_response() {
            Ok(r) => {
                if r.id != format!("wp-{i}") {
                    failures.push(format!("pipelined response out of order: got {}", r.id));
                    break;
                }
                if r.result_text != first.result_text {
                    failures.push("pipelined warm replay not byte-identical".to_owned());
                    break;
                }
            }
            Err(e) => {
                failures.push(format!("pipelined recv failed: {e}"));
                break;
            }
        }
    }

    match client.stats() {
        Ok(stats) => {
            let hits_delta = stat_u64(&stats.result, "cache_hits")
                .saturating_sub(stat_u64(&stats_before, "cache_hits"));
            // The warm replay + pipelined replays all hit; exact counts
            // depend on coalesce timing, so assert the floor.
            if hits_delta < 1 + SMOKE_PIPELINE as u64 {
                failures.push(format!(
                    "expected at least {} cache hits, counters say {hits_delta}",
                    1 + SMOKE_PIPELINE
                ));
            }
            let reactor_conns = stats
                .result
                .get("connections_accepted")
                .and_then(Json::as_u64);
            if reactor_conns.is_none() {
                failures.push("stats missing reactor counters".to_owned());
            }
        }
        Err(e) => failures.push(format!("stats request failed: {e}")),
    }
    if let Err(e) = client.shutdown() {
        failures.push(format!("shutdown request failed: {e}"));
    }
    // Post-shutdown, a solve request must be rejected with the typed
    // error — or the daemon may already have closed the connection,
    // which is an equally clean refusal.
    match client.map(&dfg, &arch, 1, None) {
        Ok(_) => failures.push("request after shutdown must not succeed".to_owned()),
        Err(e) => {
            let disconnect = e.kind == cgra_serve::ErrorKind::Internal;
            if e.kind != cgra_serve::ErrorKind::ShuttingDown && !disconnect {
                failures.push(format!("post-shutdown rejection had wrong kind: {e}"));
            }
        }
    }
    if local {
        if let Some(accept) = accept {
            let _ = accept.join();
        }
        if let Some(service) = service {
            service.join_workers();
        }
    }

    if failures.is_empty() {
        println!(
            "serve-smoke OK: miss -> hit, {SMOKE_WAITERS} waiters -> 1 solve, \
             {SMOKE_PIPELINE} pipelined byte-identical replays, graceful shutdown",
        );
    } else {
        for f in &failures {
            eprintln!("serve-smoke FAIL: {f}");
        }
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Full mode
// ---------------------------------------------------------------------

fn build_cells() -> Vec<Cell> {
    let configs = paper_configs();
    let mut cells = Vec::new();
    for entry in KERNELS
        .iter()
        .map(|n| benchmarks::by_name(n).unwrap_or_else(|| panic!("unknown benchmark `{n}`")))
    {
        let dfg_text = cgra_dfg::text::print(&(entry.build)());
        // The II=1 column of Table 2: four architectures per kernel.
        for config in configs.iter().filter(|c| c.contexts == 1) {
            cells.push(Cell {
                label: format!("{}/{}@{}", entry.name, config.label, config.contexts),
                dfg_text: dfg_text.clone(),
                arch_text: cgra_arch::text::print(&config.arch),
                ii: config.contexts,
            });
        }
    }
    cells
}

/// The warm storm: `STORM_CONNS` persistent connections pipeline
/// identical warm requests (windowed send/recv bursts), so the measured
/// number is the daemon's frame-reassembly + cache-fast-path capacity,
/// not the client's round-trip latency.
fn run_warm_storm(addr: &str, cells: &[Cell], time_limit: Duration) -> (usize, Duration) {
    let completed = Arc::new(AtomicU64::new(0));
    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for conn in 0..STORM_CONNS {
            let completed = Arc::clone(&completed);
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("serve_bench: storm connect failed: {e}");
                        return;
                    }
                };
                // Pre-render the request lines: the bench must not
                // measure its own JSON formatting.
                let lines: Vec<String> = (0..cells.len())
                    .map(|i| {
                        map_line(
                            &format!("st{conn}-{i}"),
                            &cells[i],
                            time_limit.as_micros() as i64,
                        )
                    })
                    .collect();
                let mut sent = 0usize;
                let mut received = 0usize;
                while received < STORM_PER_CONN {
                    let window = PIPELINE_WINDOW.min(STORM_PER_CONN - received);
                    for k in 0..window {
                        let line = &lines[(sent + k) % lines.len()];
                        if client.send_line(line).is_err() {
                            return;
                        }
                    }
                    sent += window;
                    for _ in 0..window {
                        match client.recv_line() {
                            Ok(resp) if resp.contains("\"ok\":true") => {
                                received += 1;
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(resp) => {
                                eprintln!("serve_bench: storm request failed: {resp}");
                                return;
                            }
                            Err(e) => {
                                eprintln!("serve_bench: storm recv failed: {e}");
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    (
        completed.load(Ordering::Relaxed) as usize,
        wall_start.elapsed(),
    )
}

/// The full mode: per worker count, a fresh service is primed with
/// every cell, then measured under the warm storm.
fn run_full(time_limit: Duration) {
    let cells = build_cells();
    let expected = STORM_CONNS * STORM_PER_CONN;
    eprintln!(
        "serve_bench: warm storm over {} cells ({} kernels x 4 architectures), \
         {STORM_CONNS} connections x {STORM_PER_CONN} pipelined requests, time limit {:?}",
        cells.len(),
        KERNELS.len(),
        time_limit
    );
    let mut short = false;
    for workers in WORKER_COUNTS {
        // No per-request deadline: queue wait must not eat into the
        // priming solves' budget.
        let service = Service::start(ServiceConfig {
            workers,
            queue_capacity: cells.len().max(16),
            deadline: None,
            ..ServiceConfig::default()
        });
        let (addr, accept) =
            server::spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap_or_else(|e| {
                eprintln!("serve_bench: cannot start in-process server: {e}");
                std::process::exit(1);
            });
        let addr = addr.to_string();
        let mut client = Client::connect(&addr).unwrap_or_else(|e| {
            eprintln!("serve_bench: cannot connect to {addr}: {e}");
            std::process::exit(1);
        });
        // Prime the cache: every cell pipelined on one connection, so
        // the service solves up to `workers` of them at once.
        for (i, cell) in cells.iter().enumerate() {
            let line = map_line(&format!("prime-{i}"), cell, time_limit.as_micros() as i64);
            if let Err(e) = client.send_line(&line) {
                eprintln!("serve_bench: priming send failed: {e}");
                std::process::exit(1);
            }
        }
        for cell in &cells {
            if let Err(e) = client.recv_response() {
                eprintln!("serve_bench: priming {} failed: {e}", cell.label);
                std::process::exit(1);
            }
        }
        let (completed, wall) = run_warm_storm(&addr, &cells, time_limit);
        println!(
            "workers={workers} warm storm: {completed}/{expected} responses in {:.3}s, {:.1} req/s",
            wall.as_secs_f64(),
            completed as f64 / wall.as_secs_f64().max(1e-9)
        );
        short |= completed < expected;
        let _ = client.shutdown();
        let _ = accept.join();
        service.join_workers();
    }
    if short {
        eprintln!("serve_bench: a warm storm lost responses");
        std::process::exit(1);
    }
}
