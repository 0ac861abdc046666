//! The `cgra-serve` daemon: a long-running mapping service.
//!
//! ```text
//! cgra-serve [--addr HOST:PORT | --stdio] [--workers N] [--queue N]
//!            [--cache N] [--cache-dir DIR] [--cache-read-only]
//!            [--sessions N] [--deadline-secs N] [--shards N --shard I]
//!            [--brownout-ms N]
//! ```
//!
//! TCP mode (the default, `127.0.0.1:9115`) prints the bound address on
//! a `listening on …` line to stderr once ready — with `--addr
//! 127.0.0.1:0` that is how a harness learns the ephemeral port. The
//! daemon exits after a `shutdown` command has been served and every
//! in-flight request has completed. If the address cannot be bound or
//! the reactor cannot be set up, it exits with status 1. Stdio mode serves newline-delimited
//! requests from stdin until EOF or `shutdown`.

use cgra_serve::server;
use cgra_serve::service::{Service, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: cgra-serve [options]
  --addr HOST:PORT    TCP listen address (default 127.0.0.1:9115; port 0 = ephemeral)
  --stdio             serve stdin/stdout instead of TCP
  --workers N         solver worker threads (default 2, 0 = all cores)
  --queue N           admission queue bound (default 8 * workers)
  --cache N           in-memory result-cache entries (default 256)
  --cache-dir DIR     persist results under DIR (e.g. results/cache)
  --cache-read-only   share DIR's segment without writing to it (replica mode)
  --sessions N        warm per-architecture sessions kept (default 8)
  --deadline-secs N   server-side per-request time ceiling (default 300, 0 = none)
  --shards N          fleet shard count (default 1 = unsharded)
  --shard I           this daemon's shard index in 0..N (owns arch_hash % N == I)
  --brownout-ms N     sustained-load window before cold admission steps down (default 500)
  --help              print this help";

fn fail(message: &str) -> ! {
    eprintln!("cgra-serve: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let text = value.unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    text.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: cannot parse `{text}`")))
}

fn main() {
    let mut addr = String::from("127.0.0.1:9115");
    let mut stdio = false;
    let mut workers = 2usize;
    let mut queue: Option<usize> = None;
    let mut cache = 256usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut sessions = 8usize;
    let mut deadline_secs = 300u64;
    let mut cache_read_only = false;
    let mut shards = 1u32;
    let mut shard_index = 0u32;
    let mut brownout_ms = 500u64;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = parse_value("--addr", args.next()),
            "--stdio" => stdio = true,
            "--workers" => workers = parse_value("--workers", args.next()),
            "--queue" => queue = Some(parse_value("--queue", args.next())),
            "--cache" => cache = parse_value("--cache", args.next()),
            "--cache-dir" => cache_dir = Some(parse_value("--cache-dir", args.next())),
            "--cache-read-only" => cache_read_only = true,
            "--sessions" => sessions = parse_value("--sessions", args.next()),
            "--deadline-secs" => deadline_secs = parse_value("--deadline-secs", args.next()),
            "--shards" => shards = parse_value("--shards", args.next()),
            "--shard" => shard_index = parse_value("--shard", args.next()),
            "--brownout-ms" => brownout_ms = parse_value("--brownout-ms", args.next()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }

    if workers == 0 {
        workers = cgra_par::default_jobs(2);
    }
    if shards == 0 {
        fail("--shards must be >= 1");
    }
    if shard_index >= shards {
        fail(&format!("--shard must be in 0..{shards}"));
    }
    let config = ServiceConfig {
        workers,
        queue_capacity: queue.unwrap_or(workers.saturating_mul(8).max(8)),
        result_capacity: cache,
        session_capacity: sessions,
        cache_dir,
        cache_read_only,
        deadline: (deadline_secs > 0).then(|| Duration::from_secs(deadline_secs)),
        shards,
        shard_index,
        brownout_window: Duration::from_millis(brownout_ms.max(1)),
    };
    eprintln!(
        "cgra-serve: {} workers, queue {}, cache {} entries{}{}",
        config.workers,
        config.queue_capacity,
        config.result_capacity,
        match &config.cache_dir {
            Some(dir) => format!(
                " (persistent: {}{})",
                dir.display(),
                if config.cache_read_only {
                    ", read-only"
                } else {
                    ""
                }
            ),
            None => String::new(),
        },
        if config.shards > 1 {
            format!(", shard {}/{}", config.shard_index, config.shards)
        } else {
            String::new()
        }
    );
    let service = Service::start(config);

    if stdio {
        server::serve_stdio(&service);
        service.initiate_shutdown();
    } else {
        let (local, reactor) = match server::spawn_tcp(Arc::clone(&service), &addr) {
            Ok(bound) => bound,
            Err(e) => {
                eprintln!("cgra-serve: cannot serve on {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("listening on {local}");
        // The reactor exits once a `shutdown` command flips the flag.
        if reactor.join().is_err() {
            eprintln!("cgra-serve: reactor panicked");
        }
    }
    service.join_workers();
    eprintln!("cgra-serve: shut down cleanly");
}
