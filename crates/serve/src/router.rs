//! The fleet front end: shard-aware request routing with retries,
//! backoff and per-shard circuit breakers.
//!
//! A sharded fleet (PR 7's `--shards N`) makes each daemon answer only
//! its own `arch_hash % shards` key range; everything else gets a typed
//! `wrong_shard` error. That is fine for a shard-aware [`crate::Client`]
//! but leaves plain clients stranded, and nothing routes around a dead
//! daemon. The [`Router`] closes both gaps. It speaks the same NDJSON
//! protocol on both sides, so clients need no changes at all:
//!
//! * **routing** — the raw `arch` text is hashed to a shard guess, and
//!   typed `wrong_shard` redirects (which carry the authoritative
//!   `owner_shard`) teach a route memo the true owner, so the router
//!   never needs to parse a graph on the hot path. `parse_arch` trades
//!   that zero-parse forwarding for exact first-try routing (the router
//!   parses the architecture and uses the same content hash the daemons
//!   shard by);
//! * **retries** — transient failures (connect refused, a connection
//!   dying mid-frame, a daemon answering `shutting_down`) are retried
//!   with capped exponential backoff, multiplied by deterministic
//!   jitter from [`cgra_rng::Rng::jitter`] so a knocked-over fleet's
//!   clients do not retry in lockstep. Retries are safe because solves
//!   are idempotent: results are content-addressed and cached, so a
//!   re-sent request at worst hits the cache of the first attempt;
//! * **circuit breaking** — consecutive forward failures open a
//!   per-shard breaker. An open shard is not dialled at all: requests
//!   for it fail fast with a typed `unavailable` error carrying a
//!   `retry_after_ms` hint (the time until the next probe). After
//!   `probe_interval` one request is let through as a half-open probe;
//!   success closes the breaker, failure re-opens it for another
//!   interval. This is what turns a dead daemon from a per-request
//!   connect-timeout tax into a cheap typed refusal, and what converges
//!   back within one probe interval of the daemon restarting;
//! * **response integrity** — each client connection is served by one
//!   thread owning its own upstream connections ([`Upstreams`]), so a
//!   response can only ever flow back along the request's own path;
//!   success responses are forwarded **verbatim** (the same bytes the
//!   daemon sent — the router only inspects lines containing
//!   `"ok":false`, and even then passes all non-routing errors through
//!   untouched).
//!
//! The router holds no result state: it can be restarted freely, and N
//! routers can front the same fleet.

use crate::cache::LruMap;
use crate::client::decode_response;
use crate::json::{obj, s, Json};
use crate::wire::{self, ErrorKind, WireError};
use cgra_dfg::ContentHasher;
use cgra_rng::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Shard addresses in shard-index order: `shards[i]` must be the
    /// daemon started with `--shard i` (the router trusts redirects to
    /// be indices into this list).
    pub shards: Vec<String>,
    /// Parse the architecture and route by its content hash (exact
    /// first-try routing, at parse cost per distinct request text)
    /// instead of the default raw-text-hash guess + redirect learning.
    pub parse_arch: bool,
    /// Attempts per request across transient failures (connect refused,
    /// mid-frame disconnect, `shutting_down`), including the first.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base * 2^(n-1)` (capped at
    /// `backoff_cap`), times a jitter factor in `[0.5, 1.5)`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive forward failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker blocks a shard before letting one
    /// half-open probe through. Also the `retry_after_ms` ceiling on
    /// `unavailable` fast-fails.
    pub probe_interval: Duration,
    /// How long one forward waits for the shard's response line before
    /// counting as a transient failure (bounds a slow-loris or wedged
    /// upstream; solves legitimately take long, so default generously).
    pub upstream_timeout: Duration,
    /// Seed for the retry-jitter generator (determinism in tests).
    pub seed: u64,
    /// Learned arch→shard routes kept (LRU).
    pub routes_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            parse_arch: false,
            max_attempts: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            breaker_threshold: 3,
            probe_interval: Duration::from_millis(500),
            upstream_timeout: Duration::from_secs(330),
            seed: 0x9_0e77,
            routes_capacity: 1024,
        }
    }
}

/// Circuit-breaker state for one shard.
#[derive(Debug)]
enum BreakerState {
    /// Healthy: every request goes through.
    Closed,
    /// Tripped: requests fail fast until `probe_interval` elapses.
    Open { opened_at: Instant },
    /// One probe is in flight; everyone else still fails fast.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
}

/// What the breaker says about dialling a shard right now.
enum Admit {
    /// Forward (possibly as the half-open probe).
    Go,
    /// Fail fast; retry after roughly this many milliseconds.
    No { retry_after_ms: u64 },
}

/// Router throughput/health counters (see [`Router::stats_json`]).
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Requests forwarded (attempts, so retries count again).
    pub forwarded: AtomicU64,
    /// Transient-failure retries performed.
    pub retries: AtomicU64,
    /// `wrong_shard` redirects followed (each teaches the route memo).
    pub redirects: AtomicU64,
    /// Times a shard's breaker opened.
    pub breaker_opens: AtomicU64,
    /// Half-open probes attempted.
    pub breaker_probes: AtomicU64,
    /// Requests refused fast with `unavailable` (breaker open).
    pub fast_fails: AtomicU64,
}

/// The shard-routing front end. See the module docs.
pub struct Router {
    config: RouterConfig,
    breakers: Vec<Mutex<Breaker>>,
    routes: Mutex<LruMap<usize>>,
    rng: Mutex<Rng>,
    shutdown: AtomicBool,
    stats: RouterStats,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.config.shards)
            .field("shutting_down", &self.is_shutting_down())
            .finish()
    }
}

/// Mutex lock tolerating poisoning (a panicking connection thread must
/// not wedge the breaker shared by every other connection).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Router {
    /// Creates a router over `config.shards` (must be non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is empty.
    pub fn new(config: RouterConfig) -> Arc<Router> {
        assert!(!config.shards.is_empty(), "router needs at least one shard");
        let breakers = config
            .shards
            .iter()
            .map(|_| {
                Mutex::new(Breaker {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                })
            })
            .collect();
        Arc::new(Router {
            routes: Mutex::new(LruMap::new(config.routes_capacity.max(16))),
            rng: Mutex::new(Rng::seed_from_u64(config.seed)),
            breakers,
            config,
            shutdown: AtomicBool::new(false),
            stats: RouterStats::default(),
        })
    }

    /// Whether shutdown has been requested (by a `shutdown` command or
    /// [`Router::initiate_shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Asks the accept loop and every connection thread to wind down.
    /// The fleet's daemons are *not* told to shut down — they are
    /// managed independently.
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The router's own counters plus per-shard breaker states, as the
    /// `stats` command's result (`"router":true` distinguishes it from
    /// a daemon's stats block).
    pub fn stats_json(&self) -> Json {
        let counter = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        let shards = self
            .config
            .shards
            .iter()
            .zip(&self.breakers)
            .map(|(addr, breaker)| {
                let b = lock(breaker);
                let state = match b.state {
                    BreakerState::Closed => "closed",
                    BreakerState::Open { .. } => "open",
                    BreakerState::HalfOpen => "half_open",
                };
                obj(vec![
                    ("addr", s(addr.clone())),
                    ("breaker", s(state)),
                    (
                        "consecutive_failures",
                        Json::Int(b.consecutive_failures as i64),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("router", Json::Bool(true)),
            ("forwarded", counter(&self.stats.forwarded)),
            ("retries", counter(&self.stats.retries)),
            ("redirects", counter(&self.stats.redirects)),
            ("breaker_opens", counter(&self.stats.breaker_opens)),
            ("breaker_probes", counter(&self.stats.breaker_probes)),
            ("fast_fails", counter(&self.stats.fast_fails)),
            ("shards", Json::Array(shards)),
            ("shutting_down", Json::Bool(self.is_shutting_down())),
        ])
    }

    /// Routes one request line to its shard and returns the response
    /// line (verbatim daemon bytes on the normal path). `upstreams` is
    /// this client connection's private set of shard connections.
    ///
    /// `stats` and `shutdown` commands are answered by the router
    /// itself; everything else forwards.
    pub fn handle_line(&self, upstreams: &mut Upstreams, line: &str) -> String {
        let doc = Json::parse(line).ok();
        let id = doc
            .as_ref()
            .and_then(|d| d.get("id").and_then(Json::as_str))
            .map(str::to_owned);
        match doc
            .as_ref()
            .and_then(|d| d.get("cmd").and_then(Json::as_str))
        {
            Some("stats") => {
                return wire::ok_response(
                    id.as_deref().unwrap_or(""),
                    &self.stats_json().to_string(),
                    None,
                );
            }
            Some("shutdown") => {
                self.initiate_shutdown();
                return wire::ok_response(
                    id.as_deref().unwrap_or(""),
                    "{\"shutting_down\":true}",
                    None,
                );
            }
            _ => {}
        }
        let (key, mut target) = self.route(doc.as_ref());
        let mut redirects = 0u32;
        let mut attempt = 1u32;
        loop {
            match self.admit(target) {
                Admit::No { retry_after_ms } => {
                    self.stats.fast_fails.fetch_add(1, Ordering::Relaxed);
                    return wire::error_response(
                        id.as_deref(),
                        &WireError::new(
                            ErrorKind::Unavailable,
                            format!(
                                "shard {target} ({}) is unavailable (circuit open)",
                                self.config.shards[target]
                            ),
                        )
                        .with_retry_after(retry_after_ms),
                    );
                }
                Admit::Go => {}
            }
            self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
            match self.forward_once(upstreams, target, line) {
                Ok(response) => {
                    // Cheap integrity-preserving peek: only lines that
                    // can be error envelopes are ever parsed; success
                    // responses pass through byte-identical.
                    if response.contains("\"ok\":false") {
                        if let Err(e) = decode_response(&response) {
                            match e.kind {
                                ErrorKind::WrongShard => {
                                    self.record_success(target);
                                    match e.owner_shard {
                                        Some(o)
                                            if (o as usize) < self.config.shards.len()
                                                && redirects < 2 =>
                                        {
                                            redirects += 1;
                                            self.stats.redirects.fetch_add(1, Ordering::Relaxed);
                                            lock(&self.routes).insert(key, o as usize);
                                            target = o as usize;
                                            continue;
                                        }
                                        // Untyped or out-of-range
                                        // redirect (misconfigured fleet
                                        // list): surface it rather than
                                        // bounce forever.
                                        _ => return response,
                                    }
                                }
                                ErrorKind::ShuttingDown => {
                                    // The daemon answered, but is
                                    // draining: treat like a down shard
                                    // so the breaker learns, and retry —
                                    // a supervisor may restart it.
                                    self.record_failure(target);
                                    upstreams.disconnect(target);
                                    if attempt >= self.config.max_attempts.max(1) {
                                        return response; // typed, carries its own hint
                                    }
                                    attempt += 1;
                                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                                    self.backoff(attempt);
                                    continue;
                                }
                                _ => {} // typed application error: pass through
                            }
                        }
                    }
                    self.record_success(target);
                    return response;
                }
                Err(err) => {
                    self.record_failure(target);
                    upstreams.disconnect(target);
                    if attempt >= self.config.max_attempts.max(1) {
                        return wire::error_response(
                            id.as_deref(),
                            &WireError::new(
                                ErrorKind::Unavailable,
                                format!(
                                    "shard {target} ({}) failed after {attempt} attempts: {err}",
                                    self.config.shards[target]
                                ),
                            )
                            .with_retry_after(self.config.probe_interval.as_millis() as u64),
                        );
                    }
                    attempt += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(attempt);
                }
            }
        }
    }

    /// Picks the starting shard for a request: the learned route if the
    /// memo knows this architecture, else a hash guess (exact content
    /// hash with `parse_arch`, raw text hash otherwise). Requests
    /// without an `arch` (including unparsable lines) go to shard 0,
    /// whose daemon produces the authoritative validation error.
    fn route(&self, doc: Option<&Json>) -> (u64, usize) {
        let n = self.config.shards.len();
        let arch = doc.and_then(|d| d.get("arch").and_then(Json::as_str));
        let Some(arch) = arch else { return (0, 0) };
        let key = {
            let mut h = ContentHasher::new("cgra-serve-route");
            h.write_bytes(arch.as_bytes());
            h.finish()
        };
        if let Some(learned) = lock(&self.routes).get(key) {
            return (key, learned.min(n - 1));
        }
        if self.config.parse_arch {
            if let Ok(parsed) = cgra_arch::text::parse(arch) {
                let exact = (parsed.content_hash() % n as u64) as usize;
                lock(&self.routes).insert(key, exact);
                return (key, exact);
            }
        }
        (key, (key % n as u64) as usize)
    }

    /// Consults shard `i`'s breaker, transitioning Open → HalfOpen when
    /// the probe interval has elapsed.
    fn admit(&self, i: usize) -> Admit {
        let mut b = lock(&self.breakers[i]);
        match b.state {
            BreakerState::Closed => Admit::Go,
            BreakerState::HalfOpen => Admit::No {
                retry_after_ms: self.config.probe_interval.as_millis() as u64,
            },
            BreakerState::Open { opened_at } => {
                let elapsed = opened_at.elapsed();
                if elapsed >= self.config.probe_interval {
                    b.state = BreakerState::HalfOpen;
                    self.stats.breaker_probes.fetch_add(1, Ordering::Relaxed);
                    Admit::Go
                } else {
                    let left = self.config.probe_interval - elapsed;
                    Admit::No {
                        retry_after_ms: (left.as_millis() as u64).max(1),
                    }
                }
            }
        }
    }

    fn record_success(&self, i: usize) {
        let mut b = lock(&self.breakers[i]);
        b.consecutive_failures = 0;
        b.state = BreakerState::Closed;
    }

    fn record_failure(&self, i: usize) {
        let mut b = lock(&self.breakers[i]);
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        match b.state {
            // A failed probe re-opens for a full fresh interval.
            BreakerState::HalfOpen => {
                b.state = BreakerState::Open {
                    opened_at: Instant::now(),
                };
            }
            BreakerState::Closed
                if b.consecutive_failures >= self.config.breaker_threshold.max(1) =>
            {
                b.state = BreakerState::Open {
                    opened_at: Instant::now(),
                };
                self.stats.breaker_opens.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Sends `line` to shard `i` and waits for its response line.
    fn forward_once(
        &self,
        upstreams: &mut Upstreams,
        i: usize,
        line: &str,
    ) -> std::io::Result<String> {
        let conn = upstreams.get_or_connect(i, &self.config.shards[i])?;
        if crate::fault::drop_this_forward() {
            // Chaos hook: a mid-frame disconnect — half the request
            // leaves, then the connection dies. The daemon discards the
            // torn line at EOF (no side effects), so the retry on a
            // fresh connection is the only delivery.
            let _ = conn.stream.write_all(&line.as_bytes()[..line.len() / 2]);
            upstreams.disconnect(i);
            return Err(std::io::Error::other(
                "fault-inject: forward dropped mid-frame",
            ));
        }
        conn.stream.write_all(line.as_bytes())?;
        conn.stream.write_all(b"\n")?;
        conn.read_line(self.config.upstream_timeout, &self.shutdown)
    }

    /// Sleeps the capped, jittered exponential backoff before retry
    /// number `attempt` (>= 2).
    fn backoff(&self, attempt: u32) {
        let exp = 1u32 << (attempt.saturating_sub(2)).min(16);
        let base = self
            .config
            .backoff_base
            .saturating_mul(exp)
            .min(self.config.backoff_cap);
        let jitter = lock(&self.rng).jitter();
        std::thread::sleep(base.mul_f64(jitter));
    }

    /// Accepts client connections on `listener` until shutdown,
    /// spawning one handler thread per connection: the router's work per
    /// line is so small that thread-per-connection is the right trade
    /// here.
    pub fn serve(self: &Arc<Router>, listener: TcpListener) {
        const ACCEPT_POLL: Duration = Duration::from_millis(10);
        let _ = listener.set_nonblocking(true);
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.is_shutting_down() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let router = Arc::clone(self);
                    if let Ok(h) = std::thread::Builder::new()
                        .name("cgra-router-conn".to_owned())
                        .spawn(move || router.serve_connection(stream))
                    {
                        handlers.push(h);
                    }
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    }

    /// Serves one client connection: reads request lines, routes each,
    /// writes the response line. Partial lines re-assemble across read
    /// timeouts.
    fn serve_connection(self: Arc<Router>, stream: TcpStream) {
        const READ_POLL: Duration = Duration::from_millis(100);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = std::io::BufReader::new(stream);
        let mut upstreams = Upstreams::new(self.config.shards.len());
        let mut line = String::new();
        loop {
            use std::io::BufRead;
            match reader.read_line(&mut line) {
                Ok(0) => return,
                Ok(_) => {
                    if !line.ends_with('\n') {
                        continue; // partial: wait for the rest
                    }
                    let request = std::mem::take(&mut line);
                    if request.trim().is_empty() {
                        continue;
                    }
                    let response = self.handle_line(&mut upstreams, request.trim_end());
                    if writer
                        .write_all(response.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        return;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.is_shutting_down() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// Binds `addr` and serves the router until shutdown. Returns the bound
/// address (useful with port 0) and the accept thread handle.
pub fn spawn_router(
    router: Arc<Router>,
    addr: &str,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("cgra-router-accept".to_owned())
        .spawn(move || router.serve(listener))?;
    Ok((local, handle))
}

/// One client connection's private upstream connections, indexed by
/// shard. Keeping these per-client-thread (never shared, never pooled)
/// is the structural guarantee that a response can only travel back
/// along its own request's path — there is no map from which a wrong
/// client could ever be picked.
#[derive(Debug)]
pub struct Upstreams {
    conns: Vec<Option<Upstream>>,
}

#[derive(Debug)]
struct Upstream {
    stream: TcpStream,
    /// Bytes received past the last returned line (normally empty: the
    /// protocol is one response per request).
    buf: Vec<u8>,
}

impl Upstreams {
    /// An empty set for a fleet of `n` shards.
    pub fn new(n: usize) -> Upstreams {
        Upstreams {
            conns: (0..n).map(|_| None).collect(),
        }
    }

    /// Drops shard `i`'s connection (after a failure); the next forward
    /// re-dials.
    fn disconnect(&mut self, i: usize) {
        self.conns[i] = None;
    }

    fn get_or_connect(&mut self, i: usize, addr: &str) -> std::io::Result<&mut Upstream> {
        if self.conns[i].is_none() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            // The read path waits for readiness via the poller; the
            // socket timeout is the backstop that keeps a read woken by
            // a spurious readiness from pinning the thread.
            stream.set_read_timeout(Some(READ_TICK))?;
            self.conns[i] = Some(Upstream {
                stream,
                buf: Vec::new(),
            });
        }
        Ok(self.conns[i].as_mut().expect("just connected"))
    }
}

/// Granularity at which upstream response waits re-check the shutdown
/// flag and the per-request deadline.
const READ_TICK: Duration = Duration::from_millis(100);

impl Upstream {
    /// Reads one response line (without the newline), waiting at most
    /// `timeout`, cancellable by `stop`. Waits on the readiness poller,
    /// so a dead or slow-loris upstream costs one blocked poll, not a
    /// pinned read.
    fn read_line(&mut self, timeout: Duration, stop: &AtomicBool) -> std::io::Result<String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                return String::from_utf8(line).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "response is not UTF-8")
                });
            }
            if stop.load(Ordering::SeqCst) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "router shutting down",
                ));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "upstream response timed out",
                ));
            }
            if !self.await_readable(left.min(READ_TICK), stop)? {
                continue; // tick expired or stop flagged; loop re-checks
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "upstream closed mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Waits up to `within` for the socket to become readable. `true`
    /// means a read will make progress; `false` means try again (the
    /// caller re-checks stop/deadline).
    fn await_readable(&self, within: Duration, stop: &AtomicBool) -> std::io::Result<bool> {
        cgra_par::reactor::wait_readable(self.stream.as_raw_fd(), Some(within), stop, READ_TICK)
    }
}
