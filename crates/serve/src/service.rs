//! The service core: coalesced admission over a bounded worker pool.
//!
//! Transport-independent — the reactor front-end calls
//! [`Service::handle_async`] with a completion callback, and the stdio
//! front-end (plus every test) uses the blocking [`Service::handle`]
//! wrapper. Concurrency model:
//!
//! * submission runs on the *calling* thread. A **line memo** answers a
//!   repeated request before any JSON parse: the line's top-level `id`
//!   string is located by a scan ([`crate::json::split_string_member`])
//!   and the bytes on either side of it are hashed (SipHash under a
//!   per-process key). The memo maps that digest to the content key of
//!   a line that already passed the full parse, the shard check and
//!   content hashing, so a hit goes straight to the result cache and
//!   replies with the new line's id — the warm hot path does no graph
//!   work at all. Only `id` is cut out: a line that differs anywhere
//!   else misses and takes the full parse once. A later per-request
//!   field that does not change the answer (a trace id, say) must be
//!   cut out the same way, or every line carrying it will miss;
//! * **coalescing**: a miss whose content key already has a solve in
//!   flight *attaches* to it instead of enqueueing — K identical
//!   concurrent cold requests cost exactly one solve, and attachees
//!   consume no queue slots (a coalesced storm cannot trip admission
//!   control). Every waiter gets the same rendered `result` bytes,
//!   wrapped in its own response envelope with `coalesced: true` for
//!   the attachees;
//! * a fixed pool of worker threads drains the queue and solves;
//!   admission control is a hard bound on *distinct* queued solves — a
//!   full queue rejects leaders immediately with a typed `overloaded`
//!   error rather than building unbounded backlog;
//! * graceful shutdown flips a flag, fails queued-but-unstarted work
//!   with `shutting_down`, fires the cooperative-cancellation flag of
//!   every in-flight solve, and runs registered
//!   [`Service::on_shutdown`] hooks (the reactor uses one to wake its
//!   poller).
//!
//! Results are cached content-addressed in two tiers (see
//! [`crate::cache`]); MRRGs stay warm in per-architecture [`Session`]s.
//! With `shards > 1` the daemon owns the key range
//! `arch_hash % shards == shard_index` and answers anything else with a
//! typed `wrong_shard` error carrying the owning shard index, so a
//! fleet router can re-aim the request without guessing.
//!
//! # Brownout admission (two priority lanes)
//!
//! The admission path splits traffic into a **warm lane** — cache hits,
//! memo hits and coalesce attaches, which cost microseconds and consume
//! no queue slots — and a **cold lane** of distinct new solves. The
//! warm lane is *always* admitted; only cold leaders pass the load
//! gate, which rejects in three escalating ways (every rejection is a
//! typed `overloaded` error with a `retry_after_ms` hint derived from
//! the solve-time EWMA and current backlog):
//!
//! 1. **deadline shaping** — a cold request carrying `deadline_ms` is
//!    refused up front when predicted queue wait + one solve (from the
//!    observed EWMAs) already exceeds its budget. Refusing costs the
//!    server nothing and saves the client the doomed wait, so this is
//!    the cheapest-to-refuse work and sheds first;
//! 2. **brownout scaling** — when the queue has stayed at or above 3/4
//!    of `queue_capacity` for a full `brownout_window`, the effective
//!    cold capacity steps down (level 1..=3 shrinks it to 3/4, 1/2,
//!    1/4), shedding progressively more cold work while the reactor and
//!    the warm lane keep serving at full speed. The level resets as
//!    soon as the backlog drains below half capacity;
//! 3. **hard bound** — the original queue-full rejection, now with the
//!    same retry hint.

use crate::cache::{request_key, LruMap, ResultCache};
use crate::json::{self, obj, Json};
use crate::wire::{
    self, encode_map_report, encode_min_ii_report, ErrorKind, Request, RequestBody, Served,
    WireError,
};
use cgra_mapper::{MapperOptions, Session};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Completion callback for one request: receives the full response line
/// (without a trailing newline). Called exactly once, possibly from a
/// worker thread.
pub type Responder = Box<dyn FnOnce(String) + Send>;

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Solver worker threads (the pool's parallelism).
    pub workers: usize,
    /// Admission bound: distinct solves queued beyond in-flight capacity
    /// before new leaders are rejected with `overloaded` (coalesced
    /// attachees are always admitted).
    pub queue_capacity: usize,
    /// In-memory result-cache entries.
    pub result_capacity: usize,
    /// Warm sessions kept (one per distinct architecture).
    pub session_capacity: usize,
    /// Optional persistent cache directory (segment write-through +
    /// read-back; see [`crate::segment`]).
    pub cache_dir: Option<PathBuf>,
    /// Open the persistent tier read-only: serve hits from a segment
    /// another daemon owns, never write to it.
    pub cache_read_only: bool,
    /// Server-side ceiling applied to every request's `time_limit` (a
    /// request may ask for less, never more). `None` = no ceiling.
    pub deadline: Option<Duration>,
    /// Fleet shard count (1 = unsharded).
    pub shards: u32,
    /// This daemon's shard index in `0..shards`: it owns architectures
    /// with `content_hash % shards == shard_index`.
    pub shard_index: u32,
    /// How long the queue must stay at or above 3/4 of
    /// `queue_capacity` before the brownout level increments (each
    /// further full window steps the level again, up to 3). Shorter =
    /// twitchier shedding; longer = more tolerance for bursts.
    pub brownout_window: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            result_capacity: 256,
            session_capacity: 8,
            cache_dir: None,
            cache_read_only: false,
            deadline: Some(Duration::from_secs(300)),
            shards: 1,
            shard_index: 0,
            brownout_window: Duration::from_millis(500),
        }
    }
}

/// Observed-load state backing brownout admission: EWMAs of solve time
/// and queue wait (fixed-point microseconds, alpha 0.2) plus the
/// sustained-occupancy brownout level.
#[derive(Debug, Default)]
struct LoadTracker {
    solve_ewma_us: AtomicU64,
    wait_ewma_us: AtomicU64,
    brownout: Mutex<BrownoutState>,
    shed_deadline: AtomicU64,
    shed_brownout: AtomicU64,
}

#[derive(Debug, Default)]
struct BrownoutState {
    /// When occupancy first crossed the 3/4 threshold, if still above.
    above_since: Option<Instant>,
    level: u32,
}

/// EWMA with alpha = 0.2: `new = old + (sample - old) / 5`. Seeded
/// directly by the first sample so early hints are not dragged toward
/// zero.
fn ewma_update(cell: &AtomicU64, sample_us: u64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
        Some(if old == 0 {
            sample_us.max(1)
        } else {
            let delta = (sample_us as i64 - old as i64) / 5;
            (old as i64 + delta).max(1) as u64
        })
    });
}

impl LoadTracker {
    /// Re-evaluates the brownout level for the current queue depth and
    /// returns it. Level `L` is how many full `window`s occupancy has
    /// stayed at or above 3/4 capacity (capped at 3); it resets to 0
    /// once the backlog drains below half capacity.
    fn update_level(&self, queued: usize, capacity: usize, window: Duration) -> u32 {
        let mut st = lock(&self.brownout);
        let threshold = (capacity * 3 / 4).max(1);
        if queued >= threshold {
            let now = Instant::now();
            let since = *st.above_since.get_or_insert(now);
            let windows = now
                .saturating_duration_since(since)
                .as_nanos()
                .checked_div(window.as_nanos().max(1))
                .unwrap_or(0);
            st.level = st.level.max((windows as u32).min(3));
        } else if queued <= capacity / 2 {
            st.above_since = None;
            st.level = 0;
        }
        // Between half and 3/4 capacity: hold the current level
        // (hysteresis), but the clock toward the next level keeps
        // running only while actually above the threshold.
        st.level
    }

    /// How long a client should wait before retrying, from the solve
    /// EWMA and the backlog it would sit behind. Clamped to keep hints
    /// useful even before any solve has been observed.
    fn retry_hint_ms(&self, queued: usize, workers: usize) -> u64 {
        let per_solve = self.solve_ewma_us.load(Ordering::Relaxed).max(10_000);
        let rounds = (queued as u64) / workers.max(1) as u64 + 1;
        (per_solve.saturating_mul(rounds) / 1_000).clamp(25, 30_000)
    }

    /// Predicted microseconds until a newly-enqueued solve completes:
    /// queue wait (whole rounds of the pool ahead of it) plus its own
    /// solve. Zero until the first solve lands (no data, no shaping).
    fn predicted_completion_us(&self, queued: usize, workers: usize) -> u64 {
        let per_solve = self.solve_ewma_us.load(Ordering::Relaxed);
        let rounds = (queued as u64) / workers.max(1) as u64 + 1;
        per_solve.saturating_mul(rounds)
    }
}

/// One party waiting on a solve: the leader that enqueued it plus any
/// requests that coalesced onto it.
struct Waiter {
    id: String,
    arrival: Instant,
    coalesced: bool,
    respond: Responder,
}

/// A fully-validated solve owned by the worker pool. Parsing and
/// session lookup happened at submission, so workers only solve.
struct Solve {
    key: u64,
    cmd: &'static str,
    dfg: cgra_dfg::Dfg,
    ii: u32,
    options: MapperOptions,
    session: Arc<Session>,
    mrrg_warm: bool,
}

/// Front-end health counters, shared with the TCP reactor (all zeros
/// when the service only serves stdio). Exposed through `stats`.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Connections currently open.
    pub connections_open: AtomicU64,
    /// Connections accepted since start.
    pub connections_accepted: AtomicU64,
    /// Request frames reassembled from the byte stream.
    pub frames: AtomicU64,
    /// Times a connection's write buffer crossed the high watermark and
    /// paused read interest (backpressure engaged).
    pub backpressure_events: AtomicU64,
    /// Completions dropped because their connection slot was reused (or
    /// freed) before the solve finished. Each one is a response that
    /// would have been cross-delivered to the wrong client without the
    /// generation check — the chaos suites assert the check by watching
    /// this stay consistent with the kills they inject.
    pub stale_completions: AtomicU64,
}

struct Inner {
    config: ServiceConfig,
    queue: Mutex<VecDeque<Solve>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// key -> waiters of the one in-flight (queued or solving) solve for
    /// that key. Lock order: `pending` before `queue`.
    pending: Mutex<HashMap<u64, Vec<Waiter>>>,
    in_flight: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    next_job: AtomicU64,
    sessions: Mutex<LruMap<Arc<Session>>>,
    results: Mutex<ResultCache>,
    /// Line memo: [`Inner::line_key`] -> content key, written only after
    /// a full parse + shard validation — a memo hit is pre-validated.
    memo: Mutex<LruMap<u64>>,
    /// Per-process SipHash key of [`Inner::line_key`].
    line_hasher: RandomState,
    hooks: Mutex<Vec<Box<dyn Fn() + Send>>>,
    reactor: Arc<ReactorStats>,
    load: LoadTracker,
    requests: AtomicU64,
    /// Requests answered from the line memo, without a JSON parse.
    memo_hits: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    coalesced: AtomicU64,
    solves: AtomicU64,
}

/// The mapping service: shared state plus its worker pool.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.inner.config)
            .field("shutting_down", &self.is_shutting_down())
            .finish()
    }
}

impl Service {
    /// Starts a service: spawns `config.workers` solver threads.
    pub fn start(config: ServiceConfig) -> Arc<Service> {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            results: Mutex::new(ResultCache::with_mode(
                config.result_capacity,
                config.cache_dir.clone(),
                config.cache_read_only,
            )),
            sessions: Mutex::new(LruMap::new(config.session_capacity)),
            memo: Mutex::new(LruMap::new(config.result_capacity.max(64))),
            line_hasher: RandomState::new(),
            config,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            pending: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            hooks: Mutex::new(Vec::new()),
            reactor: Arc::new(ReactorStats::default()),
            load: LoadTracker::default(),
            requests: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            solves: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cgra-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Arc::new(Service {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Whether graceful shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// The front-end health counters (shared with the TCP reactor).
    pub fn reactor_stats(&self) -> Arc<ReactorStats> {
        Arc::clone(&self.inner.reactor)
    }

    /// Registers a hook run once when graceful shutdown is initiated
    /// (after queued work is failed and in-flight solves are
    /// cancelled). The reactor registers its poller waker here so a
    /// `shutdown` arriving on connection A also stops the event loop.
    pub fn on_shutdown(&self, hook: impl Fn() + Send + 'static) {
        lock(&self.inner.hooks).push(Box::new(hook));
    }

    /// Handles one request line, blocking until the response line is
    /// ready (no trailing newline). Never panics on malformed input.
    pub fn handle(&self, line: &str) -> String {
        let (tx, rx) = mpsc::channel();
        self.handle_async(
            line,
            Box::new(move |response| {
                let _ = tx.send(response);
            }),
        );
        rx.recv().unwrap_or_else(|_| {
            wire::error_response(
                None,
                &WireError::new(ErrorKind::Internal, "service dropped the request"),
            )
        })
    }

    /// Handles one request line, delivering the response line through
    /// `respond` — immediately on the calling thread for parse errors,
    /// `stats`, `shutdown`, cache hits and rejections; from a worker
    /// thread once the solve finishes otherwise. `respond` is called
    /// exactly once.
    pub fn handle_async(&self, line: &str, respond: Responder) {
        let inner = &self.inner;
        let split = json::split_string_member(line, "id");
        let line_key = split
            .as_ref()
            .map(|(before, _, after)| inner.line_key(before, after));
        let memoized = line_key.and_then(|k| lock(&inner.memo).get(k));
        let respond = match (memoized, split) {
            (Some(key), Some((_, id, _))) => match answer_memoized(inner, key, &id, respond) {
                Some(respond) => respond,
                None => return,
            },
            _ => respond,
        };
        let request = match wire::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                // Salvage the id for the error reply when the line was
                // valid JSON but schema-invalid.
                let id = Json::parse(line)
                    .ok()
                    .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_owned));
                respond(wire::error_response(id.as_deref(), &e));
                return;
            }
        };
        match request.body {
            RequestBody::Stats => {
                let text = self.stats_json().to_string();
                respond(wire::ok_response(&request.id, &text, None));
            }
            RequestBody::Shutdown => {
                self.initiate_shutdown();
                respond(wire::ok_response(
                    &request.id,
                    "{\"shutting_down\":true}",
                    None,
                ));
            }
            RequestBody::Map { .. } | RequestBody::MinIi { .. } => {
                submit(inner, request, line_key, respond);
            }
        }
    }

    /// Initiates graceful shutdown: queued-but-unstarted requests are
    /// failed with `shutting_down`, in-flight solves are cooperatively
    /// cancelled (they respond with a clean timeout report), workers
    /// exit once drained, and shutdown hooks run. Idempotent.
    pub fn initiate_shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut orphans: Vec<Waiter> = Vec::new();
        {
            let mut pending = lock(&self.inner.pending);
            let mut queue = lock(&self.inner.queue);
            for solve in queue.drain(..) {
                orphans.extend(pending.remove(&solve.key).unwrap_or_default());
            }
        }
        for w in orphans {
            (w.respond)(wire::error_response(Some(&w.id), &shutting_down()));
        }
        for flag in lock(&self.inner.in_flight).values() {
            flag.store(true, Ordering::SeqCst);
        }
        self.inner.available.notify_all();
        for hook in lock(&self.inner.hooks).iter() {
            hook();
        }
    }

    /// Blocks until every worker has exited. Call after
    /// [`Service::initiate_shutdown`].
    pub fn join_workers(&self) {
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// The service counters as a JSON object (the `stats` command's
    /// result).
    pub fn stats_json(&self) -> Json {
        let (mrrg_builds, mrrg_hits, sessions) = {
            let sessions = lock(&self.inner.sessions);
            let mut builds = 0;
            let mut hits = 0;
            for s in sessions.values() {
                let st = s.stats();
                builds += st.mrrg_builds;
                hits += st.mrrg_hits;
            }
            (builds, hits, sessions.len())
        };
        let (result_entries, disk_hits, segment_entries) = {
            let results = lock(&self.inner.results);
            (
                results.len(),
                results.disk_hits(),
                results.segment_stats().map_or(0, |s| s.entries),
            )
        };
        let counter = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        obj(vec![
            ("requests", counter(&self.inner.requests)),
            ("memo_hits", counter(&self.inner.memo_hits)),
            ("cache_hits", counter(&self.inner.cache_hits)),
            ("cache_misses", counter(&self.inner.cache_misses)),
            ("cache_disk_hits", Json::Int(disk_hits as i64)),
            ("segment_entries", Json::Int(segment_entries as i64)),
            ("rejected", counter(&self.inner.rejected)),
            ("shed_deadline", counter(&self.inner.load.shed_deadline)),
            ("shed_brownout", counter(&self.inner.load.shed_brownout)),
            (
                "brownout_level",
                Json::Int(lock(&self.inner.load.brownout).level as i64),
            ),
            ("solve_ewma_us", counter(&self.inner.load.solve_ewma_us)),
            ("wait_ewma_us", counter(&self.inner.load.wait_ewma_us)),
            ("coalesced", counter(&self.inner.coalesced)),
            ("solves", counter(&self.inner.solves)),
            ("result_entries", Json::Int(result_entries as i64)),
            ("sessions", Json::Int(sessions as i64)),
            ("mrrg_builds", Json::Int(mrrg_builds as i64)),
            ("mrrg_hits", Json::Int(mrrg_hits as i64)),
            (
                "workers",
                Json::Int(self.inner.config.workers.max(1) as i64),
            ),
            ("queued", Json::Int(lock(&self.inner.queue).len() as i64)),
            (
                "in_flight",
                Json::Int(lock(&self.inner.in_flight).len() as i64),
            ),
            (
                "pending_keys",
                Json::Int(lock(&self.inner.pending).len() as i64),
            ),
            ("shards", Json::Int(self.inner.config.shards.max(1) as i64)),
            ("shard", Json::Int(self.inner.config.shard_index as i64)),
            (
                "connections_open",
                counter(&self.inner.reactor.connections_open),
            ),
            (
                "connections_accepted",
                counter(&self.inner.reactor.connections_accepted),
            ),
            ("frames", counter(&self.inner.reactor.frames)),
            (
                "backpressure_events",
                counter(&self.inner.reactor.backpressure_events),
            ),
            (
                "stale_completions",
                counter(&self.inner.reactor.stale_completions),
            ),
            ("shutting_down", Json::Bool(self.is_shutting_down())),
        ])
    }
}

impl Inner {
    /// The line memo's key: a digest of the request line with its `id`
    /// token cut out. `before` ends where the token starts, so its
    /// length pins the cut and two lines share a key only when they
    /// differ in nothing but the id.
    fn line_key(&self, before: &str, after: &str) -> u64 {
        let mut h = self.line_hasher.build_hasher();
        h.write_usize(before.len());
        h.write(before.as_bytes());
        h.write(after.as_bytes());
        h.finish()
    }
}

/// Mutex lock that survives a poisoned worker (a panicked solve must
/// not wedge the whole service).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Tries to answer from the result cache, else to attach to an
/// in-flight solve for `key`. Returns the responder untouched when
/// neither applies (the caller continues toward becoming a leader).
fn try_fast_path(inner: &Inner, key: u64, id: &str, respond: Responder) -> Option<Responder> {
    let lookup = Instant::now();
    let hit = lock(&inner.results).get(key);
    if let Some((text, _tier)) = hit {
        inner.cache_hits.fetch_add(1, Ordering::Relaxed);
        let served = Served {
            cache_hit: true,
            mrrg_warm: false,
            coalesced: false,
            wait: Duration::ZERO,
            solve: lookup.elapsed(),
        };
        respond(wire::ok_response(id, &text, Some(&served)));
        return None;
    }
    let mut pending = lock(&inner.pending);
    if let Some(waiters) = pending.get_mut(&key) {
        inner.coalesced.fetch_add(1, Ordering::Relaxed);
        waiters.push(Waiter {
            id: id.to_owned(),
            arrival: Instant::now(),
            coalesced: true,
            respond,
        });
        return None;
    }
    Some(respond)
}

/// Fixed retry hint attached to `shutting_down` rejections: long enough
/// for a supervisor restart to land, short enough that clients re-probe
/// promptly.
const SHUTDOWN_RETRY_MS: u64 = 1_000;

fn shutting_down() -> WireError {
    WireError::new(ErrorKind::ShuttingDown, "service is shutting down")
        .with_retry_after(SHUTDOWN_RETRY_MS)
}

/// Answers a line the memo knows (content key `key`) without parsing
/// it: a shutdown refusal, a cache hit or an attach to the in-flight
/// solve. Returns the responder when the result has left the cache and
/// nothing is in flight; the caller then takes the full parse, which
/// counts the request.
fn answer_memoized(inner: &Inner, key: u64, id: &str, respond: Responder) -> Option<Responder> {
    if inner.shutdown.load(Ordering::SeqCst) {
        inner.requests.fetch_add(1, Ordering::Relaxed);
        respond(wire::error_response(Some(id), &shutting_down()));
        return None;
    }
    let respond = try_fast_path(inner, key, id, respond);
    if respond.is_none() {
        inner.requests.fetch_add(1, Ordering::Relaxed);
        inner.memo_hits.fetch_add(1, Ordering::Relaxed);
    }
    respond
}

/// The cold-lane load gate: decides whether a new leader may take a
/// queue slot given the current backlog, returning the typed refusal
/// when it may not. Called with `pending` and `queue` held, so it must
/// stay cheap — EWMA loads and one short brownout-state lock.
fn admit_cold(inner: &Inner, queued: usize, deadline: Option<Duration>) -> Option<WireError> {
    let config = &inner.config;
    let workers = config.workers.max(1);
    let load = &inner.load;

    // Deadline shaping: refuse work that is already doomed. Predicted
    // completion is queue wait plus one solve from the observed EWMA;
    // until a first solve lands there is no data and no shaping.
    if let Some(budget) = deadline {
        let predicted_us = load.predicted_completion_us(queued, workers);
        if predicted_us > 0 && u128::from(predicted_us) > budget.as_micros() {
            load.shed_deadline.fetch_add(1, Ordering::Relaxed);
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Some(
                WireError::new(
                    ErrorKind::Overloaded,
                    format!(
                        "deadline_ms {} cannot be met (predicted ~{} ms queue wait + solve)",
                        budget.as_millis(),
                        predicted_us / 1_000
                    ),
                )
                .with_retry_after(load.retry_hint_ms(queued, workers)),
            );
        }
    }

    // Brownout-scaled capacity bound (level 0 is the plain hard bound).
    let level = load.update_level(queued, config.queue_capacity, config.brownout_window);
    let effective = (config.queue_capacity * (4 - level as usize) / 4).max(1);
    if queued >= effective {
        if level > 0 {
            load.shed_brownout.fetch_add(1, Ordering::Relaxed);
        }
        inner.rejected.fetch_add(1, Ordering::Relaxed);
        let detail = if level > 0 {
            format!(
                "brownout level {level}: cold admission reduced to {effective} of {} slots",
                config.queue_capacity
            )
        } else {
            format!(
                "queue full ({} pending); retry later",
                config.queue_capacity
            )
        };
        return Some(
            WireError::new(ErrorKind::Overloaded, detail)
                .with_retry_after(load.retry_hint_ms(queued, workers)),
        );
    }
    None
}

/// Submission of a parsed request the line memo did not answer: runs on
/// the calling thread (reactor or stdio), parses both graphs, records
/// the line under `line_key` once the request is validated, answers
/// cache hits inline, coalesces onto in-flight solves, and enqueues a
/// leader otherwise.
fn submit(inner: &Arc<Inner>, request: Request, line_key: Option<u64>, respond: Responder) {
    inner.requests.fetch_add(1, Ordering::Relaxed);
    let id = request.id;
    let deadline = request.deadline;
    if inner.shutdown.load(Ordering::SeqCst) {
        respond(wire::error_response(Some(&id), &shutting_down()));
        return;
    }
    let (cmd, dfg_text, arch_text, ii, mut options): (&'static str, _, _, _, _) = match request.body
    {
        RequestBody::Map {
            dfg,
            arch,
            ii,
            options,
        } => ("map", dfg, arch, ii, options),
        RequestBody::MinIi {
            dfg,
            arch,
            max_ii,
            options,
        } => ("min_ii", dfg, arch, max_ii, options),
        _ => unreachable!("stats/shutdown are handled inline"),
    };

    // Server-side deadline: a request may ask for less time, never
    // more. Applied before any fingerprinting so the ceiled options are
    // what every cache key sees.
    if let Some(ceiling) = inner.config.deadline {
        options.time_limit = Some(options.time_limit.map_or(ceiling, |t| t.min(ceiling)));
    }

    let dfg = match cgra_dfg::text::parse(&dfg_text) {
        Ok(d) => d,
        Err(e) => {
            respond(wire::error_response(
                Some(&id),
                &WireError::new(ErrorKind::Dfg, e.to_string()),
            ));
            return;
        }
    };
    let arch = match cgra_arch::text::parse(&arch_text) {
        Ok(a) => a,
        Err(e) => {
            respond(wire::error_response(
                Some(&id),
                &WireError::new(ErrorKind::Arch, e.to_string()),
            ));
            return;
        }
    };
    let dfg_hash = dfg.content_hash();
    let arch_hash = arch.content_hash();

    let shards = inner.config.shards.max(1) as u64;
    let owned = arch_hash % shards;
    if owned != inner.config.shard_index as u64 {
        respond(wire::error_response(
            Some(&id),
            &WireError::new(
                ErrorKind::WrongShard,
                format!(
                    "architecture belongs to shard {owned} of {shards}, this daemon is shard {}",
                    inner.config.shard_index
                ),
            )
            .with_owner_shard(owned as u32),
        ));
        return;
    }

    let key = request_key(cmd, dfg_hash, arch_hash, ii, &options);
    // Only a validated, correctly-sharded request earns a memo entry.
    if let Some(line_key) = line_key {
        lock(&inner.memo).insert(line_key, key);
    }
    let Some(respond) = try_fast_path(inner, key, &id, respond) else {
        return;
    };

    let session = {
        let mut sessions = lock(&inner.sessions);
        match sessions.get(arch_hash) {
            Some(s) => s,
            None => {
                let s = Arc::new(Session::new(arch, MapperOptions::default()));
                sessions.insert(arch_hash, Arc::clone(&s));
                s
            }
        }
    };
    let mrrg_warm = session.is_warm(if cmd == "map" { ii } else { 1 });

    let waiter = Waiter {
        id,
        arrival: Instant::now(),
        coalesced: false,
        respond,
    };
    {
        let mut pending = lock(&inner.pending);
        // Another leader may have appeared since the fast-path check.
        if let Some(waiters) = pending.get_mut(&key) {
            inner.coalesced.fetch_add(1, Ordering::Relaxed);
            waiters.push(waiter);
            return;
        }
        let mut queue = lock(&inner.queue);
        if inner.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            drop(pending);
            (waiter.respond)(wire::error_response(Some(&waiter.id), &shutting_down()));
            return;
        }
        // Cold-lane load gate (warm traffic never reaches this point —
        // hits and attaches were answered above without a queue slot).
        if let Some(refusal) = admit_cold(inner, queue.len(), deadline) {
            drop(queue);
            drop(pending);
            (waiter.respond)(wire::error_response(Some(&waiter.id), &refusal));
            return;
        }
        inner.cache_misses.fetch_add(1, Ordering::Relaxed);
        pending.insert(key, vec![waiter]);
        queue.push_back(Solve {
            key,
            cmd,
            dfg,
            ii,
            options,
            session,
            mrrg_warm,
        });
    }
    inner.available.notify_one();
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let solve = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(solve) = queue.pop_front() {
                    break solve;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let key = solve.key;
        // Fault isolation: a panicking solve answers `internal` to every
        // waiter and the worker lives on to serve the next request.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(inner, solve)));
        if let Err(panic) = outcome {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_owned());
            let waiters = lock(&inner.pending).remove(&key).unwrap_or_default();
            for w in waiters {
                (w.respond)(wire::error_response(
                    Some(&w.id),
                    &WireError::new(ErrorKind::Internal, detail.clone()),
                ));
            }
        }
    }
}

/// Unregisters an in-flight interrupt flag even if the solve panics.
struct InFlightGuard<'a> {
    inner: &'a Inner,
    serial: u64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        lock(&self.inner.in_flight).remove(&self.serial);
    }
}

fn execute(inner: &Arc<Inner>, solve: Solve) {
    // Register the cancellation flag so graceful shutdown reaches this
    // solve; the guard unregisters even on panic.
    let interrupt = Arc::new(AtomicBool::new(false));
    let serial = inner.next_job.fetch_add(1, Ordering::Relaxed);
    lock(&inner.in_flight).insert(serial, Arc::clone(&interrupt));
    let _guard = InFlightGuard { inner, serial };
    if inner.shutdown.load(Ordering::SeqCst) {
        interrupt.store(true, Ordering::SeqCst);
    }

    // Chaos hook: under an installed fault plan this solve may panic
    // here, exercising the worker-pool isolation path (compiles to
    // nothing without the `fault-inject` feature).
    crate::fault::on_solve();

    let solve_started = Instant::now();
    let result = match solve.cmd {
        "map" => {
            let report = solve.session.map_with(
                &solve.dfg,
                solve.ii,
                solve.options,
                Some(Arc::clone(&interrupt)),
            );
            encode_map_report(&solve.dfg, &solve.session.mrrg(solve.ii), &report)
        }
        _ => {
            let report = solve.session.min_ii_with(
                &solve.dfg,
                solve.ii,
                solve.options,
                Some(Arc::clone(&interrupt)),
            );
            encode_min_ii_report(&solve.dfg, &report, |ii| solve.session.mrrg(ii))
        }
    };
    let solve_time = solve_started.elapsed();
    let text = result.to_string();
    inner.solves.fetch_add(1, Ordering::Relaxed);
    ewma_update(&inner.load.solve_ewma_us, solve_time.as_micros() as u64);

    // A cancelled solve's timeout says "the service was told to stop",
    // not "this instance needs this long" — never cache it.
    if !interrupt.load(Ordering::SeqCst) {
        lock(&inner.results).insert(solve.key, text.clone());
    }

    // Fan out: every waiter gets the same result bytes in its own
    // envelope. Taking the pending entry ends the coalescing window —
    // later identical requests hit the cache instead.
    let waiters = lock(&inner.pending).remove(&solve.key).unwrap_or_default();
    for w in waiters {
        let wait = solve_started.saturating_duration_since(w.arrival);
        if !w.coalesced {
            // Only the leader's wait measures queue delay (an attachee
            // may have arrived long after the solve started).
            ewma_update(&inner.load.wait_ewma_us, wait.as_micros() as u64);
        }
        let served = Served {
            cache_hit: false,
            mrrg_warm: solve.mrrg_warm,
            coalesced: w.coalesced,
            wait,
            solve: solve_time,
        };
        (w.respond)(wire::ok_response(&w.id, &text, Some(&served)));
    }
}
