//! The service's newline-delimited JSON wire format.
//!
//! One request per line, one response per line. Graphs travel as the
//! repo's existing text formats embedded in JSON strings
//! ([`cgra_dfg::text`], [`cgra_arch::text`],
//! [`cgra_mapper::text::print_mapping`]), so every artifact on the wire
//! is also directly usable with the offline tools. Durations are
//! integer microseconds; 64-bit hashes are lower-case hex strings.
//!
//! Requests:
//!
//! ```text
//! {"id":"r1","cmd":"map","dfg":"…","arch":"…","ii":1,"options":{…}}
//! {"id":"r2","cmd":"min_ii","dfg":"…","arch":"…","max_ii":4,"options":{…}}
//! {"id":"r3","cmd":"stats"}
//! {"id":"r4","cmd":"shutdown"}
//! ```
//!
//! `map` / `min_ii` requests may carry an optional `deadline_ms` —
//! the client's total latency budget, used for admission shaping (see
//! [`Request::deadline`]).
//!
//! Responses: `{"id":…,"ok":true,"result":…,"served":{…}}` or
//! `{"id":…,"ok":false,"error":{"kind":…,"detail":…}}` — errors may
//! additionally carry `retry_after_ms` (overloaded / shutting_down /
//! unavailable) and `owner_shard` (wrong_shard redirects); both decode
//! tolerantly, so older peers interoperate. The `served`
//! block reports per-response cache provenance (`"hit"`/`"miss"`),
//! MRRG warmth (`"warm"`/`"cold"`) and the solve time, which is how a
//! client observes that a repeated request was answered from the cache
//! with near-zero solve time.
//!
//! Decoding a report needs the graphs it refers to (a mapping is stored
//! as placements/routes over named MRRG nodes), so the `decode_*`
//! functions take the DFG and an MRRG supplier.

use crate::json::{obj, s, Json};
use bilp::{Certificate, EngineStats, IncumbentSource, PresolveStats, SolveStats};
use cgra_dfg::{ContentHasher, Dfg};
use cgra_mapper::{
    text as mapper_text, BuildInfeasible, FormulationStats, IiAttempt, MapOutcome, MapReport,
    MapperOptions, MinIiReport, MinIiTotals, Objective, ObjectiveWeights, VerdictProvenance,
};
use cgra_mrrg::Mrrg;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Typed failure categories a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON.
    Parse,
    /// The request JSON does not match the schema (missing/ill-typed
    /// fields, unknown command, out-of-range values).
    Request,
    /// The embedded DFG text failed to parse.
    Dfg,
    /// The embedded architecture text failed to parse.
    Arch,
    /// Admission control: the work queue is full. Retry later.
    Overloaded,
    /// Sharded fleets: the requested architecture belongs to a
    /// different daemon (`arch_hash % shards != shard_index`). The
    /// client should re-aim at the owning shard.
    WrongShard,
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// Fleet routing: every route to the owning shard is down or its
    /// circuit breaker is open. The request was not attempted (or not
    /// completed); retry after the carried hint.
    Unavailable,
    /// An unexpected internal failure (a worker panic, an I/O error on
    /// the cache directory, …).
    Internal,
}

impl ErrorKind {
    /// The stable wire tag for this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Request => "request",
            ErrorKind::Dfg => "dfg",
            ErrorKind::Arch => "arch",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::WrongShard => "wrong_shard",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed wire error: kind plus human-readable detail, plus optional
/// machine-readable hints (both absent for most kinds — peers decode
/// them tolerantly, so old clients and old servers interoperate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The failure category.
    pub kind: ErrorKind,
    /// Human-readable context.
    pub detail: String,
    /// Load-shedding hint on `overloaded` / `shutting_down` /
    /// `unavailable`: the server's estimate of when a retry is worth
    /// attempting, in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// Typed redirect on `wrong_shard`: the shard index that owns the
    /// request's architecture, so a router or [`crate::Client`] can
    /// re-aim without parsing the human-readable detail.
    pub owner_shard: Option<u32>,
}

impl WireError {
    /// Creates an error of `kind` with `detail` (no hints).
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        WireError {
            kind,
            detail: detail.into(),
            retry_after_ms: None,
            owner_shard: None,
        }
    }

    /// Attaches a retry-after hint (milliseconds).
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Attaches the owning shard index (for `wrong_shard` redirects).
    pub fn with_owner_shard(mut self, shard: u32) -> Self {
        self.owner_shard = Some(shard);
        self
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.detail)
    }
}

impl std::error::Error for WireError {}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: String,
    /// The command.
    pub body: RequestBody,
    /// Optional end-to-end latency budget (`deadline_ms` on the wire):
    /// the total time the client is willing to wait, queueing included.
    /// Admission control refuses a cold request whose deadline cannot
    /// be met given the observed queue wait and solve-time EWMA, rather
    /// than solving it for a client that has already given up. Does not
    /// enter any cache key — it shapes admission, never the answer.
    pub deadline: Option<Duration>,
}

/// The command part of a [`Request`].
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Map a kernel at a fixed II.
    Map {
        /// DFG in [`cgra_dfg::text`] format.
        dfg: String,
        /// Architecture in [`cgra_arch::text`] format.
        arch: String,
        /// Initiation interval (context count), `>= 1`.
        ii: u32,
        /// Per-request mapper options.
        options: MapperOptions,
    },
    /// Minimum-II search over `1..=max_ii`.
    MinIi {
        /// DFG in [`cgra_dfg::text`] format.
        dfg: String,
        /// Architecture in [`cgra_arch::text`] format.
        arch: String,
        /// Largest II to try, `>= 1`.
        max_ii: u32,
        /// Per-request mapper options.
        options: MapperOptions,
    },
    /// Service counters snapshot.
    Stats,
    /// Graceful shutdown: in-flight work finishes (or is cleanly
    /// cancelled), queued and later requests are rejected.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let doc = Json::parse(line).map_err(|e| WireError::new(ErrorKind::Parse, e.to_string()))?;
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(ErrorKind::Request, "missing string field `id`"))?
        .to_owned();
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(ErrorKind::Request, "missing string field `cmd`"))?;
    let body = match cmd {
        "map" => RequestBody::Map {
            dfg: req_str(&doc, "dfg")?,
            arch: req_str(&doc, "arch")?,
            ii: req_ii(&doc, "ii")?,
            options: decode_options(doc.get("options"))?,
        },
        "min_ii" => RequestBody::MinIi {
            dfg: req_str(&doc, "dfg")?,
            arch: req_str(&doc, "arch")?,
            max_ii: req_ii(&doc, "max_ii")?,
            options: decode_options(doc.get("options"))?,
        },
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        other => {
            return Err(WireError::new(
                ErrorKind::Request,
                format!("unknown command `{other}`"),
            ))
        }
    };
    let deadline = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            WireError::new(
                ErrorKind::Request,
                "`deadline_ms` must be null or a non-negative integer",
            )
        })?)),
    };
    Ok(Request { id, body, deadline })
}

fn req_str(doc: &Json, key: &str) -> Result<String, WireError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| WireError::new(ErrorKind::Request, format!("missing string field `{key}`")))
}

fn req_ii(doc: &Json, key: &str) -> Result<u32, WireError> {
    let n = doc.get(key).and_then(Json::as_u64).ok_or_else(|| {
        WireError::new(ErrorKind::Request, format!("missing integer field `{key}`"))
    })?;
    if n == 0 || n > 64 {
        return Err(WireError::new(
            ErrorKind::Request,
            format!("`{key}` must be in 1..=64, got {n}"),
        ));
    }
    Ok(n as u32)
}

/// Renders a success response line. `result` is pre-rendered JSON text,
/// spliced in verbatim — this is what lets the cache replay a stored
/// result byte-for-byte. `served` is omitted for the administrative
/// commands (`stats`, `shutdown`), which bypass the solve pipeline.
pub fn ok_response(id: &str, result: &str, served: Option<&Served>) -> String {
    match served {
        Some(served) => format!(
            "{{\"id\":{},\"ok\":true,\"result\":{},\"served\":{}}}",
            s(id),
            result,
            served.encode()
        ),
        None => format!("{{\"id\":{},\"ok\":true,\"result\":{}}}", s(id), result),
    }
}

/// Renders a failure response line. `id` is `null` when the failure
/// occurred before an id could be read (a JSON parse error).
pub fn error_response(id: Option<&str>, error: &WireError) -> String {
    let id_json = match id {
        Some(id) => s(id),
        None => Json::Null,
    };
    let mut fields = vec![
        ("kind", s(error.kind.as_str())),
        ("detail", s(error.detail.clone())),
    ];
    if let Some(ms) = error.retry_after_ms {
        fields.push(("retry_after_ms", Json::Int(ms as i64)));
    }
    if let Some(shard) = error.owner_shard {
        fields.push(("owner_shard", Json::Int(shard as i64)));
    }
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":{}}}",
        id_json,
        obj(fields)
    )
}

/// Per-response serving diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Whether the result came from the content-addressed cache.
    pub cache_hit: bool,
    /// Whether the MRRG for the request was already built ("warm").
    /// Meaningless (reported `false`) on cache hits — no MRRG is touched.
    pub mrrg_warm: bool,
    /// Whether this response was coalesced onto another identical
    /// in-flight request's solve (it shares that solve's result bytes).
    pub coalesced: bool,
    /// Time the request waited in the admission queue.
    pub wait: Duration,
    /// Time spent solving (near zero on cache hits).
    pub solve: Duration,
}

impl Served {
    fn encode(&self) -> Json {
        obj(vec![
            ("cache", s(if self.cache_hit { "hit" } else { "miss" })),
            ("mrrg", s(if self.mrrg_warm { "warm" } else { "cold" })),
            ("coalesced", Json::Bool(self.coalesced)),
            ("wait_us", Json::Int(self.wait.as_micros() as i64)),
            ("solve_us", Json::Int(self.solve.as_micros() as i64)),
        ])
    }

    /// Reads a `served` block back from a response document. A missing
    /// `coalesced` field (pre-coalescing peers) decodes as `false`.
    pub fn decode(doc: &Json) -> Result<Served, WireError> {
        Ok(Served {
            cache_hit: doc.get("cache").and_then(Json::as_str) == Some("hit"),
            mrrg_warm: doc.get("mrrg").and_then(Json::as_str) == Some("warm"),
            coalesced: doc.get("coalesced").and_then(Json::as_bool) == Some(true),
            wait: member(doc, "wait_us")?,
            solve: member(doc, "solve_us")?,
        })
    }
}

// ---------------------------------------------------------------------
// MapperOptions
// ---------------------------------------------------------------------

/// Declares the option table: each row names a [`MapperOptions`] field,
/// its wire key, its [`Codec`] and whether it enters the cache key
/// (`keyed`) or not (`unkeyed`). Generates [`encode_options`],
/// [`decode_options`] and [`options_fingerprint`], which destructure
/// `MapperOptions` without `..`: a field with no row does not compile.
///
/// A `retired` row keeps a removed option's place in the fingerprint:
/// its last default value is hashed there, so the cache key of every
/// request stayed put when the option went. Its wire key is neither
/// written nor read; a request that still sends it decodes as if it
/// had not.
macro_rules! option_table {
    (@sort [$($live:tt)*] [$($hashed:tt)*]
        $field:ident: $key:literal, $codec:ty, $keyed:ident; $($rest:tt)*) => {
        option_table!(@sort [$($live)* ($field, $key, $codec)]
            [$($hashed)* ($keyed, $codec, $field)] $($rest)*);
    };
    (@sort [$($live:tt)*] [$($hashed:tt)*]
        retired $key:literal, $codec:ty = $value:expr; $($rest:tt)*) => {
        option_table!(@sort [$($live)*] [$($hashed)* (keyed, $codec, $value)] $($rest)*);
    };
    (@sort [$(($field:ident, $key:literal, $codec:ty))*]
        [$(($keyed:ident, $hcodec:ty, $hvalue:expr))*]) => {
        /// Encodes options in full (every field explicit, defaults
        /// included), in table order.
        pub fn encode_options(o: &MapperOptions) -> Json {
            let MapperOptions { $($field),* } = *o;
            obj(vec![$(($key, <$codec as Codec<_>>::encode($field))),*])
        }

        /// Decodes options: absent fields keep their
        /// [`MapperOptions::default`] values, so a request may specify
        /// only what it cares about. `None` / `null` means all defaults.
        pub fn decode_options(doc: Option<&Json>) -> Result<MapperOptions, WireError> {
            let doc = match doc {
                None | Some(Json::Null) => return Ok(MapperOptions::default()),
                Some(doc @ Json::Object(_)) => doc,
                Some(_) => return Err(bad("`options` must be an object")),
            };
            let MapperOptions { $($field),* } = MapperOptions::default();
            $(let $field = match doc.get($key) {
                Some(v) => <$codec as Codec<_>>::decode(v, $key)?,
                None => $field,
            };)*
            Ok(MapperOptions { $($field),* })
        }

        /// A stable digest over every keyed option: two requests that
        /// differ in any of them — verdict-changing or not, down to the
        /// time limit a timeout records — are different cache keys.
        pub fn options_fingerprint(o: &MapperOptions) -> u64 {
            let MapperOptions { $($field),* } = *o;
            let mut h = ContentHasher::new("cgra-serve-options");
            $(option_table!(@hash $keyed, $hcodec, $hvalue, h);)*
            h.finish()
        }
    };
    (@hash keyed, $codec:ty, $value:expr, $h:ident) => {
        <$codec as Codec<_>>::hash($value, &mut $h)
    };
    (@hash unkeyed, $codec:ty, $value:expr, $h:ident) => {
        let _ = $value;
    };
    ($($row:tt)*) => {
        option_table!(@sort [] [] $($row)*);
    };
}

option_table! {
    time_limit:         "time_limit_us",      OptCount,       keyed;
    optimize:           "optimize",           Flag,           keyed;
    objective:          "objective",          ObjectiveCodec, keyed;
    commutativity:      "commutativity",      Flag,           keyed;
    mux_exclusivity:    "mux_exclusivity",    Flag,           keyed;
    redundant_capacity: "redundant_capacity", Flag,           keyed;
    seed:               "seed",               Seed,           keyed;
    warm_start:         "warm_start",         Flag,           keyed;
    threads:            "threads",            Count,          keyed;
    presolve:           "presolve",           Flag,           keyed;
    reach_reduction:    "reach_reduction",    Flag,           keyed;
    conflict_limit:     "conflict_limit",     OptCount,       keyed;
    objective_stop:     "objective_stop",     OptInt,         keyed;
    explain_infeasible: "explain_infeasible", Flag,           keyed;
    certify:            "certify",            Flag,           keyed;
    mem_limit:          "mem_limit",          OptCount,       keyed;
    // The built model is bit-identical at every job count, so requests
    // differing only in build parallelism share one cache entry.
    build_jobs:         "build_jobs",         Count,          unkeyed;
    retired             "anneal_fallback",    Flag = false;
    seed_probes:        "seed_probes",        Count,          keyed;
    retired             "probe_budget_us",    OptCount = None::<Duration>;
}

/// How one option travels: its JSON form, its decoder (`key` names the
/// option in errors) and its bytes in [`options_fingerprint`].
trait Codec<T> {
    fn encode(v: T) -> Json;
    fn decode(v: &Json, key: &str) -> Result<T, WireError>;
    fn hash(v: T, h: &mut ContentHasher);
}

/// `true` / `false`.
struct Flag;
/// A non-negative integer, at most 64 (thread, job and probe counts).
struct Count;
/// `null` or a non-negative integer: a count, or a duration in whole
/// microseconds.
struct OptCount;
/// `null` or any integer.
struct OptInt;
/// `"routing"`, or an object of integer weights; absent weights take
/// their [`ObjectiveWeights::default`] values.
struct ObjectiveCodec;
/// Any `u64`, carried as the two's-complement `i64` the encoder writes.
struct Seed;

impl Codec<bool> for Flag {
    fn encode(v: bool) -> Json {
        Json::Bool(v)
    }
    fn decode(v: &Json, key: &str) -> Result<bool, WireError> {
        v.as_bool()
            .ok_or_else(|| bad(format!("`{key}` must be a boolean")))
    }
    fn hash(v: bool, h: &mut ContentHasher) {
        h.write_u64(v as u64);
    }
}

impl Codec<usize> for Count {
    fn encode(v: usize) -> Json {
        Json::Int(v as i64)
    }
    fn decode(v: &Json, key: &str) -> Result<usize, WireError> {
        match v.as_u64() {
            Some(n) if n <= 64 => Ok(n as usize),
            Some(_) => Err(bad(format!("`{key}` must be <= 64"))),
            None => Err(bad(format!("`{key}` must be a non-negative integer"))),
        }
    }
    fn hash(v: usize, h: &mut ContentHasher) {
        h.write_u64(v as u64);
    }
}

/// `null` as `None`, else what `read` accepts.
fn nullable<T>(
    v: &Json,
    key: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, WireError> {
    match v {
        Json::Null => Ok(None),
        _ => read(v)
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be null or an integer"))),
    }
}

impl<T: Counter> Codec<Option<T>> for OptCount {
    fn encode(v: Option<T>) -> Json {
        v.map_or(Json::Null, |n| n.encode())
    }
    fn decode(v: &Json, key: &str) -> Result<Option<T>, WireError> {
        nullable(v, key, |v| T::decode(Some(v), key).ok())
    }
    fn hash(v: Option<T>, h: &mut ContentHasher) {
        h.write_opt_i64(Self::encode(v).as_i64());
    }
}

impl Codec<Option<i64>> for OptInt {
    fn encode(v: Option<i64>) -> Json {
        v.map_or(Json::Null, Json::Int)
    }
    fn decode(v: &Json, key: &str) -> Result<Option<i64>, WireError> {
        nullable(v, key, Json::as_i64)
    }
    fn hash(v: Option<i64>, h: &mut ContentHasher) {
        h.write_opt_i64(v);
    }
}

impl Codec<Objective> for ObjectiveCodec {
    fn encode(v: Objective) -> Json {
        match v {
            Objective::RoutingResources => s("routing"),
            Objective::Weighted(w) => obj(vec![
                ("wire", Json::Int(w.wire)),
                ("mux", Json::Int(w.mux)),
                ("register", Json::Int(w.register)),
            ]),
        }
    }
    fn decode(v: &Json, key: &str) -> Result<Objective, WireError> {
        match v {
            Json::Str(tag) if tag == "routing" => Ok(Objective::RoutingResources),
            Json::Object(_) => {
                let weight = |name: &str, default: i64| match v.get(name) {
                    None => Ok(default),
                    Some(w) => w
                        .as_i64()
                        .ok_or_else(|| bad(format!("`{key}.{name}` must be an integer"))),
                };
                let d = ObjectiveWeights::default();
                Ok(Objective::Weighted(ObjectiveWeights {
                    wire: weight("wire", d.wire)?,
                    mux: weight("mux", d.mux)?,
                    register: weight("register", d.register)?,
                }))
            }
            _ => Err(bad(format!(
                "`{key}` must be \"routing\" or a weights object"
            ))),
        }
    }
    fn hash(v: Objective, h: &mut ContentHasher) {
        match v {
            Objective::RoutingResources => h.write_str("routing"),
            Objective::Weighted(w) => {
                h.write_str("weighted");
                h.write_i64(w.wire);
                h.write_i64(w.mux);
                h.write_i64(w.register);
            }
        }
    }
}

impl Codec<u64> for Seed {
    fn encode(v: u64) -> Json {
        Json::Int(v as i64)
    }
    fn decode(v: &Json, key: &str) -> Result<u64, WireError> {
        v.as_i64()
            .map(|n| n as u64)
            .ok_or_else(|| bad(format!("`{key}` must be an integer")))
    }
    fn hash(v: u64, h: &mut ContentHasher) {
        h.write_u64(v);
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Encodes a fixed-II mapping report. The mapping itself travels as the
/// offline [`cgra_mapper::text`] format in a string.
pub fn encode_map_report(dfg: &Dfg, mrrg: &Mrrg, report: &MapReport) -> Json {
    let outcome = match &report.outcome {
        MapOutcome::Mapped {
            mapping,
            routing_usage,
            optimal,
        } => obj(vec![
            ("kind", s("mapped")),
            ("routing_usage", Json::Int(*routing_usage as i64)),
            ("optimal", Json::Bool(*optimal)),
            ("mapping", s(mapper_text::print_mapping(dfg, mrrg, mapping))),
        ]),
        MapOutcome::Infeasible { reason } => obj(vec![
            ("kind", s("infeasible")),
            (
                "reason",
                reason.as_ref().map_or(Json::Null, encode_infeasible),
            ),
        ]),
        MapOutcome::Timeout => obj(vec![("kind", s("timeout"))]),
    };
    obj(vec![
        ("outcome", outcome),
        ("elapsed_us", Json::Int(report.elapsed.as_micros() as i64)),
        ("formulation", report.formulation.encode()),
        ("solver", report.solver.encode()),
        (
            "infeasible_core",
            report.infeasible_core.as_ref().map_or(Json::Null, |core| {
                Json::Array(core.iter().map(|g| s(g.clone())).collect())
            }),
        ),
        (
            "certificate",
            report
                .certificate
                .as_ref()
                .map_or(Json::Null, encode_certificate),
        ),
    ])
}

/// Decodes a fixed-II mapping report. `mrrg` must be built for the same
/// architecture and II the report was produced at (mappings reference
/// MRRG nodes by name).
pub fn decode_map_report(dfg: &Dfg, mrrg: &Mrrg, doc: &Json) -> Result<MapReport, WireError> {
    let outcome_doc = doc.get("outcome").ok_or_else(|| bad("missing `outcome`"))?;
    let outcome = match outcome_doc.get("kind").and_then(Json::as_str) {
        Some("mapped") => {
            let text = outcome_doc
                .get("mapping")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("mapped outcome missing `mapping`"))?;
            let mapping = mapper_text::parse_mapping(dfg, mrrg, text)
                .map_err(|e| bad(format!("mapping text: {e}")))?;
            MapOutcome::Mapped {
                mapping,
                routing_usage: outcome_doc
                    .get("routing_usage")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("mapped outcome missing `routing_usage`"))?
                    as usize,
                optimal: outcome_doc
                    .get("optimal")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("mapped outcome missing `optimal`"))?,
            }
        }
        Some("infeasible") => MapOutcome::Infeasible {
            reason: match outcome_doc.get("reason") {
                None | Some(Json::Null) => None,
                Some(r) => Some(decode_infeasible(r)?),
            },
        },
        Some("timeout") => MapOutcome::Timeout,
        _ => return Err(bad("unknown outcome kind")),
    };
    let infeasible_core = match doc.get("infeasible_core") {
        None | Some(Json::Null) => None,
        Some(Json::Array(items)) => Some(
            items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| bad("`infeasible_core` entries must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Some(_) => return Err(bad("`infeasible_core` must be null or an array")),
    };
    let certificate = match doc.get("certificate") {
        None | Some(Json::Null) => None,
        Some(c) => Some(decode_certificate(c)?),
    };
    Ok(MapReport {
        outcome,
        elapsed: member(doc, "elapsed_us")?,
        formulation: member(doc, "formulation")?,
        solver: member(doc, "solver")?,
        infeasible_core,
        certificate,
    })
}

/// Encodes a minimum-II search report. `mrrg_of` supplies the MRRG for
/// each attempted II (mapped attempts print their mapping against it) —
/// typically [`cgra_mapper::Session::mrrg`].
pub fn encode_min_ii_report(
    dfg: &Dfg,
    report: &MinIiReport,
    mut mrrg_of: impl FnMut(u32) -> Arc<Mrrg>,
) -> Json {
    let attempts = report
        .attempts
        .iter()
        .map(|a| {
            let mrrg = mrrg_of(a.ii);
            obj(vec![
                ("ii", Json::Int(a.ii as i64)),
                ("report", encode_map_report(dfg, &mrrg, &a.report)),
                ("provenance", s(a.provenance.label())),
            ])
        })
        .collect();
    obj(vec![
        ("attempts", Json::Array(attempts)),
        (
            "min_ii",
            report.min_ii.map_or(Json::Null, |ii| Json::Int(ii as i64)),
        ),
        (
            "totals",
            obj(vec![
                (
                    "elapsed_us",
                    Json::Int(report.totals.elapsed.as_micros() as i64),
                ),
                (
                    "capacity_shortcuts",
                    Json::Int(report.totals.capacity_shortcuts as i64),
                ),
                ("conflicts", Json::Int(report.totals.conflicts as i64)),
                ("decisions", Json::Int(report.totals.decisions as i64)),
                ("presolve", report.totals.presolve.encode()),
            ]),
        ),
    ])
}

/// Decodes a minimum-II search report (inverse of
/// [`encode_min_ii_report`]).
pub fn decode_min_ii_report(
    dfg: &Dfg,
    doc: &Json,
    mut mrrg_of: impl FnMut(u32) -> Arc<Mrrg>,
) -> Result<MinIiReport, WireError> {
    let attempts = doc
        .get("attempts")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing `attempts` array"))?
        .iter()
        .map(|a| {
            let ii = a
                .get("ii")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("attempt missing `ii`"))? as u32;
            let mrrg = mrrg_of(ii);
            Ok(IiAttempt {
                ii,
                report: decode_map_report(
                    dfg,
                    &mrrg,
                    a.get("report")
                        .ok_or_else(|| bad("attempt missing `report`"))?,
                )?,
                provenance: match a.get("provenance").and_then(Json::as_str) {
                    Some("certified") => VerdictProvenance::Certified,
                    Some("unchecked") => VerdictProvenance::Unchecked,
                    Some("check-failed") => VerdictProvenance::CheckFailed,
                    _ => return Err(bad("attempt has unknown `provenance`")),
                },
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let totals_doc = doc.get("totals").ok_or_else(|| bad("missing `totals`"))?;
    let totals = MinIiTotals {
        elapsed: member(totals_doc, "elapsed_us")?,
        capacity_shortcuts: member(totals_doc, "capacity_shortcuts")?,
        conflicts: member(totals_doc, "conflicts")?,
        decisions: member(totals_doc, "decisions")?,
        presolve: Counter::decode(
            Some(
                totals_doc
                    .get("presolve")
                    .ok_or_else(|| bad("totals missing `presolve`"))?,
            ),
            "presolve",
        )?,
    };
    let min_ii = match doc.get("min_ii") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("`min_ii` must be null or an integer"))? as u32,
        ),
    };
    Ok(MinIiReport {
        attempts,
        min_ii,
        totals,
    })
}

/// Encodes an infeasibility certificate.
pub fn encode_certificate(c: &Certificate) -> Json {
    match c {
        Certificate::Certified { steps, bytes } => obj(vec![
            ("kind", s("certified")),
            ("steps", Json::Int(*steps as i64)),
            ("bytes", Json::Int(*bytes as i64)),
        ]),
        Certificate::Unchecked { reason } => obj(vec![
            ("kind", s("unchecked")),
            ("reason", s(reason.clone())),
        ]),
        Certificate::CheckFailed { detail } => obj(vec![
            ("kind", s("check_failed")),
            ("detail", s(detail.clone())),
        ]),
    }
}

/// Decodes an infeasibility certificate.
pub fn decode_certificate(doc: &Json) -> Result<Certificate, WireError> {
    match doc.get("kind").and_then(Json::as_str) {
        Some("certified") => Ok(Certificate::Certified {
            steps: member(doc, "steps")?,
            bytes: member(doc, "bytes")?,
        }),
        Some("unchecked") => Ok(Certificate::Unchecked {
            reason: get_str(doc, "reason")?,
        }),
        Some("check_failed") => Ok(Certificate::CheckFailed {
            detail: get_str(doc, "detail")?,
        }),
        _ => Err(bad("unknown certificate kind")),
    }
}

fn encode_infeasible(r: &BuildInfeasible) -> Json {
    match r {
        BuildInfeasible::NoCompatibleSlot { op, kind } => obj(vec![
            ("kind", s("no_compatible_slot")),
            ("op", s(op.clone())),
            ("op_kind", s(kind.mnemonic())),
        ]),
        BuildInfeasible::CapacityExceeded { matched, ops } => obj(vec![
            ("kind", s("capacity_exceeded")),
            ("matched", Json::Int(*matched as i64)),
            ("ops", Json::Int(*ops as i64)),
        ]),
        BuildInfeasible::UnroutableSink { from, to } => obj(vec![
            ("kind", s("unroutable_sink")),
            ("from", s(from.clone())),
            ("to", s(to.clone())),
        ]),
    }
}

fn decode_infeasible(doc: &Json) -> Result<BuildInfeasible, WireError> {
    match doc.get("kind").and_then(Json::as_str) {
        Some("no_compatible_slot") => Ok(BuildInfeasible::NoCompatibleSlot {
            op: get_str(doc, "op")?,
            kind: get_str(doc, "op_kind")?
                .parse()
                .map_err(|e| bad(format!("bad op kind: {e}")))?,
        }),
        Some("capacity_exceeded") => Ok(BuildInfeasible::CapacityExceeded {
            matched: member(doc, "matched")?,
            ops: member(doc, "ops")?,
        }),
        Some("unroutable_sink") => Ok(BuildInfeasible::UnroutableSink {
            from: get_str(doc, "from")?,
            to: get_str(doc, "to")?,
        }),
        _ => Err(bad("unknown infeasibility kind")),
    }
}

// ---------------------------------------------------------------------
// Report counters
// ---------------------------------------------------------------------

/// A counter's JSON form (report counters, and the values of optional
/// count and duration options). `decode` gets the member as found
/// (`None` when absent) and names `key` in its error.
trait Counter: Sized {
    fn encode(&self) -> Json;
    fn decode(v: Option<&Json>, key: &str) -> Result<Self, WireError>;
}

/// Declares a counter table: one row per field of a stats struct, giving
/// its wire key and whether decoding is `strict` (an absent or ill-typed
/// member is an error) or `tolerant` (it reads as the default, so peers
/// that predate the field still decode). Generates the struct's
/// [`Counter`] impl, which destructures it without `..`.
macro_rules! counter_table {
    ($ty:ident { $($field:ident: $key:literal, $mode:ident;)* }) => {
        impl Counter for $ty {
            fn encode(&self) -> Json {
                let $ty { $($field),* } = self;
                obj(vec![$(($key, Counter::encode($field))),*])
            }
            fn decode(v: Option<&Json>, key: &str) -> Result<$ty, WireError> {
                let doc = v.ok_or_else(|| bad(format!("missing `{key}`")))?;
                Ok($ty { $($field: counter_table!(@$mode doc, $key)),* })
            }
        }
    };
    (@strict $doc:ident, $key:literal) => {
        Counter::decode($doc.get($key), $key)?
    };
    (@tolerant $doc:ident, $key:literal) => {
        Counter::decode($doc.get($key), $key).unwrap_or_default()
    };
}

counter_table!(EngineStats {
    conflicts:         "conflicts",         strict;
    decisions:         "decisions",         strict;
    propagations:      "propagations",      strict;
    restarts:          "restarts",          strict;
    deleted_clauses:   "deleted_clauses",   strict;
    learnt_clauses:    "learnt_clauses",    strict;
    lbd_total:         "lbd_total",         strict;
    deleted_mid:       "deleted_mid",       strict;
    deleted_local:     "deleted_local",     strict;
    kept_core:         "kept_core",         strict;
    kept_mid:          "kept_mid",          strict;
    kept_local:        "kept_local",        strict;
    imported_clauses:  "imported_clauses",  strict;
    exported_clauses:  "exported_clauses",  strict;
    // Inprocessing counters arrived with the arena engine.
    inprocessings:     "inprocessings",     tolerant;
    vivified_lits:     "vivified_lits",     tolerant;
    subsumed_clauses:  "subsumed_clauses",  tolerant;
    strengthened_lits: "strengthened_lits", tolerant;
    gc_runs:           "gc_runs",           tolerant;
});

counter_table!(PresolveStats {
    vars_before:         "vars_before",         strict;
    vars_after:          "vars_after",          strict;
    constraints_before:  "constraints_before",  strict;
    constraints_after:   "constraints_after",   strict;
    fixed_vars:          "fixed_vars",          strict;
    aliased_vars:        "aliased_vars",        strict;
    removed_constraints: "removed_constraints", strict;
    strengthened:        "strengthened",        strict;
    rounds:              "rounds",              strict;
    elapsed:             "elapsed_us",          strict;
});

counter_table!(FormulationStats {
    f_vars:       "f_vars",       strict;
    r_vars:       "r_vars",       strict;
    rs_vars:      "rs_vars",      strict;
    swap_vars:    "swap_vars",    strict;
    constraints:  "constraints",  strict;
    reach_rounds: "reach_rounds", strict;
});

counter_table!(SolveStats {
    engine:            "engine",            strict;
    incumbents:        "incumbents",        strict;
    elapsed:           "elapsed_us",        strict;
    workers:           "workers",           strict;
    winner:            "winner",            strict;
    presolve:          "presolve",          strict;
    worker_panics:     "worker_panics",     strict;
    // Probe counters arrived with heuristic incumbent seeding.
    probe_workers:     "probe_workers",     tolerant;
    probe_incumbents:  "probe_incumbents",  tolerant;
    bound_tightenings: "bound_tightenings", tolerant;
    incumbent_source:  "incumbent_source",  tolerant;
});

/// Integer counters; a missing or ill-typed member is an error.
macro_rules! int_counter {
    ($($ty:ty),*) => {$(
        impl Counter for $ty {
            fn encode(&self) -> Json {
                Json::Int(*self as i64)
            }
            fn decode(v: Option<&Json>, key: &str) -> Result<$ty, WireError> {
                v.and_then(Json::as_u64)
                    .map(|n| n as $ty)
                    .ok_or_else(|| bad(format!("missing integer field `{key}`")))
            }
        }
    )*};
}

int_counter!(u64, u32, usize);

/// Whole microseconds.
impl Counter for Duration {
    fn encode(&self) -> Json {
        Json::Int(self.as_micros() as i64)
    }
    fn decode(v: Option<&Json>, key: &str) -> Result<Duration, WireError> {
        Ok(Duration::from_micros(u64::decode(v, key)?))
    }
}

/// The portfolio winner: `null` (or absent) when none was recorded.
impl Counter for Option<u32> {
    fn encode(&self) -> Json {
        self.map_or(Json::Null, |w| Json::Int(w as i64))
    }
    fn decode(v: Option<&Json>, key: &str) -> Result<Option<u32>, WireError> {
        match v {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(|n| Some(n as u32))
                .ok_or_else(|| bad(format!("`{key}` must be null or an integer"))),
        }
    }
}

/// `"solver"`, `"heuristic"` or `null`; anything else reads as `null`.
impl Counter for Option<IncumbentSource> {
    fn encode(&self) -> Json {
        match self {
            Some(IncumbentSource::Solver) => s("solver"),
            Some(IncumbentSource::Heuristic) => s("heuristic"),
            None => Json::Null,
        }
    }
    fn decode(v: Option<&Json>, _key: &str) -> Result<Self, WireError> {
        Ok(match v.and_then(Json::as_str) {
            Some("solver") => Some(IncumbentSource::Solver),
            Some("heuristic") => Some(IncumbentSource::Heuristic),
            _ => None,
        })
    }
}

fn bad(detail: impl Into<String>) -> WireError {
    WireError::new(ErrorKind::Request, detail)
}

/// Reads counter member `key` of `doc`.
fn member<T: Counter>(doc: &Json, key: &str) -> Result<T, WireError> {
    T::decode(doc.get(key), key)
}

fn get_str(doc: &Json, key: &str) -> Result<String, WireError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("missing string field `{key}`")))
}
