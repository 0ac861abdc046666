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
use cgra_dfg::Dfg;
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
            wait: get_duration(doc, "wait_us")?,
            solve: get_duration(doc, "solve_us")?,
        })
    }
}

// ---------------------------------------------------------------------
// MapperOptions
// ---------------------------------------------------------------------

/// Encodes options in full (every field explicit, defaults included).
pub fn encode_options(o: &MapperOptions) -> Json {
    let objective = match o.objective {
        Objective::RoutingResources => s("routing"),
        Objective::Weighted(w) => obj(vec![
            ("wire", Json::Int(w.wire)),
            ("mux", Json::Int(w.mux)),
            ("register", Json::Int(w.register)),
        ]),
    };
    obj(vec![
        (
            "time_limit_us",
            match o.time_limit {
                Some(d) => Json::Int(d.as_micros() as i64),
                None => Json::Null,
            },
        ),
        ("optimize", Json::Bool(o.optimize)),
        ("objective", objective),
        ("commutativity", Json::Bool(o.commutativity)),
        ("mux_exclusivity", Json::Bool(o.mux_exclusivity)),
        ("redundant_capacity", Json::Bool(o.redundant_capacity)),
        ("seed", Json::Int(o.seed as i64)),
        ("warm_start", Json::Bool(o.warm_start)),
        ("threads", Json::Int(o.threads as i64)),
        ("presolve", Json::Bool(o.presolve)),
        ("reach_reduction", Json::Bool(o.reach_reduction)),
        (
            "conflict_limit",
            o.conflict_limit.map_or(Json::Null, |n| Json::Int(n as i64)),
        ),
        (
            "objective_stop",
            o.objective_stop.map_or(Json::Null, Json::Int),
        ),
        ("explain_infeasible", Json::Bool(o.explain_infeasible)),
        ("certify", Json::Bool(o.certify)),
        (
            "mem_limit",
            o.mem_limit.map_or(Json::Null, |n| Json::Int(n as i64)),
        ),
        ("build_jobs", Json::Int(o.build_jobs as i64)),
        ("anneal_fallback", Json::Bool(o.anneal_fallback)),
        ("seed_probes", Json::Int(o.seed_probes as i64)),
        (
            "probe_budget_us",
            match o.probe_budget {
                Some(d) => Json::Int(d.as_micros() as i64),
                None => Json::Null,
            },
        ),
    ])
}

/// Decodes options: absent fields keep their [`MapperOptions::default`]
/// values, so a request may specify only what it cares about. `None` /
/// absent object means all defaults.
pub fn decode_options(doc: Option<&Json>) -> Result<MapperOptions, WireError> {
    let mut o = MapperOptions::default();
    let doc = match doc {
        None => return Ok(o),
        Some(Json::Null) => return Ok(o),
        Some(d) => d,
    };
    if !matches!(doc, Json::Object(_)) {
        return Err(WireError::new(
            ErrorKind::Request,
            "`options` must be an object",
        ));
    }
    if let Some(v) = doc.get("time_limit_us") {
        o.time_limit = opt_duration(v, "time_limit_us")?;
    }
    if let Some(v) = doc.get("optimize") {
        o.optimize = req_bool(v, "optimize")?;
    }
    if let Some(v) = doc.get("objective") {
        o.objective = match v {
            Json::Str(tag) if tag == "routing" => Objective::RoutingResources,
            Json::Object(_) => Objective::Weighted(ObjectiveWeights {
                wire: v.get("wire").and_then(Json::as_i64).unwrap_or(1),
                mux: v.get("mux").and_then(Json::as_i64).unwrap_or(2),
                register: v.get("register").and_then(Json::as_i64).unwrap_or(6),
            }),
            _ => {
                return Err(WireError::new(
                    ErrorKind::Request,
                    "`objective` must be \"routing\" or a weights object",
                ))
            }
        };
    }
    if let Some(v) = doc.get("commutativity") {
        o.commutativity = req_bool(v, "commutativity")?;
    }
    if let Some(v) = doc.get("mux_exclusivity") {
        o.mux_exclusivity = req_bool(v, "mux_exclusivity")?;
    }
    if let Some(v) = doc.get("redundant_capacity") {
        o.redundant_capacity = req_bool(v, "redundant_capacity")?;
    }
    if let Some(v) = doc.get("seed") {
        o.seed = v.as_u64().ok_or_else(|| {
            WireError::new(ErrorKind::Request, "`seed` must be a non-negative integer")
        })?;
    }
    if let Some(v) = doc.get("warm_start") {
        o.warm_start = req_bool(v, "warm_start")?;
    }
    if let Some(v) = doc.get("threads") {
        let n = v.as_u64().ok_or_else(|| {
            WireError::new(
                ErrorKind::Request,
                "`threads` must be a non-negative integer",
            )
        })?;
        if n > 64 {
            return Err(WireError::new(
                ErrorKind::Request,
                "`threads` must be <= 64",
            ));
        }
        o.threads = n as usize;
    }
    if let Some(v) = doc.get("presolve") {
        o.presolve = req_bool(v, "presolve")?;
    }
    if let Some(v) = doc.get("reach_reduction") {
        o.reach_reduction = req_bool(v, "reach_reduction")?;
    }
    if let Some(v) = doc.get("conflict_limit") {
        o.conflict_limit = match v {
            Json::Null => None,
            _ => Some(v.as_u64().ok_or_else(|| {
                WireError::new(
                    ErrorKind::Request,
                    "`conflict_limit` must be null or an integer",
                )
            })?),
        };
    }
    if let Some(v) = doc.get("objective_stop") {
        o.objective_stop = match v {
            Json::Null => None,
            _ => Some(v.as_i64().ok_or_else(|| {
                WireError::new(
                    ErrorKind::Request,
                    "`objective_stop` must be null or an integer",
                )
            })?),
        };
    }
    if let Some(v) = doc.get("explain_infeasible") {
        o.explain_infeasible = req_bool(v, "explain_infeasible")?;
    }
    if let Some(v) = doc.get("certify") {
        o.certify = req_bool(v, "certify")?;
    }
    if let Some(v) = doc.get("mem_limit") {
        o.mem_limit = match v {
            Json::Null => None,
            _ => Some(v.as_u64().ok_or_else(|| {
                WireError::new(ErrorKind::Request, "`mem_limit` must be null or an integer")
            })? as usize),
        };
    }
    if let Some(v) = doc.get("build_jobs") {
        let n = v.as_u64().ok_or_else(|| {
            WireError::new(
                ErrorKind::Request,
                "`build_jobs` must be a non-negative integer",
            )
        })?;
        if n > 64 {
            return Err(WireError::new(
                ErrorKind::Request,
                "`build_jobs` must be <= 64",
            ));
        }
        o.build_jobs = n as usize;
    }
    if let Some(v) = doc.get("anneal_fallback") {
        o.anneal_fallback = req_bool(v, "anneal_fallback")?;
    }
    if let Some(v) = doc.get("seed_probes") {
        let n = v.as_u64().ok_or_else(|| {
            WireError::new(
                ErrorKind::Request,
                "`seed_probes` must be a non-negative integer",
            )
        })?;
        if n > 64 {
            return Err(WireError::new(
                ErrorKind::Request,
                "`seed_probes` must be <= 64",
            ));
        }
        o.seed_probes = n as usize;
    }
    if let Some(v) = doc.get("probe_budget_us") {
        o.probe_budget = opt_duration(v, "probe_budget_us")?;
    }
    Ok(o)
}

fn req_bool(v: &Json, key: &str) -> Result<bool, WireError> {
    v.as_bool()
        .ok_or_else(|| WireError::new(ErrorKind::Request, format!("`{key}` must be a boolean")))
}

fn opt_duration(v: &Json, key: &str) -> Result<Option<Duration>, WireError> {
    match v {
        Json::Null => Ok(None),
        _ => Ok(Some(Duration::from_micros(v.as_u64().ok_or_else(
            || {
                WireError::new(
                    ErrorKind::Request,
                    format!("`{key}` must be null or an integer"),
                )
            },
        )?))),
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
        ("formulation", encode_formulation(&report.formulation)),
        ("solver", encode_solve_stats(&report.solver)),
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
        elapsed: get_duration(doc, "elapsed_us")?,
        formulation: decode_formulation(
            doc.get("formulation")
                .ok_or_else(|| bad("missing `formulation`"))?,
        )?,
        solver: decode_solve_stats(doc.get("solver").ok_or_else(|| bad("missing `solver`"))?)?,
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
                ("fallback", Json::Bool(a.fallback)),
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
                ("presolve", encode_presolve(&report.totals.presolve)),
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
                fallback: a
                    .get("fallback")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("attempt missing `fallback`"))?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let totals_doc = doc.get("totals").ok_or_else(|| bad("missing `totals`"))?;
    let totals = MinIiTotals {
        elapsed: get_duration(totals_doc, "elapsed_us")?,
        capacity_shortcuts: get_u64(totals_doc, "capacity_shortcuts")? as usize,
        conflicts: get_u64(totals_doc, "conflicts")?,
        decisions: get_u64(totals_doc, "decisions")?,
        presolve: decode_presolve(
            totals_doc
                .get("presolve")
                .ok_or_else(|| bad("totals missing `presolve`"))?,
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
            steps: get_u64(doc, "steps")? as usize,
            bytes: get_u64(doc, "bytes")? as usize,
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
            matched: get_u64(doc, "matched")? as usize,
            ops: get_u64(doc, "ops")? as usize,
        }),
        Some("unroutable_sink") => Ok(BuildInfeasible::UnroutableSink {
            from: get_str(doc, "from")?,
            to: get_str(doc, "to")?,
        }),
        _ => Err(bad("unknown infeasibility kind")),
    }
}

fn encode_formulation(f: &FormulationStats) -> Json {
    obj(vec![
        ("f_vars", Json::Int(f.f_vars as i64)),
        ("r_vars", Json::Int(f.r_vars as i64)),
        ("rs_vars", Json::Int(f.rs_vars as i64)),
        ("swap_vars", Json::Int(f.swap_vars as i64)),
        ("constraints", Json::Int(f.constraints as i64)),
        ("reach_rounds", Json::Int(f.reach_rounds as i64)),
    ])
}

fn decode_formulation(doc: &Json) -> Result<FormulationStats, WireError> {
    Ok(FormulationStats {
        f_vars: get_u64(doc, "f_vars")? as usize,
        r_vars: get_u64(doc, "r_vars")? as usize,
        rs_vars: get_u64(doc, "rs_vars")? as usize,
        swap_vars: get_u64(doc, "swap_vars")? as usize,
        constraints: get_u64(doc, "constraints")? as usize,
        reach_rounds: get_u64(doc, "reach_rounds")? as usize,
    })
}

fn encode_solve_stats(st: &SolveStats) -> Json {
    let e = &st.engine;
    obj(vec![
        (
            "engine",
            obj(vec![
                ("conflicts", Json::Int(e.conflicts as i64)),
                ("decisions", Json::Int(e.decisions as i64)),
                ("propagations", Json::Int(e.propagations as i64)),
                ("restarts", Json::Int(e.restarts as i64)),
                ("deleted_clauses", Json::Int(e.deleted_clauses as i64)),
                ("learnt_clauses", Json::Int(e.learnt_clauses as i64)),
                ("lbd_total", Json::Int(e.lbd_total as i64)),
                ("deleted_mid", Json::Int(e.deleted_mid as i64)),
                ("deleted_local", Json::Int(e.deleted_local as i64)),
                ("kept_core", Json::Int(e.kept_core as i64)),
                ("kept_mid", Json::Int(e.kept_mid as i64)),
                ("kept_local", Json::Int(e.kept_local as i64)),
                ("imported_clauses", Json::Int(e.imported_clauses as i64)),
                ("exported_clauses", Json::Int(e.exported_clauses as i64)),
                ("inprocessings", Json::Int(e.inprocessings as i64)),
                ("vivified_lits", Json::Int(e.vivified_lits as i64)),
                ("subsumed_clauses", Json::Int(e.subsumed_clauses as i64)),
                ("strengthened_lits", Json::Int(e.strengthened_lits as i64)),
                ("gc_runs", Json::Int(e.gc_runs as i64)),
            ]),
        ),
        ("incumbents", Json::Int(st.incumbents as i64)),
        ("elapsed_us", Json::Int(st.elapsed.as_micros() as i64)),
        ("workers", Json::Int(st.workers as i64)),
        (
            "winner",
            st.winner.map_or(Json::Null, |w| Json::Int(w as i64)),
        ),
        ("presolve", encode_presolve(&st.presolve)),
        ("worker_panics", Json::Int(st.worker_panics as i64)),
        ("probe_workers", Json::Int(st.probe_workers as i64)),
        ("probe_incumbents", Json::Int(st.probe_incumbents as i64)),
        ("bound_tightenings", Json::Int(st.bound_tightenings as i64)),
        (
            "incumbent_source",
            match st.incumbent_source {
                Some(IncumbentSource::Solver) => s("solver"),
                Some(IncumbentSource::Heuristic) => s("heuristic"),
                None => Json::Null,
            },
        ),
    ])
}

fn decode_solve_stats(doc: &Json) -> Result<SolveStats, WireError> {
    let e = doc.get("engine").ok_or_else(|| bad("missing `engine`"))?;
    let engine = EngineStats {
        conflicts: get_u64(e, "conflicts")?,
        decisions: get_u64(e, "decisions")?,
        propagations: get_u64(e, "propagations")?,
        restarts: get_u64(e, "restarts")?,
        deleted_clauses: get_u64(e, "deleted_clauses")?,
        learnt_clauses: get_u64(e, "learnt_clauses")?,
        lbd_total: get_u64(e, "lbd_total")?,
        deleted_mid: get_u64(e, "deleted_mid")?,
        deleted_local: get_u64(e, "deleted_local")?,
        kept_core: get_u64(e, "kept_core")?,
        kept_mid: get_u64(e, "kept_mid")?,
        kept_local: get_u64(e, "kept_local")?,
        imported_clauses: get_u64(e, "imported_clauses")?,
        exported_clauses: get_u64(e, "exported_clauses")?,
        // Inprocessing counters arrived with the arena engine; tolerate
        // their absence so older peers still decode.
        inprocessings: get_u64(e, "inprocessings").unwrap_or(0),
        vivified_lits: get_u64(e, "vivified_lits").unwrap_or(0),
        subsumed_clauses: get_u64(e, "subsumed_clauses").unwrap_or(0),
        strengthened_lits: get_u64(e, "strengthened_lits").unwrap_or(0),
        gc_runs: get_u64(e, "gc_runs").unwrap_or(0),
    };
    Ok(SolveStats {
        engine,
        incumbents: get_u64(doc, "incumbents")?,
        elapsed: get_duration(doc, "elapsed_us")?,
        workers: get_u64(doc, "workers")? as u32,
        winner: match doc.get("winner") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| bad("`winner` must be null or an integer"))?
                    as u32,
            ),
        },
        presolve: decode_presolve(
            doc.get("presolve")
                .ok_or_else(|| bad("missing `presolve`"))?,
        )?,
        worker_panics: get_u64(doc, "worker_panics")? as u32,
        // Probe counters arrived with heuristic incumbent seeding;
        // tolerate their absence so older peers still decode.
        probe_workers: get_u64(doc, "probe_workers").unwrap_or(0) as u32,
        probe_incumbents: get_u64(doc, "probe_incumbents").unwrap_or(0),
        bound_tightenings: get_u64(doc, "bound_tightenings").unwrap_or(0),
        incumbent_source: match doc.get("incumbent_source").and_then(Json::as_str) {
            Some("solver") => Some(IncumbentSource::Solver),
            Some("heuristic") => Some(IncumbentSource::Heuristic),
            _ => None,
        },
    })
}

fn encode_presolve(p: &PresolveStats) -> Json {
    obj(vec![
        ("vars_before", Json::Int(p.vars_before as i64)),
        ("vars_after", Json::Int(p.vars_after as i64)),
        ("constraints_before", Json::Int(p.constraints_before as i64)),
        ("constraints_after", Json::Int(p.constraints_after as i64)),
        ("fixed_vars", Json::Int(p.fixed_vars as i64)),
        ("aliased_vars", Json::Int(p.aliased_vars as i64)),
        (
            "removed_constraints",
            Json::Int(p.removed_constraints as i64),
        ),
        ("strengthened", Json::Int(p.strengthened as i64)),
        ("cliques", Json::Int(p.cliques as i64)),
        ("probed_vars", Json::Int(p.probed_vars as i64)),
        ("failed_literals", Json::Int(p.failed_literals as i64)),
        ("rounds", Json::Int(p.rounds as i64)),
        ("elapsed_us", Json::Int(p.elapsed.as_micros() as i64)),
    ])
}

fn decode_presolve(doc: &Json) -> Result<PresolveStats, WireError> {
    Ok(PresolveStats {
        vars_before: get_u64(doc, "vars_before")?,
        vars_after: get_u64(doc, "vars_after")?,
        constraints_before: get_u64(doc, "constraints_before")?,
        constraints_after: get_u64(doc, "constraints_after")?,
        fixed_vars: get_u64(doc, "fixed_vars")?,
        aliased_vars: get_u64(doc, "aliased_vars")?,
        removed_constraints: get_u64(doc, "removed_constraints")?,
        strengthened: get_u64(doc, "strengthened")?,
        cliques: get_u64(doc, "cliques")?,
        probed_vars: get_u64(doc, "probed_vars")?,
        failed_literals: get_u64(doc, "failed_literals")?,
        rounds: get_u64(doc, "rounds")? as u32,
        elapsed: get_duration(doc, "elapsed_us")?,
    })
}

fn bad(detail: impl Into<String>) -> WireError {
    WireError::new(ErrorKind::Request, detail)
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, WireError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing integer field `{key}`")))
}

fn get_str(doc: &Json, key: &str) -> Result<String, WireError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("missing string field `{key}`")))
}

fn get_duration(doc: &Json, key: &str) -> Result<Duration, WireError> {
    Ok(Duration::from_micros(get_u64(doc, key)?))
}
