//! The `serve` workload: an in-process `Service` behind
//! `server::spawn_tcp` (the reactor the daemon runs), one worker, a fresh
//! `cache_dir` per set-up, and an in-memory result capacity below the
//! hot-set size so both cache tiers serve.
//!
//! Two `Client` connections drive it in a closed loop. Most requests
//! re-ask a seeded, skewed mix over the hot set of map questions filled
//! during set-up (reads: raw-text memo, memory LRU or mmap'd segment). A
//! small fixed set are first-seen `map` and `min_ii` questions with a
//! conflict budget and no `deadline_ms` (writes: parse, session, solve,
//! cache insert, segment append).

use crate::inputs::{
    paper_fabrics, paper_kernel, random_kernel, small_fabric, Fabric, Kernel, SplitMix64,
};
use crate::report::{mean, ms, us, RunResult, GUARD};
use crate::stats::{geomean, median, percentile, sorted, tail_percentile, Share, Tally};
use crate::trace::Tracer;
use cgra_arch::families::{FuMix, Interconnect};
use cgra_mapper::{validate_mapping, MapOutcome, MapperOptions, Mapping, Session};
use cgra_serve::client::{decode_response, Client};
use cgra_serve::json::{obj, s};
use cgra_serve::service::{Service, ServiceConfig};
use cgra_serve::{server, wire, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 1;
/// Warm requests per client at the nominal run length.
const WARM_PER_CLIENT: usize = 120_000;
/// In-memory result capacity: below the hot-set size.
const RESULT_CAPACITY: usize = 32;
/// Conflict budget per solver query on every serve request.
const SERVE_CONFLICTS: u64 = 1_000;
/// Fresh set-ups per run whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Consecutive warm requests per window. Warm throughput and latency
/// percentiles are medians over windows, so that a host stall in a
/// minority of windows does not move them; each window's tail
/// percentile leaves 10 requests beyond it.
const WINDOW: usize = 100;
/// One warm request in this many is also handed to `wire::parse_request`
/// and `Service::handle` in-process by the traced pass.
const TRACE_SAMPLE: usize = 8;

/// A question asked of the service: its request line plus what is needed
/// to check its reply.
#[derive(Debug, Clone)]
struct Question {
    line: String,
    min_ii: bool,
    kernel: usize,
    fabric: usize,
    ii: u32,
}

/// The fixed question set.
struct Inputs {
    kernels: Vec<Kernel>,
    fabrics: Vec<Fabric>,
    hot: Vec<Question>,
    cold: Vec<Question>,
}

fn options() -> MapperOptions {
    MapperOptions {
        conflict_limit: Some(SERVE_CONFLICTS),
        threads: 1,
        build_jobs: 1,
        warm_start: false,
        seed_probes: 0,
        presolve: true,
        ..MapperOptions::default()
    }
}

fn line(id: &str, q_min_ii: bool, kernel: &Kernel, fabric: &Fabric, ii: u32) -> String {
    let (cmd, ii_key) = if q_min_ii {
        ("min_ii", "max_ii")
    } else {
        ("map", "ii")
    };
    obj(vec![
        ("id", s(id)),
        ("cmd", s(cmd)),
        ("dfg", s(kernel.text.clone())),
        ("arch", s(fabric.text.clone())),
        (ii_key, Json::Int(ii as i64)),
        ("options", wire::encode_options(&options())),
    ])
    .to_string()
}

/// Hot set: 12 generated kernels on the four 2x2 fabric variants (48
/// map questions, each solved in milliseconds). First-seen set: 8 paper
/// kernels as map questions on two cells each of the 4x4 paper fabrics
/// and 8 generated kernels as `min_ii` questions on a 3x3 fabric.
fn inputs() -> Inputs {
    let mut kernels: Vec<Kernel> = (0..12)
        .map(|g| random_kernel(2 + g % 2, 100 + g as u64))
        .collect();
    let mut fabrics: Vec<Fabric> = [
        (FuMix::Homogeneous, Interconnect::Orthogonal),
        (FuMix::Homogeneous, Interconnect::Diagonal),
        (FuMix::Heterogeneous, Interconnect::Orthogonal),
        (FuMix::Heterogeneous, Interconnect::Diagonal),
    ]
    .into_iter()
    .map(|(mix, ic)| small_fabric(2, 2, mix, ic))
    .collect();
    let mut hot = Vec::new();
    for k in 0..12 {
        for f in 0..4 {
            let id = format!("h{}", hot.len());
            hot.push(Question {
                line: line(&id, false, &kernels[k], &fabrics[f], 1),
                min_ii: false,
                kernel: k,
                fabric: f,
                ii: 1,
            });
        }
    }
    let paper_base = fabrics.len();
    fabrics.extend(paper_fabrics());
    let mut cold = Vec::new();
    for (i, name) in [
        "accum", "mac", "2x2-f", "2x2-p", "mult_10", "exp_4", "add_10", "tay_4",
    ]
    .into_iter()
    .enumerate()
    {
        kernels.push(paper_kernel(name));
        let kernel = kernels.len() - 1;
        for (fabric, ii) in [(i % 4, 1 + i / 4), ((i + 2) % 4, 2 - i / 4)] {
            let (fabric, ii) = (paper_base + fabric, ii as u32);
            cold.push(Question {
                line: line(
                    &format!("c{}", cold.len()),
                    false,
                    &kernels[kernel],
                    &fabrics[fabric],
                    ii,
                ),
                min_ii: false,
                kernel,
                fabric,
                ii,
            });
        }
    }
    fabrics.push(small_fabric(
        3,
        3,
        FuMix::Heterogeneous,
        Interconnect::Diagonal,
    ));
    for g in 0..8u64 {
        kernels.push(random_kernel(4, 200 + g));
        let (kernel, fabric) = (kernels.len() - 1, fabrics.len() - 1);
        cold.push(Question {
            line: line(
                &format!("c{}", cold.len()),
                true,
                &kernels[kernel],
                &fabrics[fabric],
                2,
            ),
            min_ii: true,
            kernel,
            fabric,
            ii: 2,
        });
    }
    Inputs {
        kernels,
        fabrics,
        hot,
        cold,
    }
}

/// The request sequences: one warm sequence per client, a Zipf-like mix
/// (weight `1/(rank+1)`) over a seeded ranking of the hot set, then the
/// first-seen questions in a seeded order.
fn sequences(
    seed: u64,
    warm_per_client: usize,
    hot: usize,
    cold: usize,
) -> (Vec<Vec<Step>>, Vec<Step>) {
    let mut rng = SplitMix64::new(seed, 4);
    let mut ranking: Vec<usize> = (0..hot).collect();
    rng.shuffle(&mut ranking);
    let total: f64 = (0..hot).map(|r| 1.0 / (r + 1) as f64).sum();
    let cdf: Vec<f64> = (0..hot)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / (r + 1) as f64 / total;
            Some(*acc)
        })
        .collect();
    let warm = (0..CLIENTS)
        .map(|_| {
            (0..warm_per_client)
                .map(|_| {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    Step::Hot(ranking[cdf.partition_point(|&p| p < u).min(hot - 1)])
                })
                .collect()
        })
        .collect();
    let mut colds: Vec<Step> = (0..cold).map(Step::Cold).collect();
    rng.shuffle(&mut colds);
    (warm, colds)
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Hot(usize),
    Cold(usize),
}

/// A running service with its reactor and connected clients.
struct Live {
    service: Arc<Service>,
    accept: std::thread::JoinHandle<()>,
    clients: Vec<Client>,
    cache_dir: PathBuf,
    fill_lines: Vec<String>,
}

fn start(inputs: &Inputs, cache_dir: PathBuf) -> Live {
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("cache directory inside the build directory");
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        result_capacity: RESULT_CAPACITY,
        session_capacity: 16,
        cache_dir: Some(cache_dir.clone()),
        deadline: Some(GUARD),
        ..ServiceConfig::default()
    });
    let (addr, accept) =
        server::spawn_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind a loopback port");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(&addr.to_string()).expect("connect to the in-process service"))
        .collect();
    let fill_lines = inputs
        .hot
        .iter()
        .map(|q| {
            clients[0]
                .roundtrip_line(&q.line)
                .expect("hot-set fill round trip")
        })
        .collect();
    Live {
        service,
        accept,
        clients,
        cache_dir,
        fill_lines,
    }
}

fn stop(live: Live) {
    live.service.initiate_shutdown();
    drop(live.clients);
    let _ = live.accept.join();
    live.service.join_workers();
    let _ = std::fs::remove_dir_all(&live.cache_dir);
}

/// The `result` part of a success line and whether the service answered
/// from its cache; `Err` carries the typed error kind.
fn split_reply(line: &str) -> Result<(&str, bool), String> {
    let start = line.find(",\"result\":").ok_or_else(|| error_kind(line))? + ",\"result\":".len();
    let served = line
        .rfind(",\"served\":")
        .ok_or("reply without a served block")?;
    let hit = line[served..].starts_with(",\"served\":{\"cache\":\"hit\"");
    Ok((&line[start..served], hit))
}

fn error_kind(line: &str) -> String {
    match decode_response(line) {
        Err(e) => format!("wire error: {}", e.kind.as_str()),
        Ok(_) => "reply without a result".to_owned(),
    }
}

/// 64-bit FNV-1a, enough to compare reply bytes within a run.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one client observed per request.
struct Observed {
    step: Step,
    latency: Duration,
    /// Completion time, from the start of the timed phase.
    done: Duration,
    /// Hash of the result bytes, or the failure.
    reply: Result<(u64, bool), String>,
    /// Full line, kept for first-seen questions only.
    line: Option<String>,
    /// In-process `wire::parse_request` and `Service::handle` times of a
    /// sampled warm line (traced pass only).
    sampled: Option<(Duration, Duration)>,
}

fn drive(
    client: &mut Client,
    steps: &[Step],
    inputs: &Inputs,
    service: Option<&Service>,
    tracer: &mut Tracer,
    base_id: u64,
    phase_start: Instant,
) -> Vec<Observed> {
    let mut out = Vec::with_capacity(steps.len());
    for (i, &step) in steps.iter().enumerate() {
        let question = match step {
            Step::Hot(h) => &inputs.hot[h],
            Step::Cold(c) => &inputs.cold[c],
        };
        let request = base_id + i as u64;
        let span = service.map(|_| tracer.begin("request", request, None));
        let t = Instant::now();
        let got = client.roundtrip_line(&question.line);
        let latency = t.elapsed();
        let done = phase_start.elapsed();
        if let Some(span) = span {
            tracer.end(span);
        }
        let (reply, line) = match got {
            Err(e) => (Err(format!("transport error: {}", e.kind())), None),
            Ok(text) => {
                let reply = split_reply(&text).map(|(result, hit)| (fnv(result.as_bytes()), hit));
                (reply, matches!(step, Step::Cold(_)).then_some(text))
            }
        };
        let sampled = match (service, step) {
            (Some(svc), Step::Hot(_)) if i % TRACE_SAMPLE == 0 => {
                let t = Instant::now();
                let parsed = tracer.span("wire", request, None, || {
                    wire::parse_request(&question.line)
                });
                let parse = t.elapsed();
                let t = Instant::now();
                tracer.span("service", request, None, || svc.handle(&question.line));
                let handle = t.elapsed();
                parsed.is_ok().then_some((parse, handle))
            }
            _ => None,
        };
        out.push(Observed {
            step,
            latency,
            done,
            reply,
            line,
            sampled,
        });
    }
    out
}

/// One timed phase: every client drives its warm sequence concurrently,
/// then the first client asks the first-seen questions one at a time.
/// The writes get a phase of their own because on a two-core host a
/// solve running beside two warm clients leaves both its own latency and
/// the warm tail to the scheduler.
fn timed_phase(
    live: &mut Live,
    (warm, cold): &(Vec<Vec<Step>>, Vec<Step>),
    inputs: &Inputs,
    traced: bool,
    origin: Instant,
) -> (Vec<Observed>, Duration, Option<Tracer>) {
    let service = traced.then(|| Arc::clone(&live.service));
    let started = Instant::now();
    let results: Vec<(Vec<Observed>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(warm)
            .enumerate()
            .map(|(c, (client, steps))| {
                let service = service.clone();
                scope.spawn(move || {
                    let mut tracer = Tracer::new(origin);
                    let base = (c * 10_000_000) as u64;
                    let observed = drive(
                        client,
                        steps,
                        inputs,
                        service.as_deref(),
                        &mut tracer,
                        base,
                        started,
                    );
                    (observed, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut cold_tracer = Tracer::new(origin);
    let base = (CLIENTS * 10_000_000) as u64;
    let writes = drive(
        &mut live.clients[0],
        cold,
        inputs,
        service.as_deref(),
        &mut cold_tracer,
        base,
        started,
    );
    let wall = started.elapsed();
    let mut observed = Vec::new();
    let mut merged = traced.then(|| Tracer::new(origin));
    for (obs, tracer) in results.into_iter().chain([(writes, cold_tracer)]) {
        observed.extend(obs);
        if let Some(m) = merged.as_mut() {
            m.absorb(tracer);
        }
    }
    (observed, wall, merged)
}

/// A decoded reply: its verdict per question, routing, conflicts, and
/// (for `min_ii`) the attempt counters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decoded {
    verdict: &'static str,
    routing: Option<usize>,
    conflicts: u64,
    attempts: usize,
    shortcuts: usize,
}

/// Decodes a reply through `cgra_serve::wire` and checks every mapping in
/// it with `validate_mapping` and the functional simulator.
fn decode_and_check(
    line: &str,
    q: &Question,
    dfg: &cgra_dfg::Dfg,
    session: &Session,
    sim_times: &mut Vec<Duration>,
) -> Result<Decoded, String> {
    let ok = decode_response(line).map_err(|e| format!("wire error: {}", e.kind.as_str()))?;
    let mut mappings: Vec<(u32, Mapping)> = Vec::new();
    let decoded = if q.min_ii {
        let report = wire::decode_min_ii_report(dfg, &ok.result, |ii| session.mrrg(ii))
            .map_err(|e| format!("undecodable min_ii report: {e}"))?;
        for a in &report.attempts {
            if let MapOutcome::Mapped { mapping, .. } = &a.report.outcome {
                mappings.push((a.ii, mapping.clone()));
            }
        }
        let at_min = report
            .min_ii
            .and_then(|ii| report.attempts.iter().find(|a| a.ii == ii));
        Decoded {
            verdict: if report.min_ii.is_some() { "1" } else { "T" },
            routing: at_min.and_then(|a| match a.report.outcome {
                MapOutcome::Mapped { routing_usage, .. } => Some(routing_usage),
                _ => None,
            }),
            conflicts: report.totals.conflicts,
            attempts: report.attempts.len(),
            shortcuts: report.totals.capacity_shortcuts,
        }
    } else {
        let mrrg = session.mrrg(q.ii);
        let report = wire::decode_map_report(dfg, &mrrg, &ok.result)
            .map_err(|e| format!("undecodable map report: {e}"))?;
        let routing = match &report.outcome {
            MapOutcome::Mapped {
                mapping,
                routing_usage,
                ..
            } => {
                mappings.push((q.ii, mapping.clone()));
                Some(*routing_usage)
            }
            _ => None,
        };
        Decoded {
            verdict: report.outcome.table_symbol(),
            routing,
            conflicts: report.solver.engine.conflicts,
            attempts: 1,
            shortcuts: 0,
        }
    };
    for (ii, mapping) in mappings {
        let mrrg = session.mrrg(ii);
        validate_mapping(dfg, &mrrg, &mapping)
            .map_err(|e| format!("served mapping fails validate_mapping: {e}"))?;
        let t = Instant::now();
        cgra_sim::verify_mapping_vectors(session.arch(), &mrrg, dfg, &mapping, 4)
            .map_err(|e| format!("served mapping fails simulation: {e}"))?;
        sim_times.push(t.elapsed());
    }
    Ok(decoded)
}

/// Runs the `serve` workload.
pub fn run(seed: u64, seconds: u64, trace: bool, dir: &Path) -> RunResult {
    let inputs = inputs();
    let warm_per_client =
        (WARM_PER_CLIENT as u64 * seconds / crate::NOMINAL_SECONDS).max(100) as usize;
    let seqs = sequences(seed, warm_per_client, inputs.hot.len(), inputs.cold.len());
    let mut result = RunResult::new("serve");
    let total: usize = seqs.0.iter().map(Vec::len).sum::<usize>() + seqs.1.len();
    result.header.push(format!(
        "requests={total} ({CLIENTS} clients x {warm_per_client} warm, then {} first-seen on one client) hot_set={} result_capacity={RESULT_CAPACITY} workers=1 conflict_limit={SERVE_CONFLICTS} guard_s={} threads=1 build_jobs=1",
        inputs.cold.len(),
        inputs.hot.len(),
        GUARD.as_secs()
    ));
    let cache = |tag: &str| dir.join(format!("serve-cache-{}-{tag}", std::process::id()));

    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            stop(previous);
        }
        let t = Instant::now();
        live = Some(start(&inputs, cache(&rep.to_string())));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    let stats_before = live.service.stats_json();
    let (observed, wall, _) = timed_phase(&mut live, &seqs, &inputs, false, Instant::now());
    let stats_after = live.service.stats_json();
    let fill_lines = live.fill_lines.clone();
    stop(live);

    // Checks, outside the timed span.
    let mut sessions: BTreeMap<usize, Session> = BTreeMap::new();
    let mut mrrg_times = Vec::new();
    let mut mrrg_nodes = 0u64;
    let dfgs: Vec<cgra_dfg::Dfg> = inputs
        .kernels
        .iter()
        .map(|k| cgra_dfg::text::parse(&k.text).expect("generated DFG text parses"))
        .collect();
    let mut session_for = |fabric: usize, ii: u32| {
        let s = sessions.entry(fabric).or_insert_with(|| {
            Session::new(
                cgra_arch::text::parse(&inputs.fabrics[fabric].text)
                    .expect("generated fabric text parses"),
                options(),
            )
        });
        for i in 1..=ii {
            if !s.is_warm(i) {
                let t = Instant::now();
                mrrg_nodes += s.mrrg(i).node_count() as u64;
                mrrg_times.push(t.elapsed());
            }
        }
    };
    for q in inputs.hot.iter().chain(&inputs.cold) {
        session_for(q.fabric, q.ii);
    }
    let mut sim_times = Vec::new();
    let mut tally = Tally::default();
    let mut hot_reference: Vec<Option<(u64, Decoded)>> = Vec::new();
    for (q, line) in inputs.hot.iter().zip(&fill_lines) {
        let id = tally.attempt();
        let checked = split_reply(line).and_then(|(result, _)| {
            let d = decode_and_check(
                line,
                q,
                &dfgs[q.kernel],
                &sessions[&q.fabric],
                &mut sim_times,
            )?;
            Ok((fnv(result.as_bytes()), d))
        });
        match checked {
            Ok(r) => hot_reference.push(Some(r)),
            Err(e) => {
                tally.fail(id, e);
                hot_reference.push(None);
            }
        }
    }
    let mut cold_decoded: BTreeMap<usize, Decoded> = BTreeMap::new();
    let mut cold_ids: BTreeMap<usize, u64> = BTreeMap::new();
    let mut cold_latencies = Vec::new();
    let mut hits = 0u64;
    let mut replies = 0u64;
    for o in &observed {
        let id = tally.attempt();
        if o.latency >= GUARD {
            tally.fail(id, "wall-clock guard reached");
        }
        let (hash, hit) = match &o.reply {
            Ok(r) => *r,
            Err(e) => {
                tally.fail(id, e.clone());
                continue;
            }
        };
        replies += 1;
        hits += hit as u64;
        match o.step {
            Step::Hot(h) => match &hot_reference[h] {
                Some((reference, _)) if *reference == hash => {}
                _ => tally.fail(id, "warm reply differs from the first reply for its key"),
            },
            Step::Cold(c) => {
                cold_ids.insert(c, id);
                cold_latencies.push(ms(o.latency));
                let q = &inputs.cold[c];
                let line = o.line.as_deref().unwrap_or_default();
                match decode_and_check(
                    line,
                    q,
                    &dfgs[q.kernel],
                    &sessions[&q.fabric],
                    &mut sim_times,
                ) {
                    Ok(d) => {
                        if let Some(expected) = paper_symbol(&inputs.kernels[q.kernel].name, q) {
                            if d.verdict != "T" && expected != "T" && d.verdict != expected {
                                tally.fail(id, "verdict disagrees with Table 2");
                            }
                        }
                        cold_decoded.insert(c, d);
                    }
                    Err(e) => tally.fail(id, e),
                }
            }
        }
    }

    // Work-derived metrics over the distinct questions asked.
    let distinct: Vec<(&Question, &Decoded)> = inputs
        .hot
        .iter()
        .zip(&hot_reference)
        .filter_map(|(q, r)| r.as_ref().map(|(_, d)| (q, d)))
        .chain(cold_decoded.iter().map(|(&c, d)| (&inputs.cold[c], d)))
        .collect();
    let maps: Vec<&Decoded> = distinct
        .iter()
        .filter(|(q, _)| !q.min_ii)
        .map(|(_, d)| *d)
        .collect();
    let decided = Share::new(
        maps.iter().filter(|d| d.verdict != "T").count() as u64,
        maps.len() as u64,
    );
    let routing: Vec<f64> = distinct
        .iter()
        .filter_map(|(_, d)| d.routing)
        .map(|r| r as f64)
        .collect();
    let n = observed.len();
    let wall_s = wall.as_secs_f64();
    let warm: Vec<&Observed> = observed
        .iter()
        .filter(|o| matches!(o.step, Step::Hot(_)) && o.reply.is_ok())
        .collect();
    let tail = tail_percentile(WINDOW, 10).unwrap_or(100);
    let (mut window_rate, mut window_p50, mut window_tail) = (Vec::new(), Vec::new(), Vec::new());
    let mut window_start = Duration::ZERO;
    for w in warm.chunks_exact(WINDOW) {
        let end = w[WINDOW - 1].done;
        let lat: Vec<f64> = w.iter().map(|o| ms(o.latency)).collect();
        window_rate.push(WINDOW as f64 / end.saturating_sub(window_start).as_secs_f64());
        window_p50.push(median(&lat).unwrap_or(0.0));
        window_tail.push(percentile(&sorted(&lat), tail).unwrap_or(0.0));
        window_start = end;
    }
    let cold_tail_n = cold_latencies.len();
    result.header.push(format!(
        "{n} requests in {wall_s:.3} s; throughput_ops, latency_p50_ms and latency_tail_ms (p{tail}) are medians over {} windows of {WINDOW} consecutive warm requests; cold_p50_ms over {cold_tail_n} first-seen requests; decided={decided} distinct map questions; mapped={}",
        window_rate.len(),
        routing.len(),
    ));
    let e2e = &mut result.e2e;
    e2e.push("setup_s", median(&setups).unwrap_or(0.0), "s");
    e2e.push("throughput_ops", median(&window_rate).unwrap_or(0.0), "1/s");
    e2e.push("latency_p50_ms", median(&window_p50).unwrap_or(0.0), "ms");
    e2e.push("latency_tail_ms", median(&window_tail).unwrap_or(0.0), "ms");
    e2e.push("cold_p50_ms", median(&cold_latencies).unwrap_or(0.0), "ms");
    e2e.push("decided_share", decided.value().unwrap_or(0.0), "share");
    e2e.push("routing_geomean", geomean(&routing).unwrap_or(0.0), "count");
    result.fingerprints = cold_ids
        .iter()
        .map(|(c, &id)| (id, cold_fingerprint(cold_decoded.get(c))))
        .collect();
    let counter = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let delta = |key: &str| counter(&stats_after, key) - counter(&stats_before, key);
    result.header.push(format!(
        "service counters over the timed phase: requests={} cache_hits={} disk_hits={} solves={}; replies from cache {}",
        delta("requests"),
        delta("cache_hits"),
        delta("cache_disk_hits"),
        delta("solves"),
        Share::new(hits, replies)
    ));

    if trace {
        let origin = Instant::now();
        let mut live = start(&inputs, cache("traced"));
        let before = live.service.stats_json();
        let (traced, traced_wall, tracer) = timed_phase(&mut live, &seqs, &inputs, true, origin);
        let after = live.service.stats_json();
        stop(live);
        let tracer = tracer.expect("traced phase records spans");
        let tdelta = |key: &str| counter(&after, key) - counter(&before, key);
        let mut mismatches = 0u64;
        let mut solve_ms = Vec::new();
        let mut wait_ms = Vec::new();
        let mut traced_hits = 0u64;
        let mut traced_replies = 0u64;
        let (mut attempts, mut shortcuts) = (0usize, 0usize);
        let mut rtt_sampled = Vec::new();
        let mut parse_us = Vec::new();
        let mut handle_us = Vec::new();
        for o in &traced {
            if let Ok((_, hit)) = o.reply {
                traced_replies += 1;
                traced_hits += hit as u64;
            }
            if let Some((parse, handle)) = o.sampled {
                rtt_sampled.push(us(o.latency));
                parse_us.push(us(parse));
                handle_us.push(us(handle));
            }
            if let (Step::Cold(c), Some(line)) = (o.step, &o.line) {
                let q = &inputs.cold[c];
                if let Ok(ok) = decode_response(line) {
                    if let Some(served) = ok.served {
                        solve_ms.push(ms(served.solve));
                        wait_ms.push(ms(served.wait));
                    }
                }
                let mut scratch = Vec::new();
                let d =
                    decode_and_check(line, q, &dfgs[q.kernel], &sessions[&q.fabric], &mut scratch)
                        .ok();
                if let Some(d) = &d {
                    if q.min_ii {
                        attempts += d.attempts;
                        shortcuts += d.shortcuts;
                    }
                }
                if d.as_ref() != cold_decoded.get(&c) {
                    mismatches += 1;
                    if let Some(&id) = cold_ids.get(&c) {
                        tally.fail(id, "traced fingerprint differs from untraced");
                    }
                }
            }
        }
        let l = &mut result.layers;
        l.push(
            "mrrg.build_ms",
            mean(&mrrg_times.iter().map(|&d| ms(d)).collect::<Vec<_>>()),
            "ms",
        );
        l.push("mrrg.nodes", mrrg_nodes as f64, "count");
        l.push(
            "sim.verify_ms",
            mean(&sim_times.iter().map(|&d| ms(d)).collect::<Vec<_>>()),
            "ms",
        );
        l.push("min_ii.attempts", attempts as f64, "count");
        l.push("min_ii.capacity_shortcuts", shortcuts as f64, "count");
        l.push("service.handle_us", median(&handle_us).unwrap_or(0.0), "us");
        l.push(
            "service.hit_share",
            Share::new(traced_hits, traced_replies)
                .value()
                .unwrap_or(0.0),
            "share",
        );
        let requests = tdelta("requests");
        l.push(
            "service.disk_hit_share",
            if requests > 0.0 {
                tdelta("cache_disk_hits") / requests
            } else {
                0.0
            },
            "share",
        );
        l.push("service.solves", tdelta("solves"), "count");
        l.push("service.solve_ms", median(&solve_ms).unwrap_or(0.0), "ms");
        l.push("service.wait_ms", median(&wait_ms).unwrap_or(0.0), "ms");
        l.push("wire.parse_us", median(&parse_us).unwrap_or(0.0), "us");
        l.push(
            "reactor.overhead_us",
            median(&rtt_sampled).unwrap_or(0.0) - median(&handle_us).unwrap_or(0.0),
            "us",
        );
        l.push(
            "trace.overhead_share",
            traced_wall.as_secs_f64() / wall.as_secs_f64() - 1.0,
            "share",
        );
        l.push("trace.mismatches", mismatches as f64, "count");
        result.header.push(format!(
            "traced pass: wall {:.3} s vs untraced {:.3} s; {} sampled warm lines handled in-process",
            traced_wall.as_secs_f64(),
            wall.as_secs_f64(),
            handle_us.len()
        ));
        result.tracer = Some(tracer);
    }
    result.tally = tally;
    result
}

/// The work fingerprint of a first-seen question's reply.
fn cold_fingerprint(decoded: Option<&Decoded>) -> String {
    match decoded {
        Some(d) => format!(
            "{} routing={} conflicts={} attempts={}",
            d.verdict,
            d.routing.map_or_else(|| "-".to_owned(), |r| r.to_string()),
            d.conflicts,
            d.attempts
        ),
        None => "failed".to_owned(),
    }
}

/// The paper's Table 2 symbol for a first-seen map question on a paper
/// fabric (fabrics 4..8 of [`inputs`]).
fn paper_symbol(kernel: &str, q: &Question) -> Option<&'static str> {
    if q.min_ii || !(4..8).contains(&q.fabric) {
        return None;
    }
    let column = q.fabric - 4 + 4 * (q.ii as usize - 1);
    cgra_bench::PAPER_TABLE2
        .iter()
        .find(|(name, _)| *name == kernel)
        .map(|(_, row)| row[column])
}
