//! Golden output of the service's wire codecs.
//!
//! A cached answer is found again only if a request's options encode,
//! fingerprint and key exactly as they did when the answer was stored,
//! and a peer decodes a report only if every counter keeps its wire key
//! and its strict or tolerant decoding. This suite pins all of that to
//! values recorded from the reference codecs:
//!
//! * the `encode_options` text, `options_fingerprint` and `request_key`
//!   of the default options, of options with every field moved off its
//!   default, and of 200 seeded random option sets;
//! * what `decode_options` makes of a corpus that gives every wire key a
//!   valid value, `null`, a wrong type, a negative value and 65;
//! * the encoded text of a synthetic `MapReport` and `MinIiReport` whose
//!   counters are all distinct, and for every counter key what decoding
//!   does when that key is removed (an error, or a default value);
//! * that moving any one option changes the fingerprint exactly when the
//!   option enters the cache key (every option but `build_jobs`).
//!
//! The decode corpus leaves out `seed` values that are negative, `null`
//! or not integers, and objective weights that are not integers: those
//! inputs are pinned by `wire_roundtrip.rs` instead.
//!
//! On a mismatch each test prints its actual table, so an intended
//! change to the wire format can be re-recorded in one step.

use bilp::{Certificate, EngineStats, IncumbentSource, PresolveStats, SolveStats};
use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
use cgra_dfg::Dfg;
use cgra_mapper::{
    BuildInfeasible, FormulationStats, IiAttempt, MapOutcome, MapReport, MapperOptions,
    MinIiReport, MinIiTotals, Objective, ObjectiveWeights, VerdictProvenance,
};
use cgra_mrrg::Mrrg;
use cgra_rng::Rng;
use cgra_serve::cache::{options_fingerprint, request_key};
use cgra_serve::json::Json;
use cgra_serve::wire::{
    decode_map_report, decode_min_ii_report, decode_options, encode_map_report,
    encode_min_ii_report, encode_options, WireError,
};
use std::sync::Arc;
use std::time::Duration;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every field away from its default.
fn full_options() -> MapperOptions {
    MapperOptions {
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
    }
}

/// Seeded random options: seeds below 2^63, bounded counts <= 64.
fn random_options(rng: &mut Rng) -> MapperOptions {
    let micros = |rng: &mut Rng| {
        rng.gen_bool(0.5)
            .then(|| Duration::from_micros(rng.below(1 << 40)))
    };
    MapperOptions {
        time_limit: micros(rng),
        optimize: rng.gen_bool(0.5),
        objective: if rng.gen_bool(0.5) {
            Objective::RoutingResources
        } else {
            Objective::Weighted(ObjectiveWeights {
                wire: rng.gen_i64_inclusive(-100..=100),
                mux: rng.gen_i64_inclusive(-100..=100),
                register: rng.gen_i64_inclusive(-100..=100),
            })
        },
        commutativity: rng.gen_bool(0.5),
        mux_exclusivity: rng.gen_bool(0.5),
        redundant_capacity: rng.gen_bool(0.5),
        seed: rng.next_u64() >> 1,
        warm_start: rng.gen_bool(0.5),
        threads: rng.gen_range_inclusive(0..=64),
        presolve: rng.gen_bool(0.5),
        reach_reduction: rng.gen_bool(0.5),
        conflict_limit: rng.gen_bool(0.5).then(|| rng.below(1 << 40)),
        objective_stop: rng
            .gen_bool(0.5)
            .then(|| rng.gen_i64_inclusive(-1000..=1000)),
        explain_infeasible: rng.gen_bool(0.5),
        certify: rng.gen_bool(0.5),
        mem_limit: rng.gen_bool(0.5).then(|| rng.gen_range(0..1 << 40)),
        build_jobs: rng.gen_range_inclusive(0..=64),
        seed_probes: rng.gen_range_inclusive(0..=64),
    }
}

fn key_of(o: &MapperOptions) -> u64 {
    request_key("map", 0x1234, 0x5678, 2, o)
}

/// `encode_options` text, `options_fingerprint` and `request_key`.
fn option_row(o: &MapperOptions) -> (String, u64, u64) {
    (
        encode_options(o).to_string(),
        options_fingerprint(o),
        key_of(o),
    )
}

const DEFAULT_OPTIONS: (&str, u64, u64) = (
    "{\"time_limit_us\":null,\"optimize\":false,\"objective\":\"routing\",\"commutativity\":true,\"mux_exclusivity\":true,\"redundant_capacity\":true,\"seed\":1,\"warm_start\":false,\"threads\":1,\"presolve\":true,\"reach_reduction\":true,\"conflict_limit\":null,\"objective_stop\":null,\"explain_infeasible\":false,\"certify\":false,\"mem_limit\":null,\"build_jobs\":1,\"seed_probes\":0}",
    0x16fdd2bbdd7940b9,
    0x6dd6095a126b2332,
);

const FULL_OPTIONS: (&str, u64, u64) = (
    "{\"time_limit_us\":123456789,\"optimize\":true,\"objective\":{\"wire\":1,\"mux\":5,\"register\":3},\"commutativity\":false,\"mux_exclusivity\":false,\"redundant_capacity\":false,\"seed\":3735928559,\"warm_start\":true,\"threads\":3,\"presolve\":false,\"reach_reduction\":false,\"conflict_limit\":10000,\"objective_stop\":-7,\"explain_infeasible\":true,\"certify\":true,\"mem_limit\":1048576,\"build_jobs\":4,\"seed_probes\":6}",
    0xae09100aec0f40ef,
    0x94cfef06cfc04eae,
);

/// FNV-1a over the rows of the 200 random option sets.
const RANDOM_OPTIONS_DIGEST: u64 = 0x5031cf89860943ca;

#[test]
fn options_encode_fingerprint_and_key_match_golden() {
    let mut rng = Rng::seed_from_u64(0x0F71_0A5E);
    let mut rows = String::new();
    for _ in 0..200 {
        let o = random_options(&mut rng);
        let (text, fp, key) = option_row(&o);
        rows.push_str(&format!("{text} {fp:016x} {key:016x}\n"));
        // Whatever is encoded decodes to the same fingerprint and key.
        let back = decode_options(Some(&encode_options(&o))).expect("own encoding decodes");
        assert_eq!(option_row(&back), (text, fp, key));
    }
    let actual = [
        ("default", option_row(&MapperOptions::default())),
        ("full", option_row(&full_options())),
    ];
    let random = fnv1a(rows.as_bytes());
    let printed: String = actual
        .iter()
        .map(|(name, (text, fp, key))| {
            format!(
                "{name}: (\n    {:?},\n    0x{fp:016x},\n    0x{key:016x},\n)\n",
                text
            )
        })
        .collect::<String>()
        + &format!("random: 0x{random:016x}\n");
    let expected = [("default", DEFAULT_OPTIONS), ("full", FULL_OPTIONS)];
    for ((name, (text, fp, key)), (_, (gtext, gfp, gkey))) in actual.iter().zip(expected) {
        assert!(
            (text.as_str(), *fp, *key) == (gtext, gfp, gkey),
            "{name} options drifted from the golden values; actual:\n{printed}"
        );
    }
    assert!(
        random == RANDOM_OPTIONS_DIGEST,
        "random options drifted from the golden digest; actual:\n{printed}"
    );
}

// ---------------------------------------------------------------------
// decode_options
// ---------------------------------------------------------------------

/// Every wire key with the valid values the corpus gives it, retired
/// keys (`anneal_fallback`, `probe_budget_us`) included: those decode as
/// if absent.
const OPTION_KEYS: &[(&str, &[&str])] = &[
    ("time_limit_us", &["1500000"]),
    ("optimize", &["true"]),
    (
        "objective",
        &[
            "\"routing\"",
            "{\"wire\":3,\"mux\":4,\"register\":5}",
            "{\"mux\":-2}",
            "{}",
        ],
    ),
    ("commutativity", &["false"]),
    ("mux_exclusivity", &["false"]),
    ("redundant_capacity", &["false"]),
    ("seed", &["12345"]),
    ("warm_start", &["true"]),
    ("threads", &["4"]),
    ("presolve", &["false"]),
    ("reach_reduction", &["false"]),
    ("conflict_limit", &["10000"]),
    ("objective_stop", &["-7"]),
    ("explain_infeasible", &["true"]),
    ("certify", &["true"]),
    ("mem_limit", &["1048576"]),
    ("build_jobs", &["4"]),
    ("anneal_fallback", &["true"]),
    ("seed_probes", &["6"]),
    ("probe_budget_us", &["750000"]),
];

/// Whole `options` documents rather than single keys.
const OPTION_DOCUMENTS: &[&str] = &[
    "null",
    "{}",
    "[]",
    "\"x\"",
    "7",
    "{\"unknown\":1}",
    "{\"threads\":2,\"threads\":3}",
    "{\"threads\":2,\"build_jobs\":3,\"seed\":5,\"optimize\":true}",
];

/// `ok <what the key re-encodes to, or `-`> <fingerprint>` or the typed
/// error.
fn decoded(doc: &Json, key: Option<&str>) -> String {
    match decode_options(Some(doc)) {
        Ok(o) => {
            let encoded = encode_options(&o);
            let shown = key.map_or_else(
                || encoded.to_string(),
                |k| {
                    encoded
                        .get(k)
                        .map_or_else(|| "-".to_owned(), Json::to_string)
                },
            );
            format!("ok {} {:016x}", truncate(&shown), options_fingerprint(&o))
        }
        Err(e) => err_text(&e),
    }
}

fn err_text(e: &WireError) -> String {
    format!("error {e}")
}

fn decode_corpus() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for &(key, valid) in OPTION_KEYS {
        let mut values: Vec<&str> = valid.to_vec();
        // `seed` travels as a two's-complement integer: its null, wrong
        // type and negative inputs are pinned in `wire_roundtrip.rs`.
        if key != "seed" {
            values.extend(["null", "\"7\"", "-1"]);
        }
        values.push("65");
        for value in values {
            let doc = Json::parse(&format!("{{\"{key}\":{value}}}")).expect("corpus is JSON");
            out.push((key.to_owned(), value.to_owned(), decoded(&doc, Some(key))));
        }
    }
    for &text in OPTION_DOCUMENTS {
        let doc = Json::parse(text).expect("corpus is JSON");
        out.push((String::new(), text.to_owned(), decoded(&doc, None)));
    }
    out
}

#[rustfmt::skip]
const DECODE_GOLDEN: &[(&str, &str, &str)] = &[
    ("time_limit_us", "1500000", "ok 1500000 fe6a5811636f82c7"),
    ("time_limit_us", "null", "ok null 16fdd2bbdd7940b9"),
    ("time_limit_us", "\"7\"", "error request: `time_limit_us` must be null or an integer"),
    ("time_limit_us", "-1", "error request: `time_limit_us` must be null or an integer"),
    ("time_limit_us", "65", "ok 65 d18c7454b50a3af9"),
    ("optimize", "true", "ok true 346637165a6f5f6e"),
    ("optimize", "null", "error request: `optimize` must be a boolean"),
    ("optimize", "\"7\"", "error request: `optimize` must be a boolean"),
    ("optimize", "-1", "error request: `optimize` must be a boolean"),
    ("optimize", "65", "error request: `optimize` must be a boolean"),
    ("objective", "\"routing\"", "ok \"routing\" 16fdd2bbdd7940b9"),
    ("objective", "{\"wire\":3,\"mux\":4,\"register\":5}", "ok {\"wire\":3,\"mux\":4,\"register\":5} c68b2c956bf54837"),
    ("objective", "{\"mux\":-2}", "ok {\"wire\":1,\"mux\":-2,\"register\":6} 9b9ae41ea92d4b0b"),
    ("objective", "{}", "ok {\"wire\":1,\"mux\":2,\"register\":6} 30b7c2689239dcd0"),
    ("objective", "null", "error request: `objective` must be \"routing\" or a weights object"),
    ("objective", "\"7\"", "error request: `objective` must be \"routing\" or a weights object"),
    ("objective", "-1", "error request: `objective` must be \"routing\" or a weights object"),
    ("objective", "65", "error request: `objective` must be \"routing\" or a weights object"),
    ("commutativity", "false", "ok false 43e1520d24487fb8"),
    ("commutativity", "null", "error request: `commutativity` must be a boolean"),
    ("commutativity", "\"7\"", "error request: `commutativity` must be a boolean"),
    ("commutativity", "-1", "error request: `commutativity` must be a boolean"),
    ("commutativity", "65", "error request: `commutativity` must be a boolean"),
    ("mux_exclusivity", "false", "ok false b354a38381c605d8"),
    ("mux_exclusivity", "null", "error request: `mux_exclusivity` must be a boolean"),
    ("mux_exclusivity", "\"7\"", "error request: `mux_exclusivity` must be a boolean"),
    ("mux_exclusivity", "-1", "error request: `mux_exclusivity` must be a boolean"),
    ("mux_exclusivity", "65", "error request: `mux_exclusivity` must be a boolean"),
    ("redundant_capacity", "false", "ok false 9e6d112e80c603b8"),
    ("redundant_capacity", "null", "error request: `redundant_capacity` must be a boolean"),
    ("redundant_capacity", "\"7\"", "error request: `redundant_capacity` must be a boolean"),
    ("redundant_capacity", "-1", "error request: `redundant_capacity` must be a boolean"),
    ("redundant_capacity", "65", "error request: `redundant_capacity` must be a boolean"),
    ("seed", "12345", "ok 12345 b9f5e38428475691"),
    ("seed", "65", "ok 65 508c899598fa5879"),
    ("warm_start", "true", "ok true a56c9b2e1dc287b8"),
    ("warm_start", "null", "error request: `warm_start` must be a boolean"),
    ("warm_start", "\"7\"", "error request: `warm_start` must be a boolean"),
    ("warm_start", "-1", "error request: `warm_start` must be a boolean"),
    ("warm_start", "65", "error request: `warm_start` must be a boolean"),
    ("threads", "4", "ok 4 757c6be6ccec3f1c"),
    ("threads", "null", "error request: `threads` must be a non-negative integer"),
    ("threads", "\"7\"", "error request: `threads` must be a non-negative integer"),
    ("threads", "-1", "error request: `threads` must be a non-negative integer"),
    ("threads", "65", "error request: `threads` must be <= 64"),
    ("presolve", "false", "ok false 12891c97580703b8"),
    ("presolve", "null", "error request: `presolve` must be a boolean"),
    ("presolve", "\"7\"", "error request: `presolve` must be a boolean"),
    ("presolve", "-1", "error request: `presolve` must be a boolean"),
    ("presolve", "65", "error request: `presolve` must be a boolean"),
    ("reach_reduction", "false", "ok false b3e44d22e1fb1598"),
    ("reach_reduction", "null", "error request: `reach_reduction` must be a boolean"),
    ("reach_reduction", "\"7\"", "error request: `reach_reduction` must be a boolean"),
    ("reach_reduction", "-1", "error request: `reach_reduction` must be a boolean"),
    ("reach_reduction", "65", "error request: `reach_reduction` must be a boolean"),
    ("conflict_limit", "10000", "ok 10000 411cc4f79acfbaa5"),
    ("conflict_limit", "null", "ok null 16fdd2bbdd7940b9"),
    ("conflict_limit", "\"7\"", "error request: `conflict_limit` must be null or an integer"),
    ("conflict_limit", "-1", "error request: `conflict_limit` must be null or an integer"),
    ("conflict_limit", "65", "ok 65 a964ff019beca7f9"),
    ("objective_stop", "-7", "ok -7 903387ddb1b96696"),
    ("objective_stop", "null", "ok null 16fdd2bbdd7940b9"),
    ("objective_stop", "\"7\"", "error request: `objective_stop` must be null or an integer"),
    ("objective_stop", "-1", "ok -1 28a045bcf751e350"),
    ("objective_stop", "65", "ok 65 c0c504fa70b7b379"),
    ("explain_infeasible", "true", "ok true ce0428208951c7f8"),
    ("explain_infeasible", "null", "error request: `explain_infeasible` must be a boolean"),
    ("explain_infeasible", "\"7\"", "error request: `explain_infeasible` must be a boolean"),
    ("explain_infeasible", "-1", "error request: `explain_infeasible` must be a boolean"),
    ("explain_infeasible", "65", "error request: `explain_infeasible` must be a boolean"),
    ("certify", "true", "ok true 7861c9f16aa6a618"),
    ("certify", "null", "error request: `certify` must be a boolean"),
    ("certify", "\"7\"", "error request: `certify` must be a boolean"),
    ("certify", "-1", "error request: `certify` must be a boolean"),
    ("certify", "65", "error request: `certify` must be a boolean"),
    ("mem_limit", "1048576", "ok 1048576 49ff3ea52a67dda8"),
    ("mem_limit", "null", "ok null 16fdd2bbdd7940b9"),
    ("mem_limit", "\"7\"", "error request: `mem_limit` must be null or an integer"),
    ("mem_limit", "-1", "error request: `mem_limit` must be null or an integer"),
    ("mem_limit", "65", "ok 65 13d3723d2dc197f9"),
    ("build_jobs", "4", "ok 4 16fdd2bbdd7940b9"),
    ("build_jobs", "null", "error request: `build_jobs` must be a non-negative integer"),
    ("build_jobs", "\"7\"", "error request: `build_jobs` must be a non-negative integer"),
    ("build_jobs", "-1", "error request: `build_jobs` must be a non-negative integer"),
    ("build_jobs", "65", "error request: `build_jobs` must be <= 64"),
    ("anneal_fallback", "true", "ok - 16fdd2bbdd7940b9"),
    ("anneal_fallback", "null", "ok - 16fdd2bbdd7940b9"),
    ("anneal_fallback", "\"7\"", "ok - 16fdd2bbdd7940b9"),
    ("anneal_fallback", "-1", "ok - 16fdd2bbdd7940b9"),
    ("anneal_fallback", "65", "ok - 16fdd2bbdd7940b9"),
    ("seed_probes", "6", "ok 6 f0f2556c4ff7d23f"),
    ("seed_probes", "null", "error request: `seed_probes` must be a non-negative integer"),
    ("seed_probes", "\"7\"", "error request: `seed_probes` must be a non-negative integer"),
    ("seed_probes", "-1", "error request: `seed_probes` must be a non-negative integer"),
    ("seed_probes", "65", "error request: `seed_probes` must be <= 64"),
    ("probe_budget_us", "750000", "ok - 16fdd2bbdd7940b9"),
    ("probe_budget_us", "null", "ok - 16fdd2bbdd7940b9"),
    ("probe_budget_us", "\"7\"", "ok - 16fdd2bbdd7940b9"),
    ("probe_budget_us", "-1", "ok - 16fdd2bbdd7940b9"),
    ("probe_budget_us", "65", "ok - 16fdd2bbdd7940b9"),
    ("", "null", "ok {\"time_limit_us\"… #0b7f8c2dd2f87a67 16fdd2bbdd7940b9"),
    ("", "{}", "ok {\"time_limit_us\"… #0b7f8c2dd2f87a67 16fdd2bbdd7940b9"),
    ("", "[]", "error request: `options` must be an object"),
    ("", "\"x\"", "error request: `options` must be an object"),
    ("", "7", "error request: `options` must be an object"),
    ("", "{\"unknown\":1}", "ok {\"time_limit_us\"… #0b7f8c2dd2f87a67 16fdd2bbdd7940b9"),
    ("", "{\"threads\":2,\"threads\":3}", "ok {\"time_limit_us\"… #45f8c3dbe81fa770 5f591a65755a285a"),
    ("", "{\"threads\":2,\"build_jobs\":3,\"seed\":5,\"optimize\":true}", "ok {\"time_limit_us\"… #2fedc302a74acfab 4fa3dada5e468949"),
];

#[test]
fn decode_options_matches_golden() {
    let actual = decode_corpus();
    let table: String = actual
        .iter()
        .map(|(k, v, r)| format!("    ({k:?}, {v:?}, {r:?}),\n"))
        .collect();
    let expected: Vec<(String, String, String)> = DECODE_GOLDEN
        .iter()
        .map(|&(k, v, r)| (k.to_owned(), v.to_owned(), r.to_owned()))
        .collect();
    assert!(
        actual == expected,
        "decode_options drifted from the golden table; actual table:\n{table}"
    );
    // An absent options block is the defaults.
    let absent = decode_options(None).expect("absent options decode");
    assert_eq!(
        options_fingerprint(&absent),
        options_fingerprint(&MapperOptions::default())
    );
}

#[test]
fn fingerprint_moves_exactly_with_keyed_options() {
    type CopyField = fn(&mut MapperOptions, &MapperOptions);
    let fields: [(&str, bool, CopyField); 18] = [
        ("time_limit", true, |d, s| d.time_limit = s.time_limit),
        ("optimize", true, |d, s| d.optimize = s.optimize),
        ("objective", true, |d, s| d.objective = s.objective),
        ("commutativity", true, |d, s| {
            d.commutativity = s.commutativity
        }),
        ("mux_exclusivity", true, |d, s| {
            d.mux_exclusivity = s.mux_exclusivity
        }),
        ("redundant_capacity", true, |d, s| {
            d.redundant_capacity = s.redundant_capacity
        }),
        ("seed", true, |d, s| d.seed = s.seed),
        ("warm_start", true, |d, s| d.warm_start = s.warm_start),
        ("threads", true, |d, s| d.threads = s.threads),
        ("presolve", true, |d, s| d.presolve = s.presolve),
        ("reach_reduction", true, |d, s| {
            d.reach_reduction = s.reach_reduction
        }),
        ("conflict_limit", true, |d, s| {
            d.conflict_limit = s.conflict_limit
        }),
        ("objective_stop", true, |d, s| {
            d.objective_stop = s.objective_stop
        }),
        ("explain_infeasible", true, |d, s| {
            d.explain_infeasible = s.explain_infeasible
        }),
        ("certify", true, |d, s| d.certify = s.certify),
        ("mem_limit", true, |d, s| d.mem_limit = s.mem_limit),
        ("build_jobs", false, |d, s| d.build_jobs = s.build_jobs),
        ("seed_probes", true, |d, s| d.seed_probes = s.seed_probes),
    ];
    let (default, full) = (MapperOptions::default(), full_options());
    for (base, other) in [(default, full), (full, default)] {
        for (name, keyed, copy) in fields {
            let mut moved = base;
            copy(&mut moved, &other);
            assert_eq!(
                options_fingerprint(&moved) != options_fingerprint(&base),
                keyed,
                "moving `{name}` alone must change the fingerprint iff it is keyed"
            );
            assert_eq!(key_of(&moved) != key_of(&base), keyed, "{name}");
        }
    }
    // A weight alone moves a weighted objective's fingerprint too.
    let mut reweighted = full;
    reweighted.objective = Objective::Weighted(ObjectiveWeights {
        wire: 1,
        mux: 5,
        register: 4,
    });
    assert_ne!(options_fingerprint(&reweighted), options_fingerprint(&full));
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

fn presolve_stats(base: u64) -> PresolveStats {
    PresolveStats {
        vars_before: base + 1,
        vars_after: base + 2,
        constraints_before: base + 3,
        constraints_after: base + 4,
        fixed_vars: base + 5,
        aliased_vars: base + 6,
        removed_constraints: base + 7,
        strengthened: base + 8,
        rounds: base as u32 + 12,
        elapsed: Duration::from_micros(base + 13),
    }
}

fn solve_stats() -> SolveStats {
    SolveStats {
        engine: EngineStats {
            conflicts: 101,
            decisions: 102,
            propagations: 103,
            restarts: 104,
            deleted_clauses: 105,
            learnt_clauses: 106,
            lbd_total: 107,
            deleted_mid: 108,
            deleted_local: 109,
            kept_core: 110,
            kept_mid: 111,
            kept_local: 112,
            imported_clauses: 113,
            exported_clauses: 114,
            inprocessings: 115,
            vivified_lits: 116,
            subsumed_clauses: 117,
            strengthened_lits: 118,
            gc_runs: 119,
        },
        incumbents: 201,
        elapsed: Duration::from_micros(202),
        workers: 203,
        winner: Some(204),
        presolve: presolve_stats(300),
        worker_panics: 205,
        probe_workers: 206,
        probe_incumbents: 207,
        bound_tightenings: 208,
        incumbent_source: Some(IncumbentSource::Heuristic),
    }
}

fn map_report() -> MapReport {
    MapReport {
        outcome: MapOutcome::Infeasible {
            reason: Some(BuildInfeasible::CapacityExceeded {
                matched: 19,
                ops: 16,
            }),
        },
        elapsed: Duration::from_micros(401),
        formulation: FormulationStats {
            f_vars: 501,
            r_vars: 502,
            rs_vars: 503,
            swap_vars: 504,
            constraints: 505,
            reach_rounds: 506,
        },
        solver: solve_stats(),
        infeasible_core: Some(vec!["place:n3".to_owned(), "mux-excl".to_owned()]),
        certificate: Some(Certificate::Certified {
            steps: 601,
            bytes: 602,
        }),
    }
}

fn min_ii_report() -> MinIiReport {
    let mut timeout = map_report();
    timeout.outcome = MapOutcome::Timeout;
    timeout.infeasible_core = None;
    timeout.certificate = None;
    MinIiReport {
        attempts: vec![
            IiAttempt {
                ii: 1,
                report: map_report(),
                provenance: VerdictProvenance::Certified,
            },
            IiAttempt {
                ii: 2,
                report: timeout,
                provenance: VerdictProvenance::Unchecked,
            },
        ],
        min_ii: None,
        totals: MinIiTotals {
            elapsed: Duration::from_micros(701),
            capacity_shortcuts: 702,
            conflicts: 703,
            decisions: 704,
            presolve: presolve_stats(800),
        },
    }
}

struct Fixture {
    dfg: Dfg,
    mrrgs: Vec<Arc<Mrrg>>,
}

impl Fixture {
    fn new() -> Fixture {
        let arch = grid(GridParams::paper(
            FuMix::Homogeneous,
            Interconnect::Diagonal,
        ));
        Fixture {
            dfg: (cgra_dfg::benchmarks::by_name("accum")
                .expect("known kernel")
                .build)(),
            mrrgs: (1..=2)
                .map(|ii| Arc::new(cgra_mrrg::build_mrrg(&arch, ii)))
                .collect(),
        }
    }

    fn mrrg(&self, ii: u32) -> Arc<Mrrg> {
        Arc::clone(&self.mrrgs[ii as usize - 1])
    }

    fn encode_map(&self, report: &MapReport) -> Json {
        encode_map_report(&self.dfg, &self.mrrg(1), report)
    }

    fn reencode_map(&self, doc: &Json) -> Result<Json, WireError> {
        decode_map_report(&self.dfg, &self.mrrg(1), doc).map(|r| self.encode_map(&r))
    }

    fn encode_min_ii(&self, report: &MinIiReport) -> Json {
        encode_min_ii_report(&self.dfg, report, |ii| self.mrrg(ii))
    }

    fn reencode_min_ii(&self, doc: &Json) -> Result<Json, WireError> {
        decode_min_ii_report(&self.dfg, doc, |ii| self.mrrg(ii)).map(|r| self.encode_min_ii(&r))
    }
}

/// Every member path under `roots`, depth first (objects only).
fn paths(doc: &Json, roots: &[&str]) -> Vec<Vec<String>> {
    fn walk(v: &Json, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        out.push(prefix.clone());
        if let Some(members) = v.as_object() {
            for (k, child) in members {
                prefix.push(k.clone());
                walk(child, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    for &root in roots {
        let child = doc.get(root).expect("root exists");
        walk(child, &mut vec![root.to_owned()], &mut out);
    }
    out
}

fn lookup<'a>(doc: &'a Json, path: &[String]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |v, k| v.get(k))
}

fn without(doc: &Json, path: &[String]) -> Json {
    let mut doc = doc.clone();
    let (last, parents) = path.split_last().expect("non-empty path");
    let mut at = &mut doc;
    for k in parents {
        let Json::Object(members) = at else {
            panic!("path runs through objects")
        };
        at = &mut members.iter_mut().find(|(m, _)| m == k).expect("member").1;
    }
    let Json::Object(members) = at else {
        panic!("path ends in an object")
    };
    members.retain(|(m, _)| m != last);
    doc
}

/// For each path: the decode error when that member is removed, or the
/// value it re-encodes to.
fn removal_table(
    doc: &Json,
    roots: &[&str],
    reencode: impl Fn(&Json) -> Result<Json, WireError>,
) -> Vec<(String, String)> {
    paths(doc, roots)
        .into_iter()
        .map(|path| {
            let result = match reencode(&without(doc, &path)) {
                Err(e) => err_text(&e),
                Ok(back) => match lookup(&back, &path) {
                    Some(v) => format!("ok {}", truncate(&v.to_string())),
                    None => "ok absent".to_owned(),
                },
            };
            (path.join("."), result)
        })
        .collect()
}

fn truncate(text: &str) -> String {
    if text.len() <= 40 {
        text.to_owned()
    } else {
        let head: String = text.chars().take(16).collect();
        format!("{head}… #{:016x}", fnv1a(text.as_bytes()))
    }
}

const MAP_REPORT_DIGEST: u64 = 0x7af4c54654348887;
const MIN_II_REPORT_DIGEST: u64 = 0xcad1cc16545af076;

#[rustfmt::skip]
const MAP_REMOVAL_GOLDEN: &[(&str, &str)] = &[
    ("elapsed_us", "error request: missing integer field `elapsed_us`"),
    ("formulation", "error request: missing `formulation`"),
    ("formulation.f_vars", "error request: missing integer field `f_vars`"),
    ("formulation.r_vars", "error request: missing integer field `r_vars`"),
    ("formulation.rs_vars", "error request: missing integer field `rs_vars`"),
    ("formulation.swap_vars", "error request: missing integer field `swap_vars`"),
    ("formulation.constraints", "error request: missing integer field `constraints`"),
    ("formulation.reach_rounds", "error request: missing integer field `reach_rounds`"),
    ("solver", "error request: missing `solver`"),
    ("solver.engine", "error request: missing `engine`"),
    ("solver.engine.conflicts", "error request: missing integer field `conflicts`"),
    ("solver.engine.decisions", "error request: missing integer field `decisions`"),
    ("solver.engine.propagations", "error request: missing integer field `propagations`"),
    ("solver.engine.restarts", "error request: missing integer field `restarts`"),
    ("solver.engine.deleted_clauses", "error request: missing integer field `deleted_clauses`"),
    ("solver.engine.learnt_clauses", "error request: missing integer field `learnt_clauses`"),
    ("solver.engine.lbd_total", "error request: missing integer field `lbd_total`"),
    ("solver.engine.deleted_mid", "error request: missing integer field `deleted_mid`"),
    ("solver.engine.deleted_local", "error request: missing integer field `deleted_local`"),
    ("solver.engine.kept_core", "error request: missing integer field `kept_core`"),
    ("solver.engine.kept_mid", "error request: missing integer field `kept_mid`"),
    ("solver.engine.kept_local", "error request: missing integer field `kept_local`"),
    ("solver.engine.imported_clauses", "error request: missing integer field `imported_clauses`"),
    ("solver.engine.exported_clauses", "error request: missing integer field `exported_clauses`"),
    ("solver.engine.inprocessings", "ok 0"),
    ("solver.engine.vivified_lits", "ok 0"),
    ("solver.engine.subsumed_clauses", "ok 0"),
    ("solver.engine.strengthened_lits", "ok 0"),
    ("solver.engine.gc_runs", "ok 0"),
    ("solver.incumbents", "error request: missing integer field `incumbents`"),
    ("solver.elapsed_us", "error request: missing integer field `elapsed_us`"),
    ("solver.workers", "error request: missing integer field `workers`"),
    ("solver.winner", "ok null"),
    ("solver.presolve", "error request: missing `presolve`"),
    ("solver.presolve.vars_before", "error request: missing integer field `vars_before`"),
    ("solver.presolve.vars_after", "error request: missing integer field `vars_after`"),
    ("solver.presolve.constraints_before", "error request: missing integer field `constraints_before`"),
    ("solver.presolve.constraints_after", "error request: missing integer field `constraints_after`"),
    ("solver.presolve.fixed_vars", "error request: missing integer field `fixed_vars`"),
    ("solver.presolve.aliased_vars", "error request: missing integer field `aliased_vars`"),
    ("solver.presolve.removed_constraints", "error request: missing integer field `removed_constraints`"),
    ("solver.presolve.strengthened", "error request: missing integer field `strengthened`"),
    ("solver.presolve.rounds", "error request: missing integer field `rounds`"),
    ("solver.presolve.elapsed_us", "error request: missing integer field `elapsed_us`"),
    ("solver.worker_panics", "error request: missing integer field `worker_panics`"),
    ("solver.probe_workers", "ok 0"),
    ("solver.probe_incumbents", "ok 0"),
    ("solver.bound_tightenings", "ok 0"),
    ("solver.incumbent_source", "ok null"),
];
#[rustfmt::skip]
const MIN_II_REMOVAL_GOLDEN: &[(&str, &str)] = &[
    ("totals", "error request: missing `totals`"),
    ("totals.elapsed_us", "error request: missing integer field `elapsed_us`"),
    ("totals.capacity_shortcuts", "error request: missing integer field `capacity_shortcuts`"),
    ("totals.conflicts", "error request: missing integer field `conflicts`"),
    ("totals.decisions", "error request: missing integer field `decisions`"),
    ("totals.presolve", "error request: totals missing `presolve`"),
    ("totals.presolve.vars_before", "error request: missing integer field `vars_before`"),
    ("totals.presolve.vars_after", "error request: missing integer field `vars_after`"),
    ("totals.presolve.constraints_before", "error request: missing integer field `constraints_before`"),
    ("totals.presolve.constraints_after", "error request: missing integer field `constraints_after`"),
    ("totals.presolve.fixed_vars", "error request: missing integer field `fixed_vars`"),
    ("totals.presolve.aliased_vars", "error request: missing integer field `aliased_vars`"),
    ("totals.presolve.removed_constraints", "error request: missing integer field `removed_constraints`"),
    ("totals.presolve.strengthened", "error request: missing integer field `strengthened`"),
    ("totals.presolve.rounds", "error request: missing integer field `rounds`"),
    ("totals.presolve.elapsed_us", "error request: missing integer field `elapsed_us`"),
];

#[test]
fn report_encodings_match_golden() {
    let fx = Fixture::new();
    let map_doc = fx.encode_map(&map_report());
    let min_ii_doc = fx.encode_min_ii(&min_ii_report());
    let (map_text, min_ii_text) = (map_doc.to_string(), min_ii_doc.to_string());
    let printed = format!(
        "map: 0x{:016x}\n{map_text}\nmin_ii: 0x{:016x}\n{min_ii_text}\n",
        fnv1a(map_text.as_bytes()),
        fnv1a(min_ii_text.as_bytes())
    );
    assert!(
        fnv1a(map_text.as_bytes()) == MAP_REPORT_DIGEST
            && fnv1a(min_ii_text.as_bytes()) == MIN_II_REPORT_DIGEST,
        "report encodings drifted from the golden digests; actual:\n{printed}"
    );
    // Both decode back to the same text.
    assert_eq!(fx.reencode_map(&map_doc).unwrap().to_string(), map_text);
    assert_eq!(
        fx.reencode_min_ii(&min_ii_doc).unwrap().to_string(),
        min_ii_text
    );
}

#[test]
fn removed_counter_keys_decode_as_golden() {
    let fx = Fixture::new();
    let map_doc = fx.encode_map(&map_report());
    let min_ii_doc = fx.encode_min_ii(&min_ii_report());
    let cases = [
        (
            "map",
            removal_table(&map_doc, &["elapsed_us", "formulation", "solver"], |d| {
                fx.reencode_map(d)
            }),
            MAP_REMOVAL_GOLDEN,
        ),
        (
            "min_ii",
            removal_table(&min_ii_doc, &["totals"], |d| fx.reencode_min_ii(d)),
            MIN_II_REMOVAL_GOLDEN,
        ),
    ];
    let mut drifted = String::new();
    for (name, actual, golden) in cases {
        let expected: Vec<(String, String)> = golden
            .iter()
            .map(|&(p, r)| (p.to_owned(), r.to_owned()))
            .collect();
        if actual != expected {
            drifted.push_str(&format!("{name} report, actual table:\n"));
            for (p, r) in &actual {
                drifted.push_str(&format!("    ({p:?}, {r:?}),\n"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "report decoding drifted from the golden tables; {drifted}"
    );
}
