//! Golden digests of the presolve reduction.
//!
//! Presolve must be deterministic down to the byte: the reduced model,
//! its `Reconstruction` and every `PresolveStats` counter except
//! `elapsed` feed the solver, so any drift changes search, verdicts and
//! conflict counts downstream. This suite presolves a fixed corpus and
//! compares an FNV-1a digest of each result against digests recorded
//! from the reference implementation. The corpus mixes Table 2 cells,
//! small generated fabrics, the ablation option sets on two of those
//! fabrics, two models on which failed-literal probing (since deleted)
//! fixed literals, and seeded synthetic models for shapes the mapping
//! formulations never produce (a refuted root, a contradictory
//! equivalence class, negated aliases, free variables under an
//! objective, weighted duplicates); the second test asserts that each of
//! those paths is actually reached.
//!
//! On a mismatch the first test prints the full digest table, so an
//! intended change to presolve's output can be re-recorded in one step.

use bilp::{presolve, Cmp, LinExpr, Model, PresolveStats, Presolved};
use cgra_arch::families::{grid, paper_configs, FuMix, GridParams, Interconnect};
use cgra_dfg::random::{random_dfg, RandomDfgParams};
use cgra_dfg::Dfg;
use cgra_mapper::{Formulation, MapperOptions, Objective, ObjectiveWeights};
use cgra_mrrg::build_mrrg;
use cgra_rng::Rng;

/// One named corpus entry.
struct Case {
    name: String,
    model: Model,
}

fn case(name: impl Into<String>, model: Model) -> Case {
    Case {
        name: name.into(),
        model,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every counter except the wall-clock `elapsed`.
fn counters(s: &PresolveStats) -> [u64; 9] {
    [
        s.vars_before,
        s.vars_after,
        s.constraints_before,
        s.constraints_after,
        s.fixed_vars,
        s.aliased_vars,
        s.removed_constraints,
        s.strengthened,
        u64::from(s.rounds),
    ]
}

fn digest(p: &Presolved) -> u64 {
    let text = match p {
        Presolved::Infeasible { stats } => format!("infeasible{:?}", counters(stats)),
        Presolved::Reduced {
            model,
            reconstruction,
            stats,
        } => format!("{model:?}{reconstruction:?}{:?}", counters(stats)),
    };
    fnv1a(text.as_bytes())
}

// ---- Mapping formulations -------------------------------------------

fn formulation_model(
    dfg: &Dfg,
    arch: &cgra_arch::Architecture,
    ii: u32,
    options: MapperOptions,
) -> Option<Model> {
    let mrrg = build_mrrg(arch, ii);
    Formulation::build(dfg, &mrrg, options)
        .ok()
        .map(|f| f.model().clone())
}

fn optimizing(optimize: bool) -> MapperOptions {
    MapperOptions {
        optimize,
        ..MapperOptions::default()
    }
}

/// The ablation option sets, each switching one part of the formulation
/// off (or weighting the objective). The textbook encoding
/// (`reach_reduction: false`) is the only measured mapping traffic on
/// which root propagation fixes variables (EXPERIMENTS.md A14).
fn ablations() -> [(&'static str, MapperOptions); 5] {
    let base = MapperOptions::default();
    [
        (
            "textbook",
            MapperOptions {
                reach_reduction: false,
                ..base
            },
        ),
        (
            "no-commutativity",
            MapperOptions {
                commutativity: false,
                ..base
            },
        ),
        (
            "no-mux-exclusivity",
            MapperOptions {
                mux_exclusivity: false,
                ..base
            },
        ),
        (
            "no-redundant-capacity",
            MapperOptions {
                redundant_capacity: false,
                ..base
            },
        ),
        (
            "weighted",
            MapperOptions {
                optimize: true,
                objective: Objective::Weighted(ObjectiveWeights::default()),
                ..base
            },
        ),
    ]
}

fn small_grid(
    rows: usize,
    cols: usize,
    fu_mix: FuMix,
    interconnect: Interconnect,
) -> cgra_arch::Architecture {
    grid(GridParams {
        rows,
        cols,
        ..GridParams::paper(fu_mix, interconnect)
    })
}

/// Small generated fabrics.
fn fabrics() -> [(&'static str, cgra_arch::Architecture); 3] {
    [
        (
            "2x2-homo-orth",
            small_grid(2, 2, FuMix::Homogeneous, Interconnect::Orthogonal),
        ),
        (
            "2x3-hetero-diag",
            small_grid(2, 3, FuMix::Heterogeneous, Interconnect::Diagonal),
        ),
        (
            "3x3-homo-diag",
            small_grid(3, 3, FuMix::Homogeneous, Interconnect::Diagonal),
        ),
    ]
}

fn mapping_cases() -> Vec<Case> {
    let mut out = Vec::new();
    let configs = paper_configs();
    // Table 2 cells: four kernels on three columns each, spanning both
    // FU mixes, both interconnects and both context counts. Cells the
    // build refutes have no model and are skipped.
    for (kernel, columns) in [
        ("accum", [0usize, 3, 4]),
        ("mac", [1, 3, 6]),
        ("2x2-f", [2, 5, 7]),
        ("mult_10", [0, 3, 7]),
    ] {
        let dfg = (cgra_dfg::benchmarks::by_name(kernel)
            .expect("paper kernel")
            .build)();
        for col in columns {
            let c = &configs[col];
            if let Some(m) = formulation_model(&dfg, &c.arch, c.contexts, optimizing(false)) {
                out.push(case(
                    format!("table2/{kernel}/{}x{}", c.label, c.contexts),
                    m,
                ));
            }
        }
    }
    // Small generated fabrics with seeded kernels; half minimise routing,
    // so the objective rides through substitution and free-variable
    // elimination.
    for (f, (label, arch)) in fabrics().iter().enumerate() {
        for seed in 0..3u64 {
            let dfg = random_dfg(
                RandomDfgParams {
                    inputs: 2,
                    internal_ops: 3 + seed as usize,
                    allow_multiplies: true,
                    allow_memory: false,
                },
                11 + seed,
            );
            let optimize = (f as u64 + seed).is_multiple_of(2);
            for ii in [1u32, 2] {
                if let Some(m) = formulation_model(&dfg, arch, ii, optimizing(optimize)) {
                    out.push(case(
                        format!("family/{label}/rand{seed}@{ii}/opt={optimize}"),
                        m,
                    ));
                }
            }
        }
    }
    out
}

/// The ablation option sets on the first two fabrics, one seeded kernel
/// each.
fn ablation_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (f, (label, arch)) in fabrics().iter().take(2).enumerate() {
        let dfg = random_dfg(
            RandomDfgParams {
                inputs: 2,
                internal_ops: 4,
                allow_multiplies: true,
                allow_memory: false,
            },
            21 + f as u64,
        );
        for (name, options) in ablations() {
            for ii in [1u32, 2] {
                if let Some(m) = formulation_model(&dfg, arch, ii, options) {
                    out.push(case(format!("ablation/{label}/{name}@{ii}"), m));
                }
            }
        }
    }
    out
}

/// Two models of the one mapping shape on which failed-literal probing,
/// since deleted, fixed literals: a small kernel on a 2x2 heterogeneous
/// fabric at II 1. Both are in perfbench's `serve` hot set. Their digests
/// were recorded without probing; with it, presolve fixed 66 and 70
/// variables more.
fn probed_cases() -> Vec<Case> {
    let dfg = random_dfg(
        RandomDfgParams {
            inputs: 2,
            internal_ops: 3,
            allow_multiplies: true,
            allow_memory: false,
        },
        109,
    );
    let mut out = Vec::new();
    for (label, interconnect) in [
        ("hetero-orth", Interconnect::Orthogonal),
        ("hetero-diag", Interconnect::Diagonal),
    ] {
        let arch = small_grid(2, 2, FuMix::Heterogeneous, interconnect);
        if let Some(m) = formulation_model(&dfg, &arch, 1, optimizing(false)) {
            out.push(case(format!("probed/2x2-{label}/rand3:109@1"), m));
        }
    }
    out
}

// ---- Synthetic models for the paths mapping models never take -------

/// Every 3-subset of 25 variables as a clause, followed by a binary
/// clause and a ternary clause it subsumes: a large model of long clauses,
/// none of them a duplicate, so presolve keeps every one.
fn subsume_budget_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(25);
    for a in 0..25 {
        for b in a + 1..25 {
            for c in b + 1..25 {
                m.add_clause([v[a].lit(), v[b].lit(), v[c].lit()]);
            }
        }
    }
    let t = m.new_vars(3);
    m.add_clause([t[0].lit(), t[1].lit()]);
    m.add_clause([t[0].lit(), t[1].lit(), t[2].lit()]);
    m
}

/// Syntactic duplicates: two identical weighted at-mosts, and a repeated
/// clause.
fn dedup_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(4);
    for _ in 0..2 {
        m.add_le(LinExpr::new() + (2, v[0]) + (3, v[1]) + (4, v[2]), 5);
    }
    m.add_le(LinExpr::new() + (2, v[1]) + (3, v[2]) + (4, v[3]), 6);
    m.add_le(LinExpr::new() + (2, v[1]) + (3, v[2]) + (4, v[3]), 6);
    m
}

/// An implication cycle `a → b → c → a` plus a negated alias
/// `d ≡ ¬e`, kept alive by a clause over the class representatives.
fn aliasing_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(6);
    m.add_implies(v[0].lit(), v[1].lit());
    m.add_implies(v[1].lit(), v[2].lit());
    m.add_implies(v[2].lit(), v[0].lit());
    m.add_implies(v[3].lit(), !v[4].lit());
    m.add_implies(!v[4].lit(), v[3].lit());
    m.add_clause([v[0].lit(), v[3].lit(), v[5].lit()]);
    m.add_le(LinExpr::new() + (2, v[2]) + (1, v[4]) + (2, v[5]), 3);
    let mut obj = LinExpr::new();
    obj.add_term(3, v[1]);
    obj.add_term(-2, v[4]);
    obj.add_term(1, v[5]);
    m.minimize(obj);
    m
}

/// Unconstrained variables under an objective pick its preferred
/// polarity; one constrained pair survives.
fn free_objective_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(5);
    m.add_clause([v[3].lit(), v[4].lit()]);
    let mut obj = LinExpr::new();
    obj.add_term(3, v[0]);
    obj.add_term(-2, v[1]);
    obj.add_term(5, v[3]);
    obj.add_term(4, v[4]);
    obj.add_constant(7);
    m.minimize(obj);
    m
}

fn infeasible_unit_model() -> Model {
    let mut m = Model::new();
    let x = m.new_var();
    m.fix(x, true);
    m.fix(x, false);
    m
}

/// `x ≡ ¬x` through a chain of implications: the equivalence pass finds
/// both polarities of one variable in one component.
fn infeasible_equiv_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(3);
    m.add_implies(v[0].lit(), v[1].lit());
    m.add_implies(v[1].lit(), !v[0].lit());
    m.add_implies(!v[0].lit(), v[2].lit());
    m.add_implies(v[2].lit(), v[0].lit());
    m
}

fn random_model(rng: &mut Rng) -> Model {
    let n_vars = rng.gen_range_inclusive(3..=24);
    let mut m = Model::new();
    let vars = m.new_vars(n_vars);
    for _ in 0..rng.gen_range_inclusive(2..=30) {
        let mut e = LinExpr::new();
        for _ in 0..rng.gen_range_inclusive(1..=5) {
            e.add_term(
                rng.gen_i64_inclusive(-4..=4),
                vars[rng.gen_range(0..n_vars)],
            );
        }
        let cmp = match rng.below(3) {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add(e, cmp, rng.gen_i64_inclusive(-4..=6));
    }
    for _ in 0..rng.gen_range_inclusive(0..=12) {
        let a = vars[rng.gen_range(0..n_vars)].lit();
        let b = vars[rng.gen_range(0..n_vars)].lit();
        let a = if rng.gen_bool(0.5) { !a } else { a };
        let b = if rng.gen_bool(0.5) { !b } else { b };
        m.add_clause([a, b]);
    }
    if rng.gen_bool(0.5) {
        let mut e = LinExpr::new();
        for _ in 0..rng.gen_range_inclusive(1..=n_vars) {
            e.add_term(
                rng.gen_i64_inclusive(-5..=5),
                vars[rng.gen_range(0..n_vars)],
            );
        }
        m.minimize(e);
    }
    m
}

fn synthetic_cases() -> Vec<Case> {
    let mut out = vec![
        case("subsume-budget", subsume_budget_model()),
        case("dedup", dedup_model()),
        case("aliasing", aliasing_model()),
        case("free-objective", free_objective_model()),
        case("infeasible-unit", infeasible_unit_model()),
        case("infeasible-equiv", infeasible_equiv_model()),
    ];
    let mut rng = Rng::seed_from_u64(0x60_1DE2);
    for i in 0..40 {
        out.push(case(format!("random-{i}"), random_model(&mut rng)));
    }
    out
}

fn corpus() -> Vec<Case> {
    let mut out = synthetic_cases();
    out.extend(mapping_cases());
    out.extend(ablation_cases());
    out.extend(probed_cases());
    out
}

/// Digests recorded from the reference presolve over [`corpus`].
const GOLDEN: &[(&str, u64)] = &[
    ("subsume-budget", 0xa232ab93793d9780),
    ("dedup", 0x4f13f94e22d7246c),
    ("aliasing", 0x006ce2732340e4df),
    ("free-objective", 0xbf693bd23029d7b5),
    ("infeasible-unit", 0x3a3c533e9608ebcd),
    ("infeasible-equiv", 0x8c9d3ee7547643f1),
    ("random-0", 0x0e59f58d00afa994),
    ("random-1", 0xa5a0934221743876),
    ("random-2", 0x438d8b4e6546ada4),
    ("random-3", 0x26ac509557a16e27),
    ("random-4", 0x0e56f98d00ad7a89),
    ("random-5", 0xebc07a1d83a2dc9e),
    ("random-6", 0x80e0c22dd94c2560),
    ("random-7", 0x429e79e8d2897dee),
    ("random-8", 0xfb55ff98abb84e93),
    ("random-9", 0xe7c4f6c9737220f0),
    ("random-10", 0x85430ae77e6ade17),
    ("random-11", 0x8b08390072faa5b6),
    ("random-12", 0xc0048614b3a2eeed),
    ("random-13", 0xe80eba445a2212e2),
    ("random-14", 0x47191b55396d2be6),
    ("random-15", 0x2ee99ad1af59359b),
    ("random-16", 0x8cdf87df2edb5f0d),
    ("random-17", 0xbf9fda421b32f295),
    ("random-18", 0x153ba29c7203e933),
    ("random-19", 0x7937ab6cf6c9f2f4),
    ("random-20", 0xfa3ffec44e6dbf9c),
    ("random-21", 0xe949cff427495d47),
    ("random-22", 0x768e422436b32aa6),
    ("random-23", 0xa471acada52bae18),
    ("random-24", 0x18b5995690b4b813),
    ("random-25", 0xebd80431cdf196ef),
    ("random-26", 0x735d4db312b9e5a3),
    ("random-27", 0x8b08390072faa5b6),
    ("random-28", 0x40f9089944562ff9),
    ("random-29", 0x24b02266cfc979f0),
    ("random-30", 0x27fa7df6370f4cc6),
    ("random-31", 0xc5bc5a7a36307e36),
    ("random-32", 0xa19ce6cc3ca82417),
    ("random-33", 0xcf9895ac55646072),
    ("random-34", 0x073a15a29f930572),
    ("random-35", 0xef9b7f10c3118b5c),
    ("random-36", 0xf748a270a266e6a2),
    ("random-37", 0xaef5387f752299f4),
    ("random-38", 0x935d1191036058ce),
    ("random-39", 0xb3bad0428d5f94bb),
    ("table2/accum/hetero-orthx1", 0x8fd18102a351a3c3),
    ("table2/accum/homo-diagx1", 0x8e2b5b37088b987c),
    ("table2/accum/hetero-orthx2", 0x2625a5d201ed4468),
    ("table2/mac/hetero-diagx1", 0xbe679ff9c57ca5bd),
    ("table2/mac/homo-diagx1", 0x8e74bec14b250bb3),
    ("table2/mac/homo-orthx2", 0xc6afa34faa45e9eb),
    ("table2/2x2-f/homo-orthx1", 0x5d9ebd8d6f6ad892),
    ("table2/2x2-f/hetero-diagx2", 0xe3871911babfe42f),
    ("table2/2x2-f/homo-diagx2", 0xf54d30059ca30ea8),
    ("table2/mult_10/homo-diagx1", 0xff8bb3d2799440f3),
    ("table2/mult_10/homo-diagx2", 0x65983aea0b0194fd),
    ("family/2x2-homo-orth/rand0@1/opt=true", 0x2d1a555e9e2a82ad),
    ("family/2x2-homo-orth/rand0@2/opt=true", 0x3bf5913adc46ddee),
    ("family/2x2-homo-orth/rand1@1/opt=false", 0xb9c32eb89b4611b7),
    ("family/2x2-homo-orth/rand1@2/opt=false", 0x67a80fe018eb7cf6),
    ("family/2x2-homo-orth/rand2@2/opt=true", 0x5d48494779fa4e7e),
    (
        "family/2x3-hetero-diag/rand0@1/opt=false",
        0x9c019c040315115a,
    ),
    (
        "family/2x3-hetero-diag/rand0@2/opt=false",
        0xe207bdb06299c086,
    ),
    (
        "family/2x3-hetero-diag/rand1@1/opt=true",
        0xcb5113ce79236850,
    ),
    (
        "family/2x3-hetero-diag/rand1@2/opt=true",
        0x6968366248cb1bf5,
    ),
    (
        "family/2x3-hetero-diag/rand2@1/opt=false",
        0x197e240fcdc8c3e7,
    ),
    (
        "family/2x3-hetero-diag/rand2@2/opt=false",
        0xe8c03b813c63e0c0,
    ),
    ("family/3x3-homo-diag/rand0@1/opt=true", 0x995a5a8c570c4649),
    ("family/3x3-homo-diag/rand0@2/opt=true", 0x43b70f385e4d51f3),
    ("family/3x3-homo-diag/rand1@1/opt=false", 0x7167112e25a81659),
    ("family/3x3-homo-diag/rand1@2/opt=false", 0x9baf23be29e317dc),
    ("family/3x3-homo-diag/rand2@1/opt=true", 0xc1f2aa19e9726299),
    ("family/3x3-homo-diag/rand2@2/opt=true", 0xb0457b066667c3b4),
    ("ablation/2x2-homo-orth/textbook@1", 0x433ffc8c591e530e),
    ("ablation/2x2-homo-orth/textbook@2", 0x53dba781968fffd9),
    (
        "ablation/2x2-homo-orth/no-commutativity@1",
        0xdfdbdda1733a46b6,
    ),
    (
        "ablation/2x2-homo-orth/no-commutativity@2",
        0x1156526b320b63ad,
    ),
    (
        "ablation/2x2-homo-orth/no-mux-exclusivity@1",
        0x33b8d7c5824147ea,
    ),
    (
        "ablation/2x2-homo-orth/no-mux-exclusivity@2",
        0xc1c844f33416f10f,
    ),
    (
        "ablation/2x2-homo-orth/no-redundant-capacity@1",
        0xcaa44a9566040882,
    ),
    (
        "ablation/2x2-homo-orth/no-redundant-capacity@2",
        0x568e33940c50b0da,
    ),
    ("ablation/2x2-homo-orth/weighted@1", 0xfd8ac4bdeb64d79b),
    ("ablation/2x2-homo-orth/weighted@2", 0x139c3731836bf500),
    ("ablation/2x3-hetero-diag/textbook@1", 0xfb35a545dca35073),
    ("ablation/2x3-hetero-diag/textbook@2", 0xb758b017d7e7746b),
    (
        "ablation/2x3-hetero-diag/no-commutativity@1",
        0xefab2a48b47ac4f6,
    ),
    (
        "ablation/2x3-hetero-diag/no-commutativity@2",
        0xed8b954011bfdaf8,
    ),
    (
        "ablation/2x3-hetero-diag/no-mux-exclusivity@1",
        0x25d0d349ab07dd7d,
    ),
    (
        "ablation/2x3-hetero-diag/no-mux-exclusivity@2",
        0xd035fa28e0e4ab47,
    ),
    (
        "ablation/2x3-hetero-diag/no-redundant-capacity@1",
        0x7c9926ca7a6ef7fb,
    ),
    (
        "ablation/2x3-hetero-diag/no-redundant-capacity@2",
        0xbcdbbd7392383a6d,
    ),
    ("ablation/2x3-hetero-diag/weighted@1", 0xe6ffdecd2943062d),
    ("ablation/2x3-hetero-diag/weighted@2", 0x0ab95bebf86c1497),
    ("probed/2x2-hetero-orth/rand3:109@1", 0x2478d72966cfa1a8),
    ("probed/2x2-hetero-diag/rand3:109@1", 0x94ea49ef709559e4),
];

#[test]
fn presolve_output_matches_golden_digests() {
    let actual: Vec<(String, u64)> = corpus()
        .iter()
        .map(|c| (c.name.clone(), digest(&presolve(&c.model, None))))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    assert!(
        actual == expected,
        "presolve output drifted from the golden digests; actual table:\n{table}"
    );
}

fn reduced_model(p: &Presolved) -> &Model {
    match p {
        Presolved::Reduced { model, .. } => model,
        Presolved::Infeasible { .. } => panic!("expected a reduced model"),
    }
}

#[test]
fn golden_corpus_reaches_every_pass() {
    let cases = synthetic_cases();
    let run = |name: &str| {
        let c = cases.iter().find(|c| c.name == name).expect("case exists");
        presolve(&c.model, None)
    };

    // Presolve removes syntactic duplicates only: every clause survives,
    // the subsumed ternary one included.
    let p = run("subsume-budget");
    assert_eq!(p.stats().constraints_after, 2300 + 2, "{:?}", p.stats());

    let p = run("dedup");
    let s = p.stats();
    assert_eq!(s.removed_constraints, 2, "{s:?}");
    assert_eq!(s.constraints_after, 2, "{s:?}");

    let p = run("aliasing");
    assert!(p.stats().aliased_vars >= 3, "{:?}", p.stats());

    let p = run("free-objective");
    let m = reduced_model(&p);
    assert_eq!(m.num_vars(), 2);
    // 7 constant, +0 for v0 (false), -2 for v1 (true).
    assert_eq!(m.objective().map(|o| o.constant()), Some(5));

    for name in ["infeasible-unit", "infeasible-equiv"] {
        assert!(
            matches!(run(name), Presolved::Infeasible { .. }),
            "{name} should be refuted"
        );
    }

    // Root fixing on mapping traffic: the textbook encoding's routing
    // candidates that no value can use.
    for c in ablation_cases()
        .iter()
        .filter(|c| c.name.contains("/textbook@"))
    {
        let p = presolve(&c.model, None);
        assert!(p.stats().fixed_vars > 0, "{}: {:?}", c.name, p.stats());
    }
}
