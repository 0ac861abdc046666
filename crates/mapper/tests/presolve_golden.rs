//! Golden digests of the presolve reduction.
//!
//! Presolve must be deterministic down to the byte: the reduced model,
//! its `Reconstruction` and every `PresolveStats` counter except
//! `elapsed` feed the solver, so any drift changes search, verdicts and
//! conflict counts downstream. This suite presolves a fixed corpus and
//! compares an FNV-1a digest of each result against digests recorded
//! from the reference implementation. The corpus mixes Table 2 cells,
//! small generated fabrics and seeded synthetic models built so that
//! every presolve pass does real work (the mapping formulations alone
//! never produce a clique or a failed literal); the second test asserts
//! that each of those paths is actually reached.
//!
//! On a mismatch the first test prints the full digest table, so an
//! intended change to presolve's output can be re-recorded in one step.

use bilp::{presolve, Cmp, LinExpr, Model, PresolveConfig, PresolveStats, Presolved};
use cgra_arch::families::{grid, paper_configs, FuMix, GridParams, Interconnect};
use cgra_dfg::random::{random_dfg, RandomDfgParams};
use cgra_dfg::Dfg;
use cgra_mapper::{Formulation, MapperOptions};
use cgra_mrrg::build_mrrg;
use cgra_rng::Rng;

/// One corpus entry: a model and the presolve configuration it runs with.
struct Case {
    name: String,
    model: Model,
    config: PresolveConfig,
}

fn case(name: impl Into<String>, model: Model, config: PresolveConfig) -> Case {
    Case {
        name: name.into(),
        model,
        config,
    }
}

/// Probing on regardless of model size.
fn probing() -> PresolveConfig {
    PresolveConfig {
        probe_min_vars: 0,
        ..PresolveConfig::default()
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
fn counters(s: &PresolveStats) -> [u64; 12] {
    [
        s.vars_before,
        s.vars_after,
        s.constraints_before,
        s.constraints_after,
        s.fixed_vars,
        s.aliased_vars,
        s.removed_constraints,
        s.strengthened,
        s.cliques,
        s.probed_vars,
        s.failed_literals,
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
    optimize: bool,
) -> Option<Model> {
    let mrrg = build_mrrg(arch, ii);
    let options = MapperOptions {
        optimize,
        ..MapperOptions::default()
    };
    Formulation::build(dfg, &mrrg, options)
        .ok()
        .map(|f| f.model().clone())
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
            if let Some(m) = formulation_model(&dfg, &c.arch, c.contexts, false) {
                out.push(case(
                    format!("table2/{kernel}/{}x{}", c.label, c.contexts),
                    m,
                    PresolveConfig::default(),
                ));
            }
        }
    }
    // Small generated fabrics with seeded kernels; half minimise routing,
    // so the objective rides through substitution and free-variable
    // elimination.
    let fabrics = [
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
    ];
    for (f, (label, arch)) in fabrics.iter().enumerate() {
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
                if let Some(m) = formulation_model(&dfg, arch, ii, optimize) {
                    out.push(case(
                        format!("family/{label}/rand{seed}@{ii}/opt={optimize}"),
                        m,
                        probing(),
                    ));
                }
            }
        }
    }
    out
}

// ---- Synthetic models that drive each pass --------------------------

/// Four pairwise-exclusive variables as six binary clauses, plus an
/// at-most-one seeded clique: the first binary grows the clique and the
/// five later binaries are covered by it.
fn clique_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(4);
    for i in 0..4 {
        for j in i + 1..4 {
            m.add_clause([!v[i].lit(), !v[j].lit()]);
        }
    }
    m.add_clause(v.iter().map(|x| x.lit()));
    // A second clique seeded from an existing at-most-one: {a, b, c}
    // plus d excluded pairwise from all three.
    let w = m.new_vars(4);
    m.add_at_most_one([w[0], w[1], w[2]]);
    for &x in &w[..3] {
        m.add_clause([!x.lit(), !w[3].lit()]);
    }
    m.add_clause(w.iter().map(|x| x.lit()));
    m
}

/// `x → y` and `x → ¬y`: probing `x` fails, fixing it false, which in
/// turn forces `z`.
fn failed_literal_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(6);
    let (x, y, z) = (v[0], v[1], v[2]);
    m.add_implies(x.lit(), y.lit());
    m.add_implies(x.lit(), !y.lit());
    m.add_clause([x.lit(), z.lit(), v[3].lit()]);
    m.add_clause([v[3].lit(), v[4].lit(), v[5].lit()]);
    m.add_clause([!v[3].lit(), !v[4].lit(), v[5].lit()]);
    m
}

/// Every 3-subset of 25 variables as a clause (no clause subsumes
/// another, but each candidate list is long), followed by a binary clause
/// that subsumes the final ternary one. The subsumption budget runs out
/// long before the pass reaches that pair.
fn subsume_budget_model(prefix: bool) -> Model {
    let mut m = Model::new();
    let v = m.new_vars(25);
    if prefix {
        for a in 0..25 {
            for b in a + 1..25 {
                for c in b + 1..25 {
                    m.add_clause([v[a].lit(), v[b].lit(), v[c].lit()]);
                }
            }
        }
    }
    let t = m.new_vars(3);
    m.add_clause([t[0].lit(), t[1].lit()]);
    m.add_clause([t[0].lit(), t[1].lit(), t[2].lit()]);
    m
}

/// Syntactic duplicates that subsumption cannot see: two identical
/// weighted at-mosts, and a repeated clause.
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

/// Each polarity of `x` propagates to an all-false clause through an
/// at-most-one, with no binary clause for the equivalence pass to see:
/// only probing refutes it before search.
fn infeasible_probe_model() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(5);
    let (x, a, b, c, d) = (v[0], v[1], v[2], v[3], v[4]);
    m.add_at_most_one([x, a, b]);
    m.add_clause([!x.lit(), a.lit(), b.lit()]);
    m.add_le(LinExpr::new() + (-1, x) + c + d, 0);
    m.add_clause([x.lit(), c.lit(), d.lit()]);
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
        case("clique", clique_model(), PresolveConfig::default()),
        case("failed-literal", failed_literal_model(), probing()),
        case(
            "subsume-budget",
            subsume_budget_model(true),
            PresolveConfig::default(),
        ),
        case(
            "subsume-small",
            subsume_budget_model(false),
            PresolveConfig::default(),
        ),
        case("dedup", dedup_model(), PresolveConfig::default()),
        case("aliasing", aliasing_model(), PresolveConfig::default()),
        case(
            "free-objective",
            free_objective_model(),
            PresolveConfig::default(),
        ),
        case(
            "infeasible-unit",
            infeasible_unit_model(),
            PresolveConfig::default(),
        ),
        case(
            "infeasible-equiv",
            infeasible_equiv_model(),
            PresolveConfig::default(),
        ),
        case("infeasible-probe", infeasible_probe_model(), probing()),
    ];
    let mut rng = Rng::seed_from_u64(0x60_1DE2);
    for i in 0..40 {
        let model = random_model(&mut rng);
        let config = if i % 2 == 0 {
            probing()
        } else {
            PresolveConfig::default()
        };
        out.push(case(format!("random-{i}"), model, config));
    }
    out
}

fn corpus() -> Vec<Case> {
    let mut out = synthetic_cases();
    out.extend(mapping_cases());
    out
}

/// Digests recorded from the reference presolve over [`corpus`].
const GOLDEN: &[(&str, u64)] = &[
    ("clique", 0x44e824e92b4c3908),
    ("failed-literal", 0x8969cb2ecd6873d9),
    ("subsume-budget", 0x2e900749e25ce2f8),
    ("subsume-small", 0x72d2e7dbac4b2709),
    ("dedup", 0x16f21965811c6f86),
    ("aliasing", 0xeb9cd7da90aabc4d),
    ("free-objective", 0x5171a0817917727f),
    ("infeasible-unit", 0x95a613384de1c197),
    ("infeasible-equiv", 0x3dcde21690ac38eb),
    ("infeasible-probe", 0x9b95849a1b79afeb),
    ("random-0", 0xb4cafccbff07bcbc),
    ("random-1", 0x6d10b54b9cae13a4),
    ("random-2", 0x89ea03d476923d76),
    ("random-3", 0xb97255a3f1fb0ae3),
    ("random-4", 0xb4c700cbff03dab1),
    ("random-5", 0x7991485ba91ab00c),
    ("random-6", 0xa20bfbd259498902),
    ("random-7", 0x49bb81044509c69c),
    ("random-8", 0x3c5961f3127d6cdf),
    ("random-9", 0x6d5080cbaa8aa0d2),
    ("random-10", 0x580942520f79d913),
    ("random-11", 0xb2b09547e711b164),
    ("random-12", 0xd8443634bbccd545),
    ("random-13", 0xf2042ab1f03f0140),
    ("random-14", 0x490712604266e794),
    ("random-15", 0x161f3947779f7bc7),
    ("random-16", 0x8f377ef8f13073e5),
    ("random-17", 0x013e39256347f18d),
    ("random-18", 0xbaebda8ab9d455ff),
    ("random-19", 0xba0a00578f2a6ac6),
    ("random-20", 0xbc0e87398c34662e),
    ("random-21", 0x00001981d916af03),
    ("random-22", 0x0de7f87ee8d504d4),
    ("random-23", 0x783facda2358b13a),
    ("random-24", 0xba85c56b159a415f),
    ("random-25", 0xcba46867239c7e4b),
    ("random-26", 0xe8ac8df1bfe9712f),
    ("random-27", 0xb2b09547e711b164),
    ("random-28", 0xc260163e971d38a1),
    ("random-29", 0x8b025534fe8c3bd2),
    ("random-30", 0xee49a9ab1e22fd74),
    ("random-31", 0x9ec6c8f55f1bc2e4),
    ("random-32", 0xc218ae6f2b4a0b13),
    ("random-33", 0xf1131dab44a54550),
    ("random-34", 0x61ccd0aedaa98450),
    ("random-35", 0xf2c827d0d3b9036e),
    ("random-36", 0xb314e23e2a433a80),
    ("random-37", 0xe67e2b009638cfc6),
    ("random-38", 0xf3fd79e74c8f10fc),
    ("random-39", 0x1e637611575ec3e7),
    ("table2/accum/hetero-orthx1", 0x94541044e4d4b38b),
    ("table2/accum/homo-diagx1", 0x8f6c1e246c3a4aba),
    ("table2/accum/hetero-orthx2", 0xa2923c859fb75ea3),
    ("table2/mac/hetero-diagx1", 0x2daf7f882dec6a3e),
    ("table2/mac/homo-diagx1", 0x29938af0157ca207),
    ("table2/mac/homo-orthx2", 0x30ca33c33f109706),
    ("table2/2x2-f/homo-orthx1", 0x5a8302d20a65eef0),
    ("table2/2x2-f/hetero-diagx2", 0x675a714ead2db59d),
    ("table2/2x2-f/homo-diagx2", 0xc9b8d3f0a7a6a4ae),
    ("table2/mult_10/homo-diagx1", 0xe40536c10ee5d2ff),
    ("table2/mult_10/homo-diagx2", 0x883e4a550c67878b),
    ("family/2x2-homo-orth/rand0@1/opt=true", 0x0613000ee7956e6c),
    ("family/2x2-homo-orth/rand0@2/opt=true", 0x872a7a4ab6237986),
    ("family/2x2-homo-orth/rand1@1/opt=false", 0x085b0858a7b6c84f),
    ("family/2x2-homo-orth/rand1@2/opt=false", 0x5bf9694963bfc62d),
    ("family/2x2-homo-orth/rand2@2/opt=true", 0xf7562f260a0e25fc),
    (
        "family/2x3-hetero-diag/rand0@1/opt=false",
        0x3f98930134fb6343,
    ),
    (
        "family/2x3-hetero-diag/rand0@2/opt=false",
        0xe880acf9a23d9085,
    ),
    (
        "family/2x3-hetero-diag/rand1@1/opt=true",
        0xc8ca03c459a15603,
    ),
    (
        "family/2x3-hetero-diag/rand1@2/opt=true",
        0xb97aba3b99a0c456,
    ),
    (
        "family/2x3-hetero-diag/rand2@1/opt=false",
        0x66b9b4f33d28af10,
    ),
    (
        "family/2x3-hetero-diag/rand2@2/opt=false",
        0x3c355764bdb36be6,
    ),
    ("family/3x3-homo-diag/rand0@1/opt=true", 0xf1be4f9f4fe4d5b1),
    ("family/3x3-homo-diag/rand0@2/opt=true", 0x8834aaf3346a3ab1),
    ("family/3x3-homo-diag/rand1@1/opt=false", 0x2d8c7fbfcda02b5c),
    ("family/3x3-homo-diag/rand1@2/opt=false", 0x188e40a786c17c6f),
    ("family/3x3-homo-diag/rand2@1/opt=true", 0x6d39b6464d1797ce),
    ("family/3x3-homo-diag/rand2@2/opt=true", 0xea2edd01fef23d1e),
];

#[test]
fn presolve_output_matches_golden_digests() {
    let actual: Vec<(String, u64)> = corpus()
        .iter()
        .map(|c| (c.name.clone(), digest(&presolve(&c.model, &c.config))))
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
        presolve(&c.model, &c.config)
    };

    // Cliques: exactly two grown (one from binaries alone, one seeded by
    // an at-most-one), every covered binary removed rather than growing a
    // duplicate clique of its own.
    let p = run("clique");
    let s = p.stats();
    assert_eq!(s.cliques, 2, "{s:?}");
    assert!(
        reduced_model(&p)
            .constraints()
            .iter()
            .all(|c| c.expr.terms().len() != 2),
        "a binary exclusion survived clique replacement"
    );

    let p = run("failed-literal");
    assert!(p.stats().failed_literals >= 1, "{:?}", p.stats());

    // The budget-exhausted pass never reaches the subsumed tail; without
    // the prefix the same tail is reduced.
    let exhausted = run("subsume-budget");
    let small = run("subsume-small");
    assert_eq!(
        exhausted.stats().constraints_after,
        2300 + 2,
        "{:?}",
        exhausted.stats()
    );
    assert_eq!(small.stats().constraints_after, 1, "{:?}", small.stats());

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

    for name in ["infeasible-unit", "infeasible-equiv", "infeasible-probe"] {
        assert!(
            matches!(run(name), Presolved::Infeasible { .. }),
            "{name} should be refuted"
        );
    }
    assert!(run("infeasible-probe").stats().failed_literals >= 1);
}
