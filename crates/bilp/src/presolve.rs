//! Presolve: root-level problem reduction ahead of search.
//!
//! The CDCL engine is strongest on a *small* model: every variable it never
//! sees is a variable it never branches on, and every constraint removed is
//! one fewer watch list to walk. This module shrinks a [`Model`] with a
//! fixpoint of cheap, sound transformations before any search begins:
//!
//! 1. **Root propagation** — unit constraints are applied and their
//!    consequences propagated to fixpoint across clauses and PB at-most
//!    constraints.
//! 2. **Coefficient saturation + gcd division** — at-most constraints are
//!    tightened with the standard pseudo-Boolean saturation rule (applied in
//!    ≥-space, where it is sound) and divided by the gcd of their
//!    coefficients with a floored bound (see [`crate::normalize`]).
//! 3. **Equivalent-literal substitution** — the binary clauses `(¬a ∨ b)`
//!    and `(a ∨ ¬b)` together mean `a ≡ b`; such classes are merged with a
//!    union-find over literals and every occurrence rewritten to the class
//!    representative. ILP mapping formulations are full of `f ⇔ r`
//!    implication pairs, which makes this the single biggest reduction.
//! 4. **Duplicate and subsumed constraint elimination** — syntactic
//!    duplicates are dropped, and a budgeted occurrence-list pass removes
//!    clauses subsumed by shorter ones.
//! 5. **At-most-one clique detection** — pairwise exclusions (binary
//!    clauses) are collected into an adjacency structure together with
//!    existing at-most-one constraints; greedily grown cliques replace the
//!    covered binaries with a single cardinality constraint.
//! 6. **Failed-literal probing (budgeted)** — each polarity of
//!    high-occurrence variables is temporarily assumed and unit-propagated;
//!    a conflict fixes the opposite literal at the root. Both polarities
//!    failing proves infeasibility.
//! 7. **Fixed-variable elimination** — fixed and aliased variables are
//!    removed and the survivors densely renumbered.
//!
//! # Why reconstruction is sound
//!
//! Every pass preserves the solution set exactly, up to the recorded
//! variable [`Reconstruction`]: a variable is either *kept* (renamed to a
//! dense index, possibly with flipped polarity when its equivalence-class
//! representative is a negated literal) or *fixed* (its value is forced in
//! every solution, or — for variables appearing in no constraint — chosen
//! to the objective-optimal polarity, which preserves both feasibility and
//! the optimum). Fixed objective contributions are folded into the reduced
//! objective's *constant* term, so objective values reported against the
//! reduced model equal objective values of the expanded assignment against
//! the original model; no post-hoc adjustment is needed.
//!
//! # Data layout
//!
//! The passes share one flat structure, `Csr`: an offsets array over the
//! `2n` literal codes plus one items array, filled by counting sort in
//! constraint order. It serves as the occurrence index and as the
//! implication and exclusion graphs. Constraints are rewritten in place,
//! so the passes allocate per pass rather than per constraint (only an
//! at-most that actually changes is rebuilt by `tighten_at_most`), and no
//! pass depends on hashing or tree order.

use crate::model::{LinExpr, Lit, Model, Var};
use crate::normalize::{normalize, NormConstraint};
use crate::solve::Assignment;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const UNASSIGNED: i8 = -1;
/// Hard cap on simplification rounds; each round is near-linear and the
/// fixpoint is almost always reached in two or three.
const MAX_ROUNDS: u32 = 12;
/// Upper bound on pairwise expansion of an existing at-most-one when
/// seeding the exclusion adjacency (quadratic in the constraint length).
const CLIQUE_SEED_LIMIT: usize = 32;
/// Budget (in pairwise lit comparisons) for the clause subsumption pass.
const SUBSUME_BUDGET: u64 = 2_000_000;

/// Presolve configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresolveConfig {
    /// Propagation-step budget for failed-literal probing; `0` disables
    /// probing entirely.
    pub probe_budget: u64,
    /// Models with fewer variables than this skip probing outright: on
    /// small models the search finds the same fixings in its first few
    /// conflicts, so probing would only add wall time. On the Table 2
    /// models of `perfbench` probing takes about 4 ms per call, an eighth
    /// of presolve (DESIGN.md §8 has the per-pass table). Set to `0` to
    /// probe regardless of size.
    pub probe_min_vars: usize,
    /// Absolute deadline shared with the solver: presolve time counts
    /// against the solve budget, and every pass polls this.
    pub deadline: Option<Instant>,
}

impl Default for PresolveConfig {
    fn default() -> Self {
        PresolveConfig {
            probe_budget: 200_000,
            probe_min_vars: 512,
            deadline: None,
        }
    }
}

/// Reduction counters for one presolve run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Variables in the original model.
    pub vars_before: u64,
    /// Variables in the reduced model.
    pub vars_after: u64,
    /// Constraints in the original model.
    pub constraints_before: u64,
    /// Constraints in the reduced model.
    pub constraints_after: u64,
    /// Variables fixed at the root (propagation, probing, free-variable
    /// elimination).
    pub fixed_vars: u64,
    /// Variables merged into another variable by equivalent-literal
    /// substitution.
    pub aliased_vars: u64,
    /// Constraints removed (satisfied, trivial, duplicate, subsumed, or
    /// replaced by a clique).
    pub removed_constraints: u64,
    /// At-most constraints tightened by saturation or gcd division.
    pub strengthened: u64,
    /// At-most-one cliques synthesised from pairwise exclusions.
    pub cliques: u64,
    /// Variables probed (both polarities counted once).
    pub probed_vars: u64,
    /// Probes that failed and therefore fixed the opposite literal.
    pub failed_literals: u64,
    /// Simplification rounds until fixpoint.
    pub rounds: u32,
    /// Wall-clock time spent in presolve.
    pub elapsed: Duration,
}

impl PresolveStats {
    /// Fraction of variables + constraints removed, in `[0, 1]`.
    pub fn reduction_ratio(&self) -> f64 {
        let before = (self.vars_before + self.constraints_before) as f64;
        let after = (self.vars_after + self.constraints_after) as f64;
        if before == 0.0 {
            0.0
        } else {
            1.0 - after / before
        }
    }
}

/// How one original variable is recovered from a reduced-model assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// The variable is fixed. `entailed` distinguishes fixings the model
    /// forces (root units, probing) from don't-care eliminations of
    /// unconstrained variables, where presolve merely *picked* a value
    /// and the model admits either.
    Fixed { value: bool, entailed: bool },
    /// The variable maps to a reduced-model variable (possibly negated).
    Mapped { var: Var, negated: bool },
}

/// Maps assignments of the reduced model back to the original variables.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    dispositions: Vec<Disposition>,
}

impl Reconstruction {
    /// Expands a reduced-model assignment to the original variable space.
    pub fn expand(&self, reduced: &Assignment) -> Assignment {
        Assignment::from_values(
            self.dispositions
                .iter()
                .map(|d| match *d {
                    Disposition::Fixed { value, .. } => value,
                    Disposition::Mapped { var, negated } => reduced.value(var) ^ negated,
                })
                .collect(),
        )
    }

    /// Number of variables in the original model.
    pub fn num_original_vars(&self) -> usize {
        self.dispositions.len()
    }

    /// Projects a complete original-space assignment onto the reduced
    /// model's variables — the inverse direction of
    /// [`Reconstruction::expand`], used to translate heuristic incumbents
    /// into the space the engines search. Returns `None` when the
    /// assignment contradicts an entailed fixing or values two originals
    /// merged into one reduced variable inconsistently: such an
    /// assignment violates the original model, so it has no reduced
    /// counterpart. Don't-care eliminations accept either value.
    pub fn restrict(&self, original: &[bool], reduced_vars: usize) -> Option<Vec<bool>> {
        if original.len() != self.dispositions.len() {
            return None;
        }
        let mut values: Vec<Option<bool>> = vec![None; reduced_vars];
        for (i, d) in self.dispositions.iter().enumerate() {
            match *d {
                Disposition::Fixed { value, entailed } => {
                    if entailed && original[i] != value {
                        return None;
                    }
                }
                Disposition::Mapped { var, negated } => {
                    let v = original[i] ^ negated;
                    match values.get(var.index()).copied()? {
                        None => values[var.index()] = Some(v),
                        Some(prev) if prev != v => return None,
                        Some(_) => {}
                    }
                }
            }
        }
        // Every reduced variable is some surviving original's
        // representative, so a complete original assignment covers them
        // all; treat a gap as untranslatable rather than guessing.
        values.into_iter().collect()
    }

    /// Where an original-model literal lives in the reduced model. Used
    /// to translate assumption literals into the reduced space (and unsat
    /// cores back): equivalences ([`LitDisposition::Mapped`]) and entailed
    /// fixings ([`LitDisposition::Fixed`]) transfer exactly — in
    /// particular a fixed-`false` literal is its own refutation — while
    /// [`LitDisposition::Free`] marks a don't-care elimination the caller
    /// must handle conservatively (the model does *not* entail the picked
    /// value, so a disagreeing assumption is not thereby refuted).
    pub fn map_lit(&self, lit: Lit) -> LitDisposition {
        match self.dispositions[lit.var().index()] {
            Disposition::Fixed { value, entailed } => {
                let as_seen = value != lit.is_negative();
                if entailed {
                    LitDisposition::Fixed(as_seen)
                } else {
                    LitDisposition::Free(as_seen)
                }
            }
            Disposition::Mapped { var, negated } => {
                LitDisposition::Mapped(if negated != lit.is_negative() {
                    Lit::negative(var)
                } else {
                    Lit::positive(var)
                })
            }
        }
    }
}

/// Where an original-model literal lives after presolve (see
/// [`Reconstruction::map_lit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitDisposition {
    /// The literal's variable was fixed by an entailed deduction; the
    /// literal evaluates to this constant in every solution of the
    /// original model.
    Fixed(bool),
    /// The literal's variable was eliminated as unconstrained and presolve
    /// picked a value under which the literal evaluates to this constant —
    /// but the model admits the opposite value too.
    Free(bool),
    /// The literal is equivalent to this reduced-model literal.
    Mapped(Lit),
}

/// Result of [`presolve`].
#[derive(Debug, Clone)]
pub enum Presolved {
    /// Presolve proved the model infeasible.
    Infeasible {
        /// Reduction counters up to the refutation.
        stats: PresolveStats,
    },
    /// An equivalent reduced model plus the variable map back.
    Reduced {
        /// The reduced model.
        model: Model,
        /// Maps reduced assignments back to original variables.
        reconstruction: Reconstruction,
        /// Reduction counters.
        stats: PresolveStats,
    },
}

impl Presolved {
    /// The reduction counters, whichever way presolve ended.
    pub fn stats(&self) -> &PresolveStats {
        match self {
            Presolved::Infeasible { stats } | Presolved::Reduced { stats, .. } => stats,
        }
    }
}

/// A working constraint; literals are rewritten in place as substitutions
/// and fixings land, so stored literals are current as of the last
/// simplification sweep.
#[derive(Debug, PartialEq, Eq)]
enum Con {
    Clause(Vec<Lit>),
    AtMost(Vec<(u64, Lit)>, u64),
}

/// Flat per-key lists, the one occurrence structure every pass shares:
/// `items[start[k]..start[k + 1]]` belongs to key `k`, where keys are
/// literal codes (`2n` of them). [`Csr::build`] fills it by counting sort,
/// so each list keeps the order in which its items were produced — for
/// occurrence lists, constraint-index order — and building costs two
/// linear sweeps and two allocations whatever the model size.
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// `each(push)` must call `push(key, item)` for the same sequence of
    /// pairs on both of its two calls (one counts, one fills).
    fn build(num_keys: usize, mut each: impl FnMut(&mut dyn FnMut(usize, T))) -> Self {
        let mut start = vec![0u32; num_keys + 1];
        each(&mut |k, _| start[k + 1] += 1);
        for k in 0..num_keys {
            start[k + 1] += start[k];
        }
        let mut items = vec![T::default(); start[num_keys] as usize];
        // `start[k]` is bucket k's write cursor; once filled it holds the
        // bucket's end, which is the next bucket's start.
        each(&mut |k, x| {
            items[start[k] as usize] = x;
            start[k] += 1;
        });
        start.copy_within(0..num_keys, 1);
        start[0] = 0;
        Csr { start, items }
    }

    fn get(&self, k: usize) -> &[T] {
        &self.items[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

impl<T: Copy + Default + Ord> Csr<T> {
    /// Sorts every list and drops repeated items, compacting in place.
    fn sort_dedup(&mut self) {
        let num_keys = self.start.len() - 1;
        let mut write = 0usize;
        let mut begin = 0usize;
        for k in 0..num_keys {
            let end = self.start[k + 1] as usize;
            self.items[begin..end].sort_unstable();
            self.start[k] = write as u32;
            for r in begin..end {
                if r == begin || self.items[r] != self.items[r - 1] {
                    self.items[write] = self.items[r];
                    write += 1;
                }
            }
            begin = end;
        }
        self.start[num_keys] = write as u32;
        self.items.truncate(write);
    }
}

/// The occurrence index: for each literal code, the ids of the live
/// constraints containing that literal, in constraint-index order.
fn occurrences(num_vars: usize, cons: &[Option<Con>], clauses_only: bool) -> Csr<u32> {
    Csr::build(2 * num_vars, |push| {
        for (i, con) in cons.iter().enumerate() {
            match con {
                Some(Con::Clause(lits)) => lits.iter().for_each(|l| push(l.code(), i as u32)),
                Some(Con::AtMost(terms, _)) if !clauses_only => {
                    terms.iter().for_each(|(_, l)| push(l.code(), i as u32))
                }
                _ => {}
            }
        }
    })
}

/// Calls `f` on the merge of two ascending lists, in ascending order.
fn merged(a: &[u32], b: &[u32], mut f: impl FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            f(a[i]);
            i += 1;
        } else {
            f(b[j]);
            j += 1;
        }
    }
    a[i..].iter().chain(&b[j..]).for_each(|&x| f(x));
}

/// FNV-1a over a constraint's kind, bound and literals, for duplicate
/// detection.
fn con_hash(con: &Con) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    match con {
        Con::Clause(lits) => {
            mix(0);
            lits.iter().for_each(|l| mix(l.code() as u64));
        }
        Con::AtMost(terms, bound) => {
            mix(1);
            mix(*bound);
            for &(a, l) in terms {
                mix(a);
                mix(l.code() as u64);
            }
        }
    }
    h
}

/// Calls `f` on the common items of two ascending, duplicate-free lists,
/// in ascending order.
fn intersection(a: &[u32], b: &[u32], mut f: impl FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

struct Work {
    value: Vec<i8>,
    rep: Vec<Lit>,
    cons: Vec<Option<Con>>,
    queue: VecDeque<Lit>,
    stats: PresolveStats,
    deadline: Option<Instant>,
    poll: u32,
    out_of_time: bool,
}

/// Signal that a root-level contradiction was derived.
struct Conflict;

impl Work {
    fn new(n: usize, deadline: Option<Instant>) -> Self {
        Work {
            value: vec![UNASSIGNED; n],
            rep: (0..n).map(|i| Var(i as u32).lit()).collect(),
            cons: Vec::new(),
            queue: VecDeque::new(),
            stats: PresolveStats::default(),
            deadline,
            poll: 0,
            out_of_time: false,
        }
    }

    /// Amortised deadline poll; once expired, passes wind down and the
    /// (still sound) partially-reduced model is emitted.
    fn time_up(&mut self) -> bool {
        if self.out_of_time {
            return true;
        }
        self.poll += 1;
        if self.poll & 0x3ff == 0 {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.out_of_time = true;
                }
            }
        }
        self.out_of_time
    }

    /// Resolves a literal to its equivalence-class representative, with
    /// path compression.
    fn find(&mut self, l: Lit) -> Lit {
        let mut root = l;
        loop {
            let r = self.rep[root.var().index()];
            let mapped = if root.is_negative() { !r } else { r };
            if mapped == root {
                break;
            }
            root = mapped;
        }
        let mut cur = l;
        while cur != root {
            let r = self.rep[cur.var().index()];
            let next = if cur.is_negative() { !r } else { r };
            self.rep[cur.var().index()] = if cur.is_negative() { !root } else { root };
            cur = next;
        }
        root
    }

    /// Whether the literals are unassigned class representatives over
    /// strictly increasing variables: the form [`Work::simplify_con`]
    /// leaves a constraint in, so it has nothing to rewrite. A variable
    /// represents its class when `rep` maps it to itself; this check
    /// leaves the union-find untouched.
    fn canonical(&self, mut lits: impl Iterator<Item = Lit>) -> bool {
        let mut prev: Option<Var> = None;
        lits.all(|l| {
            let v = l.var();
            let live = self.rep[v.index()] == v.lit() && self.value[v.index()] == UNASSIGNED;
            let ok = live && prev.is_none_or(|p| p < v);
            prev = Some(v);
            ok
        })
    }

    fn enqueue(&mut self, l: Lit) {
        self.queue.push_back(l);
    }

    /// Records `a ≡ b`. Returns whether anything changed.
    fn union(&mut self, a: Lit, b: Lit) -> Result<bool, Conflict> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        if ra == !rb {
            return Err(Conflict);
        }
        // If either side is already assigned, the equivalence is just a
        // unit on the other side.
        let va = self.value[ra.var().index()];
        let vb = self.value[rb.var().index()];
        if va != UNASSIGNED {
            let b_true = (va == 1) != ra.is_negative();
            self.enqueue(if b_true { rb } else { !rb });
            return Ok(true);
        }
        if vb != UNASSIGNED {
            let a_true = (vb == 1) != rb.is_negative();
            self.enqueue(if a_true { ra } else { !ra });
            return Ok(true);
        }
        // Lower variable index wins as representative: deterministic.
        let (child, root) = if ra.var().index() < rb.var().index() {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.rep[child.var().index()] = if child.is_negative() { !root } else { root };
        self.stats.aliased_vars += 1;
        Ok(true)
    }

    /// Drains the unit queue into root assignments.
    fn drain_queue(&mut self) -> Result<bool, Conflict> {
        let mut changed = false;
        while let Some(l) = self.queue.pop_front() {
            let r = self.find(l);
            let want: i8 = if r.is_negative() { 0 } else { 1 };
            let slot = &mut self.value[r.var().index()];
            match *slot {
                UNASSIGNED => {
                    *slot = want;
                    changed = true;
                }
                v if v == want => {}
                _ => return Err(Conflict),
            }
        }
        Ok(changed)
    }

    fn accept_norm(&mut self, nc: NormConstraint) -> Result<(), Conflict> {
        match nc {
            NormConstraint::Unit(l) => self.enqueue(l),
            NormConstraint::Clause(lits) => self.cons.push(Some(Con::Clause(lits))),
            NormConstraint::AtMost { terms, bound } => {
                self.cons.push(Some(Con::AtMost(terms, bound)))
            }
            NormConstraint::False => return Err(Conflict),
        }
        Ok(())
    }

    /// Rewrites one constraint under the current substitution/assignment.
    /// `None` means the constraint was satisfied or replaced by units.
    ///
    /// A canonical constraint (see [`Work::canonical`]) comes back as it
    /// is. Every stored at-most is the output of `tighten_at_most`, which
    /// is idempotent, so skipping the call there changes nothing.
    fn simplify_con(&mut self, con: Con, changed: &mut bool) -> Result<Option<Con>, Conflict> {
        match con {
            Con::Clause(lits) if lits.len() >= 2 && self.canonical(lits.iter().copied()) => {
                Ok(Some(Con::Clause(lits)))
            }
            Con::AtMost(terms, bound) if self.canonical(terms.iter().map(|&(_, l)| l)) => {
                Ok(Some(Con::AtMost(terms, bound)))
            }
            Con::Clause(mut lits) => {
                // Rewritten in place: survivors are compacted to the front.
                let mut kept = 0;
                let mut any = false;
                for k in 0..lits.len() {
                    let l = lits[k];
                    let r = self.find(l);
                    if r != l {
                        any = true;
                    }
                    match self.value[r.var().index()] {
                        UNASSIGNED => {
                            lits[kept] = r;
                            kept += 1;
                        }
                        v => {
                            any = true;
                            if (v == 1) != r.is_negative() {
                                // Satisfied.
                                *changed = true;
                                self.stats.removed_constraints += 1;
                                return Ok(None);
                            }
                            // False literal: dropped.
                        }
                    }
                }
                lits.truncate(kept);
                lits.sort_unstable();
                lits.dedup();
                // Codes of l and ¬l are adjacent, so a tautology shows up
                // as consecutive entries after sorting.
                if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
                    *changed = true;
                    self.stats.removed_constraints += 1;
                    return Ok(None);
                }
                match lits.len() {
                    0 => Err(Conflict),
                    1 => {
                        self.enqueue(lits[0]);
                        *changed = true;
                        Ok(None)
                    }
                    _ => {
                        if any {
                            *changed = true;
                        }
                        Ok(Some(Con::Clause(lits)))
                    }
                }
            }
            Con::AtMost(mut terms, bound) => {
                // Resolve every term, dropping fixed ones, then merge per
                // variable in ascending variable order, tracking
                // coefficients on both polarities:
                // a·x + b·¬x = min(a,b) + |a-b|·(dominant lit).
                let mut bound = i128::from(bound);
                let mut any = false;
                let mut live = 0;
                for k in 0..terms.len() {
                    let (a, l) = terms[k];
                    let r = self.find(l);
                    if r != l {
                        any = true;
                    }
                    match self.value[r.var().index()] {
                        UNASSIGNED => {
                            terms[live] = (a, r);
                            live += 1;
                        }
                        v => {
                            any = true;
                            if (v == 1) != r.is_negative() {
                                bound -= i128::from(a);
                            }
                        }
                    }
                }
                terms.truncate(live);
                terms.sort_unstable_by_key(|&(_, l)| l.var());
                let mut kept = 0;
                let mut k = 0;
                while k < terms.len() {
                    let v = terms[k].1.var();
                    let (mut pos, mut neg) = (0u64, 0u64);
                    while k < terms.len() && terms[k].1.var() == v {
                        let (a, l) = terms[k];
                        if l.is_negative() {
                            neg += a;
                        } else {
                            pos += a;
                        }
                        k += 1;
                    }
                    let base = pos.min(neg);
                    if base > 0 {
                        any = true;
                    }
                    bound -= i128::from(base);
                    let dominant = match pos.cmp(&neg) {
                        std::cmp::Ordering::Greater => Some((pos - neg, Lit::positive(v))),
                        std::cmp::Ordering::Less => Some((neg - pos, Lit::negative(v))),
                        std::cmp::Ordering::Equal => None,
                    };
                    if let Some(t) = dominant {
                        terms[kept] = t;
                        kept += 1;
                    }
                }
                terms.truncate(kept);
                let kept = terms;
                if bound < 0 {
                    return Err(Conflict);
                }
                let norm = crate::normalize::tighten_at_most(
                    kept.clone(),
                    bound as u64,
                    &mut self.stats.strengthened,
                );
                // The common case: the constraint survives unchanged as a
                // single at-most.
                if let [NormConstraint::AtMost { terms: t, bound: b }] = norm.as_slice() {
                    if any || *t != kept || i128::from(*b) != bound {
                        *changed = true;
                    }
                    return Ok(Some(Con::AtMost(t.clone(), *b)));
                }
                *changed = true;
                let mut replacement = None;
                for nc in norm {
                    match nc {
                        NormConstraint::Unit(l) => self.enqueue(l),
                        NormConstraint::False => return Err(Conflict),
                        NormConstraint::Clause(lits) => {
                            debug_assert!(replacement.is_none());
                            replacement = Some(Con::Clause(lits));
                        }
                        NormConstraint::AtMost { terms, bound } => {
                            debug_assert!(replacement.is_none());
                            replacement = Some(Con::AtMost(terms, bound));
                        }
                    }
                }
                if replacement.is_none() {
                    self.stats.removed_constraints += 1;
                }
                Ok(replacement)
            }
        }
    }

    /// One full sweep over all active constraints.
    fn simplify_all(&mut self) -> Result<bool, Conflict> {
        let mut changed = false;
        for i in 0..self.cons.len() {
            if self.time_up() {
                break;
            }
            if let Some(con) = self.cons[i].take() {
                self.cons[i] = self.simplify_con(con, &mut changed)?;
            }
        }
        Ok(changed)
    }

    /// Propagates queued units to fixpoint using occurrence lists, so a
    /// long implication chain does not trigger repeated full sweeps.
    fn propagate(&mut self) -> Result<bool, Conflict> {
        let mut changed = false;
        loop {
            if !self.drain_queue()? {
                return Ok(changed);
            }
            changed = true;
            if self.time_up() {
                return Ok(changed);
            }
            // Occurrences of the literals as currently stored; valid until
            // the next union (none happen inside this loop).
            let occ = occurrences(self.value.len(), &self.cons, false);
            let mut dirty: VecDeque<u32> = VecDeque::new();
            let mut queued = vec![false; self.cons.len()];
            // Queues every constraint mentioning `v`, in constraint order.
            let mark = |v: usize, dirty: &mut VecDeque<u32>, queued: &mut [bool]| {
                merged(occ.get(2 * v), occ.get(2 * v + 1), |i| {
                    if !queued[i as usize] {
                        queued[i as usize] = true;
                        dirty.push_back(i);
                    }
                })
            };
            // Everything assigned since the occurrence lists were built is
            // unknown, so seed from all currently-assigned variables once,
            // then incrementally from fresh units.
            for v in 0..self.value.len() {
                if self.value[v] != UNASSIGNED {
                    mark(v, &mut dirty, &mut queued);
                }
            }
            let mut fresh: Vec<Lit> = Vec::new();
            while let Some(i) = dirty.pop_front() {
                queued[i as usize] = false;
                if self.time_up() {
                    break;
                }
                if let Some(con) = self.cons[i as usize].take() {
                    let mut local = false;
                    self.cons[i as usize] = self.simplify_con(con, &mut local)?;
                    if local {
                        changed = true;
                    }
                }
                // Fresh units dirty their occurrence lists (under the
                // old variable naming, which units do not change).
                fresh.clear();
                fresh.extend(self.queue.iter().copied());
                self.drain_queue()?;
                for l in &fresh {
                    mark(l.var().index(), &mut dirty, &mut queued);
                }
            }
        }
    }

    /// Merges equivalent-literal classes: strongly connected components of
    /// the binary implication graph (each binary clause `(a ∨ b)`
    /// contributes `¬a → b` and `¬b → a`) are literal equivalence classes.
    /// A component containing both polarities of a variable is a
    /// contradiction.
    fn equiv_pass(&mut self) -> Result<bool, Conflict> {
        let n = self.value.len();
        let adj: Csr<u32> = Csr::build(2 * n, |push| {
            for con in self.cons.iter().flatten() {
                if let Con::Clause(lits) = con {
                    if let [a, b] = lits.as_slice() {
                        push((!*a).code(), b.code() as u32);
                        push((!*b).code(), a.code() as u32);
                    }
                }
            }
        });
        if adj.items.is_empty() {
            return Ok(false);
        }
        // Iterative Tarjan SCC. Components of two or more literals are
        // collected flat, each sorted: `members[ends[c - 1]..ends[c]]`.
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; 2 * n];
        let mut low = vec![0u32; 2 * n];
        let mut on_stack = vec![false; 2 * n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut members: Vec<u32> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        let mut call: Vec<(u32, u32)> = Vec::new(); // (node, edge cursor)
        for s in 0..2 * n {
            if index[s] != UNVISITED {
                continue;
            }
            call.push((s as u32, 0));
            while let Some(frame) = call.last_mut() {
                let (v, cursor) = (frame.0 as usize, frame.1 as usize);
                if cursor == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    on_stack[v] = true;
                }
                if let Some(&w) = adj.get(v).get(cursor) {
                    frame.1 += 1;
                    let w = w as usize;
                    if index[w] == UNVISITED {
                        call.push((w as u32, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let base = members.len();
                        loop {
                            let w = stack.pop().expect("SCC stack holds the root");
                            on_stack[w as usize] = false;
                            members.push(w);
                            if w as usize == v {
                                break;
                            }
                        }
                        if members.len() - base > 1 {
                            members[base..].sort_unstable();
                            ends.push(members.len());
                        } else {
                            members.truncate(base);
                        }
                    }
                    call.pop();
                    if let Some(parent) = call.last() {
                        let p = parent.0 as usize;
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
        let mut changed = false;
        let mut begin = 0;
        for end in ends {
            let comp = &members[begin..end];
            begin = end;
            // Both polarities of one variable in the same component means
            // x → ¬x and ¬x → x: infeasible.
            if comp.windows(2).any(|w| w[0] >> 1 == w[1] >> 1) {
                return Err(Conflict);
            }
            let root = Lit(comp[0]);
            for &c in &comp[1..] {
                changed |= self.union(root, Lit(c))?;
            }
        }
        Ok(changed)
    }

    /// Removes syntactic duplicates (clauses and at-mosts), keeping the
    /// first occurrence of each.
    fn dedup_pass(&mut self) -> bool {
        // Sorting by (hash, index) puts each group of equal constraints
        // together, first occurrence first.
        let mut keyed: Vec<(u64, u32)> = self
            .cons
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (con_hash(c), i as u32)))
            .collect();
        keyed.sort_unstable();
        let mut changed = false;
        for run in keyed.chunk_by(|x, y| x.0 == y.0) {
            for (k, &(_, j)) in run.iter().enumerate().skip(1) {
                let cons = &self.cons;
                // A removed earlier entry is `None` and matches nothing.
                let duplicate = run[..k]
                    .iter()
                    .any(|&(_, i)| cons[i as usize] == cons[j as usize]);
                if duplicate {
                    self.cons[j as usize] = None;
                    self.stats.removed_constraints += 1;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Budgeted clause-subsumes-clause elimination via occurrence lists on
    /// the rarest literal.
    fn subsume_pass(&mut self) -> bool {
        let occ = occurrences(self.value.len(), &self.cons, true);
        let mut budget = SUBSUME_BUDGET;
        let mut changed = false;
        for i in 0..self.cons.len() {
            if budget == 0 || self.time_up() {
                break;
            }
            if !matches!(self.cons[i], Some(Con::Clause(_))) {
                continue;
            }
            // Lifted out while its candidates are scanned (so it never
            // meets itself), and put back afterwards.
            let Some(Con::Clause(sub)) = self.cons[i].take() else {
                unreachable!("checked to be a clause")
            };
            if let Some(rarest) = sub.iter().min_by_key(|l| occ.get(l.code()).len()) {
                for &j in occ.get(rarest.code()) {
                    let j = j as usize;
                    let Some(Con::Clause(sup)) = &self.cons[j] else {
                        continue;
                    };
                    if sup.len() < sub.len() {
                        continue;
                    }
                    budget = budget.saturating_sub((sub.len() + sup.len()) as u64);
                    if is_subset(&sub, sup) {
                        self.cons[j] = None;
                        self.stats.removed_constraints += 1;
                        changed = true;
                    }
                    if budget == 0 {
                        break;
                    }
                }
            }
            self.cons[i] = Some(Con::Clause(sub));
        }
        changed
    }

    /// Grows at-most-one cliques from pairwise exclusions and replaces the
    /// covered binary clauses.
    fn clique_pass(&mut self) -> bool {
        let n2 = 2 * self.value.len();
        // Exclusion graph over literal codes, each list ascending.
        let mut adj: Csr<u32> = Csr::build(n2, |push| {
            let mut edge = |a: Lit, b: Lit| {
                push(a.code(), b.code() as u32);
                push(b.code(), a.code() as u32);
            };
            for con in self.cons.iter().flatten() {
                match con {
                    Con::Clause(lits) => {
                        if let [a, b] = lits.as_slice() {
                            edge(!*a, !*b);
                        }
                    }
                    Con::AtMost(terms, 1)
                        if terms.len() <= CLIQUE_SEED_LIMIT
                            && terms.iter().all(|&(a, _)| a == 1) =>
                    {
                        for x in 0..terms.len() {
                            for y in x + 1..terms.len() {
                                edge(terms[x].1, terms[y].1);
                            }
                        }
                    }
                    _ => {}
                }
            }
        });
        adj.sort_dedup();
        let adjacent = |x: u32, y: u32| adj.get(x as usize).binary_search(&y).is_ok();
        // Per literal, a list threaded through `links` of the emitted
        // cliques (by constraint index) that contain it, so a coverage
        // check walks only those. Allocated with the first clique.
        const END: u32 = u32::MAX;
        let mut member_of: Vec<u32> = Vec::new();
        let mut links: Vec<(u32, u32)> = Vec::new(); // (constraint, next link)
        let mut clique: Vec<u32> = Vec::new();
        let mut changed = false;
        for idx in 0..self.cons.len() {
            let Some(Con::Clause(lits)) = &self.cons[idx] else {
                continue;
            };
            let [x, y] = lits.as_slice() else {
                continue;
            };
            // The clause forbids a ∧ b.
            let (a, b) = ((!*x).code() as u32, (!*y).code() as u32);
            if self.time_up() {
                break;
            }
            let mut link = member_of.get(a as usize).copied().unwrap_or(END);
            let mut covered = false;
            while link != END && !covered {
                let (k, next) = links[link as usize];
                if let Some(Con::AtMost(terms, _)) = &self.cons[k as usize] {
                    covered = terms.binary_search_by_key(&b, |&(_, l)| l.0).is_ok();
                }
                link = next;
            }
            if covered {
                self.cons[idx] = None;
                self.stats.removed_constraints += 1;
                changed = true;
                continue;
            }
            clique.clear();
            clique.extend([a, b]);
            intersection(adj.get(a as usize), adj.get(b as usize), |c| {
                if c != a && c != b && clique.iter().all(|&m| adjacent(c, m)) {
                    clique.push(c);
                }
            });
            if clique.len() >= 3 {
                clique.sort_unstable();
                if member_of.is_empty() {
                    member_of = vec![END; n2];
                }
                let k = self.cons.len() as u32;
                for &l in &clique {
                    links.push((k, member_of[l as usize]));
                    member_of[l as usize] = (links.len() - 1) as u32;
                }
                self.cons.push(Some(Con::AtMost(
                    clique.iter().map(|&l| (1, Lit(l))).collect(),
                    1,
                )));
                self.stats.cliques += 1;
                self.cons[idx] = None;
                self.stats.removed_constraints += 1;
                changed = true;
            }
        }
        changed
    }
}

fn is_subset(sub: &[Lit], sup: &[Lit]) -> bool {
    // Both sorted.
    let mut it = sup.iter();
    'outer: for l in sub {
        for s in it.by_ref() {
            match s.cmp(l) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Failed-literal probing: a counter-based unit propagator with an undo
/// trail, run over the simplified constraints in place.
struct Probe<'a> {
    cons: &'a [Option<Con>],
    /// Probe constraint id → index into `cons`: clauses get ids
    /// `0..num_clauses`, at-mosts follow.
    ids: Vec<u32>,
    num_clauses: usize,
    /// Per literal code: `(probe id, coefficient)`, clauses before
    /// at-mosts; the coefficient is 0 for clauses.
    occ: Csr<(u32, u64)>,
    val: Vec<i8>,
    trail: Vec<Lit>,
    queue: VecDeque<Lit>,
    cl_false: Vec<u32>,
    cl_true: Vec<u32>,
    am_sum: Vec<u64>,
    steps: u64,
    budget: u64,
    deadline: Option<Instant>,
    polls: u32,
}

impl<'a> Probe<'a> {
    fn new(cons: &'a [Option<Con>], value: &[i8], deadline: Option<Instant>, budget: u64) -> Self {
        let live = || {
            cons.iter()
                .enumerate()
                .filter_map(|(i, c)| Some((i, c.as_ref()?)))
        };
        let mut ids: Vec<u32> = live()
            .filter(|(_, c)| matches!(c, Con::Clause(_)))
            .map(|(i, _)| i as u32)
            .collect();
        let num_clauses = ids.len();
        ids.extend(
            live()
                .filter(|(_, c)| matches!(c, Con::AtMost(..)))
                .map(|(i, _)| i as u32),
        );
        let occ = Csr::build(2 * value.len(), |push| {
            for (p, &i) in ids.iter().enumerate() {
                match &cons[i as usize] {
                    Some(Con::Clause(lits)) => {
                        lits.iter().for_each(|l| push(l.code(), (p as u32, 0)))
                    }
                    Some(Con::AtMost(terms, _)) => terms
                        .iter()
                        .for_each(|&(a, l)| push(l.code(), (p as u32, a))),
                    None => unreachable!("probe ids name live constraints"),
                }
            }
        });
        let num_at_most = ids.len() - num_clauses;
        Probe {
            cons,
            ids,
            num_clauses,
            occ,
            val: value.to_vec(),
            trail: Vec::new(),
            queue: VecDeque::new(),
            cl_false: vec![0; num_clauses],
            cl_true: vec![0; num_clauses],
            am_sum: vec![0; num_at_most],
            steps: 0,
            budget,
            deadline,
            polls: 0,
        }
    }

    fn clause(&self, c: usize) -> &'a [Lit] {
        match &self.cons[self.ids[c] as usize] {
            Some(Con::Clause(lits)) => lits,
            _ => unreachable!("clause ids name clauses"),
        }
    }

    fn at_most(&self, c: usize) -> (&'a [(u64, Lit)], u64) {
        match &self.cons[self.ids[c] as usize] {
            Some(Con::AtMost(terms, bound)) => (terms, *bound),
            _ => unreachable!("at-most ids name at-mosts"),
        }
    }

    fn lit_true(&self, l: Lit) -> Option<bool> {
        match self.val[l.var().index()] {
            UNASSIGNED => None,
            v => Some((v == 1) != l.is_negative()),
        }
    }

    /// Assigns `l` and propagates. Returns `false` on conflict. Does not
    /// undo — callers snapshot `trail.len()` and call [`Probe::undo`].
    ///
    /// Counter updates for one literal are never interrupted (a conflict
    /// or exhausted budget takes effect only *between* literals), so the
    /// trail always matches the counters exactly and `undo` is safe.
    fn run(&mut self, l: Lit) -> bool {
        self.queue.clear();
        self.queue.push_back(l);
        while let Some(l) = self.queue.pop_front() {
            match self.lit_true(l) {
                Some(true) => continue,
                Some(false) => return false,
                None => {}
            }
            if self.steps >= self.budget {
                return true; // budget out: treat as "no conflict"
            }
            if let Some(d) = self.deadline {
                self.polls += 1;
                if self.polls & 0xff == 0 && Instant::now() >= d {
                    self.budget = 0;
                    return true;
                }
            }
            self.val[l.var().index()] = if l.is_negative() { 0 } else { 1 };
            self.trail.push(l);
            let nc = self.num_clauses;
            let mut conflict = false;
            // The literal is now true.
            for k in 0..self.occ.get(l.code()).len() {
                let (c, coeff) = self.occ.get(l.code())[k];
                let c = c as usize;
                self.steps += 1;
                if c < nc {
                    self.cl_true[c] += 1;
                } else {
                    let a = c - nc;
                    self.am_sum[a] += coeff;
                    let (terms, bound) = self.at_most(c);
                    if self.am_sum[a] > bound {
                        conflict = true;
                    } else if !conflict {
                        let slack = bound - self.am_sum[a];
                        for &(w, t) in terms {
                            if w > slack && self.lit_true(t).is_none() {
                                self.queue.push_back(!t);
                            }
                        }
                        self.steps += terms.len() as u64;
                    }
                }
            }
            // Its negation is now false. (A false literal in an at-most
            // only loosens it; only clauses can propagate here.)
            let neg = (!l).code();
            for k in 0..self.occ.get(neg).len() {
                let (c, _) = self.occ.get(neg)[k];
                let c = c as usize;
                self.steps += 1;
                if c < nc {
                    self.cl_false[c] += 1;
                    if conflict || self.cl_true[c] > 0 {
                        continue;
                    }
                    let lits = self.clause(c);
                    let len = lits.len() as u32;
                    if self.cl_false[c] == len {
                        conflict = true;
                    } else if self.cl_false[c] == len - 1 {
                        if let Some(&u) = lits.iter().find(|t| self.lit_true(**t).is_none()) {
                            self.queue.push_back(u);
                        }
                        self.steps += u64::from(len);
                    }
                }
            }
            if conflict {
                return false;
            }
        }
        true
    }

    fn undo(&mut self, mark: usize) {
        let nc = self.num_clauses;
        while self.trail.len() > mark {
            let l = self.trail.pop().expect("trail above mark");
            self.val[l.var().index()] = UNASSIGNED;
            for &(c, coeff) in self.occ.get(l.code()) {
                let c = c as usize;
                if c < nc {
                    self.cl_true[c] -= 1;
                } else {
                    self.am_sum[c - nc] -= coeff;
                }
            }
            for &(c, _) in self.occ.get((!l).code()) {
                let c = c as usize;
                if c < nc {
                    self.cl_false[c] -= 1;
                }
            }
        }
    }
}

/// Runs the probing phase. Returns the root-fixed literals, or `Err` when
/// both polarities of some variable fail (the model is infeasible).
fn probe_phase(work: &mut Work, budget: u64) -> Result<Vec<Lit>, Conflict> {
    let mut probe = Probe::new(&work.cons, &work.value, work.deadline, budget);
    // Highest-occurrence variables first: their assignments propagate the
    // furthest, so a failed literal prunes the most.
    let n = work.value.len();
    let mut order: Vec<(usize, usize)> = (0..n)
        .filter(|&v| probe.val[v] == UNASSIGNED)
        .map(|v| {
            (
                probe.occ.get(2 * v).len() + probe.occ.get(2 * v + 1).len(),
                v,
            )
        })
        .filter(|&(occ, _)| occ > 0)
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut fixed: Vec<Lit> = Vec::new();
    for (_, v) in order {
        if probe.steps >= probe.budget {
            break;
        }
        if probe.val[v] != UNASSIGNED {
            continue;
        }
        work.stats.probed_vars += 1;
        for lit in [Lit::positive(Var(v as u32)), Lit::negative(Var(v as u32))] {
            if probe.val[v] != UNASSIGNED {
                break;
            }
            let mark = probe.trail.len();
            let ok = probe.run(lit);
            probe.undo(mark);
            if !ok {
                // `lit` fails: ¬lit holds at the root. The root-level
                // propagation is kept on the trail (not undone), so later
                // probes run against the strengthened root state.
                work.stats.failed_literals += 1;
                if !probe.run(!lit) {
                    return Err(Conflict);
                }
                fixed.extend_from_slice(&probe.trail[fixed.len()..]);
            }
        }
    }
    Ok(fixed)
}

/// Presolves `model` into an equivalent reduced model.
///
/// The reduction is deterministic: the same model and configuration always
/// produce the same reduced model, so the portfolio's "presolve once,
/// share across workers" scheme keeps `threads = 1` runs reproducible.
pub fn presolve(model: &Model, config: &PresolveConfig) -> Presolved {
    let start = Instant::now();
    let n = model.num_vars();
    let mut work = Work::new(n, config.deadline);
    work.stats.vars_before = n as u64;
    work.stats.constraints_before = model.constraints().len() as u64;

    let infeasible = |mut stats: PresolveStats, start: Instant| {
        stats.elapsed = start.elapsed();
        Presolved::Infeasible { stats }
    };

    for c in model.constraints() {
        for nc in normalize(c) {
            if work.accept_norm(nc).is_err() {
                return infeasible(work.stats, start);
            }
        }
    }

    // Main simplification loop.
    let mut probed = false;
    loop {
        let round_result = (|| -> Result<bool, Conflict> {
            work.stats.rounds += 1;
            let mut changed = work.propagate()?;
            if work.time_up() {
                return Ok(false);
            }
            changed |= work.simplify_all()?;
            changed |= work.propagate()?;
            if work.time_up() {
                return Ok(false);
            }
            changed |= work.equiv_pass()?;
            if changed {
                return Ok(true);
            }
            changed |= work.dedup_pass();
            changed |= work.subsume_pass();
            changed |= work.clique_pass();
            Ok(changed)
        })();
        match round_result {
            Err(Conflict) => return infeasible(work.stats, start),
            Ok(true) if work.stats.rounds < MAX_ROUNDS && !work.out_of_time => continue,
            Ok(_) => {}
        }
        let too_small = model.num_vars() < config.probe_min_vars;
        if probed || config.probe_budget == 0 || too_small || work.out_of_time {
            break;
        }
        probed = true;
        match probe_phase(&mut work, config.probe_budget) {
            Err(Conflict) => return infeasible(work.stats, start),
            Ok(fixed) => {
                if fixed.is_empty() {
                    break;
                }
                for l in fixed {
                    work.enqueue(l);
                }
                // Loop once more to apply the probe fixings.
            }
        }
    }

    match emit(model, &mut work) {
        Err(Conflict) => infeasible(work.stats, start),
        Ok((reduced, reconstruction)) => {
            let mut stats = work.stats;
            stats.vars_after = reduced.num_vars() as u64;
            stats.constraints_after = reduced.constraints().len() as u64;
            stats.fixed_vars = reconstruction
                .dispositions
                .iter()
                .filter(|d| matches!(d, Disposition::Fixed { .. }))
                .count() as u64;
            stats.elapsed = start.elapsed();
            Presolved::Reduced {
                model: reduced,
                reconstruction,
                stats,
            }
        }
    }
}

/// Final phase: free-variable elimination, dense renumbering, and emission
/// of the reduced [`Model`].
fn emit(model: &Model, work: &mut Work) -> Result<(Model, Reconstruction), Conflict> {
    let n = model.num_vars();
    // Flush pending units, then rewrite every surviving constraint under
    // the final substitution: the main loop may have stopped mid-pass (its
    // deadline expired) or right after equivalence merging (`MAX_ROUNDS`),
    // leaving fixed or aliased literals behind, and the renumbering below
    // maps only unassigned class representatives. The deadline no longer
    // applies here. When the loop reached its fixpoint every constraint is
    // already canonical and the sweep changes nothing.
    work.deadline = None;
    work.out_of_time = false;
    work.propagate()?;
    work.simplify_all()?;
    work.propagate()?;

    // Substituted objective, by representative variable; 0 means absent.
    let mut obj_terms: Vec<i64> = vec![0; n];
    let mut obj_constant: i64 = 0;
    let has_objective = model.objective().is_some();
    if let Some(obj) = model.objective() {
        obj_constant = obj.constant();
        for &(c, v) in obj.terms() {
            let r = work.find(v.lit());
            match work.value[r.var().index()] {
                UNASSIGNED => {
                    if r.is_negative() {
                        // c·v = c·(1 - rep) = c - c·rep
                        obj_constant += c;
                        obj_terms[r.var().index()] -= c;
                    } else {
                        obj_terms[r.var().index()] += c;
                    }
                }
                val => {
                    let v_true = (val == 1) != r.is_negative();
                    if v_true {
                        obj_constant += c;
                    }
                }
            }
        }
    }

    // Representative variables that still appear in some constraint.
    let mut occurs = vec![false; n];
    for con in work.cons.iter().flatten() {
        match con {
            Con::Clause(lits) => {
                for l in lits {
                    occurs[l.var().index()] = true;
                }
            }
            Con::AtMost(terms, _) => {
                for (_, l) in terms {
                    occurs[l.var().index()] = true;
                }
            }
        }
    }
    // A representative constrained by nothing is free: fix it to its
    // objective-preferred polarity (false when indifferent). This is sound
    // for feasibility and preserves the optimum — but unlike unit/probing
    // fixings it is a *choice*, not an entailment, which `Reconstruction`
    // must remember for assumption mapping.
    let mut free_fixed = vec![false; n];
    for (v, &occ) in occurs.iter().enumerate() {
        let var = Var(v as u32);
        let is_rep = work.find(var.lit()) == var.lit();
        if is_rep && work.value[v] == UNASSIGNED && !occ {
            free_fixed[v] = true;
            let coeff = std::mem::take(&mut obj_terms[v]);
            work.value[v] = i8::from(coeff < 0);
            if coeff < 0 {
                obj_constant += coeff;
            }
        }
    }

    // Dense renumbering of surviving representatives, in index order.
    let mut reduced = Model::new();
    let mut new_var: Vec<Option<Var>> = vec![None; n];
    for (v, slot) in new_var.iter_mut().enumerate() {
        let var = Var(v as u32);
        if work.find(var.lit()) == var.lit() && work.value[v] == UNASSIGNED {
            *slot = Some(reduced.new_var());
        }
    }
    let map_lit = |l: Lit, new_var: &[Option<Var>]| -> Lit {
        let nv = new_var[l.var().index()].expect("surviving rep has a new index");
        if l.is_negative() {
            Lit::negative(nv)
        } else {
            Lit::positive(nv)
        }
    };

    for con in work.cons.iter().flatten() {
        match con {
            Con::Clause(lits) => {
                reduced.add_clause(lits.iter().map(|&l| map_lit(l, &new_var)));
            }
            Con::AtMost(terms, bound) => {
                let mut expr = LinExpr::new();
                let mut rhs = i128::from(*bound);
                for &(a, l) in terms {
                    let nv = new_var[l.var().index()].expect("surviving rep has a new index");
                    if l.is_negative() {
                        // a·¬v = a - a·v
                        rhs -= i128::from(a);
                        expr.add_term(-(a as i64), nv);
                    } else {
                        expr.add_term(a as i64, nv);
                    }
                }
                reduced.add_le(expr, rhs.clamp(i64::MIN as i128, i64::MAX as i128) as i64);
            }
        }
    }

    if has_objective {
        let mut expr = LinExpr::new();
        for (v, &c) in obj_terms.iter().enumerate() {
            if c != 0 {
                expr.add_term(c, new_var[v].expect("objective var survives"));
            }
        }
        expr.add_constant(obj_constant);
        reduced.minimize(expr);
    }

    // Branch hints follow their representative, with phase flipped when the
    // representative is the negated literal.
    for &(v, priority, phase) in model.branch_hints() {
        let r = work.find(v.lit());
        if let Some(nv) = new_var[r.var().index()] {
            reduced.suggest_branch(nv, priority, phase != r.is_negative());
        }
    }

    let mut dispositions = Vec::with_capacity(n);
    for v in 0..n {
        let r = work.find(Var(v as u32).lit());
        let d = match work.value[r.var().index()] {
            UNASSIGNED => Disposition::Mapped {
                var: new_var[r.var().index()].expect("unassigned rep survives"),
                negated: r.is_negative(),
            },
            val => Disposition::Fixed {
                value: (val == 1) != r.is_negative(),
                entailed: !free_fixed[r.var().index()],
            },
        };
        dispositions.push(d);
    }

    Ok((reduced, Reconstruction { dispositions }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::solve::{Solver, SolverConfig};

    fn reduced(p: &Presolved) -> (&Model, &Reconstruction, &PresolveStats) {
        match p {
            Presolved::Reduced {
                model,
                reconstruction,
                stats,
            } => (model, reconstruction, stats),
            Presolved::Infeasible { .. } => panic!("expected reduced, got infeasible"),
        }
    }

    #[test]
    fn propagation_fixes_chain() {
        let mut m = Model::new();
        let vs = m.new_vars(5);
        m.fix(vs[0], true);
        for w in vs.windows(2) {
            m.add_implies(w[0].lit(), w[1].lit());
        }
        let p = presolve(&m, &PresolveConfig::default());
        let (red, recon, stats) = reduced(&p);
        assert_eq!(red.num_vars(), 0);
        assert_eq!(stats.fixed_vars, 5);
        let full = recon.expand(&Assignment::from_values(vec![]));
        assert!(vs.iter().all(|&v| full.value(v)));
    }

    #[test]
    fn equivalence_merges_implication_cycles() {
        let mut m = Model::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        m.add_implies(a.lit(), b.lit());
        m.add_implies(b.lit(), c.lit());
        m.add_implies(c.lit(), a.lit());
        // One extra constraint so the class is not free-eliminated away
        // trivially: a ∨ d.
        let d = m.new_var();
        m.add_clause([a.lit(), d.lit()]);
        let p = presolve(&m, &PresolveConfig::default());
        let (red, recon, stats) = reduced(&p);
        assert!(stats.aliased_vars >= 2, "{stats:?}");
        assert!(red.num_vars() <= 2);
        // Any reduced solution must expand so that a == b == c.
        let vals = Assignment::from_values(vec![true; red.num_vars()]);
        let full = recon.expand(&vals);
        assert_eq!(full.value(a), full.value(b));
        assert_eq!(full.value(b), full.value(c));
    }

    #[test]
    fn duplicate_and_subsumed_clauses_removed() {
        let mut m = Model::new();
        let vs = m.new_vars(4);
        m.add_clause([vs[0].lit(), vs[1].lit()]);
        m.add_clause([vs[0].lit(), vs[1].lit()]); // duplicate
        m.add_clause([vs[0].lit(), vs[1].lit(), vs[2].lit()]); // subsumed
        m.add_clause([vs[2].lit(), vs[3].lit()]);
        let p = presolve(&m, &PresolveConfig::default());
        let (red, _, stats) = reduced(&p);
        assert!(stats.removed_constraints >= 2, "{stats:?}");
        assert_eq!(red.constraints().len(), 2);
    }

    #[test]
    fn clique_detection_builds_at_most_one() {
        let mut m = Model::new();
        let vs = m.new_vars(4);
        // Pairwise exclusion between all four variables, as binary
        // clauses: should collapse into a single at-most-one.
        for i in 0..4 {
            for j in i + 1..4 {
                m.add_clause([!vs[i].lit(), !vs[j].lit()]);
            }
        }
        // Anchor so the variables stay constrained.
        m.add_clause(vs.iter().map(|v| v.lit()));
        let p = presolve(&m, &PresolveConfig::default());
        let (red, _, stats) = reduced(&p);
        assert!(stats.cliques >= 1, "{stats:?}");
        assert!(
            red.constraints().len() <= 3,
            "{} constraints left",
            red.constraints().len()
        );
    }

    #[test]
    fn probing_fixes_forced_variable() {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        // x → y, x → ¬y: probing x=true conflicts, so x is fixed false.
        m.add_implies(x.lit(), y.lit());
        m.add_implies(x.lit(), !y.lit());
        m.add_clause([x.lit(), z.lit()]); // then z is forced true
        let cfg = PresolveConfig {
            probe_min_vars: 0, // the model is tiny; probe it anyway
            ..PresolveConfig::default()
        };
        let p = presolve(&m, &cfg);
        let (red, recon, stats) = reduced(&p);
        assert!(stats.failed_literals >= 1, "{stats:?}");
        assert_eq!(red.num_vars(), 0, "everything should collapse");
        let full = recon.expand(&Assignment::from_values(vec![]));
        assert!(!full.value(x));
        assert!(full.value(z));
    }

    #[test]
    fn probing_both_polarities_failing_is_infeasible() {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        m.add_implies(x.lit(), y.lit());
        m.add_implies(x.lit(), !y.lit());
        m.add_implies(!x.lit(), y.lit());
        m.add_implies(!x.lit(), !y.lit());
        let cfg = PresolveConfig {
            probe_min_vars: 0,
            ..PresolveConfig::default()
        };
        let p = presolve(&m, &cfg);
        assert!(matches!(p, Presolved::Infeasible { .. }));
    }

    #[test]
    fn small_models_skip_probing_by_default() {
        // Same forced-variable shape as probing_fixes_forced_variable,
        // but under the default config the model is far below
        // `probe_min_vars`, so the probe pass must not run at all.
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        m.add_implies(x.lit(), y.lit());
        m.add_implies(x.lit(), !y.lit());
        m.add_clause([x.lit(), z.lit()]);
        let p = presolve(&m, &PresolveConfig::default());
        let (_, _, stats) = reduced(&p);
        assert_eq!(stats.probed_vars, 0, "{stats:?}");
        assert_eq!(stats.failed_literals, 0, "{stats:?}");
    }

    #[test]
    fn free_variables_follow_the_objective() {
        let mut m = Model::new();
        let a = m.new_var();
        let b = m.new_var();
        let mut obj = LinExpr::new();
        obj.add_term(3, a);
        obj.add_term(-2, b);
        m.minimize(obj);
        let p = presolve(&m, &PresolveConfig::default());
        let (red, recon, _) = reduced(&p);
        assert_eq!(red.num_vars(), 0);
        assert_eq!(red.objective().map(|o| o.constant()), Some(-2));
        let full = recon.expand(&Assignment::from_values(vec![]));
        assert!(!full.value(a));
        assert!(full.value(b));
    }

    #[test]
    fn infeasible_root_detected() {
        let mut m = Model::new();
        let x = m.new_var();
        m.fix(x, true);
        m.fix(x, false);
        assert!(matches!(
            presolve(&m, &PresolveConfig::default()),
            Presolved::Infeasible { .. }
        ));
    }

    #[test]
    fn expired_deadline_still_emits_a_sound_model() {
        let mut m = Model::new();
        let vs = m.new_vars(20);
        for w in vs.windows(2) {
            m.add_clause([w[0].lit(), w[1].lit()]);
        }
        let cfg = PresolveConfig {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..PresolveConfig::default()
        };
        let p = presolve(&m, &cfg);
        let (red, recon, _) = reduced(&p);
        // Nothing is guaranteed to be reduced, but the model must still be
        // equivalent: expanding any solution must satisfy the original.
        assert_eq!(recon.num_original_vars(), 20);
        assert!(red.num_vars() <= 20);
    }

    /// Solves the reduced model without presolve and checks that the
    /// expanded solution satisfies the original.
    fn assert_expands_soundly(original: &Model, p: &Presolved) {
        let (red, recon, _) = reduced(p);
        let out = Solver::with_config(SolverConfig {
            presolve: false,
            ..SolverConfig::default()
        })
        .solve(red);
        let solution = out.solution().expect("the reduced model is satisfiable");
        let full = recon.expand(solution);
        assert_eq!(original.check(|v| full.value(v)), Ok(()));
    }

    #[test]
    fn deadline_expiring_mid_propagation_still_emits_a_sound_model() {
        // Fixing x dirties all 2,999 clauses; the 1,024th deadline poll is
        // the first to read the clock, so propagation stops with about
        // 2,000 of them still mentioning the fixed x.
        let mut m = Model::new();
        let x = m.new_var();
        let ys = m.new_vars(3000);
        m.fix(x, true);
        for w in ys.windows(2) {
            m.add_clause([!x.lit(), w[0].lit(), w[1].lit()]);
        }
        let cfg = PresolveConfig {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..PresolveConfig::default()
        };
        let p = presolve(&m, &cfg);
        let (red, _, _) = reduced(&p);
        assert_eq!(red.constraints().len(), 2999);
        assert!(red.constraints().iter().all(|c| c.expr.terms().len() == 2));
        assert_expands_soundly(&m, &p);
    }

    #[test]
    fn round_cap_right_after_merging_still_emits_a_sound_model() {
        // Level k's ternary clauses turn into x_k ≡ x_{k-1} and
        // y_k ≡ x_{k-1} only once x_{k-1} ≡ y_{k-1} has been merged, so each
        // round merges exactly one level. With more levels than
        // `MAX_ROUNDS`, the loop stops right after a merge and leaves the
        // next level's clauses naming aliased variables.
        let mut m = Model::new();
        let levels = MAX_ROUNDS as usize + 4;
        let x = m.new_vars(levels);
        let y = m.new_vars(levels);
        m.add_implies(x[0].lit(), y[0].lit());
        m.add_implies(y[0].lit(), x[0].lit());
        for k in 1..levels {
            let (px, py) = (x[k - 1].lit(), y[k - 1].lit());
            for z in [x[k].lit(), y[k].lit()] {
                m.add_clause([!z, px, py]);
                m.add_clause([z, !px, !py]);
            }
        }
        let p = presolve(&m, &PresolveConfig::default());
        let (_, _, stats) = reduced(&p);
        assert_eq!(stats.rounds, MAX_ROUNDS, "{stats:?}");
        assert_expands_soundly(&m, &p);
    }
}
