//! Independent reverse-unit-propagation (RUP) proof checker.
//!
//! This module certifies `Infeasible` verdicts without trusting the
//! search engine. It shares **no code** with [`crate::Engine`]: the only
//! inputs it believes are the [`Model`] itself and the normal-form
//! translation in [`crate::normalize`] (which is part of the model
//! semantics, exercised directly by the brute-force differential tests).
//! Everything else — learnt clauses, imported clauses, presolve facts —
//! must be *re-derived* here before it is accepted.
//!
//! The propagation machinery is deliberately different from the engine's:
//! clauses are indexed by full occurrence lists and scanned linearly
//! (no two-watched-literal scheme, no lazy watch repair), and PB at-most
//! constraints keep an exact true-weight counter updated on every
//! assignment (no trail-position-based explanation logic). A bug in the
//! engine's clever data structures therefore cannot be mirrored here.
//!
//! Checking a proof: the database starts as the normalised model. Each
//! `Add` step is verified by RUP — assert the negation of every literal
//! in the clause and propagate to fixpoint; the step is valid iff this
//! yields a conflict — then attached permanently. Each `Delete` step
//! removes a previously added clause (matched by its sorted literal set).
//! The proof is valid iff the database propagates to a root conflict,
//! i.e. the empty clause is derived. Soundness does not depend on the
//! engine at all: every accepted step is entailed by the model, so a
//! derived contradiction refutes the model itself.

use crate::model::{Lit, Model};
use crate::normalize::{normalize, NormConstraint};
use crate::proof::{ProofLog, StepKind};
use std::collections::HashMap;
use std::time::Instant;

/// Result of replaying a proof against a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every step was re-derived and the database reached a root
    /// contradiction: the model is certifiably infeasible.
    Valid {
        /// Number of proof steps replayed.
        steps: usize,
    },
    /// A step could not be verified. The proof (and the verdict it
    /// supports) must not be trusted.
    Invalid {
        /// Index of the offending step (`proof.len()` for the final
        /// contradiction check).
        step: usize,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The deadline expired mid-check; no judgement is made.
    OutOfTime,
}

const UNASSIGNED: i8 = 2;

/// How often (in propagation events) the deadline is polled.
const DEADLINE_POLL: u64 = 4096;

struct CClause {
    lits: Vec<Lit>,
    active: bool,
}

struct CLinear {
    terms: Vec<(u64, Lit)>,
    bound: u64,
    /// Weight of currently-true terms.
    sum_true: u64,
}

/// The checker's clause/linear database with a trail-based undo stack.
struct CheckerDb {
    /// Per-variable value: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<i8>,
    clauses: Vec<CClause>,
    /// For each literal code, the clauses containing that literal.
    occ: Vec<Vec<u32>>,
    linears: Vec<CLinear>,
    /// For each literal code, `(linear index, weight)` pairs for the
    /// linears containing that literal.
    lin_occ: Vec<Vec<(u32, u64)>>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Set once a root-level contradiction is derived.
    refuted: bool,
    /// Sorted-literal-codes key → active clause indices, for deletes.
    by_key: HashMap<Vec<usize>, Vec<u32>>,
    props: u64,
}

/// Outcome of a bounded propagation run.
enum Prop {
    Fixpoint,
    Conflict,
    OutOfTime,
}

impl CheckerDb {
    fn new(num_vars: usize) -> Self {
        CheckerDb {
            assign: vec![UNASSIGNED; num_vars],
            clauses: Vec::new(),
            occ: vec![Vec::new(); 2 * num_vars],
            linears: Vec::new(),
            lin_occ: vec![Vec::new(); 2 * num_vars],
            trail: Vec::new(),
            qhead: 0,
            refuted: false,
            by_key: HashMap::new(),
            props: 0,
        }
    }

    fn value(&self, l: Lit) -> i8 {
        let v = self.assign[l.var().index()];
        if v == UNASSIGNED {
            UNASSIGNED
        } else if l.is_negative() {
            1 - v
        } else {
            v
        }
    }

    /// Makes `l` true and updates every linear counter containing `l`.
    /// Returns `false` on an immediate linear overflow conflict.
    fn enqueue(&mut self, l: Lit) -> bool {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        self.assign[l.var().index()] = if l.is_negative() { 0 } else { 1 };
        self.trail.push(l);
        let mut ok = true;
        for i in 0..self.lin_occ[l.code()].len() {
            let (li, w) = self.lin_occ[l.code()][i];
            let lin = &mut self.linears[li as usize];
            lin.sum_true += w;
            if lin.sum_true > lin.bound {
                ok = false;
            }
        }
        ok
    }

    /// Unwinds the trail (and linear counters) back to length `mark`.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().expect("trail non-empty");
            self.assign[l.var().index()] = UNASSIGNED;
            for i in 0..self.lin_occ[l.code()].len() {
                let (li, w) = self.lin_occ[l.code()][i];
                self.linears[li as usize].sum_true -= w;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
    }

    /// Propagates to fixpoint from the current queue head.
    fn propagate(&mut self, deadline: Option<Instant>) -> Prop {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.props += 1;
            if self.props.is_multiple_of(DEADLINE_POLL) {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Prop::OutOfTime;
                    }
                }
            }

            // Clauses that contain ¬p may have become unit or empty.
            let falsified = (!p).code();
            for i in 0..self.occ[falsified].len() {
                let ci = self.occ[falsified][i] as usize;
                if !self.clauses[ci].active {
                    continue;
                }
                let mut unassigned: Option<Lit> = None;
                let mut n_unassigned = 0;
                let mut satisfied = false;
                for &l in &self.clauses[ci].lits {
                    match self.value(l) {
                        1 => {
                            satisfied = true;
                            break;
                        }
                        UNASSIGNED => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                        _ => {}
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return Prop::Conflict,
                    1 => {
                        let l = unassigned.expect("unit literal");
                        if !self.enqueue(l) {
                            return Prop::Conflict;
                        }
                    }
                    _ => {}
                }
            }

            // Linears containing p itself: the counter rose when p was
            // enqueued; check overflow and force out high-weight terms.
            for i in 0..self.lin_occ[p.code()].len() {
                let li = self.lin_occ[p.code()][i].0 as usize;
                match self.force_linear(li) {
                    Prop::Fixpoint => {}
                    other => return other,
                }
            }
        }
        Prop::Fixpoint
    }

    /// Checks one linear for overflow and forces false any unassigned
    /// term whose weight no longer fits under the bound.
    fn force_linear(&mut self, li: usize) -> Prop {
        let (bound, sum_true) = {
            let lin = &self.linears[li];
            (lin.bound, lin.sum_true)
        };
        if sum_true > bound {
            return Prop::Conflict;
        }
        let slack = bound - sum_true;
        let mut to_force: Vec<Lit> = Vec::new();
        for &(a, l) in &self.linears[li].terms {
            if a > slack && self.value(l) == UNASSIGNED {
                to_force.push(!l);
            }
        }
        for l in to_force {
            if self.value(l) == UNASSIGNED && !self.enqueue(l) {
                return Prop::Conflict;
            }
        }
        Prop::Fixpoint
    }

    /// Asserts a literal at root level. Returns `false` on conflict.
    fn assert_root(&mut self, l: Lit, deadline: Option<Instant>) -> Prop {
        match self.value(l) {
            1 => Prop::Fixpoint,
            0 => Prop::Conflict,
            _ => {
                if !self.enqueue(l) {
                    return Prop::Conflict;
                }
                self.propagate(deadline)
            }
        }
    }

    fn key_of(lits: &[Lit]) -> Vec<usize> {
        let mut key: Vec<usize> = lits.iter().map(|l| l.code()).collect();
        key.sort_unstable();
        key
    }

    /// Attaches a clause permanently (after its RUP check). Empty and
    /// unit clauses fold into the root state; larger clauses join the
    /// database and are scanned once in case they are already asserting.
    fn attach(&mut self, lits: &[Lit], deadline: Option<Instant>) -> Prop {
        match lits.len() {
            0 => {
                self.refuted = true;
                Prop::Fixpoint
            }
            1 => match self.assert_root(lits[0], deadline) {
                Prop::Conflict => {
                    self.refuted = true;
                    Prop::Fixpoint
                }
                other => other,
            },
            _ => {
                let ci = self.clauses.len() as u32;
                for &l in lits {
                    self.occ[l.code()].push(ci);
                }
                self.clauses.push(CClause {
                    lits: lits.to_vec(),
                    active: true,
                });
                self.by_key.entry(Self::key_of(lits)).or_default().push(ci);
                // The new clause may already be unit or empty under the
                // current root assignment.
                let mut unassigned: Option<Lit> = None;
                let mut n_unassigned = 0;
                let mut satisfied = false;
                for &l in lits {
                    match self.value(l) {
                        1 => {
                            satisfied = true;
                            break;
                        }
                        UNASSIGNED => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                        _ => {}
                    }
                }
                if satisfied {
                    return Prop::Fixpoint;
                }
                match n_unassigned {
                    0 => {
                        self.refuted = true;
                        Prop::Fixpoint
                    }
                    1 => match self.assert_root(unassigned.expect("unit"), deadline) {
                        Prop::Conflict => {
                            self.refuted = true;
                            Prop::Fixpoint
                        }
                        other => other,
                    },
                    _ => Prop::Fixpoint,
                }
            }
        }
    }

    /// Deactivates one clause matching the literal set. Returns whether
    /// a match existed.
    fn delete(&mut self, lits: &[Lit]) -> bool {
        let key = Self::key_of(lits);
        if let Some(indices) = self.by_key.get_mut(&key) {
            while let Some(ci) = indices.pop() {
                if self.clauses[ci as usize].active {
                    self.clauses[ci as usize].active = false;
                    return true;
                }
            }
        }
        false
    }

    /// RUP test: is `lits` a consequence of the database by unit
    /// propagation? Leaves the database exactly as it found it.
    fn rup(&mut self, lits: &[Lit], deadline: Option<Instant>) -> Result<bool, ()> {
        if self.refuted {
            return Ok(true);
        }
        let mark = self.trail.len();
        let qmark = self.qhead;
        let mut conflict = false;
        for &l in lits {
            match self.value(l) {
                1 => {
                    // The clause is already satisfied at root: trivially
                    // entailed.
                    conflict = true;
                    break;
                }
                0 => {}
                _ => {
                    if !self.enqueue(!l) {
                        conflict = true;
                        break;
                    }
                }
            }
        }
        if !conflict {
            match self.propagate(deadline) {
                Prop::Conflict => conflict = true,
                Prop::Fixpoint => {}
                Prop::OutOfTime => {
                    self.undo_to(mark);
                    self.qhead = qmark;
                    return Err(());
                }
            }
        }
        self.undo_to(mark);
        self.qhead = qmark;
        Ok(conflict)
    }

    /// Loads the normalised model. Returns `false` on deadline expiry.
    fn load_model(&mut self, model: &Model, deadline: Option<Instant>) -> bool {
        for c in model.constraints() {
            if self.refuted {
                return true;
            }
            for nc in normalize(c) {
                match nc {
                    NormConstraint::Unit(l) => match self.assert_root(l, deadline) {
                        Prop::Conflict => self.refuted = true,
                        Prop::OutOfTime => return false,
                        Prop::Fixpoint => {}
                    },
                    NormConstraint::Clause(lits) => match self.attach(&lits, deadline) {
                        Prop::Conflict => self.refuted = true,
                        Prop::OutOfTime => return false,
                        Prop::Fixpoint => {}
                    },
                    NormConstraint::AtMost { terms, bound } => {
                        let li = self.linears.len() as u32;
                        let mut sum_true = 0;
                        for &(a, l) in &terms {
                            self.lin_occ[l.code()].push((li, a));
                            if self.value(l) == 1 {
                                sum_true += a;
                            }
                        }
                        self.linears.push(CLinear {
                            terms,
                            bound,
                            sum_true,
                        });
                        match self.force_linear(li as usize) {
                            Prop::Conflict => self.refuted = true,
                            Prop::OutOfTime => return false,
                            Prop::Fixpoint => match self.propagate(deadline) {
                                Prop::Conflict => self.refuted = true,
                                Prop::OutOfTime => return false,
                                Prop::Fixpoint => {}
                            },
                        }
                    }
                    NormConstraint::False => self.refuted = true,
                }
            }
        }
        true
    }
}

/// Replays `proof` against `model` and reports whether it certifies
/// infeasibility. See the module docs for the trust argument.
pub fn check_proof(model: &Model, proof: &ProofLog, deadline: Option<Instant>) -> CheckOutcome {
    if proof.truncated() {
        return CheckOutcome::Invalid {
            step: 0,
            detail: "proof log was truncated by its byte cap".to_owned(),
        };
    }
    let mut db = CheckerDb::new(model.num_vars());
    if !db.load_model(model, deadline) {
        return CheckOutcome::OutOfTime;
    }
    for (i, step) in proof.steps().iter().enumerate() {
        if db.refuted {
            // Root contradiction already derived: every later step is
            // trivially entailed, and the proof as a whole is valid.
            return CheckOutcome::Valid { steps: proof.len() };
        }
        match step.kind {
            StepKind::Add => {
                match db.rup(&step.lits, deadline) {
                    Ok(true) => {}
                    Ok(false) => {
                        return CheckOutcome::Invalid {
                            step: i,
                            detail: format!(
                                "{:?} clause of {} literals is not RUP",
                                step.origin,
                                step.lits.len()
                            ),
                        };
                    }
                    Err(()) => return CheckOutcome::OutOfTime,
                }
                match db.attach(&step.lits, deadline) {
                    Prop::OutOfTime => return CheckOutcome::OutOfTime,
                    Prop::Conflict => db.refuted = true,
                    Prop::Fixpoint => {}
                }
            }
            StepKind::Delete => {
                if !db.delete(&step.lits) {
                    return CheckOutcome::Invalid {
                        step: i,
                        detail: format!(
                            "delete of a clause ({} literals) not present in the database",
                            step.lits.len()
                        ),
                    };
                }
            }
        }
    }
    if db.refuted {
        CheckOutcome::Valid { steps: proof.len() }
    } else {
        CheckOutcome::Invalid {
            step: proof.len(),
            detail: "proof does not derive a contradiction".to_owned(),
        }
    }
}

/// Filters `candidates` down to the literals that are *provably* entailed
/// by the model under unit propagation, asserting each survivor so later
/// candidates may chain off earlier ones. Used to pre-validate
/// presolve-derived fixings before they are seeded into a certifying
/// replay: a presolve bug thus cannot plant an unsound "fact" in a proof.
pub(crate) fn entailed_units(
    model: &Model,
    candidates: &[Lit],
    deadline: Option<Instant>,
) -> Vec<Lit> {
    let mut db = CheckerDb::new(model.num_vars());
    if !db.load_model(model, deadline) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for &cand in candidates {
        if db.refuted {
            break;
        }
        match db.value(cand) {
            1 => out.push(cand),
            0 => {} // contradicts propagation: drop it
            _ => match db.rup(&[cand], deadline) {
                Ok(true) => {
                    out.push(cand);
                    match db.assert_root(cand, deadline) {
                        Prop::Conflict => db.refuted = true,
                        Prop::OutOfTime => break,
                        Prop::Fixpoint => {}
                    }
                }
                Ok(false) => {}
                Err(()) => break,
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model};
    use crate::proof::{ProofLog, ProofOrigin};

    /// x ∨ y, ¬x ∨ y, x ∨ ¬y, ¬x ∨ ¬y — classic 2-variable UNSAT.
    fn tiny_unsat() -> Model {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        m.add_clause([x.lit(), y.lit()]);
        m.add_clause([!x.lit(), y.lit()]);
        m.add_clause([x.lit(), !y.lit()]);
        m.add_clause([!x.lit(), !y.lit()]);
        m
    }

    #[test]
    fn valid_resolution_proof_accepted() {
        let m = tiny_unsat();
        let x = crate::model::Var(0);
        let y = crate::model::Var(1);
        let mut proof = ProofLog::new(1 << 20);
        // (y) follows from the first two clauses by RUP; then (¬y), then ⊥.
        proof.add(&[y.lit()], ProofOrigin::Learnt);
        proof.add(&[!y.lit()], ProofOrigin::Learnt);
        let _ = x;
        assert!(matches!(
            check_proof(&m, &proof, None),
            CheckOutcome::Valid { .. }
        ));
    }

    #[test]
    fn non_rup_step_rejected() {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        m.add_clause([x.lit(), y.lit()]);
        let mut proof = ProofLog::new(1 << 20);
        // (x) is NOT entailed by (x ∨ y).
        proof.add(&[x.lit()], ProofOrigin::Learnt);
        assert!(matches!(
            check_proof(&m, &proof, None),
            CheckOutcome::Invalid { step: 0, .. }
        ));
    }

    #[test]
    fn incomplete_proof_rejected() {
        // (a) is RUP from the first two clauses, but the remaining unsat
        // core under a=1 is a 2-variable parity block that unit
        // propagation alone cannot refute — so a proof that stops after
        // deriving (a) must be rejected as incomplete.
        let mut m = Model::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        let d = m.new_var();
        m.add_clause([a.lit(), b.lit()]);
        m.add_clause([a.lit(), !b.lit()]);
        m.add_clause([!a.lit(), c.lit(), d.lit()]);
        m.add_clause([!a.lit(), c.lit(), !d.lit()]);
        m.add_clause([!a.lit(), !c.lit(), d.lit()]);
        m.add_clause([!a.lit(), !c.lit(), !d.lit()]);
        let mut proof = ProofLog::new(1 << 20);
        proof.add(&[a.lit()], ProofOrigin::Learnt);
        // Stops before deriving the contradiction.
        let out = check_proof(&m, &proof, None);
        assert!(
            matches!(out, CheckOutcome::Invalid { step: 1, .. }),
            "{out:?}"
        );
    }

    #[test]
    fn delete_of_unknown_clause_rejected() {
        let m = tiny_unsat();
        let y = crate::model::Var(1);
        let mut proof = ProofLog::new(1 << 20);
        proof.delete(&[y.lit(), !y.lit()]);
        assert!(matches!(
            check_proof(&m, &proof, None),
            CheckOutcome::Invalid { step: 0, .. }
        ));
    }

    #[test]
    fn delete_then_use_fails() {
        // Deleting a clause must actually weaken the database: a proof
        // that deletes (x ∨ y) and then claims (y) via RUP must fail.
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        m.add_clause([x.lit(), y.lit()]);
        m.add_clause([!x.lit(), y.lit()]);
        let mut proof = ProofLog::new(1 << 20);
        proof.add(&[x.lit(), y.lit()], ProofOrigin::Learnt); // re-derives input, fine
        proof.delete(&[x.lit(), y.lit()]); // deletes the copy
        proof.delete(&[y.lit(), x.lit()]); // deletes the input (reordered)
        proof.add(&[y.lit()], ProofOrigin::Learnt); // no longer RUP
        assert!(matches!(
            check_proof(&m, &proof, None),
            CheckOutcome::Invalid { step: 3, .. }
        ));
    }

    #[test]
    fn at_most_propagation_checked() {
        // x0 + x1 + x2 <= 1 with clauses forcing two of them true.
        let mut m = Model::new();
        let vs = m.new_vars(3);
        m.add_le(LinExpr::sum(vs.clone()), 1);
        m.add_clause([vs[0].lit()]);
        m.add_clause([vs[1].lit()]);
        // Model itself refutes at root: empty proof is valid.
        let proof = ProofLog::new(1 << 20);
        assert!(matches!(
            check_proof(&m, &proof, None),
            CheckOutcome::Valid { .. }
        ));
    }

    #[test]
    fn weighted_at_most_forces_literals() {
        // 3x + 2y + 2z <= 4 and x true leaves slack 1: y and z forced
        // false, so the clause (¬y) is RUP.
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let e = LinExpr::new() + (3, x) + (2, y) + (2, z);
        m.add_le(e, 4);
        m.add_clause([x.lit()]);
        let mut proof = ProofLog::new(1 << 20);
        proof.add(&[!y.lit()], ProofOrigin::Learnt);
        // Proof is sound step-wise but derives no contradiction (the
        // model is satisfiable), so the final check must fail.
        assert!(matches!(
            check_proof(&m, &proof, None),
            CheckOutcome::Invalid { step: 1, .. }
        ));
    }

    #[test]
    fn entailed_units_filters_don_t_cares() {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        m.add_clause([x.lit()]); // x entailed
        m.add_clause([!x.lit(), y.lit()]); // y entailed via x
        let cands = vec![x.lit(), y.lit(), z.lit(), !z.lit()];
        let out = entailed_units(&m, &cands, None);
        assert_eq!(out, vec![x.lit(), y.lit()]);
    }

    #[test]
    fn truncated_proof_rejected() {
        let m = tiny_unsat();
        let mut proof = ProofLog::new(1024);
        let lits: Vec<Lit> = (0..64)
            .map(|i| crate::model::Lit::positive(crate::model::Var(i)))
            .collect();
        for _ in 0..100 {
            proof.add(&lits, ProofOrigin::Learnt);
        }
        assert!(proof.truncated());
        assert!(matches!(
            check_proof(&m, &proof, None),
            CheckOutcome::Invalid { .. }
        ));
    }
}
