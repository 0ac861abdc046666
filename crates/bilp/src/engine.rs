//! The CDCL search engine with native pseudo-Boolean propagation.
//!
//! This is a conflict-driven clause-learning SAT core in the MiniSat
//! lineage (two-watched-literal clause propagation with blocking
//! literals, 1UIP learning, VSIDS decision ordering with phase saving,
//! Luby restarts, learnt-clause database reduction) extended with a
//! counting propagator for pseudo-Boolean *at-most* constraints. PB
//! propagations and conflicts are explained with clauses, which keeps
//! CDCL learning sound without cutting-planes reasoning.
//!
//! # Memory layout
//!
//! The hot data structures are laid out for cache locality rather than
//! pointer convenience:
//!
//! * **Arena clause store** ([`ClauseArena`]): every clause lives in one
//!   flat `u32` buffer — a four-word header (length + flags, LBD + age,
//!   and the `f64` activity in two words) followed by the literal codes —
//!   addressed by a 32-bit [`CRef`]. There is no per-clause heap
//!   allocation, and a watch visit that must touch clause memory reads
//!   one contiguous cache line run.
//! * **Bit-packed assignments**: variable values are 2-bit codes packed
//!   into `u64` words ([`PackedVals`]); saved phases and the conflict
//!   analysis `seen` marks are 1-bit arrays ([`BitVec`]). The whole
//!   assignment of a 100k-variable model fits in L2.
//! * **Compacting GC** ([`Engine::garbage_collect`]): learnt-DB
//!   reduction rebuilds the arena *in watch order* — clauses are copied
//!   to a fresh buffer in the order the propagator visits them, so the
//!   most-traversed clauses end up adjacent. Forwarding references in
//!   the old headers keep the watch lists consistent mid-move. GC runs
//!   only at decision level 0, where no clause is a reason (level-0
//!   enqueues drop their reasons), so no reason pointers need fixing.
//!
//! # Pseudo-Boolean rows
//!
//! An at-most row ([`Linear`]) keeps a running `sum_true` of its true
//! terms' coefficients, updated at enqueue, and propagates when its
//! largest coefficient exceeds the slack `bound - sum_true`. Two
//! structures make a row cost what it does rather than its length,
//! which matters for the descent's reified bound rows: they span the
//! whole objective, and the activation coefficient `total - bound`
//! exceeds the slack whenever the bound is assumed.
//!
//! * **Coefficient index.** A row whose coefficients differ keeps its
//!   term indices sorted by descending coefficient, ties in term order,
//!   plus its smallest coefficient. A scan visits only the index prefix
//!   whose coefficients exceed the slack; once the slack drops below
//!   the smallest coefficient every term qualifies and the scan walks
//!   the row itself. Rows with one coefficient need no index.
//! * **True-term list.** Each row lists its currently-true terms in
//!   trail order. `enqueue` pushes a literal's terms in occurrence order
//!   and `cancel_until` pops them in exact reverse, so a literal that a
//!   row repeats pushes and pops one entry per occurrence. The terms
//!   true before an implied literal are then a prefix of the list, and
//!   an explanation sorts only that prefix.
//!
//! Both live in one engine-wide buffer of `u32` slots, so a row adds no
//! allocation of its own and a push is a store into room reserved when
//! the row was added (a row cannot have more true terms than terms).
//!
//! Neither changes what the engine does. A scan collects the forced
//! terms and enqueues them in term order, as a scan of the whole row
//! would. An explanation sorts its terms by descending coefficient and
//! then term index — the order a stable sort of the row's true terms
//! gives — and reads the implied literal's coefficient from its first
//! occurrence through `lin_occ`. Propagations, explanations and learnt
//! clauses are therefore those of the full-row propagator, bit for bit.
//! Scans, explanations and conflict analysis write into scratch buffers
//! the engine owns, so none allocates per antecedent.
//!
//! # Inprocessing
//!
//! Between restarts the engine periodically simplifies its own database
//! ([`Engine::inprocess`]): root-level satisfied clauses are dropped and
//! root-falsified literals stripped, bounded learnt-clause
//! **vivification** shortens clauses by propagating their negated
//! prefixes, and a bounded **subsumption / self-subsuming resolution**
//! pass removes or strengthens learnt clauses against each other. Every
//! rewrite is proof-logged (add the strengthened clause, then delete the
//! original — RUP-valid because the original is still present), so
//! certified UNSAT verdicts survive inprocessing unchanged.
//!
//! The engine supports adding constraints between successive `solve` calls
//! (always at decision level 0) and, more importantly, **solving under
//! assumptions** ([`Engine::solve_under_assumptions`]): a set of literals
//! is held true for one search without ever becoming permanent, so the
//! branch-and-bound loop in [`crate::solve`] probes objective bounds
//! through activation literals on one persistent engine — every learnt
//! clause stays valid across the whole descent. When an assumption set is
//! refuted, [`Engine::unsat_core`] returns the subset of assumptions the
//! final conflict depends on.
//!
//! Learnt-clause management is LBD-based (Audemard & Simon's "glue"
//! metric) with an age-based demotion rule: each learnt clause records
//! its LBD and the number of consecutive reductions it survived without
//! being used in conflict analysis. Reduction protects glue clauses
//! (`lbd <= glue_lbd`) unconditionally, ranks the rest by age-penalised
//! LBD then activity, deletes the worst half, and additionally evicts
//! any clause — mid tier included — that has gone unused for
//! [`MAX_CLAUSE_AGE`] consecutive reductions.

use crate::model::{Lit, Var};
use crate::normalize::NormConstraint;
use crate::portfolio::ClauseExchange;
use crate::proof::{ProofLog, ProofOrigin};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const UNASSIGNED: i8 = 2;

/// How many propagations + conflicts may pass between two wall-clock /
/// interrupt polls. Checking `Instant::now()` on every propagation would
/// dominate the hot loop; checking only on conflicts makes deadlines
/// unresponsive on propagation-heavy instances. 1024 combined events
/// keeps the overhead unmeasurable while bounding the poll latency to a
/// few microseconds of solver work.
const POLL_INTERVAL: u64 = 1024;

/// A learnt clause that survives this many consecutive reductions
/// without being bumped by conflict analysis is evicted regardless of
/// its tier rank — the demotion rule that keeps the mid tier from
/// growing monotonically.
const MAX_CLAUSE_AGE: u32 = 4;

/// Vivification runs on every `VIVIFY_CADENCE`-th inprocessing pass
/// (subsumption and root simplification run on every pass), and only
/// once the search has accumulated [`VIVIFY_ONSET`] conflicts — probing
/// rewrites perturb the descent trajectory enough that they only pay
/// off on searches long enough to amortise the disruption.
const VIVIFY_CADENCE: u64 = 4;

/// Conflicts before the first vivification round may run.
const VIVIFY_ONSET: u64 = 100_000;

/// Reference to a clause in the arena: the word offset of its header.
type CRef = u32;

/// Sentinel "no clause" reference (also used for the vivification guard).
const CREF_NONE: CRef = u32::MAX;

/// Words of clause header preceding the literals in the arena.
const HEADER_WORDS: u32 = 4;

// Header word 0 layout: bits 0..=28 length, bit 29 relocated (GC
// forwarding marker), bit 30 learnt, bit 31 deleted.
const LEN_MASK: u32 = (1 << 29) - 1;
const FLAG_RELOCATED: u32 = 1 << 29;
const FLAG_LEARNT: u32 = 1 << 30;
const FLAG_DELETED: u32 = 1 << 31;

/// Approximate byte footprint of an arena clause holding `n` literals.
fn clause_bytes(n: usize) -> usize {
    4 * (HEADER_WORDS as usize + n)
}

/// Flat clause storage: all clauses in one `u32` buffer.
///
/// Layout per clause at offset `r`:
///
/// | word    | contents                                   |
/// |---------|--------------------------------------------|
/// | `r`     | length, relocated / learnt / deleted flags |
/// | `r + 1` | LBD (low 16 bits) and age (high 16 bits)   |
/// | `r + 2` | activity (`f64` bits, low word)            |
/// | `r + 3` | activity (`f64` bits, high word)           |
/// | `r + 4…`| literal codes                              |
///
/// During garbage collection word `r + 1` of a relocated clause is
/// repurposed as the forwarding reference into the new arena.
#[derive(Debug, Default)]
struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses (headers included); reclaimed
    /// by [`Engine::garbage_collect`].
    wasted: usize,
}

impl ClauseArena {
    fn with_capacity(words: usize) -> Self {
        ClauseArena {
            data: Vec::with_capacity(words),
            wasted: 0,
        }
    }

    /// Appends a clause and returns its reference.
    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2);
        debug_assert!(lits.len() as u32 <= LEN_MASK);
        let r = self.data.len() as u32;
        debug_assert!(
            (self.data.len() + HEADER_WORDS as usize + lits.len()) < u32::MAX as usize,
            "arena exceeds 32-bit addressing"
        );
        let mut header = lits.len() as u32;
        if learnt {
            header |= FLAG_LEARNT;
        }
        self.data.push(header);
        self.data.push(lbd.min(u16::MAX as u32)); // age starts at 0
        self.data.push(0); // activity low word
        self.data.push(0); // activity high word
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        r
    }

    #[inline]
    fn len(&self, r: CRef) -> usize {
        (self.data[r as usize] & LEN_MASK) as usize
    }

    #[inline]
    fn is_learnt(&self, r: CRef) -> bool {
        self.data[r as usize] & FLAG_LEARNT != 0
    }

    #[inline]
    fn is_deleted(&self, r: CRef) -> bool {
        self.data[r as usize] & FLAG_DELETED != 0
    }

    fn mark_deleted(&mut self, r: CRef) {
        debug_assert!(!self.is_deleted(r));
        self.data[r as usize] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS as usize + self.len(r);
    }

    #[inline]
    fn lbd(&self, r: CRef) -> u32 {
        self.data[r as usize + 1] & 0xffff
    }

    #[inline]
    fn age(&self, r: CRef) -> u32 {
        self.data[r as usize + 1] >> 16
    }

    fn set_age(&mut self, r: CRef, age: u32) {
        let w = &mut self.data[r as usize + 1];
        *w = (*w & 0xffff) | (age.min(u16::MAX as u32) << 16);
    }

    #[inline]
    fn activity(&self, r: CRef) -> f64 {
        let lo = u64::from(self.data[r as usize + 2]);
        let hi = u64::from(self.data[r as usize + 3]);
        f64::from_bits(lo | (hi << 32))
    }

    fn set_activity(&mut self, r: CRef, a: f64) {
        let bits = a.to_bits();
        self.data[r as usize + 2] = bits as u32;
        self.data[r as usize + 3] = (bits >> 32) as u32;
    }

    #[inline]
    fn lit(&self, r: CRef, i: usize) -> Lit {
        Lit(self.data[r as usize + HEADER_WORDS as usize + i])
    }

    #[inline]
    fn swap_lits(&mut self, r: CRef, i: usize, j: usize) {
        let base = r as usize + HEADER_WORDS as usize;
        self.data.swap(base + i, base + j);
    }

    fn collect_lits(&self, r: CRef) -> Vec<Lit> {
        let base = r as usize + HEADER_WORDS as usize;
        self.data[base..base + self.len(r)]
            .iter()
            .map(|&c| Lit(c))
            .collect()
    }

    /// All clause references, in arena order (deleted ones included).
    fn crefs(&self) -> Vec<CRef> {
        let mut out = Vec::new();
        let mut r = 0u32;
        while (r as usize) < self.data.len() {
            out.push(r);
            r += HEADER_WORDS + self.len(r) as u32;
        }
        out
    }

    /// Multiplies every learnt clause's activity by `factor`.
    fn rescale_activities(&mut self, factor: f64) {
        let mut r = 0u32;
        while (r as usize) < self.data.len() {
            if self.data[r as usize] & FLAG_LEARNT != 0 {
                let a = self.activity(r) * factor;
                self.set_activity(r, a);
            }
            r += HEADER_WORDS + self.len(r) as u32;
        }
    }

    #[inline]
    fn is_relocated(&self, r: CRef) -> bool {
        self.data[r as usize] & FLAG_RELOCATED != 0
    }

    /// Copies the clause into `to` (once — later calls return the
    /// forwarding reference left in the old header).
    fn reloc(&mut self, r: CRef, to: &mut ClauseArena) -> CRef {
        if self.is_relocated(r) {
            return self.data[r as usize + 1];
        }
        debug_assert!(!self.is_deleted(r));
        let total = HEADER_WORDS as usize + self.len(r);
        let new_r = to.data.len() as u32;
        to.data
            .extend_from_slice(&self.data[r as usize..r as usize + total]);
        self.data[r as usize] |= FLAG_RELOCATED;
        self.data[r as usize + 1] = new_r;
        new_r
    }
}

/// 2-bit variable values (0 = false, 1 = true, 2 = unassigned) packed
/// 32 to a `u64` word.
#[derive(Debug, Default)]
struct PackedVals {
    words: Vec<u64>,
    len: usize,
}

/// A `u64` word of 32 unassigned codes (`0b10` repeated).
const UNASSIGNED_WORD: u64 = 0xAAAA_AAAA_AAAA_AAAA;

impl PackedVals {
    fn new(n: usize) -> Self {
        PackedVals {
            words: vec![UNASSIGNED_WORD; n.div_ceil(32)],
            len: n,
        }
    }

    #[inline]
    fn get(&self, v: usize) -> u8 {
        debug_assert!(v < self.len);
        ((self.words[v >> 5] >> ((v & 31) * 2)) & 3) as u8
    }

    #[inline]
    fn set(&mut self, v: usize, code: u8) {
        debug_assert!(v < self.len);
        let sh = (v & 31) * 2;
        let w = &mut self.words[v >> 5];
        *w = (*w & !(3u64 << sh)) | (u64::from(code) << sh);
    }

    fn push_unassigned(&mut self) {
        if self.len & 31 == 0 {
            self.words.push(UNASSIGNED_WORD);
        }
        self.len += 1;
        let v = self.len - 1;
        let sh = (v & 31) * 2;
        let w = &mut self.words[v >> 5];
        *w = (*w & !(3u64 << sh)) | (2u64 << sh);
    }
}

/// A plain 1-bit-per-entry array (saved phases, analysis marks).
#[derive(Debug, Default)]
struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    fn new(n: usize, value: bool) -> Self {
        BitVec {
            words: vec![if value { !0 } else { 0 }; n.div_ceil(64)],
            len: n,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] >> (i & 63) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        if value {
            self.words[i >> 6] |= mask;
        } else {
            self.words[i >> 6] &= !mask;
        }
    }

    fn fill(&mut self, value: bool) {
        let w = if value { !0 } else { 0 };
        self.words.iter_mut().for_each(|x| *x = w);
    }

    fn push(&mut self, value: bool) {
        if self.len & 63 == 0 {
            self.words.push(0);
        }
        self.len += 1;
        let i = self.len - 1;
        self.set(i, value);
    }
}

/// Feature toggles and diversification knobs for the search engine.
///
/// The boolean toggles exist for ablation studies (all default to
/// enabled). The `seed` / `random_tiebreak` / `default_phase` /
/// `restart_base` knobs diversify engines for portfolio solving
/// ([`crate::portfolio`]): each portfolio worker runs the same constraint
/// database under a different configuration, racing to the first answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineFeatures {
    /// VSIDS activity-driven decision ordering (off = static order).
    pub vsids: bool,
    /// Phase saving (off = always decide negative first).
    pub phase_saving: bool,
    /// Conflict-clause minimisation.
    pub minimization: bool,
    /// Luby restarts.
    pub restarts: bool,
    /// Seed for the engine's internal tie-breaking RNG.
    pub seed: u64,
    /// Occasionally (about 1 decision in 64) branch on a random variable
    /// instead of the activity-ordered one. Off by default: the baseline
    /// single-threaded engine stays fully deterministic.
    pub random_tiebreak: bool,
    /// Initial decision polarity before any phase has been saved.
    pub default_phase: bool,
    /// Base conflict interval of the Luby restart schedule (the classic
    /// MiniSat value 256 by default; portfolio workers vary it).
    pub restart_base: u64,
    /// Initial learnt-clause cap: database reduction triggers when the
    /// number of live learnt clauses exceeds it (the cap then grows
    /// geometrically). Historically hardcoded to 20 000.
    pub learnt_cap: usize,
    /// Learnt clauses with LBD at or below this are *glue* (core tier):
    /// they are never deleted by database reduction.
    pub glue_lbd: u32,
    /// Upper LBD bound of the *mid* tier; clauses above it are *local*.
    /// The tier only affects reduction bookkeeping and deletion order —
    /// local clauses are deleted before mid ones of the same age and
    /// activity, but any non-glue clause unused for `MAX_CLAUSE_AGE`
    /// reductions is evicted.
    pub mid_lbd: u32,
    /// Maximum LBD for a learnt clause to be exported to the portfolio
    /// clause exchange (units are always exported).
    pub share_lbd: u32,
    /// Maximum length for an exported learnt clause.
    pub share_len: usize,
    /// Inprocessing between restarts: root-level clause simplification,
    /// learnt-clause vivification and bounded subsumption /
    /// self-subsuming resolution. Off reproduces the pre-inprocessing
    /// engine search bit for bit.
    pub inprocessing: bool,
    /// Conflicts between two inprocessing passes.
    pub inprocess_interval: u64,
    /// Propagation budget of one vivification pass (0 disables
    /// vivification while keeping the other inprocessing steps).
    pub vivify_budget: u64,
}

impl Default for EngineFeatures {
    fn default() -> Self {
        EngineFeatures {
            vsids: true,
            phase_saving: true,
            minimization: true,
            restarts: true,
            seed: 0,
            random_tiebreak: false,
            default_phase: false,
            restart_base: 256,
            learnt_cap: 20_000,
            glue_lbd: 2,
            mid_lbd: 6,
            share_lbd: 2,
            share_len: 8,
            inprocessing: true,
            inprocess_interval: 4096,
            vivify_budget: 100_000,
        }
    }
}

/// Search budget for one `solve` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum number of conflicts.
    pub conflict_limit: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }
}

/// Result of one engine search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (query it with
    /// [`Engine::model_value`]).
    Sat,
    /// The constraint set is unsatisfiable.
    Unsat,
    /// The budget was exhausted first.
    Unknown,
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of clauses learnt from conflicts (including units).
    pub learnt_clauses: u64,
    /// Sum of learnt-clause LBD values (mean = `lbd_total / learnt_clauses`).
    pub lbd_total: u64,
    /// Mid-tier clauses (`glue_lbd < lbd <= mid_lbd`) deleted by reduction.
    pub deleted_mid: u64,
    /// Local-tier clauses (`lbd > mid_lbd`) deleted by reduction.
    pub deleted_local: u64,
    /// Core-tier (glue) clauses alive at the most recent reduction.
    pub kept_core: u64,
    /// Mid-tier clauses surviving the most recent reduction.
    pub kept_mid: u64,
    /// Local-tier clauses surviving the most recent reduction.
    pub kept_local: u64,
    /// Clauses imported from the portfolio clause exchange.
    pub imported_clauses: u64,
    /// Clauses exported to the portfolio clause exchange.
    pub exported_clauses: u64,
    /// Inprocessing passes run between restarts.
    pub inprocessings: u64,
    /// Literals removed from learnt clauses by vivification.
    pub vivified_lits: u64,
    /// Learnt clauses deleted because another learnt clause subsumes them.
    pub subsumed_clauses: u64,
    /// Literals removed by self-subsuming resolution (strengthening).
    pub strengthened_lits: u64,
    /// Arena compactions performed.
    pub gc_runs: u64,
}

impl std::ops::AddAssign for EngineStats {
    /// Sums every counter (the per-tier `kept_*` snapshots included), as
    /// the statistics of several engines are reported together.
    fn add_assign(&mut self, o: EngineStats) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.deleted_clauses += o.deleted_clauses;
        self.learnt_clauses += o.learnt_clauses;
        self.lbd_total += o.lbd_total;
        self.deleted_mid += o.deleted_mid;
        self.deleted_local += o.deleted_local;
        self.kept_core += o.kept_core;
        self.kept_mid += o.kept_mid;
        self.kept_local += o.kept_local;
        self.imported_clauses += o.imported_clauses;
        self.exported_clauses += o.exported_clauses;
        self.inprocessings += o.inprocessings;
        self.vivified_lits += o.vivified_lits;
        self.subsumed_clauses += o.subsumed_clauses;
        self.strengthened_lits += o.strengthened_lits;
        self.gc_runs += o.gc_runs;
    }
}

impl EngineStats {
    /// Mean LBD over every clause learnt so far (0 when none were).
    pub fn mean_lbd(&self) -> f64 {
        if self.learnt_clauses == 0 {
            0.0
        } else {
            self.lbd_total as f64 / self.learnt_clauses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    None,
    Clause(CRef),
    Linear(u32),
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: CRef,
    blocker: Lit,
}

/// A pseudo-Boolean at-most row: `sum of terms[i].0 over true terms[i].1
/// <= bound`. See the module docs for how the coefficient index and the
/// true-term list keep propagation and explanation proportional to the
/// work they do.
#[derive(Debug)]
struct Linear {
    terms: Vec<(u64, Lit)>,
    bound: u64,
    sum_true: u64,
    max_coeff: u64,
    min_coeff: u64,
    /// Start of this row's slots in [`Engine::lin_slots`]: one slot per
    /// term for the list of currently-true term indices, in trail order
    /// (ties, from a repeated literal, in term order); then, when the
    /// coefficients differ, the term indices by descending coefficient,
    /// ties in term order.
    slots: usize,
    /// Length of the true-term list.
    n_true: usize,
}

impl Linear {
    /// The currently-true term indices, in trail order.
    fn trues<'a>(&self, lin_slots: &'a [u32]) -> &'a [u32] {
        &lin_slots[self.slots..self.slots + self.n_true]
    }

    /// The term indices by descending coefficient (empty when every
    /// coefficient is equal).
    fn by_coeff<'a>(&self, lin_slots: &'a [u32]) -> &'a [u32] {
        let n = self.terms.len();
        let len = if self.min_coeff == self.max_coeff {
            0
        } else {
            n
        };
        &lin_slots[self.slots + n..self.slots + n + len]
    }
}

#[derive(Debug, Clone, Copy)]
enum Conflict {
    Clause(CRef),
    Linear(u32),
}

/// Indexed max-heap over variable activities.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    pos: Vec<i32>,
    activity: Vec<f64>,
}

impl VarOrder {
    fn grow_to(&mut self, n: usize) {
        while self.activity.len() < n {
            let v = self.activity.len() as u32;
            self.activity.push(0.0);
            self.pos.push(-1);
            self.insert(v);
        }
    }

    fn in_heap(&self, v: u32) -> bool {
        self.pos[v as usize] >= 0
    }

    fn insert(&mut self, v: u32) {
        if self.in_heap(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop_max(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn peek_at(&self, i: usize) -> u32 {
        self.heap[i]
    }

    /// Removes the element at heap position `i` (used by randomised
    /// decision tie-breaking, which picks a heap slot uniformly).
    fn remove_at(&mut self, i: usize) -> u32 {
        let v = self.heap[i];
        let last = self.heap.pop().expect("non-empty");
        self.pos[v as usize] = -1;
        if i < self.heap.len() {
            self.heap[i] = last;
            self.pos[last as usize] = i as i32;
            // The displaced element may need to move either direction.
            self.sift_up(i);
            let p = self.pos[last as usize] as usize;
            self.sift_down(p);
        }
        v
    }

    fn bump(&mut self, v: u32, inc: f64) -> bool {
        self.activity[v as usize] += inc;
        let rescale = self.activity[v as usize] > 1e100;
        if self.in_heap(v) {
            let p = self.pos[v as usize] as usize;
            self.sift_up(p);
        }
        rescale
    }

    fn rescale(&mut self) {
        for a in &mut self.activity {
            *a *= 1e-100;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] <= self.activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as i32;
        self.pos[self.heap[j] as usize] = j as i32;
    }
}

/// The CDCL + pseudo-Boolean search engine.
///
/// Construct with [`Engine::new`], add constraints (only at decision level
/// zero, i.e. before or between `solve` calls), then call
/// [`Engine::solve`].
#[derive(Debug)]
pub struct Engine {
    num_vars: usize,
    assign: PackedVals,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail_pos: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    arena: ClauseArena,
    watches: Vec<Vec<Watch>>,
    linears: Vec<Linear>,
    /// Every row's true-term list and coefficient index, in one buffer
    /// (see [`Linear::slots`]).
    lin_slots: Vec<u32>,
    lin_occ: Vec<Vec<(u32, u32)>>,
    order: VarOrder,
    phase: BitVec,
    var_inc: f64,
    var_decay: f64,
    cla_inc: f64,
    ok: bool,
    n_learnt: usize,
    learnt_cap: usize,
    stats: EngineStats,
    seen: BitVec,
    features: EngineFeatures,
    rng_state: u64,
    interrupt: Option<Arc<AtomicBool>>,
    exchange: Option<Arc<ClauseExchange>>,
    exchange_cursor: usize,
    /// When false the engine still exports learnt clauses to the
    /// exchange but never imports foreign ones — the pinned racing
    /// worker keeps the one-engine search this way.
    exchange_import: bool,
    /// Shared best-objective cell watched at every budget poll: when the
    /// global incumbent implies a tighter bound than `watched_bound`, the
    /// search yields `Unknown` so the caller can post that bound and
    /// re-enter.
    bound_watch: Option<Arc<AtomicI64>>,
    /// The objective bound the current search enforces (`i64::MAX`
    /// before the first one); `None` while the watch sleeps.
    watched_bound: Option<i64>,
    worker_id: usize,
    /// Clauses mentioning a variable at or above this index are never
    /// exported (activation variables are engine-local).
    share_var_limit: usize,
    /// Assumption literals for the current `solve_under_assumptions` call.
    assumptions: Vec<Lit>,
    /// Subset of the assumptions responsible for the last assumption
    /// failure (empty when the database itself is unsatisfiable).
    last_core: Vec<Lit>,
    /// Level-stamp scratch for LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    /// Scratch: term indices a linear scan forces, then those a linear
    /// explanation sorts.
    term_buf: Vec<u32>,
    /// Scratch: the antecedent literals of one explanation.
    ante_buf: Vec<Lit>,
    /// Scratch: the clause conflict analysis learns.
    learnt_buf: Vec<Lit>,
    /// When present, every clause added to or deleted from the database
    /// beyond the input constraints is recorded here (certification).
    proof: Option<ProofLog>,
    /// Soft cap on learnt-DB + proof bytes; exceeding it triggers an
    /// emergency reduction and, failing that, a clean `Unknown` exit.
    mem_limit: Option<usize>,
    /// Approximate bytes held by learnt clauses.
    learnt_bytes: usize,
    /// The clause being vivified: the propagator skips it so the clause
    /// never serves as its own entailment witness (without removing its
    /// watches, which stay valid).
    viv_guard: CRef,
    /// Conflict count at which the next inprocessing pass fires.
    next_inprocess: u64,
    /// Root-trail length after the last root simplification pass.
    simplified_trail: usize,
}

impl Engine {
    /// Creates an engine over `num_vars` binary variables.
    pub fn new(num_vars: usize) -> Self {
        let mut order = VarOrder::default();
        order.grow_to(num_vars);
        Engine {
            num_vars,
            assign: PackedVals::new(num_vars),
            level: vec![0; num_vars],
            reason: vec![Reason::None; num_vars],
            trail_pos: vec![0; num_vars],
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            arena: ClauseArena::default(),
            watches: vec![Vec::new(); num_vars * 2],
            linears: Vec::new(),
            lin_slots: Vec::new(),
            lin_occ: vec![Vec::new(); num_vars * 2],
            order,
            phase: BitVec::new(num_vars, false),
            var_inc: 1.0,
            var_decay: 0.95,
            cla_inc: 1.0,
            ok: true,
            n_learnt: 0,
            learnt_cap: 20_000,
            stats: EngineStats::default(),
            seen: BitVec::new(num_vars, false),
            features: EngineFeatures::default(),
            rng_state: 0x9e37_79b9_7f4a_7c15,
            interrupt: None,
            exchange: None,
            exchange_cursor: 0,
            exchange_import: true,
            bound_watch: None,
            watched_bound: None,
            worker_id: 0,
            share_var_limit: usize::MAX,
            assumptions: Vec::new(),
            last_core: Vec::new(),
            lbd_stamp: vec![0; num_vars + 1],
            lbd_counter: 0,
            term_buf: Vec::new(),
            ante_buf: Vec::new(),
            learnt_buf: Vec::new(),
            proof: None,
            mem_limit: None,
            learnt_bytes: 0,
            viv_guard: CREF_NONE,
            next_inprocess: 0,
            simplified_trail: 0,
        }
    }

    /// Adds a fresh variable and returns it. Used by the incremental
    /// optimisation loop to mint activation literals for reified
    /// objective-bound constraints; such variables live beyond the
    /// original model's index space.
    pub fn add_var(&mut self) -> Var {
        let v = self.num_vars as u32;
        self.num_vars += 1;
        self.assign.push_unassigned();
        self.level.push(0);
        self.reason.push(Reason::None);
        self.trail_pos.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.lin_occ.push(Vec::new());
        self.lin_occ.push(Vec::new());
        self.phase.push(self.features.default_phase);
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.order.grow_to(self.num_vars);
        Var(v)
    }

    /// Configures the engine's feature toggles and diversification knobs.
    ///
    /// Intended to be called before the first `solve`; it resets every
    /// saved phase to the configured default polarity.
    pub fn set_features(&mut self, features: EngineFeatures) {
        self.features = features;
        self.rng_state = features.seed ^ 0x9e37_79b9_7f4a_7c15;
        if self.rng_state == 0 {
            self.rng_state = 1;
        }
        self.learnt_cap = features.learnt_cap.max(16);
        self.phase.fill(features.default_phase);
    }

    /// Installs a cooperative-cancellation flag: when another thread sets
    /// it, the next budget poll returns [`SatResult::Unknown`].
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Connects this engine to a portfolio clause exchange as worker
    /// `worker_id`. Learnt units and low-LBD clauses over variables below
    /// `share_var_limit` are published; foreign clauses are imported at
    /// solve start and at restart boundaries. `share_var_limit` keeps
    /// engine-local activation variables (see [`Engine::add_var`]) out
    /// of the pool, so a clause learnt under a reified objective bound
    /// leaves the engine only when it is implied by the model alone.
    pub fn set_exchange(
        &mut self,
        exchange: Arc<ClauseExchange>,
        worker_id: usize,
        share_var_limit: usize,
    ) {
        self.exchange_cursor = exchange.len();
        self.exchange = Some(exchange);
        self.worker_id = worker_id;
        self.share_var_limit = share_var_limit;
    }

    /// Records the objective bound the next searches enforce, for the
    /// bound watch: `Some(i64::MAX)` before any bound exists, `None` to
    /// let the watch sleep (a search that enforces no bound at all).
    pub fn set_watched_bound(&mut self, bound: Option<i64>) {
        self.watched_bound = bound;
    }

    /// Watches a shared best-objective cell (`i64::MAX` = no incumbent
    /// yet). At every amortised budget poll the engine compares the cell
    /// against its watched bound; if the global incumbent implies a
    /// strictly tighter bound than the one this engine already enforces,
    /// the search returns [`SatResult::Unknown`] so the owner can post
    /// the tighter bound and re-enter mid-solve.
    pub fn set_bound_watch(&mut self, cell: Arc<AtomicI64>) {
        self.bound_watch = Some(cell);
    }

    /// Enables or disables importing foreign clauses from the exchange.
    /// Publishing is unaffected. A race pins worker 0 to the
    /// undiversified one-engine configuration; disabling imports keeps
    /// its search trace that of `threads = 1` until a foreign incumbent
    /// reaches it.
    pub fn set_exchange_import(&mut self, import: bool) {
        self.exchange_import = import;
    }

    /// True when the watched global incumbent implies a strictly tighter
    /// objective bound than this engine currently enforces.
    fn bound_watch_fired(&self) -> bool {
        match (&self.bound_watch, self.watched_bound) {
            (Some(cell), Some(bound)) => {
                let g = cell.load(Ordering::Relaxed);
                g != i64::MAX && g.saturating_sub(1) < bound
            }
            _ => false,
        }
    }

    /// Installs a proof log: from now on every learnt, imported or
    /// deleted clause is recorded so an `Unsat` verdict can be replayed
    /// by the independent checker. Install *after* the input constraints
    /// have been added — the checker derives those from the model itself.
    pub fn set_proof(&mut self, proof: ProofLog) {
        self.proof = Some(proof);
    }

    /// Removes and returns the proof log, if one was installed.
    pub fn take_proof(&mut self) -> Option<ProofLog> {
        self.proof.take()
    }

    /// Caps the approximate bytes held by the learnt database plus the
    /// proof log. When the cap is exceeded the engine first attempts an
    /// emergency database reduction and otherwise returns
    /// [`SatResult::Unknown`] instead of growing without bound.
    pub fn set_mem_limit(&mut self, bytes: usize) {
        self.mem_limit = Some(bytes);
    }

    /// Whether the memory cap is currently exceeded.
    fn over_mem_limit(&self) -> bool {
        let Some(limit) = self.mem_limit else {
            return false;
        };
        let proof_bytes = self.proof.as_ref().map_or(0, |p| p.bytes());
        self.learnt_bytes + proof_bytes > limit
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: plenty for decision tie-breaking.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Search statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Whether the constraint database is already known unsatisfiable.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Applies a branching hint: initial activity and preferred polarity.
    pub fn set_branch_hint(&mut self, var: Var, priority: f64, phase: bool) {
        self.phase.set(var.index(), phase);
        self.order.bump(var.0, priority);
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> i8 {
        let c = self.assign.get(l.var().index());
        if c == 2 {
            UNASSIGNED
        } else {
            (c ^ (l.code() as u8 & 1)) as i8
        }
    }

    #[inline]
    fn is_true(&self, l: Lit) -> bool {
        self.value_lit(l) == 1
    }

    #[inline]
    fn is_false(&self, l: Lit) -> bool {
        self.value_lit(l) == 0
    }

    #[inline]
    fn is_unassigned(&self, l: Lit) -> bool {
        self.value_lit(l) == UNASSIGNED
    }

    /// The value of `var` in the most recent satisfying assignment.
    ///
    /// Only meaningful immediately after [`Engine::solve`] returned
    /// [`SatResult::Sat`] (the full trail is the model then).
    pub fn model_value(&self, var: Var) -> bool {
        self.assign.get(var.index()) == 1
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a normalised constraint at decision level 0.
    ///
    /// Returns `false` if the database became unsatisfiable.
    pub fn add_norm(&mut self, nc: NormConstraint) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        match nc {
            NormConstraint::False => {
                self.ok = false;
            }
            NormConstraint::Unit(l) => {
                if self.is_false(l) {
                    self.ok = false;
                } else if self.is_unassigned(l) {
                    self.enqueue(l, Reason::None);
                }
            }
            NormConstraint::Clause(mut lits) => {
                // Deduplicate; drop if tautological or already satisfied;
                // remove false literals (all at level 0 here).
                lits.sort_by_key(|l| l.code());
                lits.dedup();
                if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
                    return self.ok; // contains l and !l: tautology
                }
                if lits.iter().any(|&l| self.is_true(l)) {
                    return self.ok;
                }
                lits.retain(|&l| !self.is_false(l));
                match lits.len() {
                    0 => self.ok = false,
                    1 => {
                        self.enqueue(lits[0], Reason::None);
                    }
                    _ => {
                        self.attach_clause(&lits, false, 0);
                    }
                }
            }
            NormConstraint::AtMost { terms, bound } => {
                let max_coeff = terms.iter().map(|&(a, _)| a).max().unwrap_or(0);
                let min_coeff = terms.iter().map(|&(a, _)| a).min().unwrap_or(0);
                let all = 0..terms.len() as u32;
                // Root-true terms enter the list in trail order, as if
                // each had been enqueued after the row existed.
                let mut trues: Vec<u32> = all
                    .clone()
                    .filter(|&t| self.is_true(terms[t as usize].1))
                    .collect();
                trues.sort_by_key(|&t| self.trail_pos[terms[t as usize].1.var().index()]);
                let sum_true = trues.iter().map(|&t| terms[t as usize].0).sum();
                let slots = self.lin_slots.len();
                let n_true = trues.len();
                self.lin_slots.extend(&trues);
                self.lin_slots.resize(slots + terms.len(), 0);
                if min_coeff != max_coeff {
                    self.lin_slots.extend(all);
                    self.lin_slots[slots + terms.len()..]
                        .sort_by_key(|&t| std::cmp::Reverse(terms[t as usize].0));
                }
                let idx = self.linears.len() as u32;
                for (ti, &(_, l)) in terms.iter().enumerate() {
                    self.lin_occ[l.code()].push((idx, ti as u32));
                }
                self.linears.push(Linear {
                    terms,
                    bound,
                    sum_true,
                    max_coeff,
                    min_coeff,
                    slots,
                    n_true,
                });
                if sum_true > bound {
                    self.ok = false;
                } else {
                    // Propagate any literal already forced at level 0.
                    if let Some(confl) = self.propagate_linear_scan(idx) {
                        let _ = confl;
                        self.ok = false;
                    }
                }
            }
        }
        if self.ok {
            // Settle root-level propagation.
            if self.propagate().is_some() {
                self.ok = false;
            }
        }
        self.ok
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2);
        let r = self.arena.alloc(lits, learnt, lbd);
        if learnt {
            self.n_learnt += 1;
            self.learnt_bytes += clause_bytes(lits.len());
        }
        self.watches[(!lits[0]).code()].push(Watch {
            cref: r,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watch {
            cref: r,
            blocker: lits[0],
        });
        r
    }

    /// Marks a clause deleted, releasing its accounting and (for learnt
    /// clauses) recording the deletion in the proof. Its watches are
    /// removed lazily by the propagator and dropped at the next GC; its
    /// literals stay readable until then.
    fn delete_clause(&mut self, r: CRef) {
        debug_assert!(!self.arena.is_deleted(r));
        if self.arena.is_learnt(r) {
            if self.proof.is_some() {
                let lits = self.arena.collect_lits(r);
                if let Some(p) = self.proof.as_mut() {
                    p.delete(&lits);
                }
            }
            self.n_learnt -= 1;
            self.learnt_bytes = self
                .learnt_bytes
                .saturating_sub(clause_bytes(self.arena.len(r)));
        }
        self.arena.mark_deleted(r);
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert!(self.is_unassigned(l));
        // Linear counters and true-term lists update eagerly so that
        // backtracking (which undoes every popped literal) stays symmetric
        // even when a conflict interrupts propagation before this literal
        // is processed.
        for &(lin, term) in &self.lin_occ[l.code()] {
            let row = &mut self.linears[lin as usize];
            row.sum_true += row.terms[term as usize].0;
            self.lin_slots[row.slots + row.n_true] = term;
            row.n_true += 1;
        }
        let v = l.var().index();
        self.assign.set(v, (l.code() as u8 & 1) ^ 1);
        self.level[v] = self.decision_level();
        self.reason[v] = if self.decision_level() == 0 {
            // Level-0 assignments never participate in conflict analysis,
            // so dropping the reason keeps learnt-DB reduction safe.
            Reason::None
        } else {
            reason
        };
        self.trail_pos[v] = self.trail.len() as u32;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Propagates until fixpoint; returns a conflict if one arises.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;

            // Clause propagation: clauses watching !p (p became true, so
            // the watched literal !p became false).
            let mut i = 0;
            let mut watches = std::mem::take(&mut self.watches[p.code()]);
            let mut keep = watches.len();
            let mut conflict = None;
            'watches: while i < keep {
                let w = watches[i];
                if self.is_true(w.blocker) {
                    i += 1;
                    continue;
                }
                let r = w.cref;
                // The clause under vivification must not witness its own
                // entailment; skip it, keeping the watch.
                if r == self.viv_guard {
                    i += 1;
                    continue;
                }
                // Deleted clauses may linger in watch lists until GC.
                if self.arena.is_deleted(r) {
                    watches.swap(i, keep - 1);
                    keep -= 1;
                    continue;
                }
                let false_lit = !p;
                if self.arena.lit(r, 0) == false_lit {
                    self.arena.swap_lits(r, 0, 1);
                }
                let first = self.arena.lit(r, 0);
                if first != w.blocker && self.is_true(first) {
                    watches[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena.len(r);
                for k in 2..len {
                    let cand = self.arena.lit(r, k);
                    if !self.is_false(cand) {
                        self.arena.swap_lits(r, 1, k);
                        self.watches[(!cand).code()].push(Watch {
                            cref: r,
                            blocker: first,
                        });
                        watches.swap(i, keep - 1);
                        keep -= 1;
                        continue 'watches;
                    }
                }
                // No new watch: unit or conflict on lits[0].
                if self.is_false(first) {
                    conflict = Some(Conflict::Clause(r));
                    break;
                }
                self.enqueue(first, Reason::Clause(r));
                i += 1;
            }
            watches.truncate(keep);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = watches;
            if conflict.is_some() {
                return conflict;
            }

            // Linear propagation: counters were updated at enqueue time;
            // here we only check for conflicts and force literals.
            let occs = std::mem::take(&mut self.lin_occ[p.code()]);
            let mut conflict = None;
            for &(lin, _term) in &occs {
                let l = &self.linears[lin as usize];
                if l.sum_true > l.bound {
                    conflict = Some(Conflict::Linear(lin));
                    break;
                }
                let slack = l.bound - l.sum_true;
                if l.max_coeff > slack {
                    if let Some(c) = self.propagate_linear_scan(lin) {
                        conflict = Some(c);
                        break;
                    }
                }
            }
            self.lin_occ[p.code()] = occs;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Forces to false every unassigned literal whose coefficient exceeds
    /// the constraint's remaining slack, in term order. Only the terms
    /// that can be forced are visited: the prefix of the coefficient
    /// index above the slack, or the whole row once the slack is below
    /// every coefficient.
    fn propagate_linear_scan(&mut self, lin: u32) -> Option<Conflict> {
        let row = &self.linears[lin as usize];
        if row.sum_true > row.bound {
            return Some(Conflict::Linear(lin));
        }
        let slack = row.bound - row.sum_true;
        let mut forced = std::mem::take(&mut self.term_buf);
        forced.clear();
        let unassigned = |t: &u32| self.is_unassigned(row.terms[*t as usize].1);
        if row.min_coeff > slack {
            forced.extend((0..row.terms.len() as u32).filter(unassigned));
        } else {
            let above = |t: &u32| row.terms[*t as usize].0 > slack;
            forced.extend(
                row.by_coeff(&self.lin_slots)
                    .iter()
                    .copied()
                    .take_while(above)
                    .filter(unassigned),
            );
            forced.sort_unstable();
        }
        let mut conflict = None;
        for &t in &forced {
            let f = !self.linears[lin as usize].terms[t as usize].1;
            if self.is_false(f) {
                conflict = Some(Conflict::Linear(lin));
                break;
            }
            if self.is_unassigned(f) {
                self.enqueue(f, Reason::Linear(lin));
            }
        }
        self.term_buf = forced;
        conflict
    }

    /// Writes into `out` the antecedent literals (all currently false)
    /// that imply `implied` under the given reason; `implied = None`
    /// explains a conflict. `terms` is scratch for linear explanations.
    fn explain(
        &self,
        conflict: Conflict,
        implied: Option<Lit>,
        out: &mut Vec<Lit>,
        terms: &mut Vec<u32>,
    ) {
        out.clear();
        match conflict {
            Conflict::Clause(c) => out.extend(
                (0..self.arena.len(c))
                    .map(|i| self.arena.lit(c, i))
                    .filter(|&l| Some(l) != implied),
            ),
            Conflict::Linear(lin) => {
                let row = &self.linears[lin as usize];
                // Needed weight: enough true literals to exceed the bound
                // (conflict) or the bound minus the implied literal's
                // coefficient (propagation).
                let mut needed: u128 = u128::from(row.bound) + 1;
                // The true list is in trail order, so the terms assigned
                // before the implied literal are a prefix of it.
                let trues = row.trues(&self.lin_slots);
                let mut before = trues.len();
                if let Some(il) = implied {
                    let a = self.lin_occ[(!il).code()]
                        .iter()
                        .find(|&&(l, _)| l == lin)
                        .map(|&(_, t)| row.terms[t as usize].0)
                        .expect("implied literal negates a term of the constraint");
                    needed = needed.saturating_sub(u128::from(a));
                    let p = self.trail_pos[il.var().index()];
                    before = trues.partition_point(|&t| {
                        self.trail_pos[row.terms[t as usize].1.var().index()] < p
                    });
                }
                // Prefer large coefficients for a short explanation; ties
                // in term order.
                terms.clear();
                terms.extend_from_slice(&trues[..before]);
                terms.sort_unstable_by_key(|&t| (std::cmp::Reverse(row.terms[t as usize].0), t));
                let mut acc: u128 = 0;
                for &t in terms.iter() {
                    if acc >= needed {
                        break;
                    }
                    let (a, lit) = row.terms[t as usize];
                    acc += u128::from(a);
                    out.push(!lit);
                }
                debug_assert!(acc >= needed, "explanation must justify propagation");
            }
        }
    }

    fn reason_conflict(&self, v: usize) -> Option<Conflict> {
        match self.reason[v] {
            Reason::None => None,
            Reason::Clause(c) => Some(Conflict::Clause(c)),
            Reason::Linear(l) => Some(Conflict::Linear(l)),
        }
    }

    /// First-UIP conflict analysis. Writes the learnt clause (asserting
    /// literal first) into `learnt` and returns the backjump level.
    fn analyze(&mut self, conflict: Conflict, learnt: &mut Vec<Lit>) -> u32 {
        let mut antecedent = std::mem::take(&mut self.ante_buf);
        let mut terms = std::mem::take(&mut self.term_buf);
        learnt.clear();
        learnt.push(Lit(0)); // slot for asserting literal
        let mut path = 0usize;
        let mut idx = self.trail.len();
        self.explain(conflict, None, &mut antecedent, &mut terms);
        if let Conflict::Clause(c) = conflict {
            self.bump_clause(c);
        }
        let current = self.decision_level();
        let mut rescale = false;
        loop {
            for &q in &antecedent {
                let v = q.var().index();
                if !self.seen.get(v) && self.level[v] > 0 {
                    self.seen.set(v, true);
                    if self.features.vsids {
                        rescale |= self.order.bump(q.var().0, self.var_inc);
                    }
                    if self.level[v] == current {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                idx -= 1;
                if self.seen.get(self.trail[idx].var().index()) {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen.set(p.var().index(), false);
            path -= 1;
            if path == 0 {
                learnt[0] = !p;
                break;
            }
            let r = self
                .reason_conflict(p.var().index())
                .expect("non-decision literal has a reason");
            if let Conflict::Clause(c) = r {
                self.bump_clause(c);
            }
            self.explain(r, Some(p), &mut antecedent, &mut terms);
        }
        if self.features.minimization {
            // Conflict-clause minimisation: a literal is redundant if its
            // reason's antecedents are all already in the clause (or at
            // level 0). One non-recursive pass catches most redundancies;
            // kept literals are compacted in place, in order.
            for &l in &learnt[1..] {
                self.seen.set(l.var().index(), true);
            }
            let mut kept = 1;
            for i in 1..learnt.len() {
                let l = learnt[i];
                let keep = match self.reason_conflict(l.var().index()) {
                    None => true,
                    Some(r) => {
                        self.explain(r, Some(!l), &mut antecedent, &mut terms);
                        !antecedent.iter().all(|a| {
                            self.seen.get(a.var().index()) || self.level[a.var().index()] == 0
                        })
                    }
                };
                if keep {
                    learnt[kept] = l;
                    kept += 1;
                } else {
                    self.seen.set(l.var().index(), false);
                }
            }
            learnt.truncate(kept);
        }
        for &l in &learnt[1..] {
            self.seen.set(l.var().index(), false);
        }
        self.ante_buf = antecedent;
        self.term_buf = terms;
        self.finish_analysis(learnt, rescale)
    }

    fn finish_analysis(&mut self, learnt: &mut [Lit], rescale: bool) -> u32 {
        if rescale {
            self.order.rescale();
            self.var_inc *= 1e-100;
        }
        self.var_inc /= self.var_decay;

        // Backjump level: highest level among learnt[1..].
        let mut bt = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level[learnt[1].var().index()];
        }
        bt
    }

    fn bump_clause(&mut self, c: CRef) {
        if !self.arena.is_learnt(c) {
            return;
        }
        let a = self.arena.activity(c) + self.cla_inc;
        self.arena.set_activity(c, a);
        // A bumped clause proved useful: reset its idle-reduction count.
        self.arena.set_age(c, 0);
        if a > 1e20 {
            self.arena.rescale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
        self.cla_inc /= 0.999;
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let p = self.trail[i];
            let v = p.var().index();
            if self.features.phase_saving {
                let ph = self.assign.get(v) == 1;
                self.phase.set(v, ph);
            }
            self.assign.set(v, 2);
            self.reason[v] = Reason::None;
            self.order.insert(p.var().0);
            // Exact reverse of `enqueue`: `p` is the newest true literal,
            // so its terms are the tails of their rows' true lists.
            for &(lin, term) in self.lin_occ[p.code()].iter().rev() {
                let row = &mut self.linears[lin as usize];
                row.sum_true -= row.terms[term as usize].0;
                row.n_true -= 1;
                debug_assert_eq!(
                    self.lin_slots[row.slots + row.n_true],
                    term,
                    "true list out of trail order"
                );
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        if self.features.random_tiebreak && self.next_rand().is_multiple_of(64) {
            // Diversification: probe a few random heap slots for an
            // unassigned variable and branch on it instead of the
            // activity maximum.
            for _ in 0..4 {
                if self.order.len() == 0 {
                    break;
                }
                let i = (self.next_rand() % self.order.len() as u64) as usize;
                let v = self.order.peek_at(i);
                if self.assign.get(v as usize) == 2 {
                    self.order.remove_at(i);
                    self.make_decision(v);
                    return true;
                }
            }
        }
        while let Some(v) = self.order.pop_max() {
            if self.assign.get(v as usize) == 2 {
                self.make_decision(v);
                return true;
            }
        }
        false
    }

    fn make_decision(&mut self, v: u32) {
        self.trail_lim.push(self.trail.len());
        let var = Var(v);
        let lit = if self.phase.get(v as usize) {
            Lit::positive(var)
        } else {
            Lit::negative(var)
        };
        self.enqueue(lit, Reason::None);
        self.stats.decisions += 1;
    }

    /// Literal-block distance: the number of distinct decision levels
    /// among the clause's literals. Computed with a stamp array so the
    /// cost is one pass, no allocation.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0u32;
        for &l in lits {
            let lev = self.level[l.var().index()] as usize;
            if self.lbd_stamp[lev] != stamp {
                self.lbd_stamp[lev] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// LBD-tiered database reduction with age-based demotion. Glue
    /// clauses (`lbd <= glue_lbd`, the core tier) are never deleted; the
    /// remaining learnt clauses are ranked by age-penalised LBD (higher
    /// first) then activity (lower first) and the worst half is dropped.
    /// Independently of the ranking, any candidate that has survived
    /// [`MAX_CLAUSE_AGE`] reductions without being bumped is evicted —
    /// this is what ages out mid-tier clauses that stopped being useful.
    /// Ends with a compacting GC that rebuilds the arena in watch order.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let glue = self.features.glue_lbd;
        let mid = self.features.mid_lbd.max(glue);
        let mut kept_core = 0u64;
        let mut candidates: Vec<(u32, CRef)> = Vec::new();
        for r in self.arena.crefs() {
            if !self.arena.is_learnt(r) || self.arena.is_deleted(r) {
                continue;
            }
            let lbd = self.arena.lbd(r);
            if lbd <= glue {
                kept_core += 1;
            } else {
                candidates.push((lbd, r));
            }
        }
        if candidates.len() < 2 {
            self.rebuild_watches();
            self.garbage_collect();
            return;
        }
        // Rank by LBD (worst first), then activity (coldest first); the
        // sort is stable, so ties keep arena (creation) order.
        candidates.sort_by(|&(ka, a), &(kb, b)| {
            kb.cmp(&ka).then(
                self.arena
                    .activity(a)
                    .partial_cmp(&self.arena.activity(b))
                    .expect("activities are finite"),
            )
        });
        let doomed = candidates.len() / 2;
        let mut deleted = 0u64;
        let (mut deleted_mid, mut deleted_local) = (0u64, 0u64);
        let (mut kept_mid, mut kept_local) = (0u64, 0u64);
        for (rank, &(_, r)) in candidates.iter().enumerate() {
            let lbd = self.arena.lbd(r);
            // Rank-based deletion handles the local tier (high LBD sorts
            // first); the age cutoff is what retires mid-tier clauses,
            // which outrank every local and would otherwise live forever.
            let aged_out = lbd <= mid && self.arena.age(r) >= MAX_CLAUSE_AGE;
            if rank < doomed || aged_out {
                if lbd <= mid {
                    deleted_mid += 1;
                } else {
                    deleted_local += 1;
                }
                self.delete_clause(r);
                deleted += 1;
            } else {
                if lbd <= mid {
                    kept_mid += 1;
                } else {
                    kept_local += 1;
                }
                let age = self.arena.age(r);
                self.arena.set_age(r, age + 1);
            }
        }
        self.stats.deleted_clauses += deleted;
        self.stats.deleted_mid += deleted_mid;
        self.stats.deleted_local += deleted_local;
        self.stats.kept_core = kept_core;
        self.stats.kept_mid = kept_mid;
        self.stats.kept_local = kept_local;
        // Re-canonicalise watch lists (creation order) before compacting:
        // the GC then lays clauses out in exactly the order propagation
        // scans them.
        self.rebuild_watches();
        self.garbage_collect();
    }

    /// Rebuilds every watch list from scratch, visiting live clauses in
    /// arena (creation) order — the blocker of each watch is the other
    /// watched literal. Only legal at decision level 0.
    fn rebuild_watches(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for w in &mut self.watches {
            w.clear();
        }
        for r in self.arena.crefs() {
            if self.arena.is_deleted(r) {
                continue;
            }
            let (w0, w1) = (self.arena.lit(r, 0), self.arena.lit(r, 1));
            self.watches[(!w0).code()].push(Watch {
                cref: r,
                blocker: w1,
            });
            self.watches[(!w1).code()].push(Watch {
                cref: r,
                blocker: w0,
            });
        }
    }

    /// Compacting arena GC: copies live clauses into a fresh buffer in
    /// arena (creation) order, drops stale watches of deleted clauses,
    /// and rewrites the surviving watches through the forwarding
    /// references. After the watch rebuild that precedes it in
    /// `reduce_db`, creation order *is* the order watch lists scan
    /// clauses, so propagation visits adjacent memory. Preserving
    /// creation order (rather than first-watch-visit order) also keeps
    /// the reduction ranking's stable-sort tie-break independent of how
    /// many compactions have run. Only legal at decision level 0, where
    /// no clause is a reason.
    fn garbage_collect(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert_eq!(self.viv_guard, CREF_NONE);
        let live_words = self.arena.data.len() - self.arena.wasted;
        let mut to = ClauseArena::with_capacity(live_words);
        for r in self.arena.crefs() {
            if !self.arena.is_deleted(r) {
                self.arena.reloc(r, &mut to);
            }
        }
        for code in 0..self.watches.len() {
            let mut ws = std::mem::take(&mut self.watches[code]);
            ws.retain(|w| !self.arena.is_deleted(w.cref));
            for w in &mut ws {
                w.cref = self.arena.reloc(w.cref, &mut to);
            }
            self.watches[code] = ws;
        }
        self.arena = to;
        self.stats.gc_runs += 1;
    }

    /// Replaces clause `r` with `kept` (a subset of its literals),
    /// logging add-then-delete so a certifying replay stays RUP-valid
    /// (the strengthened clause is derived while the original is still
    /// present). Preserves the learnt flag and activity. Returns `false`
    /// if the database became unsatisfiable.
    fn replace_clause(&mut self, r: CRef, kept: &[Lit], origin: ProofOrigin) -> bool {
        debug_assert!(kept.len() < self.arena.len(r));
        let learnt = self.arena.is_learnt(r);
        if let Some(p) = self.proof.as_mut() {
            p.add(kept, origin);
        }
        match kept.len() {
            0 => {
                self.delete_clause(r);
                self.ok = false;
                false
            }
            1 => {
                self.delete_clause(r);
                if self.is_false(kept[0]) {
                    self.ok = false;
                    false
                } else {
                    if self.is_unassigned(kept[0]) {
                        self.enqueue(kept[0], Reason::None);
                    }
                    true
                }
            }
            _ => {
                let lbd = self.arena.lbd(r).min(kept.len() as u32);
                let act = self.arena.activity(r);
                self.delete_clause(r);
                let nr = self.attach_clause(kept, learnt, lbd);
                self.arena.set_activity(nr, act);
                true
            }
        }
    }

    /// One inprocessing pass (at a restart boundary, decision level 0):
    /// root simplification, vivification, subsumption, then a final
    /// propagation to settle derived units, and an arena compaction when
    /// the rewrites left a meaningful fraction of the buffer dead.
    /// Returns `false` when the database was proven unsatisfiable.
    fn inprocess(&mut self) -> bool {
        // Vivification churns the database hardest (every shortened
        // clause re-attaches and re-seeds subsumption), so it runs on a
        // slower cadence than the cheap passes, and only on long
        // searches.
        let vivify = (self.stats.inprocessings + 1) % VIVIFY_CADENCE == 1
            && self.stats.conflicts >= VIVIFY_ONSET;
        self.inprocess_with(vivify)
    }

    /// [`Engine::inprocess`] with the vivification cadence decision made
    /// by the caller (the test hooks force it on).
    fn inprocess_with(&mut self, vivify: bool) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        self.stats.inprocessings += 1;
        if !self.simplify_roots() {
            return false;
        }
        if vivify && !self.vivify_round() {
            return false;
        }
        if !self.subsume_round() {
            return false;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        if self.arena.wasted > 0 && self.arena.wasted * 8 >= self.arena.data.len() {
            self.garbage_collect();
        }
        true
    }

    /// Root-level database simplification: deletes clauses satisfied at
    /// level 0 and strips root-falsified literals — the re-presolve over
    /// root units accumulated since the previous pass. Skipped entirely
    /// when the root trail has not grown.
    fn simplify_roots(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.trail.len() == self.simplified_trail {
            return true;
        }
        self.simplified_trail = self.trail.len();
        for r in self.arena.crefs() {
            if self.arena.is_deleted(r) {
                continue;
            }
            let len = self.arena.len(r);
            let mut satisfied = false;
            let mut n_false = 0usize;
            for i in 0..len {
                let l = self.arena.lit(r, i);
                if self.is_true(l) {
                    satisfied = true;
                    break;
                }
                if self.is_false(l) {
                    n_false += 1;
                }
            }
            if satisfied {
                self.delete_clause(r);
                continue;
            }
            if n_false == 0 {
                continue;
            }
            let kept: Vec<Lit> = self
                .arena
                .collect_lits(r)
                .into_iter()
                .filter(|&l| !self.is_false(l))
                .collect();
            if !self.replace_clause(r, &kept, ProofOrigin::Inprocess) {
                return false;
            }
        }
        true
    }

    /// One bounded vivification pass over low-LBD learnt clauses,
    /// shortest-glue first, stopping when the propagation budget runs
    /// out. Returns `false` on root unsatisfiability.
    fn vivify_round(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let budget = self.features.vivify_budget;
        if budget == 0 {
            return true;
        }
        let mid = self.features.mid_lbd.max(self.features.glue_lbd);
        let mut cands: Vec<(u32, CRef)> = Vec::new();
        for r in self.arena.crefs() {
            if !self.arena.is_learnt(r) || self.arena.is_deleted(r) {
                continue;
            }
            let len = self.arena.len(r);
            if !(3..=12).contains(&len) {
                continue;
            }
            let lbd = self.arena.lbd(r);
            if lbd <= mid {
                cands.push((lbd, r));
            }
        }
        // Most valuable first: low-LBD clauses steer the most propagation.
        cands.sort_unstable();
        let start = self.stats.propagations;
        for (_, r) in cands {
            if self.stats.propagations - start >= budget {
                break;
            }
            if self.arena.is_deleted(r) {
                continue;
            }
            if !self.vivify_one(r) {
                return false;
            }
        }
        true
    }

    /// Vivifies one clause: asserts the negation of each literal in turn
    /// (each on its own decision level) and propagates with the clause
    /// guarded out of the propagator. A conflict or an implied-true
    /// literal proves the prefix entails the clause (shorten to the
    /// prefix); an implied-false literal is redundant (drop it). The
    /// propagations recorded here are ordinary engine propagations and
    /// count against the pass budget. Returns `false` on root
    /// unsatisfiability.
    fn vivify_one(&mut self, r: CRef) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let lits = self.arena.collect_lits(r);
        if lits.iter().any(|&l| self.is_true(l)) {
            // Became satisfied at the root since candidate collection.
            self.delete_clause(r);
            return true;
        }
        self.viv_guard = r;
        // Probe assignments are not search: they must not overwrite the
        // saved phases the next descent restart will resume from.
        let saved_phase_saving = self.features.phase_saving;
        self.features.phase_saving = false;
        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in &lits {
            match self.value_lit(l) {
                1 => {
                    // Earlier negations imply l: the prefix plus l is
                    // entailed, the remaining literals are redundant.
                    kept.push(l);
                    break;
                }
                0 => continue, // ¬l already follows: l is redundant
                _ => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(!l, Reason::None);
                    kept.push(l);
                    if self.propagate().is_some() {
                        // Negated prefix is contradictory: prefix entailed.
                        break;
                    }
                }
            }
        }
        self.cancel_until(0);
        self.features.phase_saving = saved_phase_saving;
        self.viv_guard = CREF_NONE;
        if kept.len() >= lits.len() {
            return true;
        }
        self.stats.vivified_lits += (lits.len() - kept.len()) as u64;
        self.replace_clause(r, &kept, ProofOrigin::Inprocess)
    }

    /// One bounded backward-subsumption / self-subsuming-resolution pass
    /// over the learnt database. Clauses carry a 64-bit variable
    /// signature; for each short clause C the occurrence list of its
    /// least-frequent literal is scanned for clauses D with C ⊆ D
    /// (delete D) or C ⊆ D with exactly one literal flipped (resolve:
    /// strengthen D by dropping the flipped literal's negation).
    /// Returns `false` on root unsatisfiability.
    fn subsume_round(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        const MAX_CLAUSE_LEN: usize = 30;
        const SUBSUMER_LEN: usize = 16;
        const CHECK_BUDGET: usize = 400_000;

        let mut clauses: Vec<CRef> = Vec::new();
        for r in self.arena.crefs() {
            if self.arena.is_learnt(r)
                && !self.arena.is_deleted(r)
                && self.arena.len(r) <= MAX_CLAUSE_LEN
            {
                clauses.push(r);
            }
        }
        if clauses.len() < 2 {
            return true;
        }
        // Occurrence lists are keyed by *variable*, not literal: a
        // strengthening partner contains the negation of one subsumer
        // literal, so a literal-keyed list would never surface it.
        let mut sig: std::collections::HashMap<CRef, u64> = std::collections::HashMap::new();
        let mut occ: std::collections::HashMap<usize, Vec<CRef>> = std::collections::HashMap::new();
        for &r in &clauses {
            let mut s = 0u64;
            for i in 0..self.arena.len(r) {
                let l = self.arena.lit(r, i);
                s |= 1u64 << (l.var().0 & 63);
                occ.entry(l.var().index()).or_default().push(r);
            }
            sig.insert(r, s);
        }
        let mut stamp: Vec<u64> = vec![0; self.num_vars * 2];
        let mut stamp_gen = 0u64;
        let mut checks = 0usize;
        'outer: for &c in &clauses {
            if self.arena.is_deleted(c) {
                continue;
            }
            let c_len = self.arena.len(c);
            if c_len > SUBSUMER_LEN {
                continue;
            }
            // Scan the occurrence list of C's least-occurring variable:
            // any D that C subsumes or strengthens mentions it.
            let mut best: Option<usize> = None;
            for i in 0..c_len {
                let v = self.arena.lit(c, i).var().index();
                let n = occ.get(&v).map_or(0, Vec::len);
                if best.is_none_or(|b| {
                    n < occ
                        .get(&self.arena.lit(c, b).var().index())
                        .map_or(0, Vec::len)
                }) {
                    best = Some(i);
                }
            }
            let cand_list: Vec<CRef> = best
                .and_then(|i| occ.get(&self.arena.lit(c, i).var().index()))
                .cloned()
                .unwrap_or_default();
            let c_sig = sig[&c];
            for d in cand_list {
                if d == c || self.arena.is_deleted(d) || self.arena.is_deleted(c) {
                    continue;
                }
                let d_len = self.arena.len(d);
                if d_len < c_len || c_sig & !sig[&d] != 0 {
                    continue;
                }
                checks += c_len + d_len;
                if checks > CHECK_BUDGET {
                    break 'outer;
                }
                stamp_gen += 1;
                for i in 0..d_len {
                    stamp[self.arena.lit(d, i).code()] = stamp_gen;
                }
                let mut flipped: Option<Lit> = None;
                let mut fits = true;
                for i in 0..c_len {
                    let l = self.arena.lit(c, i);
                    if stamp[l.code()] == stamp_gen {
                        continue;
                    }
                    if flipped.is_none() && stamp[(!l).code()] == stamp_gen {
                        flipped = Some(l);
                        continue;
                    }
                    fits = false;
                    break;
                }
                if !fits {
                    continue;
                }
                match flipped {
                    None => {
                        // C ⊆ D: D is redundant.
                        self.delete_clause(d);
                        self.stats.subsumed_clauses += 1;
                    }
                    Some(l) => {
                        // Self-subsuming resolution of D with C on l.
                        let kept: Vec<Lit> = self
                            .arena
                            .collect_lits(d)
                            .into_iter()
                            .filter(|&x| x != !l)
                            .collect();
                        self.stats.strengthened_lits += 1;
                        if !self.replace_clause(d, &kept, ProofOrigin::Inprocess) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Polls the wall-clock deadline and the cooperative interrupt flag.
    /// Called every [`POLL_INTERVAL`] propagations + conflicts.
    fn budget_exhausted(&self, budget: &Budget) -> bool {
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(deadline) = budget.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }

    /// Publishes a freshly learnt clause (or unit) to the portfolio
    /// exchange if it qualifies: LBD at most `share_lbd` (units always
    /// qualify), length at most `share_len`, and no variable at or above
    /// the share limit (activation variables stay local).
    fn publish_learnt(&mut self, lits: &[Lit], lbd: u32) {
        let Some(ex) = &self.exchange else {
            return;
        };
        let f = &self.features;
        if lits.len() > 1 && (lbd > f.share_lbd || lits.len() > f.share_len) {
            return;
        }
        if lits.iter().any(|l| l.var().index() >= self.share_var_limit) {
            return;
        }
        if ex.publish(self.worker_id, lits, lbd) {
            self.stats.exported_clauses += 1;
        }
    }

    /// Imports clauses learnt by other portfolio workers. Must be called
    /// at decision level 0. Returns `false` on derived conflict.
    fn import_shared(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.exchange_import {
            return true;
        }
        let Some(ex) = self.exchange.clone() else {
            return true;
        };
        let my_id = self.worker_id;
        let mut cursor = self.exchange_cursor;
        let mut ok = true;
        let mut incoming: Vec<(Vec<Lit>, u32)> = Vec::new();
        ex.import_since(&mut cursor, my_id, |lits, lbd| {
            incoming.push((lits.to_vec(), lbd));
        });
        self.exchange_cursor = cursor;
        'clauses: for (lits, lbd) in incoming {
            if !ok {
                break;
            }
            // Simplify against the level-0 assignment.
            let mut kept = Vec::with_capacity(lits.len());
            for l in lits {
                if self.is_true(l) {
                    continue 'clauses; // already satisfied forever
                }
                if !self.is_false(l) {
                    kept.push(l);
                }
            }
            self.stats.imported_clauses += 1;
            // Imported clauses join the database, so a certifying replay
            // must re-derive them like any learnt clause.
            if let Some(p) = self.proof.as_mut() {
                p.add(&kept, ProofOrigin::Imported);
            }
            match kept.len() {
                0 => ok = false,
                1 => self.enqueue(kept[0], Reason::None),
                _ => {
                    let lbd = lbd.min(kept.len() as u32);
                    self.attach_clause(&kept, true, lbd);
                }
            }
        }
        if ok && self.propagate().is_some() {
            ok = false;
        }
        if !ok {
            self.ok = false;
        }
        ok
    }

    /// The subset of the most recent `solve_under_assumptions` call's
    /// assumptions that the refutation depends on. Empty when the last
    /// result was not an assumption failure — in particular, empty when
    /// the constraint database is unsatisfiable on its own.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// Computes the assumption subset responsible for `p` (an assumption
    /// literal currently falsified) being false: walks the trail above
    /// level 0 resolving reasons; decisions reached are assumptions.
    fn analyze_final(&mut self, p: Lit) {
        self.last_core.clear();
        self.last_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen.set(p.var().index(), true);
        let mut antecedent = std::mem::take(&mut self.ante_buf);
        let mut terms = std::mem::take(&mut self.term_buf);
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var().index();
            if !self.seen.get(v) {
                continue;
            }
            match self.reason_conflict(v) {
                // Above level 0 every reason-free trail literal is an
                // enqueued assumption (real decisions cannot precede full
                // assumption establishment).
                None => self.last_core.push(q),
                Some(r) => {
                    self.explain(r, Some(q), &mut antecedent, &mut terms);
                    for &a in &antecedent {
                        if self.level[a.var().index()] > 0 {
                            self.seen.set(a.var().index(), true);
                        }
                    }
                }
            }
            self.seen.set(v, false);
        }
        self.seen.set(p.var().index(), false);
        self.ante_buf = antecedent;
        self.term_buf = terms;
    }

    /// Runs CDCL search under the given budget.
    pub fn solve(&mut self, budget: Budget) -> SatResult {
        self.solve_under_assumptions(budget, &[])
    }

    /// Runs CDCL search with every literal in `assumptions` held true.
    ///
    /// Assumptions are enqueued as pseudo-decisions (one per decision
    /// level, MiniSat style) and vanish when the search ends — nothing is
    /// added to the constraint database, so the engine stays reusable with
    /// a different assumption set and every clause learnt under one set
    /// remains valid under any other. On [`SatResult::Unsat`] caused by
    /// the assumptions, [`Engine::unsat_core`] names the responsible
    /// subset and [`Engine::is_ok`] stays `true`; an Unsat with `is_ok()
    /// == false` means the database itself is unsatisfiable (the core is
    /// empty then).
    pub fn solve_under_assumptions(&mut self, budget: Budget, assumptions: &[Lit]) -> SatResult {
        self.last_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        if !self.import_shared() {
            return SatResult::Unsat;
        }
        // Every assumption takes a decision level of its own, a repeated
        // one included, so the levels can outnumber the variables.
        let levels = self.num_vars + assumptions.len() + 1;
        if self.lbd_stamp.len() < levels {
            self.lbd_stamp.resize(levels, 0);
        }
        self.assumptions = assumptions.to_vec();
        let result = self.search(budget);
        self.assumptions = Vec::new();
        // Leave no assumption levels behind: the next `add_norm` or solve
        // would cancel anyway, but callers read models off the trail only
        // after Sat, and Sat keeps the full trail intact deliberately.
        if result != SatResult::Sat {
            self.cancel_until(0);
        }
        result
    }

    /// The CDCL main loop (assumptions, if any, are in `self.assumptions`).
    fn search(&mut self, budget: Budget) -> SatResult {
        let restart_base = self.features.restart_base.max(1);
        let mut restart_idx = 0u64;
        let mut conflicts_until_restart = luby(restart_idx) * restart_base;
        let start_conflicts = self.stats.conflicts;
        // Deadline / interrupt polling is amortised over a counter of
        // propagations + conflicts so the hot loop never calls
        // `Instant::now()` more than once per POLL_INTERVAL events.
        let mut next_poll = self.stats.propagations + self.stats.conflicts + POLL_INTERVAL;

        loop {
            let polled_ops = self.stats.propagations + self.stats.conflicts;
            if polled_ops >= next_poll {
                next_poll = polled_ops + POLL_INTERVAL;
                if self.budget_exhausted(&budget) {
                    return SatResult::Unknown;
                }
                if self.bound_watch_fired() {
                    return SatResult::Unknown;
                }
                if self.over_mem_limit() {
                    // Memory watchdog: shed learnt clauses before giving
                    // up, then exit cleanly rather than grow unbounded.
                    self.cancel_until(0);
                    if self.n_learnt > 16 {
                        self.reduce_db();
                    }
                    if self.over_mem_limit() {
                        return SatResult::Unknown;
                    }
                    continue;
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let mut learnt = std::mem::take(&mut self.learnt_buf);
                let bt = self.analyze(confl, &mut learnt);
                let lbd = self.compute_lbd(&learnt);
                self.stats.learnt_clauses += 1;
                self.stats.lbd_total += u64::from(lbd);
                if let Some(p) = self.proof.as_mut() {
                    p.add(&learnt, ProofOrigin::Learnt);
                }
                self.cancel_until(bt);
                self.publish_learnt(&learnt, lbd);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], Reason::None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.enqueue(asserting, Reason::Clause(cref));
                }
                self.learnt_buf = learnt;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if let Some(limit) = budget.conflict_limit {
                    if self.stats.conflicts - start_conflicts >= limit {
                        return SatResult::Unknown;
                    }
                }
            } else {
                if conflicts_until_restart == 0 && self.features.restarts {
                    restart_idx += 1;
                    conflicts_until_restart = luby(restart_idx) * restart_base;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    if !self.import_shared() {
                        return SatResult::Unsat;
                    }
                    if self.features.inprocessing && self.stats.conflicts >= self.next_inprocess {
                        self.next_inprocess =
                            self.stats.conflicts + self.features.inprocess_interval.max(1);
                        if !self.inprocess() {
                            return SatResult::Unsat;
                        }
                    }
                    if self.n_learnt > self.learnt_cap {
                        self.reduce_db();
                        self.learnt_cap += self.learnt_cap / 2;
                    }
                    continue;
                }
                // Establish pending assumptions before any real decision:
                // one per level, so the trail structure records exactly
                // which assumptions are in force.
                if (self.decision_level() as usize) < self.assumptions.len() {
                    let a = self.assumptions[self.decision_level() as usize];
                    if self.is_true(a) {
                        // Already implied: dedicate a dummy level to it so
                        // the level↔assumption correspondence holds.
                        self.trail_lim.push(self.trail.len());
                    } else if self.is_false(a) {
                        self.analyze_final(a);
                        return SatResult::Unsat;
                    } else {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, Reason::None);
                        self.stats.decisions += 1;
                    }
                    continue;
                }
                if !self.decide() {
                    return SatResult::Sat;
                }
            }
        }
    }

    /// Test-only deep consistency check of the arena, watch lists and
    /// packed assignment (used by the arena/GC stress suite). Expects a
    /// propagation fixpoint (not mid-`propagate`).
    #[doc(hidden)]
    pub fn debug_check_invariants(&self) -> Result<(), String> {
        // The arena walk must tile the buffer exactly, with no stray
        // relocation marks left behind by GC.
        let mut live: std::collections::HashMap<CRef, usize> = std::collections::HashMap::new();
        let mut r = 0u32;
        while (r as usize) < self.arena.data.len() {
            if self.arena.is_relocated(r) {
                return Err(format!("clause {r} left relocated outside GC"));
            }
            let len = self.arena.len(r);
            if len < 2 {
                return Err(format!("clause {r} has {len} literals"));
            }
            if !self.arena.is_deleted(r) {
                live.insert(r, 0);
            }
            r += HEADER_WORDS + len as u32;
        }
        if (r as usize) != self.arena.data.len() {
            return Err("arena walk overshoots the buffer".into());
        }
        // Every live clause is watched exactly twice, on the negations
        // of its first two literals, with a blocker from the clause.
        for (code, ws) in self.watches.iter().enumerate() {
            for w in ws {
                if self.arena.is_deleted(w.cref) {
                    continue; // stale watch, removed lazily
                }
                let Some(n) = live.get_mut(&w.cref) else {
                    return Err(format!("watch on unknown clause {}", w.cref));
                };
                *n += 1;
                let watched = !Lit(code as u32);
                if self.arena.lit(w.cref, 0) != watched && self.arena.lit(w.cref, 1) != watched {
                    return Err(format!("clause {} watched on a non-watch literal", w.cref));
                }
                if !self.arena.collect_lits(w.cref).contains(&w.blocker) {
                    return Err(format!("clause {} blocker outside the clause", w.cref));
                }
            }
        }
        for (r, n) in live {
            if n != 2 {
                return Err(format!("clause {r} has {n} watch entries, expected 2"));
            }
        }
        // The packed assignment and the trail must agree.
        let assigned = (0..self.num_vars)
            .filter(|&v| self.assign.get(v) != 2)
            .count();
        if assigned != self.trail.len() {
            return Err(format!(
                "{assigned} assigned vars but {} trail literals",
                self.trail.len()
            ));
        }
        for &l in &self.trail {
            if !self.is_true(l) {
                return Err(format!("trail literal {l:?} is not true"));
            }
        }
        for (i, row) in self.linears.iter().enumerate() {
            self.check_linear(row)
                .map_err(|e| format!("row {i}: {e}"))?;
        }
        Ok(())
    }

    /// The pseudo-Boolean state of one row against a recount from its
    /// terms and the trail.
    fn check_linear(&self, row: &Linear) -> Result<(), String> {
        let coeff = |t: u32| row.terms[t as usize].0;
        let all = 0..row.terms.len() as u32;
        let mut trues: Vec<u32> = all
            .clone()
            .filter(|&t| self.is_true(row.terms[t as usize].1))
            .collect();
        trues.sort_by_key(|&t| self.trail_pos[row.terms[t as usize].1.var().index()]);
        if row.trues(&self.lin_slots) != trues {
            return Err(format!(
                "true list {:?}, trail order gives {trues:?}",
                row.trues(&self.lin_slots)
            ));
        }
        let sum: u64 = trues.iter().map(|&t| coeff(t)).sum();
        if row.sum_true != sum {
            return Err(format!(
                "sum_true {} but true terms sum to {sum}",
                row.sum_true
            ));
        }
        let min = all.clone().map(coeff).min().unwrap_or(0);
        let max = all.clone().map(coeff).max().unwrap_or(0);
        if (row.min_coeff, row.max_coeff) != (min, max) {
            return Err(format!(
                "coefficient range {}..={}, terms give {min}..={max}",
                row.min_coeff, row.max_coeff
            ));
        }
        let mut expected: Vec<u32> = Vec::new();
        if min != max {
            expected.extend(all);
            expected.sort_by_key(|&t| std::cmp::Reverse(coeff(t)));
        }
        if row.by_coeff(&self.lin_slots) != expected {
            return Err("coefficient index is not the stable descending order".into());
        }
        Ok(())
    }

    /// Test-only: cancels to the root and runs one database reduction
    /// (including the compacting GC).
    #[doc(hidden)]
    pub fn debug_force_reduce(&mut self) {
        self.cancel_until(0);
        self.reduce_db();
    }

    /// Test-only: cancels to the root and runs one inprocessing pass;
    /// returns `false` if the database was proven unsatisfiable.
    #[doc(hidden)]
    pub fn debug_force_inprocess(&mut self) -> bool {
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        self.inprocess_with(true)
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 0-indexed.
fn luby(i: u64) -> u64 {
    // Standard closed-form recursion on the 1-indexed sequence: if
    // n = 2^k - 1 the value is 2^(k-1); otherwise recurse on the tail.
    let mut n = i + 1;
    loop {
        let k = 64 - n.leading_zeros() as u64; // floor(log2(n)) + 1
        if n == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        n -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // column-index loops in incidence constructions
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::normalize::normalize;

    fn engine_from(m: &Model) -> Engine {
        let mut e = Engine::new(m.num_vars());
        for c in m.constraints() {
            for nc in normalize(c) {
                e.add_norm(nc);
            }
        }
        e
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn trivial_sat() {
        let mut m = Model::new();
        let x = m.new_var();
        m.add_clause([x.lit()]);
        let mut e = engine_from(&m);
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Sat);
        assert!(e.model_value(x));
    }

    #[test]
    fn trivial_unsat() {
        let mut m = Model::new();
        let x = m.new_var();
        m.add_clause([x.lit()]);
        m.add_clause([!x.lit()]);
        let mut e = engine_from(&m);
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: each pigeon in >=1 hole, each hole <=1 pigeon.
        let mut m = Model::new();
        let p: Vec<Vec<_>> = (0..3).map(|_| m.new_vars(2)).collect();
        for row in &p {
            m.add_clause(row.iter().map(|v| v.lit()));
        }
        for h in 0..2 {
            m.add_at_most_one((0..3).map(|i| p[i][h]));
        }
        let mut e = engine_from(&m);
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Unsat);
    }

    #[test]
    fn exactly_one_chain_sat() {
        let mut m = Model::new();
        let cells: Vec<Vec<_>> = (0..4).map(|_| m.new_vars(4)).collect();
        for row in &cells {
            m.add_exactly_one(row.iter().copied());
        }
        for c in 0..4 {
            m.add_at_most_one((0..4).map(|r| cells[r][c]));
        }
        let mut e = engine_from(&m);
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Sat);
        // Verify it is a permutation matrix.
        for row in &cells {
            assert_eq!(row.iter().filter(|v| e.model_value(**v)).count(), 1);
        }
        for c in 0..4 {
            assert!((0..4).filter(|&r| e.model_value(cells[r][c])).count() <= 1);
        }
    }

    #[test]
    fn weighted_pb_propagation() {
        // 3a + 2b + 2c <= 4 with a forced true leaves slack 1: b, c forced false.
        let mut m = Model::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        let mut e = LinExprHelper::expr(&[(3, a), (2, b), (2, c)]);
        m.add_le(std::mem::take(&mut e), 4);
        m.add_clause([a.lit()]);
        let mut eng = engine_from(&m);
        assert_eq!(eng.solve(Budget::unlimited()), SatResult::Sat);
        assert!(eng.model_value(a));
        assert!(!eng.model_value(b));
        assert!(!eng.model_value(c));
    }

    struct LinExprHelper;

    impl LinExprHelper {
        fn expr(terms: &[(i64, Var)]) -> crate::model::LinExpr {
            let mut e = crate::model::LinExpr::new();
            for &(c, v) in terms {
                e.add_term(c, v);
            }
            e
        }
    }

    #[test]
    fn conflict_limit_returns_unknown() {
        // A hard pigeonhole instance with a conflict budget of 1.
        let n = 8;
        let mut m = Model::new();
        let p: Vec<Vec<_>> = (0..n + 1).map(|_| m.new_vars(n)).collect();
        for row in &p {
            m.add_clause(row.iter().map(|v| v.lit()));
        }
        for h in 0..n {
            m.add_at_most_one((0..n + 1).map(|i| p[i][h]));
        }
        let mut e = engine_from(&m);
        let r = e.solve(Budget {
            deadline: None,
            conflict_limit: Some(1),
        });
        assert_eq!(r, SatResult::Unknown);
    }

    #[test]
    fn incremental_add_between_solves() {
        let mut m = Model::new();
        let vs = m.new_vars(3);
        m.add_ge(crate::model::LinExpr::sum(vs.clone()), 1);
        let mut e = engine_from(&m);
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Sat);
        // Now force all false: unsat.
        e.cancel_until(0);
        for v in &vs {
            if !e.add_norm(NormConstraint::Unit(!v.lit())) {
                break;
            }
        }
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Unsat);
    }

    // ---- arena / packed-array / inprocessing regression tests ----

    #[test]
    fn packed_vals_roundtrip() {
        let mut p = PackedVals::default();
        for _ in 0..100 {
            p.push_unassigned();
        }
        for v in 0..100 {
            assert_eq!(p.get(v), 2, "fresh var {v} not unassigned");
        }
        for v in 0..100 {
            p.set(v, (v % 2) as u8);
        }
        for v in 0..100 {
            assert_eq!(p.get(v), (v % 2) as u8);
        }
        p.set(50, 2);
        assert_eq!(p.get(50), 2);
        assert_eq!(p.get(49), 1);
        assert_eq!(p.get(51), 1);
    }

    #[test]
    fn bitvec_roundtrip() {
        let mut b = BitVec::default();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0);
        }
        b.set(64, true);
        assert!(b.get(64));
        b.fill(false);
        assert!((0..130).all(|i| !b.get(i)));
    }

    #[test]
    fn arena_alloc_walk_and_delete() {
        let mut a = ClauseArena::default();
        let l = |i: u32| Lit::positive(Var(i));
        let c1 = a.alloc(&[l(0), l(1), l(2)], false, 0);
        let c2 = a.alloc(&[l(3), l(4)], true, 7);
        assert_eq!(a.len(c1), 3);
        assert_eq!(a.len(c2), 2);
        assert!(!a.is_learnt(c1));
        assert!(a.is_learnt(c2));
        assert_eq!(a.lbd(c2), 7);
        assert_eq!(a.collect_lits(c1), vec![l(0), l(1), l(2)]);
        assert_eq!(a.crefs(), vec![c1, c2]);
        a.mark_deleted(c1);
        assert!(a.is_deleted(c1));
        assert!(!a.is_deleted(c2));
        assert_eq!(a.wasted, HEADER_WORDS as usize + 3);
    }

    #[test]
    fn gc_preserves_solve_and_invariants() {
        let mut m = Model::new();
        let cells: Vec<Vec<_>> = (0..5).map(|_| m.new_vars(5)).collect();
        for row in &cells {
            m.add_exactly_one(row.iter().copied());
        }
        for c in 0..5 {
            m.add_at_most_one((0..5).map(|r| cells[r][c]));
        }
        let mut e = engine_from(&m);
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Sat);
        e.debug_force_reduce();
        e.debug_check_invariants().unwrap();
        assert!(e.stats().gc_runs >= 1);
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Sat);
        e.debug_check_invariants().unwrap();
    }

    #[test]
    fn mid_tier_clauses_age_out_under_pressure() {
        // Regression for the `deleted_mid: 0` pathology: under a steady
        // influx of fresh high-LBD locals, pure half-deletion ranked by
        // (lbd, activity) never reaches the mid tier. The age cutoff
        // must evict unused mids regardless of rank.
        let mut e = Engine::new(200);
        let l = |i: usize| Lit::positive(Var(i as u32));
        // A pool of mid-tier learnts (LBD 4) that are never bumped again.
        for i in 0..20 {
            let lits = [l(i * 3), l(i * 3 + 1), l(i * 3 + 2)];
            e.attach_clause(&lits, true, 4);
            e.n_learnt += 1;
        }
        // Rounds of fresh local learnts (LBD far above mid) followed by a
        // reduction — models the descent benches' conflict traffic.
        for round in 0..6 {
            for i in 0..30 {
                let base = 60 + ((round * 30 + i) * 4) % 130;
                let lits = [l(base), l(base + 1), l(base + 2), l(base + 3)];
                let c = e.attach_clause(&lits, true, 40);
                e.n_learnt += 1;
                e.bump_clause(c); // locals are active, mids are not
            }
            e.debug_force_reduce();
            e.debug_check_invariants().unwrap();
        }
        assert!(
            e.stats().deleted_mid > 0,
            "mid-tier clauses were never evicted: {:?}",
            e.stats()
        );
    }

    #[test]
    fn vivification_shortens_entailed_clause() {
        // x1 ∨ x2 is implied; the learnt (x1 ∨ x2 ∨ x3 ∨ x4) must shrink.
        let mut m = Model::new();
        let vs = m.new_vars(6);
        let x = |i: usize| vs[i].lit();
        m.add_clause([x(0), x(1), x(4)]);
        m.add_clause([x(0), x(1), !x(4)]);
        let mut e = engine_from(&m);
        let learnt = [x(0), x(1), x(2), x(3)];
        e.attach_clause(&learnt, true, 3);
        e.n_learnt += 1;
        assert!(e.debug_force_inprocess());
        assert!(
            e.stats().vivified_lits >= 2,
            "expected vivification to strip x3/x4: {:?}",
            e.stats()
        );
        e.debug_check_invariants().unwrap();
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Sat);
    }

    #[test]
    fn subsumption_deletes_superset_learnt() {
        let mut e = Engine::new(10);
        let l = |i: usize| Lit::positive(Var(i as u32));
        e.attach_clause(&[l(0), l(1)], true, 2);
        e.n_learnt += 1;
        e.attach_clause(&[l(0), l(1), l(2)], true, 3);
        e.n_learnt += 1;
        assert!(e.debug_force_inprocess());
        assert!(
            e.stats().subsumed_clauses >= 1,
            "superset clause not subsumed: {:?}",
            e.stats()
        );
        e.debug_check_invariants().unwrap();
    }

    #[test]
    fn self_subsumption_strengthens() {
        // (a ∨ b) and (¬a ∨ b ∨ c): resolving strengthens the second
        // to (b ∨ c).
        let mut e = Engine::new(10);
        let l = |i: usize| Lit::positive(Var(i as u32));
        e.attach_clause(&[l(0), l(1)], true, 2);
        e.n_learnt += 1;
        e.attach_clause(&[!l(0), l(1), l(2)], true, 3);
        e.n_learnt += 1;
        assert!(e.debug_force_inprocess());
        assert!(
            e.stats().strengthened_lits >= 1,
            "no self-subsuming strengthening: {:?}",
            e.stats()
        );
        e.debug_check_invariants().unwrap();
    }

    #[test]
    fn inprocessing_preserves_verdicts() {
        // Pigeonhole with aggressive inprocessing stays Unsat; the chain
        // instance stays Sat.
        let mut m = Model::new();
        let p: Vec<Vec<_>> = (0..5).map(|_| m.new_vars(4)).collect();
        for row in &p {
            m.add_clause(row.iter().map(|v| v.lit()));
        }
        for h in 0..4 {
            m.add_at_most_one((0..5).map(|i| p[i][h]));
        }
        let mut e = engine_from(&m);
        e.set_features(EngineFeatures {
            restart_base: 1,
            inprocess_interval: 1,
            ..EngineFeatures::default()
        });
        assert_eq!(e.solve(Budget::unlimited()), SatResult::Unsat);
        assert!(
            e.stats().inprocessings > 0,
            "no inprocessing despite per-restart interval: {:?}",
            e.stats()
        );
    }
}
