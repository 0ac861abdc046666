//! Deterministic fault injection for chaos testing.
//!
//! The resilience claims in DESIGN.md §15 — no cross-delivered
//! responses, torn segment tails never surface, the router converges
//! after a shard dies — are only worth stating if something actively
//! tries to break them. This module is that something: a `FaultPlan`
//! picks, from a `cgra-rng` seed, which *global* events to sabotage
//! (the Nth solve panics, the Mth segment append tears mid-record, the
//! Kth router forward drops mid-frame), and tiny hooks compiled into
//! the hot paths consult the installed plan.
//!
//! Design constraints:
//!
//! * **Deterministic**: the plan is a set of precomputed event indices;
//!   the hooks only count and compare. No clock and no online RNG in
//!   the hooks, so a failing chaos run replays exactly from its seed.
//! * **Global counters**: event indices count across *all* services and
//!   segments in the process, so one plan can span a whole in-process
//!   fleet (the chaos suites run several shards in one test binary).
//! * **Zero cost when disabled**: without the `fault-inject` feature
//!   every hook is an empty inline function and `FaultPlan` cannot be
//!   installed — production builds carry no branches.
//!
//! Tests that install plans must serialize through `install`'s guard
//! (it holds a process-wide lock), otherwise two tests' plans would
//! race on the shared counters.

#[cfg(feature = "fault-inject")]
mod enabled {
    use cgra_rng::Rng;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// Which global events to sabotage. Indices are 0-based counts of
    /// the corresponding hook's invocations since the plan was
    /// installed.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        /// Solve serials whose worker panics mid-execute.
        pub panic_solves: Vec<u64>,
        /// Segment append indices torn mid-record (partial write, then
        /// the append fails without publishing an index entry).
        pub tear_appends: Vec<u64>,
        /// Router forward indices dropped mid-frame (the upstream
        /// connection is severed after a partial request write).
        pub drop_forwards: Vec<u64>,
    }

    impl FaultPlan {
        /// Draws a plan from `seed`: `panics`/`tears`/`drops` distinct
        /// event indices each, uniform in `[0, horizon)`. The same seed
        /// always yields the same plan.
        pub fn seeded(seed: u64, horizon: u64, panics: usize, tears: usize, drops: usize) -> Self {
            let mut rng = Rng::seed_from_u64(seed);
            let mut draw = |n: usize| {
                let mut picked = HashSet::new();
                while picked.len() < n.min(horizon as usize) {
                    picked.insert(rng.below(horizon.max(1)));
                }
                let mut v: Vec<u64> = picked.into_iter().collect();
                v.sort_unstable();
                v
            };
            FaultPlan {
                panic_solves: draw(panics),
                tear_appends: draw(tears),
                drop_forwards: draw(drops),
            }
        }
    }

    struct Installed {
        panic_solves: HashSet<u64>,
        tear_appends: HashSet<u64>,
        drop_forwards: HashSet<u64>,
    }

    static PLAN: Mutex<Option<Installed>> = Mutex::new(None);
    static HARNESS: Mutex<()> = Mutex::new(());
    static SOLVES: AtomicU64 = AtomicU64::new(0);
    static APPENDS: AtomicU64 = AtomicU64::new(0);
    static FORWARDS: AtomicU64 = AtomicU64::new(0);

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // A planned panic unwinds through the hook with PLAN held only
        // briefly, but a panicking *test* can still poison HARNESS.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Uninstalls the plan and resets the global counters on drop.
    /// Holding this also holds the process-wide harness lock, so chaos
    /// tests cannot interleave plans.
    #[derive(Debug)]
    pub struct FaultGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *lock(&PLAN) = None;
            SOLVES.store(0, Ordering::SeqCst);
            APPENDS.store(0, Ordering::SeqCst);
            FORWARDS.store(0, Ordering::SeqCst);
        }
    }

    /// Installs `plan` process-wide and zeroes the event counters.
    /// The returned guard keeps it active; dropping it cleans up.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        let serial = lock(&HARNESS);
        *lock(&PLAN) = Some(Installed {
            panic_solves: plan.panic_solves.into_iter().collect(),
            tear_appends: plan.tear_appends.into_iter().collect(),
            drop_forwards: plan.drop_forwards.into_iter().collect(),
        });
        SOLVES.store(0, Ordering::SeqCst);
        APPENDS.store(0, Ordering::SeqCst);
        FORWARDS.store(0, Ordering::SeqCst);
        FaultGuard { _serial: serial }
    }

    /// Solve hook: counts one solve and panics if the plan says so.
    /// Called by the worker inside its `catch_unwind` envelope.
    pub fn on_solve() {
        let n = SOLVES.fetch_add(1, Ordering::SeqCst);
        let hit = lock(&PLAN)
            .as_ref()
            .is_some_and(|p| p.panic_solves.contains(&n));
        if hit {
            panic!("fault-inject: planned panic at solve {n}");
        }
    }

    /// Append hook: `true` if this segment append must tear.
    pub fn tear_this_append() -> bool {
        let n = APPENDS.fetch_add(1, Ordering::SeqCst);
        lock(&PLAN)
            .as_ref()
            .is_some_and(|p| p.tear_appends.contains(&n))
    }

    /// Forward hook: `true` if this router forward must drop mid-frame.
    pub fn drop_this_forward() -> bool {
        let n = FORWARDS.fetch_add(1, Ordering::SeqCst);
        lock(&PLAN)
            .as_ref()
            .is_some_and(|p| p.drop_forwards.contains(&n))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn seeded_plans_are_deterministic_and_counted() {
            let a = FaultPlan::seeded(7, 100, 4, 1, 2);
            let b = FaultPlan::seeded(7, 100, 4, 1, 2);
            assert_eq!(a.panic_solves, b.panic_solves);
            assert_eq!(a.tear_appends, b.tear_appends);
            assert_eq!(a.drop_forwards, b.drop_forwards);
            assert_eq!(a.panic_solves.len(), 4);
            assert!(a.panic_solves.iter().all(|&i| i < 100));

            let plan = FaultPlan {
                panic_solves: vec![],
                tear_appends: vec![1],
                drop_forwards: vec![0],
            };
            let guard = install(plan);
            assert!(!tear_this_append()); // index 0
            assert!(tear_this_append()); // index 1: planned
            assert!(!tear_this_append());
            assert!(drop_this_forward());
            assert!(!drop_this_forward());
            drop(guard);
            // No plan: hooks are inert and counters restart.
            assert!(!tear_this_append());
            assert!(!drop_this_forward());
        }

        #[test]
        fn planned_solve_panic_fires_exactly_once() {
            let plan = FaultPlan {
                panic_solves: vec![1],
                tear_appends: vec![],
                drop_forwards: vec![],
            };
            let _guard = install(plan);
            on_solve(); // index 0: fine
            let hit = std::panic::catch_unwind(on_solve);
            assert!(hit.is_err());
            on_solve(); // index 2: fine again
        }
    }
}

#[cfg(feature = "fault-inject")]
pub use enabled::{install, FaultGuard, FaultPlan};

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::{drop_this_forward, on_solve, tear_this_append};

/// Solve hook (no-op: `fault-inject` feature disabled).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn on_solve() {}

/// Append hook (no-op: `fault-inject` feature disabled).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn tear_this_append() -> bool {
    false
}

/// Forward hook (no-op: `fault-inject` feature disabled).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn drop_this_forward() -> bool {
    false
}
