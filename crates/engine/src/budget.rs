//! The elastic core budget: one split of a fixed core count between the
//! transactional and analytical worker populations, resizable at runtime.
//!
//! The paper's frontier is measured with a *static* split of cores
//! between the transactional and analytical side. "Adaptive HTAP through
//! Elastic Resource Scheduling" shows that moving cores between engines
//! at fine granularity dominates any static split; [`CoreBudget`] is the
//! mechanism half of that idea (the policy half — deciding *when* to
//! move — lives in `hat-core::sched`, which stays engine-agnostic).
//!
//! A budget of `total` cores is split `t_cores + a_cores = total`.
//! Applying a split moves the analytical lever here and publishes the
//! transactional share for the harness:
//!
//! - **Analytical side**: a shared [`WorkerCap`] gauge. Query drivers
//!   clone it into their [`QueryOpts`](crate::QueryOpts) once; every
//!   subsequent `ExecContext::run` clamps its probe-worker pool to the
//!   gauge's current value, so a narrowed cap applies from the next
//!   query without replumbing options through callers.
//! - **Transactional side**: the harness parks or unparks its commit
//!   workers to match `t_cores` (see `Harness::run_open_loop`); the
//!   engine itself has no T-side lever.
//!
//! Neither lever evicts in-flight work: a split change is a *bound*
//! change, taking effect as requests complete — which is what keeps
//! byte-identical query results and clean commit semantics across
//! reassignments.

use std::sync::atomic::{AtomicU32, Ordering};

use hat_query::exec::WorkerCap;

/// A fixed budget of cores elastically split between the transactional
/// and analytical worker populations. Cheap to clone-by-`Arc` and safe
/// to update from a scheduler thread while workers run.
#[derive(Debug)]
pub struct CoreBudget {
    /// The fixed total. Splits always satisfy `t + a = total`.
    total: u32,
    t_cores: AtomicU32,
    a_cores: AtomicU32,
    /// The analytical lever: live ceiling on probe workers.
    cap: WorkerCap,
}

impl CoreBudget {
    /// A budget of `total` cores (min 2 — each side always keeps at
    /// least one), initially split as evenly as possible with the extra
    /// core on the transactional side.
    pub fn new(total: u32) -> Self {
        let total = total.max(2);
        let a = total / 2;
        let t = total - a;
        let budget = CoreBudget {
            total,
            t_cores: AtomicU32::new(t),
            a_cores: AtomicU32::new(a),
            cap: WorkerCap::unlimited(),
        };
        budget.cap.set(a as usize);
        budget
    }

    /// The fixed total.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The current `(t_cores, a_cores)` split.
    pub fn split(&self) -> (u32, u32) {
        (self.t_cores.load(Ordering::Relaxed), self.a_cores.load(Ordering::Relaxed))
    }

    /// The analytical worker-cap gauge. Clone it into the
    /// [`QueryOpts`](crate::QueryOpts) of every analytical driver that
    /// should obey this budget.
    pub fn worker_cap(&self) -> &WorkerCap {
        &self.cap
    }

    /// Applies a new split and moves the analytical worker cap to match.
    /// `t_cores` is clamped to `1..total` and `a_cores` is
    /// derived as the remainder, so both populations always keep at
    /// least one core (an empty side cannot drain its queue and the
    /// controller could never observe it recover).
    pub fn apply(&self, t_cores: u32) -> (u32, u32) {
        let t = t_cores.clamp(1, self.total - 1);
        let a = self.total - t;
        self.t_cores.store(t, Ordering::Relaxed);
        self.a_cores.store(a, Ordering::Relaxed);
        self.cap.set(a as usize);
        (t, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_budget_splits_evenly_with_t_bias() {
        let b = CoreBudget::new(5);
        assert_eq!(b.total(), 5);
        assert_eq!(b.split(), (3, 2));
        assert_eq!(b.worker_cap().get(), Some(2));
        // Degenerate totals are lifted to 2 so both sides exist.
        let b = CoreBudget::new(0);
        assert_eq!(b.total(), 2);
        assert_eq!(b.split(), (1, 1));
    }

    #[test]
    fn apply_clamps_and_moves_the_worker_cap() {
        let b = CoreBudget::new(4);
        assert_eq!(b.apply(3), (3, 1));
        assert_eq!(b.worker_cap().get(), Some(1));
        // t is clamped into 1..total so analytics never starves to zero.
        assert_eq!(b.apply(99), (3, 1));
        assert_eq!(b.apply(0), (1, 3));
        assert_eq!(b.worker_cap().get(), Some(3));
        assert_eq!(b.split(), (1, 3));
    }
}
