//! Per-class overload admission control in front of the kernel.
//!
//! A closed-loop benchmark can never offer more load than its clients can
//! wait out; an open-loop one can, and then the only question is *where*
//! the excess dies. Without a gate it dies inside the engine: every
//! arriving request takes locks, allocates, queues on the WAL, and the
//! system congestion-collapses — classic metastable overload. The
//! [`AdmissionController`] moves that death to the front door.
//!
//! Two [`ClassGate`]s (transactional vs analytical) each enforce an
//! in-flight concurrency bound with a bounded wait queue behind it.
//! Shedding is CoDel-flavored: a queued request is shed when *its own
//! queue sojourn* exceeds the configured deadline budget — latency-aware,
//! unlike naive tail-drop which happily holds a standing queue at exactly
//! the cap forever. (Queue-full is kept only as a backstop so memory stays
//! bounded under any arrival rate.) Shed requests fail with the retryable
//! [`HatError::Overloaded`] *before* any engine work runs: nothing was
//! installed, nothing needs undoing, and the reject costs nanoseconds —
//! which is precisely what lets goodput recover once a burst ends.
//!
//! The transactional gate additionally acts as a circuit breaker over the
//! storage-health ladder of §6d: when the WAL is `Degraded`/`Recovering`,
//! queueing a write is queueing doomed work (it would shed at
//! [`DurabilityLayer::admit`](crate::durability::DurabilityLayer::admit)
//! after burning a queue slot and the caller's deadline budget), so the
//! gate sheds it immediately with the same `Degraded` error the WAL
//! would. Analytics are deliberately exempt: serving reads while storage
//! is unhappy is the whole point of the degradation ladder.
//!
//! The default [`AdmissionConfig`] disables both gates (unbounded
//! admission, zero queueing, zero overhead beyond two counter bumps), so
//! closed-loop benchmarks and existing tests behave exactly as before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hat_common::telemetry::{names, Counter, Histogram, MetricsRegistry};
use hat_common::{HatError, Result};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Knobs for the per-class admission gates. Part of
/// [`EngineConfig`](crate::api::EngineConfig); the default disables
/// admission control entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Transactional in-flight bound (`None` disables the T gate).
    pub txn_slots: Option<u32>,
    /// Analytical in-flight bound (`None` disables the A gate).
    pub query_slots: Option<u32>,
    /// Queued-waiter cap per gate — the memory-bound backstop. Sojourn
    /// shedding, not this, is the intended control surface.
    pub queue_cap: u32,
    /// Deadline budget for queue sojourn: a waiter still queued after
    /// this long is shed with [`HatError::Overloaded`].
    pub queue_deadline: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            txn_slots: None,
            query_slots: None,
            queue_cap: AdmissionConfig::DEFAULT_QUEUE_CAP,
            queue_deadline: AdmissionConfig::DEFAULT_QUEUE_DEADLINE,
        }
    }
}

impl AdmissionConfig {
    /// Default bounded-queue backstop per gate.
    pub const DEFAULT_QUEUE_CAP: u32 = 1024;
    /// Default queue-sojourn deadline budget.
    pub const DEFAULT_QUEUE_DEADLINE: Duration = Duration::from_millis(50);

    /// An enabled config bounding both classes (convenience for tests
    /// and the open-loop driver).
    pub fn bounded(txn_slots: u32, query_slots: u32) -> Self {
        AdmissionConfig {
            txn_slots: Some(txn_slots),
            query_slots: Some(query_slots),
            ..AdmissionConfig::default()
        }
    }

    /// Whether any gate is active.
    pub fn is_enabled(&self) -> bool {
        self.txn_slots.is_some() || self.query_slots.is_some()
    }
}

#[derive(Default)]
struct GateState {
    in_flight: u64,
    waiting: u64,
}

/// Sentinel for "gate disabled" in [`ClassGate::slots`] — no bound, no
/// queue, no lock taken.
const SLOTS_DISABLED: u64 = u64::MAX;

/// One class's gate: a concurrency bound, a bounded wait queue, and
/// sojourn-deadline shedding.
struct ClassGate {
    class: &'static str,
    /// Current in-flight bound; [`SLOTS_DISABLED`] means no gate. Atomic
    /// so the elastic scheduler can narrow or widen it at tick granularity
    /// without stalling admits; each `admit` reads it fresh, so a resize
    /// applies from the next admission decision (and to waiters mid-queue,
    /// which re-read it on every wake). Requests admitted while the gate
    /// was disabled hold no slot, so enabling a disabled gate mid-flight
    /// bounds only the requests arriving after the switch.
    slots: AtomicU64,
    queue_cap: u64,
    deadline: Duration,
    /// The breaker applies only to the write class (see module docs).
    breaker: bool,
    state: Mutex<GateState>,
    cv: Condvar,
    offered: Arc<Counter>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    shed_breaker: Arc<Counter>,
    queue_wait: Arc<Histogram>,
}

impl ClassGate {
    fn admit(&self, healthy: bool) -> Result<AdmitPermit<'_>> {
        self.offered.inc();
        // Disabled gate: count offered/admitted (goodput accounting works
        // either way) but never queue, never shed, never take a lock.
        let slots = self.slots.load(Ordering::Relaxed);
        if slots == SLOTS_DISABLED {
            self.admitted.inc();
            return Ok(AdmitPermit { gate: None });
        }
        // Circuit breaker: degraded storage means a queued write is
        // doomed work — shed now, with the storage-cause error, instead
        // of spending queue budget to learn the same thing.
        if self.breaker && !healthy {
            self.shed_breaker.inc();
            return Err(HatError::Degraded);
        }
        let start = Instant::now();
        let mut st = self.state.lock();
        if st.in_flight < slots && st.waiting == 0 {
            st.in_flight += 1;
            drop(st);
            self.admitted.inc();
            self.queue_wait.record(0);
            return Ok(AdmitPermit { gate: Some(self) });
        }
        if st.waiting >= self.queue_cap {
            drop(st);
            self.shed.inc();
            return Err(HatError::Overloaded { class: self.class });
        }
        st.waiting += 1;
        loop {
            // Re-read the bound each wake: a concurrent resize (widening
            // under an elastic decision, or disabling the gate outright)
            // must free queued waiters without waiting out their deadline.
            if st.in_flight < self.slots.load(Ordering::Relaxed) {
                st.in_flight += 1;
                st.waiting -= 1;
                drop(st);
                self.admitted.inc();
                self.queue_wait.record(start.elapsed().as_nanos() as u64);
                return Ok(AdmitPermit { gate: Some(self) });
            }
            // Sojourn-deadline shed: this waiter has been queued longer
            // than the budget a caller is willing to spend waiting.
            let Some(remaining) = self.deadline.checked_sub(start.elapsed()) else {
                st.waiting -= 1;
                drop(st);
                self.shed.inc();
                return Err(HatError::Overloaded { class: self.class });
            };
            self.cv.wait_for(&mut st, remaining);
        }
    }

    fn release(&self) {
        let mut st = self.state.lock();
        st.in_flight -= 1;
        drop(st);
        self.cv.notify_one();
    }

    /// Live-resizes the in-flight bound (`None` disables the gate). A
    /// narrower bound does not evict requests already inside — it holds
    /// new admissions until in-flight drains below it. A wider (or
    /// disabled) bound wakes every queued waiter so they re-check.
    fn set_slots(&self, slots: Option<u64>) {
        self.slots.store(slots.unwrap_or(SLOTS_DISABLED), Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// The current in-flight bound, `None` when the gate is disabled.
    fn current_slots(&self) -> Option<u64> {
        match self.slots.load(Ordering::Relaxed) {
            SLOTS_DISABLED => None,
            n => Some(n),
        }
    }
}

/// RAII admission slot: holding one means the request is inside the
/// engine; dropping it frees the slot and wakes one queued waiter.
pub struct AdmitPermit<'a> {
    gate: Option<&'a ClassGate>,
}

impl std::fmt::Debug for AdmitPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmitPermit")
            .field("class", &self.gate.map(|g| g.class))
            .finish()
    }
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            gate.release();
        }
    }
}

/// The kernel's front door: one [`ClassGate`] per request class, counters
/// registered in the kernel's metrics registry so admission telemetry
/// flows through `RowKernel::metrics` like everything else.
pub struct AdmissionController {
    txn: ClassGate,
    query: ClassGate,
}

impl AdmissionController {
    pub fn new(config: &AdmissionConfig, registry: &MetricsRegistry) -> Self {
        let gate = |class: &'static str,
                    slots: Option<u32>,
                    breaker: bool,
                    offered: &str,
                    admitted: &str,
                    shed: &str,
                    shed_breaker: &str,
                    queue_wait: &str| ClassGate {
            class,
            slots: AtomicU64::new(slots.map(u64::from).unwrap_or(SLOTS_DISABLED)),
            queue_cap: u64::from(config.queue_cap),
            deadline: config.queue_deadline,
            breaker,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            offered: registry.counter(offered),
            admitted: registry.counter(admitted),
            shed: registry.counter(shed),
            shed_breaker: registry.counter(shed_breaker),
            queue_wait: registry.histogram(queue_wait),
        };
        AdmissionController {
            txn: gate(
                "txn",
                config.txn_slots,
                true,
                names::ADMIT_TXN_OFFERED,
                names::ADMIT_TXN_ADMITTED,
                names::ADMIT_TXN_SHED,
                names::ADMIT_TXN_SHED_BREAKER,
                names::ADMIT_TXN_QUEUE_WAIT,
            ),
            query: gate(
                "query",
                config.query_slots,
                false,
                names::ADMIT_QUERY_OFFERED,
                names::ADMIT_QUERY_ADMITTED,
                names::ADMIT_QUERY_SHED,
                names::ADMIT_QUERY_SHED_BREAKER,
                names::ADMIT_QUERY_QUEUE_WAIT,
            ),
        }
    }

    /// Gate in front of `RowKernel::commit`. `healthy` is the storage
    /// health ladder's position (`HealthState::Healthy`); off-Healthy
    /// trips the write-class circuit breaker.
    pub fn admit_txn(&self, healthy: bool) -> Result<AdmitPermit<'_>> {
        self.txn.admit(healthy)
    }

    /// Gate in front of `HtapEngine::query`. Analytics admit regardless of
    /// storage health (reads keep serving while the WAL is degraded).
    pub fn admit_query(&self) -> Result<AdmitPermit<'_>> {
        self.query.admit(true)
    }

    /// Live-resizes the transactional in-flight bound (see
    /// [`ClassGate::set_slots`]): the elastic scheduler's handle for
    /// narrowing T-side concurrency when cores move to analytics.
    pub fn set_txn_slots(&self, slots: Option<u32>) {
        self.txn.set_slots(slots.map(u64::from));
    }

    /// Live-resizes the analytical in-flight bound.
    pub fn set_query_slots(&self, slots: Option<u32>) {
        self.query.set_slots(slots.map(u64::from));
    }

    /// The current transactional bound (`None` = gate disabled).
    pub fn txn_slots(&self) -> Option<u64> {
        self.txn.current_slots()
    }

    /// The current analytical bound (`None` = gate disabled).
    pub fn query_slots(&self) -> Option<u64> {
        self.query.current_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn controller(config: &AdmissionConfig) -> (AdmissionController, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        (AdmissionController::new(config, &registry), registry)
    }

    #[test]
    fn disabled_gate_admits_everything_and_counts_offered() {
        let (ctl, registry) = controller(&AdmissionConfig::default());
        for _ in 0..100 {
            let p = ctl.admit_txn(true).unwrap();
            drop(p);
            ctl.admit_query().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::ADMIT_TXN_OFFERED), 100);
        assert_eq!(snap.counter(names::ADMIT_TXN_ADMITTED), 100);
        assert_eq!(snap.counter(names::ADMIT_QUERY_ADMITTED), 100);
        assert_eq!(snap.counter(names::ADMIT_TXN_SHED), 0);
        // Disabled gates never trip the breaker, even unhealthy.
        ctl.admit_txn(false).unwrap();
    }

    #[test]
    fn queue_overflow_is_shed_as_overloaded() {
        let config = AdmissionConfig {
            txn_slots: Some(1),
            queue_cap: 0,
            queue_deadline: Duration::from_secs(5),
            ..AdmissionConfig::default()
        };
        let (ctl, registry) = controller(&config);
        let held = ctl.admit_txn(true).unwrap();
        // Slot taken, zero queue: the next request sheds immediately.
        let err = ctl.admit_txn(true).unwrap_err();
        assert_eq!(err, HatError::Overloaded { class: "txn" });
        assert!(err.is_retryable() && !err.is_commit_in_doubt());
        drop(held);
        ctl.admit_txn(true).unwrap();
        assert_eq!(registry.snapshot().counter(names::ADMIT_TXN_SHED), 1);
    }

    #[test]
    fn sojourn_deadline_sheds_queued_waiter() {
        let config = AdmissionConfig {
            txn_slots: Some(1),
            queue_cap: 8,
            queue_deadline: Duration::from_millis(20),
            ..AdmissionConfig::default()
        };
        let (ctl, registry) = controller(&config);
        let _held = ctl.admit_txn(true).unwrap();
        let start = Instant::now();
        let err = ctl.admit_txn(true).unwrap_err();
        assert_eq!(err, HatError::Overloaded { class: "txn" });
        // Waited out its deadline budget, then shed — not tail-dropped.
        assert!(start.elapsed() >= Duration::from_millis(20));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::ADMIT_TXN_SHED), 1);
        assert_eq!(snap.counter(names::ADMIT_TXN_ADMITTED), 1);
    }

    #[test]
    fn released_slot_wakes_queued_waiter_within_budget() {
        let config = AdmissionConfig {
            txn_slots: Some(1),
            queue_cap: 8,
            queue_deadline: Duration::from_secs(10),
            ..AdmissionConfig::default()
        };
        let (ctl, registry) = controller(&config);
        let ctl = Arc::new(ctl);
        let held = ctl.admit_txn(true).unwrap();
        let t = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                let p = ctl.admit_txn(true).unwrap();
                drop(p);
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        t.join().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::ADMIT_TXN_ADMITTED), 2);
        assert_eq!(snap.counter(names::ADMIT_TXN_SHED), 0);
        // The queued waiter's wait time landed in the histogram.
        let waits = snap.histogram(names::ADMIT_TXN_QUEUE_WAIT).unwrap();
        assert_eq!(waits.count, 2);
    }

    #[test]
    fn breaker_sheds_writes_but_not_queries_when_degraded() {
        let config = AdmissionConfig::bounded(4, 4);
        let (ctl, registry) = controller(&config);
        let err = ctl.admit_txn(false).unwrap_err();
        // Storage-cause shed: Degraded, not Overloaded, so operators and
        // the harness attribute it to the disk, not to traffic.
        assert_eq!(err, HatError::Degraded);
        ctl.admit_query().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::ADMIT_TXN_SHED_BREAKER), 1);
        assert_eq!(snap.counter(names::ADMIT_TXN_SHED), 0);
        assert_eq!(snap.counter(names::ADMIT_QUERY_ADMITTED), 1);
    }

    #[test]
    fn live_resize_narrows_widens_and_disables_the_bound() {
        let config = AdmissionConfig {
            txn_slots: Some(2),
            queue_cap: 0,
            queue_deadline: Duration::from_millis(10),
            ..AdmissionConfig::default()
        };
        let (ctl, _registry) = controller(&config);
        let a = ctl.admit_txn(true).unwrap();
        let b = ctl.admit_txn(true).unwrap();
        // Narrowing to 1 does not evict the two in flight, but a release
        // leaves the gate full (in_flight 1 == slots 1).
        ctl.set_txn_slots(Some(1));
        assert_eq!(ctl.txn_slots(), Some(1));
        drop(b);
        let err = ctl.admit_txn(true).unwrap_err();
        assert_eq!(err, HatError::Overloaded { class: "txn" });
        // Widening reopens admission immediately.
        ctl.set_txn_slots(Some(3));
        let c = ctl.admit_txn(true).unwrap();
        drop(c);
        drop(a);
        // Disabling makes the gate unbounded again.
        ctl.set_txn_slots(None);
        assert_eq!(ctl.txn_slots(), None);
        let permits: Vec<_> = (0..32).map(|_| ctl.admit_txn(true).unwrap()).collect();
        drop(permits);
    }

    #[test]
    fn widening_wakes_queued_waiters_before_their_deadline() {
        let config = AdmissionConfig {
            txn_slots: Some(1),
            queue_cap: 8,
            queue_deadline: Duration::from_secs(10),
            ..AdmissionConfig::default()
        };
        let (ctl, registry) = controller(&config);
        let ctl = Arc::new(ctl);
        let _held = ctl.admit_txn(true).unwrap();
        let t = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                let p = ctl.admit_txn(true).unwrap();
                drop(p);
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        // The waiter is queued behind the held slot; widening the bound
        // (an elastic decision granting T a core) must free it without
        // waiting for the holder to release.
        ctl.set_txn_slots(Some(2));
        t.join().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::ADMIT_TXN_ADMITTED), 2);
        assert_eq!(snap.counter(names::ADMIT_TXN_SHED), 0);
    }

    #[test]
    fn concurrency_never_exceeds_slots_under_contention() {
        let config = AdmissionConfig {
            txn_slots: Some(3),
            queue_cap: 64,
            queue_deadline: Duration::from_secs(10),
            ..AdmissionConfig::default()
        };
        let (ctl, _registry) = controller(&config);
        let ctl = Arc::new(ctl);
        let inside = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let (ctl, inside, peak) =
                    (Arc::clone(&ctl), Arc::clone(&inside), Arc::clone(&peak));
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let p = ctl.admit_txn(true).unwrap();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                        drop(p);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "in-flight bound violated");
    }
}
