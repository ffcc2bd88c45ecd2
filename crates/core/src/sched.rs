//! The elastic T/A core scheduler: policy for tick-granular worker
//! reassignment.
//!
//! The paper's throughput frontier is *descriptive* — every point is
//! measured under a fixed split of cores between the transactional and
//! analytical side, so the bounding box reflects a static allocation
//! that is wrong for most of a bursty run. "Adaptive HTAP through
//! Elastic Resource Scheduling" (PAPERS.md) shows that moving cores
//! between engines at fine granularity dominates any static split. This
//! module is the *policy* half of that idea: a seeded, deterministic
//! controller that reads one [`SchedSignal`] per tick and emits one
//! [`SchedDecision`] per tick. The *mechanism* half has two levers: on
//! the analytical side, [`CoreBudget`](hat_engine::CoreBudget) resizes
//! the worker cap that query probes obey; on the transactional side,
//! [`Harness::run_open_loop_sched`](crate::harness::Harness::run_open_loop_sched)
//! parks or unparks its commit workers. The engine has no T-side lever.
//!
//! # Control law
//!
//! The declarative target is "maximize analytical throughput subject to
//! the transactional side keeping up": T is *under pressure* when the
//! tick shed requests for overload reasons or the arrival queue exceeds
//! a high watermark; it is *calm* when nothing shed and the queue is
//! under a low watermark. Between the watermarks is a hysteresis band
//! where the controller holds.
//!
//! On the constrained (analytical) allocation the law is AIMD:
//!
//! * **Pressure ⇒ multiplicative decrease.** A's share halves
//!   (`a ← max(1, a/2)`) and the freed cores move to T at once — a
//!   burst must be answered in one or two ticks, not one core at a
//!   time.
//! * **Calm ⇒ additive increase, after a dwell.** Only after
//!   [`SchedTarget::dwell_ticks`] *consecutive* calm ticks does T give
//!   one core back (`a ← a + 1`), and the streak resets — so give-back
//!   is gradual and a single noisy tick restarts the wait. The dwell,
//!   together with the hysteresis band (which also resets the streak),
//!   is the anti-flap mechanism: under constant load the split changes
//!   a bounded number of times, then parks.
//!
//! Both sides always keep at least one core: an empty side cannot drain
//! its queue, so the controller could never observe it recover.
//!
//! # Determinism
//!
//! `step` is a pure function of the controller state and the signal —
//! no wall clock, no OS randomness, no map iteration. The seed's only
//! use is a one-time stagger of the *first* give-back dwell, so
//! co-scheduled controllers (e.g. a sweep of elastic runs) don't return
//! cores in lockstep with a periodic arrival schedule. Same seed + same
//! signal sequence ⇒ byte-identical decision trace, which is what the
//! determinism suite asserts.

use hat_common::rng::HatRng;

/// Per-tick signals the controller reads: the previous tick's outcome
/// cells and the arrival-queue depth at the tick boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSignal {
    /// Arrivals offered in the tick.
    pub offered: u64,
    /// In-deadline transactional completions in the tick.
    pub goodput: u64,
    /// Overload-cause sheds in the tick (queue overflow, stale sojourn).
    /// The strongest pressure signal: shedding means T is already
    /// failing its side of the target.
    pub shed: u64,
    /// Arrival-queue depth at the tick boundary (requests waiting for a
    /// T worker). The leading pressure signal: the queue grows before
    /// anything sheds.
    pub backlog: u64,
    /// Analytical queries finished in the tick.
    pub a_done: u64,
}

/// The declarative elastic target: a fixed core budget plus the
/// watermarks and dwell that define "T keeps up".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedTarget {
    /// Total cores split between T and A (`t + a = budget`, min 2).
    pub budget: u32,
    /// T never drops below this many cores (min 1).
    pub t_floor: u32,
    /// Queue backlog per T core above which T is under pressure.
    pub high_backlog_per_core: u64,
    /// Queue backlog per T core at or below which T is calm.
    pub low_backlog_per_core: u64,
    /// Consecutive calm ticks before one core is given back to A.
    pub dwell_ticks: u32,
}

impl Default for SchedTarget {
    fn default() -> Self {
        SchedTarget {
            budget: 4,
            t_floor: 1,
            high_backlog_per_core: 8,
            low_backlog_per_core: 2,
            dwell_ticks: 5,
        }
    }
}

impl SchedTarget {
    /// A target over `budget` cores with default watermarks.
    pub fn with_budget(budget: u32) -> Self {
        SchedTarget { budget: budget.max(2), ..SchedTarget::default() }
    }

    /// The target with fields forced into their valid ranges (budget
    /// ≥ 2, floor in `1..budget`, low ≤ high, dwell ≥ 1).
    pub fn normalized(&self) -> Self {
        let budget = self.budget.max(2);
        SchedTarget {
            budget,
            t_floor: self.t_floor.clamp(1, budget - 1),
            high_backlog_per_core: self.high_backlog_per_core.max(1),
            low_backlog_per_core: self
                .low_backlog_per_core
                .min(self.high_backlog_per_core.max(1)),
            dwell_ticks: self.dwell_ticks.max(1),
        }
    }
}

/// How a run assigns cores between the two populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Fixed split for the whole run — the paper's measurement mode.
    Static,
    /// Tick-granular elastic reassignment toward `target`.
    Elastic { target: SchedTarget },
    /// A fixed `(t_cores, budget - t_cores)` split running the *same*
    /// dual-population driver as `Elastic` — T workers parked past
    /// `t_cores`, one analytical driver capped at the remainder — but
    /// with the controller never stepping. The eligible static arm every
    /// elastic-vs-static comparison is judged against: it does real
    /// analytical work, so "elastic beats the best static split on
    /// goodput at equal-or-better freshness" is a like-for-like claim.
    Pinned { budget: u32, t_cores: u32 },
}

impl SchedPolicy {
    /// The elastic target, if any. `Pinned` is not elastic: it shares
    /// the driver but has no controller, so no target.
    pub fn target(&self) -> Option<SchedTarget> {
        match self {
            SchedPolicy::Static | SchedPolicy::Pinned { .. } => None,
            SchedPolicy::Elastic { target } => Some(*target),
        }
    }

    /// The fixed split of a `Pinned` policy, normalized so both sides
    /// keep at least one core of a budget of at least two.
    pub fn pinned_split(&self) -> Option<(u32, u32)> {
        match *self {
            SchedPolicy::Pinned { budget, t_cores } => {
                let budget = budget.max(2);
                let t = t_cores.clamp(1, budget - 1);
                Some((t, budget - t))
            }
            _ => None,
        }
    }
}

/// Why the controller chose a split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedReason {
    /// The initial split before any signal.
    Init,
    /// No change: in the hysteresis band, or calm but still dwelling.
    Hold,
    /// T under pressure: A halved, freed cores moved to T.
    Pressure,
    /// T under pressure but A already at one core — nothing to take.
    Saturated,
    /// Calm dwell expired: one core returned to A.
    GiveBack,
}

impl SchedReason {
    pub fn label(self) -> &'static str {
        match self {
            SchedReason::Init => "init",
            SchedReason::Hold => "hold",
            SchedReason::Pressure => "pressure",
            SchedReason::Saturated => "saturated",
            SchedReason::GiveBack => "giveback",
        }
    }

    pub fn from_label(s: &str) -> Option<SchedReason> {
        match s {
            "init" => Some(SchedReason::Init),
            "hold" => Some(SchedReason::Hold),
            "pressure" => Some(SchedReason::Pressure),
            "saturated" => Some(SchedReason::Saturated),
            "giveback" => Some(SchedReason::GiveBack),
            _ => None,
        }
    }
}

/// One per-tick allocation decision — the unit of the run's allocation
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedDecision {
    /// The tick this split takes effect in.
    pub tick: u32,
    pub t_cores: u32,
    pub a_cores: u32,
    pub reason: SchedReason,
}

impl SchedDecision {
    /// Canonical one-line rendering; the determinism suite compares
    /// traces through this, byte for byte.
    pub fn line(&self) -> String {
        format!(
            "tick={} t={} a={} reason={}",
            self.tick,
            self.t_cores,
            self.a_cores,
            self.reason.label()
        )
    }
}

/// Renders a whole decision trace as one newline-joined string (the
/// byte-identity unit for determinism tests and failure artifacts).
pub fn trace_lines(decisions: &[SchedDecision]) -> String {
    let mut out = String::new();
    for d in decisions {
        out.push_str(&d.line());
        out.push('\n');
    }
    out
}

/// The AIMD + hysteresis + dwell controller. See the module docs for
/// the control law; see [`ElasticController::step`] for the per-tick
/// contract.
#[derive(Debug, Clone)]
pub struct ElasticController {
    target: SchedTarget,
    t_cores: u32,
    a_cores: u32,
    /// Consecutive calm ticks; reset by pressure, by the hysteresis
    /// band, and by every give-back.
    calm_streak: u32,
    /// Seeded one-time extension of the first dwell (anti-lockstep; see
    /// module docs). Consumed by the first give-back.
    first_dwell_bonus: u32,
    ticks_seen: u32,
}

impl ElasticController {
    /// A controller at its initial split: the budget divided as evenly
    /// as possible with the extra core on T (matching
    /// [`CoreBudget::new`](hat_engine::CoreBudget::new)).
    pub fn new(target: SchedTarget, seed: u64) -> Self {
        let target = target.normalized();
        let a = target.budget / 2;
        let t = target.budget - a;
        let mut rng = HatRng::derive(seed, 0x5CED);
        ElasticController {
            target,
            t_cores: t.max(target.t_floor),
            a_cores: target.budget - t.max(target.t_floor),
            calm_streak: 0,
            first_dwell_bonus: rng.range_u32(0, target.dwell_ticks - 1),
            ticks_seen: 0,
        }
    }

    /// The normalized target in force.
    pub fn target(&self) -> &SchedTarget {
        &self.target
    }

    /// The current `(t_cores, a_cores)` split.
    pub fn split(&self) -> (u32, u32) {
        (self.t_cores, self.a_cores)
    }

    /// The decision for tick 0 — the initial split, before any signal.
    pub fn initial_decision(&self) -> SchedDecision {
        SchedDecision {
            tick: 0,
            t_cores: self.t_cores,
            a_cores: self.a_cores,
            reason: SchedReason::Init,
        }
    }

    /// Consumes the signal of the just-finished tick and returns the
    /// split for the next one. Pure in (state, signal): no clock, no
    /// ambient randomness. `decision.tick` numbers the tick the split
    /// takes effect in (one past the signal's tick).
    pub fn step(&mut self, sig: &SchedSignal) -> SchedDecision {
        self.ticks_seen += 1;
        let tick = self.ticks_seen;
        let high = self.target.high_backlog_per_core * u64::from(self.t_cores);
        let low = self.target.low_backlog_per_core * u64::from(self.t_cores);
        let pressure = sig.shed > 0 || sig.backlog > high;
        let calm = sig.shed == 0 && sig.backlog <= low;
        let reason = if pressure {
            self.calm_streak = 0;
            if self.a_cores > 1 {
                let a = (self.a_cores / 2).max(1);
                self.a_cores = a;
                self.t_cores = self.target.budget - a;
                SchedReason::Pressure
            } else {
                SchedReason::Saturated
            }
        } else if calm {
            self.calm_streak += 1;
            let dwell = self.target.dwell_ticks + self.first_dwell_bonus;
            if self.calm_streak >= dwell && self.t_cores > self.target.t_floor {
                self.calm_streak = 0;
                self.first_dwell_bonus = 0;
                self.t_cores -= 1;
                self.a_cores += 1;
                SchedReason::GiveBack
            } else {
                SchedReason::Hold
            }
        } else {
            // Hysteresis band: neither shrinking nor growing, and the
            // calm streak restarts — a borderline tick must not count
            // toward a give-back.
            self.calm_streak = 0;
            SchedReason::Hold
        };
        SchedDecision { tick, t_cores: self.t_cores, a_cores: self.a_cores, reason }
    }

    /// Runs the controller over a whole signal sequence, returning the
    /// full decision trace (initial decision included). The simulation
    /// entry point for determinism and anti-flap tests.
    pub fn simulate(target: SchedTarget, seed: u64, signals: &[SchedSignal]) -> Vec<SchedDecision> {
        let mut ctl = ElasticController::new(target, seed);
        let mut out = Vec::with_capacity(signals.len() + 1);
        out.push(ctl.initial_decision());
        for sig in signals {
            out.push(ctl.step(sig));
        }
        out
    }
}

/// Number of split *changes* in a decision trace (ticks where the
/// allocation differs from the previous tick's).
pub fn split_changes(decisions: &[SchedDecision]) -> usize {
    decisions
        .windows(2)
        .filter(|w| (w[0].t_cores, w[0].a_cores) != (w[1].t_cores, w[1].a_cores))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm() -> SchedSignal {
        SchedSignal { offered: 10, goodput: 10, shed: 0, backlog: 0, a_done: 3 }
    }

    fn pressured() -> SchedSignal {
        SchedSignal { offered: 100, goodput: 20, shed: 30, backlog: 64, a_done: 0 }
    }

    #[test]
    fn pressure_halves_analytics_and_floors_at_one() {
        let mut ctl = ElasticController::new(SchedTarget::with_budget(8), 1);
        assert_eq!(ctl.split(), (4, 4));
        let d = ctl.step(&pressured());
        assert_eq!((d.t_cores, d.a_cores), (6, 2));
        assert_eq!(d.reason, SchedReason::Pressure);
        let d = ctl.step(&pressured());
        assert_eq!((d.t_cores, d.a_cores), (7, 1));
        // A is at its floor: further pressure has nothing to take.
        let d = ctl.step(&pressured());
        assert_eq!((d.t_cores, d.a_cores), (7, 1));
        assert_eq!(d.reason, SchedReason::Saturated);
    }

    #[test]
    fn giveback_is_additive_and_gated_by_dwell() {
        let target = SchedTarget { dwell_ticks: 3, ..SchedTarget::with_budget(4) };
        // Seed chosen so the first-dwell bonus is exercised but we only
        // assert structural properties below; the trace itself is pinned
        // by the determinism suite.
        let mut ctl = ElasticController::new(target, 7);
        let (t0, a0) = ctl.split();
        assert_eq!(t0 + a0, 4);
        let mut gave_back_at = Vec::new();
        for i in 0..20 {
            let d = ctl.step(&calm());
            if d.reason == SchedReason::GiveBack {
                gave_back_at.push(i);
            }
        }
        // t starts at 2 with floor 1: exactly one core to give back.
        assert_eq!(gave_back_at.len(), 1);
        assert_eq!(ctl.split(), (1, 3));
        // And it took at least the dwell to happen.
        assert!(gave_back_at[0] >= 2, "gave back before the dwell: {gave_back_at:?}");
    }

    #[test]
    fn hysteresis_band_holds_and_resets_the_streak() {
        let target = SchedTarget {
            dwell_ticks: 2,
            low_backlog_per_core: 1,
            high_backlog_per_core: 100,
            ..SchedTarget::with_budget(4)
        };
        let mut ctl = ElasticController::new(target, 3);
        // Backlog between low (t*1) and high (t*100): always Hold, and
        // interleaving band ticks with calm ticks never accumulates a
        // streak long enough to give back.
        let band = SchedSignal { backlog: 50, ..calm() };
        for _ in 0..30 {
            assert_eq!(ctl.step(&band).reason, SchedReason::Hold);
            assert_eq!(ctl.step(&calm()).reason, SchedReason::Hold);
        }
        assert_eq!(ctl.split(), (2, 2), "band ticks must not feed the dwell");
    }

    #[test]
    fn same_seed_same_signals_byte_identical_trace() {
        let signals: Vec<SchedSignal> = (0..200)
            .map(|i| {
                if (40..60).contains(&i) || (120..140).contains(&i) {
                    pressured()
                } else {
                    calm()
                }
            })
            .collect();
        let target = SchedTarget::with_budget(6);
        let a = trace_lines(&ElasticController::simulate(target, 42, &signals));
        let b = trace_lines(&ElasticController::simulate(target, 42, &signals));
        let c = trace_lines(&ElasticController::simulate(target, 42, &signals));
        assert_eq!(a, b);
        assert_eq!(b, c);
        // A different seed may stagger the first give-back differently,
        // but the law itself is seed-independent: same split totals.
        let d = ElasticController::simulate(target, 43, &signals);
        assert!(d.iter().all(|x| x.t_cores + x.a_cores == 6));
    }

    #[test]
    fn anti_flap_bounded_changes_under_constant_load() {
        let target = SchedTarget::with_budget(8);
        // Constant calm load: the split walks monotonically to the
        // floor then parks — at most budget-1 changes, ever.
        let calm_signals = vec![calm(); 100];
        let trace = ElasticController::simulate(target, 9, &calm_signals);
        assert!(
            split_changes(&trace) <= 7,
            "calm flaps: {}",
            split_changes(&trace)
        );
        // Constant overload: halves to the floor then parks — at most
        // log2(budget) changes.
        let hot_signals = vec![pressured(); 100];
        let trace = ElasticController::simulate(target, 9, &hot_signals);
        assert!(split_changes(&trace) <= 3, "hot flaps: {}", split_changes(&trace));
        // The tail of both traces is completely flat.
        let tail = &trace[60..];
        assert_eq!(split_changes(tail), 0, "split still moving under constant load");
    }

    #[test]
    fn normalization_and_labels_round_trip() {
        let t = SchedTarget {
            budget: 0,
            t_floor: 99,
            high_backlog_per_core: 0,
            low_backlog_per_core: 50,
            dwell_ticks: 0,
        }
        .normalized();
        assert_eq!(t.budget, 2);
        assert_eq!(t.t_floor, 1);
        assert!(t.low_backlog_per_core <= t.high_backlog_per_core);
        assert_eq!(t.dwell_ticks, 1);
        for r in [
            SchedReason::Init,
            SchedReason::Hold,
            SchedReason::Pressure,
            SchedReason::Saturated,
            SchedReason::GiveBack,
        ] {
            assert_eq!(SchedReason::from_label(r.label()), Some(r));
        }
        assert_eq!(SchedReason::from_label("bogus"), None);
        assert_eq!(SchedPolicy::Static.target(), None);
        assert!(SchedPolicy::Elastic { target: SchedTarget::default() }
            .target()
            .is_some());
    }
}
