//! Elastic T/A core scheduler suite.
//!
//! The paper's frontier is *descriptive*: every point holds a fixed
//! split of cores between the transactional and analytical populations,
//! so the whole chart is a menu of static allocations. The elastic
//! scheduler (`hattrick::sched`) turns the split into a *control*
//! variable, reassigning a fixed core budget at tick granularity. These
//! tests check the contract end to end:
//!
//! 1. **Determinism** — the controller is pure in (state, signal): the
//!    same seed and the same arrival schedule produce a byte-identical
//!    decision trace, run after run.
//! 2. **Anti-flap** — under constant load (calm or hot) the split moves
//!    a bounded number of times and then parks; a hysteresis band tick
//!    never counts toward a give-back.
//! 3. **The frontier push** — on the step-burst schedule, the elastic
//!    run beats every *eligible* static split: ≥15% more goodput than
//!    the static split with equal analytical allocation, and strictly
//!    more analytical allocation than the static split with equal
//!    goodput. A static point can have one or the other; elastic has
//!    both, which is exactly "outside the static frontier".
//! 4. **Trace structure** — the burst shows up in the decision trace as
//!    a pressure move, the calm aftermath as a give-back, and the
//!    artifact's `sched.t_cores`/`sched.a_cores` gauges always sum to
//!    the budget.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use hattrick_repro::bench::gen::{generate, ScaleFactor};
use hattrick_repro::bench::harness::{
    BenchmarkConfig, Harness, OpenLoopMeasurement, RetryBudgetConfig, RetryPolicy,
    TimeSeriesSample,
};
use hattrick_repro::bench::openloop::{arrival_schedule, ArrivalShape, OpenLoopConfig};
use hattrick_repro::bench::sched::{
    split_changes, trace_lines, ElasticController, SchedPolicy, SchedReason,
    SchedSignal, SchedTarget,
};
use hattrick_repro::bench::report;
use hattrick_repro::common::telemetry::names;
use hattrick_repro::engine::{EngineConfig, ShdEngine};

/// Tick layout of the elastic step schedule: a calm lead-in, a long 10×
/// burst (half the run — the regime a static split must be wrong for),
/// and a calm tail for the give-back.
const TICK: Duration = Duration::from_millis(10);
const TICKS: u32 = 60;
const BURST_FROM: u32 = 15;
const BURST_UNTIL: u32 = 45;

/// The controller works over 4 cores with a T floor of 2: the split
/// walks between (2,2) in calm and (3,1) under pressure, so both
/// pinned comparison arms are one reassignment away.
const BUDGET: u32 = 4;
const SERVICE_PAD: Duration = Duration::from_millis(1);
const DEADLINE: Duration = Duration::from_millis(25);

fn sched_target() -> SchedTarget {
    SchedTarget { budget: BUDGET, t_floor: 2, ..SchedTarget::default() }
}

/// Offered base load: 50% of a two-worker pool's *measured* capacity —
/// calm at the (2,2) split, ~5× over it during the burst. Measured again
/// by every attempt, right before the runs it sizes (same approach as
/// tests/overload.rs), so the ratios hold across debug/release builds
/// and machine speeds.
fn base_rate() -> f64 {
    common::base_rate(2, SERVICE_PAD)
}

/// Serializes the open-loop runs (wall-clock-sensitive; see
/// tests/overload.rs for the rationale).
static DRIVER: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    DRIVER.lock().unwrap_or_else(|e| e.into_inner())
}

fn sched_harness() -> Harness {
    let data = generate(ScaleFactor(0.001), 0xD5);
    let engine = ShdEngine::new(EngineConfig::default());
    data.load_into(&engine).unwrap();
    Harness::new(
        Arc::new(engine),
        data.profile.clone(),
        BenchmarkConfig {
            seed: 0xBEEF,
            retry: RetryPolicy {
                budget: Some(RetryBudgetConfig { cap: 50, refill_per_success: 0.1 }),
                ..RetryPolicy::default()
            },
            ..BenchmarkConfig::default()
        },
    )
}

fn step_config(arrival_rate: f64) -> OpenLoopConfig {
    OpenLoopConfig {
        arrival_rate,
        shape: ArrivalShape::Step {
            mult: 10.0,
            from_tick: BURST_FROM,
            until_tick: BURST_UNTIL,
        },
        deadline: DEADLINE,
        // Ignored by elastic/pinned runs (the budget is the capacity
        // knob); used by none of the arms here.
        workers: 4,
        queue_cap: 4096,
        ticks: TICKS,
        tick: TICK,
        service_pad: SERVICE_PAD,
    }
}

fn run(step: &OpenLoopConfig, policy: &SchedPolicy) -> OpenLoopMeasurement {
    sched_harness().run_open_loop_sched(step, policy).unwrap()
}

/// Replays the seeded arrival schedule through a fixed, deterministic
/// queueing model (capacity per tick, bounded queue) to produce the
/// signal sequence a live run would approximately see — the input for
/// pure-simulation determinism checks, immune to thread timing.
fn modeled_signals(ol: &OpenLoopConfig, seed: u64) -> Vec<SchedSignal> {
    let schedule = arrival_schedule(ol, seed);
    let (cap_per_tick, queue_cap) = (40u64, 200u64);
    let mut backlog = 0u64;
    schedule
        .iter()
        .map(|&n| {
            let avail = backlog + n;
            let served = avail.min(cap_per_tick);
            backlog = avail - served;
            let shed = backlog.saturating_sub(queue_cap);
            backlog -= shed;
            SchedSignal { offered: n, goodput: served, shed, backlog, a_done: 1 }
        })
        .collect()
}

#[test]
fn controller_trace_is_byte_identical_across_runs() {
    // Same seed, same arrival schedule, three independent simulations:
    // the decision traces agree byte for byte. This is the determinism
    // contract `SchedDecision::line` exists for.
    let ol = step_config(base_rate());
    let signals = modeled_signals(&ol, 0xBEEF);
    let target = sched_target();
    let traces: Vec<String> = (0..3)
        .map(|_| trace_lines(&ElasticController::simulate(target, 0xBEEF, &signals)))
        .collect();
    assert_eq!(traces[0], traces[1]);
    assert_eq!(traces[1], traces[2]);
    assert!(!traces[0].is_empty());

    // A different arrival seed changes the schedule and hence (via the
    // model) the signals — but never the invariants: every decision
    // still sums to the budget and starts from the same split.
    let other = ElasticController::simulate(target, 0xBEEF, &modeled_signals(&ol, 0xF00D));
    assert!(other.iter().all(|d| d.t_cores + d.a_cores == BUDGET));
    assert_eq!(other[0].reason, SchedReason::Init);
}

#[test]
fn anti_flap_bounds_reassignments_under_constant_load() {
    // Property over many controller seeds: 100 ticks of constant load
    // (calm or hot) move the split a bounded number of times, and the
    // tail is flat — the dwell + hysteresis anti-flap contract.
    let target = SchedTarget::with_budget(8);
    let calm = SchedSignal { offered: 10, goodput: 10, shed: 0, backlog: 0, a_done: 2 };
    let hot = SchedSignal { offered: 400, goodput: 40, shed: 90, backlog: 900, a_done: 0 };
    for seed in 0..32u64 {
        for (label, sig, bound) in [("calm", calm, 7usize), ("hot", hot, 3usize)] {
            let trace = ElasticController::simulate(target, seed, &vec![sig; 100]);
            let changes = split_changes(&trace);
            assert!(
                changes <= bound,
                "seed {seed}: {label} load flapped {changes} times (bound {bound})"
            );
            assert_eq!(
                split_changes(&trace[60..]),
                0,
                "seed {seed}: {label} split still moving after convergence"
            );
        }
    }
}

#[test]
fn elastic_pushes_the_frontier_past_every_pinned_split() {
    let _x = exclusive();
    common::with_noise_retries(frontier_push_case);
}

fn frontier_push_case() {
    let target = sched_target();
    let step = step_config(base_rate());
    let elastic = run(&step, &SchedPolicy::Elastic { target });
    // The two eligible static splits of the same budget: the one that
    // matches elastic's calm analytical allocation, and the one that
    // matches its burst-time serving capacity.
    let even = run(&step, &SchedPolicy::Pinned { budget: BUDGET, t_cores: 2 });
    let t_heavy = run(&step, &SchedPolicy::Pinned { budget: BUDGET, t_cores: 3 });

    // Same seed ⇒ identical offered schedules across all three arms.
    let offered = |m: &OpenLoopMeasurement| -> Vec<u64> {
        m.ticks.iter().map(|t| t.offered).collect()
    };
    assert_eq!(offered(&elastic), offered(&even));
    assert_eq!(offered(&elastic), offered(&t_heavy));

    // Mean analytical allocation over the run, from the decision trace.
    let mean_a = |m: &OpenLoopMeasurement| -> f64 {
        m.decisions.iter().map(|d| f64::from(d.a_cores)).sum::<f64>()
            / m.decisions.len() as f64
    };

    // vs the even split (equal-or-better analytical allocation than
    // elastic at every calm tick): the burst is where it is wrong, and
    // elastic must convert the reassigned core into ≥15% more goodput.
    assert!(
        elastic.goodput() as f64 >= 1.15 * even.goodput() as f64,
        "elastic goodput {} must beat the even pinned split {} by ≥15%",
        elastic.goodput(),
        even.goodput()
    );

    // vs the T-heavy split (equal serving capacity during the burst):
    // elastic must not give up meaningful goodput for its analytical
    // gains...
    assert!(
        elastic.goodput() as f64 >= 0.85 * t_heavy.goodput() as f64,
        "elastic goodput {} gave up too much vs T-heavy pinned {}",
        elastic.goodput(),
        t_heavy.goodput()
    );
    // ...while holding strictly more analytical allocation (the calm
    // majority of the run sits at (2,2) vs pinned (3,1)).
    assert!(
        mean_a(&elastic) >= 1.3 && (mean_a(&t_heavy) - 1.0).abs() < 1e-9,
        "elastic mean a_cores {:.2} must exceed the T-heavy split's 1.0",
        mean_a(&elastic)
    );
    // The analytical side did real work under the moving cap.
    assert!(elastic.a_queries() > 0, "elastic analytical driver ran");

    // The report line carries the same story.
    let line = report::sched_line(&elastic.point.metrics).expect("elastic runs report");
    assert!(line.contains("decisions"), "{line}");
    assert_eq!(
        elastic.point.metrics.counter(names::SCHED_A_QUERIES),
        elastic.a_queries()
    );
}

#[test]
fn elastic_trace_follows_the_burst_and_lands_in_the_artifact() {
    let _x = exclusive();
    common::with_noise_retries(trace_structure_case);
}

fn trace_structure_case() {
    let target = sched_target();
    let step = step_config(base_rate());
    let m = run(&step, &SchedPolicy::Elastic { target });

    // One decision per tick, numbered by the tick it takes effect in.
    assert_eq!(m.decisions.len(), TICKS as usize);
    for (k, d) in m.decisions.iter().enumerate() {
        assert_eq!(d.tick as usize, k);
        assert_eq!(d.t_cores + d.a_cores, BUDGET, "budget conserved at tick {k}");
    }
    assert_eq!(m.decisions[0].reason, SchedReason::Init);

    // The burst forces at least one pressure move inside the burst
    // window (plus one tick of signal latency), and the controller ends
    // T-heavy at some point in it.
    let burst = &m.decisions[BURST_FROM as usize..=BURST_UNTIL as usize];
    assert!(
        burst.iter().any(|d| d.reason == SchedReason::Pressure),
        "a 10x burst must register as pressure: {}",
        trace_lines(&m.decisions)
    );
    assert!(
        burst.iter().any(|d| d.t_cores == BUDGET - 1),
        "the controller must reach the T-heavy split during the burst"
    );
    // The calm tail gives the core back (dwell ≤ 2×dwell_ticks after
    // the burst, first-dwell bonus already consumed or not needed).
    let tail = &m.decisions[(BURST_UNTIL + 2 * target.dwell_ticks) as usize..];
    assert!(
        tail.iter().any(|d| d.a_cores == 2),
        "the calm tail must give the core back: {}",
        trace_lines(&m.decisions)
    );
    // Anti-flap held live, not just in simulation.
    assert!(
        split_changes(&m.decisions) <= 8,
        "live run flapped: {}",
        trace_lines(&m.decisions)
    );

    // The allocation trace rides the timeseries into the artifact as
    // the `sched.*` split gauges, which static runs do not carry.
    let split = |s: &TimeSeriesSample| {
        (s.metrics.gauge(names::SCHED_T_CORES), s.metrics.gauge(names::SCHED_A_CORES))
    };
    assert_eq!(m.point.timeseries.len(), TICKS as usize);
    for (s, d) in m.point.timeseries.iter().zip(&m.decisions) {
        assert_eq!(split(s), (u64::from(d.t_cores), u64::from(d.a_cores)));
    }
    assert_eq!(m.point.a_clients, 1);
    let static_m = sched_harness().run_open_loop(&step).unwrap();
    assert!(static_m.point.timeseries.iter().all(|s| split(s) == (0, 0)));
    assert!(static_m.decisions.is_empty());
    assert!(report::sched_line(&static_m.point.metrics).is_none());
}

#[test]
fn pinned_runs_carry_a_constant_trace_and_budget_is_validated() {
    let _x = exclusive();
    let step = step_config(base_rate());
    let m = run(&step, &SchedPolicy::Pinned { budget: BUDGET, t_cores: 3 });
    assert_eq!(m.decisions.len(), TICKS as usize);
    assert!(m.decisions.iter().all(|d| (d.t_cores, d.a_cores) == (3, 1)));
    assert_eq!(split_changes(&m.decisions), 0);
    assert_eq!(m.point.a_clients, 1);
    // The analytical side is the point driver's own client: its queries
    // are scored for freshness (always zero on the shared engine) and
    // carry per-query latencies.
    assert!(!m.point.freshness.is_empty(), "pinned run scored no freshness");
    assert!(m.point.freshness.iter().all(|&f| f == 0.0), "{:?}", m.point.freshness);
    assert_eq!(m.point.freshness.len() as u64, m.point.queries());
    assert!(!m.point.query_latency().is_empty(), "pinned run recorded no query latency");

    // An out-of-range budget is a typed config error, not a panic.
    let err = sched_harness()
        .run_open_loop_sched(
            &step,
            &SchedPolicy::Elastic { target: SchedTarget::with_budget(65) },
        )
        .unwrap_err();
    assert!(
        matches!(err, hattrick_repro::common::HatError::InvalidConfig(_)),
        "got {err:?}"
    );
    let err = sched_harness()
        .run_open_loop_sched(
            &step,
            &SchedPolicy::Pinned { budget: 65, t_cores: 60 },
        )
        .unwrap_err();
    assert!(
        matches!(err, hattrick_repro::common::HatError::InvalidConfig(_)),
        "got {err:?}"
    );
}
