//! Open-loop overload and metastable-failure suite.
//!
//! The closed-loop harness structurally cannot observe overload: τ
//! clients each wait for their previous request, so offered load tracks
//! capacity by construction. These tests drive the open-loop driver
//! (`Harness::run_open_loop`) where offered load is an *input*, and check
//! the overload contract end to end:
//!
//! 1. **Predictable shedding** — a seeded 10× step burst sheds for
//!    overload reasons (bounded queue, stale sojourn), never silently,
//!    and never attributed to storage. The harness queue is the only
//!    overload gate: the engine admits every request its workers hand it
//!    and sheds only for storage health.
//! 2. **Bounded sojourn for admitted work** — requests that actually
//!    execute have p99 enqueue-to-completion time bounded near the
//!    deadline budget: the CoDel-style stale shed at dequeue keeps the
//!    service pool from wasting time on work whose client already left.
//! 3. **Goodput recovery** — with the shared retry budget armed, goodput
//!    returns to ≥90% of the pre-burst baseline within a fixed number of
//!    ticks after the burst ends.
//! 4. **Metastable control arm** — the *same* schedule with the budget
//!    off and a generous per-client attempt cap keeps feeding its own
//!    backlog with retries of timed-out (often already-committed) work,
//!    and demonstrably fails to recover in the same window — the
//!    metastable failure the budget exists to prevent.
//!
//! Everything is seeded; `service_pad` plus a capacity calibration taken
//! right before each experiment pin the offered-load ratios so they hold
//! across hardware and debug/release builds.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use hattrick_repro::bench::gen::{generate, ScaleFactor};
use hattrick_repro::bench::harness::{
    BenchmarkConfig, Harness, OpenLoopMeasurement, RetryBudgetConfig, RetryPolicy,
    TimeSeriesSample,
};
use hattrick_repro::bench::openloop::{ArrivalShape, OpenLoopConfig};
use hattrick_repro::bench::report;
use hattrick_repro::common::telemetry::names;
use hattrick_repro::engine::{EngineConfig, ShdEngine};

/// Tick layout of the step-overload schedule: base load, a 10× burst,
/// then a recovery window in which goodput must return.
const TICK: Duration = Duration::from_millis(10);
const TICKS: u32 = 60;
const BURST_FROM: u32 = 20;
const BURST_UNTIL: u32 = 35;
/// Ticks granted for the system to work off the burst before the
/// recovery window where goodput is judged.
const SETTLE_TICKS: u32 = 5;

/// The pad floors per-request service time at 1ms so serving capacity
/// is mostly machine-independent; the calibration below absorbs what
/// the engine itself adds (which dwarfs the pad in debug builds on slow
/// hardware).
const WORKERS: u32 = 4;
const SERVICE_PAD: Duration = Duration::from_millis(1);
const DEADLINE: Duration = Duration::from_millis(25);

/// Offered base load: 50% of the worker pool's *measured* capacity, so
/// the load ratios that drive every assertion (base ≈ 0.5×, burst ≈ 5×
/// capacity) hold across debug/release builds and machine speeds.
/// Measured again by every attempt, right before the runs it sizes.
fn base_rate() -> f64 {
    common::base_rate(WORKERS, SERVICE_PAD)
}

/// Serializes the open-loop runs: each drives a worker pool plus a
/// generator against wall-clock deadlines, so two tests sharing cores
/// would perturb each other's timing. (Sibling test *binaries* already
/// run sequentially; this guards the threads within this one.)
static DRIVER: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    DRIVER.lock().unwrap_or_else(|e| e.into_inner())
}

fn overload_harness(retry: RetryPolicy) -> Harness {
    let data = generate(ScaleFactor(0.001), 0xD5);
    let engine = ShdEngine::new(EngineConfig::default());
    data.load_into(&engine).unwrap();
    Harness::new(
        Arc::new(engine),
        data.profile.clone(),
        BenchmarkConfig { seed: 0xBEEF, retry, ..BenchmarkConfig::default() },
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
        workers: WORKERS,
        queue_cap: 4096,
        ticks: TICKS,
        tick: TICK,
        service_pad: SERVICE_PAD,
    }
}

/// Both arms use the same generous per-client attempt cap — real clients
/// retry nearly indefinitely, and per-client caps are exactly the
/// protection that does NOT compose under overload (every client fails
/// at once). The shared budget is the only difference between the arms.
const CLIENT_ATTEMPTS: u32 = 200;

fn budget_policy() -> RetryPolicy {
    RetryPolicy {
        budget: Some(RetryBudgetConfig { cap: 50, refill_per_success: 0.1 }),
        max_attempts: CLIENT_ATTEMPTS,
        ..RetryPolicy::default()
    }
}

fn unbudgeted_policy() -> RetryPolicy {
    RetryPolicy { budget: None, max_attempts: CLIENT_ATTEMPTS, ..RetryPolicy::default() }
}

/// Sums `f` over the ticks in `[from, until)`.
fn window(m: &OpenLoopMeasurement, from: u32, until: u32, f: fn(&hattrick_repro::bench::openloop::OpenLoopTick) -> u64) -> u64 {
    m.ticks
        .iter()
        .filter(|t| t.tick >= from && t.tick < until)
        .map(f)
        .sum()
}

#[test]
fn step_burst_sheds_predictably_and_recovers_with_budget() {
    let _x = exclusive();
    common::with_noise_retries(step_burst_case);
}

fn step_burst_case() {
    let harness = overload_harness(budget_policy());
    let m = harness.run_open_loop(&step_config(base_rate())).unwrap();

    // The schedule really is a step: burst ticks offer ~10x base ticks.
    let base_offered = window(&m, 0, BURST_FROM, |t| t.offered);
    let burst_offered = window(&m, BURST_FROM, BURST_UNTIL, |t| t.offered);
    let per_tick_base = base_offered as f64 / BURST_FROM as f64;
    let per_tick_burst = burst_offered as f64 / (BURST_UNTIL - BURST_FROM) as f64;
    assert!(
        per_tick_burst > 5.0 * per_tick_base,
        "burst must dwarf base: {per_tick_burst:.0}/tick vs {per_tick_base:.0}/tick"
    );

    // 1. The burst sheds, and sheds are attributed to overload — not to
    //    storage (the disk is healthy the whole run).
    let burst_shed = window(&m, BURST_FROM, BURST_UNTIL + SETTLE_TICKS, |t| {
        t.shed_overload()
    });
    assert!(
        burst_shed > 0,
        "a 5x-over-capacity burst must shed (shed {burst_shed})"
    );
    assert_eq!(m.shed_degraded(), 0, "healthy disk: no storage-cause sheds");

    // Baseline ticks don't shed: the base rate is ~50% of pinned
    // capacity. (Allow stragglers in the very first tick while worker
    // threads spin up.)
    let pre_burst_shed = window(&m, 2, BURST_FROM, |t| t.shed_total());
    let pre_burst_offered = window(&m, 2, BURST_FROM, |t| t.offered);
    assert!(
        (pre_burst_shed as f64) < 0.05 * pre_burst_offered as f64,
        "under-capacity base load must not shed ({pre_burst_shed} of {pre_burst_offered})"
    );

    // 2. Sojourn of *executed* requests is bounded: the stale shed at
    //    dequeue means nothing waits longer than the deadline budget and
    //    then still runs, so even through the burst p99 stays within ~2×
    //    the deadline (service time + scheduling slack) instead of the
    //    unbounded queueing delay an ungated system would show.
    assert!(!m.sojourn.is_empty());
    let p99_ms = m.sojourn.quantile(0.99) as f64 / 1e6;
    let bound_ms = (2 * DEADLINE).as_secs_f64() * 1e3;
    assert!(
        p99_ms <= bound_ms,
        "p99 sojourn {p99_ms:.1}ms must stay under {bound_ms:.1}ms"
    );

    // 3. Goodput recovery: after the burst (plus settle ticks), the
    //    within-deadline completion rate returns to ≥90% of the
    //    pre-burst baseline — the system did not stay collapsed.
    let goodput_ratio = |from: u32, until: u32| {
        let g = window(&m, from, until, |t| t.goodput);
        let o = window(&m, from, until, |t| t.offered).max(1);
        g as f64 / o as f64
    };
    let base_ratio = goodput_ratio(2, BURST_FROM);
    let rec_ratio = goodput_ratio(BURST_UNTIL + SETTLE_TICKS, TICKS);
    assert!(
        base_ratio >= 0.75,
        "under-capacity baseline should mostly meet deadlines ({base_ratio:.2})"
    );
    assert!(
        rec_ratio >= 0.90 * base_ratio,
        "recovery goodput ratio {rec_ratio:.2} < 90% of baseline {base_ratio:.2}"
    );

    // The retry budget stayed bounded: the burst cannot mint more
    // retries than cap + earned refills.
    let earned = (m.goodput() as f64 * 0.1) as u64;
    assert!(
        m.retries() <= 50 + earned,
        "budgeted retries {} must be ≤ cap 50 + earned {earned}",
        m.retries()
    );

    // Accounting closes: every offered request has exactly one first-
    // attempt fate, and attempts balance (offered + retries = enqueued
    // fates + queue drops).
    assert_eq!(
        m.offered(),
        window(&m, 0, TICKS, |t| t.enqueued) + window(&m, 0, TICKS, |t| t.shed_queue),
        "offered = enqueued + shed at enqueue"
    );

    // The artifact/report surface carries the same story.
    let line = report::overload_line(&m.point.metrics).expect("open-loop run reports");
    assert!(line.contains("offered"), "{line}");
    assert!(line.contains("sojourn"), "{line}");
    assert!(m.point.metrics.counter(names::OPENLOOP_OFFERED) == m.offered());
    assert!(m.point.timeseries.len() == TICKS as usize);
    let tick = |s: &TimeSeriesSample, name| s.metrics.counter(name);
    assert!(m.point.timeseries.iter().any(|s| {
        tick(s, names::OPENLOOP_SHED_QUEUE) + tick(s, names::OPENLOOP_SHED_STALE) > 0
    }));
    assert!(m.point.timeseries.iter().all(|s| tick(s, names::OPENLOOP_SHED_DEGRADED) == 0));
}

#[test]
fn unbudgeted_control_arm_fails_to_recover() {
    let _x = exclusive();
    common::with_noise_retries(control_arm_case);
}

fn control_arm_case() {
    // Same seed, same schedule, same capacity — the ONLY difference is
    // the retry budget. The budgeted arm converges after the burst; the
    // control arm's own retries (of shed and timed-out-but-committed
    // work) sustain the overload past the burst's end.
    let step = step_config(base_rate());
    let budgeted = overload_harness(budget_policy()).run_open_loop(&step).unwrap();
    let control = overload_harness(unbudgeted_policy()).run_open_loop(&step).unwrap();

    // Identical offered load per tick (seeded schedule).
    let a: Vec<u64> = budgeted.ticks.iter().map(|t| t.offered).collect();
    let b: Vec<u64> = control.ticks.iter().map(|t| t.offered).collect();
    assert_eq!(a, b, "same seed, same offered schedule");

    // The control arm mints far more retries than the budget allows.
    assert!(
        control.retries() > 4 * budgeted.retries().max(1),
        "control retries {} vs budgeted {}",
        control.retries(),
        budgeted.retries()
    );
    assert_eq!(control.retry_denied(), 0, "no budget, nothing denied");
    assert!(budgeted.retry_denied() > 0, "budget actually bit during the burst");

    // Recovery-window goodput: the budgeted arm returns to ≥90% of its
    // own pre-burst baseline, the control arm stays visibly collapsed —
    // the gap IS the metastable failure.
    let ratio = |m: &OpenLoopMeasurement, from: u32, until: u32| {
        let g = window(m, from, until, |t| t.goodput);
        let o = window(m, from, until, |t| t.offered).max(1);
        g as f64 / o as f64
    };
    let rec_from = BURST_UNTIL + SETTLE_TICKS;
    let baseline = ratio(&budgeted, 2, BURST_FROM);
    let budgeted_ratio = ratio(&budgeted, rec_from, TICKS);
    let control_ratio = ratio(&control, rec_from, TICKS);
    assert!(
        budgeted_ratio >= 0.90 * baseline,
        "budgeted arm must recover: {budgeted_ratio:.2} vs baseline {baseline:.2}"
    );
    assert!(
        control_ratio < 0.75 * baseline,
        "control arm must fail to recover: {control_ratio:.2} vs baseline {baseline:.2}"
    );
    assert!(
        budgeted_ratio - control_ratio >= 0.15,
        "the budget must make a decisive difference: {budgeted_ratio:.2} vs {control_ratio:.2}"
    );
}

#[test]
fn open_loop_offered_series_is_deterministic() {
    // Two harnesses, same seed and config: byte-identical offered load
    // per tick, even though completions race real threads.
    let _x = exclusive();
    let step = step_config(base_rate());
    let a = overload_harness(budget_policy()).run_open_loop(&step).unwrap();
    let b = overload_harness(budget_policy()).run_open_loop(&step).unwrap();
    let oa: Vec<u64> = a.ticks.iter().map(|t| t.offered).collect();
    let ob: Vec<u64> = b.ticks.iter().map(|t| t.offered).collect();
    assert_eq!(oa, ob);
    // Different seed, different draws.
    let data = generate(ScaleFactor(0.001), 0xD5);
    let engine = ShdEngine::new(EngineConfig::default());
    data.load_into(&engine).unwrap();
    let other = Harness::new(
        Arc::new(engine),
        data.profile.clone(),
        BenchmarkConfig { seed: 0xF00D, ..BenchmarkConfig::default() },
    );
    let c = other.run_open_loop(&step).unwrap();
    let oc: Vec<u64> = c.ticks.iter().map(|t| t.offered).collect();
    assert_ne!(oa, oc);
}

#[test]
fn open_loop_rejects_invalid_config_with_typed_error() {
    let _x = exclusive();
    let harness = overload_harness(RetryPolicy::default());
    let bad = OpenLoopConfig { workers: 0, ..step_config(base_rate()) };
    let err = harness.run_open_loop(&bad).unwrap_err();
    assert!(
        matches!(err, hattrick_repro::common::HatError::InvalidConfig(_)),
        "got {err:?}"
    );
    // And the closed-loop client-count validation returns the same typed
    // error instead of panicking (the old driver aborted the process).
    let err = harness.run_point(65, 0).unwrap_err();
    assert!(
        matches!(err, hattrick_repro::common::HatError::InvalidConfig(_)),
        "got {err:?}"
    );
    assert!(err.to_string().contains("64"), "diagnostic names the cap: {err}");
}
