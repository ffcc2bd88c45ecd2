//! Open-loop arrival schedules for overload experiments.
//!
//! The paper's harness is *closed-loop*: τ clients each wait for their
//! previous request, so offered load can never exceed what the engine
//! sustains — overload is structurally unobservable. This module supplies
//! the other half: a seeded arrival-schedule generator
//! ([`ArrivalShape`]) whose per-tick request counts are an *input*, and
//! the configuration ([`OpenLoopConfig`]) for the driver in
//! [`Harness::run_open_loop`](crate::harness::Harness::run_open_loop)
//! that decouples virtual clients from OS threads: arrivals land in a
//! bounded queue with enqueue timestamps and deadlines, and a fixed
//! worker pool drains it. When arrivals outpace the workers, the queue —
//! not the client count — absorbs the difference, and what the system
//! does next (shed, miss deadlines, or collapse) is exactly what the
//! overload experiments measure.

use hat_common::rng::HatRng;
use std::time::Duration;

use crate::gen::MAX_TXN_CLIENTS;

/// Shape of the offered-load schedule. Each tick's mean arrival count is
/// `arrival_rate * tick_secs * multiplier(tick)`; the actual count is a
/// seeded Poisson draw around that mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Constant mean rate (a memoryless client population).
    Poisson,
    /// Diurnal swing: the mean rate oscillates sinusoidally between
    /// `(1 - depth)×` and `(1 + depth)×` the base rate with the given
    /// period — bursty-but-bounded load for capacity-headroom runs.
    Bursty { period_ticks: u32, depth: f64 },
    /// Step overload: `mult ×` the base rate during
    /// `[from_tick, until_tick)`, base rate elsewhere. The metastable
    /// experiment's trigger: a burst that *ends*, after which a healthy
    /// system must return to baseline goodput.
    Step { mult: f64, from_tick: u32, until_tick: u32 },
}

impl ArrivalShape {
    /// Mean-rate multiplier at `tick`.
    pub fn multiplier(&self, tick: u32) -> f64 {
        match *self {
            ArrivalShape::Poisson => 1.0,
            ArrivalShape::Bursty { period_ticks, depth } => {
                let period = period_ticks.max(1) as f64;
                let phase = (tick as f64 / period) * std::f64::consts::TAU;
                1.0 + depth.clamp(0.0, 1.0) * phase.sin()
            }
            ArrivalShape::Step { mult, from_tick, until_tick } => {
                if tick >= from_tick && tick < until_tick {
                    mult
                } else {
                    1.0
                }
            }
        }
    }

    /// Label for reports and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalShape::Poisson => "poisson",
            ArrivalShape::Bursty { .. } => "bursty",
            ArrivalShape::Step { .. } => "step",
        }
    }
}

/// Uniform in `(0, 1]` (never zero, safe under `ln`).
fn uniform(rng: &mut HatRng) -> f64 {
    (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64)
}

/// One seeded Poisson draw with mean `lambda`.
///
/// Knuth's product method below λ=64; above it (where `exp(-λ)` heads
/// toward underflow and the loop toward λ iterations) the normal
/// approximation `N(λ, λ)` — its error is far below the run-to-run
/// variance any open-loop experiment already tolerates.
pub fn poisson(rng: &mut HatRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= uniform(rng);
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    // Box-Muller.
    let u1 = uniform(rng);
    let u2 = uniform(rng);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (lambda + lambda.sqrt() * z + 0.5).max(0.0) as u64
}

/// The full seeded arrival schedule: arrivals per tick. Deterministic in
/// `(seed, rate, shape, ticks, tick)` — two runs of the same config
/// offer byte-identical load.
pub fn arrival_schedule(config: &OpenLoopConfig, seed: u64) -> Vec<u64> {
    let mut rng = HatRng::derive(seed, 0x0_4EA1);
    let per_tick = config.arrival_rate * config.tick.as_secs_f64();
    (0..config.ticks)
        .map(|t| poisson(&mut rng, per_tick * config.shape.multiplier(t)))
        .collect()
}

/// Configuration of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Mean offered load, requests per second (the independent variable).
    pub arrival_rate: f64,
    /// Schedule shape around that mean.
    pub shape: ArrivalShape,
    /// Per-attempt latency budget: a request still queued past this is
    /// shed without executing; one that *completes* past it counts as
    /// `deadline_missed`, not goodput.
    pub deadline: Duration,
    /// Fixed worker-pool size (the serving capacity, decoupled from the
    /// unbounded virtual-client population implied by the arrival rate).
    pub workers: u32,
    /// Bounded arrival-queue capacity; arrivals beyond it are shed at
    /// enqueue (the memory backstop — sojourn shedding is the intended
    /// control surface).
    pub queue_cap: u32,
    /// Run length in ticks.
    pub ticks: u32,
    /// Tick length (arrival-batch granularity and series resolution).
    pub tick: Duration,
    /// Simulated per-request downstream work each worker pays before the
    /// transaction — pins serving capacity at roughly
    /// `workers / service_pad` regardless of engine speed, which is what
    /// makes overload experiments reproducible across hardware. Zero
    /// means capacity is whatever the engine delivers.
    pub service_pad: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            arrival_rate: 2000.0,
            shape: ArrivalShape::Poisson,
            deadline: Duration::from_millis(20),
            workers: 4,
            queue_cap: 4096,
            ticks: 100,
            tick: Duration::from_millis(5),
            service_pad: Duration::ZERO,
        }
    }
}

impl OpenLoopConfig {
    /// Validates the config, returning a typed error instead of letting
    /// the driver panic mid-run.
    pub fn validate(&self) -> hat_common::Result<()> {
        if self.workers == 0 || self.workers > MAX_TXN_CLIENTS {
            return Err(hat_common::HatError::InvalidConfig(format!(
                "open-loop workers must be in 1..={MAX_TXN_CLIENTS}, got {}",
                self.workers
            )));
        }
        if self.ticks == 0 || self.tick.is_zero() {
            return Err(hat_common::HatError::InvalidConfig(
                "open-loop run needs at least one nonzero tick".into(),
            ));
        }
        if !(self.arrival_rate > 0.0 && self.arrival_rate.is_finite()) {
            return Err(hat_common::HatError::InvalidConfig(format!(
                "arrival rate must be positive and finite, got {}",
                self.arrival_rate
            )));
        }
        if self.deadline.is_zero() {
            return Err(hat_common::HatError::InvalidConfig(
                "deadline must be nonzero (every request would be born dead)".into(),
            ));
        }
        Ok(())
    }
}

/// Per-tick outcome counters of an open-loop run. Events are attributed
/// to the tick in which they happened (completion tick for completions,
/// shed tick for sheds), so the series shows the burst *and* the
/// recovery after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenLoopTick {
    pub tick: u32,
    /// Arrivals the schedule generated this tick.
    pub offered: u64,
    /// Arrivals that entered the queue (offered − queue-overflow sheds).
    pub enqueued: u64,
    /// Sheds at enqueue: bounded queue full.
    pub shed_queue: u64,
    /// Sheds at dequeue: the request's queue sojourn already exceeded
    /// its deadline, so executing it would be doomed work.
    pub shed_stale: u64,
    /// Always 0; kept only because `benchmark/` reads it.
    pub shed_engine: u64,
    /// Sheds attributed to storage degradation (`HatError::Degraded`).
    pub shed_degraded: u64,
    /// Requests that finished executing (in or out of deadline).
    pub completed: u64,
    /// Completions within deadline — the number that matters.
    pub goodput: u64,
    /// Completions past deadline (work done, client already gone).
    pub deadline_missed: u64,
    /// Retry attempts re-enqueued.
    pub retries: u64,
    /// Retries denied by the retry budget (each also counts as gave_up).
    pub retry_denied: u64,
    /// Logical requests abandoned (attempts or budget exhausted, or
    /// retry re-enqueue found the queue full).
    pub gave_up: u64,
    /// Retryable engine aborts other than degradation sheds (write
    /// conflicts, serialization failures).
    pub aborts: u64,
}

impl OpenLoopTick {
    /// All sheds of this tick, regardless of cause.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue + self.shed_stale + self.shed_degraded
    }

    /// Overload-cause sheds (traffic, not storage).
    pub fn shed_overload(&self) -> u64 {
        self.shed_queue + self.shed_stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = HatRng::seeded(7);
        for &lambda in &[0.5, 3.0, 20.0, 200.0] {
            let n = 4000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = sum as f64 / n as f64;
            // Poisson std is sqrt(λ); 4000 samples put the sample mean
            // within ~5 standard errors of λ with huge margin.
            let tol = 5.0 * (lambda / n as f64).sqrt() + 0.05;
            assert!(
                (mean - lambda).abs() < tol,
                "λ={lambda}: sample mean {mean} (tol {tol})"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }

    #[test]
    fn schedule_is_deterministic_and_shaped() {
        let config = OpenLoopConfig {
            arrival_rate: 10_000.0,
            shape: ArrivalShape::Step { mult: 10.0, from_tick: 10, until_tick: 20 },
            ticks: 30,
            tick: Duration::from_millis(5),
            ..OpenLoopConfig::default()
        };
        let a = arrival_schedule(&config, 42);
        let b = arrival_schedule(&config, 42);
        assert_eq!(a, b, "same seed, same schedule");
        let c = arrival_schedule(&config, 43);
        assert_ne!(a, c, "different seed, different draws");
        // The burst window really offers ~10x the base-load ticks.
        let base: u64 = a[..10].iter().sum();
        let burst: u64 = a[10..20].iter().sum();
        assert!(
            burst > 5 * base,
            "burst ticks must dwarf base ticks: {burst} vs {base}"
        );
    }

    #[test]
    fn bursty_shape_oscillates_around_one() {
        let shape = ArrivalShape::Bursty { period_ticks: 20, depth: 0.5 };
        let mults: Vec<f64> = (0..20).map(|t| shape.multiplier(t)).collect();
        let lo = mults.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = mults.iter().cloned().fold(0.0f64, f64::max);
        assert!(lo < 0.6 && hi > 1.4, "swing [{lo}, {hi}]");
        let mean: f64 = mults.iter().sum::<f64>() / 20.0;
        assert!((mean - 1.0).abs() < 0.05, "centered on the base rate");
        assert_eq!(ArrivalShape::Poisson.multiplier(5), 1.0);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = OpenLoopConfig::default();
        assert!(ok.validate().is_ok());
        let bad = OpenLoopConfig { workers: 0, ..OpenLoopConfig::default() };
        assert!(bad.validate().is_err());
        let bad = OpenLoopConfig { workers: MAX_TXN_CLIENTS + 1, ..OpenLoopConfig::default() };
        assert!(bad.validate().is_err());
        let bad = OpenLoopConfig { ticks: 0, ..OpenLoopConfig::default() };
        assert!(bad.validate().is_err());
        let bad = OpenLoopConfig { arrival_rate: 0.0, ..OpenLoopConfig::default() };
        assert!(bad.validate().is_err());
        let bad = OpenLoopConfig { arrival_rate: f64::NAN, ..OpenLoopConfig::default() };
        assert!(bad.validate().is_err());
        let bad = OpenLoopConfig { deadline: Duration::ZERO, ..OpenLoopConfig::default() };
        assert!(bad.validate().is_err());
    }
}
