//! The measurement harness: one driver for every run.
//!
//! A *point* is one `(τ, α)` client configuration (§3.1): τ closed-loop
//! transactional clients and α analytical clients run a warm-up phase
//! followed by a measurement phase (§6.1), and the harness reports hybrid
//! throughput `(tps, qps)` plus the freshness samples collected during
//! measurement. Each client issues one request at a time and waits for the
//! result before the next (§5.3). An *open-loop* run swaps the load source:
//! a seeded arrival schedule fills a bounded queue that a fixed worker pool
//! drains, so offered load is an input rather than a consequence of the
//! client count.
//!
//! Both are one driver, and [`Harness::run_point`] and
//! [`Harness::run_open_loop_sched`] are thin entry points to it. It has one
//! transactional worker loop with one outcome classification, one
//! analytical client, and one tick loop. At every tick boundary the tick
//! loop samples [`HtapEngine::metrics`] into a [`TimeSeriesSample`], moves
//! the core split when the [`SchedPolicy`] holds a budget, and enqueues the
//! tick's arrivals. Every outcome lands in a per-tick cell; warm-up ticks
//! are discarded, and [`PointMeasurement`] and [`OpenLoopMeasurement`] are
//! both derived from the measured ones.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hat_common::clock::{BenchClock, Nanos};
use hat_common::rng::HatRng;
use hat_common::telemetry::{names, Histogram, HistogramSnapshot, MetricsSnapshot};
use hat_engine::{CoreBudget, HtapEngine, QueryOpts};
use hat_query::spec::QueryId;
use hat_query::ssb;
use parking_lot::{Condvar, Mutex};

use crate::freshness::{score_query, CommitRegistry, FreshnessSample};
use crate::gen::{DataProfile, MAX_TXN_CLIENTS};
use crate::openloop::{arrival_schedule, OpenLoopConfig, OpenLoopTick};
use crate::sched::{
    split_changes, ElasticController, SchedDecision, SchedPolicy, SchedReason, SchedSignal,
};
use crate::workload::{query_batch, run_transaction, TxnKind, TxnMix, WorkloadState};

/// How a client reacts to retryable failures: capped exponential backoff
/// with full jitter, and a bound on attempts per logical operation.
///
/// The previous driver retried in a hot loop — correct for the pure
/// conflict-abort case the paper measures, but under injected faults
/// (partitions, crashed replicas) it spins at full CPU against a dead
/// service and floods it the instant it heals. Backoff-with-jitter spreads
/// the retry storm; the attempt cap turns an extended outage into an
/// accounted `gave_up` instead of an unbounded stall.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Backoff ceiling for the first retry.
    pub initial_backoff: Duration,
    /// Cap on the exponentially growing ceiling.
    pub max_backoff: Duration,
    /// Attempts per logical operation (1 = no retries).
    pub max_attempts: u32,
    /// Optional *shared* retry budget across every client of a run.
    /// Backoff and the attempt cap bound each client individually, but
    /// under overload every client fails at once and the aggregate retry
    /// stream alone can exceed capacity — the metastable failure mode,
    /// where the system stays collapsed after the original burst ends
    /// because its own retries sustain the overload. The budget bounds
    /// the aggregate: retries spend tokens, only in-deadline successes
    /// earn them back, so a failing system converges to give-ups instead
    /// of a self-sustaining retry storm. `None` (default) keeps the
    /// pre-existing unbudgeted behavior.
    pub budget: Option<RetryBudgetConfig>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            max_attempts: 10,
            budget: None,
        }
    }
}

/// Parameters of the shared [`RetryBudget`] token bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    /// Bucket capacity in whole retry tokens (also the initial fill) —
    /// the burst of retries the run may spend before earning more.
    pub cap: u32,
    /// Tokens refunded per successful in-deadline operation. `0.1` means
    /// sustained retries may be at most ~10% of sustained goodput — a
    /// healthy system never notices the budget, a collapsed one runs dry
    /// almost immediately.
    pub refill_per_success: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig { cap: 100, refill_per_success: 0.1 }
    }
}

/// Shared token bucket bounding a run's aggregate retries (lock-free;
/// tokens kept in milli-token fixed point so fractional refill ratios
/// accumulate exactly).
#[derive(Debug)]
pub struct RetryBudget {
    millitokens: AtomicU64,
    cap_milli: u64,
    refill_milli: u64,
}

impl RetryBudget {
    const MILLI: u64 = 1000;

    pub fn new(config: RetryBudgetConfig) -> Self {
        let cap_milli = u64::from(config.cap) * Self::MILLI;
        RetryBudget {
            millitokens: AtomicU64::new(cap_milli),
            cap_milli,
            refill_milli: (config.refill_per_success.max(0.0) * Self::MILLI as f64) as u64,
        }
    }

    /// Spends one retry token; `false` means the budget is exhausted and
    /// the caller must give up instead of retrying.
    pub fn try_spend(&self) -> bool {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            if cur < Self::MILLI {
                return false;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                cur - Self::MILLI,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Refunds the per-success ratio, saturating at the cap.
    pub fn on_success(&self) {
        if self.refill_milli == 0 {
            return;
        }
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            let next = (cur + self.refill_milli).min(self.cap_milli);
            if next == cur {
                return;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whole tokens currently available.
    pub fn available(&self) -> u64 {
        self.millitokens.load(Ordering::Relaxed) / Self::MILLI
    }
}

impl RetryPolicy {
    /// Full-jitter backoff before retry number `attempt` (1-based):
    /// uniform in `[0, min(max_backoff, initial_backoff * 2^(attempt-1))]`.
    /// Jitter is essential here — synchronized clients that all failed on
    /// the same partition would otherwise retry in lockstep.
    pub fn backoff(&self, attempt: u32, rng: &mut HatRng) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let ceiling = self
            .initial_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let nanos = ceiling.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.range_u64(0, nanos))
    }
}

/// Harness configuration (§6.1 uses per-SF warm-up/measurement periods;
/// scale these down along with the scale factor).
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    pub warmup: Duration,
    pub measure: Duration,
    /// Base RNG seed; client streams derive from it.
    pub seed: u64,
    /// Reset the database to its initial state before each point (§6.1:
    /// "before each benchmark run we reset the data to their initial
    /// state").
    pub reset_between_points: bool,
    /// Client reaction to retryable failures.
    pub retry: RetryPolicy,
    /// Execution options every analytical client passes to
    /// [`HtapEngine::query`] — notably the intra-query morsel
    /// parallelism (`hatcli --a-threads`).
    pub query_opts: QueryOpts,
    /// Tick length of a point run: the cadence of the engine-metrics
    /// samples (the time series in every [`PointMeasurement`]) and of the
    /// outcome cells. Clamped to `measure / 8` (and at least 100 µs), so
    /// the measurement phase always yields at least eight samples.
    pub sample_every: Duration,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            warmup: Duration::from_millis(150),
            measure: Duration::from_millis(400),
            seed: 0x4A77,
            reset_between_points: true,
            retry: RetryPolicy::default(),
            query_opts: QueryOpts::default(),
            sample_every: Duration::from_millis(5),
        }
    }
}

/// Latency summary for one operation label (a transaction type or query).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    pub count: u64,
    pub mean_ms: f64,
    pub p95_ms: f64,
    pub max_ms: f64,
}

impl LatencyStats {
    /// Summarizes a latency histogram (nanosecond values) into
    /// milliseconds. The p95 is the bucket upper bound, clamped to the
    /// observed maximum — at most one log-linear bucket width (6.25%)
    /// above the true quantile.
    pub fn from_hist(h: &HistogramSnapshot) -> Self {
        if h.is_empty() {
            return LatencyStats { count: 0, mean_ms: 0.0, p95_ms: 0.0, max_ms: 0.0 };
        }
        LatencyStats {
            count: h.count,
            mean_ms: h.mean() / 1e6,
            p95_ms: h.quantile(0.95) as f64 / 1e6,
            max_ms: h.max as f64 / 1e6,
        }
    }
}

/// Pre-registered per-label latency histograms.
///
/// `record` is a linear scan over a handful of static labels plus an
/// atomic bucket increment — no lock, no allocation — so it sits directly
/// on the client loops without perturbing the latencies it measures.
struct LatencyHists {
    entries: Vec<(&'static str, Histogram)>,
}

impl LatencyHists {
    fn new(labels: impl IntoIterator<Item = &'static str>) -> Self {
        LatencyHists {
            entries: labels.into_iter().map(|l| (l, Histogram::new())).collect(),
        }
    }

    fn record(&self, label: &str, nanos: u64) {
        if let Some((_, h)) = self.entries.iter().find(|(l, _)| *l == label) {
            h.record(nanos);
        }
    }

    /// Installs the non-empty label histograms into `snap` under `prefix`.
    fn install(&self, snap: &mut MetricsSnapshot, prefix: &str) {
        for (label, h) in &self.entries {
            let s = h.snapshot();
            if !s.is_empty() {
                snap.set_histogram(&format!("{prefix}{label}"), s);
            }
        }
    }
}

/// Phase a time-series sample was taken in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePhase {
    Warmup,
    Measure,
}

impl SamplePhase {
    pub fn label(self) -> &'static str {
        match self {
            SamplePhase::Warmup => "warmup",
            SamplePhase::Measure => "measure",
        }
    }

    pub fn from_label(s: &str) -> Option<SamplePhase> {
        match s {
            "warmup" => Some(SamplePhase::Warmup),
            "measure" => Some(SamplePhase::Measure),
            _ => None,
        }
    }
}

/// One fixed-cadence sample of engine state during a run. The paper's
/// §6.2 figures plot throughput and freshness *over time*; this is the
/// raw series behind such plots, taken through warmup and measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesSample {
    /// Seconds since this run's clients started (warmup included).
    pub t_secs: f64,
    pub phase: SamplePhase,
    /// Which repetition of the point the sample came from (0-based; set
    /// by [`PointMeasurement::average`]).
    pub run: u32,
    /// Acknowledged in-deadline commits per second in the tick (a
    /// closed-loop run has no deadline, so every acknowledged commit).
    /// In-doubt commits are excluded.
    pub tps: f64,
    /// Analytical queries finished per second in the tick.
    pub qps: f64,
    /// Replication backlog gauge at sample time (records shipped but not
    /// yet applied).
    pub backlog: u64,
    /// Columnar delta rows awaiting merge at sample time.
    pub delta_rows: u64,
    /// MVCC versions alive across the engine's row stores at sample
    /// time. A healthy vacuum makes this plateau under a write-heavy
    /// mix; without it the series grows without bound.
    pub live_versions: u64,
    /// Mean freshness score (seconds) of the queries that finished in
    /// this tick; `0.0` when none finished.
    pub freshness_lag: f64,
    /// Storage-health gauge at sample time: 0 healthy, 1 WAL stopped. A
    /// chaos run shows this step up once, at the first failed write or
    /// fsync, and stay up for the rest of the run.
    pub health: u64,
    /// Transactional requests shed for *storage* reasons during the tick
    /// (`HatError::Degraded`): a WAL stopped by a storage fault or a full
    /// group-commit backlog.
    pub shed: u64,
    /// Transactional requests shed for *overload* reasons during the
    /// tick: bounded-queue overflow or queue sojourn over the deadline
    /// budget. Disjoint from `shed` by construction, so "disk unhappy"
    /// and "traffic too high" chart separately.
    pub shed_overload: u64,
    /// Transactional requests offered during the tick: the arrivals the
    /// schedule generated (open-loop runs), or the new requests the
    /// clients issued (closed-loop runs, where it tracks the completion
    /// rate). Retries are not counted. In an open-loop run it is the
    /// independent variable and may exceed the completion rate
    /// arbitrarily.
    pub offered: u64,
    /// Transactional cores of the split in force during the tick when
    /// the run's [`SchedPolicy`] holds a core budget, elastic or pinned
    /// (the artifact's per-tick allocation trace, schema v6). Zero
    /// otherwise: the split is whatever the client counts say.
    pub t_cores: u32,
    /// Analytical cores of the split in force during the tick; zero when
    /// the policy holds no budget.
    pub a_cores: u32,
}

/// The measured outcome of one `(τ, α)` point.
///
/// Counters live in two [`MetricsSnapshot`]s rather than hand-copied
/// fields: `metrics` is the measurement window (engine deltas + harness
/// client counters + latency histograms), `metrics_end` the cumulative
/// engine state after the run. Per-run client outcomes have accessors
/// ([`PointMeasurement::committed`] etc.); engine metrics are read from
/// the snapshots by [`names`] — the same schema the run artifact
/// serializes.
#[derive(Debug, Clone)]
pub struct PointMeasurement {
    pub t_clients: u32,
    pub a_clients: u32,
    /// Successful transactions per second during the measurement phase.
    pub tps: f64,
    /// Finished analytical queries per second during measurement.
    pub qps: f64,
    /// Measurement-window metrics: engine-counter diffs across the
    /// measurement phase, `harness.*` client counters, and
    /// `latency.txn.*` / `latency.query.*` histograms.
    pub metrics: MetricsSnapshot,
    /// Cumulative engine snapshot taken after the run — for counters
    /// meaningful since engine start (WAL recovery, fsyncs, scans).
    pub metrics_end: MetricsSnapshot,
    /// Fixed-cadence engine samples through warmup and measurement.
    pub timeseries: Vec<TimeSeriesSample>,
    /// Freshness scores (seconds) of the queries finished during
    /// measurement.
    pub freshness: Vec<FreshnessSample>,
    /// Actual measurement-phase length (summed across averaged runs).
    pub measured_secs: f64,
}

impl PointMeasurement {
    /// Acknowledged commits during measurement.
    pub fn committed(&self) -> u64 {
        self.metrics.counter(names::HARNESS_COMMITTED)
    }

    /// Analytical queries finished during measurement.
    pub fn queries(&self) -> u64 {
        self.metrics.counter(names::HARNESS_QUERIES)
    }

    /// Retryable aborts observed during measurement.
    pub fn aborts(&self) -> u64 {
        self.metrics.counter(names::HARNESS_ABORTS)
    }

    /// Retry attempts issued by transactional clients after retryable
    /// aborts (each is also counted in [`Self::aborts`]).
    pub fn retries(&self) -> u64 {
        self.metrics.counter(names::HARNESS_RETRIES)
    }

    /// Commits that returned committed-in-doubt (replication timeout):
    /// durable on the primary but the acknowledgment bound was missed.
    /// Not counted in [`Self::committed`] or `tps`.
    pub fn timeouts(&self) -> u64 {
        self.metrics.counter(names::HARNESS_TIMEOUTS)
    }

    /// Logical transactions abandoned after exhausting the retry budget.
    pub fn gave_up(&self) -> u64 {
        self.metrics.counter(names::HARNESS_GAVE_UP)
    }

    /// Analytical query attempts that failed retryably (replica
    /// unavailable / read-index timeout).
    pub fn query_retries(&self) -> u64 {
        self.metrics.counter(names::HARNESS_QUERY_RETRIES)
    }

    /// High-water mark of the replication backlog sampled during the run.
    pub fn backlog_hwm(&self) -> u64 {
        self.metrics.gauge(names::HARNESS_BACKLOG_HWM)
    }

    /// Per-transaction-type latency during measurement (§6.1: the
    /// benchmark "extracts also the average response time of each
    /// transaction type and analytical query").
    pub fn txn_latency(&self) -> Vec<(String, LatencyStats)> {
        self.latency_with_prefix(names::LATENCY_TXN_PREFIX)
    }

    /// Per-query latency during measurement.
    pub fn query_latency(&self) -> Vec<(String, LatencyStats)> {
        self.latency_with_prefix(names::LATENCY_QUERY_PREFIX)
    }

    fn latency_with_prefix(&self, prefix: &str) -> Vec<(String, LatencyStats)> {
        self.metrics
            .histograms_with_prefix(prefix)
            .map(|(label, h)| (label.to_string(), LatencyStats::from_hist(h)))
            .collect()
    }

    /// Averages repeated measurements of the same point (§6.1: "we repeat
    /// the execution of the benchmark three times and report the average
    /// results"). Throughputs are averaged; window counters and latency
    /// histograms merge exactly (bucket-wise addition), so the reported
    /// latency distribution covers *every* run — the old code took the
    /// stats of the single busiest run. Freshness samples and time series
    /// are concatenated (samples tagged with their run index); the
    /// cumulative end snapshot of the final run covers all runs.
    pub fn average(runs: Vec<PointMeasurement>) -> PointMeasurement {
        assert!(!runs.is_empty(), "need at least one run");
        let n = runs.len() as f64;
        let t_clients = runs[0].t_clients;
        let a_clients = runs[0].a_clients;
        let tps = runs.iter().map(|m| m.tps).sum::<f64>() / n;
        let qps = runs.iter().map(|m| m.qps).sum::<f64>() / n;
        let measured_secs = runs.iter().map(|m| m.measured_secs).sum();
        let mut metrics = runs[0].metrics.clone();
        for m in &runs[1..] {
            metrics = metrics.merge(&m.metrics);
        }
        let metrics_end = runs.last().expect("non-empty").metrics_end.clone();
        let mut freshness = Vec::new();
        let mut timeseries = Vec::new();
        for (run, m) in runs.into_iter().enumerate() {
            freshness.extend_from_slice(&m.freshness);
            timeseries.extend(m.timeseries.into_iter().map(|mut s| {
                s.run = run as u32;
                s
            }));
        }
        PointMeasurement {
            t_clients,
            a_clients,
            tps,
            qps,
            metrics,
            metrics_end,
            timeseries,
            freshness,
            measured_secs,
        }
    }

    /// An all-zero point (used for the τ=0, α=0 origin).
    pub fn zero(t_clients: u32, a_clients: u32) -> Self {
        PointMeasurement {
            t_clients,
            a_clients,
            tps: 0.0,
            qps: 0.0,
            metrics: MetricsSnapshot::new(),
            metrics_end: MetricsSnapshot::new(),
            timeseries: Vec::new(),
            freshness: Vec::new(),
            measured_secs: 0.0,
        }
    }
}

/// The measured outcome of one open-loop overload run.
///
/// `point` reuses the closed-loop [`PointMeasurement`] schema — its
/// window metrics carry the `openloop.*` counters and the sojourn
/// histogram, its time series has one sample per tick — so artifacts,
/// reports, and plots consume open-loop runs through the exact same
/// pipeline. `ticks` is the raw per-tick outcome series behind that, and
/// `sojourn` the enqueue-to-completion distribution of every request
/// that actually executed.
#[derive(Debug, Clone)]
pub struct OpenLoopMeasurement {
    pub point: PointMeasurement,
    pub ticks: Vec<OpenLoopTick>,
    /// Enqueue-to-completion nanoseconds of executed requests.
    pub sojourn: HistogramSnapshot,
    /// The per-tick allocation trace of a policy that holds a core
    /// budget: the elastic controller's decisions, or a pinned run's
    /// constant split (one decision per tick, `decisions[k].tick == k`).
    /// Empty for static runs.
    pub decisions: Vec<SchedDecision>,
}

impl OpenLoopMeasurement {
    fn total(&self, f: impl Fn(&OpenLoopTick) -> u64) -> u64 {
        self.ticks.iter().map(f).sum()
    }

    /// Arrivals the schedule generated (the independent variable).
    pub fn offered(&self) -> u64 {
        self.total(|t| t.offered)
    }

    /// Requests that finished executing (in or out of deadline).
    pub fn completed(&self) -> u64 {
        self.total(|t| t.completed)
    }

    /// Completions within deadline — the number that matters under
    /// overload.
    pub fn goodput(&self) -> u64 {
        self.total(|t| t.goodput)
    }

    /// Completions past their deadline (work done, client gone).
    pub fn deadline_missed(&self) -> u64 {
        self.total(|t| t.deadline_missed)
    }

    /// Sheds for traffic reasons: queue overflow or stale sojourn.
    pub fn shed_overload(&self) -> u64 {
        self.total(|t| t.shed_overload())
    }

    /// Sheds attributed to storage degradation.
    pub fn shed_degraded(&self) -> u64 {
        self.total(|t| t.shed_degraded)
    }

    /// Retry attempts re-enqueued.
    pub fn retries(&self) -> u64 {
        self.total(|t| t.retries)
    }

    /// Retries denied by the shared retry budget.
    pub fn retry_denied(&self) -> u64 {
        self.total(|t| t.retry_denied)
    }

    /// Logical requests abandoned.
    pub fn gave_up(&self) -> u64 {
        self.total(|t| t.gave_up)
    }

    /// Fraction of offered load that became goodput.
    pub fn goodput_ratio(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        self.goodput() as f64 / offered as f64
    }

    /// Analytical queries completed by a run whose policy holds a core
    /// budget (0 in static runs, which have no A side).
    pub fn a_queries(&self) -> u64 {
        self.point.metrics.counter(names::SCHED_A_QUERIES)
    }

    /// Split changes the elastic controller made across the run.
    pub fn reassignments(&self) -> u64 {
        self.point.metrics.counter(names::SCHED_REASSIGNMENTS)
    }
}

/// Drives one engine + generated dataset through benchmark points.
pub struct Harness {
    engine: Arc<dyn HtapEngine>,
    profile: DataProfile,
    state: WorkloadState,
    mix: TxnMix,
    config: BenchmarkConfig,
    /// Persistent per-client transaction sequence numbers (survive
    /// non-resetting points; zeroed by reset).
    txnnums: Vec<AtomicU64>,
    points_run: AtomicU64,
}

impl Harness {
    /// Builds a harness over a loaded engine.
    pub fn new(
        engine: Arc<dyn HtapEngine>,
        profile: DataProfile,
        config: BenchmarkConfig,
    ) -> Self {
        let state = WorkloadState::new(&profile);
        Harness {
            engine,
            profile,
            state,
            mix: TxnMix::default(),
            config,
            txnnums: (0..MAX_TXN_CLIENTS).map(|_| AtomicU64::new(0)).collect(),
            points_run: AtomicU64::new(0),
        }
    }

    /// Overrides the transaction mix.
    pub fn with_mix(mut self, mix: TxnMix) -> Self {
        self.mix = mix;
        self
    }

    /// The engine under test.
    pub fn engine(&self) -> &Arc<dyn HtapEngine> {
        &self.engine
    }

    /// The data profile in use.
    pub fn profile(&self) -> &DataProfile {
        &self.profile
    }

    /// The harness configuration.
    pub fn config(&self) -> &BenchmarkConfig {
        &self.config
    }

    fn reset(&self) -> hat_common::Result<()> {
        self.engine.reset()?;
        self.state.reset();
        for n in &self.txnnums {
            n.store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Measures one `(τ, α)` point `repeats` times and averages, as the
    /// paper does (three repetitions per configuration, §6.1).
    pub fn run_point_avg(
        &self,
        t_clients: u32,
        a_clients: u32,
        repeats: u32,
    ) -> hat_common::Result<PointMeasurement> {
        let runs: Vec<PointMeasurement> = (0..repeats.max(1))
            .map(|_| self.run_point(t_clients, a_clients))
            .collect::<hat_common::Result<_>>()?;
        Ok(PointMeasurement::average(runs))
    }

    /// Measures one `(τ, α)` point: τ closed-loop transactional clients
    /// and α analytical clients through warm-up and measurement.
    ///
    /// Returns [`HatError::InvalidConfig`](hat_common::HatError) when
    /// `t_clients` exceeds [`MAX_TXN_CLIENTS`] (the FRESHNESS table is
    /// pre-sized) — a diagnosable configuration error, not a panic.
    pub fn run_point(
        &self,
        t_clients: u32,
        a_clients: u32,
    ) -> hat_common::Result<PointMeasurement> {
        if t_clients > MAX_TXN_CLIENTS {
            return Err(hat_common::HatError::InvalidConfig(format!(
                "{t_clients} transactional clients requested, but the FRESHNESS \
                 table is pre-sized for at most {MAX_TXN_CLIENTS}"
            )));
        }
        if t_clients == 0 && a_clients == 0 {
            return Ok(PointMeasurement::zero(0, 0));
        }
        let run = self.drive(Source::Closed, t_clients, a_clients, &SchedPolicy::Static)?;
        Ok(run.point)
    }

    /// Runs one open-loop overload experiment.
    ///
    /// Where [`run_point`](Self::run_point) is closed-loop (τ clients
    /// each wait for their previous request, so offered load can never
    /// exceed sustained throughput), here offered load is an *input*: a
    /// seeded arrival schedule ([`arrival_schedule`]) enqueues requests
    /// onto a bounded queue — each stamped with its enqueue time and
    /// carrying the per-attempt deadline budget — and a fixed pool of
    /// `workers` threads drains it. When arrivals outpace the pool the
    /// queue absorbs the difference and the outcome (shed, missed
    /// deadlines, recovery or metastable collapse) is what the per-tick
    /// series records.
    ///
    /// Virtual-client behavior under failure mirrors real systems: a
    /// request whose sojourn passes its deadline is shed without
    /// executing (the client already gave up; executing it would be
    /// doomed work), and a request that *completes* past its deadline
    /// counts as `deadline_missed` — and, policy permitting, the client
    /// has already retried it, which is precisely the work amplification
    /// that sustains metastable failure. The shared
    /// [`RetryPolicy::budget`] is the mitigation under test.
    pub fn run_open_loop(
        &self,
        ol: &OpenLoopConfig,
    ) -> hat_common::Result<OpenLoopMeasurement> {
        self.run_open_loop_sched(ol, &SchedPolicy::Static)
    }

    /// [`run_open_loop`](Self::run_open_loop) under an explicit
    /// core-assignment policy.
    ///
    /// Under [`SchedPolicy::Static`] this is exactly the classic driver:
    /// `ol.workers` transactional workers, no analytical side. A policy
    /// that holds a budget of cores splits it between the two
    /// populations at tick granularity:
    ///
    /// * `budget - 1` transactional workers are spawned but only the
    ///   first `t_cores` of them serve; the rest park (`ol.workers` is
    ///   ignored — the budget is the capacity knob).
    /// * one analytical client loops SSB query batches, scored for
    ///   freshness, with its probe parallelism capped by the budget's
    ///   live [`WorkerCap`](hat_engine::WorkerCap) gauge at `a_cores`.
    /// * under [`SchedPolicy::Elastic`], at every tick boundary the
    ///   closed tick's outcome (sheds, queue depth, goodput, queries)
    ///   feeds the [`ElasticController`], whose decision moves the worker
    ///   cap via [`CoreBudget::apply`] and parks or unparks T workers.
    ///
    /// [`SchedPolicy::Pinned`] holds its split for the whole run — the
    /// eligible static arm for elastic-vs-static comparisons.
    ///
    /// The per-tick split comes back in [`OpenLoopMeasurement::decisions`]
    /// and as the `t_cores`/`a_cores` columns of the time series (artifact
    /// schema v6).
    pub fn run_open_loop_sched(
        &self,
        ol: &OpenLoopConfig,
        policy: &SchedPolicy,
    ) -> hat_common::Result<OpenLoopMeasurement> {
        ol.validate()?;
        let source = Source::Schedule {
            ol,
            arrivals: arrival_schedule(ol, self.config.seed),
            queue: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
        };
        self.drive(source, ol.workers, 0, policy)
    }

    /// The one driver behind every entry point: `t_workers` transactional
    /// workers fed by `source`, `a_clients` analytical clients, and the
    /// tick loop on this thread. A policy that holds a budget overrides
    /// both counts (`budget - 1` parkable T workers, one A client).
    fn drive(
        &self,
        source: Source<'_>,
        mut t_workers: u32,
        mut a_clients: u32,
        policy: &SchedPolicy,
    ) -> hat_common::Result<OpenLoopMeasurement> {
        let mut cores = Cores::new(policy, self.config.seed)?;
        if self.config.reset_between_points {
            self.reset()?;
        }
        let (mut t_alloc, mut query_opts) = (u32::MAX, self.config.query_opts.clone());
        if let Some(c) = &cores {
            // T may hold at most budget-1 cores (A always keeps one). The
            // A cap must be able to bind: parallelism is lifted to the
            // budget so a_cores is the effective probe width.
            (t_workers, a_clients) = (c.budget.total() - 1, 1);
            t_alloc = c.budget.apply(c.decisions[0].t_cores).0;
            query_opts = query_opts.with_cap(c.budget.worker_cap().clone());
            query_opts.parallelism = query_opts.parallelism.max(c.budget.total() as usize);
        }
        // A closed run's events past its last boundary land in one extra,
        // discarded cell; a schedule run's drain lands in its last tick.
        let (tick, warm, ticks, ncells) = match &source {
            Source::Closed => {
                let c = &self.config;
                let tick = c.sample_every.min(c.measure / 8).max(Duration::from_micros(100));
                let n = |d: Duration| d.as_nanos().div_ceil(tick.as_nanos()) as usize;
                let ticks = n(c.warmup) + n(c.measure).max(1);
                (tick, n(c.warmup), ticks, ticks + 1)
            }
            Source::Schedule { ol, .. } => (ol.tick, 0, ol.ticks as usize, ol.ticks as usize),
        };
        let bases: Vec<u64> = self.txnnums.iter().map(|n| n.load(Ordering::Relaxed) + 1).collect();
        let run = Run {
            h: self,
            point_idx: self.points_run.fetch_add(1, Ordering::Relaxed),
            source,
            t0: BenchClock::global().now(),
            tick_ns: (tick.as_nanos() as Nanos).max(1),
            warm,
            ticks,
            cells: (0..ncells).map(|_| TickCells::default()).collect(),
            stop: AtomicBool::new(false),
            t_alloc: AtomicU32::new(t_alloc),
            // One budget shared by every client: the aggregate retry
            // stream is what must stay bounded, not any single client's.
            retry_budget: self.config.retry.budget.map(RetryBudget::new),
            scores_freshness: a_clients > 0,
            registry: CommitRegistry::new(&bases),
            txn_latency: LatencyHists::new(
                [TxnKind::NewOrder, TxnKind::Payment, TxnKind::CountOrders].map(TxnKind::label),
            ),
            query_latency: LatencyHists::new(QueryId::ALL.map(|q| q.label())),
            sojourn: Histogram::new(),
        };

        let (series, measure_begin, freshness) = std::thread::scope(|scope| {
            let run = &run;
            for worker in 0..t_workers {
                scope.spawn(move || run.t_worker(worker));
            }
            let a_side: Vec<_> = (0..a_clients)
                .map(|client| {
                    let opts = &query_opts;
                    scope.spawn(move || run.a_client(client, opts))
                })
                .collect();
            let (series, measure_begin) = run.tick_loop(cores.as_mut());
            let freshness: Vec<FreshnessSample> = a_side
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect();
            // The scope joins the T workers here (a schedule source's
            // workers drain the queue first).
            (series, measure_begin, freshness)
        });
        Ok(run.measurement(series, measure_begin, freshness, cores, t_workers, a_clients))
    }
}

/// One transactional request. `enq` is when it was issued (closed
/// source) or enqueued (schedule source), and is re-stamped on retry —
/// the virtual client that retries is issuing a *new* request with a
/// fresh deadline budget; `attempt` is what persists across the logical
/// operation.
#[derive(Clone, Copy)]
struct Request {
    enq: Nanos,
    attempt: u32,
    kind: TxnKind,
}

/// Where a run's transactional requests come from.
enum Source<'a> {
    /// Closed loop (§5.3): each worker issues its next request as soon as
    /// the previous one is done, and retries after a backoff.
    Closed,
    /// Open loop: the tick loop enqueues each tick's arrivals onto a
    /// bounded queue, workers drain it, and retries re-enter it.
    Schedule {
        ol: &'a OpenLoopConfig,
        arrivals: Vec<u64>,
        queue: Mutex<VecDeque<Request>>,
        arrived: Condvar,
    },
}

/// Per-tick atomic outcome counters (workers race on them freely; the
/// relaxed ordering is fine because the scope join is the only reader
/// barrier that matters).
#[derive(Default)]
struct TickCells {
    offered: AtomicU64,
    enqueued: AtomicU64,
    shed_queue: AtomicU64,
    shed_stale: AtomicU64,
    shed_degraded: AtomicU64,
    started: AtomicU64,
    completed: AtomicU64,
    goodput: AtomicU64,
    deadline_missed: AtomicU64,
    in_doubt: AtomicU64,
    retries: AtomicU64,
    retry_denied: AtomicU64,
    gave_up: AtomicU64,
    aborts: AtomicU64,
    queries: AtomicU64,
    query_retries: AtomicU64,
    /// Sum of the freshness scores of `queries`, nanoseconds.
    fresh_ns: AtomicU64,
}

impl TickCells {
    /// The cell's public outcome counters, numbered `tick`.
    fn outcome(&self, tick: u32) -> OpenLoopTick {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        OpenLoopTick {
            tick,
            offered: load(&self.offered),
            enqueued: load(&self.enqueued),
            shed_queue: load(&self.shed_queue),
            shed_stale: load(&self.shed_stale),
            shed_engine: 0,
            shed_degraded: load(&self.shed_degraded),
            completed: load(&self.completed),
            goodput: load(&self.goodput),
            deadline_missed: load(&self.deadline_missed),
            retries: load(&self.retries),
            retry_denied: load(&self.retry_denied),
            gave_up: load(&self.gave_up),
            aborts: load(&self.aborts),
        }
    }
}

fn bump(cell: &AtomicU64) {
    cell.fetch_add(1, Ordering::Relaxed);
}

/// A policy's core budget and the per-tick split trace. The controller
/// is elastic-only; a pinned run has none and holds its split.
struct Cores {
    budget: CoreBudget,
    controller: Option<ElasticController>,
    /// One per tick; `decisions[0]` is the initial split.
    decisions: Vec<SchedDecision>,
}

impl Cores {
    /// `None` for [`SchedPolicy::Static`]; a typed error when the budget
    /// exceeds the harness's worker slots.
    fn new(policy: &SchedPolicy, seed: u64) -> hat_common::Result<Option<Cores>> {
        let controller = policy.target().map(|t| ElasticController::new(t, seed));
        let Some((t, a)) = controller.as_ref().map(|c| c.split()).or(policy.pinned_split()) else {
            return Ok(None);
        };
        if t + a > MAX_TXN_CLIENTS {
            return Err(hat_common::HatError::InvalidConfig(format!(
                "core budget {} exceeds the harness's {MAX_TXN_CLIENTS} worker slots",
                t + a
            )));
        }
        Ok(Some(Cores {
            budget: CoreBudget::new(t + a),
            controller,
            decisions: vec![SchedDecision {
                tick: 0,
                t_cores: t,
                a_cores: a,
                reason: SchedReason::Init,
            }],
        }))
    }

    /// Records the split for tick `k` — the controller's decision, or the
    /// held pinned split when there is no controller — and applies it if
    /// it moved.
    fn record(
        &mut self,
        k: usize,
        stepped: Option<SchedDecision>,
        t_alloc: &AtomicU32,
    ) {
        let (t_cores, a_cores) = self.budget.split();
        let decision = stepped.unwrap_or(SchedDecision {
            tick: k as u32,
            t_cores,
            a_cores,
            reason: SchedReason::Hold,
        });
        if (decision.t_cores, decision.a_cores) != (t_cores, a_cores) {
            self.budget.apply(decision.t_cores);
            t_alloc.store(decision.t_cores, Ordering::Relaxed);
        }
        self.decisions.push(decision);
    }
}

/// The state one run's workers, analytical clients and tick loop share.
struct Run<'h> {
    h: &'h Harness,
    point_idx: u64,
    source: Source<'h>,
    /// Start of tick 0 on the [`BenchClock`].
    t0: Nanos,
    tick_ns: Nanos,
    /// Leading warm-up ticks, discarded from every total.
    warm: usize,
    /// Warm-up plus measured ticks.
    ticks: usize,
    cells: Vec<TickCells>,
    stop: AtomicBool,
    /// T workers at or past this index park.
    t_alloc: AtomicU32,
    retry_budget: Option<RetryBudget>,
    /// Whether an analytical client scores freshness, so T workers must
    /// record their commit times in `registry`.
    scores_freshness: bool,
    registry: CommitRegistry,
    txn_latency: LatencyHists,
    query_latency: LatencyHists,
    sojourn: Histogram,
}

impl Run<'_> {
    /// The tick `now` falls in, and its cell.
    fn cell_of(&self, now: Nanos) -> (usize, &TickCells) {
        let k = (now.saturating_sub(self.t0) / self.tick_ns) as usize;
        let k = k.min(self.cells.len() - 1);
        (k, &self.cells[k])
    }

    fn measured(&self, tick: usize) -> bool {
        (self.warm..self.ticks).contains(&tick)
    }

    /// The worker's next request, or `None` once the run is over (a
    /// schedule source first drains its queue, so every enqueued request
    /// gets an accounted fate).
    fn next(&self, rng: &mut HatRng, pending: &mut Option<Request>) -> Option<Request> {
        match &self.source {
            Source::Closed => {
                if self.stop.load(Ordering::Relaxed) {
                    return None;
                }
                // The current logical transaction: a retry keeps its kind
                // (parameters are re-drawn, as the paper's driver does).
                pending.take().or_else(|| {
                    let enq = BenchClock::global().now();
                    bump(&self.cell_of(enq).1.offered);
                    Some(Request { enq, attempt: 1, kind: self.h.mix.draw(rng) })
                })
            }
            Source::Schedule { queue, arrived, .. } => {
                let mut q = queue.lock();
                loop {
                    if let Some(r) = q.pop_front() {
                        return Some(r);
                    }
                    if self.stop.load(Ordering::Relaxed) {
                        return None;
                    }
                    arrived.wait_for(&mut q, Duration::from_millis(1));
                }
            }
        }
    }

    /// One transactional worker: take a request, run it, classify the
    /// outcome into `cell`s, and hand failures to [`Run::retry`].
    fn t_worker(&self, worker: u32) {
        let h = self.h;
        let clock = BenchClock::global();
        // A closed-loop client waits for its result however long it takes.
        let (salt, pad, deadline) = match &self.source {
            Source::Closed => (0x7000, Duration::ZERO, Nanos::MAX),
            Source::Schedule { ol, .. } => {
                (0xB000, ol.service_pad, ol.deadline.as_nanos() as Nanos)
            }
        };
        let mut rng = HatRng::derive(h.config.seed, (self.point_idx << 16) | worker as u64 | salt);
        let txnnum_slot = &h.txnnums[worker as usize];
        let mut pending = None;
        loop {
            // Parking: a worker whose index is past the current T
            // allocation contributes no serving capacity. It polls the
            // gauge (well under a tick) rather than blocking so an unpark
            // takes effect immediately; after stop it falls through to
            // the drain.
            while worker >= self.t_alloc.load(Ordering::Relaxed)
                && !self.stop.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_micros(200));
            }
            let Some(req) = self.next(&mut rng, &mut pending) else { break };
            // CoDel-flavored staleness check at dequeue: if the queue
            // alone already ate the deadline, the client is gone — never
            // spend service time on it.
            let now = clock.now();
            let (_, cell) = self.cell_of(now);
            if now.saturating_sub(req.enq) > deadline {
                bump(&cell.shed_stale);
                self.retry(req, cell, &mut rng, &mut pending);
                continue;
            }
            bump(&cell.started);
            if !pad.is_zero() {
                std::thread::sleep(pad);
            }
            let txnnum = txnnum_slot.load(Ordering::Relaxed) + 1;
            let outcome = run_transaction(
                &*h.engine, &h.profile, &h.state, &mut rng, req.kind, worker, txnnum,
            );
            // Client-side commit time (§4.2: "the time when the
            // transaction result is returned to a client").
            let done = clock.now();
            let (tick, cell) = self.cell_of(done);
            match outcome {
                Ok(receipt) => {
                    // Installed durably on the primary either way: consume
                    // the sequence number and record the commit time for
                    // freshness scoring.
                    txnnum_slot.store(txnnum, Ordering::Relaxed);
                    if self.scores_freshness {
                        self.registry.record(worker, txnnum, done);
                    }
                    bump(&cell.completed);
                    let sojourn = done.saturating_sub(req.enq);
                    if !receipt.is_acked() {
                        // Only the durability/replication ack is in doubt:
                        // never goodput, never re-executed.
                        bump(&cell.in_doubt);
                        bump(&cell.deadline_missed);
                        continue;
                    }
                    if self.measured(tick) {
                        match &self.source {
                            Source::Closed => self.txn_latency.record(req.kind.label(), sojourn),
                            Source::Schedule { .. } => self.sojourn.record(sojourn),
                        }
                    }
                    if sojourn <= deadline {
                        bump(&cell.goodput);
                        if let Some(b) = &self.retry_budget {
                            b.on_success();
                        }
                    } else {
                        // The engine committed the work, but the client
                        // stopped waiting at the deadline and (policy
                        // permitting) retries — committed-but-retried is
                        // the classic metastable amplifier.
                        bump(&cell.deadline_missed);
                        self.retry(req, cell, &mut rng, &mut pending);
                    }
                }
                Err(hat_common::HatError::Degraded) => {
                    bump(&cell.shed_degraded);
                    self.retry(req, cell, &mut rng, &mut pending);
                }
                Err(e) if e.is_retryable() => {
                    bump(&cell.aborts);
                    self.retry(req, cell, &mut rng, &mut pending);
                }
                Err(e) => panic!("transactional worker {worker}: {e}"),
            }
        }
    }

    /// The virtual client's reaction to a failed or late attempt. A retry
    /// happens only while both the per-client attempt cap and the shared
    /// budget allow it (the cap is checked first so an already-doomed
    /// attempt never spends a token, and the budget is spent *before* the
    /// retry so a collapsed run converges to give-ups instead of feeding
    /// itself). A closed-loop client backs off and reissues; an open-loop
    /// retry re-enters the arrival queue.
    fn retry(
        &self,
        req: Request,
        cell: &TickCells,
        rng: &mut HatRng,
        pending: &mut Option<Request>,
    ) {
        let policy = &self.h.config.retry;
        if self.stop.load(Ordering::Relaxed) || req.attempt >= policy.max_attempts {
            bump(&cell.gave_up);
            return;
        }
        if self.retry_budget.as_ref().is_some_and(|b| !b.try_spend()) {
            bump(&cell.retry_denied);
            bump(&cell.gave_up);
            return;
        }
        let attempt = req.attempt + 1;
        match &self.source {
            Source::Closed => {
                std::thread::sleep(policy.backoff(req.attempt, rng));
                let enq = BenchClock::global().now();
                *pending = Some(Request { enq, attempt, ..req });
            }
            Source::Schedule { ol, queue, arrived, .. } => {
                let mut q = queue.lock();
                if q.len() >= ol.queue_cap as usize {
                    drop(q);
                    bump(&cell.gave_up);
                    return;
                }
                q.push_back(Request { enq: BenchClock::global().now(), attempt, ..req });
                drop(q);
                arrived.notify_one();
            }
        }
        bump(&cell.retries);
    }

    /// One analytical client (§5.3): batches of all 13 queries, randomly
    /// permuted, back to back, each scored for freshness. A retryable
    /// failure (replica down, read-index timeout) backs off and retries,
    /// then moves on to the next query once the attempts are spent.
    /// Returns the measured freshness samples.
    fn a_client(&self, client: u32, opts: &QueryOpts) -> Vec<FreshnessSample> {
        let clock = BenchClock::global();
        let retry = &self.h.config.retry;
        let stopped = || self.stop.load(Ordering::Relaxed);
        let mut rng =
            HatRng::derive(self.h.config.seed, (self.point_idx << 16) | client as u64 | 0xA000);
        let mut freshness = Vec::new();
        while !stopped() {
            for qid in query_batch(&mut rng) {
                if stopped() {
                    break;
                }
                let spec = ssb::query(qid);
                let mut attempt: u32 = 1;
                loop {
                    let start = clock.now();
                    match self.h.engine.query(&spec, opts) {
                        Ok(out) => {
                            let done = clock.now();
                            let score = score_query(start, &out.freshness, &self.registry);
                            let (tick, cell) = self.cell_of(done);
                            bump(&cell.queries);
                            cell.fresh_ns.fetch_add((score * 1e9) as u64, Ordering::Relaxed);
                            if self.measured(tick) {
                                freshness.push(score);
                                self.query_latency.record(qid.label(), done - start);
                            }
                            break;
                        }
                        Err(e) if e.is_retryable() => {
                            bump(&self.cell_of(clock.now()).1.query_retries);
                            if attempt >= retry.max_attempts || stopped() {
                                break;
                            }
                            std::thread::sleep(retry.backoff(attempt, &mut rng));
                            attempt += 1;
                        }
                        Err(e) => panic!("analytical client {client}: {e}"),
                    }
                }
            }
        }
        freshness
    }

    /// The tick loop, on the driver's own thread. At each boundary: sleep
    /// to it, sample the engine into the closed tick's
    /// [`TimeSeriesSample`], step the controller or hold the pinned split,
    /// and enqueue the new tick's arrivals. Returns the series and the
    /// engine snapshot at the start of measurement.
    fn tick_loop(&self, mut cores: Option<&mut Cores>) -> (Vec<TimeSeriesSample>, MetricsSnapshot) {
        let h = self.h;
        let clock = BenchClock::global();
        let mut gen_rng = HatRng::derive(h.config.seed, (self.point_idx << 16) | 0xC000);
        let mut series = Vec::with_capacity(self.ticks);
        let mut measure_begin = MetricsSnapshot::new();
        for k in 0..=self.ticks {
            let boundary = self.t0 + self.tick_ns * k as Nanos;
            let mut now = clock.now();
            while now < boundary {
                std::thread::sleep(Duration::from_nanos(boundary - now));
                now = clock.now();
            }
            let snap = h.engine.metrics();
            if k > 0 {
                // The split in force during the closed tick (recorded
                // before the controller reacts to it).
                let (t_cores, a_cores) = cores.as_ref().map_or((0, 0), |c| c.budget.split());
                series.push(TimeSeriesSample {
                    t_secs: (now - self.t0) as f64 / 1e9,
                    phase: if k <= self.warm { SamplePhase::Warmup } else { SamplePhase::Measure },
                    run: 0,
                    tps: 0.0,
                    qps: 0.0,
                    backlog: snap.gauge(names::REPL_BACKLOG),
                    delta_rows: snap.gauge(names::DELTA_ROWS),
                    live_versions: snap.gauge(names::LIVE_VERSIONS),
                    freshness_lag: 0.0,
                    health: snap.gauge(names::HEALTH_STATE),
                    shed: 0,
                    shed_overload: 0,
                    offered: 0,
                    t_cores,
                    a_cores,
                });
            }
            if k == self.warm {
                measure_begin = snap;
            }
            if k == self.ticks {
                break;
            }
            if let (Some(c), true) = (cores.as_deref_mut(), k > 0) {
                let closed = self.cells[k - 1].outcome(0);
                let stepped = c.controller.as_mut().map(|ctl| {
                    ctl.step(&SchedSignal {
                        offered: closed.offered,
                        goodput: closed.goodput,
                        shed: closed.shed_overload(),
                        backlog: match &self.source {
                            Source::Closed => 0,
                            Source::Schedule { queue, .. } => queue.lock().len() as u64,
                        },
                        a_done: self.cells[k - 1].queries.load(Ordering::Relaxed),
                    })
                });
                c.record(k, stepped, &self.t_alloc);
            }
            // The generator: the only writer of first attempts to the
            // queue. It sheds at enqueue only when the bounded queue is
            // full (the memory backstop).
            if let Source::Schedule { ol, arrivals, queue, arrived } = &self.source {
                let (n, cell) = (arrivals[k], &self.cells[k]);
                cell.offered.fetch_add(n, Ordering::Relaxed);
                if n > 0 {
                    let enq = clock.now();
                    let mut q = queue.lock();
                    let admitted = n.min((ol.queue_cap as usize).saturating_sub(q.len()) as u64);
                    q.extend((0..admitted).map(|_| Request {
                        enq,
                        attempt: 1,
                        kind: h.mix.draw(&mut gen_rng),
                    }));
                    drop(q);
                    cell.enqueued.fetch_add(admitted, Ordering::Relaxed);
                    cell.shed_queue.fetch_add(n - admitted, Ordering::Relaxed);
                    arrived.notify_all();
                }
            }
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Source::Schedule { arrived, .. } = &self.source {
            arrived.notify_all();
        }
        (series, measure_begin)
    }

    /// Derives both measurements from the cells of the measured ticks.
    fn measurement(
        self,
        mut series: Vec<TimeSeriesSample>,
        measure_begin: MetricsSnapshot,
        freshness: Vec<FreshnessSample>,
        cores: Option<Cores>,
        t_clients: u32,
        a_clients: u32,
    ) -> OpenLoopMeasurement {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let tick_secs = self.tick_ns as f64 / 1e9;
        for (s, c) in series.iter_mut().zip(&self.cells) {
            let (t, queries) = (c.outcome(0), load(&c.queries));
            s.tps = t.goodput as f64 / tick_secs;
            s.qps = queries as f64 / tick_secs;
            if queries > 0 {
                s.freshness_lag = load(&c.fresh_ns) as f64 / 1e9 / queries as f64;
            }
            s.shed = t.shed_degraded;
            s.shed_overload = t.shed_overload();
            s.offered = t.offered;
        }
        let measured = &self.cells[self.warm..self.ticks];
        let ticks: Vec<OpenLoopTick> =
            measured.iter().enumerate().map(|(k, c)| c.outcome(k as u32)).collect();
        let sum = |f: fn(&OpenLoopTick) -> u64| ticks.iter().map(f).sum::<u64>();
        let cell_sum =
            |f: fn(&TickCells) -> &AtomicU64| measured.iter().map(|c| load(f(c))).sum::<u64>();
        let (goodput, queries, in_doubt) =
            (sum(|t| t.goodput), cell_sum(|c| &c.queries), cell_sum(|c| &c.in_doubt));
        let elapsed = ticks.len() as f64 * tick_secs;

        // The window diff captures what the engine did during measurement;
        // the cumulative snapshot keeps the since-start counters (WAL
        // recovery, fsyncs, scan totals).
        let metrics_end = self.h.engine.metrics();
        let mut metrics = metrics_end.diff(&measure_begin);
        metrics.set_counter(names::HARNESS_COMMITTED, sum(|t| t.completed) - in_doubt);
        metrics.set_counter(names::HARNESS_QUERIES, queries);
        metrics.set_counter(
            names::HARNESS_ABORTS,
            sum(|t| t.aborts + t.shed_degraded),
        );
        metrics.set_counter(names::HARNESS_RETRIES, sum(|t| t.retries));
        metrics.set_counter(names::HARNESS_TIMEOUTS, in_doubt);
        metrics.set_counter(names::HARNESS_GAVE_UP, sum(|t| t.gave_up));
        metrics.set_counter(names::HARNESS_QUERY_RETRIES, cell_sum(|c| &c.query_retries));
        metrics.set_gauge(
            names::HARNESS_BACKLOG_HWM,
            series.iter().map(|s| s.backlog).max().unwrap_or(0),
        );
        let sojourn = self.sojourn.snapshot();
        if let Source::Schedule { .. } = &self.source {
            metrics.set_counter(names::OPENLOOP_OFFERED, sum(|t| t.offered));
            metrics.set_counter(names::OPENLOOP_STARTED, cell_sum(|c| &c.started));
            metrics.set_counter(names::OPENLOOP_COMPLETED, sum(|t| t.completed));
            metrics.set_counter(names::OPENLOOP_GOODPUT, goodput);
            metrics.set_counter(names::OPENLOOP_DEADLINE_MISSED, sum(|t| t.deadline_missed));
            metrics.set_counter(names::OPENLOOP_SHED_QUEUE, sum(|t| t.shed_queue));
            metrics.set_counter(names::OPENLOOP_SHED_STALE, sum(|t| t.shed_stale));
            metrics.set_counter(names::OPENLOOP_SHED_DEGRADED, sum(|t| t.shed_degraded));
            metrics.set_counter(names::OPENLOOP_RETRIES, sum(|t| t.retries));
            metrics.set_counter(names::OPENLOOP_RETRY_DENIED, sum(|t| t.retry_denied));
            metrics.set_counter(names::OPENLOOP_GAVE_UP, sum(|t| t.gave_up));
            metrics.set_histogram(names::OPENLOOP_SOJOURN, sojourn.clone());
        }
        let decisions = match cores {
            Some(c) => {
                let (t_final, a_final) = c.budget.split();
                metrics.set_counter(names::SCHED_DECISIONS, c.decisions.len() as u64);
                metrics.set_counter(names::SCHED_REASSIGNMENTS, split_changes(&c.decisions) as u64);
                metrics.set_counter(names::SCHED_A_QUERIES, queries);
                metrics.set_gauge(names::SCHED_T_CORES, u64::from(t_final));
                metrics.set_gauge(names::SCHED_A_CORES, u64::from(a_final));
                c.decisions
            }
            None => Vec::new(),
        };
        self.txn_latency.install(&mut metrics, names::LATENCY_TXN_PREFIX);
        self.query_latency.install(&mut metrics, names::LATENCY_QUERY_PREFIX);

        let point = PointMeasurement {
            t_clients,
            a_clients,
            tps: goodput as f64 / elapsed,
            qps: queries as f64 / elapsed,
            metrics,
            metrics_end,
            timeseries: series,
            freshness,
            measured_secs: elapsed,
        };
        OpenLoopMeasurement { point, ticks, sojourn, decisions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, ScaleFactor};
    use hat_engine::{EngineConfig, ShdEngine};

    fn tiny_harness() -> Harness {
        let data = generate(ScaleFactor(0.0008), 21);
        let engine = ShdEngine::new(EngineConfig::default());
        data.load_into(&engine).unwrap();
        Harness::new(
            Arc::new(engine),
            data.profile.clone(),
            BenchmarkConfig {
                warmup: Duration::from_millis(30),
                measure: Duration::from_millis(120),
                seed: 99,
                reset_between_points: true,
                ..BenchmarkConfig::default()
            },
        )
    }

    #[test]
    fn retry_policy_backs_off_on_degraded() {
        use hat_common::HatError;
        // Shed commits surface as retryable `Degraded`: the client loop
        // (`Err(e) if e.is_retryable()`) takes the backoff path — not
        // give-up, not committed-in-doubt.
        assert!(HatError::Degraded.is_retryable());
        assert!(!HatError::Degraded.is_commit_in_doubt());
        // A durability wait voided *after* install is committed-in-doubt:
        // the in-doubt arm precedes the retry arm in the client loop, so
        // it is recorded (sequence number consumed) and never
        // re-executed — exactly like `ReplicationTimeout`.
        assert!(HatError::DurabilityInDoubt.is_commit_in_doubt());
        assert!(HatError::DurabilityInDoubt.is_retryable());
        let policy = RetryPolicy::default();
        let mut rng = HatRng::seeded(7);
        for attempt in 1..=8u32 {
            let ceiling = policy
                .initial_backoff
                .saturating_mul(1u32 << (attempt - 1).min(20))
                .min(policy.max_backoff);
            for _ in 0..32 {
                let b = policy.backoff(attempt, &mut rng);
                assert!(b <= ceiling, "attempt {attempt}: {b:?} > {ceiling:?}");
            }
        }
        // The jittered ceiling actually grows with consecutive sheds, so
        // a degraded engine sees an ever-sparser retry stream.
        let max_at = |attempt: u32| {
            let mut rng = HatRng::seeded(11);
            (0..64).map(|_| policy.backoff(attempt, &mut rng)).max().unwrap()
        };
        assert!(max_at(5) > max_at(1), "backoff grows with attempts");
    }

    #[test]
    fn pure_txn_point_produces_throughput() {
        let h = tiny_harness();
        let m = h.run_point(2, 0).unwrap();
        assert!(m.tps > 0.0, "committed {} in {}s", m.committed(), m.measured_secs);
        assert_eq!(m.qps, 0.0);
        assert_eq!(m.t_clients, 2);
        assert!(m.freshness.is_empty());
    }

    #[test]
    fn pure_analytic_point_produces_queries() {
        let h = tiny_harness();
        let m = h.run_point(0, 2).unwrap();
        assert!(m.qps > 0.0, "{} queries", m.queries());
        assert_eq!(m.tps, 0.0);
    }

    #[test]
    fn mixed_point_measures_both_and_scores_freshness() {
        let h = tiny_harness();
        let m = h.run_point(2, 1).unwrap();
        assert!(m.tps > 0.0);
        assert!(m.qps > 0.0);
        assert_eq!(m.freshness.len() as u64, m.queries());
        // Shared engine: freshness must be (essentially) zero.
        let agg = crate::freshness::FreshnessAgg::from_samples(&m.freshness);
        assert!(agg.p99 < 0.005, "shared design is fresh, saw p99={}", agg.p99);
    }

    #[test]
    fn latency_stats_collected_per_label() {
        let h = tiny_harness();
        let m = h.run_point(2, 1).unwrap();
        let txn = m.txn_latency();
        let query = m.query_latency();
        assert!(!txn.is_empty(), "txn latencies recorded");
        assert!(!query.is_empty(), "query latencies recorded");
        let total: u64 = txn.iter().map(|(_, s)| s.count).sum();
        assert_eq!(total, m.committed());
        let qtotal: u64 = query.iter().map(|(_, s)| s.count).sum();
        assert_eq!(qtotal, m.queries());
        for (label, stats) in txn.iter().chain(&query) {
            assert!(stats.mean_ms > 0.0, "{label}");
            assert!(stats.p95_ms >= stats.mean_ms * 0.1, "{label}");
            assert!(stats.max_ms >= stats.p95_ms, "{label}");
        }
    }

    #[test]
    fn timeseries_sampled_through_both_phases() {
        let h = tiny_harness();
        let m = h.run_point(2, 1).unwrap();
        let warm = m
            .timeseries
            .iter()
            .filter(|s| s.phase == SamplePhase::Warmup)
            .count();
        let meas = m
            .timeseries
            .iter()
            .filter(|s| s.phase == SamplePhase::Measure)
            .count();
        assert!(warm >= 1, "warmup sampled ({warm})");
        assert!(meas >= 5, "at least five measurement samples ({meas})");
        // Samples are time-ordered and the engine committed something
        // over the run, so some interval must show commits.
        let ordered = m.timeseries.windows(2).all(|w| w[0].t_secs <= w[1].t_secs);
        assert!(ordered, "time series is ordered");
        assert!(m.timeseries.iter().any(|s| s.tps > 0.0));
    }

    #[test]
    fn window_metrics_match_engine_deltas() {
        let h = tiny_harness();
        let m = h.run_point(2, 0).unwrap();
        // The engine committed at least as much as the harness
        // acknowledged during measurement (engine window also catches
        // commits straddling the phase flip).
        assert!(m.metrics.counter(names::TXN_COMMITS) > 0);
        assert!(m.metrics_end.counter(names::TXN_COMMITS) >= m.committed());
        // Commit spans were recorded in the window.
        let span = m.metrics.histogram(names::SPAN_COMMIT).expect("commit span");
        assert!(span.count > 0);
    }

    #[test]
    fn averaging_repeated_points() {
        let h = tiny_harness();
        let avg = h.run_point_avg(1, 1, 2).unwrap();
        assert!(avg.tps > 0.0);
        assert_eq!(avg.freshness.len() as u64, avg.queries(), "samples concatenated");
        assert!(avg.timeseries.iter().any(|s| s.run == 1), "series tagged per run");
        // Synthetic check of the math.
        let mut a = PointMeasurement::zero(1, 0);
        a.tps = 10.0;
        a.metrics.set_counter(names::HARNESS_COMMITTED, 10);
        a.metrics
            .set_histogram("latency.txn.payment", HistogramSnapshot::from_values(&[100]));
        let mut b = PointMeasurement::zero(1, 0);
        b.tps = 20.0;
        b.metrics.set_counter(names::HARNESS_COMMITTED, 20);
        b.metrics
            .set_histogram("latency.txn.payment", HistogramSnapshot::from_values(&[300]));
        let m = PointMeasurement::average(vec![a, b]);
        assert_eq!(m.tps, 15.0);
        assert_eq!(m.committed(), 30);
        // Latency histograms merged across runs, not taken from one run.
        let lat = m.txn_latency();
        assert_eq!(lat.len(), 1);
        assert_eq!(lat[0].1.count, 2);
    }

    #[test]
    fn origin_point_is_zero() {
        let h = tiny_harness();
        let m = h.run_point(0, 0).unwrap();
        assert_eq!(m.tps, 0.0);
        assert_eq!(m.qps, 0.0);
    }

    #[test]
    fn reset_between_points_keeps_results_stable() {
        let h = tiny_harness();
        let a = h.run_point(1, 0).unwrap();
        let b = h.run_point(1, 0).unwrap();
        assert!(a.tps > 0.0 && b.tps > 0.0);
        // Same initial state both times: throughputs within 5x of each
        // other (loose CI-safe check; the point is no systematic collapse
        // from unreset growth).
        let ratio = a.tps.max(b.tps) / a.tps.min(b.tps);
        assert!(ratio < 5.0, "tps {} vs {}", a.tps, b.tps);
    }
}
