//! The one file that names product APIs.
//!
//! Every other benchmark module imports product items from here, so a
//! product refactor (the ROADMAP's harness / stats-relay collapse, a
//! renamed config, a moved module) is absorbed by editing this file alone.
//! The closed-loop and paced drivers live in `drive.rs` and use only
//! `HtapEngine`/`Session`, `run_transaction`, `query_batch`, `ssb::query`
//! and `CommitRegistry`/`score_query` — never `Harness::run_point` or
//! `PointMeasurement`. `Harness` appears once, for `burst.shared`.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use hat_common::clock::BenchClock;
pub use hat_common::ids::{history, supplier, TableId};
pub use hat_common::rng::HatRng;
pub use hat_common::telemetry::json::Json;
pub use hat_common::telemetry::{names, HistogramSnapshot, MetricsSnapshot};
pub use hat_common::{ColId, Row};
pub use hat_engine::{
    CommitReceipt, DesignCategory, HtapEngine, NamedIndex, QueryOpts, ScanMode, Session,
};
pub use hat_query::exec::QueryOutput;
pub use hat_query::predicate::Predicate;
pub use hat_query::spec::{AggExpr, QueryId, QuerySpec};
pub use hat_query::ssb;
pub use hat_storage::rowstore::RowId;
pub use hattrick::freshness::{score_query, CommitRegistry};
pub use hattrick::gen::{generate, DataProfile, ScaleFactor};
pub use hattrick::openloop::arrival_schedule;
pub use hattrick::workload::{query_batch, run_transaction, TxnKind, TxnMix, WorkloadState};

/// Product result type (the benchmark's own errors are `String`s).
pub type HatResult<T> = hat_common::Result<T>;

/// Types the direct layer probes (`probes.rs`) time, re-exported so the
/// probes name no product path themselves.
pub mod layers {
    pub use hat_common::ids::lineorder;
    pub use hat_storage::bptree::BPlusTree;
    pub use hat_storage::colstore::ColumnTable;
    pub use hat_storage::dwal::{DurableWal, WalConfig};
    pub use hat_storage::rowstore::RowStore;
    pub use hat_storage::wal::TableOp;
    pub use hat_txn::{LockManager, SnapshotRegistry, TsOracle};
}

use hat_engine::{
    DualConfig, DualEngine, DurabilityMode, EngineConfig, IsoConfig, IsoEngine, ReplicationMode,
    ShdEngine, WalConfig,
};
use hattrick::harness::{BenchmarkConfig, Harness, RetryBudgetConfig, RetryPolicy};
use hattrick::openloop::{ArrivalShape, OpenLoopConfig};

/// The five engine configurations the workloads run on. Everything not
/// named here is the product default (25 ms vacuum interval, 1 commit
/// shard, serializable isolation, admission gates disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `ShdEngine`, `DurabilityMode::Off`: commits acknowledge at install.
    SharedMem,
    /// `ShdEngine`, `DurabilityMode::Fsync(WalConfig::new(dir))`: real
    /// fsync per group-commit batch, 4 MiB segments, no periodic
    /// checkpoints (one at the end of the load).
    SharedFsync,
    /// `ShdEngine`, `EngineConfig::default()`: 100 µs coalesced sleep per
    /// group-commit flush.
    SharedDefault,
    /// `DualEngine`, `DualConfig::default()`: semi indexes, 4096-row merge
    /// threshold, 5 ms compactor, 60 µs commit sleep.
    Dual,
    /// `IsoEngine`, `ReplicationMode::Async` over
    /// `IsoConfig::coalesced_default()`: 500 µs one-way link, 120 µs replay
    /// cost per record, no local commit wait.
    IsoAsync,
}

impl EngineKind {
    /// The configuration as recorded in every result.
    pub fn describe(self) -> &'static str {
        match self {
            EngineKind::SharedMem => "ShdEngine durability=Off vacuum=25ms shards=1",
            EngineKind::SharedFsync => {
                "ShdEngine durability=Fsync(sync=true, segment=4MiB, checkpoint at load only) \
                 vacuum=25ms shards=1"
            }
            EngineKind::SharedDefault => {
                "ShdEngine durability=Sleep(100us, coalesced) vacuum=25ms shards=1 admission=off"
            }
            EngineKind::Dual => {
                "DualEngine durability=Sleep(60us) merge_threshold=4096 merge_interval=5ms \
                 vacuum=25ms shards=1"
            }
            EngineKind::IsoAsync => {
                "IsoEngine mode=Async link_one_way=500us replay_cost=120us durability=Off \
                 vacuum=25ms shards=1"
            }
        }
    }
}

/// A constructed, not yet loaded engine.
pub struct Built {
    pub engine: Arc<dyn HtapEngine>,
    iso: Option<Arc<IsoEngine>>,
}

impl Built {
    /// Blocks until the isolated engine's replica has applied every logged
    /// commit (no-op on single-copy engines).
    pub fn quiesce(&self) {
        if let Some(iso) = &self.iso {
            iso.quiesce_replication();
        }
    }
}

fn fsync_config(wal_dir: &Path) -> EngineConfig {
    EngineConfig::builder().durability(DurabilityMode::Fsync(WalConfig::new(wal_dir))).build()
}

/// Constructs an engine of `kind`. `wal_dir` is used by `SharedFsync` only
/// and must be empty (a non-empty directory would be recovered instead).
pub fn build_engine(kind: EngineKind, wal_dir: &Path) -> HatResult<Built> {
    let plain = |engine: Arc<dyn HtapEngine>| Built { engine, iso: None };
    Ok(match kind {
        EngineKind::SharedMem => plain(Arc::new(ShdEngine::try_new(
            EngineConfig::builder().durability(DurabilityMode::Off).build(),
        )?)),
        EngineKind::SharedFsync => plain(Arc::new(ShdEngine::try_new(fsync_config(wal_dir))?)),
        EngineKind::SharedDefault => plain(Arc::new(ShdEngine::try_new(EngineConfig::default())?)),
        EngineKind::Dual => plain(Arc::new(DualEngine::new(DualConfig::default()))),
        EngineKind::IsoAsync => {
            let iso = Arc::new(IsoEngine::new(IsoConfig {
                mode: ReplicationMode::Async,
                ..IsoConfig::coalesced_default()
            }));
            Built { engine: iso.clone(), iso: Some(iso) }
        }
    })
}

/// Opens a fresh `SharedFsync` engine on a WAL directory a previous engine
/// wrote: the product replays checkpoint + WAL tail before returning.
pub fn recover_fsync_engine(wal_dir: &Path) -> HatResult<Arc<dyn HtapEngine>> {
    Ok(Arc::new(ShdEngine::try_new(fsync_config(wal_dir))?))
}

/// Generates the dataset and loads it into `engine`.
pub fn generate_and_load(sf: f64, seed: u64, engine: &dyn HtapEngine) -> HatResult<DataProfile> {
    let data = generate(ScaleFactor(sf), seed);
    data.load_into(engine)?;
    Ok(data.profile)
}

/// A whole-table aggregate through the analytical path.
pub fn whole_table(engine: &dyn HtapEngine, table: TableId, agg: AggExpr) -> HatResult<i64> {
    let spec = QuerySpec {
        id: QueryId::Q1_1,
        fact: table,
        fact_filter: Predicate::all(),
        joins: vec![],
        group_by: vec![],
        agg,
    };
    let out = engine.query(&spec, &QueryOpts::with_parallelism(1))?;
    Ok(out.groups.first().map_or(0, |g| g.agg))
}

/// Shape of the `burst.shared` open-loop run. `ticks` 5 ms ticks at
/// `RATE` Poisson arrivals/s, ×`MULT` for ticks `[ticks/3, ticks*7/15)`
/// (1000–1400 of 3000 in the issue's sizing), 20 ms deadline, 2 workers,
/// no service pad, retry budget capped at 100 tokens.
pub struct Burst {
    pub ticks: u32,
    pub burst: bool,
}

impl Burst {
    pub const RATE: f64 = 1500.0;
    pub const MULT: f64 = 4.0;
    pub const TICK: Duration = Duration::from_millis(5);
    pub const DEADLINE: Duration = Duration::from_millis(20);
    pub const WORKERS: u32 = 2;

    pub fn for_seconds(seconds: f64, burst: bool) -> Burst {
        let ticks = (seconds / Self::TICK.as_secs_f64()).round().max(15.0) as u32;
        Burst { ticks, burst }
    }

    pub fn nominal_secs(&self) -> f64 {
        Self::TICK.as_secs_f64() * f64::from(self.ticks)
    }

    fn config(&self) -> OpenLoopConfig {
        let shape = if self.burst {
            ArrivalShape::Step {
                mult: Self::MULT,
                from_tick: self.ticks / 3,
                until_tick: self.ticks * 7 / 15,
            }
        } else {
            ArrivalShape::Poisson
        };
        OpenLoopConfig {
            arrival_rate: Self::RATE,
            shape,
            deadline: Self::DEADLINE,
            workers: Self::WORKERS,
            ticks: self.ticks,
            tick: Self::TICK,
            service_pad: Duration::ZERO,
            ..OpenLoopConfig::default()
        }
    }

    /// Arrivals the seeded schedule will offer.
    pub fn scheduled_arrivals(&self, seed: u64) -> u64 {
        arrival_schedule(&self.config(), seed).iter().sum()
    }
}

/// What one open-loop run reported (product counters, summed over ticks).
#[derive(Debug, Clone, Default)]
pub struct BurstOutcome {
    pub offered: u64,
    pub goodput: u64,
    pub completed: u64,
    pub deadline_missed: u64,
    pub shed_queue: u64,
    pub shed_stale: u64,
    pub shed_engine: u64,
    pub shed_degraded: u64,
    pub retries: u64,
    pub retry_denied: u64,
    pub gave_up: u64,
    pub aborts: u64,
    /// Enqueue→completion of executed requests, nanoseconds.
    pub sojourn: HistogramSnapshot,
    /// Engine-counter deltas across the run.
    pub engine_window: MetricsSnapshot,
}

/// The product's open-loop driver (`Harness::run_open_loop`) bound to one
/// loaded engine. Its workers keep their transaction sequence numbers
/// across runs (`reset_between_points` is off), so a warm-up run followed
/// by a measured run is one continuous history.
pub struct OpenLoop {
    harness: Harness,
}

impl OpenLoop {
    pub fn new(engine: Arc<dyn HtapEngine>, profile: DataProfile, seed: u64) -> OpenLoop {
        let config = BenchmarkConfig {
            seed,
            reset_between_points: false,
            retry: RetryPolicy {
                budget: Some(RetryBudgetConfig { cap: 100, ..RetryBudgetConfig::default() }),
                ..RetryPolicy::default()
            },
            ..BenchmarkConfig::default()
        };
        OpenLoop { harness: Harness::new(engine, profile, config) }
    }

    pub fn run(&self, shape: &Burst) -> HatResult<BurstOutcome> {
        let m = self.harness.run_open_loop(&shape.config())?;
        let sum = |f: fn(&hattrick::openloop::OpenLoopTick) -> u64| -> u64 {
            m.ticks.iter().map(f).sum()
        };
        Ok(BurstOutcome {
            offered: m.offered(),
            goodput: m.goodput(),
            completed: m.completed(),
            deadline_missed: m.deadline_missed(),
            shed_queue: sum(|t| t.shed_queue),
            shed_stale: sum(|t| t.shed_stale),
            shed_engine: sum(|t| t.shed_engine),
            shed_degraded: m.shed_degraded(),
            retries: m.retries(),
            retry_denied: m.retry_denied(),
            gave_up: m.gave_up(),
            aborts: sum(|t| t.aborts),
            sojourn: m.sojourn.clone(),
            engine_window: m.point.metrics.clone(),
        })
    }
}

/// Quantile `q` of a product histogram, interpolated linearly inside the
/// bucket that holds the target rank (the product's own `quantile` returns
/// the bucket's upper edge, which repeats exactly from run to run and
/// carries up to 6.25 % error). Clamped to the exact observed extremes.
pub fn interpolated_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    use hat_common::telemetry::{bucket_lower, bucket_upper};
    if h.count == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * h.count as f64;
    let mut seen = 0.0;
    for &(i, n) in &h.buckets {
        let n = n as f64;
        if seen + n >= target {
            let lo = bucket_lower(i as usize) as f64;
            let hi = bucket_upper(i as usize) as f64 + 1.0;
            let within = ((target - seen) / n).clamp(0.0, 1.0);
            return (lo + (hi - lo) * within).clamp(h.min as f64, h.max as f64);
        }
        seen += n;
    }
    h.max as f64
}
