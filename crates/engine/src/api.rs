//! The engine-facing API the HATtrick workload drives.
//!
//! A [`Session`] is a single in-flight transaction offering typed point
//! operations (index lookups, reads, buffered writes); [`HtapEngine`] adds
//! bulk load, analytical query execution, benchmark reset, and metrics. The
//! workload crate is written once against these traits and runs unchanged
//! on every engine design.

use hat_common::telemetry::MetricsSnapshot;
use hat_common::{ColId, Result, Row, TableId};
use hat_query::exec::{QueryOpts, QueryOutput};
use hat_query::spec::QuerySpec;
use hat_storage::rowstore::RowId;
use hat_txn::{IsolationLevel, Ts};

pub use crate::durability::DurabilityMode;

/// Which B+tree indexes exist — the paper's "physical schemas" experiment
/// (Figure 6b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexProfile {
    /// No indexes at all: every lookup is a scan.
    None,
    /// Indexes that accelerate only the T workload: primary keys, the name
    /// secondaries, and the lineorder-by-customer index.
    Semi,
    /// Everything in `Semi` plus the lineorder-by-orderdate index, which
    /// also accelerates the date-filtered analytical queries.
    #[default]
    All,
}

impl IndexProfile {
    /// Label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            IndexProfile::None => "no-indexes",
            IndexProfile::Semi => "semi-indexes",
            IndexProfile::All => "all-indexes",
        }
    }

    /// Whether T-accelerating indexes exist.
    pub fn has_txn_indexes(self) -> bool {
        !matches!(self, IndexProfile::None)
    }

    /// Whether the analytical orderdate index exists.
    pub fn has_analytic_indexes(self) -> bool {
        matches!(self, IndexProfile::All)
    }
}

/// Engine-independent configuration.
///
/// Construct via [`EngineConfig::builder`] (or start from
/// [`EngineConfig::default`] and adjust fields): the struct is
/// `#[non_exhaustive]`, so field-struct literals outside this crate no
/// longer compile — future knobs then never churn call sites.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    pub isolation: IsolationLevel,
    pub indexes: IndexProfile,
    /// How commits become durable, paid after installation outside the
    /// commit critical section. Real engines pay this on every commit; it
    /// is also what makes the transactional workload scale with clients
    /// instead of saturating at one (clients overlap their flush waits).
    /// The default models an SSD-class group-commit flush as a coalesced
    /// sleep; [`DurabilityMode::Fsync`] runs a real on-disk WAL.
    pub durability: DurabilityMode,
    /// Cadence of the background MVCC vacuum thread that reclaims row
    /// versions below the oldest active snapshot. `None` disables vacuum
    /// entirely — version chains then grow for the life of the run, which
    /// is the pre-vacuum behavior and still useful as an ablation.
    pub vacuum_interval: Option<std::time::Duration>,
}

impl EngineConfig {
    /// Default commit durability latency (an SSD-class WAL flush).
    pub const DEFAULT_COMMIT_LATENCY: std::time::Duration =
        std::time::Duration::from_micros(100);

    /// Default background-vacuum cadence. Frequent enough that candidate
    /// sets stay small (cost tracks update rate) while staying invisible
    /// next to commit and query work.
    pub const DEFAULT_VACUUM_INTERVAL: std::time::Duration =
        std::time::Duration::from_millis(25);

    /// Convenience: this config with durability waits disabled (tests).
    pub fn without_durability(mut self) -> Self {
        self.durability = DurabilityMode::Off;
        self
    }

    /// Starts a builder seeded with the paper-baseline defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }
}

/// Builder for [`EngineConfig`] — the supported way to construct one
/// outside this crate. Every setter defaults to the paper baseline
/// ([`EngineConfig::default`]).
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Transaction isolation level.
    pub fn isolation(mut self, isolation: IsolationLevel) -> Self {
        self.config.isolation = isolation;
        self
    }

    /// Physical index schema.
    pub fn indexes(mut self, indexes: IndexProfile) -> Self {
        self.config.indexes = indexes;
        self
    }

    /// Commit durability mode.
    pub fn durability(mut self, durability: DurabilityMode) -> Self {
        self.config.durability = durability;
        self
    }

    /// Background vacuum cadence.
    pub fn vacuum_interval(mut self, interval: std::time::Duration) -> Self {
        self.config.vacuum_interval = Some(interval);
        self
    }

    /// Disables the background vacuum thread (version chains grow
    /// unboundedly — the pre-vacuum ablation).
    pub fn no_vacuum(mut self) -> Self {
        self.config.vacuum_interval = None;
        self
    }

    /// Finalizes the config.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            isolation: IsolationLevel::Serializable,
            indexes: IndexProfile::All,
            durability: DurabilityMode::Sleep(EngineConfig::DEFAULT_COMMIT_LATENCY),
            vacuum_interval: Some(EngineConfig::DEFAULT_VACUUM_INTERVAL),
        }
    }
}

/// The architecture categories of §2.2, used as ground truth for the
/// frontier-shape classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignCategory {
    Shared,
    Isolated,
    Hybrid,
}

impl DesignCategory {
    /// Label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            DesignCategory::Shared => "shared",
            DesignCategory::Isolated => "isolated",
            DesignCategory::Hybrid => "hybrid",
        }
    }
}

/// Named secondary-access paths the workload can probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamedIndex {
    /// `c_custkey -> rid`
    CustomerPk,
    /// `c_name -> rid`
    CustomerName,
    /// `s_suppkey -> rid`
    SupplierPk,
    /// `s_name -> rid`
    SupplierName,
    /// `p_partkey -> rid`
    PartPk,
    /// `d_datekey -> rid`
    DatePk,
    /// `(lo_custkey, rid)` composite — prefix counting for Count Orders.
    LineorderByCustomer,
}

/// Why an acknowledged commit is still *in doubt* somewhere downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InDoubtCause {
    /// The synchronous-replication wait timed out after the transaction
    /// installed on the primary: durable locally, unconfirmed at the
    /// replica (the old [`HatError::ReplicationTimeout`] outcome).
    ///
    /// [`HatError::ReplicationTimeout`]: hat_common::HatError::ReplicationTimeout
    Replication,
    /// A storage fault voided the durability wait after install: the
    /// commit stays visible and its WAL frame is re-queued, but the
    /// acknowledgement never confirmed disk (the old
    /// [`HatError::DurabilityInDoubt`] outcome).
    ///
    /// [`HatError::DurabilityInDoubt`]: hat_common::HatError::DurabilityInDoubt
    Durability,
}

/// How durable/confirmed a successful commit is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitDurability {
    /// Fully acknowledged: installed, durable per the engine's mode, and
    /// (where applicable) replicated.
    Acked,
    /// Installed and visible, but some acknowledgement never arrived. The
    /// client must treat the transaction as committed — re-executing it
    /// would double-apply — while accounting it separately from clean
    /// acks.
    InDoubt(InDoubtCause),
}

/// What [`Session::commit`] returns: the commit timestamp plus an honest
/// durability verdict. Committed-in-doubt outcomes used to be smuggled
/// through the error enum (`Err(ReplicationTimeout)` *after* the commit
/// installed); they are now `Ok` with [`CommitDurability::InDoubt`], so
/// `Err` from commit always means *not installed*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an InDoubt receipt must not be treated as a clean ack"]
pub struct CommitReceipt {
    /// The commit timestamp (begin snapshot for read-only transactions).
    pub ts: Ts,
    /// Whether the acknowledgement is clean or in doubt.
    pub durability: CommitDurability,
}

impl CommitReceipt {
    /// A cleanly acknowledged commit at `ts`.
    pub fn acked(ts: Ts) -> Self {
        CommitReceipt { ts, durability: CommitDurability::Acked }
    }

    /// A committed-in-doubt outcome at `ts`.
    pub fn in_doubt(ts: Ts, cause: InDoubtCause) -> Self {
        CommitReceipt { ts, durability: CommitDurability::InDoubt(cause) }
    }

    /// Whether the commit was cleanly acknowledged.
    pub fn is_acked(&self) -> bool {
        self.durability == CommitDurability::Acked
    }
}

/// One in-flight transaction.
///
/// All reads observe the session's isolation level; all writes are buffered
/// and installed atomically at [`Session::commit`].
pub trait Session {
    /// Point lookup through a `u32`-keyed index (or a scan fallback when
    /// the index doesn't exist in the current [`IndexProfile`]).
    fn lookup_u32(&mut self, index: NamedIndex, key: u32) -> Result<Option<(RowId, Row)>>;

    /// Point lookup through a string-keyed index (or scan fallback).
    fn lookup_str(&mut self, index: NamedIndex, key: &str) -> Result<Option<(RowId, Row)>>;

    /// Counts visible fact rows with `lo_custkey = key` via the composite
    /// index (or a full fact scan when absent — the Count Orders
    /// transaction's cost under `IndexProfile::None`).
    fn count_orders(&mut self, custkey: u32) -> Result<u64>;

    /// Reads one row by id.
    fn read(&mut self, table: TableId, rid: RowId) -> Result<Option<Row>>;

    /// Buffers an insert.
    fn insert(&mut self, table: TableId, row: Row) -> Result<()>;

    /// Locks `rid` and buffers an update. Fails fast on write conflict.
    fn update(&mut self, table: TableId, rid: RowId, row: Row) -> Result<()>;

    /// Scan-based point lookup on an arbitrary `u32` column (no-index
    /// fallback; exposed for tests and custom workloads).
    fn scan_lookup_u32(
        &mut self,
        table: TableId,
        col: ColId,
        key: u32,
    ) -> Result<Option<(RowId, Row)>>;

    /// Commits. `Ok` means the transaction installed — inspect the
    /// receipt's [`CommitDurability`] for in-doubt acknowledgements.
    /// `Err` always means nothing installed (clean abort or shed).
    fn commit(self: Box<Self>) -> Result<CommitReceipt>;

    /// Aborts, releasing all locks.
    fn abort(self: Box<Self>);
}

/// An HTAP engine under test.
pub trait HtapEngine: Send + Sync {
    /// Engine name used in reports ("postgres-like", "tidb-like", ...).
    fn name(&self) -> String;

    /// The architecture category this engine implements (ground truth).
    fn design(&self) -> DesignCategory;

    /// Bulk-loads rows into `table` at the load timestamp, building
    /// indexes. Must be called before any traffic.
    fn load(&self, table: TableId, rows: &mut dyn Iterator<Item = Row>) -> Result<()>;

    /// Finishes loading: seals columnar segments, starts background
    /// workers, records loaded sizes for [`HtapEngine::reset`].
    fn finish_load(&self) -> Result<()>;

    /// Starts a transactional session.
    fn begin(&self) -> Box<dyn Session + '_>;

    /// Runs one analytical query at the engine's freshest available
    /// snapshot, per its design (shared: current snapshot; isolated:
    /// replica's applied horizon; hybrid: merge/wait then read), with
    /// explicit execution options (probe parallelism). Results are
    /// bit-identical across option values. Pass `&QueryOpts::default()`
    /// for the serial probe.
    fn query(&self, spec: &QuerySpec, opts: &QueryOpts) -> Result<QueryOutput>;

    /// Restores the data to its initial post-load state (the paper resets
    /// before each benchmark run, §6.1). Must be called with no concurrent
    /// traffic.
    fn reset(&self) -> Result<()>;

    /// One diffable, serializable snapshot of every metric the engine
    /// tracks: kernel counters, span histograms, durability counters, and
    /// the engine's own gauges (replication backlog, delta rows). The
    /// harness diffs successive snapshots for measurement windows and
    /// time-series sampling.
    fn metrics(&self) -> MetricsSnapshot;

    /// A no-op kept only because the tracing wrapper in `benchmark/`
    /// overrides it.
    fn set_txn_cores(&self, t_cores: u32, total: u32) {
        let _ = (t_cores, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_profiles() {
        assert!(!IndexProfile::None.has_txn_indexes());
        assert!(IndexProfile::Semi.has_txn_indexes());
        assert!(!IndexProfile::Semi.has_analytic_indexes());
        assert!(IndexProfile::All.has_analytic_indexes());
        assert_eq!(IndexProfile::default(), IndexProfile::All);
    }

    #[test]
    fn default_config_matches_paper_baseline() {
        // §6.2 baseline: serializable isolation, all indexes.
        let c = EngineConfig::default();
        assert_eq!(c.isolation, IsolationLevel::Serializable);
        assert_eq!(c.indexes, IndexProfile::All);
        // Commits pay a durability wait by default (Sleep group commit at
        // the SSD-class latency) so throughput numbers stay honest.
        assert!(!c.durability.is_off());
        assert_eq!(c.durability, DurabilityMode::Sleep(EngineConfig::DEFAULT_COMMIT_LATENCY));
        assert_eq!(c.without_durability().durability, DurabilityMode::Off);
    }

    #[test]
    fn builder_covers_every_knob_and_defaults_to_baseline() {
        let c = EngineConfig::builder().build();
        let d = EngineConfig::default();
        assert_eq!(c.isolation, d.isolation);
        assert_eq!(c.indexes, d.indexes);
        assert_eq!(c.durability, d.durability);
        assert_eq!(c.vacuum_interval, d.vacuum_interval);
        assert_eq!(
            d.vacuum_interval,
            Some(EngineConfig::DEFAULT_VACUUM_INTERVAL),
            "vacuum is on by default"
        );

        let c = EngineConfig::builder()
            .isolation(IsolationLevel::ReadCommitted)
            .indexes(IndexProfile::Semi)
            .durability(DurabilityMode::Off)
            .vacuum_interval(std::time::Duration::from_millis(3))
            .build();
        assert_eq!(c.isolation, IsolationLevel::ReadCommitted);
        assert_eq!(c.indexes, IndexProfile::Semi);
        assert!(c.durability.is_off());
        assert_eq!(c.vacuum_interval, Some(std::time::Duration::from_millis(3)));
        assert_eq!(EngineConfig::builder().no_vacuum().build().vacuum_interval, None);
    }

    #[test]
    fn commit_receipt_classification() {
        let acked = CommitReceipt::acked(42);
        assert!(acked.is_acked());
        assert_eq!(acked.ts, 42);
        let doubt = CommitReceipt::in_doubt(43, InDoubtCause::Replication);
        assert!(!doubt.is_acked());
        assert_eq!(doubt.durability, CommitDurability::InDoubt(InDoubtCause::Replication));
        let doubt = CommitReceipt::in_doubt(44, InDoubtCause::Durability);
        assert_eq!(doubt.durability, CommitDurability::InDoubt(InDoubtCause::Durability));
    }

    #[test]
    fn design_labels() {
        assert_eq!(DesignCategory::Shared.label(), "shared");
        assert_eq!(DesignCategory::Isolated.label(), "isolated");
        assert_eq!(DesignCategory::Hybrid.label(), "hybrid");
    }
}
