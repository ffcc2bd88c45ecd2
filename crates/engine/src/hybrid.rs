//! The hybrid-design engines (§2.2): one machine, shared resources, two
//! data formats.
//!
//! * [`DualEngine`] — "System-X"-like (§6.4): an OCC row store plus an
//!   in-memory columnar copy. Committed fact rows land in a row-format
//!   delta; every analytical query synchronously folds the delta tail up to
//!   its start timestamp into its scan (merge-on-read), so freshness is
//!   zero. A background thread compacts the delta into sealed compressed
//!   segments.
//! * [`LearnerEngine`] — TiDB-like (§6.5): commits pay simulated Raft
//!   consensus rounds; an asynchronous *learner* thread consumes the log
//!   and maintains the columnar copy; each analytical query performs a
//!   read-index wait until the learner reaches the query's start timestamp,
//!   so freshness is zero at the cost of wait latency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hat_common::telemetry::{names, MetricsSnapshot};
use hat_common::{HatError, Result, TableId};
use hat_query::view::MixedView;
use hat_storage::colstore::{ColumnTable, DimColumnCopy};
use hat_storage::wal::{LogRecord, TableOp};
use hat_txn::{IsolationLevel, Ts, LOAD_TS};

use crate::api::{DesignCategory, EngineConfig, IndexProfile};
use crate::design::{Background, Design, Engine, Snapshot};
use crate::follower::{Follower, Pace, Replay, DEFAULT_RETENTION};
use crate::kernel::{CommitHooks, RowKernel};
use crate::netsim::NetworkLink;

/// The columnar side shared by both hybrid engines: a live fact copy
/// (insert delta) and dimension copies with update overlays.
///
/// HISTORY is insert-only and never scanned by the SSB queries; it stays
/// row-format. The freshness side-read always goes to the row store at the
/// query snapshot, which observes exactly the same committed prefix.
struct ColumnarSide {
    lineorder: ColumnTable,
    dims: Vec<DimColumnCopy>,
    /// Sealed lineorder segments built at load time (what reset keeps).
    base_segments: AtomicUsize,
}

/// Rows per sealed base segment. Matches the executor's morsel size, so
/// with date-clustered loading each base segment is one prunable morsel
/// with a tight orderdate zone map.
const LOAD_SEGMENT_ROWS: usize = 4096;

impl ColumnarSide {
    fn new() -> Self {
        ColumnarSide {
            lineorder: ColumnTable::new(TableId::Lineorder),
            dims: [TableId::Customer, TableId::Supplier, TableId::Part, TableId::Date]
                .iter()
                .map(|&t| DimColumnCopy::new(t))
                .collect(),
            base_segments: AtomicUsize::new(0),
        }
    }

    /// Builds the sealed load-time segments from the row kernel.
    fn build_from(&self, kernel: &RowKernel) {
        let mut rows = Vec::new();
        kernel.db.store(TableId::Lineorder).scan(LOAD_TS, |_, row| {
            rows.push(Arc::clone(row));
        });
        // Cluster the sealed base segments by orderdate so their zone
        // maps are tight and date-hinted queries can prune whole morsels.
        // Row order within a sealed snapshot carries no semantics (every
        // query aggregates), so this only sharpens min/max ranges.
        rows.sort_by_key(|row| row[hat_common::ids::lineorder::ORDERDATE].as_u32().unwrap());
        for chunk in rows.chunks(LOAD_SEGMENT_ROWS) {
            self.lineorder.load_segment(LOAD_TS, chunk.iter().map(Arc::clone));
        }
        self.base_segments.store(self.lineorder.segment_count(), Ordering::Relaxed);
        for dim in &self.dims {
            let mut rows = Vec::new();
            kernel.db.store(dim.table()).scan(LOAD_TS, |_, row| {
                rows.push(Arc::clone(row));
            });
            dim.load(LOAD_TS, rows);
        }
    }

    /// Applies one committed redo operation to the columnar copies.
    /// Inserts land in the fact delta; dimension updates land in the
    /// per-dimension update log.
    fn apply_op(&self, ts: Ts, op: &TableOp) {
        match op {
            TableOp::Insert { table: TableId::Lineorder, row, .. } => {
                self.lineorder.append_delta(ts, Arc::clone(row));
            }
            TableOp::Update { table, rid, row } => {
                if let Some(dim) = self.dims.iter().find(|d| d.table() == *table) {
                    dim.append_update(ts, *rid, Arc::clone(row));
                }
            }
            _ => {}
        }
    }

    /// Compacts the fact delta and folds dimension update logs.
    fn merge_background(&self, upto: Ts, fact_threshold: usize) {
        if self.lineorder.delta_len() >= fact_threshold {
            self.lineorder.compact(upto);
        }
        for dim in &self.dims {
            if dim.update_len() >= fact_threshold {
                dim.fold(upto);
            }
        }
    }

    /// The analytical view at `ts`: columnar fact + dims, row store for
    /// everything else (freshness).
    fn view<'a>(&'a self, kernel: &'a RowKernel, ts: Ts) -> MixedView<'a> {
        let mut view = MixedView::rows(&kernel.db, ts)
            .with_columnar(TableId::Lineorder, self.lineorder.snapshot(ts));
        for dim in &self.dims {
            view = view.with_dim(dim.table(), dim.snapshot(ts));
        }
        view
    }

    /// Benchmark reset: back to the load-time content per table.
    fn reset(&self) {
        self.lineorder
            .reset_keep_segments(self.base_segments.load(Ordering::Relaxed).max(1));
        for dim in &self.dims {
            dim.reset();
        }
    }

    /// The columnar gauges both hybrid engines report.
    fn gauges(&self, snap: &mut MetricsSnapshot) {
        snap.set_gauge(names::DELTA_ROWS, self.lineorder.delta_len() as u64);
        snap.set_gauge(names::COLSTORE_BYTES_ENCODED, self.lineorder.approx_bytes() as u64);
        snap.set_gauge(
            names::COLSTORE_BYTES_DECODED,
            self.lineorder.decoded_bytes_equiv() as u64,
        );
    }
}

// ---------------------------------------------------------------------------
// DualEngine (System-X-like)
// ---------------------------------------------------------------------------

/// Configuration of the dual-format engine.
#[derive(Debug, Clone)]
pub struct DualConfig {
    /// Index profile for the transactional side. Isolation is fixed to
    /// serializable (optimistic MVCC with read validation, like System-X).
    pub indexes: IndexProfile,
    /// Delta size that triggers background compaction.
    pub merge_threshold: usize,
    /// How often the compactor checks the delta.
    pub merge_interval: Duration,
    /// Row-side MVCC vacuum cadence (`None` disables it); forwarded to
    /// the kernel's [`EngineConfig::vacuum_interval`].
    pub vacuum_interval: Option<Duration>,
}

impl Default for DualConfig {
    fn default() -> Self {
        DualConfig {
            indexes: IndexProfile::Semi,
            merge_threshold: 4096,
            merge_interval: Duration::from_millis(5),
            vacuum_interval: Some(EngineConfig::DEFAULT_VACUUM_INTERVAL),
        }
    }
}

/// Commit hooks: mirror fact-table inserts into the columnar delta inside
/// the commit critical section (keeps the delta in timestamp order).
struct DualHooks {
    columnar: Arc<ColumnarSide>,
}

impl CommitHooks for DualHooks {
    fn on_install(&self, ts: Ts, ops: &[TableOp]) {
        for op in ops {
            self.columnar.apply_op(ts, op);
        }
    }
}

/// A single-node dual-format in-memory engine.
pub type DualEngine = Engine<Dual>;

/// The dual-format design: queries merge the columnar delta on read.
pub struct Dual {
    columnar: Arc<ColumnarSide>,
    config: DualConfig,
}

impl DualEngine {
    /// Builds the engine; the compactor starts at `finish_load`.
    pub fn new(config: DualConfig) -> Self {
        let columnar = Arc::new(ColumnarSide::new());
        let hooks = Arc::new(DualHooks { columnar: Arc::clone(&columnar) });
        let kernel = RowKernel::with_hooks(
            EngineConfig {
                isolation: IsolationLevel::Serializable,
                indexes: config.indexes,
                // Memory-optimized engine: cheaper log persistence.
                durability: crate::api::DurabilityMode::Sleep(Duration::from_micros(60)),
                vacuum_interval: config.vacuum_interval,
            },
            hooks,
        );
        Engine::assemble(kernel, Dual { columnar, config })
    }

    /// Current delta size (tests, stats).
    pub fn delta_rows(&self) -> usize {
        self.design.columnar.lineorder.delta_len()
    }

    /// Number of sealed lineorder segments (tests).
    pub fn lineorder_segments(&self) -> usize {
        self.design.columnar.lineorder.segment_count()
    }
}

impl Design for Dual {
    const CATEGORY: DesignCategory = DesignCategory::Hybrid;

    fn name(&self, _kernel: &RowKernel) -> String {
        "dual-format[serializable]".to_string()
    }

    fn snapshot<'a>(&'a self, kernel: &'a RowKernel) -> Result<Snapshot<'a>> {
        // Merge-on-read: the snapshot at the query's start includes every
        // delta row up to ts — the latest updates are always merged before
        // execution, so freshness is zero (§6.4). The timed step prices
        // that merge-on-read view construction.
        let guard = kernel.snapshots.register_with(|| kernel.oracle.read_ts());
        let view = Box::new(self.columnar.view(kernel, guard.ts()));
        Ok(Snapshot { guard, view })
    }

    fn start(self: &Arc<Self>, kernel: &Arc<RowKernel>, background: &Background) -> Result<()> {
        self.columnar.build_from(kernel);
        // The columnar side has its own compactor; the row side gets the
        // kernel's MVCC vacuum.
        let (columnar, kernel) = (Arc::clone(&self.columnar), Arc::clone(kernel));
        let threshold = self.config.merge_threshold;
        background.every("dual-compactor", self.config.merge_interval, move || {
            columnar.merge_background(kernel.oracle.read_ts(), threshold);
        });
        Ok(())
    }

    fn after_reset(&self, _kernel: &RowKernel) {
        self.columnar.reset();
    }

    fn gauges(&self, _kernel: &RowKernel, snap: &mut MetricsSnapshot) {
        self.columnar.gauges(snap);
    }
}

// ---------------------------------------------------------------------------
// LearnerEngine (TiDB-like)
// ---------------------------------------------------------------------------

/// Deployment profile for the learner engine (Figure 10 vs Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnerProfile {
    /// Everything on one node: consensus over loopback-fast IPC.
    SingleNode,
    /// TiKV/TiFlash on separate nodes: real network RTTs on the commit
    /// path ("high CPU-overhead of the TCP/IP stack and the limited
    /// network bandwidth", §6.5.2).
    Distributed,
}

/// Consensus rounds per commit in both profiles: 2PC prewrite + commit.
const COMMIT_ROUNDS: u32 = 2;

impl LearnerProfile {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            LearnerProfile::SingleNode => "single-node",
            LearnerProfile::Distributed => "distributed",
        }
    }

    fn link_one_way(self) -> Duration {
        // Calibrated to the modeled systems' commit-latency class: TiDB
        // commits pay 2PC + Raft-log fsync (~1ms even on one node), and
        // cross-node deployments add real network RTTs (§6.5.2). These
        // waits park the client thread, which is also what frees resources
        // for the analytical side on shared hardware.
        match self {
            LearnerProfile::SingleNode => Duration::from_micros(200),
            LearnerProfile::Distributed => Duration::from_micros(600),
        }
    }
}

/// Configuration of the learner engine.
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    pub profile: LearnerProfile,
    pub indexes: IndexProfile,
    /// Learner cost to decode + transform one log record to columnar
    /// format (§6.5: "preprocess, decode into row-format tuples, and
    /// transform to columnar format").
    pub apply_cost: Duration,
    /// Delta size that triggers learner-side compaction.
    pub merge_threshold: usize,
    /// Bound on the consensus rounds in `pre_commit`. Under a link
    /// partition the quorum is unreachable; after this long the commit
    /// aborts cleanly with [`HatError::ReplicaUnavailable`] (nothing was
    /// installed, so a plain retry is safe).
    pub consensus_timeout: Duration,
    /// Bound on the analytical read-index wait. A crashed learner stalls
    /// the applied watermark; rather than hanging, the query fails with
    /// the retryable [`HatError::ReplicaUnavailable`].
    pub read_index_timeout: Duration,
    /// Log records kept for learner catch-up while the learner is down.
    pub wal_retention: usize,
    /// Row-side MVCC vacuum cadence (`None` disables it); forwarded to
    /// the kernel's [`EngineConfig::vacuum_interval`]. The columnar copy
    /// needs no vacuum — the learner thread already folds its delta and
    /// dimension update logs at the applied watermark.
    pub vacuum_interval: Option<Duration>,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            profile: LearnerProfile::SingleNode,
            indexes: IndexProfile::Semi,
            apply_cost: Duration::from_micros(20),
            merge_threshold: 4096,
            consensus_timeout: Duration::from_millis(250),
            read_index_timeout: Duration::from_millis(500),
            wal_retention: DEFAULT_RETENTION,
            vacuum_interval: Some(EngineConfig::DEFAULT_VACUUM_INTERVAL),
        }
    }
}

/// The learner's replay step: the columnar copy and its apply cost.
struct Learn {
    columnar: ColumnarSide,
    apply_cost: Duration,
    merge_threshold: usize,
}

impl Replay for Learn {
    fn throttle(&self, _record: &LogRecord, _pace: &Pace<'_>) -> bool {
        if !self.apply_cost.is_zero() {
            std::thread::sleep(self.apply_cost);
        }
        true
    }

    fn apply(&self, record: &LogRecord) {
        for op in &record.ops {
            self.columnar.apply_op(record.commit_ts, op);
        }
    }

    fn after_advance(&self, commit_ts: Ts) {
        self.columnar.merge_background(commit_ts, self.merge_threshold);
    }
}

/// Commit hooks: consensus latency before install, log append inside.
struct LearnerHooks {
    follower: Arc<Follower<Learn>>,
    link: Arc<NetworkLink>,
    /// Bound on the consensus wait; see [`LearnerConfig::consensus_timeout`].
    consensus_timeout: Duration,
}

impl CommitHooks for LearnerHooks {
    fn pre_commit(&self) -> Result<()> {
        // All consensus rounds in one coalesced wait (2 traversals each).
        // If the quorum is unreachable (partition) past the bound, nothing
        // has been installed: surface a clean, retryable abort rather
        // than an in-doubt timeout.
        self.link
            .try_delay(COMMIT_ROUNDS * 2, self.consensus_timeout)
            .map_err(|_| HatError::ReplicaUnavailable)
    }

    fn on_install(&self, ts: Ts, ops: &[TableOp]) {
        self.follower.log(ts, ops);
    }
}

/// A consensus-commit row store with an asynchronous columnar learner.
pub type LearnerEngine = Engine<Learner>;

/// The learner design: a log follower maintains the columnar copy and
/// queries wait on its read index.
pub struct Learner {
    config: LearnerConfig,
    link: Arc<NetworkLink>,
    follower: Arc<Follower<Learn>>,
}

impl LearnerEngine {
    /// Builds the engine; the learner thread starts at `finish_load`.
    pub fn new(config: LearnerConfig) -> Self {
        let link = Arc::new(NetworkLink::new(
            config.profile.link_one_way(),
            config.profile.link_one_way() / 4,
        ));
        let learn = Learn {
            columnar: ColumnarSide::new(),
            apply_cost: config.apply_cost,
            merge_threshold: config.merge_threshold,
        };
        let follower = Arc::new(Follower::new("tiflash-learner", config.wal_retention, learn));
        let hooks = Arc::new(LearnerHooks {
            follower: Arc::clone(&follower),
            link: Arc::clone(&link),
            consensus_timeout: config.consensus_timeout,
        });
        let kernel = RowKernel::with_hooks(
            EngineConfig {
                // TiDB default: snapshot-isolated reads (§6.5.1).
                isolation: IsolationLevel::SnapshotIsolation,
                indexes: config.indexes,
                // Durability is paid inside the consensus rounds.
                durability: crate::api::DurabilityMode::Off,
                vacuum_interval: config.vacuum_interval,
            },
            hooks,
        );
        Engine::assemble(kernel, Learner { config, link, follower })
    }

    /// The deployment profile.
    pub fn profile(&self) -> LearnerProfile {
        self.design.config.profile
    }

    /// The learner's applied horizon (tests, diagnostics).
    pub fn applied_ts(&self) -> Ts {
        self.design.follower.applied.get()
    }

    /// The consensus/learner link — the chaos surface for this engine.
    pub fn link(&self) -> &Arc<NetworkLink> {
        &self.design.link
    }

    /// Whether the learner is currently crashed.
    pub fn is_learner_down(&self) -> bool {
        self.design.follower.is_down()
    }

    /// Kills the learner thread, simulating a TiFlash node crash. The
    /// columnar copy and applied LSN survive; transactional commits keep
    /// succeeding (the learner is not in the commit quorum), but
    /// analytical read-index waits start timing out.
    pub fn crash_learner(&self) {
        self.design.follower.crash();
    }

    /// Restarts a crashed learner: resumes the log right after the last
    /// applied record, fast-drains the retained backlog, resumes normal
    /// replay. Fails with [`HatError::WalTruncated`] if more than
    /// [`LearnerConfig::wal_retention`] records were logged while it was
    /// down.
    pub fn restart_learner(&self) -> Result<()> {
        self.design.follower.restart(&self.background)
    }

    /// Blocks until the learner has consumed everything committed so far,
    /// at full speed (no simulated apply cost; harness hygiene). The
    /// learner must be up; recover a crash via
    /// [`LearnerEngine::restart_learner`] first.
    pub fn quiesce_learner(&self) {
        self.design.follower.quiesce();
    }
}

impl Design for Learner {
    const CATEGORY: DesignCategory = DesignCategory::Hybrid;

    fn name(&self, _kernel: &RowKernel) -> String {
        format!("learner[{}]", self.config.profile.label())
    }

    fn snapshot<'a>(&'a self, kernel: &'a RowKernel) -> Result<Snapshot<'a>> {
        // Read-index wait: TiDB merges the tail of the log with the
        // analytical data before executing, so the query sees everything
        // committed before its start — freshness zero by construction
        // (§6.5.1), paid as wait latency here. The timed step prices that
        // wait plus view construction. The guard is taken before the wait
        // so vacuum cannot pass the query's snapshot while it blocks.
        let guard = kernel.snapshots.register_with(|| kernel.oracle.read_ts());
        // Wait only up to the last logged commit: timestamps burned
        // without a record (aborted installs) never reach the learner,
        // and nothing with a record in (last_logged, ts] exists. Bounded:
        // a crashed learner must fail the query, not hang the client.
        let target = guard.ts().min(self.follower.last_logged());
        if !self.follower.applied.wait_for_timeout(target, self.config.read_index_timeout) {
            return Err(HatError::ReplicaUnavailable);
        }
        let view = Box::new(self.follower.target.columnar.view(kernel, guard.ts()));
        Ok(Snapshot { guard, view })
    }

    fn start(self: &Arc<Self>, kernel: &Arc<RowKernel>, background: &Background) -> Result<()> {
        // The row side gets the kernel's MVCC vacuum; the columnar copy
        // prunes itself at the applied watermark (the follower's merge).
        self.follower.target.columnar.build_from(kernel);
        self.follower.start(background)
    }

    fn before_reset(&self, background: &Background) -> Result<()> {
        self.follower.drain(background)
    }

    fn after_reset(&self, _kernel: &RowKernel) {
        self.follower.target.columnar.reset();
    }

    fn gauges(&self, _kernel: &RowKernel, snap: &mut MetricsSnapshot) {
        snap.set_gauge(names::REPL_BACKLOG, self.follower.backlog());
        self.follower.target.columnar.gauges(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HtapEngine;
    use hat_common::Row;
    use hat_query::exec::QueryOpts;
    use hat_common::value::row_from;
    use hat_common::{Money, Value};
    use hat_query::predicate::Predicate;
    use hat_query::spec::{AggExpr, QueryId, QuerySpec};

    fn lineorder_row(ok: u64, custkey: u32, revenue_c: i64) -> Row {
        row_from([
            Value::U64(ok),
            Value::U32(1),
            Value::U32(custkey),
            Value::U32(1),
            Value::U32(1),
            Value::U32(19940101),
            Value::from("1-URGENT"),
            Value::from("0"),
            Value::U32(10),
            Value::Money(Money::from_cents(revenue_c)),
            Value::Money(Money::from_cents(revenue_c)),
            Value::U32(5),
            Value::Money(Money::from_cents(revenue_c)),
            Value::Money(Money::from_cents(revenue_c / 2)),
            Value::U32(0),
            Value::U32(19940110),
            Value::from("TRUCK"),
        ])
    }

    fn sum_revenue_spec() -> QuerySpec {
        QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::Lineorder,
            fact_filter: Predicate::all(),
            joins: vec![],
            group_by: vec![],
            agg: AggExpr::SumMoney(hat_common::ids::lineorder::REVENUE),
        }
    }

    fn loaded_dual() -> DualEngine {
        let engine = DualEngine::new(DualConfig {
            merge_threshold: 8,
            merge_interval: Duration::from_millis(1),
            ..DualConfig::default()
        });
        let rows: Vec<Row> = (0..10).map(|i| lineorder_row(i, 1, 100)).collect();
        engine.load(TableId::Lineorder, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
        engine
    }

    #[test]
    fn dual_queries_include_fresh_commits() {
        let engine = loaded_dual();
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 1000);
        // Insert and immediately query: merge-on-read must see it.
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(10, 1, 500)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 1500, "zero freshness by construction");
    }

    #[test]
    fn dual_compaction_seals_delta() {
        let engine = loaded_dual();
        for i in 0..20u64 {
            let mut s = engine.begin();
            s.insert(TableId::Lineorder, lineorder_row(10 + i, 1, 10)).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        // Compactor threshold is 8; wait for it to run.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while engine.delta_rows() >= 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(engine.delta_rows() < 8, "compactor drained the delta");
        assert!(engine.lineorder_segments() >= 2);
        // Results unchanged by compaction.
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 1000 + 200);
    }

    #[test]
    fn dual_reset_restores_load_state() {
        let engine = loaded_dual();
        for i in 0..20u64 {
            let mut s = engine.begin();
            s.insert(TableId::Lineorder, lineorder_row(10 + i, 1, 10)).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        engine.reset().unwrap();
        assert_eq!(engine.lineorder_segments(), 1);
        assert_eq!(engine.delta_rows(), 0);
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 1000);
    }

    #[test]
    fn dual_vacuum_prunes_row_side_version_chains() {
        let engine = DualEngine::new(DualConfig {
            merge_threshold: 8,
            merge_interval: Duration::from_millis(1),
            vacuum_interval: Some(Duration::from_millis(1)),
            ..DualConfig::default()
        });
        let rows: Vec<Row> = (0..10).map(|i| lineorder_row(i, 1, 100)).collect();
        engine.load(TableId::Lineorder, &mut rows.into_iter()).unwrap();
        let fr = vec![row_from([Value::U32(0), Value::U64(0)])];
        engine.load(TableId::Freshness, &mut fr.into_iter()).unwrap();
        engine.finish_load().unwrap();
        let base = engine.kernel.db.live_versions();
        // Bury the freshness row (row-format, merge-on-read reads it from
        // the row store) under 40 committed updates.
        for n in 1..=40u64 {
            let mut s = engine.begin();
            s.update(TableId::Freshness, 0, row_from([Value::U32(0), Value::U64(n)]))
                .unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while engine.kernel.db.live_versions() > base + 1 {
            assert!(std::time::Instant::now() < deadline, "vacuum never converged");
            std::thread::sleep(Duration::from_millis(2));
        }
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 1000);
        assert_eq!(out.freshness, vec![(0, 40)], "newest version survives");
    }

    #[test]
    fn dual_design_metadata() {
        let engine = loaded_dual();
        assert_eq!(engine.design(), DesignCategory::Hybrid);
        assert!(engine.name().contains("dual-format"));
    }

    fn fast_learner(profile: LearnerProfile) -> LearnerEngine {
        let engine = LearnerEngine::new(LearnerConfig {
            profile,
            apply_cost: Duration::from_micros(5),
            merge_threshold: 8,
            ..LearnerConfig::default()
        });
        let rows: Vec<Row> = (0..10).map(|i| lineorder_row(i, 1, 100)).collect();
        engine.load(TableId::Lineorder, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
        engine
    }

    #[test]
    fn learner_read_index_guarantees_freshness() {
        let engine = fast_learner(LearnerProfile::SingleNode);
        for i in 0..5u64 {
            let mut s = engine.begin();
            s.insert(TableId::Lineorder, lineorder_row(10 + i, 1, 100)).unwrap();
            assert!(s.commit().unwrap().is_acked());
            // Query immediately after each commit: read-index wait must
            // make the commit visible despite the async learner.
            let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
            assert_eq!(out.groups[0].agg, 1000 + (i as i64 + 1) * 100);
        }
    }

    #[test]
    fn learner_compacts_and_resets() {
        let engine = fast_learner(LearnerProfile::SingleNode);
        for i in 0..30u64 {
            let mut s = engine.begin();
            s.insert(TableId::Lineorder, lineorder_row(10 + i, 1, 10)).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        engine.quiesce_learner();
        assert!(engine.design.follower.target.columnar.lineorder.segment_count() >= 2);
        engine.reset().unwrap();
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 1000);
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0);
    }

    #[test]
    fn learner_crash_restart_recovers_columnar_state() {
        let engine = fast_learner(LearnerProfile::SingleNode);
        engine.crash_learner();
        assert!(engine.is_learner_down());
        // Commits keep succeeding: the learner is not in the quorum.
        for i in 0..5u64 {
            let mut s = engine.begin();
            s.insert(TableId::Lineorder, lineorder_row(10 + i, 1, 100)).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 5);
        engine.restart_learner().unwrap();
        engine.quiesce_learner();
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0);
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 1500, "no lost or doubled records");
    }

    #[test]
    fn read_index_times_out_while_learner_down() {
        let engine = LearnerEngine::new(LearnerConfig {
            apply_cost: Duration::from_micros(5),
            read_index_timeout: Duration::from_millis(20),
            ..LearnerConfig::default()
        });
        let rows: Vec<Row> = (0..4).map(|i| lineorder_row(i, 1, 100)).collect();
        engine.load(TableId::Lineorder, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
        engine.crash_learner();
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(10, 1, 100)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        let err = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap_err();
        assert_eq!(err, HatError::ReplicaUnavailable);
        assert!(err.is_retryable() && !err.is_commit_in_doubt());
        engine.restart_learner().unwrap();
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 500);
    }

    #[test]
    fn consensus_times_out_under_partition_as_clean_abort() {
        let engine = LearnerEngine::new(LearnerConfig {
            apply_cost: Duration::from_micros(5),
            consensus_timeout: Duration::from_millis(20),
            ..LearnerConfig::default()
        });
        let rows: Vec<Row> = (0..4).map(|i| lineorder_row(i, 1, 100)).collect();
        engine.load(TableId::Lineorder, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
        engine.link().partition();
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(10, 1, 100)).unwrap();
        let err = s.commit().unwrap_err();
        assert_eq!(err, HatError::ReplicaUnavailable);
        let stats = engine.metrics();
        assert_eq!(stats.counter(names::TXN_COMMITS), 0, "pre-install failure is a clean abort");
        assert_eq!(stats.counter(names::TXN_ABORTS), 1);
        // Nothing reached the log or the learner.
        engine.link().heal();
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 400);
        // And a plain retry succeeds after the heal.
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(10, 1, 100)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        let out = engine.query(&sum_revenue_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 500);
    }

    #[test]
    fn distributed_profile_has_higher_commit_latency() {
        let single = fast_learner(LearnerProfile::SingleNode);
        let dist = fast_learner(LearnerProfile::Distributed);
        let time_commit = |engine: &LearnerEngine, i: u64| {
            let mut s = engine.begin();
            s.insert(TableId::Lineorder, lineorder_row(100 + i, 1, 1)).unwrap();
            let start = std::time::Instant::now();
            assert!(s.commit().unwrap().is_acked());
            start.elapsed()
        };
        // Interleaved, so load from concurrently running tests lands on
        // both profiles alike; medians ignore the commits it stalls.
        let (mut single_times, mut dist_times) = (Vec::new(), Vec::new());
        for i in 0..10u64 {
            single_times.push(time_commit(&single, i));
            dist_times.push(time_commit(&dist, i));
        }
        let median = |mut v: Vec<Duration>| {
            v.sort();
            v[v.len() / 2]
        };
        let (t_single, t_dist) = (median(single_times), median(dist_times));
        assert!(
            t_dist > t_single * 2,
            "distributed consensus must cost more ({t_single:?} vs {t_dist:?})"
        );
        assert_eq!(single.profile().label(), "single-node");
        assert_eq!(dist.profile().label(), "distributed");
    }
}
