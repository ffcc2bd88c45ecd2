//! The row-store transaction kernel shared by every engine.
//!
//! [`RowKernel`] combines a [`RowDb`], one timestamp oracle, one lock
//! table, one durability layer, and an [`IndexSet`] into a complete
//! transactional engine: sessions buffer writes, acquire no-wait row
//! locks, and install at commit inside the oracle's single commit critical
//! section. That section also delivers [`CommitHooks::on_install`] and
//! appends the redo record, so the hook stream and the WAL are both in
//! commit-timestamp order by construction. Engines differ in the
//! [`CommitHooks`] they attach (WAL shipping, columnar delta append,
//! consensus latency) and in where their analytical queries read — the
//! kernel itself is the "primary node" of all four designs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hat_common::ids::{customer, date, lineorder, part, supplier};
use hat_common::telemetry::{
    names, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SpanTimer,
};
use hat_common::{HatError, Result, Row, TableId};
use hat_storage::bptree::BPlusTree;
use hat_storage::dwal::{CheckpointData, HealthState, TableCheckpoint, WalRecovery};
use hat_storage::rowstore::{PruneStats, RowDb, RowId, RowStore};
use hat_storage::wal::TableOp;
use hat_txn::{
    LockManager, SnapshotGuard, SnapshotRegistry, Ts, TsOracle, TxnCtx, WriteOp, LOAD_TS,
};
use parking_lot::RwLock;

use crate::api::{
    CommitReceipt, EngineConfig, InDoubtCause, IndexProfile, NamedIndex, Session,
};
use crate::durability::DurabilityLayer;

/// Hooks an engine attaches to the kernel's commit path.
pub trait CommitHooks: Send + Sync {
    /// Runs before the commit critical section — consensus/prepare latency.
    ///
    /// May fail (e.g. consensus rounds unreachable under a link
    /// partition): nothing has been installed yet, so an error here aborts
    /// the transaction cleanly and is safe to retry.
    fn pre_commit(&self) -> Result<()> {
        Ok(())
    }

    /// Runs inside the critical section with the resolved redo operations,
    /// in commit-timestamp order across all transactions. WAL append and
    /// columnar delta append live here. Infallible: by this point the
    /// writes are installed and the record must reach the log.
    fn on_install(&self, _ts: Ts, _ops: &[TableOp]) {}

    /// Runs after the critical section is released — synchronous
    /// replication waits live here so they don't serialize other commits.
    ///
    /// May fail with [`HatError::ReplicationTimeout`]: the transaction is
    /// already durable on the primary, so such an error means
    /// *committed-in-doubt*, not aborted — [`KernelSession::commit`]
    /// surfaces it through the receipt's
    /// [`CommitDurability`](crate::api::CommitDurability) after counting
    /// the commit.
    fn post_commit(&self, _ts: Ts) -> Result<()> {
        Ok(())
    }
}

/// The default no-op hooks (shared design).
pub struct NoHooks;
impl CommitHooks for NoHooks {}

/// The secondary access paths, governed by [`IndexProfile`].
pub struct IndexSet {
    profile: IndexProfile,
    customer_pk: RwLock<BPlusTree<u32, RowId>>,
    customer_name: RwLock<BPlusTree<String, RowId>>,
    supplier_pk: RwLock<BPlusTree<u32, RowId>>,
    supplier_name: RwLock<BPlusTree<String, RowId>>,
    part_pk: RwLock<BPlusTree<u32, RowId>>,
    date_pk: RwLock<BPlusTree<u32, RowId>>,
    /// `(lo_custkey, rid) -> insert ts` — Count Orders prefix scans.
    /// Lineorder rows are insert-only, so the insert timestamp alone
    /// decides whether a snapshot sees the row.
    lineorder_cust: RwLock<BPlusTree<(u32, RowId), Ts>>,
    /// `(lo_orderdate, rid) -> ()` — analytical date prefiltering
    /// (`All` profile only).
    lineorder_date: RwLock<BPlusTree<(u32, RowId), ()>>,
}

impl IndexSet {
    fn new(profile: IndexProfile) -> Self {
        IndexSet {
            profile,
            customer_pk: RwLock::new(BPlusTree::new()),
            customer_name: RwLock::new(BPlusTree::new()),
            supplier_pk: RwLock::new(BPlusTree::new()),
            supplier_name: RwLock::new(BPlusTree::new()),
            part_pk: RwLock::new(BPlusTree::new()),
            date_pk: RwLock::new(BPlusTree::new()),
            lineorder_cust: RwLock::new(BPlusTree::new()),
            lineorder_date: RwLock::new(BPlusTree::new()),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> IndexProfile {
        self.profile
    }

    /// Index a freshly loaded/inserted row, already installed at `ts`.
    fn index_row(&self, table: TableId, rid: RowId, row: &Row, ts: Ts) {
        if !self.profile.has_txn_indexes() {
            return;
        }
        match table {
            TableId::Customer => {
                let key = row[customer::CUSTKEY].as_u32().expect("typed");
                self.customer_pk.write().insert(key, rid);
                let name = row[customer::NAME].as_str().expect("typed").to_owned();
                self.customer_name.write().insert(name, rid);
            }
            TableId::Supplier => {
                let key = row[supplier::SUPPKEY].as_u32().expect("typed");
                self.supplier_pk.write().insert(key, rid);
                let name = row[supplier::NAME].as_str().expect("typed").to_owned();
                self.supplier_name.write().insert(name, rid);
            }
            TableId::Part => {
                let key = row[part::PARTKEY].as_u32().expect("typed");
                self.part_pk.write().insert(key, rid);
            }
            TableId::Date => {
                let key = row[date::DATEKEY].as_u32().expect("typed");
                self.date_pk.write().insert(key, rid);
            }
            TableId::Lineorder => {
                let ck = row[lineorder::CUSTKEY].as_u32().expect("typed");
                self.lineorder_cust.write().insert((ck, rid), ts);
                if self.profile.has_analytic_indexes() {
                    let od = row[lineorder::ORDERDATE].as_u32().expect("typed");
                    self.lineorder_date.write().insert((od, rid), ());
                }
            }
            TableId::History | TableId::Freshness => {}
        }
    }

    /// Point probe of a `u32`-keyed unique index. `None` if the profile
    /// lacks the index.
    fn probe_u32(&self, which: NamedIndex, key: u32) -> Option<Option<RowId>> {
        if !self.profile.has_txn_indexes() {
            return None;
        }
        let tree = match which {
            NamedIndex::CustomerPk => &self.customer_pk,
            NamedIndex::SupplierPk => &self.supplier_pk,
            NamedIndex::PartPk => &self.part_pk,
            NamedIndex::DatePk => &self.date_pk,
            _ => return None,
        };
        Some(tree.read().get(&key).copied())
    }

    /// Point probe of a string-keyed unique index.
    fn probe_str(&self, which: NamedIndex, key: &str) -> Option<Option<RowId>> {
        if !self.profile.has_txn_indexes() {
            return None;
        }
        let tree = match which {
            NamedIndex::CustomerName => &self.customer_name,
            NamedIndex::SupplierName => &self.supplier_name,
            _ => return None,
        };
        Some(tree.read().get(key).copied())
    }

    /// Lineorder rows of `custkey` inserted at or below `ts`, via the
    /// composite index.
    fn count_orders_at(&self, custkey: u32, ts: Ts) -> Option<u64> {
        if !self.profile.has_txn_indexes() {
            return None;
        }
        let mut n = 0;
        self.lineorder_cust.read().range(
            std::ops::Bound::Included(&(custkey, 0)),
            std::ops::Bound::Excluded(&(custkey + 1, 0)),
            |_, &insert_ts| {
                n += u64::from(insert_ts <= ts);
                true
            },
        );
        Some(n)
    }

    /// Rids of lineorder rows with orderdate in `[lo, hi]` via the date
    /// index (`All` profile only).
    pub fn lineorder_rids_for_date_range(&self, lo: u32, hi: u32) -> Option<Vec<RowId>> {
        if !self.profile.has_analytic_indexes() {
            return None;
        }
        let tree = self.lineorder_date.read();
        let mut rids = Vec::new();
        tree.range(
            std::ops::Bound::Included(&(lo, 0)),
            std::ops::Bound::Excluded(&(hi + 1, 0)),
            |&(_, rid), _| {
                rids.push(rid);
                true
            },
        );
        Some(rids)
    }

    /// Entry count across both lineorder composite indexes: one per
    /// indexed row each, since [`RowKernel::reset`] trims the entries of
    /// the rows it truncates.
    pub fn lineorder_entries(&self) -> u64 {
        (self.lineorder_cust.read().len() + self.lineorder_date.read().len()) as u64
    }

    /// Drops every lineorder entry whose rid is `loaded` or above — the
    /// rids a reset truncates. Lineorder rows are insert-only, so no
    /// entry below `loaded` can point at an emptied slot.
    fn trim_lineorder(&self, loaded: RowId) {
        fn trim<V>(tree: &RwLock<BPlusTree<(u32, RowId), V>>, loaded: RowId) {
            let mut tree = tree.write();
            let mut grown = Vec::new();
            tree.for_each(|&key, _| {
                if key.1 >= loaded {
                    grown.push(key);
                }
            });
            for key in grown {
                tree.remove(&key);
            }
        }
        trim(&self.lineorder_cust, loaded);
        trim(&self.lineorder_date, loaded);
    }
}

/// Counters shared across sessions: typed handles into the kernel's
/// [`MetricsRegistry`]. Hot paths touch the handles (lock-free atomics);
/// [`RowKernel::metrics`] snapshots the whole registry by name.
pub struct KernelStats {
    /// The registry every handle below is named in.
    pub registry: MetricsRegistry,
    pub commits: Arc<Counter>,
    pub aborts: Arc<Counter>,
    pub queries: Arc<Counter>,
    /// Commits whose synchronous replication wait timed out
    /// (committed-in-doubt outcomes). A subset of `commits`.
    pub replication_timeouts: Arc<Counter>,
    /// Fact-table morsels scanned by analytical probes.
    pub morsels_scanned: Arc<Counter>,
    /// Morsels pruned via date zone maps.
    pub morsels_pruned: Arc<Counter>,
    /// Scan batches pulled by the vectorized probe path.
    pub scan_batches: Arc<Counter>,
    /// Fact rows skipped unscanned by zone-map pruning.
    pub scan_rows_pruned: Arc<Counter>,
    /// Fact rows removed by the vectorized filter kernels.
    pub scan_rows_filtered: Arc<Counter>,
    /// Total probe-phase wall time, nanoseconds.
    pub probe_nanos: Arc<Counter>,
    /// Fact join keys the vectorized probe looked up, summed over joins.
    pub probe_join_lookups: Arc<Counter>,
    /// Fact rows the vectorized probe folded into an aggregate.
    pub probe_rows_aggregated: Arc<Counter>,
    /// Largest probe worker count any query used.
    pub probe_workers_max: Arc<Gauge>,
    /// Aggregates saturated at the `i64` boundary.
    pub agg_saturations: Arc<Counter>,
    /// End-to-end commit call durations, nanoseconds.
    pub commit_span: Arc<Histogram>,
    /// Snapshot/view acquisition before a query, nanoseconds. Engines
    /// record this around their read-timestamp/read-index/delta-merge
    /// step, so replication waits and merge-on-read costs show up here.
    pub snapshot_span: Arc<Histogram>,
    /// Dimension hash-build durations, nanoseconds.
    pub build_span: Arc<Histogram>,
    /// Fact probe durations, nanoseconds.
    pub probe_span: Arc<Histogram>,
    /// Completed vacuum passes.
    pub vacuum_passes: Arc<Counter>,
    /// Row versions reclaimed by vacuum.
    pub versions_pruned: Arc<Counter>,
    /// Live versions across the row store (refreshed by every vacuum
    /// pass and by [`RowKernel::metrics`]).
    pub live_versions: Arc<Gauge>,
    /// Version-chain lengths observed by vacuum before pruning.
    pub chain_length: Arc<Histogram>,
}

impl Default for KernelStats {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        KernelStats {
            commits: registry.counter(names::TXN_COMMITS),
            aborts: registry.counter(names::TXN_ABORTS),
            queries: registry.counter(names::QUERIES),
            replication_timeouts: registry.counter(names::TXN_REPL_TIMEOUTS),
            morsels_scanned: registry.counter(names::MORSELS_SCANNED),
            morsels_pruned: registry.counter(names::MORSELS_PRUNED),
            scan_batches: registry.counter(names::SCAN_BATCHES),
            scan_rows_pruned: registry.counter(names::SCAN_ROWS_PRUNED),
            scan_rows_filtered: registry.counter(names::SCAN_ROWS_FILTERED),
            probe_nanos: registry.counter(names::PROBE_NANOS),
            probe_join_lookups: registry.counter(names::PROBE_JOIN_LOOKUPS),
            probe_rows_aggregated: registry.counter(names::PROBE_ROWS_AGGREGATED),
            probe_workers_max: registry.gauge(names::PROBE_WORKERS_MAX),
            agg_saturations: registry.counter(names::AGG_SATURATIONS),
            commit_span: registry.histogram(names::SPAN_COMMIT),
            snapshot_span: registry.histogram(names::SPAN_SNAPSHOT),
            build_span: registry.histogram(names::SPAN_QUERY_BUILD),
            probe_span: registry.histogram(names::SPAN_QUERY_PROBE),
            vacuum_passes: registry.counter(names::VACUUM_PASSES),
            versions_pruned: registry.counter(names::VACUUM_VERSIONS_PRUNED),
            live_versions: registry.gauge(names::LIVE_VERSIONS),
            chain_length: registry.histogram(names::VACUUM_CHAIN_LENGTH),
            registry,
        }
    }
}

impl KernelStats {
    /// Folds one query's execution diagnostics into the cumulative
    /// counters. Every engine calls this after [`hat_query::exec`] returns.
    pub fn record_exec(&self, s: &hat_query::exec::ExecStats) {
        self.morsels_scanned.add(s.morsels_scanned);
        self.morsels_pruned.add(s.morsels_pruned);
        self.scan_batches.add(s.batches);
        self.scan_rows_pruned.add(s.rows_pruned_zonemap);
        self.scan_rows_filtered.add(s.rows_filtered_vectorized);
        self.probe_nanos.add(s.probe_nanos);
        self.probe_join_lookups.add(s.join_lookups);
        self.probe_rows_aggregated.add(s.rows_aggregated);
        self.probe_workers_max.set_max(s.workers as u64);
        self.agg_saturations.add(s.agg_saturations);
        self.build_span.record(s.build_nanos);
        self.probe_span.record(s.probe_nanos);
    }
}

/// The transactional core of an engine.
pub struct RowKernel {
    pub db: RowDb,
    /// The one commit critical section and visibility horizon.
    pub oracle: TsOracle,
    /// The one row-lock table.
    pub locks: LockManager,
    pub indexes: IndexSet,
    pub config: EngineConfig,
    pub stats: KernelStats,
    /// The commit group-commit queue and (under `Fsync`) the WAL stream.
    /// Engines reach through [`DurabilityLayer::wal`] for checkpoints,
    /// crash injection, and counters.
    pub durability: DurabilityLayer,
    /// Active snapshots against this kernel's row store: every session
    /// and every analytical query that reads the primary holds a guard
    /// here, and [`RowKernel::vacuum_pass`] prunes below their minimum.
    pub snapshots: Arc<SnapshotRegistry>,
    /// Timestamp of the last durable checkpoint (0 before the first).
    /// Under `Fsync`, vacuum never prunes above it: the in-memory store
    /// keeps every version the on-disk image hasn't caught up to.
    last_checkpoint_ts: AtomicU64,
    hooks: Arc<dyn CommitHooks>,
    /// Slot counts per table recorded at `finish_load`, for reset.
    loaded_counts: RwLock<Vec<u64>>,
}

impl RowKernel {
    /// A kernel with no commit hooks. Panics if the durability mode needs
    /// disk and the WAL directory can't be opened; use
    /// [`RowKernel::try_new`] to handle that.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_hooks(config, Arc::new(NoHooks))
    }

    /// Fallible [`RowKernel::new`].
    pub fn try_new(config: EngineConfig) -> Result<Self> {
        Self::try_with_hooks(config, Arc::new(NoHooks))
    }

    /// A kernel with engine-specific commit hooks (panicking variant).
    pub fn with_hooks(config: EngineConfig, hooks: Arc<dyn CommitHooks>) -> Self {
        Self::try_with_hooks(config, hooks).expect("durability layer open failed")
    }

    /// A kernel with engine-specific commit hooks. In
    /// [`DurabilityMode::Fsync`](crate::api::DurabilityMode) this opens
    /// the WAL directory, replays any checkpoint + log tail found there
    /// into the row store, and restores the timestamp horizon — the kernel
    /// comes back exactly as of the last acknowledged commit.
    pub fn try_with_hooks(config: EngineConfig, hooks: Arc<dyn CommitHooks>) -> Result<Self> {
        let (durability, recovery) = DurabilityLayer::open(&config.durability)?;
        let kernel = RowKernel {
            db: RowDb::new(),
            oracle: TsOracle::new(),
            locks: LockManager::new(),
            indexes: IndexSet::new(config.indexes),
            config,
            stats: KernelStats::default(),
            durability,
            snapshots: Arc::new(SnapshotRegistry::new()),
            last_checkpoint_ts: AtomicU64::new(0),
            hooks,
            loaded_counts: RwLock::new(vec![0; TableId::COUNT]),
        };
        if let Some(recovery) = &recovery {
            kernel.apply_recovery(recovery)?;
        }
        Ok(kernel)
    }

    /// Rebuilds row-store state from what recovery found on disk: the
    /// checkpoint image first (rows at their original rids), then the WAL
    /// tail in log order, which is commit-timestamp order. Records at or
    /// below the checkpoint's timestamp are already in the image and are
    /// skipped. The recovered horizon feeds [`TsOracle::advance_to`] so
    /// new transactions snapshot past everything recovered.
    fn apply_recovery(&self, recovery: &WalRecovery) -> Result<()> {
        let mut baseline = 0;
        if let Some(ckpt) = &recovery.checkpoint {
            baseline = ckpt.last_ts;
            self.last_checkpoint_ts.store(ckpt.last_ts, Ordering::Release);
            for tc in &ckpt.tables {
                let store = self.db.store(tc.table);
                for (rid, ts, row) in &tc.rows {
                    store.install_insert_gapped(*rid, Arc::clone(row), *ts)?;
                    self.indexes.index_row(tc.table, *rid, row, *ts);
                }
            }
        }
        for rec in recovery.tail.iter().filter(|rec| rec.commit_ts > baseline) {
            for op in &rec.ops {
                match op {
                    TableOp::Insert { table, rid, row } => {
                        let store = self.db.store(*table);
                        store.install_insert_gapped(*rid, Arc::clone(row), rec.commit_ts)?;
                        self.indexes.index_row(*table, *rid, row, rec.commit_ts);
                    }
                    TableOp::Update { table, rid, row } => {
                        self.db
                            .store(*table)
                            .install_update(*rid, Arc::clone(row), rec.commit_ts)?;
                    }
                }
            }
        }
        self.oracle.advance_to(recovery.max_ts());
        Ok(())
    }

    /// Writes a checkpoint: an atomically chosen `(lsn, ts)` pair from the
    /// WAL plus a snapshot of every table at `ts`. Completed checkpoints
    /// let recovery skip the log prefix and let sealed segments below the
    /// checkpoint LSN be deleted. No-op unless durability is `Fsync`.
    ///
    /// Call once after bulk load (so the base data is durable without
    /// logging it), then periodically.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = self.durability.wal() else { return Ok(()) };
        // (lsn, ts) are read atomically; appends happen in ts order inside
        // the commit critical section, so "wal prefix <= lsn" is exactly
        // "commits with commit_ts <= ts". LOAD_TS floors the snapshot so a
        // checkpoint right after load captures the loaded rows.
        let (lsn, wal_ts) = wal.last_appended();
        let ts = wal_ts.max(LOAD_TS);
        // The scan runs outside the commit critical section: MVCC reads at
        // `ts` stay stable because vacuum is clamped at the *previous*
        // checkpoint until this one lands.
        let mut tables = Vec::new();
        for t in TableId::ALL {
            let store = self.db.store(t);
            let mut rows: Vec<(u64, Ts, Row)> = Vec::new();
            store.scan(ts, |rid, row| rows.push((rid, ts, Arc::clone(row))));
            // Version stamps are resolved in a second pass: the scan
            // callback runs under the slot lock, which latest_ts retakes.
            for (rid, vts, _) in &mut rows {
                *vts = visible_version_ts(store, *rid, ts).unwrap_or(ts);
            }
            if !rows.is_empty() {
                tables.push(TableCheckpoint { table: t, rows });
            }
        }
        wal.checkpoint(&CheckpointData { lsn, last_ts: ts, tables })?;
        // Only now is the image durable; release the vacuum clamp up to it.
        self.last_checkpoint_ts.store(ts, Ordering::Release);
        Ok(())
    }

    /// Bulk-loads rows at the load timestamp, building indexes.
    pub fn load(&self, table: TableId, rows: &mut dyn Iterator<Item = Row>) -> Result<()> {
        let store = self.db.store(table);
        for row in rows {
            let rid = store.install_insert(Arc::clone(&row), LOAD_TS);
            self.indexes.index_row(table, rid, &row, LOAD_TS);
        }
        Ok(())
    }

    /// Records loaded sizes; call once after all [`RowKernel::load`]s.
    pub fn finish_load(&self) {
        let mut counts = self.loaded_counts.write();
        for t in TableId::ALL {
            counts[t.index()] = self.db.store(t).slot_count();
        }
    }

    /// The loaded slot count of `table`.
    pub fn loaded_count(&self, table: TableId) -> u64 {
        self.loaded_counts.read()[table.index()]
    }

    /// Restores post-load state: truncates grown tables, reverts updated
    /// rows, trims indexes. Caller must quiesce traffic first.
    ///
    /// The revert is not logged, so under `Fsync` it ends with a
    /// checkpoint: recovery starts from the post-reset image and skips the
    /// older tail, whose rids later inserts reuse. A WAL a storage fault
    /// stopped takes no later record to collide with; it keeps its
    /// durable pre-reset history.
    pub fn reset(&self) -> Result<()> {
        let counts = self.loaded_counts.read();
        for t in TableId::ALL {
            let store = self.db.store(t);
            store.truncate_slots(counts[t.index()]);
            if t.is_mutable() {
                store.revert_versions_after(LOAD_TS);
            }
        }
        self.indexes.trim_lineorder(counts[TableId::Lineorder.index()]);
        if self.durability.health() == HealthState::Healthy {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Starts a session at the kernel's configured isolation level. The
    /// session registers its begin snapshot in the kernel's
    /// [`SnapshotRegistry`] and holds the guard for its whole lifetime,
    /// so vacuum can never reclaim a version an open transaction might
    /// still read.
    pub fn begin_session(self: &Arc<Self>) -> KernelSession {
        let snapshot = self.snapshots.register_with(|| self.oracle.read_ts());
        KernelSession {
            ctx: TxnCtx::begin(self.config.isolation, snapshot.ts()),
            kernel: Arc::clone(self),
            _snapshot: snapshot,
        }
    }

    /// One vacuum pass: computes the safe prune horizon — the current
    /// visibility frontier, clamped to the last durable checkpoint under
    /// `Fsync` and to the oldest active snapshot — and reclaims version
    /// chains below it, visiting only slots updated since the last pass.
    /// Called by each engine's background vacuum thread (see
    /// [`EngineConfig::vacuum_interval`]); safe to call manually.
    pub fn vacuum_pass(&self) -> PruneStats {
        let mut frontier = self.oracle.read_ts();
        if self.durability.wal().is_some() {
            // LOAD_TS floors the clamp so pre-checkpoint passes are
            // harmless no-ops rather than pruning at the 0 sentinel.
            frontier =
                frontier.min(self.last_checkpoint_ts.load(Ordering::Acquire).max(LOAD_TS));
        }
        let horizon = self.snapshots.prune_horizon(frontier);
        let chain_hist = &self.stats.chain_length;
        let stats = self.db.vacuum(horizon, |len| chain_hist.record(len));
        self.stats.vacuum_passes.inc();
        self.stats.versions_pruned.add(stats.freed);
        self.stats.live_versions.set(self.db.live_versions());
        stats
    }

    /// One diffable, serializable snapshot of every kernel metric,
    /// including the durability layer's counters and batch histogram.
    /// Engines overlay their own gauges (backlog, delta rows) on top.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.stats.registry.snapshot();
        let d = self.durability.stats();
        snap.set_counter(names::WAL_FSYNCS, d.fsyncs);
        snap.set_counter(names::WAL_RECOVERY_REPLAYED, d.recovery_replayed_records);
        snap.set_counter(names::WAL_TORN_TAILS, d.torn_tail_truncations);
        snap.set_histogram(names::WAL_GROUP_COMMIT_BATCH, d.group_commit_batches);
        snap.set_counter(names::WAL_SHED_COMMITS, d.shed_commits);
        snap.set_counter(names::DISK_FAULTS, d.disk_faults);
        snap.set_gauge(names::HEALTH_STATE, d.health.as_u64());
        // Always-fresh gauge: accurate even with vacuum disabled.
        snap.set_gauge(names::LIVE_VERSIONS, self.db.live_versions());
        snap
    }

    /// Whether the WAL still takes writes (always `Healthy` for
    /// durability modes without a real WAL).
    pub fn health(&self) -> HealthState {
        self.durability.health()
    }
}

/// A transaction running against a [`RowKernel`].
pub struct KernelSession {
    kernel: Arc<RowKernel>,
    ctx: TxnCtx,
    /// Pins the begin snapshot against vacuum for the session's lifetime.
    _snapshot: SnapshotGuard,
}

impl KernelSession {
    /// The timestamp reads use right now (per-statement for read
    /// committed, the begin snapshot otherwise).
    fn read_ts(&self) -> Ts {
        if self.ctx.isolation().uses_begin_snapshot() {
            self.ctx.begin_snapshot().ts
        } else {
            self.kernel.oracle.read_ts()
        }
    }

    /// Visibility-checked read of `rid` with own-write overlay.
    fn read_visible(&mut self, table: TableId, rid: RowId) -> Option<Row> {
        if let Some(own) = self.ctx.own_write(table, rid) {
            return Some(Arc::clone(own));
        }
        let ts = self.read_ts();
        let store = self.kernel.db.store(table);
        let row = store.read(rid, ts)?;
        // Record the observed version for serializable validation.
        if self.ctx.isolation().validates_reads() {
            // The version we read is the newest with ts' <= ts; its exact
            // timestamp is what validation compares against.
            if let Some(vts) = visible_version_ts(store, rid, ts) {
                self.ctx.record_read(table, rid, vts);
            }
        }
        Some(row)
    }

    fn abort_with(&mut self, err: HatError) -> HatError {
        self.kernel.locks.unlock_all(self.ctx.locks(), self.ctx.id());
        self.ctx.close();
        self.kernel.stats.aborts.inc();
        err
    }

    /// Scan fallback for point lookups when an index is absent.
    fn scan_for_u32(&self, table: TableId, col: usize, key: u32) -> Option<(RowId, Row)> {
        let ts = self.read_ts();
        let mut found = None;
        self.kernel.db.store(table).scan_while(ts, |rid, row| {
            if row[col].as_u32().map(|v| v == key).unwrap_or(false) {
                found = Some((rid, Arc::clone(row)));
                false
            } else {
                true
            }
        });
        found
    }

    fn scan_for_str(&self, table: TableId, col: usize, key: &str) -> Option<(RowId, Row)> {
        let ts = self.read_ts();
        let mut found = None;
        self.kernel.db.store(table).scan_while(ts, |rid, row| {
            if row[col].as_str().map(|v| v == key).unwrap_or(false) {
                found = Some((rid, Arc::clone(row)));
                false
            } else {
                true
            }
        });
        found
    }
}

/// Timestamp of the version of `rid` visible at `ts`.
fn visible_version_ts(store: &RowStore, rid: RowId, ts: Ts) -> Option<Ts> {
    // The newest version overall: if it's visible, its ts is the answer;
    // otherwise validation only needs *a* stable token — we use the latest
    // visible ts via a read. To avoid a second chain walk API we
    // approximate with latest_ts when it is visible, else the snapshot ts
    // bound. Conservative: any concurrent rewrite changes latest_ts and
    // fails validation.
    let latest = store.latest_ts(rid)?;
    Some(if latest <= ts { latest } else { ts })
}

impl Session for KernelSession {
    fn lookup_u32(&mut self, index: NamedIndex, key: u32) -> Result<Option<(RowId, Row)>> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        let (table, col) = match index {
            NamedIndex::CustomerPk => (TableId::Customer, customer::CUSTKEY),
            NamedIndex::SupplierPk => (TableId::Supplier, supplier::SUPPKEY),
            NamedIndex::PartPk => (TableId::Part, part::PARTKEY),
            NamedIndex::DatePk => (TableId::Date, date::DATEKEY),
            other => {
                return Err(HatError::Unsupported(format!(
                    "lookup_u32 on {other:?}"
                )))
            }
        };
        match self.kernel.indexes.probe_u32(index, key) {
            Some(Some(rid)) => {
                Ok(self.read_visible(table, rid).map(|row| (rid, row)))
            }
            Some(None) => Ok(None),
            // No index in this profile: scan.
            None => Ok(self.scan_for_u32(table, col, key)),
        }
    }

    fn lookup_str(&mut self, index: NamedIndex, key: &str) -> Result<Option<(RowId, Row)>> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        let (table, col) = match index {
            NamedIndex::CustomerName => (TableId::Customer, customer::NAME),
            NamedIndex::SupplierName => (TableId::Supplier, supplier::NAME),
            other => {
                return Err(HatError::Unsupported(format!(
                    "lookup_str on {other:?}"
                )))
            }
        };
        match self.kernel.indexes.probe_str(index, key) {
            Some(Some(rid)) => {
                Ok(self.read_visible(table, rid).map(|row| (rid, row)))
            }
            Some(None) => Ok(None),
            None => Ok(self.scan_for_str(table, col, key)),
        }
    }

    fn count_orders(&mut self, custkey: u32) -> Result<u64> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        let ts = self.read_ts();
        if let Some(n) = self.kernel.indexes.count_orders_at(custkey, ts) {
            return Ok(n);
        }
        // No-index fallback: scan the fact table.
        let mut n = 0;
        self.kernel.db.store(TableId::Lineorder).scan(ts, |_, row| {
            if row[lineorder::CUSTKEY].as_u32() == Ok(custkey) {
                n += 1;
            }
        });
        Ok(n)
    }

    fn read(&mut self, table: TableId, rid: RowId) -> Result<Option<Row>> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        Ok(self.read_visible(table, rid))
    }

    fn insert(&mut self, table: TableId, row: Row) -> Result<()> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        self.ctx.buffer_write(WriteOp::Insert { table, row });
        Ok(())
    }

    fn update(&mut self, table: TableId, rid: RowId, row: Row) -> Result<()> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        let key = (table, rid);
        if let Err(e) = self.kernel.locks.try_lock(key, self.ctx.id()) {
            return Err(self.abort_with(e));
        }
        self.ctx.record_lock(key);
        // First-committer-wins under snapshot-based isolation: if a version
        // newer than our snapshot exists, we must abort.
        if self.ctx.isolation().uses_begin_snapshot() {
            let begin = self.ctx.begin_snapshot().ts;
            if let Some(latest) = self.kernel.db.store(table).latest_ts(rid) {
                if latest > begin {
                    return Err(self.abort_with(HatError::WriteConflict {
                        table: table.name(),
                    }));
                }
            }
        }
        self.ctx.buffer_write(WriteOp::Update { table, rid, row });
        Ok(())
    }

    fn scan_lookup_u32(
        &mut self,
        table: TableId,
        col: usize,
        key: u32,
    ) -> Result<Option<(RowId, Row)>> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        Ok(self.scan_for_u32(table, col, key))
    }

    fn commit(mut self: Box<Self>) -> Result<CommitReceipt> {
        if self.ctx.is_closed() {
            return Err(HatError::TxnClosed);
        }
        let kernel = Arc::clone(&self.kernel);
        // Span covers the whole commit call: validation, install, and the
        // durability wait. Atomics-only; never on the abort path.
        let span = SpanTimer::start();
        // Read-only transactions commit trivially at their snapshot.
        if self.ctx.is_read_only() {
            self.ctx.close();
            kernel.stats.commits.inc();
            kernel.stats.commit_span.record(span.elapsed_nanos());
            return Ok(CommitReceipt::acked(self.ctx.begin_snapshot().ts));
        }

        // Engine-specific pre-commit latency (consensus rounds). Nothing
        // is installed yet, so a failure here is a clean, retryable abort.
        if let Err(e) = kernel.hooks.pre_commit() {
            return Err(self.abort_with(e));
        }

        // Admission control: a WAL stopped by a storage fault or a full
        // group-commit backlog sheds the commit here, *before* anything
        // installs — a clean abort the client may retry, while reads and
        // analytics keep serving from the in-memory store.
        if let Err(e) = kernel.durability.admit() {
            return Err(self.abort_with(e));
        }

        // Enter the commit critical section and allocate the commit
        // timestamp.
        let guard = kernel.oracle.begin_commit();
        let commit_ts = guard.ts();

        // Serializable read validation inside the critical section. A read
        // is valid iff the version we observed is still the newest AND no
        // other transaction holds the row's write lock (Silo-style): the
        // lock check also aborts against a writer that has locked the row
        // but not yet entered the critical section.
        if self.ctx.isolation().validates_reads() {
            for entry in self.ctx.reads() {
                let key = (entry.table, entry.rid);
                let latest = kernel.db.store(entry.table).latest_ts(entry.rid);
                if latest != Some(entry.version_ts)
                    || kernel.locks.held_by_other(&key, self.ctx.id())
                {
                    // Dropping the guard burns the timestamp.
                    drop(guard);
                    return Err(self.abort_with(HatError::SerializationFailure));
                }
            }
        }

        // Install buffered writes and build the redo record. A transaction
        // may update the same row several times; only its *final* version
        // is installed (one version per row per commit timestamp), so scan
        // backwards and mark superseded updates.
        let writes = self.ctx.writes();
        let mut superseded = vec![false; writes.len()];
        {
            let mut seen: std::collections::HashSet<(TableId, RowId)> =
                std::collections::HashSet::new();
            for (i, op) in writes.iter().enumerate().rev() {
                if let WriteOp::Update { table, rid, .. } = op {
                    if !seen.insert((*table, *rid)) {
                        superseded[i] = true;
                    }
                }
            }
        }
        let mut redo: Vec<TableOp> = Vec::with_capacity(writes.len());
        for (op, skip) in writes.iter().zip(&superseded) {
            if *skip {
                continue;
            }
            match op {
                WriteOp::Insert { table, row } => {
                    let store = kernel.db.store(*table);
                    let rid = store.install_insert(Arc::clone(row), commit_ts);
                    kernel.indexes.index_row(*table, rid, row, commit_ts);
                    redo.push(TableOp::Insert { table: *table, rid, row: Arc::clone(row) });
                }
                WriteOp::Update { table, rid, row } => {
                    kernel
                        .db
                        .store(*table)
                        .install_update(*rid, Arc::clone(row), commit_ts)
                        .expect("locked row exists");
                    redo.push(TableOp::Update {
                        table: *table,
                        rid: *rid,
                        row: Arc::clone(row),
                    });
                }
            }
        }
        // Hooks and the WAL append both run inside the critical section,
        // so the hook stream (replication WAL, columnar delta, learner log)
        // and the log are in commit-ts order. The append only enqueues
        // bytes; the expensive flush wait happens after unlock.
        kernel.hooks.on_install(commit_ts, &redo);
        let durability_token = kernel.durability.log(commit_ts, &redo);
        guard.finish();

        kernel.locks.unlock_all(self.ctx.locks(), self.ctx.id());
        self.ctx.close();

        // Durability wait (WAL flush) outside the critical section:
        // concurrent commits overlap their flushes, as with group commit.
        // A failure here (WAL crashed before covering our record) means
        // the commit was never acknowledged: in-doubt outcomes surface
        // through the receipt — without counting the commit; recovery
        // decides its fate — and anything else propagates as the error it
        // is.
        if let Err(e) = durability_token.and_then(|token| kernel.durability.wait(token)) {
            if e.is_commit_in_doubt() {
                return Ok(CommitReceipt::in_doubt(commit_ts, InDoubtCause::Durability));
            }
            return Err(e);
        }
        // Synchronous replication waits also happen outside the critical
        // section so concurrent commits can proceed. A timeout here does
        // NOT undo the commit: the writes are durable on the primary, so
        // the outcome is committed-in-doubt — counted as a commit, and
        // surfaced through the receipt for the client to account
        // separately.
        let post = kernel.hooks.post_commit(commit_ts);
        kernel.stats.commits.inc();
        kernel.stats.commit_span.record(span.elapsed_nanos());
        if let Err(e) = post {
            debug_assert!(e.is_commit_in_doubt(), "post_commit errors must be in-doubt");
            kernel.stats.replication_timeouts.inc();
            return Ok(CommitReceipt::in_doubt(commit_ts, InDoubtCause::Replication));
        }
        Ok(CommitReceipt::acked(commit_ts))
    }

    fn abort(mut self: Box<Self>) {
        if !self.ctx.is_closed() {
            self.kernel.locks.unlock_all(self.ctx.locks(), self.ctx.id());
            self.ctx.close();
            self.kernel.stats.aborts.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_txn::IsolationLevel;
    use hat_common::value::row_from;
    use hat_common::Value;

    fn kernel(iso: IsolationLevel, idx: IndexProfile) -> Arc<RowKernel> {
        Arc::new(RowKernel::new(EngineConfig {
            isolation: iso,
            indexes: idx,
            durability: crate::api::DurabilityMode::Off,
            ..EngineConfig::default()
        }))
    }

    fn customer_row(ck: u32, name: &str) -> Row {
        row_from([
            Value::U32(ck),
            Value::from(name),
            Value::from("addr"),
            Value::from("CITY0"),
            Value::from("CHINA"),
            Value::from("ASIA"),
            Value::from("phone"),
            Value::from("AUTO"),
            Value::U32(0),
        ])
    }

    fn load_customers(k: &Arc<RowKernel>, n: u32) {
        let rows: Vec<Row> =
            (1..=n).map(|i| customer_row(i, &format!("Customer#{i:09}"))).collect();
        k.load(TableId::Customer, &mut rows.into_iter()).unwrap();
        k.finish_load();
    }

    #[test]
    fn lookup_via_index_and_via_scan_agree() {
        for profile in [IndexProfile::All, IndexProfile::None] {
            let k = kernel(IsolationLevel::SnapshotIsolation, profile);
            load_customers(&k, 50);
            let mut s = k.begin_session();
            let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 7).unwrap().unwrap();
            assert_eq!(row[customer::CUSTKEY].as_u32().unwrap(), 7);
            let (rid2, _) = s
                .lookup_str(NamedIndex::CustomerName, "Customer#000000007")
                .unwrap()
                .unwrap();
            assert_eq!(rid, rid2);
            assert!(s.lookup_u32(NamedIndex::CustomerPk, 999).unwrap().is_none());
            Box::new(s).abort();
        }
    }

    #[test]
    fn update_visible_after_commit_only() {
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::All);
        load_customers(&k, 5);
        let mut writer = k.begin_session();
        let (rid, row) = writer.lookup_u32(NamedIndex::CustomerPk, 3).unwrap().unwrap();
        let patched = hat_common::value::row_with(&row, customer::PAYMENTCNT, Value::U32(9));
        writer.update(TableId::Customer, rid, patched).unwrap();

        // Concurrent reader sees the old value.
        let mut reader = k.begin_session();
        let (_, seen) = reader.lookup_u32(NamedIndex::CustomerPk, 3).unwrap().unwrap();
        assert_eq!(seen[customer::PAYMENTCNT].as_u32().unwrap(), 0);
        Box::new(reader).abort();

        // Writer sees its own write.
        let own = writer.read(TableId::Customer, rid).unwrap().unwrap();
        assert_eq!(own[customer::PAYMENTCNT].as_u32().unwrap(), 9);

        assert!(Box::new(writer).commit().unwrap().is_acked());

        // New session sees the committed value.
        let mut after = k.begin_session();
        let (_, seen) = after.lookup_u32(NamedIndex::CustomerPk, 3).unwrap().unwrap();
        assert_eq!(seen[customer::PAYMENTCNT].as_u32().unwrap(), 9);
        Box::new(after).abort();
    }

    #[test]
    fn write_write_conflict_aborts_second_writer() {
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::All);
        load_customers(&k, 5);
        let mut a = k.begin_session();
        let mut b = k.begin_session();
        let (rid, row) = a.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        a.update(TableId::Customer, rid, Arc::clone(&row)).unwrap();
        let err = b.update(TableId::Customer, rid, row).unwrap_err();
        assert!(err.is_retryable());
        // After A commits, a fresh session can update again.
        assert!(Box::new(a).commit().unwrap().is_acked());
        let mut c = k.begin_session();
        let (rid, row) = c.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        c.update(TableId::Customer, rid, row).unwrap();
        assert!(Box::new(c).commit().unwrap().is_acked());
        assert_eq!(k.locks.held_count(), 0);
    }

    #[test]
    fn first_committer_wins_under_si() {
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::All);
        load_customers(&k, 5);
        // B begins before A commits, then tries to update the row A wrote.
        let mut a = k.begin_session();
        let mut b = k.begin_session();
        let (rid, row) = a.lookup_u32(NamedIndex::CustomerPk, 2).unwrap().unwrap();
        a.update(TableId::Customer, rid, Arc::clone(&row)).unwrap();
        assert!(Box::new(a).commit().unwrap().is_acked());
        let err = b.update(TableId::Customer, rid, row).unwrap_err();
        assert!(matches!(err, HatError::WriteConflict { .. }));
    }

    #[test]
    fn read_committed_allows_overwriting_newer_commits() {
        let k = kernel(IsolationLevel::ReadCommitted, IndexProfile::All);
        load_customers(&k, 5);
        let mut a = k.begin_session();
        let mut b = k.begin_session();
        let (rid, row) = a.lookup_u32(NamedIndex::CustomerPk, 2).unwrap().unwrap();
        a.update(TableId::Customer, rid, Arc::clone(&row)).unwrap();
        assert!(Box::new(a).commit().unwrap().is_acked());
        // Under RC this succeeds (no first-committer-wins check).
        b.update(TableId::Customer, rid, row).unwrap();
        assert!(Box::new(b).commit().unwrap().is_acked());
    }

    #[test]
    fn serializable_validates_reads() {
        let k = kernel(IsolationLevel::Serializable, IndexProfile::All);
        load_customers(&k, 5);
        // T1 reads row 1; T2 rewrites row 1 and commits; T1 then writes
        // something else and must fail validation.
        let mut t1 = k.begin_session();
        let _ = t1.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();

        let mut t2 = k.begin_session();
        let (rid1, row1) = t2.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        t2.update(TableId::Customer, rid1, row1).unwrap();
        assert!(Box::new(t2).commit().unwrap().is_acked());

        let mut t1 = t1; // continue t1
        let (rid3, row3) = t1.lookup_u32(NamedIndex::CustomerPk, 3).unwrap().unwrap();
        t1.update(TableId::Customer, rid3, row3).unwrap();
        let err = Box::new(t1).commit().unwrap_err();
        assert_eq!(err, HatError::SerializationFailure);
        assert_eq!(k.locks.held_count(), 0, "validation failure releases locks");
    }

    #[test]
    fn serializable_read_only_never_fails() {
        let k = kernel(IsolationLevel::Serializable, IndexProfile::All);
        load_customers(&k, 5);
        let mut t1 = k.begin_session();
        let _ = t1.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        let mut t2 = k.begin_session();
        let (rid, row) = t2.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        t2.update(TableId::Customer, rid, row).unwrap();
        assert!(Box::new(t2).commit().unwrap().is_acked());
        // Read-only commit succeeds despite the invalidated read.
        assert!(Box::new(t1).commit().unwrap().is_acked());
    }

    #[test]
    fn inserts_are_indexed_and_countable() {
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::Semi);
        load_customers(&k, 3);
        let mut s = k.begin_session();
        for i in 0..4u64 {
            s.insert(TableId::Lineorder, lineorder_row(i, 2)).unwrap();
        }
        assert!(Box::new(s).commit().unwrap().is_acked());
        let mut s = k.begin_session();
        assert_eq!(s.count_orders(2).unwrap(), 4);
        assert_eq!(s.count_orders(1).unwrap(), 0);
        Box::new(s).abort();
    }

    #[test]
    fn count_orders_scan_fallback_matches_index() {
        for profile in [IndexProfile::All, IndexProfile::Semi, IndexProfile::None] {
            let k = kernel(IsolationLevel::SnapshotIsolation, profile);
            load_customers(&k, 3);
            let insert = |orders: std::ops::Range<u64>, custkey: fn(u64) -> u32| {
                let mut s = k.begin_session();
                for i in orders {
                    s.insert(TableId::Lineorder, lineorder_row(i, custkey(i))).unwrap();
                }
                assert!(Box::new(s).commit().unwrap().is_acked());
            };
            insert(0..6, |i| (i % 2) as u32 + 1);
            // A session opened before more inserts keeps counting what
            // its snapshot saw.
            let mut before = k.begin_session();
            insert(6..10, |_| 1);
            assert_eq!(before.count_orders(1).unwrap(), 3, "profile {profile:?}");
            Box::new(before).abort();
            let mut s = k.begin_session();
            assert_eq!(s.count_orders(1).unwrap(), 7, "profile {profile:?}");
            Box::new(s).abort();
            // After reset, rid 0 is reused by customer 3: it counts for
            // customer 3 only, not for customer 1 who held it before.
            k.reset().unwrap();
            insert(0..1, |_| 3);
            let mut s = k.begin_session();
            assert_eq!(s.count_orders(1).unwrap(), 0, "profile {profile:?}");
            assert_eq!(s.count_orders(3).unwrap(), 1, "profile {profile:?}");
            Box::new(s).abort();
        }
    }

    #[test]
    fn reset_restores_loaded_state() {
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::All);
        load_customers(&k, 3);
        // Mutate: update a customer, insert lineorders.
        let mut s = k.begin_session();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        s.update(
            TableId::Customer,
            rid,
            hat_common::value::row_with(&row, customer::PAYMENTCNT, Value::U32(7)),
        )
        .unwrap();
        for i in 0..5u64 {
            s.insert(TableId::Lineorder, lineorder_row(i, 1)).unwrap();
        }
        assert!(Box::new(s).commit().unwrap().is_acked());

        k.reset().unwrap();

        let mut s = k.begin_session();
        let (_, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        assert_eq!(row[customer::PAYMENTCNT].as_u32().unwrap(), 0);
        assert_eq!(s.count_orders(1).unwrap(), 0);
        assert_eq!(k.db.store(TableId::Lineorder).slot_count(), 0);
        Box::new(s).abort();
        // Post-reset traffic works.
        let mut s = k.begin_session();
        s.insert(TableId::Lineorder, lineorder_row(0, 1)).unwrap();
        assert!(Box::new(s).commit().unwrap().is_acked());
        let mut s = k.begin_session();
        assert_eq!(s.count_orders(1).unwrap(), 1);
        Box::new(s).abort();
    }

    #[test]
    fn vacuum_respects_open_sessions_and_reclaims_after_release() {
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::All);
        load_customers(&k, 4);
        let base = k.db.live_versions();
        // Commit once so the pinned session's snapshot lands above the
        // load timestamp (guards at LOAD_TS are exempt from the horizon:
        // they only read immortal base versions).
        {
            let mut s = k.begin_session();
            let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 2).unwrap().unwrap();
            s.update(TableId::Customer, rid, row).unwrap();
            assert!(Box::new(s).commit().unwrap().is_acked());
        }
        // Pin a snapshot, then rewrite customer 1 five times.
        let pinned = k.begin_session();
        for _ in 0..5 {
            let mut s = k.begin_session();
            let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
            s.update(TableId::Customer, rid, row).unwrap();
            assert!(Box::new(s).commit().unwrap().is_acked());
        }
        assert_eq!(k.db.live_versions(), base + 6);
        // The open session pins its begin snapshot: the version visible
        // there plus everything newer must survive the pass.
        let stats = k.vacuum_pass();
        assert_eq!(stats.freed, 0);
        assert_eq!(k.db.live_versions(), base + 6, "pinned snapshot holds the horizon");
        Box::new(pinned).abort();
        // Released: the next pass reclaims customer 1's intermediate
        // versions, keeping the newest plus the load-time base (reset
        // needs it). Customer 2's chain is already converged.
        let stats = k.vacuum_pass();
        assert_eq!(stats.freed, 4);
        assert_eq!(k.db.live_versions(), base + 2);
        let snap = k.metrics();
        assert_eq!(snap.counter(names::VACUUM_PASSES), 2);
        assert_eq!(snap.counter(names::VACUUM_VERSIONS_PRUNED), 4);
        assert_eq!(snap.gauge(names::LIVE_VERSIONS), base + 2);
        // Reset after vacuum restores the loaded row state.
        k.reset().unwrap();
        let mut s = k.begin_session();
        let (_, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        assert_eq!(row[customer::PAYMENTCNT].as_u32().unwrap(), 0);
        Box::new(s).abort();

        // Reset trims the lineorder entries of the rows it truncates, so
        // repeated grow/reset cycles plateau at the live row count instead
        // of leaking index entries.
        for cycle in 0..3u32 {
            let mut s = k.begin_session();
            for i in 0..8u64 {
                s.insert(TableId::Lineorder, lineorder_row(i, 1)).unwrap();
            }
            assert!(Box::new(s).commit().unwrap().is_acked());
            // `All` profile: one cust entry + one date entry per row.
            assert_eq!(k.indexes.lineorder_entries(), 16, "cycle {cycle}: live rows indexed");
            k.reset().unwrap();
            assert_eq!(
                k.indexes.lineorder_entries(),
                0,
                "cycle {cycle}: reset holds the index-size plateau"
            );
        }
    }

    #[test]
    fn vacuum_pass_never_waits_on_an_index() {
        // Readers hold both lineorder indexes for the whole pass; a pass
        // that locked either one for writing would wait for them.
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::All);
        load_customers(&k, 4);
        let mut s = k.begin_session();
        for i in 0..8u64 {
            s.insert(TableId::Lineorder, lineorder_row(i, 1)).unwrap();
        }
        assert!(Box::new(s).commit().unwrap().is_acked());
        let held = (k.indexes.lineorder_cust.read(), k.indexes.lineorder_date.read());
        let (tx, rx) = std::sync::mpsc::channel();
        let pass = std::thread::spawn({
            let k = Arc::clone(&k);
            move || {
                k.vacuum_pass();
                let _ = tx.send(());
            }
        });
        let finished = rx.recv_timeout(std::time::Duration::from_secs(10));
        // Release before asserting, so a pass that does wait ends too.
        drop(held);
        pass.join().unwrap();
        assert!(finished.is_ok(), "vacuum pass blocked on a held lineorder index");
    }

    #[test]
    fn stats_track_outcomes() {
        let k = kernel(IsolationLevel::SnapshotIsolation, IndexProfile::All);
        load_customers(&k, 2);
        let mut s = k.begin_session();
        s.insert(TableId::Lineorder, lineorder_row(0, 1)).unwrap();
        assert!(Box::new(s).commit().unwrap().is_acked());
        let s = k.begin_session();
        Box::new(s).abort();
        let m = k.metrics();
        assert_eq!(m.counter(names::TXN_COMMITS), 1);
        assert_eq!(m.counter(names::TXN_ABORTS), 1);
    }

    /// Records every `on_install` timestamp in delivery order.
    #[derive(Default)]
    struct RecordingHooks {
        delivered: parking_lot::Mutex<Vec<Ts>>,
    }

    impl CommitHooks for RecordingHooks {
        fn on_install(&self, ts: Ts, _ops: &[TableOp]) {
            self.delivered.lock().push(ts);
        }
    }

    #[test]
    fn on_install_is_delivered_in_commit_ts_order() {
        // The dual delta and the log follower append `on_install` records
        // as they arrive and rely on timestamp order. Four committers race
        // on shared rows (serializable, so some fail validation after
        // drawing a timestamp) and each forces one validation failure per
        // round on rows of its own, so burned timestamps sit between
        // delivered ones.
        let hooks = Arc::new(RecordingHooks::default());
        let k = Arc::new(RowKernel::with_hooks(
            EngineConfig {
                isolation: IsolationLevel::Serializable,
                indexes: IndexProfile::All,
                durability: crate::api::DurabilityMode::Off,
                ..EngineConfig::default()
            },
            Arc::clone(&hooks) as Arc<dyn CommitHooks>,
        ));
        load_customers(&k, 12);
        let update = |s: &mut KernelSession, ck: u32| -> Result<()> {
            let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, ck)?.expect("customer");
            s.update(TableId::Customer, rid, row)
        };
        let committed: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u32)
                .map(|w| {
                    let k = &k;
                    scope.spawn(move || {
                        let (own_read, own_write) = (5 + 2 * w, 6 + 2 * w);
                        let mut committed = 0u64;
                        for round in 0..50u32 {
                            // Shared rows 1..=4: read one, write another.
                            let mut s = k.begin_session();
                            let read = s.lookup_u32(NamedIndex::CustomerPk, 1 + (round + w) % 4);
                            let outcome = read.and_then(|_| update(&mut s, 1 + (round + w + 1) % 4));
                            match outcome.and_then(|()| Box::new(s).commit()) {
                                Ok(_) => committed += 1,
                                Err(e) => assert!(e.is_retryable(), "{e}"),
                            }
                            // Forced failure: `stale` reads a row another
                            // session then rewrites, so its commit draws a
                            // timestamp and fails validation.
                            let mut stale = k.begin_session();
                            stale.lookup_u32(NamedIndex::CustomerPk, own_read).unwrap();
                            let mut rewrite = k.begin_session();
                            update(&mut rewrite, own_read).unwrap();
                            assert!(Box::new(rewrite).commit().unwrap().is_acked());
                            committed += 1;
                            update(&mut stale, own_write).unwrap();
                            let err = Box::new(stale).commit().unwrap_err();
                            assert_eq!(err, HatError::SerializationFailure);
                        }
                        committed
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let delivered = hooks.delivered.lock();
        assert_eq!(delivered.len() as u64, committed.iter().sum::<u64>(), "one delivery per commit");
        assert!(
            delivered.windows(2).all(|w| w[0] < w[1]),
            "on_install timestamps must be strictly increasing"
        );
        // 200 forced failures each burned a timestamp between deliveries.
        let drawn = k.oracle.read_ts() - LOAD_TS;
        assert!(drawn >= delivered.len() as u64 + 200, "{drawn} timestamps drawn");
    }

    /// Minimal typed lineorder row for kernel tests.
    fn lineorder_row(orderkey: u64, custkey: u32) -> Row {
        use hat_common::Money;
        row_from([
            Value::U64(orderkey),
            Value::U32(1),
            Value::U32(custkey),
            Value::U32(1),
            Value::U32(1),
            Value::U32(19940101),
            Value::from("1-URGENT"),
            Value::from("0"),
            Value::U32(10),
            Value::Money(Money::from_dollars(100)),
            Value::Money(Money::from_dollars(100)),
            Value::U32(5),
            Value::Money(Money::from_dollars(95)),
            Value::Money(Money::from_dollars(60)),
            Value::U32(3),
            Value::U32(19940110),
            Value::from("TRUCK"),
        ])
    }
}
