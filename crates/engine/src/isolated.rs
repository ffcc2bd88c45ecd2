//! The isolated-design engine ("PostgreSQL streaming replication", §6.3).
//!
//! A primary row-store kernel handles the T workload and streams physical
//! WAL records over a simulated link to a replica, where a replay thread
//! applies them. Analytical queries read the *replica* at its applied
//! horizon, so the two workloads touch disjoint data structures — the
//! design's performance-isolation advantage — at the cost of staleness.
//!
//! Replication modes mirror PostgreSQL's `synchronous_commit`:
//!
//! * [`ReplicationMode::Async`] — commit returns immediately; maximum
//!   staleness.
//! * [`ReplicationMode::SyncOn`] (`on`) — commit waits one round trip for
//!   the replica to acknowledge the record was received and durably
//!   written; *replay* is still asynchronous, so queries can be stale
//!   (the paper's "ON" mode, Figures 7/8).
//! * [`ReplicationMode::RemoteApply`] (`remote_apply`) — commit waits until
//!   the replica has applied the record; freshness is zero but commit
//!   latency includes shipping + queueing + replay (the paper's "RA" mode).

use std::sync::Arc;
use std::time::{Duration, Instant};

use hat_common::clock::BenchClock;
use hat_common::telemetry::{names, MetricsSnapshot};
use hat_common::{HatError, Result, Row, TableId};
use hat_query::view::MixedView;
use hat_storage::rowstore::RowDb;
use hat_storage::wal::{LogRecord, TableOp};
use hat_txn::{SnapshotRegistry, Ts, LOAD_TS};

use crate::api::{DesignCategory, EngineConfig};
use crate::design::{Background, Design, Engine, Snapshot};
use crate::follower::{Follower, Pace, Replay, DEFAULT_RETENTION, POLL};
use crate::kernel::{CommitHooks, RowKernel};
use crate::netsim::NetworkLink;

/// PostgreSQL-style `synchronous_commit` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// No commit wait.
    Async,
    /// Wait for durable receipt at the standby (the paper's "ON").
    SyncOn,
    /// Wait for the standby to apply (the paper's "RA").
    RemoteApply,
}

impl ReplicationMode {
    /// Label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ReplicationMode::Async => "async",
            ReplicationMode::SyncOn => "on",
            ReplicationMode::RemoteApply => "remote-apply",
        }
    }
}

/// Configuration of the isolated engine.
#[derive(Debug, Clone)]
pub struct IsoConfig {
    pub engine: EngineConfig,
    pub mode: ReplicationMode,
    /// One-way network latency between primary and standby.
    pub link_one_way: Duration,
    /// Simulated standby cost to decode + apply one record (WAL decode,
    /// buffer lookups, fsync amortization). The replay thread is a single
    /// consumer, so commit rates above `1/replay_cost` grow its queue —
    /// the mechanism behind the paper's staleness-vs-T-clients trend
    /// (Figure 8b).
    pub replay_cost: Duration,
    /// Bound on the synchronous-replication wait ([`ReplicationMode::SyncOn`]
    /// ack, [`ReplicationMode::RemoteApply`] apply). A commit that cannot
    /// get its acknowledgement within this bound — standby crashed, link
    /// partitioned — returns [`HatError::ReplicationTimeout`] instead of
    /// hanging: the writes stay durable on the primary (committed-in-doubt).
    pub commit_timeout: Duration,
    /// WAL records kept for standby catch-up while the standby is down
    /// (`wal_keep_size`); a standby that misses more than this needs a
    /// full basebackup ([`HatError::WalTruncated`]). A live standby never
    /// loses a record, however far it lags.
    pub wal_retention: usize,
}

impl Default for IsoConfig {
    fn default() -> Self {
        IsoConfig {
            engine: EngineConfig::default(),
            mode: ReplicationMode::SyncOn,
            // A LAN round trip plus standby WAL fsync: synchronous-commit
            // acknowledgements are in the ~1ms class, far above the local
            // flush in `EngineConfig::durability`. (PostgreSQL docs
            // warn of exactly this T-side cost for synchronous modes.)
            link_one_way: Duration::from_micros(500),
            replay_cost: Duration::from_micros(120),
            commit_timeout: Duration::from_millis(250),
            wal_retention: DEFAULT_RETENTION,
        }
    }
}

impl IsoConfig {
    /// The default configuration with the primary's local flush folded
    /// into the replication acknowledgement (one coalesced wait per
    /// commit instead of two sleeps — the standby ack already implies
    /// local durability ordering).
    pub fn coalesced_default() -> Self {
        let mut cfg = IsoConfig::default();
        cfg.engine.durability = crate::api::DurabilityMode::Off;
        cfg
    }
}

/// The standby node: its own row database and the replay step that
/// keeps it current.
struct Standby {
    db: RowDb,
    /// Active snapshots over the standby's database. Replica queries
    /// register here (not in the primary kernel's registry): the standby
    /// prunes against its *applied* watermark, independent of the
    /// primary's visibility frontier.
    snapshots: Arc<SnapshotRegistry>,
    link: Arc<NetworkLink>,
    one_way: Duration,
    replay_cost: Duration,
}

impl Replay for Standby {
    fn throttle(&self, record: &LogRecord, pace: &Pace<'_>) -> bool {
        // Records cannot cross a partitioned link; park until it heals,
        // still honoring crash/quiesce.
        while !self.link.wait_healthy_until(Instant::now() + POLL) {
            if pace.stopped() {
                return false;
            }
            if pace.draining() {
                break;
            }
        }
        // Model transit: the record becomes available one-way latency
        // after it was sent. Only sleep the remainder — shipping overlaps
        // with queueing.
        let available_at = record.sent_at + self.one_way.as_nanos() as u64;
        let now = BenchClock::global().now();
        if now < available_at {
            std::thread::sleep(Duration::from_nanos(available_at - now));
        }
        // Per-record standby apply cost.
        if !self.replay_cost.is_zero() {
            std::thread::sleep(self.replay_cost);
        }
        true
    }

    fn apply(&self, record: &LogRecord) {
        for op in &record.ops {
            match op {
                TableOp::Insert { table, rid, row } => {
                    // Land the row at the primary's logged rid. The
                    // primary allocates rids in commit-ts order, so this
                    // is normally the next free slot; the gapped install
                    // just does not depend on it.
                    self.db
                        .store(*table)
                        .install_insert_gapped(*rid, Arc::clone(row), record.commit_ts)
                        .expect("replica applies each rid once");
                }
                TableOp::Update { table, rid, row } => {
                    self.db
                        .store(*table)
                        .install_update(*rid, Arc::clone(row), record.commit_ts)
                        .expect("replica row exists");
                }
            }
        }
    }
}

/// Commit hooks on the primary: log inside installation; apply the mode's
/// wait afterwards.
struct PrimaryHooks {
    follower: Arc<Follower<Standby>>,
    mode: ReplicationMode,
    /// Bound on the synchronous wait; see [`IsoConfig::commit_timeout`].
    commit_timeout: Duration,
}

impl CommitHooks for PrimaryHooks {
    fn on_install(&self, ts: Ts, ops: &[TableOp]) {
        self.follower.log(ts, ops);
    }

    fn post_commit(&self, ts: Ts) -> hat_common::Result<()> {
        match self.mode {
            ReplicationMode::Async => Ok(()),
            // Synchronous transmission: request + durable-write ack. The
            // ack needs a live standby and an unpartitioned link; both
            // waits share one deadline.
            ReplicationMode::SyncOn => {
                let deadline = Instant::now() + self.commit_timeout;
                while self.follower.is_down() {
                    if Instant::now() >= deadline {
                        return Err(HatError::ReplicationTimeout);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                self.follower.target.link.try_delay(2, remaining)
            }
            // Wait until the standby has replayed our record. A crashed
            // standby or a partitioned link both stall the applied
            // watermark, so one bounded wait covers every fault.
            ReplicationMode::RemoteApply => {
                if self.follower.applied.wait_for_timeout(ts, self.commit_timeout) {
                    Ok(())
                } else {
                    Err(HatError::ReplicationTimeout)
                }
            }
        }
    }
}

/// A two-node primary/standby engine.
pub type IsoEngine = Engine<Isolated>;

/// The isolated design: analytics read a standby kept current by WAL
/// replay.
pub struct Isolated {
    config: IsoConfig,
    follower: Arc<Follower<Standby>>,
}

impl IsoEngine {
    /// Builds the engine; the replay thread starts at
    /// [`HtapEngine::finish_load`](crate::api::HtapEngine::finish_load).
    pub fn new(config: IsoConfig) -> Self {
        let standby = Standby {
            db: RowDb::new(),
            snapshots: Arc::new(SnapshotRegistry::new()),
            link: Arc::new(NetworkLink::new(config.link_one_way, config.link_one_way / 4)),
            one_way: config.link_one_way,
            replay_cost: config.replay_cost,
        };
        let follower = Arc::new(Follower::new("iso-replay", config.wal_retention, standby));
        let hooks = Arc::new(PrimaryHooks {
            follower: Arc::clone(&follower),
            mode: config.mode,
            commit_timeout: config.commit_timeout,
        });
        let kernel = RowKernel::with_hooks(config.engine.clone(), hooks);
        Engine::assemble(kernel, Isolated { config, follower })
    }

    /// The primary↔standby link — the chaos surface: partition, brown
    /// out, or schedule a [`crate::netsim::FaultPlan`] against it.
    pub fn link(&self) -> &Arc<NetworkLink> {
        &self.design.follower.target.link
    }

    /// Whether the standby is currently crashed.
    pub fn is_replica_down(&self) -> bool {
        self.design.follower.is_down()
    }

    /// Kills the standby's replay thread, simulating a replica crash.
    /// The replica's database and applied LSN survive (crash, not
    /// wipeout), so [`IsoEngine::restart_replica`] can catch up from the
    /// WAL. Idempotent; synchronous commits start timing out immediately.
    pub fn crash_replica(&self) {
        self.design.follower.crash();
    }

    /// Restarts a crashed standby: resumes the WAL right after the last
    /// applied record, fast-drains the retained backlog (catch-up recovery
    /// runs unthrottled), then resumes normal throttled replay.
    ///
    /// Fails with [`HatError::WalTruncated`] if more than
    /// [`IsoConfig::wal_retention`] records were logged while it was down;
    /// a real system would take a fresh basebackup here.
    pub fn restart_replica(&self) -> Result<()> {
        self.design.follower.restart(&self.background)
    }

    /// The configured replication mode.
    pub fn mode(&self) -> ReplicationMode {
        self.design.config.mode
    }

    /// The replica's applied horizon (tests, diagnostics).
    pub fn applied_ts(&self) -> Ts {
        self.design.follower.applied.get()
    }

    /// Blocks until the replica has applied everything committed so far,
    /// draining the backlog at full speed (no simulated apply throttling —
    /// this is harness hygiene, not a measured phase). The standby must be
    /// up; callers recovering from a crash go through
    /// [`IsoEngine::restart_replica`] first.
    pub fn quiesce_replication(&self) {
        self.design.follower.quiesce();
    }
}

impl Design for Isolated {
    const CATEGORY: DesignCategory = DesignCategory::Isolated;

    fn name(&self, kernel: &RowKernel) -> String {
        format!("isolated[{},{}]", self.config.mode.label(), kernel.config.isolation.label())
    }

    fn snapshot<'a>(&'a self, _kernel: &'a RowKernel) -> Result<Snapshot<'a>> {
        // Queries read the standby at its applied horizon — whatever has
        // been replayed so far. Staleness is visible through the
        // freshness side-read of the replicated FRESHNESS rows.
        let standby = &self.follower.target;
        let guard = standby.snapshots.register_with(|| self.follower.applied.get());
        let view = Box::new(MixedView::rows(&standby.db, guard.ts()));
        Ok(Snapshot { guard, view })
    }

    fn load_row(&self, table: TableId, row: &Row) {
        // Base backup: load primary and standby directly (PostgreSQL
        // standbys start from a basebackup, not from WAL replay of the
        // initial population).
        self.follower.target.db.store(table).install_insert(Arc::clone(row), LOAD_TS);
    }

    fn start(self: &Arc<Self>, _kernel: &Arc<RowKernel>, background: &Background) -> Result<()> {
        self.follower.start(background)
    }

    fn vacuum(&self, kernel: &RowKernel) {
        // One vacuum loop covers both nodes: the standby prunes at its own
        // applied watermark (a standby never needs versions older than
        // what the oldest replica query can see).
        let standby = &self.follower.target;
        let horizon = standby.snapshots.prune_horizon(self.follower.applied.get());
        let stats = standby.db.vacuum(horizon, |_| {});
        kernel.stats.versions_pruned.add(stats.freed);
    }

    fn before_reset(&self, background: &Background) -> Result<()> {
        // Recover a crashed standby and drain replication so it is
        // consistent before both nodes reset.
        self.follower.drain(background)
    }

    fn after_reset(&self, kernel: &RowKernel) {
        for t in TableId::ALL {
            let store = self.follower.target.db.store(t);
            store.truncate_slots(kernel.loaded_count(t));
            if t.is_mutable() {
                store.revert_versions_after(LOAD_TS);
            }
        }
    }

    fn gauges(&self, kernel: &RowKernel, snap: &mut MetricsSnapshot) {
        snap.set_gauge(names::REPL_BACKLOG, self.follower.backlog());
        // Bounded memory is a two-node property here: report the version
        // population of primary and standby together.
        snap.set_gauge(
            names::LIVE_VERSIONS,
            kernel.db.live_versions() + self.follower.target.db.live_versions(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HtapEngine;
    use hat_query::exec::QueryOpts;
    use crate::api::{CommitDurability, InDoubtCause};
    use hat_common::ids::customer;
    use hat_common::value::{row_from, row_with};
    use hat_common::Value;
    use hat_query::predicate::Predicate;
    use hat_query::spec::{AggExpr, QueryId, QuerySpec};
    use crate::api::NamedIndex;

    fn fast_config(mode: ReplicationMode) -> IsoConfig {
        IsoConfig {
            engine: EngineConfig::default(),
            mode,
            link_one_way: Duration::from_micros(50),
            replay_cost: Duration::from_micros(10),
            ..IsoConfig::default()
        }
    }

    fn customer_row(ck: u32) -> Row {
        row_from([
            Value::U32(ck),
            Value::from(format!("Customer#{ck:09}")),
            Value::from("addr"),
            Value::from("CITY0"),
            Value::from("CHINA"),
            Value::from("ASIA"),
            Value::from("phone"),
            Value::from("AUTO"),
            Value::U32(0),
        ])
    }

    fn freshness_row(client: u32, txn: u64) -> Row {
        row_from([Value::U32(client), Value::U64(txn)])
    }

    fn loaded_engine(mode: ReplicationMode) -> IsoEngine {
        loaded_with(fast_config(mode))
    }

    fn loaded_with(config: IsoConfig) -> IsoEngine {
        let engine = IsoEngine::new(config);
        let customers: Vec<Row> = (1..=10).map(customer_row).collect();
        engine.load(TableId::Customer, &mut customers.into_iter()).unwrap();
        let fr: Vec<Row> = (0..2).map(|c| freshness_row(c, 0)).collect();
        engine.load(TableId::Freshness, &mut fr.into_iter()).unwrap();
        engine.finish_load().unwrap();
        engine
    }

    /// A trivial count(*) over customer for replica-visibility checks.
    fn count_customers_spec() -> QuerySpec {
        QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::Customer,
            fact_filter: Predicate::all(),
            joins: vec![],
            group_by: vec![],
            agg: AggExpr::CountRows,
        }
    }

    #[test]
    fn replica_receives_committed_writes() {
        let engine = loaded_engine(ReplicationMode::SyncOn);
        let mut s = engine.begin();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 3).unwrap().unwrap();
        s.update(
            TableId::Customer,
            rid,
            row_with(&row, customer::PAYMENTCNT, Value::U32(5)),
        )
        .unwrap();
        let commit_ts = s.commit().unwrap().ts;
        engine.design.follower.applied.wait_for(commit_ts);
        let replicated = engine.design.follower.target.db.store(TableId::Customer).read(rid, commit_ts).unwrap();
        assert_eq!(replicated[customer::PAYMENTCNT].as_u32().unwrap(), 5);
    }

    #[test]
    fn remote_apply_commits_are_immediately_queryable() {
        let engine = loaded_engine(ReplicationMode::RemoteApply);
        let mut s = engine.begin();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        s.update(TableId::Customer, rid, row_with(&row, customer::PAYMENTCNT, Value::U32(9)))
            .unwrap();
        let commit_ts = s.commit().unwrap().ts;
        // RA: by the time commit returned, the replica has applied.
        assert!(engine.applied_ts() >= commit_ts);
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 10);
    }

    #[test]
    fn freshness_vector_comes_from_replica() {
        let engine = loaded_engine(ReplicationMode::RemoteApply);
        let mut s = engine.begin();
        s.update(TableId::Freshness, 0, freshness_row(0, 42)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness, vec![(0, 42), (1, 0)]);
    }

    #[test]
    fn async_mode_can_be_stale_then_catches_up() {
        // Large replay cost: the query right after commit misses the txn.
        let mut cfg = fast_config(ReplicationMode::Async);
        cfg.replay_cost = Duration::from_millis(30);
        let engine = IsoEngine::new(cfg);
        let customers: Vec<Row> = (1..=3).map(customer_row).collect();
        engine.load(TableId::Customer, &mut customers.into_iter()).unwrap();
        let fr = vec![freshness_row(0, 0)];
        engine.load(TableId::Freshness, &mut fr.into_iter()).unwrap();
        engine.finish_load().unwrap();

        let mut s = engine.begin();
        s.update(TableId::Freshness, 0, freshness_row(0, 7)).unwrap();
        let commit_ts = s.commit().unwrap().ts;
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness, vec![(0, 0)], "stale before replay");
        engine.design.follower.applied.wait_for(commit_ts);
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness, vec![(0, 7)], "fresh after replay");
    }

    #[test]
    fn inserts_replicate_with_same_rids() {
        let engine = loaded_engine(ReplicationMode::RemoteApply);
        let mut s = engine.begin();
        s.insert(TableId::Customer, customer_row(11)).unwrap();
        let commit_ts = s.commit().unwrap().ts;
        let primary_count = engine.kernel.db.store(TableId::Customer).slot_count();
        let replica_count = engine.design.follower.target.db.store(TableId::Customer).slot_count();
        assert_eq!(primary_count, replica_count);
        assert_eq!(primary_count, 11);
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 11);
        let _ = commit_ts;
    }

    #[test]
    fn reset_restores_both_nodes() {
        let engine = loaded_engine(ReplicationMode::SyncOn);
        let mut s = engine.begin();
        s.insert(TableId::Customer, customer_row(11)).unwrap();
        s.update(TableId::Freshness, 0, freshness_row(0, 3)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        engine.reset().unwrap();
        assert_eq!(engine.kernel.db.store(TableId::Customer).slot_count(), 10);
        assert_eq!(engine.design.follower.target.db.store(TableId::Customer).slot_count(), 10);
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 10);
        assert_eq!(out.freshness, vec![(0, 0), (1, 0)]);
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0);
    }

    #[test]
    fn quiesce_survives_burned_timestamps() {
        // Regression: serializable validation failures burn a commit
        // timestamp without producing a WAL record. Quiesce/reset must not
        // wait for a record that will never arrive.
        let engine = Arc::new(loaded_engine(ReplicationMode::SyncOn));
        // t1 reads customer 1; t2 rewrites it and commits; t1 then writes
        // customer 2 and fails validation -> burned timestamp.
        let mut t1 = engine.begin();
        let _ = t1.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        let mut t2 = engine.begin();
        let (rid, row) = t2.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        t2.update(TableId::Customer, rid, row).unwrap();
        assert!(t2.commit().unwrap().is_acked());
        let (rid2, row2) = t1.lookup_u32(NamedIndex::CustomerPk, 2).unwrap().unwrap();
        t1.update(TableId::Customer, rid2, row2).unwrap();
        assert!(t1.commit().is_err(), "validation must fail");

        // Reset (which quiesces) must complete promptly.
        let (tx, rx) = std::sync::mpsc::channel();
        let engine2 = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine2.reset().unwrap();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("reset deadlocked on a burned timestamp");
    }

    #[test]
    fn sync_commit_times_out_under_partition_within_bound() {
        let mut cfg = fast_config(ReplicationMode::SyncOn);
        cfg.commit_timeout = Duration::from_millis(30);
        let engine = {
            let engine = IsoEngine::new(cfg);
            let customers: Vec<Row> = (1..=10).map(customer_row).collect();
            engine.load(TableId::Customer, &mut customers.into_iter()).unwrap();
            engine.finish_load().unwrap();
            engine
        };
        engine.link().partition();
        let mut s = engine.begin();
        s.insert(TableId::Customer, customer_row(11)).unwrap();
        let start = Instant::now();
        let receipt = s.commit().unwrap();
        assert_eq!(
            receipt.durability,
            CommitDurability::InDoubt(InDoubtCause::Replication)
        );
        assert!(!receipt.is_acked());
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(start.elapsed() < Duration::from_millis(500), "bounded, not hung");
        let stats = engine.metrics();
        assert_eq!(stats.counter(names::TXN_REPL_TIMEOUTS), 1);
        assert_eq!(stats.counter(names::TXN_COMMITS), 1, "in-doubt commit is durable on the primary");

        // After the partition heals, commits flow again and the in-doubt
        // write is visible everywhere.
        engine.link().heal();
        let mut s = engine.begin();
        s.insert(TableId::Customer, customer_row(12)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        engine.quiesce_replication();
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 12, "no lost commits after recovery");
    }

    #[test]
    fn remote_apply_times_out_when_replica_down() {
        let mut cfg = fast_config(ReplicationMode::RemoteApply);
        cfg.commit_timeout = Duration::from_millis(30);
        let engine = {
            let engine = IsoEngine::new(cfg);
            let customers: Vec<Row> = (1..=5).map(customer_row).collect();
            engine.load(TableId::Customer, &mut customers.into_iter()).unwrap();
            engine.finish_load().unwrap();
            engine
        };
        engine.crash_replica();
        assert!(engine.is_replica_down());
        let mut s = engine.begin();
        s.insert(TableId::Customer, customer_row(6)).unwrap();
        let receipt = s.commit().unwrap();
        assert_eq!(
            receipt.durability,
            CommitDurability::InDoubt(InDoubtCause::Replication)
        );
        // Recovery: restart, catch up, and the write is there.
        engine.restart_replica().unwrap();
        engine.quiesce_replication();
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 6);
    }

    #[test]
    fn crashed_replica_catches_up_from_wal_on_restart() {
        let engine = loaded_engine(ReplicationMode::Async);
        engine.crash_replica();
        // Async commits keep succeeding while the standby is down.
        for ck in 11..=20 {
            let mut s = engine.begin();
            s.insert(TableId::Customer, customer_row(ck)).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 10);
        let stale = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(stale.groups[0].agg, 10, "standby frozen at crash point");

        engine.restart_replica().unwrap();
        engine.quiesce_replication();
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0);
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 20, "every record recovered, none doubled");
        // Watermark continuity: the applied horizon reached the last
        // logged commit.
        assert!(engine.applied_ts() >= engine.design.follower.last_logged());
    }

    #[test]
    fn live_replica_behind_a_partition_loses_nothing_past_retention() {
        // Retention bounds the log only while the standby is down: a live
        // standby cut off by a partition must get every record once the
        // link heals, however far past the retention bound it fell.
        let retention = 4;
        let mut cfg = fast_config(ReplicationMode::Async);
        cfg.wal_retention = retention;
        let engine = loaded_with(cfg);
        engine.link().partition();
        let mut last = 0;
        for ck in 11..(11 + 3 * retention as u32) {
            let mut s = engine.begin();
            s.insert(TableId::Customer, customer_row(ck)).unwrap();
            last = s.commit().unwrap().ts;
        }
        assert!(!engine.is_replica_down());
        engine.link().heal();
        engine.quiesce_replication();
        assert_eq!(engine.applied_ts(), last);
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0);
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        let rows = out.groups[0].agg;
        assert_eq!(rows, 10 + 3 * retention as i64, "every record applied exactly once");
    }

    #[test]
    fn crash_restart_is_idempotent_and_cheap_when_up() {
        let engine = loaded_engine(ReplicationMode::Async);
        engine.restart_replica().unwrap();
        engine.crash_replica();
        engine.crash_replica();
        engine.restart_replica().unwrap();
        engine.restart_replica().unwrap();
        assert!(!engine.is_replica_down());
        let mut s = engine.begin();
        s.insert(TableId::Customer, customer_row(11)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        engine.quiesce_replication();
        assert_eq!(
            engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap().groups[0].agg,
            11
        );
    }

    #[test]
    fn both_nodes_vacuum_and_the_standby_prunes_at_applied() {
        let mut cfg = fast_config(ReplicationMode::RemoteApply);
        cfg.engine.vacuum_interval = Some(Duration::from_millis(1));
        let engine = IsoEngine::new(cfg);
        let customers: Vec<Row> = (1..=4).map(customer_row).collect();
        engine.load(TableId::Customer, &mut customers.into_iter()).unwrap();
        engine.finish_load().unwrap();
        let base = engine.design.follower.target.db.live_versions();
        // Remote-apply: every commit is replayed before the next begins,
        // so both nodes accumulate the same 30-version chain on customer 1.
        for n in 1..=30u32 {
            let mut s = engine.begin();
            let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
            s.update(
                TableId::Customer,
                rid,
                row_with(&row, customer::PAYMENTCNT, Value::U32(n)),
            )
            .unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        // The vacuum thread converges both databases to newest + base.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let primary = engine.kernel.db.live_versions();
            let standby = engine.design.follower.target.db.live_versions();
            if primary <= base + 1 && standby <= base + 1 {
                break;
            }
            assert!(Instant::now() < deadline, "vacuum never converged: primary={primary} standby={standby}");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Replica reads still see the newest state.
        let out = engine.query(&count_customers_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 4);
        let snap = engine.metrics();
        assert!(snap.gauge(names::LIVE_VERSIONS) <= 2 * (base + 1));
    }

    #[test]
    fn design_and_mode_labels() {
        let engine = loaded_engine(ReplicationMode::SyncOn);
        assert_eq!(engine.design(), DesignCategory::Isolated);
        assert!(engine.name().contains("isolated"));
        assert_eq!(engine.mode().label(), "on");
        assert_eq!(ReplicationMode::RemoteApply.label(), "remote-apply");
        assert_eq!(ReplicationMode::Async.label(), "async");
    }
}
