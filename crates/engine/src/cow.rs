//! A copy-on-write snapshot engine ("HyPer-like").
//!
//! The paper's shared-design taxonomy (§2.2) includes systems that isolate
//! analytics by *snapshotting* the operational data — HyPer's fork-based
//! virtual-memory snapshots being the canonical example, and the system
//! whose freshness trade-offs the CH-benCHmark studied. This engine models
//! that design:
//!
//! * Transactions run on the shared row kernel, exactly like
//!   [`crate::shared::ShdEngine`].
//! * Analytical queries do **not** read the current visibility horizon;
//!   they read the latest *snapshot*, refreshed every
//!   [`CowConfig::snapshot_interval`] by a background thread.
//! * Taking a snapshot briefly stalls commits for
//!   [`CowConfig::fork_pause`] — the fork's page-table copy happens while
//!   the OLTP process is quiesced in HyPer.
//!
//! The result is the third freshness behaviour in this workspace: not
//! always-fresh (shared/hybrid) and not load-dependent (isolated ON), but
//! *bounded* staleness — every query is at most one snapshot interval
//! old, regardless of the update rate. The interval knob exposes the
//! CH-benCHmark trade-off between snapshot frequency and performance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hat_common::Result;
use hat_query::view::MixedView;
use hat_txn::{SnapshotGuard, LOAD_TS};
use parking_lot::Mutex;

use crate::api::{DesignCategory, EngineConfig};
use crate::design::{Background, Design, Engine, Snapshot};
use crate::kernel::RowKernel;

/// Configuration of the snapshot engine.
#[derive(Debug, Clone)]
pub struct CowConfig {
    pub engine: EngineConfig,
    /// How often analytics get a fresh snapshot. HyPer forks on demand or
    /// periodically; the CH-benCHmark calls this the freshness
    /// configuration.
    pub snapshot_interval: Duration,
    /// Commit stall while the snapshot is taken (page-table copy of a
    /// fork; grows with the process's memory in the real system).
    pub fork_pause: Duration,
}

impl Default for CowConfig {
    fn default() -> Self {
        CowConfig {
            engine: EngineConfig::default(),
            snapshot_interval: Duration::from_millis(50),
            fork_pause: Duration::from_micros(300),
        }
    }
}

/// A single-node engine whose analytics read periodic CoW snapshots.
pub type CowEngine = Engine<Cow>;

/// The copy-on-write design: analytics read the last published snapshot.
pub struct Cow {
    config: CowConfig,
    /// Timestamp of the snapshot analytics currently read.
    snapshot_ts: AtomicU64,
    /// Standing registration of [`Self::snapshot_ts`] in the kernel's
    /// snapshot registry: it clamps the vacuum horizon at the published
    /// snapshot so stale analytical reads stay safe between refreshes.
    /// `None` while the snapshot is `LOAD_TS` (load-time base versions
    /// are never reclaimed, so no pin is needed).
    pin: Mutex<Option<SnapshotGuard>>,
    snapshots_taken: AtomicU64,
}

impl Cow {
    /// Takes a snapshot: burns a commit timestamp while commits are
    /// stalled, re-pins the snapshot registry at it, and publishes it to
    /// analytics.
    fn take_snapshot(&self, kernel: &RowKernel) {
        // Enter the commit critical section: no commit can install while
        // the "fork" happens, exactly like HyPer quiescing OLTP. The
        // allocated timestamp is burned (no versions installed), which the
        // oracle handles by advancing the horizon.
        let guard = kernel.oracle.begin_commit();
        if !self.config.fork_pause.is_zero() {
            std::thread::sleep(self.config.fork_pause);
        }
        // Everything strictly before the burned ts is installed; make the
        // snapshot exactly that prefix.
        let ts = guard.ts() - 1;
        // Re-pin the vacuum horizon at the new snapshot while still inside
        // the commit critical section: the visibility frontier (and hence
        // any advertised prune horizon) cannot pass `ts` until the commit
        // lock is released, so this registration never retries, and swapping
        // new-before-old keeps the coverage chain unbroken.
        let new_pin = kernel.snapshots.register_with(|| ts);
        *self.pin.lock() = Some(new_pin);
        drop(guard);
        self.snapshot_ts.store(ts, Ordering::Release);
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
    }
}

impl CowEngine {
    /// Builds the engine; the snapshot thread starts at `finish_load`.
    pub fn new(config: CowConfig) -> Self {
        let kernel = RowKernel::new(config.engine.clone());
        Engine::assemble(
            kernel,
            Cow {
                config,
                snapshot_ts: AtomicU64::new(LOAD_TS),
                pin: Mutex::new(None),
                snapshots_taken: AtomicU64::new(0),
            },
        )
    }

    /// The timestamp analytics currently read (tests/diagnostics).
    pub fn snapshot_ts(&self) -> u64 {
        self.design.snapshot_ts.load(Ordering::Acquire)
    }

    /// Number of snapshots taken so far.
    pub fn snapshots_taken(&self) -> u64 {
        self.design.snapshots_taken.load(Ordering::Relaxed)
    }

    /// Takes a snapshot right now (also what the background thread does).
    /// Commits are stalled for the configured fork pause while the
    /// snapshot point is chosen.
    pub fn refresh_snapshot(&self) {
        self.design.take_snapshot(&self.kernel);
    }
}

impl Design for Cow {
    const CATEGORY: DesignCategory = DesignCategory::Shared;

    fn name(&self, _kernel: &RowKernel) -> String {
        format!("cow-snapshot[{}ms]", self.config.snapshot_interval.as_millis())
    }

    fn snapshot<'a>(&'a self, kernel: &'a RowKernel) -> Result<Snapshot<'a>> {
        // Analytics read the last snapshot, not the current horizon:
        // bounded staleness, no interference with in-flight commits'
        // version installation. Registering at the published snapshot
        // never spins: the standing pin keeps the prune horizon at or
        // below it, and during the instant a refresh moves the pin before
        // publishing the new timestamp, a retry simply re-reads
        // `snapshot_ts`.
        let guard = kernel.snapshots.register_with(|| self.snapshot_ts.load(Ordering::Acquire));
        let view = Box::new(MixedView::rows(&kernel.db, guard.ts()));
        Ok(Snapshot { guard, view })
    }

    fn start(self: &Arc<Self>, kernel: &Arc<RowKernel>, background: &Background) -> Result<()> {
        // The standing pin clamps the kernel's vacuum at the published
        // snapshot, so the vacuum pass needs no extra work here.
        let (cow, kernel) = (Arc::clone(self), Arc::clone(kernel));
        background.every("cow-refresher", self.config.snapshot_interval, move || {
            cow.take_snapshot(&kernel);
        });
        Ok(())
    }

    fn after_reset(&self, _kernel: &RowKernel) {
        // Re-point analytics at the loaded state until the next refresh.
        // The standing pin is dropped rather than moved: a snapshot at
        // `LOAD_TS` needs no pin because the store never reclaims
        // load-time base versions (the same rule that makes the revert
        // in `kernel.reset()` possible at all).
        *self.pin.lock() = None;
        self.snapshot_ts.store(LOAD_TS, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HtapEngine;
    use hat_common::{Row, TableId};
    use hat_query::exec::QueryOpts;
    use hat_common::telemetry::names;
    use hat_common::value::row_from;
    use hat_common::Value;
    use hat_query::predicate::Predicate;
    use hat_query::spec::{AggExpr, QueryId, QuerySpec};

    fn freshness_row(client: u32, txn: u64) -> Row {
        row_from([Value::U32(client), Value::U64(txn)])
    }

    fn count_spec() -> QuerySpec {
        QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::Freshness,
            fact_filter: Predicate::all(),
            joins: vec![],
            group_by: vec![],
            agg: AggExpr::CountRows,
        }
    }

    fn loaded(interval: Duration) -> CowEngine {
        let engine = CowEngine::new(CowConfig {
            engine: EngineConfig::default().without_durability(),
            snapshot_interval: interval,
            fork_pause: Duration::from_micros(50),
        });
        let rows: Vec<Row> = (0..2).map(|c| freshness_row(c, 0)).collect();
        engine.load(TableId::Freshness, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
        engine
    }

    #[test]
    fn analytics_lag_until_snapshot_refresh() {
        // Long interval: commits are invisible to analytics until an
        // explicit refresh.
        let engine = loaded(Duration::from_secs(3600));
        let mut s = engine.begin();
        s.update(TableId::Freshness, 0, freshness_row(0, 9)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        let out = engine.query(&count_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness, vec![(0, 0), (1, 0)], "stale before refresh");
        engine.refresh_snapshot();
        let out = engine.query(&count_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness, vec![(0, 9), (1, 0)], "fresh after refresh");
        assert!(engine.snapshots_taken() >= 1);
    }

    #[test]
    fn background_refresher_catches_up() {
        let engine = loaded(Duration::from_millis(10));
        let mut s = engine.begin();
        s.update(TableId::Freshness, 1, freshness_row(1, 4)).unwrap();
        let commit_ts = s.commit().unwrap().ts;
        // Within a few intervals the snapshot passes the commit.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while engine.snapshot_ts() < commit_ts {
            assert!(std::time::Instant::now() < deadline, "refresher stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = engine.query(&count_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness.iter().find(|(c, _)| *c == 1).unwrap().1, 4);
    }

    #[test]
    fn commits_proceed_despite_refresher() {
        // Aggressive snapshotting must stall, not break, the commit path.
        let engine = loaded(Duration::from_millis(1));
        for n in 1..=50u64 {
            let mut s = engine.begin();
            s.update(TableId::Freshness, 0, freshness_row(0, n)).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        assert_eq!(engine.metrics().counter(names::TXN_COMMITS), 50);
    }

    #[test]
    fn reset_rewinds_snapshot() {
        let engine = loaded(Duration::from_secs(3600));
        let mut s = engine.begin();
        s.update(TableId::Freshness, 0, freshness_row(0, 5)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        engine.refresh_snapshot();
        engine.reset().unwrap();
        let out = engine.query(&count_spec(), &QueryOpts::default()).unwrap();
        assert!(out.freshness.iter().all(|&(_, t)| t == 0));
    }

    #[test]
    fn pinned_snapshot_holds_the_vacuum_horizon_until_refresh() {
        let engine = CowEngine::new(CowConfig {
            engine: EngineConfig {
                vacuum_interval: Some(Duration::from_millis(1)),
                ..EngineConfig::default().without_durability()
            },
            snapshot_interval: Duration::from_secs(3600),
            fork_pause: Duration::from_micros(50),
        });
        let rows: Vec<Row> = (0..2).map(|c| freshness_row(c, 0)).collect();
        engine.load(TableId::Freshness, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
        // Commit once so the snapshot pin lands above the load timestamp,
        // then pin and bury row 0 under 40 more committed updates while
        // the vacuum thread runs aggressively.
        let mut s = engine.begin();
        s.update(TableId::Freshness, 1, freshness_row(1, 7)).unwrap();
        assert!(s.commit().unwrap().is_acked());
        engine.refresh_snapshot();
        for n in 1..=40u64 {
            let mut s = engine.begin();
            s.update(TableId::Freshness, 0, freshness_row(0, n)).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        std::thread::sleep(Duration::from_millis(20));
        // 2 base versions + row 1's update + row 0's 40 updates: the pin
        // keeps the horizon below all of them, so nothing is reclaimed.
        assert_eq!(engine.kernel.db.live_versions(), 43, "pin holds the horizon");
        let out = engine.query(&count_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness, vec![(0, 0), (1, 7)], "snapshot stays consistent");
        // Moving the snapshot forward releases the buried versions: each
        // chain converges to its newest version plus the immortal base.
        engine.refresh_snapshot();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while engine.kernel.db.live_versions() > 4 {
            assert!(std::time::Instant::now() < deadline, "vacuum never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        let out = engine.query(&count_spec(), &QueryOpts::default()).unwrap();
        assert_eq!(out.freshness, vec![(0, 40), (1, 7)]);
    }

    #[test]
    fn name_and_design() {
        let engine = loaded(Duration::from_secs(1));
        assert!(engine.name().contains("cow-snapshot"));
        assert_eq!(engine.design(), DesignCategory::Shared);
    }
}
