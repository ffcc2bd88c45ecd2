//! The shared-design engine ("PostgreSQL-like", §2.2 / §6.2).
//!
//! One MVCC row store serves both workloads: transactions run through the
//! kernel, and analytical queries scan the same version chains under a
//! snapshot. Freshness is zero by construction — a query's snapshot is the
//! current visibility horizon, so it sees every transaction that committed
//! before it started. The cost is interference: both workloads fight for
//! CPU, slot locks, the commit critical section, and index latches.

use std::sync::Arc;

use hat_common::Result;
use hat_query::spec::QuerySpec;
use hat_query::view::{MixedView, SnapshotView};
use hat_txn::Ts;

use crate::analytics::{date_range_hint, PrefilteredView};
use crate::api::{DesignCategory, EngineConfig};
use crate::design::{Background, Design, Engine, Snapshot};
use crate::kernel::RowKernel;

/// A single-node, single-copy MVCC engine.
pub type ShdEngine = Engine<Shared>;

/// The shared design: queries read the kernel's own row store at the
/// current visibility horizon.
pub struct Shared;

impl ShdEngine {
    /// Builds an engine with the given configuration. Panics if the
    /// durability mode needs disk and the WAL can't be opened; use
    /// [`ShdEngine::try_new`] to handle that (and to recover a WAL
    /// directory left by a previous process).
    pub fn new(config: EngineConfig) -> Self {
        Self::try_new(config).expect("engine construction failed")
    }

    /// Fallible [`ShdEngine::new`]: with `DurabilityMode::Fsync` this
    /// replays any checkpoint + WAL tail found in the configured
    /// directory before returning, so the engine resumes exactly at the
    /// last acknowledged commit.
    pub fn try_new(config: EngineConfig) -> Result<Self> {
        Ok(Engine::assemble(RowKernel::try_new(config)?, Shared))
    }

    /// Writes a checkpoint now (no-op unless durability is `Fsync`).
    pub fn checkpoint(&self) -> Result<()> {
        self.kernel.checkpoint()
    }
}

impl Design for Shared {
    const CATEGORY: DesignCategory = DesignCategory::Shared;

    fn name(&self, kernel: &RowKernel) -> String {
        format!("shared[{},{}]", kernel.config.isolation.label(), kernel.config.indexes.label())
    }

    fn snapshot<'a>(&'a self, kernel: &'a RowKernel) -> Result<Snapshot<'a>> {
        // The guard pins the query's snapshot against vacuum for the whole
        // scan; registration picks the timestamp (it may retry past a
        // concurrent pass, always landing on a fresh frontier).
        let guard = kernel.snapshots.register_with(|| kernel.oracle.read_ts());
        let view = Box::new(MixedView::rows(&kernel.db, guard.ts()));
        Ok(Snapshot { guard, view })
    }

    fn index_view<'a>(
        &'a self,
        kernel: &'a RowKernel,
        spec: &QuerySpec,
        ts: Ts,
    ) -> Option<Box<dyn SnapshotView + 'a>> {
        // Index-accelerated plan when the physical schema allows it.
        let (lo, hi) = date_range_hint(spec)?;
        let rids = kernel.indexes.lineorder_rids_for_date_range(lo, hi)?;
        Some(Box::new(PrefilteredView::new(&kernel.db, ts, spec.fact, &rids)))
    }

    fn start(self: &Arc<Self>, kernel: &Arc<RowKernel>, _background: &Background) -> Result<()> {
        // With an on-disk WAL, make the bulk-loaded base data durable via
        // an initial checkpoint (loads are not logged).
        kernel.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use crate::api::HtapEngine;
    use hat_common::{Row, TableId};
    use hat_query::exec::QueryOpts;
    use hat_common::telemetry::names;
    use crate::api::{IndexProfile, NamedIndex};
    use hat_common::ids::customer;
    use hat_query::exec::execute;
    use hat_common::value::row_from;
    use hat_common::{Money, Value};
    use hat_query::spec::QueryId;
    use hat_query::ssb;
    use hat_txn::IsolationLevel;

    fn date_row(key: u32) -> Row {
        let d = hat_common::dates::CalendarDate::from_key(key);
        row_from([
            Value::U32(key),
            Value::from(format!("{} {}, {}", d.month_name(), d.day, d.year)),
            Value::from(d.day_name()),
            Value::from(d.month_name()),
            Value::U32(d.year),
            Value::U32(d.yearmonthnum()),
            Value::from(d.yearmonth()),
            Value::U32(d.weekday() + 1),
            Value::U32(d.day),
            Value::U32(d.day_num_in_year()),
            Value::U32(d.month),
            Value::U32(d.week_num_in_year()),
            Value::from(d.selling_season()),
            Value::from(d.is_last_day_in_month()),
            Value::from(d.is_holiday()),
            Value::from(d.is_weekday()),
        ])
    }

    fn lineorder_row(ok: u64, custkey: u32, orderdate: u32, price_c: i64, disc: u32, qty: u32) -> Row {
        row_from([
            Value::U64(ok),
            Value::U32(1),
            Value::U32(custkey),
            Value::U32(1),
            Value::U32(1),
            Value::U32(orderdate),
            Value::from("1-URGENT"),
            Value::from("0"),
            Value::U32(qty),
            Value::Money(Money::from_cents(price_c)),
            Value::Money(Money::from_cents(price_c)),
            Value::U32(disc),
            Value::Money(Money::from_cents(price_c * 9 / 10)),
            Value::Money(Money::from_cents(price_c * 6 / 10)),
            Value::U32(0),
            Value::U32(orderdate),
            Value::from("TRUCK"),
        ])
    }

    fn engine_with_data(indexes: IndexProfile) -> ShdEngine {
        let engine = ShdEngine::new(EngineConfig {
            isolation: IsolationLevel::Serializable,
            indexes,
            durability: crate::api::DurabilityMode::Off,
            ..EngineConfig::default()
        });
        // Date dimension: all of 1993 and 1994.
        let dates: Vec<Row> = hat_common::dates::all_date_keys()
            .filter(|k| (19930101..=19941231).contains(k))
            .map(date_row)
            .collect();
        engine.load(TableId::Date, &mut dates.into_iter()).unwrap();
        // Facts: two qualifying rows in 1993, one in 1994.
        let rows = vec![
            lineorder_row(1, 1, 19930315, 10_000, 2, 10),
            lineorder_row(2, 1, 19930720, 20_000, 3, 20),
            lineorder_row(3, 1, 19940101, 30_000, 2, 10),
        ];
        engine.load(TableId::Lineorder, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
        engine
    }

    #[test]
    fn q11_matches_on_both_plans() {
        // Q1.1: d_year=1993, discount 1..3, quantity < 25
        // -> rows 1 and 2: 10000*2% + 20000*3% = 200 + 600.
        let expected = 800;
        for profile in [IndexProfile::All, IndexProfile::Semi, IndexProfile::None] {
            let engine = engine_with_data(profile);
            let out = engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();
            assert_eq!(out.groups[0].agg, expected, "profile {profile:?}");
            assert_eq!(out.matched_rows, 2);
        }
    }

    #[test]
    fn queries_see_committed_inserts_immediately() {
        let engine = engine_with_data(IndexProfile::All);
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(4, 1, 19930601, 100_000, 1, 5))
            .unwrap();
        assert!(s.commit().unwrap().is_acked());
        let out = engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 800 + 1000, "freshness is zero by design");
    }

    #[test]
    fn uncommitted_inserts_are_invisible_to_queries() {
        let engine = engine_with_data(IndexProfile::All);
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(4, 1, 19930601, 100_000, 1, 5))
            .unwrap();
        let out = engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 800);
        s.abort();
    }

    #[test]
    fn design_and_name() {
        let engine = engine_with_data(IndexProfile::All);
        assert_eq!(engine.design(), DesignCategory::Shared);
        assert!(engine.name().contains("shared"));
        assert!(engine.name().contains("serializable"));
    }

    #[test]
    fn reset_between_runs() {
        let engine = engine_with_data(IndexProfile::All);
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(4, 1, 19930601, 100_000, 1, 5))
            .unwrap();
        assert!(s.commit().unwrap().is_acked());
        engine.reset().unwrap();
        let out = engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();
        assert_eq!(out.groups[0].agg, 800);
    }

    #[test]
    fn transactional_path_works_end_to_end() {
        let engine = ShdEngine::new(EngineConfig::default());
        let customers: Vec<Row> = (1..=10u32)
            .map(|i| {
                row_from([
                    Value::U32(i),
                    Value::from(format!("Customer#{i:09}")),
                    Value::from("addr"),
                    Value::from("CITY0"),
                    Value::from("CHINA"),
                    Value::from("ASIA"),
                    Value::from("phone"),
                    Value::from("AUTO"),
                    Value::U32(0),
                ])
            })
            .collect();
        engine.load(TableId::Customer, &mut customers.into_iter()).unwrap();
        engine.finish_load().unwrap();
        let mut s = engine.begin();
        let (rid, row) = s.lookup_str(NamedIndex::CustomerName, "Customer#000000004")
            .unwrap()
            .unwrap();
        assert_eq!(row[customer::CUSTKEY].as_u32().unwrap(), 4);
        let patched =
            hat_common::value::row_with(&row, customer::PAYMENTCNT, Value::U32(1));
        s.update(TableId::Customer, rid, patched).unwrap();
        assert!(s.commit().unwrap().is_acked());
        assert_eq!(engine.metrics().counter(names::TXN_COMMITS), 1);
    }

    #[test]
    fn background_vacuum_reclaims_superseded_versions() {
        let engine = ShdEngine::new(EngineConfig {
            durability: crate::api::DurabilityMode::Off,
            vacuum_interval: Some(Duration::from_millis(1)),
            ..EngineConfig::default()
        });
        let customers: Vec<Row> = (1..=4u32)
            .map(|i| {
                row_from([
                    Value::U32(i),
                    Value::from(format!("Customer#{i:09}")),
                    Value::from("addr"),
                    Value::from("CITY0"),
                    Value::from("CHINA"),
                    Value::from("ASIA"),
                    Value::from("phone"),
                    Value::from("AUTO"),
                    Value::U32(0),
                ])
            })
            .collect();
        engine.load(TableId::Customer, &mut customers.into_iter()).unwrap();
        engine.finish_load().unwrap();
        let base = engine.kernel().db.live_versions();
        for _ in 0..50 {
            let mut s = engine.begin();
            let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
            s.update(TableId::Customer, rid, row).unwrap();
            assert!(s.commit().unwrap().is_acked());
        }
        // The background thread converges the chain to newest + base.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while engine.kernel().db.live_versions() > base + 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "vacuum failed to reclaim: {} live versions",
                engine.kernel().db.live_versions()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(engine.metrics().counter(names::VACUUM_PASSES) > 0);
        assert!(engine.metrics().counter(names::VACUUM_VERSIONS_PRUNED) >= 48);
    }

    #[test]
    fn prefilter_consistency_with_concurrent_growth() {
        // Rows inserted after the query's snapshot must not appear even
        // though their index entries exist.
        let engine = engine_with_data(IndexProfile::All);
        let ts_before = engine.kernel().oracle.read_ts();
        let mut s = engine.begin();
        s.insert(TableId::Lineorder, lineorder_row(4, 1, 19930601, 100_000, 1, 5))
            .unwrap();
        assert!(s.commit().unwrap().is_acked());
        // Manually run the prefiltered plan at the old snapshot.
        let spec = ssb::query(QueryId::Q1_1);
        let (lo, hi) = date_range_hint(&spec).unwrap();
        let rids = engine
            .kernel()
            .indexes
            .lineorder_rids_for_date_range(lo, hi)
            .unwrap();
        assert_eq!(rids.len(), 3, "index has the new entry");
        let view = PrefilteredView::new(&engine.kernel().db, ts_before, spec.fact, &rids);
        let out = execute(&spec, &view);
        assert_eq!(out.groups[0].agg, 800, "snapshot excludes the new row");
    }
}
