//! Chaos integration: the full HATtrick mix under a seeded fault schedule,
//! with a replica crash and recovery mid-run.
//!
//! These tests exercise the whole fault-injection stack end to end: the
//! link fault machine and scheduled injector (`netsim`), the log
//! follower's retention and restart, bounded commit waits surfacing
//! `ReplicationTimeout` (`engine`), and the harness's backoff/retry
//! client drivers (`bench`). The assertions are the ones that matter for
//! correctness under faults: money conservation on the replica snapshot
//! (replication never tears a transaction), zero lost commits after
//! recovery, monotone freshness across crash/restart, and deterministic
//! fault schedules per seed.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use hattrick_repro::bench::harness::{BenchmarkConfig, Harness, RetryPolicy};
use hattrick_repro::bench::workload::{run_transaction, TxnKind, WorkloadState};
use hattrick_repro::common::ids::{supplier, TableId};
use hattrick_repro::common::rng::HatRng;
use hattrick_repro::common::telemetry::names;
use hattrick_repro::engine::{
    CommitDurability, InDoubtCause,
    FaultInjector, FaultPlan, FaultPlanConfig, HtapEngine, IsoConfig, IsoEngine, QueryOpts,
    ReplicationMode,
};
use hattrick_repro::query::predicate::Predicate;
use hattrick_repro::query::spec::{AggExpr, QueryId, QuerySpec};

const CHAOS_SEED: u64 = 0xC4A0_5EED;

fn iso_engine(mode: ReplicationMode) -> Arc<IsoEngine> {
    Arc::new(IsoEngine::new(IsoConfig {
        engine: common::fast_engine_config(),
        mode,
        link_one_way: Duration::from_micros(20),
        replay_cost: Duration::from_micros(5),
        commit_timeout: Duration::from_millis(40),
        ..IsoConfig::default()
    }))
}

/// Global sum of a money column, read through the analytical path (i.e.
/// the replica's snapshot).
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

/// The replica-visible freshness entry for `client`.
fn replica_txnnum(engine: &dyn HtapEngine, client: u32) -> u64 {
    let spec = QuerySpec {
        id: QueryId::Q1_1,
        fact: TableId::Supplier,
        fact_filter: Predicate::all(),
        joins: vec![],
        group_by: vec![],
        agg: AggExpr::CountRows,
    };
    let out = engine.query(&spec, &QueryOpts::default()).unwrap();
    out.freshness
        .iter()
        .find(|&&(c, _)| c == client)
        .map(|&(_, txn)| txn)
        .unwrap_or(0)
}

#[test]
fn seeded_fault_schedules_are_deterministic() {
    let cfg = FaultPlanConfig::default();
    let horizon = Duration::from_secs(2);
    let a = FaultPlan::generate(CHAOS_SEED, horizon, &cfg);
    let b = FaultPlan::generate(CHAOS_SEED, horizon, &cfg);
    assert_eq!(a, b, "same seed must replay the same schedule");
    assert!(!a.windows().is_empty(), "a 2s horizon schedules faults");
    let c = FaultPlan::generate(CHAOS_SEED + 1, horizon, &cfg);
    assert_ne!(a, c, "different seeds diverge");
}

#[test]
fn sync_commits_under_partition_fail_fast_as_in_doubt() {
    let data = common::small_data();
    let engine = iso_engine(ReplicationMode::SyncOn);
    data.load_into(engine.as_ref()).unwrap();
    let state = WorkloadState::new(&data.profile);
    let mut rng = HatRng::seeded(CHAOS_SEED);

    engine.link().partition();
    let t0 = Instant::now();
    let receipt = run_transaction(
        engine.as_ref(),
        &data.profile,
        &state,
        &mut rng,
        TxnKind::Payment,
        0,
        1,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(
        receipt.durability,
        CommitDurability::InDoubt(InDoubtCause::Replication),
        "partitioned sync commit surfaces as in-doubt"
    );
    assert!(!receipt.is_acked());
    // Bounded: roughly the configured 40ms commit timeout, never a hang.
    assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
    assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
    assert_eq!(engine.metrics().counter(names::TXN_REPL_TIMEOUTS), 1);
    // The in-doubt commit is durable on the primary: it counts as a commit.
    assert_eq!(engine.metrics().counter(names::TXN_COMMITS), 1);

    // Healed link: the next payment acknowledges within the bound.
    engine.link().heal();
    assert!(run_transaction(
        engine.as_ref(),
        &data.profile,
        &state,
        &mut rng,
        TxnKind::Payment,
        0,
        2,
    )
    .unwrap().is_acked());
    assert_eq!(engine.metrics().counter(names::TXN_COMMITS), 2);
}

#[test]
fn chaos_mix_conserves_money_and_loses_no_commits() {
    let data = common::small_data();
    let engine = iso_engine(ReplicationMode::Async);
    let dynamic: Arc<dyn HtapEngine> = engine.clone();
    data.load_into(dynamic.as_ref()).unwrap();
    let harness = Harness::new(
        dynamic.clone(),
        data.profile.clone(),
        BenchmarkConfig {
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(300),
            seed: CHAOS_SEED,
            reset_between_points: false,
            retry: RetryPolicy::default(),
            ..BenchmarkConfig::default()
        },
    );
    let loaded_hist: i64 = data
        .history
        .iter()
        .map(|r| r[2].as_money().unwrap().cents())
        .sum();

    // A seeded fault schedule over the whole run: partitions and brownouts
    // on the replication link.
    let plan = FaultPlan::generate(
        CHAOS_SEED,
        Duration::from_millis(400),
        &FaultPlanConfig {
            mean_gap: Duration::from_millis(60),
            min_duration: Duration::from_millis(10),
            max_duration: Duration::from_millis(30),
            ..FaultPlanConfig::default()
        },
    );
    let mut injector = FaultInjector::spawn(plan, Arc::clone(engine.link()));

    // Kill and restart the replica mid-run, concurrently with the client
    // load and the link faults.
    let chaos = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            engine.crash_replica();
            std::thread::sleep(Duration::from_millis(80));
            engine.restart_replica().expect("rejoin from retained WAL");
        })
    };

    let m = harness.run_point(4, 1).unwrap();
    chaos.join().unwrap();
    injector.stop();

    assert!(m.committed() > 0, "the mix made progress under chaos");
    for &s in &m.freshness {
        assert!(s.is_finite() && s >= 0.0, "freshness sample {s}");
    }

    // Recovery: heal everything, let the replica drain, and verify nothing
    // was lost or torn.
    if engine.is_replica_down() {
        engine.restart_replica().unwrap();
    }
    engine.quiesce_replication();
    assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0, "backlog fully drained");

    // A sentinel commit after recovery must become visible on the replica:
    // the freshness watermark survived the crash.
    let state = WorkloadState::new(&data.profile);
    let mut rng = HatRng::seeded(CHAOS_SEED ^ 1);
    assert!(run_transaction(
        dynamic.as_ref(),
        &data.profile,
        &state,
        &mut rng,
        TxnKind::Payment,
        7,
        1,
    )
    .unwrap().is_acked());
    engine.quiesce_replication();
    assert_eq!(replica_txnnum(dynamic.as_ref(), 7), 1, "sentinel visible");

    // Money conservation on the replica snapshot: every payment moved
    // S_YTD and H_AMOUNT atomically, so a torn or lost replicated
    // transaction would break this equality.
    let ytd = sum_money(dynamic.as_ref(), TableId::Supplier, supplier::YTD);
    let new_hist = sum_money(dynamic.as_ref(), TableId::History, 2) - loaded_hist;
    assert_eq!(ytd, new_hist, "supplier YTD vs replicated history");
    assert!(ytd > 0, "payments actually moved money");
}

#[test]
fn replica_freshness_is_monotone_across_crash_and_recovery() {
    let data = common::small_data();
    let engine = iso_engine(ReplicationMode::Async);
    data.load_into(engine.as_ref()).unwrap();

    let writer = {
        let engine = Arc::clone(&engine);
        let profile = data.profile.clone();
        let state = WorkloadState::new(&data.profile);
        std::thread::spawn(move || {
            let mut rng = HatRng::seeded(CHAOS_SEED ^ 2);
            for txnnum in 1..=60u64 {
                assert!(run_transaction(
                    engine.as_ref(),
                    &profile,
                    &state,
                    &mut rng,
                    TxnKind::Payment,
                    0,
                    txnnum,
                )
                .unwrap().is_acked());
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // Poll the replica's view of client 0 while the writer runs, crashing
    // and restarting the replica along the way. The observed sequence
    // number must never move backwards.
    let mut last = 0u64;
    for i in 0..90 {
        let seen = replica_txnnum(engine.as_ref(), 0);
        assert!(seen >= last, "freshness went backwards: {seen} < {last}");
        last = seen;
        if i == 25 {
            engine.crash_replica();
        }
        if i == 50 {
            engine.restart_replica().unwrap();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    writer.join().unwrap();
    engine.quiesce_replication();
    assert_eq!(replica_txnnum(engine.as_ref(), 0), 60, "all commits applied");
}
