//! Criterion benchmarks for the transactional path: per-transaction-type
//! latency on every engine design, lock-manager behaviour under
//! contention, and the dual-format merge-threshold ablation.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hat_common::rng::HatRng;
use hat_common::telemetry::names;
use hat_common::TableId;
use hat_engine::{
    DualConfig, DualEngine, EngineConfig, HtapEngine, IsoConfig,
    IsoEngine, LearnerConfig, LearnerEngine, LearnerProfile, QueryOpts, ReplicationMode,
    ShdEngine,
};
use hat_txn::LockManager;
use hattrick::gen::{generate, GeneratedData, ScaleFactor};
use hattrick::workload::{run_transaction, TxnKind, WorkloadState};
use std::hint::black_box;

const BENCH_SF: f64 = 0.003;

/// Engines with zeroed latency knobs so the bench isolates code-path cost
/// (the latency knobs themselves are measured by the figures harness).
fn engines(data: &GeneratedData) -> Vec<(&'static str, Arc<dyn HtapEngine>)> {
    let zero = EngineConfig::default().without_durability();
    let list: Vec<(&'static str, Arc<dyn HtapEngine>)> = vec![
        ("shared", Arc::new(ShdEngine::new(zero.clone()))),
        (
            "isolated",
            Arc::new(IsoEngine::new(IsoConfig {
                engine: zero,
                mode: ReplicationMode::Async,
                link_one_way: Duration::ZERO,
                replay_cost: Duration::ZERO,
                ..IsoConfig::default()
            })),
        ),
        ("dual", Arc::new(DualEngine::new(DualConfig::default()))),
        (
            "learner",
            Arc::new(LearnerEngine::new(LearnerConfig {
                profile: LearnerProfile::SingleNode,
                apply_cost: Duration::ZERO,
                ..LearnerConfig::default()
            })),
        ),
    ];
    for (_, engine) in &list {
        data.load_into(engine.as_ref()).unwrap();
    }
    list
}

/// Per-transaction-type latency on every design.
fn txn_types(c: &mut Criterion) {
    let data = generate(ScaleFactor(BENCH_SF), 0x7A);
    let engines = engines(&data);
    let mut group = c.benchmark_group("txn");
    group.sample_size(30);
    for kind in [TxnKind::NewOrder, TxnKind::Payment, TxnKind::CountOrders] {
        for (name, engine) in &engines {
            let state = WorkloadState::new(&data.profile);
            group.bench_with_input(
                BenchmarkId::new(kind.label(), name),
                &kind,
                |b, &kind| {
                    let mut rng = HatRng::seeded(0xBE);
                    let mut txnnum = 0u64;
                    b.iter(|| {
                        txnnum += 1;
                        loop {
                            match run_transaction(
                                engine.as_ref(),
                                &data.profile,
                                &state,
                                &mut rng,
                                kind,
                                0,
                                txnnum,
                            ) {
                                Ok(ts) => break black_box(ts),
                                Err(e) if e.is_retryable() => continue,
                                Err(e) => panic!("{e}"),
                            }
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

/// Lock manager: uncontended vs contended no-wait acquisition.
fn locks(c: &mut Criterion) {
    let mut group = c.benchmark_group("locks");
    group.sample_size(30);
    let lm = LockManager::new();
    group.bench_function("acquire_release_uncontended", |b| {
        let mut rid = 0u64;
        b.iter(|| {
            rid += 1;
            lm.try_lock((TableId::Customer, rid % 10_000), 1).unwrap();
            lm.unlock((TableId::Customer, rid % 10_000), 1);
        });
    });
    group.bench_function("conflict_detection", |b| {
        lm.try_lock((TableId::Supplier, 1), 42).unwrap();
        b.iter(|| black_box(lm.try_lock((TableId::Supplier, 1), 43).is_err()));
    });
    group.finish();
}

/// Ablation: dual-format merge threshold — how delta size at query time
/// trades against compaction frequency.
fn merge_threshold(c: &mut Criterion) {
    let data = generate(ScaleFactor(BENCH_SF), 0x7A);
    let mut group = c.benchmark_group("merge_threshold");
    group.sample_size(10);
    for threshold in [512usize, 4096, 32_768] {
        let engine = DualEngine::new(DualConfig {
            merge_threshold: threshold,
            merge_interval: Duration::from_millis(1),
            ..DualConfig::default()
        });
        data.load_into(&engine).unwrap();
        // Preload a delta roughly half the threshold deep.
        let state = WorkloadState::new(&data.profile);
        let mut rng = HatRng::seeded(1);
        let mut txnnum = 0;
        while engine.metrics().gauge(names::DELTA_ROWS) < threshold as u64 / 2 {
            txnnum += 1;
            let _ = run_transaction(
                &engine,
                &data.profile,
                &state,
                &mut rng,
                TxnKind::NewOrder,
                0,
                txnnum,
            );
        }
        let spec = hat_query::ssb::query(hat_query::spec::QueryId::Q2_1);
        group.bench_with_input(
            BenchmarkId::new("q21_with_half_full_delta", threshold),
            &threshold,
            |b, _| {
                b.iter(|| black_box(engine.query(&spec, &QueryOpts::default()).unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, txn_types, locks, merge_threshold);
criterion_main!(benches);
