//! Harness operating modes: continuation (no reset between points),
//! repeat-averaging, and no-wait locking end-to-end under contention.

mod common;

use std::sync::Arc;
use std::time::Duration;

use hattrick_repro::bench::freshness::FreshnessAgg;
use hattrick_repro::bench::gen::{generate, ScaleFactor};
use hattrick_repro::bench::harness::{BenchmarkConfig, Harness};
use hattrick_repro::common::telemetry::names;
use hattrick_repro::engine::{DurabilityMode, EngineConfig, HtapEngine, QueryOpts, ShdEngine};

fn no_reset_harness() -> Harness {
    let data = common::small_data();
    let (_, engine) = common::all_engines().remove(0);
    data.load_into(engine.as_ref()).unwrap();
    Harness::new(
        engine,
        data.profile.clone(),
        BenchmarkConfig {
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(100),
            seed: 77,
            reset_between_points: false,
            ..Default::default()
        },
    )
}

#[test]
fn continuation_mode_keeps_data_growing_and_scores_sanely() {
    let h = no_reset_harness();
    let a = h.run_point(2, 1).unwrap();
    let b = h.run_point(2, 1).unwrap();
    assert!(a.committed() > 0 && b.committed() > 0);
    // Without reset the fact table keeps the first point's inserts; the
    // engine stats accumulate across points.
    let stats = h.engine().metrics();
    assert!(stats.counter(names::TXN_COMMITS) >= a.committed() + b.committed());
    // Freshness scoring must remain non-negative and finite even though
    // the second point's registry starts past the first point's txnnums.
    for s in a.freshness.iter().chain(&b.freshness) {
        assert!(s.is_finite() && *s >= 0.0);
    }
    let agg = FreshnessAgg::from_samples(&b.freshness);
    assert!(agg.p99 < 1.0, "shared engine remains fresh in continuation mode");
}

#[test]
fn repeat_averaging_accumulates_counters() {
    let h = no_reset_harness();
    let m = h.run_point_avg(1, 1, 3).unwrap();
    assert!(m.tps > 0.0);
    assert!(m.committed() > 0);
    assert_eq!(m.freshness.len() as u64, m.queries(), "all samples kept");
    assert!(m.measured_secs > 0.25, "three measurement windows summed");
}

#[test]
fn no_wait_engine_completes_contended_workload() {
    use hattrick_repro::bench::workload::{run_transaction, TxnKind, WorkloadState};
    use hattrick_repro::common::rng::HatRng;

    // Tiny key domain under 4 writers: no-wait must finish every payment
    // (possibly with conflict retries) and conserve money.
    let data = generate(ScaleFactor(0.0006), 3);
    let engine = Arc::new(ShdEngine::new(
        EngineConfig::builder().durability(DurabilityMode::Off).build(),
    ));
    data.load_into(engine.as_ref()).unwrap();
    let state = WorkloadState::new(&data.profile);
    std::thread::scope(|scope| {
        for client in 0..4u32 {
            let engine = Arc::clone(&engine);
            let data = &data;
            let state = &state;
            scope.spawn(move || {
                let mut rng = HatRng::derive(55, client as u64);
                for txnnum in 1..=40 {
                    loop {
                        match run_transaction(
                            engine.as_ref(),
                            &data.profile,
                            state,
                            &mut rng,
                            TxnKind::Payment,
                            client,
                            txnnum,
                        ) {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            });
        }
    });
    assert_eq!(engine.metrics().counter(names::TXN_COMMITS), 160);
    // Conservation through the analytical path.
    use hattrick_repro::common::ids::{supplier, TableId};
    use hattrick_repro::query::predicate::Predicate;
    use hattrick_repro::query::spec::{AggExpr, QueryId, QuerySpec};
    let ytd = engine
        .query(&QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::Supplier,
            fact_filter: Predicate::all(),
            joins: vec![],
            group_by: vec![],
            agg: AggExpr::SumMoney(supplier::YTD),
        }, &QueryOpts::default())
        .unwrap()
        .groups[0]
        .agg;
    assert!(ytd > 0, "payments moved money");
}
