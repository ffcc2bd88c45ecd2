//! Durability modes and what they cost: the same shared engine run with
//! durability `Off`, modelled group commit (`Sleep`, the benchmark
//! baseline), and a real on-disk WAL with fsync group commit (`Fsync`).
//!
//! The interesting output is not just the throughput spread but the
//! group-commit batch sizes: under concurrent T-clients one fsync (or one
//! modelled latency window) covers many commits, so the per-commit cost
//! of durability shrinks as pressure grows — the classic group-commit
//! effect the `Sleep` default imitates.
//!
//! Run with: `cargo run --release --example durability`

use std::sync::Arc;
use std::time::Duration;

use hattrick_repro::bench::gen::{generate, ScaleFactor};
use hattrick_repro::bench::harness::{BenchmarkConfig, Harness, PointMeasurement};
use hattrick_repro::bench::report;
use hattrick_repro::engine::{
    DurabilityMode, EngineConfig, HtapEngine, ShdEngine, WalConfig,
};

fn run_mode(mode: DurabilityMode, t: u32, a: u32) -> PointMeasurement {
    let data = generate(ScaleFactor(0.01), 5);
    let engine: Arc<dyn HtapEngine> =
        Arc::new(ShdEngine::new(EngineConfig::builder().durability(mode).build()));
    data.load_into(engine.as_ref()).expect("load");
    let harness = Harness::new(
        engine,
        data.profile.clone(),
        BenchmarkConfig {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(900),
            seed: 17,
            reset_between_points: true,
            ..Default::default()
        },
    );
    harness.run_point(t, a).unwrap()
}

fn main() {
    let wal_dir = std::env::temp_dir().join(format!("hat-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let modes: [(&str, DurabilityMode); 3] = [
        ("off", DurabilityMode::Off),
        (
            "sleep (default)",
            DurabilityMode::Sleep(EngineConfig::DEFAULT_COMMIT_LATENCY),
        ),
        ("fsync", DurabilityMode::Fsync(WalConfig::new(&wal_dir))),
    ];

    println!("shared engine, 8 T-clients : 2 A-clients, SF 0.01\n");
    let mut baseline_tps = 0.0;
    for (label, mode) in modes {
        let m = run_mode(mode, 8, 2);
        if label == "off" {
            baseline_tps = m.tps;
        }
        let relative = if baseline_tps > 0.0 { m.tps / baseline_tps } else { 1.0 };
        println!(
            "durability {label:<16} tps={:>8.0} ({:>5.1}% of off)  qps={:>6.1}",
            m.tps,
            relative * 100.0,
            m.qps
        );
        match report::durability_line(&m.metrics_end) {
            Some(line) => println!("  {}", line.trim_start()),
            None => println!("  durability: none (commits acknowledged immediately)"),
        }
        println!();
    }

    let wal_bytes: u64 = std::fs::read_dir(&wal_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    println!(
        "fsync WAL left {} bytes of segments + checkpoints in {}",
        wal_bytes,
        wal_dir.display()
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}
