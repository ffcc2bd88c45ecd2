//! Shared helpers for the integration tests.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use std::sync::Arc;
use std::time::Duration;

use hattrick_repro::bench::gen::{generate, GeneratedData, ScaleFactor};
use hattrick_repro::bench::harness::{BenchmarkConfig, Harness};
use hattrick_repro::engine::{
    CowConfig, CowEngine, DualConfig, DualEngine, EngineConfig, HtapEngine, IsoConfig,
    IsoEngine, LearnerConfig, LearnerEngine, LearnerProfile, ReplicationMode, ShdEngine,
};

/// Why the wall-clock frontier-geometry tests are `#[ignore]`d: they
/// assert on saturation-grid shape measured over sub-second windows,
/// which a 2-core host cannot hold steady.
pub const GEOMETRY_SKIP: &str = "wall-clock frontier geometry; see benchmark scorecard";

/// Prints the `skipped: <test>: <reason>` line for an `#[ignore]`d test.
/// Raw stderr bypasses the test harness's output capture, so the line
/// shows under a plain `cargo test -q`; CI checks the exact set of lines.
pub fn report_skip(test: &str, reason: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stderr(), "\nskipped: {test}: {reason}");
}

/// A small but non-trivial dataset (~6k lineorder rows).
pub fn small_data() -> GeneratedData {
    generate(ScaleFactor(0.001), 0xD5)
}

/// Engine constructors for "all four designs" sweeps. Latencies are tuned
/// down so debug-mode tests stay fast.
pub fn all_engines() -> Vec<(&'static str, Arc<dyn HtapEngine>)> {
    vec![
        ("shared", Arc::new(ShdEngine::new(fast_engine_config()))),
        (
            "isolated",
            Arc::new(IsoEngine::new(IsoConfig {
                engine: fast_engine_config(),
                mode: ReplicationMode::RemoteApply,
                link_one_way: Duration::from_micros(20),
                replay_cost: Duration::from_micros(5),
                ..IsoConfig::default()
            })),
        ),
        ("dual", Arc::new(DualEngine::new(DualConfig::default()))),
        (
            "learner",
            Arc::new(LearnerEngine::new(LearnerConfig {
                profile: LearnerProfile::SingleNode,
                apply_cost: Duration::from_micros(5),
                ..LearnerConfig::default()
            })),
        ),
    ]
}

/// All five designs with an explicit MVCC vacuum cadence (`None`
/// disables the background thread). The CoW engine refreshes its
/// analytical snapshot every 5ms so quiesced queries observe the full
/// committed history within a short sleep.
pub fn all_engines_with_vacuum(
    vacuum: Option<Duration>,
) -> Vec<(&'static str, Arc<dyn HtapEngine>)> {
    let cfg = || {
        let mut c = fast_engine_config();
        c.vacuum_interval = vacuum;
        c
    };
    vec![
        ("shared", Arc::new(ShdEngine::new(cfg()))),
        (
            "cow",
            Arc::new(CowEngine::new(CowConfig {
                engine: cfg(),
                snapshot_interval: Duration::from_millis(5),
                ..CowConfig::default()
            })),
        ),
        (
            "isolated",
            Arc::new(IsoEngine::new(IsoConfig {
                engine: cfg(),
                mode: ReplicationMode::RemoteApply,
                link_one_way: Duration::from_micros(20),
                replay_cost: Duration::from_micros(5),
                ..IsoConfig::default()
            })),
        ),
        (
            "dual",
            Arc::new(DualEngine::new(DualConfig {
                vacuum_interval: vacuum,
                ..DualConfig::default()
            })),
        ),
        (
            "learner",
            Arc::new(LearnerEngine::new(LearnerConfig {
                profile: LearnerProfile::SingleNode,
                apply_cost: Duration::from_micros(5),
                vacuum_interval: vacuum,
                ..LearnerConfig::default()
            })),
        ),
    ]
}

/// Engine config with no durability sleep (debug tests).
pub fn fast_engine_config() -> EngineConfig {
    EngineConfig::default().without_durability()
}

/// Open-loop arrival rate at 50% of a `workers`-strong pool's measured
/// capacity when each request also sleeps `pad`. Measured by a short
/// single-client closed loop on a fresh shared engine; call it right
/// before the open-loop run it sizes (inside each [`with_noise_retries`]
/// attempt), so a host that slowed down since an earlier measurement
/// does not turn the "50%" base load into overload.
pub fn base_rate(workers: u32, pad: Duration) -> f64 {
    let data = small_data();
    let engine = ShdEngine::new(EngineConfig::default());
    data.load_into(&engine).unwrap();
    let h = Harness::new(
        Arc::new(engine),
        data.profile.clone(),
        BenchmarkConfig {
            seed: 0xCA11,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(250),
            ..BenchmarkConfig::default()
        },
    );
    let tps = h.run_point(1, 0).unwrap().tps.max(50.0);
    let per_req = 1.0 / tps + pad.as_secs_f64();
    0.5 * f64::from(workers) / per_req
}

/// Runs a timing-sensitive experiment up to three times. These tests
/// assert capacity *ratios* over wall-clock windows, and a CPU-steal
/// spike on a shared runner can smear any single window; a real
/// regression fails all three attempts.
pub fn with_noise_retries(f: impl Fn()) {
    for attempt in 0..3 {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f)) {
            Ok(()) => return,
            Err(payload) => {
                if attempt == 2 {
                    std::panic::resume_unwind(payload);
                }
                eprintln!("timing-sensitive attempt {attempt} failed; retrying");
            }
        }
    }
}

/// Loads `data` into `engine` and wraps it in a fast harness.
pub fn fast_harness(engine: Arc<dyn HtapEngine>, data: &GeneratedData) -> Harness {
    data.load_into(engine.as_ref()).expect("load");
    Harness::new(
        engine,
        data.profile.clone(),
        BenchmarkConfig {
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(100),
            seed: 42,
            reset_between_points: true,
            ..Default::default()
        },
    )
}
