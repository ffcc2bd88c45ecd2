//! `hatcli` — command-line driver for the HATtrick benchmark.
//!
//! ```text
//! hatcli engines
//! hatcli point    --engine shared --sf 0.01 -t 4 -a 2 [--repeats 3]
//!                 [--metrics-out run.json]
//! hatcli point    --engine shared --sf 0.01 --arrival-rate 3000
//!                 [--arrival-shape poisson|bursty|step] [--deadline-ms 20]
//!                 [--workers 4] [--ticks 100] [--tick-ms 5]
//!                 [--retry-budget 100]     # open-loop overload run
//! hatcli point    --engine shared --sf 0.01 --arrival-rate 3000
//!                 --sched elastic [--budget 4] [--dwell 5]
//!                 [--t-floor 1] [--high-backlog 8] [--low-backlog 2]
//!                 [--overlay-out traj.svg]  # per-tick trajectory figure
//! hatcli frontier --engine learner-dist --sf 0.01 [--quick]
//!                 [--metrics-out run.json]
//! hatcli compare  --sf 0.02
//! hatcli artifact run.json          # validate + summarize an artifact
//! ```
//!
//! Engine names: `shared`, `shared-rc`, `shared-semi`, `shared-noidx`,
//! `isolated-on`, `isolated-ra`, `isolated-async`, `dual`, `learner`,
//! `learner-dist`, `cow`.

use std::sync::Arc;
use std::time::Duration;

use hat_engine::{
    CowConfig, CowEngine, DiskFaultPlan, DualConfig, DualEngine, DurabilityMode,
    EngineConfig, HtapEngine, IndexProfile, IsoConfig, IsoEngine, LearnerConfig,
    LearnerEngine, LearnerProfile, QueryOpts, ReplicationMode, ShdEngine, WalConfig,
};
use hat_common::telemetry::names;
use hat_txn::IsolationLevel;
use hattrick::artifact::{RunArtifact, RunConfig};
use hattrick::freshness::FreshnessAgg;
use hattrick::frontier::{build_grid, Frontier, SaturationConfig};
use hattrick::gen::{generate, ScaleFactor};
use hattrick::harness::{
    BenchmarkConfig, Harness, PointMeasurement, RetryBudgetConfig, SamplePhase,
};
use hattrick::openloop::{ArrivalShape, OpenLoopConfig};
use hattrick::report;
use hattrick::sched::{SchedPolicy, SchedTarget};
use hattrick::TxnMix;

const ENGINES: [&str; 11] = [
    "shared",
    "shared-rc",
    "shared-semi",
    "shared-noidx",
    "isolated-on",
    "isolated-ra",
    "isolated-async",
    "dual",
    "learner",
    "learner-dist",
    "cow",
];

fn build_engine(
    name: &str,
    durability: &DurabilityMode,
    vacuum: Option<Duration>,
) -> Option<Arc<dyn HtapEngine>> {
    let shd = |iso, idx| -> Arc<dyn HtapEngine> {
        let mut cfg = EngineConfig::builder()
            .isolation(iso)
            .indexes(idx)
            .durability(durability.clone())
            .build();
        cfg.vacuum_interval = vacuum;
        Arc::new(ShdEngine::new(cfg))
    };
    let iso = |mode| -> Arc<dyn HtapEngine> {
        let mut cfg = IsoConfig { mode, ..IsoConfig::coalesced_default() };
        cfg.engine.vacuum_interval = vacuum;
        Arc::new(IsoEngine::new(cfg))
    };
    Some(match name {
        "shared" => shd(IsolationLevel::Serializable, IndexProfile::All),
        "shared-rc" => shd(IsolationLevel::ReadCommitted, IndexProfile::All),
        "shared-semi" => shd(IsolationLevel::Serializable, IndexProfile::Semi),
        "shared-noidx" => shd(IsolationLevel::Serializable, IndexProfile::None),
        "isolated-on" => iso(ReplicationMode::SyncOn),
        "isolated-ra" => iso(ReplicationMode::RemoteApply),
        "isolated-async" => iso(ReplicationMode::Async),
        "dual" => Arc::new(DualEngine::new(DualConfig {
            vacuum_interval: vacuum,
            ..DualConfig::default()
        })),
        "learner" => Arc::new(LearnerEngine::new(LearnerConfig {
            vacuum_interval: vacuum,
            ..LearnerConfig::default()
        })),
        "learner-dist" => Arc::new(LearnerEngine::new(LearnerConfig {
            profile: LearnerProfile::Distributed,
            vacuum_interval: vacuum,
            ..LearnerConfig::default()
        })),
        "cow" => {
            let mut cfg = CowConfig::default();
            cfg.engine.vacuum_interval = vacuum;
            Arc::new(CowEngine::new(cfg))
        }
        _ => return None,
    })
}

/// Flags of the engine-running subcommands that pick the engine and its
/// data.
const ENGINE_FLAGS: &[&str] = &["engine", "e", "sf", "seed", "metrics-out"];
/// Flags read by [`make_harness`] (so by `point`, `frontier`, `compare`).
const HARNESS_FLAGS: &[&str] = &[
    "mix", "retry-budget", "max-attempts", "warmup-ms", "measure-ms", "a-threads",
    "vacuum-interval-ms", "no-vacuum",
];
/// Flags read by [`parse_durability`].
const DURABILITY_FLAGS: &[&str] = &["durability", "wal-dir", "disk-faults", "max-commit-backlog"];
/// Flags of `point` alone: the closed-loop point, the open-loop run, and
/// the core scheduler.
const POINT_FLAGS: &[&str] = &[
    "t", "a", "repeats", "r", "arrival-rate", "arrival-shape", "burst-period", "burst-depth",
    "burst-mult", "burst-from", "burst-until", "deadline-ms", "workers", "queue-cap", "ticks",
    "tick-ms", "service-pad-us", "sched", "budget", "t-floor", "dwell", "high-backlog",
    "low-backlog", "t-cores", "overlay-out",
];
/// Flags of `frontier` alone.
const FRONTIER_FLAGS: &[&str] = &["quick", "out", "o"];

/// Every flag `cmd` reads; `None` for subcommands that take none.
fn accepted_flags(cmd: &str) -> Option<Vec<&'static str>> {
    Some(match cmd {
        "point" => [ENGINE_FLAGS, HARNESS_FLAGS, DURABILITY_FLAGS, POINT_FLAGS].concat(),
        "frontier" => [ENGINE_FLAGS, HARNESS_FLAGS, DURABILITY_FLAGS, FRONTIER_FLAGS].concat(),
        "compare" => [HARNESS_FLAGS, &["sf", "quick"]].concat(),
        _ => return None,
    })
}

/// Minimal flag parser: `--key value` and `-k value` pairs; a word that is
/// neither a flag nor a flag's value is positional.
struct Args {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if !argv[i].starts_with('-') {
                positional.push(argv[i].clone());
                i += 1;
                continue;
            }
            let key = argv[i].trim_start_matches('-').to_string();
            // A following flag is not this key's value: `--no-vacuum
            // --metrics-out run.json` must leave `--metrics-out` intact.
            if i + 1 < argv.len() && !argv[i + 1].starts_with('-') {
                pairs.push((key, argv[i + 1].clone()));
                i += 2;
            } else {
                pairs.push((key, String::new()));
                i += 1;
            }
        }
        Args { pairs, positional }
    }

    /// The first flag not in `accepted`, or the first positional word
    /// (flag subcommands take none), as written on the command line.
    fn unknown(&self, accepted: &[&str]) -> Option<String> {
        self.pairs
            .iter()
            .find(|(k, _)| !accepted.contains(&k.as_str()))
            .map(|(k, _)| flag(k))
            .or_else(|| self.positional.first().cloned())
    }

    fn get(&self, names: &[&str]) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| names.contains(&k.as_str()))
            .map(|(_, v)| v.as_str())
    }

    /// The parsed value of the first of `names` given, or `default` when
    /// none is. A malformed value is an error naming the flag, never the
    /// default in disguise.
    fn value<T: std::str::FromStr>(&self, names: &[&str], default: T) -> Result<T, String> {
        match self.pairs.iter().find(|(k, _)| names.contains(&k.as_str())) {
            None => Ok(default),
            Some((k, v)) => v.parse().map_err(|_| format!("bad value {v:?} for {}", flag(k))),
        }
    }

    /// [`Args::value`], printing usage and exiting 2 on a malformed value
    /// (as an unknown flag does).
    fn num<T: std::str::FromStr>(&self, names: &[&str], default: T) -> T {
        self.value(names, default).unwrap_or_else(|bad| {
            eprintln!("{bad}\n{USAGE}");
            std::process::exit(2)
        })
    }

    fn f64(&self, names: &[&str], default: f64) -> f64 {
        self.num(names, default)
    }

    fn u32(&self, names: &[&str], default: u32) -> u32 {
        self.num(names, default)
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == name)
    }
}

/// A flag key as written on the command line.
fn flag(key: &str) -> String {
    format!("{}{key}", if key.len() == 1 { "-" } else { "--" })
}

/// Parses `--durability off|sleep|fsync` (default: sleep, the benchmark
/// baseline). `fsync` opens a real WAL in `--wal-dir` or a fresh temp
/// directory; it applies to the engines built directly from an
/// [`EngineConfig`] (the shared family) — the other designs price
/// durability inside their own replication/consensus waits.
///
/// Two chaos knobs ride along and require `--durability fsync`:
/// `--disk-faults <seed>` arms a seeded [`DiskFaultPlan`] against the WAL
/// (EIO, fsync failures, ENOSPC windows, write stalls; the first failed
/// write or fsync stops the WAL's writes until the directory is
/// reopened), and `--max-commit-backlog <frames>` bounds the group-commit
/// queue so a slow device sheds commits instead of buffering without
/// limit.
fn parse_durability(args: &Args) -> Option<DurabilityMode> {
    Some(match args.get(&["durability"]) {
        None | Some("sleep") | Some("off") => {
            if args.has("disk-faults") || args.has("max-commit-backlog") {
                eprintln!(
                    "--disk-faults / --max-commit-backlog need a real WAL; \
                     add --durability fsync"
                );
                return None;
            }
            if matches!(args.get(&["durability"]), Some("off")) {
                DurabilityMode::Off
            } else {
                DurabilityMode::Sleep(EngineConfig::DEFAULT_COMMIT_LATENCY)
            }
        }
        Some("fsync") => {
            let dir = match args.get(&["wal-dir"]) {
                Some(d) => std::path::PathBuf::from(d),
                None => std::env::temp_dir()
                    .join(format!("hatcli-wal-{}", std::process::id())),
            };
            eprintln!("durability: fsync WAL in {}", dir.display());
            let mut config = WalConfig::new(dir);
            if args.has("disk-faults") {
                let seed = args.num(&["disk-faults"], 0u64);
                eprintln!("disk chaos: fault plan seeded with {seed}");
                config.fault_plan = DiskFaultPlan::seeded(seed);
            }
            config.max_backlog = args.num(&["max-commit-backlog"], config.max_backlog);
            DurabilityMode::Fsync(config)
        }
        Some(other) => {
            eprintln!("unknown --durability {other}; use off|sleep|fsync");
            return None;
        }
    })
}

/// Parses `--vacuum-interval-ms <ms>` / `--no-vacuum` into the interval
/// every engine's background version-chain vacuum runs at. The default
/// matches [`EngineConfig::DEFAULT_VACUUM_INTERVAL`]; `--no-vacuum`
/// disables the thread entirely (version chains then grow for the whole
/// run — the baseline a memory-plateau comparison needs).
fn parse_vacuum(args: &Args) -> Option<Duration> {
    if args.has("no-vacuum") {
        return None;
    }
    let default_ms = EngineConfig::DEFAULT_VACUUM_INTERVAL.as_millis() as u64;
    Some(Duration::from_millis(args.num(&["vacuum-interval-ms"], default_ms)))
}

fn make_harness(
    engine_name: &str,
    sf: f64,
    seed: u64,
    durability: &DurabilityMode,
    args: &Args,
) -> Option<Harness> {
    // `--mix n,p,c`: New Order / Payment / Count Orders weights
    // (default 48,48,4 per §5.3). `--mix 0,96,4` gives an update-only
    // write path — the mix the memory-plateau smoke uses.
    let mix = match args.get(&["mix"]) {
        None => TxnMix::default(),
        Some(spec) => {
            let w: Vec<u32> =
                spec.split(',').filter_map(|s| s.trim().parse().ok()).collect();
            if w.len() != 3 || w.iter().sum::<u32>() == 0 {
                eprintln!("bad --mix {spec}; expected three weights like 48,48,4");
                return None;
            }
            TxnMix { new_order: w[0], payment: w[1], count_orders: w[2] }
        }
    };
    let engine = build_engine(engine_name, durability, parse_vacuum(args))?;
    let data = generate(ScaleFactor(sf), seed);
    // A `--wal-dir` that already holds a database comes back through
    // recovery; loading on top of it would duplicate every table.
    let recovered = engine.metrics().gauge(names::LIVE_VERSIONS);
    if recovered > 0 {
        eprintln!(
            "{}: recovered {recovered} live row versions from the WAL directory; not loading",
            engine.name()
        );
        engine.finish_load().expect("finish_load failed");
    } else {
        eprintln!("loading {} at SF {sf} ...", engine.name());
        data.load_into(engine.as_ref()).expect("load failed");
    }
    // `--retry-budget <cap>` arms the shared retry budget (tokens; refill
    // ratio stays at the default 0.1 per in-deadline success). The budget
    // is what turns a metastable retry storm into accounted give-ups;
    // leaving it off is the control arm of the overload experiments.
    let mut retry = hattrick::harness::RetryPolicy::default();
    if args.has("retry-budget") {
        let cap = args.u32(&["retry-budget"], 0);
        retry.budget = Some(RetryBudgetConfig { cap, ..RetryBudgetConfig::default() });
    }
    retry.max_attempts = args.u32(&["max-attempts"], retry.max_attempts);
    Some(Harness::new(
        engine,
        data.profile.clone(),
        BenchmarkConfig {
            warmup: Duration::from_millis(args.u32(&["warmup-ms"], 200) as u64),
            measure: Duration::from_millis(args.u32(&["measure-ms"], 600) as u64),
            seed,
            reset_between_points: true,
            retry,
            // `--a-threads <n>` pins the morsel parallelism; without it
            // every analytical query sizes its pool to the machine
            // (clamped — see `QueryOpts::default_parallelism`).
            query_opts: QueryOpts::with_parallelism(
                args.u32(&["a-threads"], QueryOpts::default_parallelism() as u32)
                    as usize,
            ),
            ..Default::default()
        },
    )
    .with_mix(mix))
}

/// Parses `--arrival-shape poisson|bursty|step` with its shape knobs
/// (`--burst-period`/`--burst-depth` for bursty, `--burst-mult`/
/// `--burst-from`/`--burst-until` for step).
fn parse_arrival_shape(args: &Args) -> Option<ArrivalShape> {
    match args.get(&["arrival-shape"]).unwrap_or("poisson") {
        "poisson" => Some(ArrivalShape::Poisson),
        "bursty" => Some(ArrivalShape::Bursty {
            period_ticks: args.u32(&["burst-period"], 40),
            depth: args.f64(&["burst-depth"], 0.5),
        }),
        "step" => Some(ArrivalShape::Step {
            mult: args.f64(&["burst-mult"], 10.0),
            from_tick: args.u32(&["burst-from"], 30),
            until_tick: args.u32(&["burst-until"], 50),
        }),
        other => {
            eprintln!("unknown --arrival-shape {other}; try poisson|bursty|step");
            None
        }
    }
}

/// Parses `--sched static|elastic` with the elastic knobs: `--budget`
/// (total cores under the controller), `--dwell` (calm ticks before a
/// give-back), and the per-core backlog watermarks `--high-backlog` /
/// `--low-backlog`. Defaults match [`SchedTarget::default`].
fn parse_sched(args: &Args) -> Option<SchedPolicy> {
    match args.get(&["sched"]).unwrap_or("static") {
        "static" => Some(SchedPolicy::Static),
        "elastic" => {
            let d = SchedTarget::default();
            let target = SchedTarget {
                budget: args.u32(&["budget"], d.budget),
                t_floor: args.u32(&["t-floor"], d.t_floor),
                dwell_ticks: args.u32(&["dwell"], d.dwell_ticks),
                high_backlog_per_core: args
                    .u32(&["high-backlog"], d.high_backlog_per_core as u32)
                    as u64,
                low_backlog_per_core: args
                    .u32(&["low-backlog"], d.low_backlog_per_core as u32)
                    as u64,
            };
            Some(SchedPolicy::Elastic { target })
        }
        "pinned" => {
            let budget = args.u32(&["budget"], SchedTarget::default().budget);
            Some(SchedPolicy::Pinned {
                budget,
                t_cores: args.u32(&["t-cores"], budget / 2),
            })
        }
        other => {
            eprintln!("unknown --sched {other}; try static|elastic|pinned");
            None
        }
    }
}

/// Runs `hatcli point` in open-loop mode (`--arrival-rate` present):
/// offered load comes from a seeded arrival schedule instead of τ
/// waiting clients, and the report leads with goodput and shed-by-cause.
fn cmd_open_loop(args: &Args, engine: &str, sf: f64, harness: &Harness) -> i32 {
    let Some(shape) = parse_arrival_shape(args) else { return 2 };
    let Some(policy) = parse_sched(args) else { return 2 };
    let ol = OpenLoopConfig {
        arrival_rate: args.f64(&["arrival-rate"], 2000.0),
        shape,
        deadline: Duration::from_millis(args.u32(&["deadline-ms"], 20) as u64),
        workers: args.u32(&["workers"], 4),
        queue_cap: args.u32(&["queue-cap"], 4096),
        ticks: args.u32(&["ticks"], 100),
        tick: Duration::from_millis(args.u32(&["tick-ms"], 5) as u64),
        service_pad: Duration::from_micros(
            args.u32(&["service-pad-us"], 0) as u64
        ),
    };
    let m = match harness.run_open_loop_sched(&ol, &policy) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: invalid open-loop configuration: {e}");
            return 2;
        }
    };
    let capacity = match &policy {
        SchedPolicy::Static => format!("{} workers", ol.workers),
        SchedPolicy::Elastic { target } => {
            format!("elastic budget {} cores", target.budget)
        }
        SchedPolicy::Pinned { .. } => {
            let (t, a) = policy.pinned_split().expect("pinned");
            format!("pinned split {t}t/{a}a")
        }
    };
    println!(
        "== {engine} @ SF {sf}, open-loop {:.0}/s {} x {} ticks of {}ms, \
         deadline {}ms, {capacity} ==",
        ol.arrival_rate,
        ol.shape.label(),
        ol.ticks,
        ol.tick.as_millis(),
        ol.deadline.as_millis(),
    );
    println!(
        "offered={} goodput={} ({:.1}%) completed={} late={} shed_overload={} \
         shed_degraded={} retries={} denied={} gave_up={}",
        m.offered(),
        m.goodput(),
        100.0 * m.goodput_ratio(),
        m.completed(),
        m.deadline_missed(),
        m.shed_overload(),
        m.shed_degraded(),
        m.retries(),
        m.retry_denied(),
        m.gave_up()
    );
    if let Some(line) = report::overload_line(&m.point.metrics) {
        println!("{}", line.trim_start());
    }
    if let Some(line) = report::sched_line(&m.point.metrics) {
        println!("{}", line.trim_start());
        println!("a_queries={} qps={:.2}", m.a_queries(), m.point.qps);
    }
    if let Some(line) = report::degradation_line(&m.point.metrics_end) {
        println!("{}", line.trim_start());
    }
    if let Some(path) = args.get(&["overlay-out"]) {
        // Per-tick (goodput tps, analytical qps) trajectory; a sched run
        // traces how the controller walks the throughput plane.
        let traj: Vec<(f64, f64)> = m
            .point
            .timeseries
            .iter()
            .filter(|s| s.phase == SamplePhase::Measure)
            .map(|s| {
                let rate = |name| s.metrics.counter(name) as f64 / s.tick_secs;
                (rate(names::OPENLOOP_GOODPUT), rate(names::HARNESS_QUERIES))
            })
            .collect();
        let svg = hattrick::svg::frontier_overlay_svg(
            &format!("{engine} — per-tick trajectory ({capacity})"),
            &[],
            "per-tick",
            &traj,
        );
        std::fs::write(path, svg).expect("write overlay svg");
        println!("wrote {path}");
    }
    if let Some(path) = args.get(&["metrics-out"]) {
        let mut artifact = RunArtifact::new(run_config(engine, sf, 1, harness));
        artifact.push_point(m.point);
        return write_artifact(path, &artifact);
    }
    0
}

fn print_point(m: &PointMeasurement) {
    println!(
        "tps={:.1} qps={:.2} (commits={} queries={} aborts={})",
        m.tps,
        m.qps,
        m.committed(),
        m.queries(),
        m.aborts()
    );
    println!("{}", report::resilience_line(&m.metrics).trim_start());
    if let Some(line) = report::durability_line(&m.metrics_end) {
        println!("{}", line.trim_start());
    }
    if let Some(line) = report::degradation_line(&m.metrics_end) {
        println!("{}", line.trim_start());
    }
    if let Some(line) = report::analytics_line(&m.metrics_end) {
        println!("{}", line.trim_start());
    }
    if let Some(line) = report::scan_line(&m.metrics_end) {
        println!("{}", line.trim_start());
    }
    if let Some(line) = report::vacuum_line(&m.metrics_end) {
        println!("{}", line.trim_start());
    }
    let agg = FreshnessAgg::from_samples(&m.freshness);
    if agg.count > 0 {
        println!(
            "freshness: mean={:.4}s p99={:.4}s max={:.4}s fresh={:.0}%",
            agg.mean,
            agg.p99,
            agg.max,
            agg.zero_fraction * 100.0
        );
    }
    let txn_latency = m.txn_latency();
    if !txn_latency.is_empty() {
        println!("transaction latency (ms):");
        for (label, s) in &txn_latency {
            println!(
                "  {label:<14} n={:<7} mean={:.3} p95={:.3} max={:.3}",
                s.count, s.mean_ms, s.p95_ms, s.max_ms
            );
        }
    }
    let query_latency = m.query_latency();
    if !query_latency.is_empty() {
        println!("query latency (ms):");
        for (label, s) in &query_latency {
            println!(
                "  {label:<6} n={:<5} mean={:.2} p95={:.2} max={:.2}",
                s.count, s.mean_ms, s.p95_ms, s.max_ms
            );
        }
    }
}

/// The artifact header for a run this process is about to execute.
fn run_config(engine: &str, sf: f64, repeats: u32, harness: &Harness) -> RunConfig {
    let cfg = harness.config();
    RunConfig {
        engine: engine.to_string(),
        scale_factor: sf,
        seed: cfg.seed,
        warmup_secs: cfg.warmup.as_secs_f64(),
        measure_secs: cfg.measure.as_secs_f64(),
        repeats,
    }
}

/// Validates and writes the artifact where `--metrics-out` points.
fn write_artifact(path: &str, artifact: &RunArtifact) -> i32 {
    if let Err(e) = artifact.validate() {
        eprintln!("error: metrics artifact failed validation: {e}");
        return 1;
    }
    artifact
        .write_to(std::path::Path::new(path))
        .expect("write metrics artifact");
    println!("wrote metrics artifact {path}");
    0
}

fn cmd_point(args: &Args) -> i32 {
    let engine = args.get(&["engine", "e"]).unwrap_or("shared").to_string();
    let sf = args.f64(&["sf"], 0.01);
    let t = args.u32(&["t"], 4);
    let a = args.u32(&["a"], 2);
    let repeats = args.u32(&["repeats", "r"], 1);
    let Some(durability) = parse_durability(args) else { return 2 };
    let Some(harness) =
        make_harness(&engine, sf, args.u32(&["seed"], 7) as u64, &durability, args)
    else {
        eprintln!("unknown engine {engine}; try `hatcli engines`");
        return 2;
    };
    if args.get(&["arrival-rate"]).is_some() {
        return cmd_open_loop(args, &engine, sf, &harness);
    }
    let m = match harness.run_point_avg(t, a, repeats) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: invalid point configuration: {e}");
            return 2;
        }
    };
    println!("== {} @ SF {sf}, T:A = {t}:{a}, {repeats} repeat(s) ==", engine);
    print_point(&m);
    if let Some(path) = args.get(&["metrics-out"]) {
        let mut artifact = RunArtifact::new(run_config(&engine, sf, repeats, &harness));
        artifact.push_point(m);
        return write_artifact(path, &artifact);
    }
    0
}

fn cmd_frontier(args: &Args) -> i32 {
    let engine = args.get(&["engine", "e"]).unwrap_or("shared").to_string();
    let sf = args.f64(&["sf"], 0.01);
    let Some(durability) = parse_durability(args) else { return 2 };
    let seed = args.u32(&["seed"], 7) as u64;
    let cfg = if args.has("quick") {
        SaturationConfig::quick()
    } else {
        SaturationConfig::default()
    };
    let Some(harness) = make_harness(&engine, sf, seed, &durability, args) else {
        eprintln!("unknown engine {engine}; try `hatcli engines`");
        return 2;
    };
    let grid = build_grid(&harness, &cfg);
    let frontier = Frontier::from_grid(&grid);
    println!("{}", report::frontier_ascii(&engine, &frontier));
    let all_fresh: Vec<f64> = grid
        .measurements
        .iter()
        .flat_map(|m| m.freshness.iter().copied())
        .collect();
    println!(
        "{}",
        report::summary(&engine, &frontier, &FreshnessAgg::from_samples(&all_fresh))
    );
    let (t_ret, a_ret) = grid.workload_retention();
    println!("workload retention: T={t_ret:.2} A={a_ret:.2} (1.0 = unaffected by the other side)");
    if let Some(out) = args.get(&["out", "o"]) {
        std::fs::write(out, hattrick::svg::frontier_svg(&engine, &[(&engine, &frontier)]))
            .expect("write svg");
        println!("wrote {out}");
    }
    if let Some(path) = args.get(&["metrics-out"]) {
        let mut artifact = RunArtifact::new(run_config(&engine, sf, 1, &harness));
        for m in &grid.measurements {
            artifact.push_point(m.clone());
        }
        return write_artifact(path, &artifact);
    }
    0
}

/// Parses, validates, and summarizes a previously written run artifact.
fn cmd_artifact(path: Option<&str>) -> i32 {
    let Some(path) = path else {
        eprintln!("usage: hatcli artifact <run.json>");
        return 2;
    };
    let artifact = match RunArtifact::read_from(std::path::Path::new(path)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Err(e) = artifact.validate() {
        eprintln!("error: invalid artifact: {e}");
        return 1;
    }
    let c = &artifact.config;
    println!(
        "artifact schema v{}: {} @ SF {} ({} point(s))",
        artifact.schema_version,
        c.engine,
        c.scale_factor,
        artifact.points.len()
    );
    for m in &artifact.points {
        let samples: Vec<_> =
            m.timeseries.iter().filter(|s| s.phase == SamplePhase::Measure).collect();
        println!(
            "  T:A={}:{} tps={:.1} qps={:.2} commits={} queries={} \
             ({} measurement samples of {} ms)",
            m.t_clients,
            m.a_clients,
            m.tps,
            m.qps,
            m.committed(),
            m.queries(),
            samples.len(),
            samples.first().map_or(0.0, |s| s.tick_secs * 1e3)
        );
    }
    0
}

fn cmd_compare(args: &Args) -> i32 {
    let sf = args.f64(&["sf"], 0.01);
    let cfg = if args.has("quick") {
        SaturationConfig::quick()
    } else {
        SaturationConfig::default()
    };
    let names = ["shared", "isolated-on", "dual", "learner"];
    let mut results: Vec<(String, Frontier, FreshnessAgg)> = Vec::new();
    for name in names {
        let durability = DurabilityMode::Sleep(EngineConfig::DEFAULT_COMMIT_LATENCY);
        let harness = make_harness(name, sf, 7, &durability, args).expect("builtin engine");
        let grid = build_grid(&harness, &cfg);
        let frontier = Frontier::from_grid(&grid);
        let fresh: Vec<f64> = grid
            .measurements
            .iter()
            .flat_map(|m| m.freshness.iter().copied())
            .collect();
        results.push((name.to_string(), frontier, FreshnessAgg::from_samples(&fresh)));
    }
    println!("== comparison @ SF {sf} ==");
    for (name, frontier, fresh) in &results {
        println!("{}", report::summary(name, frontier, fresh));
    }
    // §6.6 rule: A beats B if its frontier envelops B's with freshness no
    // worse.
    for (a_name, a_frontier, a_fresh) in &results {
        for (b_name, b_frontier, b_fresh) in &results {
            if a_name != b_name
                && a_frontier.envelops(b_frontier, 40)
                && a_fresh.p99 <= b_fresh.p99 + 1e-9
            {
                println!("{a_name} is better than {b_name} (envelops, freshness no worse)");
            }
        }
    }
    0
}

/// The usage text, printed for `help` and on a bad invocation.
const USAGE: &str = "usage: hatcli <engines|point|frontier|compare|artifact> [flags]\n\
    point:    --engine <name> --sf <f> -t <n> -a <n> [--repeats n]\n\
    frontier: --engine <name> --sf <f> [--quick] [--out chart.svg]\n\
    compare:  --sf <f> [--quick]\n\
    artifact: <run.json> (validate + summarize a metrics artifact)\n\
    point/frontier also take --metrics-out <run.json> (write the\n\
    versioned JSON run artifact: config, per-point metric\n\
    snapshots, latency histograms, time series)\n\
    point/frontier/compare also take --a-threads <n> (morsel\n\
    parallelism per analytical query, default 1),\n\
    --vacuum-interval-ms <ms> (background MVCC version-chain\n\
    vacuum cadence, default 25) or --no-vacuum (disable it),\n\
    --warmup-ms/--measure-ms <ms> (per-point window lengths,\n\
    default 200/600), --mix <n,p,c> (New Order / Payment /\n\
    Count Orders weights, default 48,48,4),\n\
    and point/frontier --durability\n\
    off|sleep|fsync [--wal-dir <dir>] (fsync runs a real\n\
    on-disk WAL); with fsync, --disk-faults <seed> arms a\n\
    seeded disk-fault plan (EIO, fsync failures, ENOSPC,\n\
    stalls; the first failed write or fsync stops the WAL's\n\
    writes, commits then shed with retryable errors until\n\
    the --wal-dir is reopened by a later run) and\n\
    --max-commit-backlog <frames> bounds the group-commit\n\
    queue (excess commits shed with retryable errors)\n\
    point --arrival-rate <req/s> switches to an open-loop\n\
    overload run: offered load is an input, not a client\n\
    count. Knobs: --arrival-shape poisson|bursty|step\n\
    (bursty: --burst-period/--burst-depth; step:\n\
    --burst-mult/--burst-from/--burst-until),\n\
    --deadline-ms <ms>, --workers <n>, --queue-cap <n>,\n\
    --ticks <n>, --tick-ms <ms>, --service-pad-us <us>,\n\
    --retry-budget <tokens> (shared budget; omit for the\n\
    unbudgeted control arm), --max-attempts <n>\n\
    open-loop runs also take --sched static|elastic|pinned;\n\
    elastic\n\
    holds a fixed core budget and reassigns it between the\n\
    commit and query sides at tick granularity. Knobs:\n\
    --budget <cores> (default 4), --t-floor <cores>,\n\
    --dwell <ticks> (calm ticks before giving a core back),\n\
    --high-backlog/--low-backlog <per-core> (AIMD\n\
    watermarks); pinned runs the same dual-population\n\
    driver at a fixed --t-cores <n> split (the static\n\
    comparison arm); the per-tick allocation trace lands in\n\
    the artifact as sched.t_cores/sched.a_cores gauges and\n\
    --overlay-out <chart.svg> draws the per-tick\n\
    (goodput, qps) trajectory\n\
    any other flag, or a malformed value, is an error\n\
    (usage, exit 2)";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    let args = Args::parse(&argv[argv.len().min(1)..]);
    if let Some(bad) = accepted_flags(cmd).and_then(|accepted| args.unknown(&accepted)) {
        eprintln!("unknown argument {bad} for `hatcli {cmd}`\n{USAGE}");
        std::process::exit(2);
    }
    let code = match cmd {
        "engines" => {
            for e in ENGINES {
                println!("{e}");
            }
            0
        }
        "point" => cmd_point(&args),
        "frontier" => cmd_frontier(&args),
        "compare" => cmd_compare(&args),
        "artifact" => cmd_artifact(argv.get(1).map(String::as_str)),
        _ => {
            eprintln!("{USAGE}");
            if cmd == "help" {
                0
            } else {
                2
            }
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepted_flags_parse_clean() {
        let point = accepted_flags("point").unwrap();
        let args = parse(&[
            "--engine", "shared", "--sf", "0.01", "-t", "2", "-a", "0", "--durability", "off",
            "--measure-ms", "2000", "--no-vacuum", "--metrics-out", "run.json",
        ]);
        assert_eq!(args.unknown(&point), None);
        assert_eq!(args.get(&["measure-ms"]), Some("2000"));
        assert!(args.has("no-vacuum"));
        assert_eq!(args.get(&["metrics-out"]), Some("run.json"));
        let frontier = accepted_flags("frontier").unwrap();
        assert_eq!(parse(&["--engine", "dual", "--quick", "-o", "f.svg"]).unknown(&frontier), None);
        assert_eq!(accepted_flags("engines"), None, "engines takes no flags to check");
    }

    #[test]
    fn unknown_flags_and_stray_words_are_named() {
        let point = accepted_flags("point").unwrap();
        assert_eq!(parse(&["--engine", "shared", "--bogus", "1"]).unknown(&point).as_deref(), Some("--bogus"));
        // A typo must not silently run the defaults.
        assert_eq!(parse(&["--measure_ms", "2000"]).unknown(&point).as_deref(), Some("--measure_ms"));
        assert_eq!(parse(&["--shards", "4"]).unknown(&point).as_deref(), Some("--shards"));
        assert_eq!(parse(&["shared", "-t", "2"]).unknown(&point).as_deref(), Some("shared"));
        // `point`-only flags are not `frontier` flags.
        let frontier = accepted_flags("frontier").unwrap();
        assert_eq!(parse(&["-t", "2"]).unknown(&frontier).as_deref(), Some("-t"));
    }

    #[test]
    fn reopening_a_wal_dir_does_not_load_the_data_again() {
        let dir = std::env::temp_dir().join(format!("hatcli-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = parse(&[
            "--durability", "fsync", "--wal-dir", dir.to_str().unwrap(), "--warmup-ms", "20",
            "--measure-ms", "60",
        ]);
        let durability = parse_durability(&args).unwrap();
        // One short point per open, then close the engine and reopen it.
        let live_versions = || {
            let harness = make_harness("shared", 0.002, 7, &durability, &args).unwrap();
            harness.run_point(1, 0).unwrap();
            harness.engine().metrics().gauge(names::LIVE_VERSIONS)
        };
        let first = live_versions();
        let second = live_versions();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(first > 0);
        // The reopen recovers the first run's rows and must not add a
        // second copy of the load (which would nearly double the count).
        assert!(second < first + first / 2, "first run {first}, reopen {second}");
    }

    #[test]
    fn malformed_values_are_named_not_defaulted() {
        // A malformed value must not fall back to the default.
        let args = parse(&["-t", "two", "--sf", "0.5x", "--vacuum-interval-ms", "fast", "-a", "1"]);
        assert_eq!(args.value(&["t"], 4u32), Err("bad value \"two\" for -t".to_string()));
        assert_eq!(args.value(&["sf"], 0.01f64), Err("bad value \"0.5x\" for --sf".to_string()));
        assert!(args.value(&["vacuum-interval-ms"], 25u64).is_err());
        // A flag given without its value is malformed too.
        assert!(parse(&["--measure-ms", "--no-vacuum"]).value(&["measure-ms"], 600u32).is_err());
        // Well-formed and absent values still parse and default.
        assert_eq!(args.value(&["a"], 2u32), Ok(1));
        assert_eq!(args.value(&["repeats", "r"], 1u32), Ok(1));
    }
}
