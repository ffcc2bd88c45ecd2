//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hat-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result JSON
//! hat-benchmark [--seed 42] [--seconds 10] [--repeat 1] [--smoke] [--out FILE]
//!     all six workloads, untraced then traced; writes a results file
//! hat-benchmark compare <a.json> <b.json>
//! hat-benchmark calibrate --runs N [--seed 42] [--seconds 10]
//! hat-benchmark golden
//! ```

mod adapter;
mod checks;
mod drive;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adapter::Json;
use workloads::{RunResult, Workload};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke`: 1 s runs, checks only (≤15 s in total).
const SMOKE_SECONDS: f64 = 1.0;

/// The benchmark's own directory: where `cargo run` found the manifest,
/// else where the package was built.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Scratch and result files (ignored by git; inside the checkout).
fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        const VALUED: [&str; 8] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--repeat",
            "--out",
            "--runs",
            "--result-file",
        ];
        const BARE: [&str; 1] = ["--smoke"];
        let mut args = Args { positional: Vec::new(), flags: Vec::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if VALUED.contains(&a.as_str()) {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a, Some(v)));
            } else if BARE.contains(&a.as_str()) {
                args.flags.push((a, None));
            } else if a.starts_with("--") {
                return Err(format!("unknown option {a}"));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            Some((_, Some(v))) => {
                v.parse().map(Some).map_err(|_| format!("{flag}: cannot read `{v}`"))
            }
            _ => Ok(None),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let default = if self.has("--smoke") { SMOKE_SECONDS } else { DEFAULT_SECONDS };
        let s = self.value("--seconds")?.unwrap_or(default);
        if s.is_finite() && s >= 0.2 {
            Ok(s)
        } else {
            Err(format!("--seconds must be at least 0.2, got {s}"))
        }
    }
}

/// One run under the driver's contract. `--result-file` (used by the
/// suite, which runs every workload in a process of its own) also gets
/// the run in full; `--smoke` sets up once instead of repeatedly.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let w = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let seed = args.value("--seed")?.unwrap_or(DEFAULT_SEED);
    let traced = match args.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let r = workloads::run(w, seed, args.seconds()?, traced, args.has("--smoke"), &out_dir())?;
    report::print_run(&r);
    if let Some(path) = args.value::<String>("--result-file")? {
        report::write(Path::new(&path), &report::run_to_json(&r).dump())?;
    }
    println!("{}", report::driver_line(&r));
    Ok(r.correct())
}

/// Runs one workload in a fresh process of this same program — as the
/// driver does — so every run starts from the same allocator and resident
/// set, and returns what it wrote to its result file.
fn spawn_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let file = out_dir().join(format!("run-{}-{}.json", w.name(), std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--result-file")
        .arg(&file);
    if quick {
        child.arg("--smoke");
    }
    // The child prints its own table; a failed check is exit code 1 with
    // a result file, anything else is an error.
    let status = child.status().map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let text = std::fs::read_to_string(&file)
        .map_err(|_| format!("{}: the run left no result ({status})", w.name()))?;
    let _ = std::fs::remove_file(&file);
    report::run_from_json(&Json::parse(&text)?)
}

/// All six workloads: `repeat` untraced passes, then (unless `smoke`) one
/// traced pass. Returns the results file's JSON.
fn suite(seed: u64, seconds: f64, repeat: usize, smoke: bool) -> Result<Json, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut entries = Vec::new();
    let mut overheads = Vec::new();
    for w in Workload::ALL {
        let mut untraced: Vec<RunResult> = Vec::new();
        for _ in 0..repeat.max(1) {
            untraced.push(spawn_run(w, seed, seconds, false, smoke)?);
        }
        let traced = if smoke {
            None
        } else {
            // The issue's traced pass measures 5 s where the untraced one
            // measures 15: half the untraced length per window here.
            let r = spawn_run(w, seed, seconds, true, false)?;
            if let Some(m) = r.per_layer.iter().find(|m| m.name == "trace_overhead") {
                overheads.push((w.name(), m.value));
            }
            Some(r)
        };
        entries.push(report::workload_json(w, &untraced, traced.as_ref()));
    }
    for (name, overhead) in overheads {
        println!("trace_overhead {name:<16} {overhead:.4} (untraced rate / traced rate)");
    }
    Ok(report::suite_json(seed, seconds, entries))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn calibrate(args: &Args) -> Result<bool, String> {
    let runs: u64 = args.value("--runs")?.unwrap_or(5);
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let seed = args.value("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds()?;
    let seeds: Vec<u64> = (0..runs).map(|i| seed + i).collect();
    let mut results = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut per_seed = Vec::new();
        for &s in &seeds {
            let r = spawn_run(w, s, seconds, false, false)?;
            ok &= r.correct();
            per_seed.push(r);
        }
        results.push((w, per_seed));
    }
    let md = report::calibration_md(&seeds, seconds, &results);
    let path = benchmark_dir().join("CALIBRATION.md");
    report::write(&path, &md)?;
    println!("{md}\nwrote {}", path.display());
    Ok(ok)
}

/// Prints the golden digest file: SF 0.2, seed 42, `ShdEngine`, scalar scan.
fn golden() -> Result<bool, String> {
    let built = adapter::build_engine(adapter::EngineKind::SharedMem, Path::new("unused"))
        .map_err(|e| e.to_string())?;
    adapter::generate_and_load(
        Workload::A1Dual.scale_factor(),
        checks::GOLDEN_SEED,
        built.engine.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    print!("{}", checks::golden_lines(built.engine.as_ref())?);
    Ok(true)
}

fn run() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if let Some(name) = args.value::<String>("--workload")? {
        return single(&args, &name);
    }
    match args.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: compare <a.json> <b.json>".into());
            };
            let (table, regressed) = report::compare(&read_json(a)?, &read_json(b)?)?;
            print!("{table}");
            Ok(!regressed)
        }
        Some("calibrate") => calibrate(&args),
        Some("golden") => golden(),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => {
            let seed = args.value("--seed")?.unwrap_or(DEFAULT_SEED);
            let smoke = args.has("--smoke");
            let repeat = args.value("--repeat")?.unwrap_or(1);
            let json = suite(seed, args.seconds()?, repeat, smoke)?;
            let ok = json.get("ok") == Some(&Json::Bool(true));
            let path = match args.value::<String>("--out")? {
                Some(p) => PathBuf::from(p),
                None => out_dir().join(format!("results-seed{seed}.json")),
            };
            report::write(&path, &json.pretty())?;
            println!("ok={ok} results: {}", path.display());
            Ok(ok)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hat-benchmark: an output check failed or a metric regressed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("hat-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
