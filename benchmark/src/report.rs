//! Result rendering: the driver's one-line JSON, the suite's results file,
//! `compare` and `calibrate`.

use std::path::Path;

use crate::adapter::Json;
use crate::stats;
use crate::workloads::{Metric, RunResult, Workload, END_TO_END};

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Metrics keyed by name. The driver's line carries exactly `value` and
/// `unit`; a run file also keeps the sample counts.
fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields =
                    vec![("value", Json::from_f64(m.value)), ("unit", Json::Str(m.unit.clone()))];
                if with_samples {
                    fields.push(("samples", Json::from_u64(m.samples)));
                }
                (m.name.clone(), obj(fields))
            })
            .collect(),
    )
}

/// The last line of a driver-contract run: exactly `correct`, `attempted`,
/// `failed` and `metrics` (end-to-end untraced, per-layer traced).
pub fn driver_line(r: &RunResult) -> String {
    let metrics = if r.traced { &r.per_layer } else { &r.end_to_end };
    obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::from_u64(r.attempted.max(1))),
        ("failed", Json::from_u64(r.failed)),
        ("metrics", metrics_json(metrics, false)),
    ])
    .dump()
}

/// Everything a run produced, for the suite process that spawned it.
pub fn run_to_json(r: &RunResult) -> Json {
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    obj(vec![
        ("workload", Json::Str(r.workload.name().into())),
        ("seed", Json::from_u64(r.seed)),
        ("seconds", Json::from_f64(r.seconds)),
        ("traced", Json::Bool(r.traced)),
        ("attempted", Json::from_u64(r.attempted)),
        ("failed", Json::from_u64(r.failed)),
        ("checks_passed", strings(&r.checks.passed)),
        ("checks_failed", strings(&r.checks.failed)),
        ("end_to_end", metrics_json(&r.end_to_end, true)),
        ("named", metrics_json(&r.named, true)),
        ("per_layer", metrics_json(&r.per_layer, true)),
        (
            "per_query",
            Json::Arr(
                r.per_query
                    .iter()
                    .map(|(label, n, total, build, probe)| {
                        Json::Arr(vec![
                            Json::Str(label.clone()),
                            Json::from_u64(*n),
                            Json::from_f64(*total),
                            Json::from_f64(*build),
                            Json::from_f64(*probe),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "digests",
            Json::Arr(
                r.digests
                    .iter()
                    .map(|(label, d)| {
                        Json::Arr(vec![Json::Str(label.clone()), Json::Str(format!("{d:016x}"))])
                    })
                    .collect(),
            ),
        ),
        ("ladder_of", Json::Str(r.ladder_of.clone())),
        (
            "ladder",
            Json::Arr(
                r.ladder
                    .iter()
                    .map(|&(p, v)| Json::Arr(vec![Json::from_f64(p), Json::from_f64(v)]))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`run_to_json`].
pub fn run_from_json(j: &Json) -> Result<RunResult, String> {
    let field = |key: &str| j.get(key).ok_or_else(|| format!("run result: no `{key}`"));
    let arr = |key: &str| -> Result<&[Json], String> {
        field(key)?.as_arr().ok_or_else(|| format!("run result: `{key}` is not a list"))
    };
    let text = |v: &Json| v.as_str().map(str::to_string).ok_or("run result: expected a string");
    let num = |v: &Json| v.as_f64().ok_or("run result: expected a number");
    let int = |v: &Json| v.as_u64().ok_or("run result: expected a whole number");
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        let entries =
            field(key)?.as_obj().ok_or_else(|| format!("run result: `{key}` is not an object"))?;
        entries
            .iter()
            .map(|(name, m)| {
                let get = |k: &str| m.get(k).ok_or_else(|| format!("metric {name}: no `{k}`"));
                Ok(Metric {
                    name: name.clone(),
                    value: num(get("value")?)?,
                    unit: text(get("unit")?)?,
                    samples: int(get("samples")?)?,
                })
            })
            .collect()
    };
    let strings = |key: &str| -> Result<Vec<String>, String> {
        arr(key)?.iter().map(|s| Ok(text(s)?)).collect()
    };
    let name = text(field("workload")?)?;
    let tuple = |v: &Json, len: usize| -> Result<Vec<Json>, String> {
        let t = v.as_arr().filter(|t| t.len() == len).ok_or("run result: malformed tuple")?;
        Ok(t.to_vec())
    };
    Ok(RunResult {
        workload: Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: int(field("seed")?)?,
        seconds: num(field("seconds")?)?,
        traced: field("traced")? == &Json::Bool(true),
        attempted: int(field("attempted")?)?,
        failed: int(field("failed")?)?,
        checks: crate::checks::Checks {
            passed: strings("checks_passed")?,
            failed: strings("checks_failed")?,
        },
        end_to_end: metrics("end_to_end")?,
        named: metrics("named")?,
        per_layer: metrics("per_layer")?,
        per_query: arr("per_query")?
            .iter()
            .map(|q| {
                let t = tuple(q, 5)?;
                Ok((text(&t[0])?, int(&t[1])?, num(&t[2])?, num(&t[3])?, num(&t[4])?))
            })
            .collect::<Result<_, String>>()?,
        digests: arr("digests")?
            .iter()
            .map(|d| {
                let t = tuple(d, 2)?;
                let hex = text(&t[1])?;
                let digest = u64::from_str_radix(&hex, 16).map_err(|_| "run result: bad digest")?;
                Ok((text(&t[0])?, digest))
            })
            .collect::<Result<_, String>>()?,
        ladder_of: text(field("ladder_of")?)?,
        ladder: arr("ladder")?
            .iter()
            .map(|l| {
                let t = tuple(l, 2)?;
                Ok((num(&t[0])?, num(&t[1])?))
            })
            .collect::<Result<_, String>>()?,
    })
}

/// Prints one run for a human: every metric by name with its unit.
pub fn print_run(r: &RunResult) {
    let w = r.workload;
    println!(
        "== {} seed={} seconds={} trace={} engine: {}",
        w.name(),
        r.seed,
        r.seconds,
        u8::from(r.traced),
        w.engine().describe()
    );
    let row = |m: &Metric| {
        let samples = if m.samples > 0 { format!("  (n={})", m.samples) } else { String::new() };
        println!("  {:<40} {:>16.4} {}{}", m.name, m.value, m.unit, samples);
    };
    if r.traced {
        println!(
            "  -- per-layer (traced window; end-to-end numbers below are the untraced reference)"
        );
        r.per_layer.iter().for_each(row);
        if !r.per_query.is_empty() {
            println!("  -- per query: n, engine.query ms, build ms, probe ms, engine overhead ms");
            for (label, n, total, build, probe) in &r.per_query {
                println!(
                    "  {label:<8} {n:>6} {total:>10.3} {build:>10.3} {probe:>10.3} {:>10.3}",
                    total - build - probe
                );
            }
        }
    }
    println!("  -- end to end");
    r.named.iter().for_each(row);
    if !r.traced {
        let slots = w.slot_meaning();
        println!(
            "  -- gated (BENCHMARK.json names; bound = share of the baseline it may worsen by)"
        );
        for (i, m) in r.end_to_end.iter().enumerate() {
            let (_, _, better, bound) = END_TO_END[i];
            let meaning = slots.get(i).map_or(String::new(), |s| format!(" = {s}"));
            println!(
                "  {:<40} {:>16.4} {}  {better} is better, bound {bound}{meaning}",
                m.name, m.value, m.unit
            );
        }
    }
    if !r.ladder.is_empty() {
        let rungs: Vec<String> = r.ladder.iter().map(|(p, v)| format!("p{p}={v:.4}")).collect();
        println!("  ladder ({}, ms): {}", r.ladder_of, rungs.join(" "));
    }
    for (label, d) in &r.digests {
        println!("  digest {label} {d:016x}");
    }
    println!(
        "  checks: {} passed, {} failed; attempted={} failed={}",
        r.checks.passed.len(),
        r.checks.failed.len(),
        r.attempted,
        r.failed
    );
    for f in &r.checks.failed {
        println!("  CHECK FAILED: {f}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Machine facts recorded in every results file.
pub fn machine_facts(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Json::from_u64(nproc as u64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("git_rev", Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
        ("seed", Json::from_u64(seed)),
    ])
}

/// One workload's entry in a results file. `untraced` holds one result per
/// repetition; values are kept per run so `compare` can see the spread.
pub fn workload_json(w: Workload, untraced: &[RunResult], traced: Option<&RunResult>) -> Json {
    let series = |pick: fn(&RunResult) -> &Vec<Metric>| -> Json {
        let Some(first) = untraced.first() else { return Json::Obj(vec![]) };
        Json::Obj(
            pick(first)
                .iter()
                .map(|m| {
                    let values: Vec<Json> = untraced
                        .iter()
                        .filter_map(|r| pick(r).iter().find(|x| x.name == m.name))
                        .map(|x| Json::from_f64(x.value))
                        .collect();
                    let gate = END_TO_END.iter().find(|g| g.0 == m.name);
                    let mut fields = vec![
                        ("unit", Json::Str(m.unit.clone())),
                        ("samples", Json::from_u64(m.samples)),
                        ("values", Json::Arr(values)),
                    ];
                    match gate {
                        Some(&(_, _, better, bound)) => {
                            fields.push(("better", Json::Str(better.into())));
                            fields.push(("bound", Json::from_f64(bound)));
                        }
                        None => fields.push(("informational", Json::Bool(true))),
                    }
                    (m.name.clone(), obj(fields))
                })
                .collect(),
        )
    };
    let all: Vec<&RunResult> = untraced.iter().chain(traced).collect();
    let failures: Vec<Json> =
        all.iter().flat_map(|r| r.checks.failed.iter().map(|f| Json::Str(f.clone()))).collect();
    let mut fields = vec![
        ("name", Json::Str(w.name().into())),
        ("why", Json::Str(w.why().into())),
        ("engine", Json::Str(w.engine().describe().into())),
        ("scale_factor", Json::from_f64(w.scale_factor())),
        ("load_threads", Json::from_u64(u64::from(w.load_threads()))),
        ("ok", Json::Bool(failures.is_empty())),
        ("checks_failed", Json::Arr(failures)),
        ("attempted", Json::from_u64(untraced.iter().map(|r| r.attempted).sum())),
        ("failed", Json::from_u64(untraced.iter().map(|r| r.failed).sum())),
        ("end_to_end", series(|r| &r.end_to_end)),
        ("named", series(|r| &r.named)),
    ];
    if let Some(t) = traced {
        fields.push(("per_layer", metrics_json(&t.per_layer, false)));
        fields.push((
            "per_query",
            Json::Arr(
                t.per_query
                    .iter()
                    .map(|(label, n, total, build, probe)| {
                        obj(vec![
                            ("query", Json::Str(label.clone())),
                            ("n", Json::from_u64(*n)),
                            ("engine_query_ms", Json::from_f64(*total)),
                            ("build_ms", Json::from_f64(*build)),
                            ("probe_ms", Json::from_f64(*probe)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(r) = all.iter().find(|r| !r.digests.is_empty()) {
        fields.push((
            "digests",
            Json::Obj(
                r.digests
                    .iter()
                    .map(|(label, d)| (label.to_string(), Json::Str(format!("{d:016x}"))))
                    .collect(),
            ),
        ));
    }
    obj(fields)
}

/// The suite's results file. Ends with `"claim": null`: defining the
/// benchmark claims no gain.
pub fn suite_json(seed: u64, seconds: f64, workloads: Vec<Json>) -> Json {
    let ok = workloads.iter().all(|w| w.get("ok") == Some(&Json::Bool(true)));
    obj(vec![
        ("schema", Json::from_u64(1)),
        ("machine", machine_facts(seed)),
        ("run_seconds", Json::from_f64(seconds)),
        ("ok", Json::Bool(ok)),
        ("workloads", Json::Arr(workloads)),
        ("claim", Json::Null),
    ])
}

/// Median and run-to-run spread of a metric's recorded values.
struct Series {
    median: f64,
    /// IQR share from four values up, range share below that.
    spread: f64,
    n: usize,
}

fn series_of(entry: &Json) -> Option<Series> {
    let values: Vec<f64> = entry.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    if values.is_empty() {
        return None;
    }
    let spread =
        if values.len() >= 4 { stats::iqr_share(&values) } else { stats::range_share(&values) };
    Some(Series { median: stats::median(&values), spread, n: values.len() })
}

/// One `compare` verdict. `worse` is the signed share by which `b` is worse
/// than `a` (negative: better).
pub fn verdict(worse: f64, spread: f64, bound: f64) -> &'static str {
    if spread > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// Compares two results files; returns the table and whether any gated
/// metric regressed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |j: &Json| -> Result<Vec<Json>, String> {
        Ok(j.get("workloads").and_then(Json::as_arr).ok_or("no `workloads` array")?.to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "b/a", "spread", "bound"
    );
    let mut regressed = false;
    for ea in &wa {
        let name = ea.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(eb) = wb.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.push_str(&format!("{name:<16} missing from b\n"));
            continue;
        };
        for section in ["end_to_end", "named"] {
            let Some(ma) = ea.get(section).and_then(Json::as_obj) else { continue };
            for (metric, entry_a) in ma {
                let gated = section == "end_to_end";
                if !gated && metric != "failed_share" {
                    continue;
                }
                let Some(entry_b) = eb.get(section).and_then(|s| s.get(metric)) else { continue };
                let (Some(sa), Some(sb)) = (series_of(entry_a), series_of(entry_b)) else {
                    continue;
                };
                // Equal medians (0 and 0 included) are a ratio of 1.
                let ratio = if sa.median == sb.median { 1.0 } else { sb.median / sa.median };
                let spread = sa.spread.max(sb.spread);
                let bound = entry_a.get("bound").and_then(Json::as_f64);
                let lower = entry_a.get("better").and_then(Json::as_str) != Some("higher");
                let worse = if lower { ratio - 1.0 } else { 1.0 - ratio };
                let v = match bound {
                    Some(bound) if ratio.is_finite() => verdict(worse, spread, bound),
                    _ => "info",
                };
                regressed |= v == "regressed";
                out.push_str(&format!(
                    "{name:<16} {metric:<22} {:>14.4} {:>14.4} {ratio:>9.4} {spread:>7.3} {:>7}  {v} (base a, n={}/{})\n",
                    sa.median,
                    sb.median,
                    bound.map_or("-".to_string(), |b| format!("{b:.2}")),
                    sa.n,
                    sb.n
                ));
            }
        }
    }
    Ok((out, regressed))
}

/// `CALIBRATION.md`: per (workload, metric) the spread of `runs` runs at
/// different seeds, and the bound that follows from it.
pub fn calibration_md(
    seeds: &[u64],
    seconds: f64,
    results: &[(Workload, Vec<RunResult>)],
) -> String {
    let mut md = String::from("# Calibration\n\n");
    md.push_str(&format!(
        "Spreads of the gated end-to-end metrics over {} untraced runs per workload, \
         {seconds} s measured each, one seed per run ({seeds:?}), unchanged code. \
         Written by `hat-benchmark calibrate`.\n\n\
         - `iqr/median` is the contract's spread: the distance between the first and third \
         quartile (Python's `statistics.quantiles(values, n=4)`) as a share of the median. It \
         must stay inside the metric's bound, and should stay under a third of it.\n\
         - `range/median` is `(max − min) / median`; the issue's rule derives a bound as \
         `max(0.05, 2 × range/median)`, capped at 0.10 for throughputs and 0.20 for percentile \
         latencies. A bound in `BENCHMARK.json` is per metric, so it is the largest need \
         over the six workloads (and at most 0.25, the contract's cap).\n\n",
        seeds.len()
    ));
    md.push_str("| workload | metric | median | min | max | iqr/median | range/median | derived bound | bound in BENCHMARK.json | within a third |\n");
    md.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n");
    for (w, runs) in results {
        for (i, &(name, _, _, bound)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.end_to_end[i].value).collect();
            let s = stats::sorted(values.clone());
            let (iqr, range) = (stats::iqr_share(&values), stats::range_share(&values));
            let cap = if name == "throughput_per_s" { 0.10 } else { 0.20 };
            let derived = (2.0 * range).max(0.05);
            let derived = if derived > cap {
                format!("{derived:.3} (over the {cap:.2} cap)")
            } else {
                format!("{derived:.3}")
            };
            let third = if iqr <= bound / 3.0 {
                "yes"
            } else if iqr <= bound {
                "no (inside the bound)"
            } else {
                "NO (outside the bound)"
            };
            md.push_str(&format!(
                "| {} | {name} = {} | {:.4} | {:.4} | {:.4} | {iqr:.4} | {range:.4} | {derived} | {bound:.2} | {third} |\n",
                w.name(),
                w.slot_meaning().get(i).copied().unwrap_or(name),
                stats::percentile(&s, 50.0),
                s.first().copied().unwrap_or(0.0),
                s.last().copied().unwrap_or(0.0),
            ));
        }
    }
    md.push_str("\nInformational (reported, not gated) metrics and their spreads:\n\n");
    md.push_str(
        "| workload | metric | median | iqr/median | range/median |\n|---|---|---:|---:|---:|\n",
    );
    for (w, runs) in results {
        let Some(first) = runs.first() else { continue };
        for m in &first.named {
            if END_TO_END.iter().any(|e| e.0 == m.name) {
                continue;
            }
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.named.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            md.push_str(&format!(
                "| {} | {} | {:.4} {} | {:.4} | {:.4} |\n",
                w.name(),
                m.name,
                stats::median(&values),
                m.unit,
                stats::iqr_share(&values),
                stats::range_share(&values)
            ));
        }
    }
    md
}

pub fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.01, 0.10), "unchanged");
        assert_eq!(verdict(0.12, 0.01, 0.10), "regressed");
        assert_eq!(verdict(-0.12, 0.01, 0.10), "improved");
        assert_eq!(verdict(0.30, 0.11, 0.10), "unresolved", "spread wider than the bound");
    }

    fn file(tps: [f64; 3]) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":[{{"name":"t2.shared.mem",
              "end_to_end":{{"throughput_per_s":{{"unit":"1/s","better":"higher","bound":0.1,
                 "values":[{},{},{}]}}}},
              "named":{{"failed_share":{{"unit":"ratio","values":[0.0,0.0,0.0]}},
                        "tps":{{"unit":"1/s","values":[1,1,1]}}}}}}]}}"#,
            tps[0], tps[1], tps[2]
        ))
        .unwrap()
    }

    #[test]
    fn compare_flags_a_regression_either_way_round() {
        let a = file([30000.0, 30100.0, 29900.0]);
        let b = file([25000.0, 25100.0, 24900.0]);
        let (table, regressed) = compare(&a, &b).unwrap();
        assert!(regressed, "{table}");
        assert!(table.contains("regressed"));
        assert!(table.contains("failed_share"), "failed_share rows are printed: {table}");
        assert!(!table.contains(" tps "), "other named metrics are not");
        let (table, regressed) = compare(&b, &a).unwrap();
        assert!(!regressed && table.contains("improved"), "{table}");
        let (table, regressed) = compare(&a, &a).unwrap();
        assert!(!regressed && table.contains("unchanged"), "{table}");
    }

    #[test]
    fn benchmark_json_and_the_code_agree() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).unwrap();
        let list = |key: &str| j.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let s = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap().to_string();

        let names: Vec<String> = list("workloads").iter().map(|e| s(e, "name")).collect();
        let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, want);
        for (e, w) in list("workloads").iter().zip(Workload::ALL) {
            assert_eq!(s(e, "why"), w.why());
            assert!(w.why().len() <= 200);
            assert!(w.load_threads() <= 2, "no workload starts more than two load threads");
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (e, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (s(e, "name"), s(e, "unit"), s(e, "better")),
                (name.into(), unit.into(), better.into())
            );
            assert_eq!(e.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), crate::workloads::PER_LAYER.len());
        for (e, (name, unit, better)) in layers.iter().zip(crate::workloads::PER_LAYER) {
            assert_eq!(
                (s(e, "name"), s(e, "unit"), s(e, "better")),
                (name.into(), unit.into(), better.into())
            );
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert_eq!(list("paths"), vec![Json::Str("benchmark".into())]);
    }
}
