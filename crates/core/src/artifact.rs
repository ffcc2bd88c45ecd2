//! The machine-readable run artifact.
//!
//! Every benchmark run can emit one versioned JSON document carrying the
//! run configuration, each measured `(τ, α)` point's metric snapshots
//! (window + cumulative), the per-tick time series, and the raw
//! freshness samples — everything `report`/`figures` consume, without
//! reaching into harness internals. `hatcli --metrics-out <path>` writes
//! it; [`RunArtifact::parse`] + [`RunArtifact::validate`] read it back
//! (the CI smoke check does exactly that).
//!
//! Schema stability: `schema_version` gates the layout. Consumers must
//! reject versions they do not understand rather than guess.

use std::collections::BTreeSet;

use hat_common::telemetry::json::Json;
use hat_common::telemetry::MetricsSnapshot;

use crate::harness::{PointMeasurement, SamplePhase, TimeSeriesSample};

/// Version of the artifact layout produced by this build. Every metric
/// travels by name inside a snapshot (a time-series sample included), so
/// a new metric needs no new version; the version moves only when the
/// document's own structure does.
pub const SCHEMA_VERSION: u64 = 7;

/// The run configuration echoed into the artifact, so a result file is
/// self-describing (which engine, scale, seed, and phase lengths
/// produced these numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    pub engine: String,
    pub scale_factor: f64,
    pub seed: u64,
    pub warmup_secs: f64,
    pub measure_secs: f64,
    pub repeats: u32,
}

impl RunConfig {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::Str(self.engine.clone())),
            ("scale_factor".into(), Json::from_f64(self.scale_factor)),
            ("seed".into(), Json::from_u64(self.seed)),
            ("warmup_secs".into(), Json::from_f64(self.warmup_secs)),
            ("measure_secs".into(), Json::from_f64(self.measure_secs)),
            ("repeats".into(), Json::from_u64(self.repeats as u64)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let f = |k: &str| {
            j.get(k).and_then(Json::as_f64).ok_or_else(|| format!("config: missing {k}"))
        };
        Ok(RunConfig {
            engine: j
                .get("engine")
                .and_then(Json::as_str)
                .ok_or("config: missing engine")?
                .to_string(),
            scale_factor: f("scale_factor")?,
            seed: j.get("seed").and_then(Json::as_u64).ok_or("config: missing seed")?,
            warmup_secs: f("warmup_secs")?,
            measure_secs: f("measure_secs")?,
            repeats: f("repeats")? as u32,
        })
    }
}

fn sample_to_json(s: &TimeSeriesSample) -> Json {
    Json::Obj(vec![
        ("t_secs".into(), Json::from_f64(s.t_secs)),
        ("phase".into(), Json::Str(s.phase.label().to_string())),
        ("run".into(), Json::from_u64(s.run as u64)),
        ("tick_secs".into(), Json::from_f64(s.tick_secs)),
        ("metrics".into(), s.metrics.to_json()),
    ])
}

fn sample_from_json(j: &Json) -> Result<TimeSeriesSample, String> {
    let f = |k: &str| {
        j.get(k).and_then(Json::as_f64).ok_or_else(|| format!("sample: missing {k}"))
    };
    let phase = j
        .get("phase")
        .and_then(Json::as_str)
        .and_then(SamplePhase::from_label)
        .ok_or("sample: bad phase")?;
    Ok(TimeSeriesSample {
        t_secs: f("t_secs")?,
        phase,
        run: j.get("run").and_then(Json::as_u64).ok_or("sample: missing run")? as u32,
        tick_secs: f("tick_secs")?,
        metrics: MetricsSnapshot::from_json(j.get("metrics").ok_or("sample: missing metrics")?)?,
    })
}

/// Serializes one measured point.
pub fn point_to_json(m: &PointMeasurement) -> Json {
    Json::Obj(vec![
        ("t_clients".into(), Json::from_u64(m.t_clients as u64)),
        ("a_clients".into(), Json::from_u64(m.a_clients as u64)),
        ("tps".into(), Json::from_f64(m.tps)),
        ("qps".into(), Json::from_f64(m.qps)),
        ("measured_secs".into(), Json::from_f64(m.measured_secs)),
        (
            "freshness".into(),
            Json::Arr(m.freshness.iter().map(|&s| Json::from_f64(s)).collect()),
        ),
        ("metrics".into(), m.metrics.to_json()),
        ("metrics_end".into(), m.metrics_end.to_json()),
        ("timeseries".into(), Json::Arr(m.timeseries.iter().map(sample_to_json).collect())),
    ])
}

/// Deserializes one measured point.
pub fn point_from_json(j: &Json) -> Result<PointMeasurement, String> {
    let f = |k: &str| {
        j.get(k).and_then(Json::as_f64).ok_or_else(|| format!("point: missing {k}"))
    };
    let u = |k: &str| {
        j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("point: missing {k}"))
    };
    let freshness = j
        .get("freshness")
        .and_then(Json::as_arr)
        .ok_or("point: missing freshness")?
        .iter()
        .map(|v| v.as_f64().ok_or("point: bad freshness sample".to_string()))
        .collect::<Result<Vec<f64>, String>>()?;
    let timeseries = j
        .get("timeseries")
        .and_then(Json::as_arr)
        .ok_or("point: missing timeseries")?
        .iter()
        .map(sample_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PointMeasurement {
        t_clients: u("t_clients")? as u32,
        a_clients: u("a_clients")? as u32,
        tps: f("tps")?,
        qps: f("qps")?,
        metrics: MetricsSnapshot::from_json(
            j.get("metrics").ok_or("point: missing metrics")?,
        )?,
        metrics_end: MetricsSnapshot::from_json(
            j.get("metrics_end").ok_or("point: missing metrics_end")?,
        )?,
        timeseries,
        freshness,
        measured_secs: f("measured_secs")?,
    })
}

/// A complete, versioned benchmark result document.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    pub schema_version: u64,
    pub config: RunConfig,
    pub points: Vec<PointMeasurement>,
}

impl RunArtifact {
    /// An empty artifact at the current schema version.
    pub fn new(config: RunConfig) -> Self {
        RunArtifact { schema_version: SCHEMA_VERSION, config, points: Vec::new() }
    }

    pub fn push_point(&mut self, m: PointMeasurement) {
        self.points.push(m);
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::from_u64(self.schema_version)),
            ("config".into(), self.config.to_json()),
            ("points".into(), Json::Arr(self.points.iter().map(point_to_json).collect())),
        ])
    }

    /// Pretty-printed JSON document (what `--metrics-out` writes).
    pub fn dump(&self) -> String {
        self.to_json().pretty()
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let schema_version = j
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("artifact: missing schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "artifact: schema_version {schema_version} unsupported \
                 (this build reads {SCHEMA_VERSION})"
            ));
        }
        let config = RunConfig::from_json(j.get("config").ok_or("artifact: missing config")?)?;
        let points = j
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("artifact: missing points")?
            .iter()
            .map(point_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunArtifact { schema_version, config, points })
    }

    /// Parses a document from its JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Structural checks beyond parsing: at least one point, and every
    /// point that ran clients carries a non-empty measurement-phase time
    /// series and window metrics. (The `(0, 0)` origin point of a
    /// frontier is legitimately empty.)
    pub fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("artifact: no points".into());
        }
        for m in &self.points {
            if m.t_clients == 0 && m.a_clients == 0 {
                continue;
            }
            let tag = format!("point ({}, {})", m.t_clients, m.a_clients);
            let measure_samples =
                m.timeseries.iter().filter(|s| s.phase == SamplePhase::Measure).count();
            if measure_samples == 0 {
                return Err(format!("{tag}: no measurement-phase samples"));
            }
            if m.metrics.counters().is_empty() {
                return Err(format!("{tag}: empty window metrics"));
            }
        }
        Ok(())
    }

    /// Writes the pretty JSON document to `path`.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.dump())
    }

    /// Reads and parses a document from `path`.
    pub fn read_from(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// CSV of the per-point summary: one row per measured point.
    pub fn points_csv(&self) -> String {
        let mut out = String::from(
            "t_clients,a_clients,tps,qps,committed,queries,aborts,backlog_hwm\n",
        );
        for m in &self.points {
            out.push_str(&format!(
                "{},{},{:.2},{:.3},{},{},{},{}\n",
                m.t_clients,
                m.a_clients,
                m.tps,
                m.qps,
                m.committed(),
                m.queries(),
                m.aborts(),
                m.backlog_hwm()
            ));
        }
        out
    }

    /// CSV of the full time series: one row per sample across all points,
    /// and one column per counter or gauge name any sample carries (empty
    /// where a sample lacks it).
    pub fn timeseries_csv(&self) -> String {
        let samples =
            || self.points.iter().flat_map(|m| m.timeseries.iter().map(move |s| (m, s)));
        let columns: BTreeSet<&str> = samples()
            .flat_map(|(_, s)| s.metrics.counters().iter().chain(s.metrics.gauges()))
            .map(|(name, _)| name.as_str())
            .collect();
        let mut out = String::from("t_clients,a_clients,run,phase,t_secs,tick_secs");
        for name in &columns {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (m, s) in samples() {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6}",
                m.t_clients,
                m.a_clients,
                s.run,
                s.phase.label(),
                s.t_secs,
                s.tick_secs
            ));
            for name in &columns {
                out.push(',');
                let find = |entries: &[(String, u64)]| {
                    let at = entries.binary_search_by(|(n, _)| n.as_str().cmp(name));
                    at.ok().map(|i| entries[i].1)
                };
                if let Some(v) = find(s.metrics.counters()).or_else(|| find(s.metrics.gauges())) {
                    out.push_str(&v.to_string());
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_common::telemetry::{names, HistogramSnapshot};

    fn config() -> RunConfig {
        RunConfig {
            engine: "shared".into(),
            scale_factor: 0.001,
            seed: 99,
            warmup_secs: 0.03,
            measure_secs: 0.12,
            repeats: 1,
        }
    }

    fn synthetic_point() -> PointMeasurement {
        let mut m = PointMeasurement::zero(2, 1);
        m.tps = 123.5;
        m.qps = 7.25;
        m.measured_secs = 0.12;
        m.freshness = vec![0.0, 0.004];
        m.metrics.set_counter(names::HARNESS_COMMITTED, 17);
        m.metrics.set_gauge(names::HARNESS_BACKLOG_HWM, 3);
        m.metrics.set_histogram(
            "latency.txn.payment",
            HistogramSnapshot::from_values(&[1_000, 2_000, 40_000]),
        );
        m.metrics_end.set_counter(names::WAL_FSYNCS, 12);
        let sample = |t_secs, phase, committed, backlog| {
            let mut metrics = MetricsSnapshot::new();
            metrics.set_counter(names::HARNESS_COMMITTED, committed);
            metrics.set_gauge(names::REPL_BACKLOG, backlog);
            TimeSeriesSample { t_secs, phase, run: 0, tick_secs: 0.005, metrics }
        };
        let mut measured = sample(0.05, SamplePhase::Measure, 6, 3);
        measured.metrics.set_counter(names::OPENLOOP_SHED_STALE, 4);
        m.timeseries = vec![sample(0.01, SamplePhase::Warmup, 5, 1), measured];
        m
    }

    #[test]
    fn artifact_roundtrips_through_text() {
        let mut art = RunArtifact::new(config());
        art.push_point(synthetic_point());
        let text = art.dump();
        let back = RunArtifact::parse(&text).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.config, art.config);
        assert_eq!(back.points.len(), 1);
        let (a, b) = (&art.points[0], &back.points[0]);
        assert_eq!(a.t_clients, b.t_clients);
        assert_eq!(a.tps, b.tps);
        assert_eq!(a.freshness, b.freshness);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics_end, b.metrics_end);
        assert_eq!(a.timeseries, b.timeseries);
        assert_eq!(a.committed(), 17);
        assert_eq!(b.committed(), 17);
    }

    #[test]
    fn validate_accepts_good_and_rejects_empty() {
        let mut art = RunArtifact::new(config());
        assert!(art.validate().is_err(), "no points");
        art.push_point(synthetic_point());
        art.validate().unwrap();
        // Origin points are allowed to be empty.
        art.push_point(PointMeasurement::zero(0, 0));
        art.validate().unwrap();
        // A real point without measurement samples is rejected.
        art.push_point(PointMeasurement::zero(1, 0));
        assert!(art.validate().unwrap_err().contains("no measurement-phase samples"));
    }

    #[test]
    fn unsupported_schema_version_is_rejected() {
        let mut art = RunArtifact::new(config());
        art.push_point(synthetic_point());
        let current = format!("\"schema_version\": {SCHEMA_VERSION}");
        let text = art.dump().replace(&current, "\"schema_version\": 999");
        let err = RunArtifact::parse(&text).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn csv_helpers_cover_points_and_series() {
        let mut art = RunArtifact::new(config());
        art.push_point(synthetic_point());
        let pcsv = art.points_csv();
        assert!(pcsv.starts_with("t_clients,"));
        assert!(pcsv.contains("2,1,123.50,7.250,17,"));
        let tcsv = art.timeseries_csv();
        let lines: Vec<&str> = tcsv.lines().collect();
        assert_eq!(lines.len(), 3, "header + two samples");
        // One column per name any sample carries, sorted; a sample
        // without the name leaves its cell empty.
        assert_eq!(
            lines[0],
            "t_clients,a_clients,run,phase,t_secs,tick_secs,\
             harness.committed,openloop.shed_stale,repl.backlog"
        );
        assert_eq!(lines[1], "2,1,0,warmup,0.010000,0.005000,5,,1");
        assert_eq!(lines[2], "2,1,0,measure,0.050000,0.005000,6,4,3");
    }
}
