//! `hat-bench` — shared support for the per-figure reproduction harness
//! (`figures` binary) and the Criterion micro-benchmarks.
//!
//! The paper's evaluation (§6) runs three scale factors per system. This
//! reproduction maps them onto a single-core-friendly grid (see DESIGN.md's
//! substitution table): the *shapes* are compared, never the absolute
//! numbers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use hat_engine::HtapEngine;
use hattrick::artifact::{RunArtifact, RunConfig};
use hattrick::frontier::{build_grid, Frontier, SaturationConfig};
use hattrick::gen::{generate, GeneratedData, ScaleFactor};
use hattrick::harness::{BenchmarkConfig, Harness};
use hattrick::freshness::FreshnessAgg;
use hattrick::report;

/// The scale-factor roles of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfRole {
    /// Plays the paper's SF1: small enough that data contention dominates.
    Small,
    /// Plays the paper's SF10.
    Medium,
    /// Plays the paper's SF100: scan costs dominate analytics.
    Large,
}

impl SfRole {
    pub const ALL: [SfRole; 3] = [SfRole::Small, SfRole::Medium, SfRole::Large];

    /// Label used in file names and legends.
    pub fn label(self) -> &'static str {
        match self {
            SfRole::Small => "sf-small",
            SfRole::Medium => "sf-medium",
            SfRole::Large => "sf-large",
        }
    }

    /// The paper figure label this role substitutes for.
    pub fn paper_label(self) -> &'static str {
        match self {
            SfRole::Small => "SF1",
            SfRole::Medium => "SF10",
            SfRole::Large => "SF100",
        }
    }

    /// The actual scale factor, honoring quick mode.
    pub fn scale(self, quick: bool) -> ScaleFactor {
        let sf = match (self, quick) {
            (SfRole::Small, false) => 0.01,
            (SfRole::Medium, false) => 0.05,
            (SfRole::Large, false) => 0.25,
            (SfRole::Small, true) => 0.004,
            (SfRole::Medium, true) => 0.01,
            (SfRole::Large, true) => 0.04,
        };
        ScaleFactor(sf)
    }

    /// Warm-up / measurement durations, scaled with data size like the
    /// paper's per-SF periods (§6.1).
    pub fn durations(self, quick: bool) -> (Duration, Duration) {
        let (w, m) = match self {
            SfRole::Small => (120, 350),
            SfRole::Medium => (180, 500),
            SfRole::Large => (350, 1200),
        };
        let div = if quick { 2 } else { 1 };
        (Duration::from_millis(w / div), Duration::from_millis(m / div))
    }
}

/// Whether quick mode is active (`HATTRICK_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("HATTRICK_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The saturation configuration for the current mode.
pub fn saturation_config(quick: bool) -> SaturationConfig {
    if quick {
        SaturationConfig::quick()
    } else {
        SaturationConfig::default()
    }
}

/// Generates (and caches per-process) the dataset for a role.
pub fn dataset(role: SfRole, quick: bool) -> GeneratedData {
    generate(role.scale(quick), 0x5EED)
}

/// Builds a harness over a freshly loaded engine.
pub fn harness_for(
    engine: Arc<dyn HtapEngine>,
    data: &GeneratedData,
    role: SfRole,
    quick: bool,
) -> Harness {
    data.load_into(engine.as_ref()).expect("load failed");
    let (warmup, measure) = role.durations(quick);
    Harness::new(
        engine,
        data.profile.clone(),
        BenchmarkConfig { warmup, measure, seed: 0xBE7C, reset_between_points: true, ..Default::default() },
    )
}

/// Output directory for a figure, created on demand.
pub fn out_dir(fig: &str) -> PathBuf {
    let dir = Path::new("results").join(fig);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a string to `dir/name`, logging the path.
pub fn write_out(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write result file");
    println!("  wrote {}", path.display());
}

/// Result of one full grid + frontier run for a panel.
pub struct PanelResult {
    pub name: String,
    pub grid: hattrick::frontier::GridGraph,
    pub frontier: Frontier,
    /// Every grid measurement as a versioned run artifact — the same
    /// document `hatcli --metrics-out` writes.
    pub artifact: RunArtifact,
}

/// Builds the artifact for a measured panel from the harness that ran it.
pub fn panel_artifact(panel: &str, harness: &Harness) -> RunArtifact {
    let cfg = harness.config();
    RunArtifact::new(RunConfig {
        engine: format!("{panel} ({})", harness.engine().name()),
        scale_factor: harness.profile().scale,
        seed: cfg.seed,
        warmup_secs: cfg.warmup.as_secs_f64(),
        measure_secs: cfg.measure.as_secs_f64(),
        repeats: 1,
    })
}

/// Runs the saturation method for one engine/panel, writes CSVs plus the
/// metrics artifact, prints the ASCII frontier.
pub fn run_panel(
    fig_dir: &Path,
    panel: &str,
    harness: &Harness,
    cfg: &SaturationConfig,
) -> PanelResult {
    println!("-- panel {panel}");
    let grid = build_grid(harness, cfg);
    let frontier = Frontier::from_grid(&grid);
    let mut artifact = panel_artifact(panel, harness);
    for m in &grid.measurements {
        artifact.push_point(m.clone());
    }
    write_out(fig_dir, &format!("{panel}.grid.csv"), &report::grid_csv(&grid));
    write_out(
        fig_dir,
        &format!("{panel}.frontier.csv"),
        &report::frontier_csv(&frontier),
    );
    write_out(fig_dir, &format!("{panel}.artifact.json"), &artifact.dump());
    write_out(
        fig_dir,
        &format!("{panel}.timeseries.csv"),
        &artifact.timeseries_csv(),
    );
    write_out(
        fig_dir,
        &format!("{panel}.frontier.svg"),
        &hattrick::svg::frontier_svg(panel, &[(panel, &frontier)]),
    );
    write_out(
        fig_dir,
        &format!("{panel}.grid.svg"),
        &hattrick::svg::grid_svg(&format!("{panel} — grid graph"), &grid),
    );
    println!("{}", report::frontier_ascii(panel, &frontier));
    let (t_ret, a_ret) = grid.workload_retention();
    println!(
        "  tau_max={} alpha_max={} X_T={:.0} X_A={:.2} area_ratio={:.3} \
         class={:?} retention(T={:.2},A={:.2})",
        grid.tau_max,
        grid.alpha_max,
        grid.x_t,
        grid.x_a,
        frontier.area_ratio(),
        hattrick::frontier::classify(&frontier),
        t_ret,
        a_ret,
    );
    PanelResult { name: panel.to_string(), grid, frontier, artifact }
}

/// The paper's freshness ratio points: T:A = 20:80, 50:50, 80:20 over a
/// fixed total client count (§6.1 reports p99 freshness at f2/f5/f8).
pub const RATIO_POINTS: [(u32, u32); 3] = [(2, 8), (5, 5), (8, 2)];

/// Measures the three ratio points and returns `(label, agg, samples)`.
pub fn freshness_at_ratios(
    harness: &Harness,
) -> Vec<(String, FreshnessAgg, Vec<f64>)> {
    RATIO_POINTS
        .iter()
        .map(|&(t, a)| {
            let m = harness.run_point(t, a).expect("ratio point failed");
            let agg = FreshnessAgg::from_samples(&m.freshness);
            let label = format!("{}:{}", t * 10, a * 10);
            println!(
                "  freshness T:A={label}: p99={:.4}s mean={:.4}s over {} queries",
                agg.p99, agg.mean, agg.count
            );
            (label, agg, m.freshness)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_scale_monotonically() {
        for quick in [false, true] {
            let s = SfRole::Small.scale(quick).0;
            let m = SfRole::Medium.scale(quick).0;
            let l = SfRole::Large.scale(quick).0;
            assert!(s < m && m < l);
        }
        assert!(SfRole::Large.scale(true).0 < SfRole::Large.scale(false).0);
    }

    #[test]
    fn durations_scale_with_role() {
        let (_, small) = SfRole::Small.durations(false);
        let (_, large) = SfRole::Large.durations(false);
        assert!(large > small);
        let (_, quick_large) = SfRole::Large.durations(true);
        assert!(quick_large < large);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            SfRole::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), 3);
        assert_eq!(SfRole::Large.paper_label(), "SF100");
    }
}
