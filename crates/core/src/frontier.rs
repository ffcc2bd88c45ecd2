//! The throughput frontier (§3): saturation method, grid graph, frontier
//! extraction, annotations, and the design-category classifier.
//!
//! The saturation method (§3.3) first finds the client counts `τ_max` /
//! `α_max` that saturate each pure workload, then sweeps *fixed-T* lines
//! (τ fixed, α varied) and *fixed-A* lines (α fixed, τ varied). The
//! throughput frontier is assembled from the extreme point of every line
//! and reduced to its Pareto-maximal subset. The *proportional line* and
//! *bounding box* annotations (§3.2) and the area-based shape metric let
//! the benchmark tell performance isolation from proportional trade-off
//! from interference — which is how HATtrick "discovers the design
//! category" of the system under test (§2.3).

use crate::harness::{Harness, PointMeasurement};

/// One hybrid-throughput observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// Transactional throughput (tps).
    pub t: f64,
    /// Analytical throughput (qps).
    pub a: f64,
    pub t_clients: u32,
    pub a_clients: u32,
}

impl FrontierPoint {
    fn from_measurement(m: &PointMeasurement) -> Self {
        FrontierPoint {
            t: m.tps,
            a: m.qps,
            t_clients: m.t_clients,
            a_clients: m.a_clients,
        }
    }

    /// Whether this point dominates `other` (at least as good on both
    /// axes, strictly better on one).
    pub fn dominates(&self, other: &FrontierPoint) -> bool {
        self.t >= other.t && self.a >= other.a && (self.t > other.t || self.a > other.a)
    }
}

/// Which client count a measurement line holds fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedKind {
    /// τ fixed, α varied.
    FixedT,
    /// α fixed, τ varied.
    FixedA,
}

/// One fixed-T or fixed-A measurement series.
#[derive(Debug, Clone)]
pub struct GridLine {
    pub kind: FixedKind,
    /// The fixed client count.
    pub fixed_clients: u32,
    pub points: Vec<FrontierPoint>,
}

impl GridLine {
    /// The line's extreme point: maximum varied-axis throughput.
    pub fn extreme(&self) -> Option<FrontierPoint> {
        match self.kind {
            FixedKind::FixedT => self
                .points
                .iter()
                .copied()
                .max_by(|x, y| x.a.partial_cmp(&y.a).expect("no NaN")),
            FixedKind::FixedA => self
                .points
                .iter()
                .copied()
                .max_by(|x, y| x.t.partial_cmp(&y.t).expect("no NaN")),
        }
    }
}

/// The full grid graph (§3.2.1) plus saturation metadata.
#[derive(Debug, Clone)]
pub struct GridGraph {
    pub fixed_t: Vec<GridLine>,
    pub fixed_a: Vec<GridLine>,
    /// Clients that saturate the pure T workload.
    pub tau_max: u32,
    /// Clients that saturate the pure A workload.
    pub alpha_max: u32,
    /// Maximum pure transactional throughput `X_T`.
    pub x_t: f64,
    /// Maximum pure analytical throughput `X_A`.
    pub x_a: f64,
    /// Every raw measurement taken while building the grid.
    pub measurements: Vec<PointMeasurement>,
}

impl GridGraph {
    /// Workload-preference metrics from the grid's line slopes (§3.2.1):
    /// "the closer a fixed-T or fixed-A line is to be perpendicular to the
    /// axes the less the corresponding workload is affected by the
    /// increase of the other workload".
    ///
    /// Returns `(t_retention, a_retention)`, each in `[0, 1]`:
    /// * `t_retention` — across fixed-T lines, the fraction of a line's
    ///   starting T-throughput retained at its most A-loaded point
    ///   (1.0 = perfectly vertical lines; T unaffected by A clients).
    /// * `a_retention` — the dual for fixed-A lines.
    pub fn workload_retention(&self) -> (f64, f64) {
        let t_retention = retention(&self.fixed_t, |p| p.t);
        let a_retention = retention(&self.fixed_a, |p| p.a);
        (t_retention, a_retention)
    }

    /// Which workload the system favors under mixed load, from the grid
    /// slopes: positive means the T side retains more of its throughput
    /// than the A side (the system "prefers" T), negative the opposite.
    pub fn preference(&self) -> f64 {
        let (t, a) = self.workload_retention();
        t - a
    }
}

/// Mean retained fraction of the fixed axis across a line family.
fn retention(lines: &[GridLine], axis: impl Fn(&FrontierPoint) -> f64) -> f64 {
    let mut total = 0.0;
    let mut count = 0;
    for line in lines {
        // First point: the fixed workload alone (other count = 0); last
        // point: maximum other-side load.
        let (Some(first), Some(last)) = (line.points.first(), line.points.last())
        else {
            continue;
        };
        let base = axis(first);
        if base > 0.0 {
            total += (axis(last) / base).clamp(0.0, 1.0);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Saturation-method parameters (§3.3 uses 6 lines × 6 points).
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Fixed-T and fixed-A line count per family.
    pub lines: usize,
    /// Points measured per line.
    pub points_per_line: usize,
    /// Client-count cap for the saturation search.
    pub max_clients: u32,
    /// Relative throughput improvement below which the workload counts as
    /// saturated.
    pub epsilon: f64,
}

impl Default for SaturationConfig {
    fn default() -> Self {
        SaturationConfig {
            lines: 6,
            points_per_line: 6,
            // One-core budget: beyond ~16 clients, per-sleep scheduler
            // overhead (not engine work) dominates and pollutes the grid.
            max_clients: 16,
            epsilon: 0.05,
        }
    }
}

impl SaturationConfig {
    /// A cheaper 4×4 grid for smoke runs and tests.
    pub fn quick() -> Self {
        SaturationConfig { lines: 3, points_per_line: 3, max_clients: 8, epsilon: 0.10 }
    }
}

/// Finds the client count that saturates one pure workload by doubling
/// until the throughput gain drops below `epsilon`. Returns
/// `(clients, best observed throughput, measurements)`.
pub fn find_saturation(
    harness: &Harness,
    kind: FixedKind,
    cfg: &SaturationConfig,
) -> (u32, f64, Vec<PointMeasurement>) {
    let cap = match kind {
        FixedKind::FixedT => cfg.max_clients.min(crate::gen::MAX_TXN_CLIENTS),
        FixedKind::FixedA => cfg.max_clients,
    };
    let mut best_clients = 1;
    let mut best = f64::MIN;
    let mut measurements = Vec::new();
    let mut clients = 1u32;
    loop {
        let m = match kind {
            FixedKind::FixedT => harness.run_point(clients, 0),
            FixedKind::FixedA => harness.run_point(0, clients),
        }
        .expect("saturation point failed");
        let value = match kind {
            FixedKind::FixedT => m.tps,
            FixedKind::FixedA => m.qps,
        };
        measurements.push(m);
        let improved = value > best * (1.0 + cfg.epsilon);
        if value > best {
            best = value;
            best_clients = clients;
        }
        if clients >= cap || !improved && clients > 1 {
            break;
        }
        clients *= 2;
    }
    (best_clients, best.max(0.0), measurements)
}

/// Evenly spaced client levels `1..=max` (the paper "equally divides the
/// ranges [0, τ_max] and [0, α_max]"); zero is excluded for the fixed
/// value (a line fixed at zero clients is an axis) but included in the
/// varied direction.
fn levels(max: u32, count: usize, include_zero: bool) -> Vec<u32> {
    let mut out = Vec::new();
    let start = if include_zero { 0 } else { 1 };
    let steps = count.max(2) - 1;
    for i in 0..=steps {
        let v = start as f64
            + (max.saturating_sub(start) as f64) * i as f64 / steps as f64;
        out.push(v.round() as u32);
    }
    out.dedup();
    out.retain(|&v| include_zero || v >= 1);
    out
}

/// Runs the full saturation method: saturation searches plus both line
/// families (§3.3).
pub fn build_grid(harness: &Harness, cfg: &SaturationConfig) -> GridGraph {
    let (tau_max, x_t, mut measurements) =
        find_saturation(harness, FixedKind::FixedT, cfg);
    let (alpha_max, x_a, more) = find_saturation(harness, FixedKind::FixedA, cfg);
    measurements.extend(more);

    let t_levels = levels(tau_max, cfg.lines, false);
    let a_levels = levels(alpha_max, cfg.lines, false);
    // Sweeps extend slightly past saturation when the saturated count is
    // tiny, so lines have enough points to show their slope (§3.3 notes
    // the point count and spacing are tunable).
    let sweep_span = (cfg.points_per_line as u32).saturating_sub(1);
    let t_sweep = levels(
        tau_max.max(sweep_span).min(crate::gen::MAX_TXN_CLIENTS),
        cfg.points_per_line,
        true,
    );
    let a_sweep = levels(alpha_max.max(sweep_span), cfg.points_per_line, true);

    let mut fixed_t = Vec::new();
    for &tau in &t_levels {
        let mut points = Vec::new();
        for &alpha in &a_sweep {
            let m = harness.run_point(tau, alpha).expect("grid point failed");
            points.push(FrontierPoint::from_measurement(&m));
            measurements.push(m);
        }
        fixed_t.push(GridLine { kind: FixedKind::FixedT, fixed_clients: tau, points });
    }
    let mut fixed_a = Vec::new();
    for &alpha in &a_levels {
        let mut points = Vec::new();
        for &tau in &t_sweep {
            let m = harness.run_point(tau, alpha).expect("grid point failed");
            points.push(FrontierPoint::from_measurement(&m));
            measurements.push(m);
        }
        fixed_a.push(GridLine { kind: FixedKind::FixedA, fixed_clients: alpha, points });
    }

    GridGraph { fixed_t, fixed_a, tau_max, alpha_max, x_t, x_a, measurements }
}

/// The sampling method of Figure 1a: `n` random client mixes.
pub fn sample_random(
    harness: &Harness,
    n: usize,
    max_clients: u32,
    rng: &mut hat_common::rng::HatRng,
) -> Vec<PointMeasurement> {
    let cap_t = max_clients.min(crate::gen::MAX_TXN_CLIENTS);
    (0..n)
        .map(|_| {
            let tau = rng.range_u32(0, cap_t);
            let alpha = rng.range_u32(if tau == 0 { 1 } else { 0 }, max_clients);
            harness.run_point(tau, alpha).expect("sampled point failed")
        })
        .collect()
}

/// The throughput frontier: the Pareto-maximal boundary of observed hybrid
/// throughput.
#[derive(Debug, Clone)]
pub struct Frontier {
    /// Pareto points sorted by ascending T-throughput. Always includes the
    /// axis extremes `(X_T, 0)` and `(0, X_A)`.
    pub points: Vec<FrontierPoint>,
    pub x_t: f64,
    pub x_a: f64,
}

impl Frontier {
    /// Assembles the frontier from a grid graph: the extreme point of each
    /// line plus the pure-workload extremes, Pareto-filtered (§3.3: "made
    /// up from the highest point of each fixed-T and fixed-A line").
    pub fn from_grid(grid: &GridGraph) -> Frontier {
        let mut candidates: Vec<FrontierPoint> = grid
            .fixed_t
            .iter()
            .chain(&grid.fixed_a)
            .filter_map(|line| line.extreme())
            .collect();
        candidates.push(FrontierPoint {
            t: grid.x_t,
            a: 0.0,
            t_clients: grid.tau_max,
            a_clients: 0,
        });
        candidates.push(FrontierPoint {
            t: 0.0,
            a: grid.x_a,
            t_clients: 0,
            a_clients: grid.alpha_max,
        });
        let mut frontier = Frontier::from_points(candidates);
        // A noisy mixed point can out-measure a pure-workload run and so
        // evict an axis extreme. The region under the frontier is
        // down-closed, so re-anchor both ends on the axes at its own box.
        if frontier.points.first().is_some_and(|p| p.t > 0.0) {
            let a = frontier.x_a;
            let axis = FrontierPoint { t: 0.0, a, t_clients: 0, a_clients: grid.alpha_max };
            frontier.points.insert(0, axis);
        }
        if frontier.points.last().is_some_and(|p| p.a > 0.0) {
            let t = frontier.x_t;
            let axis = FrontierPoint { t, a: 0.0, t_clients: grid.tau_max, a_clients: 0 };
            frontier.points.push(axis);
        }
        frontier
    }

    /// Builds a frontier directly from observations (used by the sampling
    /// method and by tests).
    pub fn from_points(mut candidates: Vec<FrontierPoint>) -> Frontier {
        // Sort by descending t; keep points with strictly increasing a.
        candidates.sort_by(|p, q| {
            q.t.partial_cmp(&p.t)
                .expect("no NaN")
                .then(q.a.partial_cmp(&p.a).expect("no NaN"))
        });
        let mut pareto: Vec<FrontierPoint> = Vec::new();
        let mut best_a = f64::MIN;
        for p in candidates {
            if p.a > best_a {
                pareto.push(p);
                best_a = p.a;
            }
        }
        pareto.reverse(); // ascending t
        let x_t = pareto.iter().map(|p| p.t).fold(0.0, f64::max);
        let x_a = pareto.iter().map(|p| p.a).fold(0.0, f64::max);
        Frontier { points: pareto, x_t, x_a }
    }

    /// The analytical throughput the frontier supports at transactional
    /// throughput `t` (piecewise-linear interpolation; 0 beyond `X_T`).
    pub fn a_at(&self, t: f64) -> f64 {
        if self.points.is_empty() || t > self.x_t {
            return 0.0;
        }
        // points ascend in t and descend in a.
        let mut prev: Option<&FrontierPoint> = None;
        for p in &self.points {
            if p.t >= t {
                return match prev {
                    None => p.a,
                    Some(q) => {
                        let span = p.t - q.t;
                        if span <= f64::EPSILON {
                            p.a.max(q.a)
                        } else {
                            q.a + (p.a - q.a) * (t - q.t) / span
                        }
                    }
                };
            }
            prev = Some(p);
        }
        // t beyond the last point but within x_t: fall to the axis value.
        self.points.last().map_or(0.0, |p| if t <= p.t { p.a } else { 0.0 })
    }

    /// The proportional-line value at `t` (§3.2): linear interpolation
    /// between the frontier's two extreme points.
    pub fn proportional_at(&self, t: f64) -> f64 {
        if self.x_t <= 0.0 {
            return self.x_a;
        }
        (1.0 - t / self.x_t) * self.x_a
    }

    /// Area under the frontier divided by the bounding-box area. 0.5 means
    /// the frontier coincides with the proportional line; 1.0 means
    /// perfect performance isolation (frontier on the bounding box); below
    /// 0.5 means negative interference.
    pub fn area_ratio(&self) -> f64 {
        if self.x_t <= 0.0 || self.x_a <= 0.0 {
            return 0.0;
        }
        // Integrate the piecewise-linear upper boundary from t=0 to X_T,
        // anchored at (0, X_A) and (X_T, 0) which `from_grid` guarantees.
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let (p, q) = (&w[0], &w[1]);
            area += (q.t - p.t) * (p.a + q.a) / 2.0;
        }
        area / (self.x_t * self.x_a)
    }

    /// Whether this frontier's region completely envelops `other`'s (§6.6:
    /// "if the throughput frontier region of a system A completely
    /// envelops that of another system B ... system A is better").
    pub fn envelops(&self, other: &Frontier, samples: usize) -> bool {
        if self.x_t < other.x_t || self.x_a < other.x_a {
            return false;
        }
        (0..=samples).all(|i| {
            let t = other.x_t * i as f64 / samples as f64;
            self.a_at(t) + 1e-9 >= other.a_at(t)
        })
    }
}

/// What the frontier's shape says about the system (§3.2's three
/// patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// Close to the bounding box: performance isolation (isolated-design
    /// behaviour).
    Isolation,
    /// Close to the proportional line: proportional resource trade-off.
    Proportional,
    /// Below the proportional line, close to the axes: negative
    /// interference / contention.
    Interference,
}

impl ShapeClass {
    /// Human-readable description matching the paper's vocabulary.
    pub fn describe(self) -> &'static str {
        match self {
            ShapeClass::Isolation => {
                "above the proportional line, close to the bounding box: \
                 performance isolation (isolated-design behaviour)"
            }
            ShapeClass::Proportional => {
                "close to the proportional line: proportional T/A trade-off"
            }
            ShapeClass::Interference => {
                "below the proportional line, close to the axes: negative \
                 interference between the workloads"
            }
        }
    }
}

/// Classifies a frontier's shape from its area ratio.
///
/// Thresholds: the proportional line has ratio 0.5 exactly; we call
/// anything within ±0.10 proportional, above it isolation, below it
/// interference.
pub fn classify(frontier: &Frontier) -> ShapeClass {
    let r = frontier.area_ratio();
    if r >= 0.60 {
        ShapeClass::Isolation
    } else if r >= 0.40 {
        ShapeClass::Proportional
    } else {
        ShapeClass::Interference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t: f64, a: f64) -> FrontierPoint {
        FrontierPoint { t, a, t_clients: 0, a_clients: 0 }
    }

    #[test]
    fn dominance() {
        assert!(pt(2.0, 2.0).dominates(&pt(1.0, 2.0)));
        assert!(pt(2.0, 2.0).dominates(&pt(1.0, 1.0)));
        assert!(!pt(2.0, 1.0).dominates(&pt(1.0, 2.0)));
        assert!(!pt(1.0, 1.0).dominates(&pt(1.0, 1.0)), "equal is not strict");
    }

    #[test]
    fn pareto_filter_removes_dominated() {
        let f = Frontier::from_points(vec![
            pt(10.0, 0.0),
            pt(0.0, 5.0),
            pt(6.0, 3.0),
            pt(5.0, 2.0), // dominated by (6,3)
            pt(8.0, 2.0),
            pt(2.0, 4.0),
        ]);
        assert_eq!(f.x_t, 10.0);
        assert_eq!(f.x_a, 5.0);
        let ts: Vec<f64> = f.points.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![0.0, 2.0, 6.0, 8.0, 10.0]);
        // Ascending t, descending a.
        assert!(f.points.windows(2).all(|w| w[0].a >= w[1].a));
    }

    #[test]
    fn grid_frontier_reaches_both_axes_when_a_mixed_point_out_measures_them() {
        let line = |kind, p: FrontierPoint| GridLine { kind, fixed_clients: 1, points: vec![p] };
        let grid = GridGraph {
            // (12, 6) beats the pure-T run (10, 0) on both axes and the
            // pure-A run (0, 5) on A: it would evict both axis points.
            fixed_t: vec![line(FixedKind::FixedT, pt(12.0, 6.0))],
            fixed_a: vec![line(FixedKind::FixedA, pt(4.0, 5.0))],
            tau_max: 4,
            alpha_max: 2,
            x_t: 10.0,
            x_a: 5.0,
            measurements: Vec::new(),
        };
        let f = Frontier::from_grid(&grid);
        let ends: Vec<(f64, f64)> = f.points.iter().map(|p| (p.t, p.a)).collect();
        assert_eq!(ends, vec![(0.0, 6.0), (12.0, 6.0), (12.0, 0.0)]);
        assert_eq!(f.area_ratio(), 1.0, "the box is fully covered");
    }

    #[test]
    fn interpolation() {
        let f = Frontier::from_points(vec![pt(10.0, 0.0), pt(0.0, 10.0), pt(5.0, 8.0)]);
        assert!((f.a_at(0.0) - 10.0).abs() < 1e-9);
        assert!((f.a_at(2.5) - 9.0).abs() < 1e-9);
        assert!((f.a_at(5.0) - 8.0).abs() < 1e-9);
        assert!((f.a_at(10.0) - 0.0).abs() < 1e-9);
        assert_eq!(f.a_at(11.0), 0.0);
    }

    #[test]
    fn proportional_line() {
        let f = Frontier::from_points(vec![pt(10.0, 0.0), pt(0.0, 4.0)]);
        assert!((f.proportional_at(0.0) - 4.0).abs() < 1e-9);
        assert!((f.proportional_at(5.0) - 2.0).abs() < 1e-9);
        assert!((f.proportional_at(10.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn area_ratio_of_known_shapes() {
        // Pure triangle = proportional line = 0.5.
        let tri = Frontier::from_points(vec![pt(10.0, 0.0), pt(0.0, 10.0)]);
        assert!((tri.area_ratio() - 0.5).abs() < 1e-9);
        // Near-rectangle: isolation, ratio near 1.
        let rect = Frontier::from_points(vec![
            pt(10.0, 0.0),
            pt(9.9, 9.9),
            pt(0.0, 10.0),
        ]);
        assert!(rect.area_ratio() > 0.9);
        // Collapsed toward axes: interference.
        let axes = Frontier::from_points(vec![
            pt(10.0, 0.0),
            pt(1.0, 1.0),
            pt(0.0, 10.0),
        ]);
        assert!(axes.area_ratio() < 0.2);
    }

    #[test]
    fn classification_thresholds() {
        let tri = Frontier::from_points(vec![pt(10.0, 0.0), pt(0.0, 10.0)]);
        assert_eq!(classify(&tri), ShapeClass::Proportional);
        let rect = Frontier::from_points(vec![
            pt(10.0, 0.0),
            pt(9.5, 9.5),
            pt(0.0, 10.0),
        ]);
        assert_eq!(classify(&rect), ShapeClass::Isolation);
        let axes = Frontier::from_points(vec![
            pt(10.0, 0.0),
            pt(0.5, 0.5),
            pt(0.0, 10.0),
        ]);
        assert_eq!(classify(&axes), ShapeClass::Interference);
        assert!(ShapeClass::Isolation.describe().contains("isolation"));
    }

    #[test]
    fn envelopment() {
        let big = Frontier::from_points(vec![pt(10.0, 0.0), pt(8.0, 8.0), pt(0.0, 10.0)]);
        let small = Frontier::from_points(vec![pt(5.0, 0.0), pt(0.0, 5.0)]);
        assert!(big.envelops(&small, 50));
        assert!(!small.envelops(&big, 50));
        // Crossing frontiers: neither envelops.
        let tall = Frontier::from_points(vec![pt(3.0, 0.0), pt(0.0, 20.0)]);
        assert!(!big.envelops(&tall, 50));
        assert!(!tall.envelops(&big, 50));
    }

    #[test]
    fn levels_are_sane() {
        assert_eq!(levels(6, 6, false), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(levels(6, 6, true), vec![0, 1, 2, 4, 5, 6]);
        assert_eq!(levels(2, 6, false), vec![1, 2]);
        assert_eq!(levels(1, 3, true), vec![0, 1]);
    }

    fn grid_with(fixed_t: Vec<GridLine>, fixed_a: Vec<GridLine>) -> GridGraph {
        GridGraph {
            fixed_t,
            fixed_a,
            tau_max: 1,
            alpha_max: 1,
            x_t: 10.0,
            x_a: 10.0,
            measurements: Vec::new(),
        }
    }

    #[test]
    fn retention_of_perpendicular_lines_is_one() {
        // A fixed-T line that keeps its tps as α grows: perfect isolation.
        let grid = grid_with(
            vec![GridLine {
                kind: FixedKind::FixedT,
                fixed_clients: 2,
                points: vec![pt(8.0, 0.0), pt(8.0, 3.0), pt(8.0, 6.0)],
            }],
            vec![GridLine {
                kind: FixedKind::FixedA,
                fixed_clients: 2,
                points: vec![pt(0.0, 6.0), pt(4.0, 6.0), pt(8.0, 6.0)],
            }],
        );
        let (t, a) = grid.workload_retention();
        assert!((t - 1.0).abs() < 1e-9);
        assert!((a - 1.0).abs() < 1e-9);
        assert!(grid.preference().abs() < 1e-9);
    }

    #[test]
    fn retention_detects_workload_preference() {
        // T keeps 90% under A load; A keeps only 30% under T load: the
        // system favors the T workload.
        let grid = grid_with(
            vec![GridLine {
                kind: FixedKind::FixedT,
                fixed_clients: 2,
                points: vec![pt(10.0, 0.0), pt(9.0, 5.0)],
            }],
            vec![GridLine {
                kind: FixedKind::FixedA,
                fixed_clients: 2,
                points: vec![pt(0.0, 10.0), pt(7.0, 3.0)],
            }],
        );
        let (t, a) = grid.workload_retention();
        assert!((t - 0.9).abs() < 1e-9);
        assert!((a - 0.3).abs() < 1e-9);
        assert!(grid.preference() > 0.5);
    }

    #[test]
    fn retention_handles_empty_and_zero_lines() {
        let grid = grid_with(
            vec![GridLine { kind: FixedKind::FixedT, fixed_clients: 1, points: vec![] }],
            vec![GridLine {
                kind: FixedKind::FixedA,
                fixed_clients: 1,
                points: vec![pt(0.0, 0.0), pt(1.0, 0.0)],
            }],
        );
        let (t, a) = grid.workload_retention();
        assert_eq!(t, 0.0, "no usable fixed-T lines");
        assert_eq!(a, 0.0, "zero base throughput is skipped");
    }

    #[test]
    fn grid_line_extremes() {
        let line = GridLine {
            kind: FixedKind::FixedT,
            fixed_clients: 2,
            points: vec![pt(5.0, 1.0), pt(4.0, 3.0), pt(3.0, 2.0)],
        };
        let e = line.extreme().unwrap();
        assert_eq!(e.a, 3.0);
        let line = GridLine {
            kind: FixedKind::FixedA,
            fixed_clients: 2,
            points: vec![pt(5.0, 1.0), pt(4.0, 3.0)],
        };
        assert_eq!(line.extreme().unwrap().t, 5.0);
        let empty = GridLine { kind: FixedKind::FixedT, fixed_clients: 0, points: vec![] };
        assert!(empty.extreme().is_none());
    }
}
