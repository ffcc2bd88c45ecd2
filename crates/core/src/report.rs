//! Rendering of benchmark results: CSV series for plotting and ASCII
//! charts for terminal inspection.
//!
//! The paper communicates its metrics through three plot families — the
//! fixed-T lines, the fixed-A lines, and the throughput frontier with its
//! proportional-line and bounding-box annotations, plus freshness CDFs.
//! Every figure harness in `hat-bench` emits the CSV from here (one file
//! per panel, ready for any plotting tool) and prints the ASCII chart.

use std::fmt::Write as _;

use hat_common::telemetry::{names, MetricsSnapshot};

use crate::freshness::FreshnessAgg;
use crate::frontier::{classify, FixedKind, Frontier, GridGraph, ShardSweepEntry};

/// CSV of a frontier: `t_clients,a_clients,tps,qps`.
pub fn frontier_csv(frontier: &Frontier) -> String {
    let mut out = String::from("t_clients,a_clients,tps,qps\n");
    for p in &frontier.points {
        let _ = writeln!(out, "{},{},{:.2},{:.3}", p.t_clients, p.a_clients, p.t, p.a);
    }
    out
}

/// CSV of a grid graph: `kind,fixed_clients,t_clients,a_clients,tps,qps`.
pub fn grid_csv(grid: &GridGraph) -> String {
    let mut out = String::from("kind,fixed_clients,t_clients,a_clients,tps,qps\n");
    for line in grid.fixed_t.iter().chain(&grid.fixed_a) {
        let kind = match line.kind {
            FixedKind::FixedT => "fixed-T",
            FixedKind::FixedA => "fixed-A",
        };
        for p in &line.points {
            let _ = writeln!(
                out,
                "{kind},{},{},{},{:.2},{:.3}",
                line.fixed_clients, p.t_clients, p.a_clients, p.t, p.a
            );
        }
    }
    out
}

/// CSV of an empirical CDF: `seconds,fraction`.
pub fn cdf_csv(points: &[(f64, f64)]) -> String {
    let mut out = String::from("seconds,fraction\n");
    for (s, f) in points {
        let _ = writeln!(out, "{s:.6},{f:.6}");
    }
    out
}

/// A named series for ASCII plotting.
pub struct Series<'a> {
    pub name: &'a str,
    pub marker: char,
    pub points: Vec<(f64, f64)>,
}

/// Renders series into a terminal scatter plot with axes.
pub fn ascii_plot(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series<'_>],
    width: usize,
    height: usize,
) -> String {
    let width = width.max(16);
    let height = height.max(8);
    let x_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let y_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0_f64, f64::max)
        .max(1e-12);

    let mut canvas = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let col = ((x / x_max) * (width - 1) as f64).round() as usize;
            let row = ((y / y_max) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row;
            let cell = &mut canvas[row.min(height - 1)][col.min(width - 1)];
            // First series wins collisions except over blanks.
            if *cell == ' ' {
                *cell = s.marker;
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{y_label} (max {y_max:.2})");
    for row in canvas {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "|{line}");
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(out, " {x_label} (max {x_max:.2})");
    for s in series {
        let _ = writeln!(out, "   {} = {}", s.marker, s.name);
    }
    out
}

/// Renders a frontier chart with its proportional line annotation.
pub fn frontier_ascii(name: &str, frontier: &Frontier) -> String {
    let prop: Vec<(f64, f64)> = (0..=20)
        .map(|i| {
            let t = frontier.x_t * i as f64 / 20.0;
            (t, frontier.proportional_at(t))
        })
        .collect();
    let pts: Vec<(f64, f64)> = frontier.points.iter().map(|p| (p.t, p.a)).collect();
    ascii_plot(
        &format!("throughput frontier — {name}"),
        "T throughput (tps)",
        "A throughput (qps)",
        &[
            Series { name: "frontier", marker: 'o', points: pts },
            Series { name: "proportional line", marker: '.', points: prop },
        ],
        64,
        20,
    )
}

/// One-paragraph interpretation of a frontier + freshness result, in the
/// paper's vocabulary (§6.7: HATtrick "combines the above information into
/// a few simple metrics and presents them in a user friendly way").
pub fn summary(name: &str, frontier: &Frontier, freshness: &FreshnessAgg) -> String {
    let shape = classify(frontier);
    let mut out = String::new();
    let _ = writeln!(out, "== {name} ==");
    let _ = writeln!(
        out,
        "  X_T = {:.1} tps, X_A = {:.2} qps, frontier area ratio = {:.3}",
        frontier.x_t,
        frontier.x_a,
        frontier.area_ratio()
    );
    let _ = writeln!(out, "  shape: {}", shape.describe());
    if freshness.count > 0 {
        let _ = writeln!(
            out,
            "  freshness: mean {:.4}s, p99 {:.4}s, max {:.4}s, {:.0}% fresh",
            freshness.mean,
            freshness.p99,
            freshness.max,
            freshness.zero_fraction * 100.0
        );
    } else {
        let _ = writeln!(out, "  freshness: no samples");
    }
    out
}

/// The shard-scaling table of a multi-core sweep: pure-workload extremes
/// per shard count and T-axis speedup over the sweep's first entry.
pub fn shard_scaling(entries: &[ShardSweepEntry]) -> String {
    let mut out = String::from("shards  X_T(tps)    X_A(qps)  T-speedup\n");
    let Some(base) = entries.first() else { return out };
    for e in entries {
        let _ = writeln!(
            out,
            "{:>6}  {:>8.1}  {:>10.2}  {:>8.2}x",
            e.shards,
            e.grid.x_t,
            e.grid.x_a,
            e.t_speedup_over(base)
        );
    }
    out
}

/// One-line resilience accounting for a measured point: how the clients
/// coped with retryable failures, and how far replication fell behind.
/// Takes the point's *window* snapshot ([`PointMeasurement::metrics`]:
/// `harness.*` counters). Fault-free runs (all counters zero) report
/// "clean".
///
/// [`PointMeasurement::metrics`]: crate::harness::PointMeasurement
pub fn resilience_line(m: &MetricsSnapshot) -> String {
    let aborts = m.counter(names::HARNESS_ABORTS);
    let retries = m.counter(names::HARNESS_RETRIES);
    let timeouts = m.counter(names::HARNESS_TIMEOUTS);
    let gave_up = m.counter(names::HARNESS_GAVE_UP);
    let query_retries = m.counter(names::HARNESS_QUERY_RETRIES);
    let backlog_hwm = m.gauge(names::HARNESS_BACKLOG_HWM);
    if aborts == 0
        && retries == 0
        && timeouts == 0
        && gave_up == 0
        && query_retries == 0
        && backlog_hwm == 0
    {
        return "  resilience: clean (no retryable failures, backlog 0)".to_string();
    }
    format!(
        "  resilience: {aborts} aborts, {retries} retries, {timeouts} in-doubt commits, \
         {gave_up} gave up, {query_retries} query retries, backlog hwm {backlog_hwm}"
    )
}

/// One-line durability accounting: how many flushes the durability layer
/// issued, how well group commit batched concurrent commits, and what (if
/// anything) crash recovery replayed at startup. Takes the *cumulative*
/// snapshot ([`PointMeasurement::metrics_end`]: `wal.*` counters run
/// since engine start). Returns `None` when durability is off (nothing
/// to report).
///
/// [`PointMeasurement::metrics_end`]: crate::harness::PointMeasurement
pub fn durability_line(m: &MetricsSnapshot) -> Option<String> {
    let fsyncs = m.counter(names::WAL_FSYNCS);
    let replayed = m.counter(names::WAL_RECOVERY_REPLAYED);
    let torn = m.counter(names::WAL_TORN_TAILS);
    if fsyncs == 0 && replayed == 0 && torn == 0 {
        return None;
    }
    let (p50, p99) = m
        .histogram(names::WAL_GROUP_COMMIT_BATCH)
        .map_or((0.0, 0.0), |h| {
            (h.quantile(0.50) as f64, h.quantile(0.99) as f64)
        });
    let mut line = format!(
        "  durability: {fsyncs} fsyncs, group-commit batch p50 {p50:.1} / p99 {p99:.1}"
    );
    if replayed > 0 || torn > 0 {
        line.push_str(&format!(
            ", recovered {replayed} records ({torn} torn tails truncated)"
        ));
    }
    Some(line)
}

/// One-line storage-degradation accounting: how many disk faults the WAL
/// absorbed, how many commits were shed with retryable errors, how long
/// the engine sat below `Healthy`, and whether any segment is still
/// quarantined. Takes the *cumulative* snapshot
/// ([`PointMeasurement::metrics_end`]: `wal.*`/`health.*`/`disk.*`
/// counters run since engine start). Returns `None` for fault-free runs
/// (all counters zero and the health gauge at `Healthy`), so clean
/// reports stay clean.
///
/// [`PointMeasurement::metrics_end`]: crate::harness::PointMeasurement
pub fn degradation_line(m: &MetricsSnapshot) -> Option<String> {
    let faults = m.counter(names::DISK_FAULTS);
    let shed = m.counter(names::WAL_SHED_COMMITS);
    let degraded_ticks = m.counter(names::HEALTH_DEGRADED_TICKS);
    let scrub_passes = m.counter(names::WAL_SCRUB_PASSES);
    let quarantined = m.counter(names::WAL_QUARANTINED);
    let health = m.gauge(names::HEALTH_STATE);
    if faults == 0
        && shed == 0
        && degraded_ticks == 0
        && quarantined == 0
        && health == 0
    {
        return None;
    }
    let state = match health {
        0 => "healthy",
        1 => "degraded",
        _ => "recovering",
    };
    let mut line = format!(
        "  degradation: {faults} disk faults, {shed} commits shed (storage), \
         {degraded_ticks} degraded ticks, {scrub_passes} scrub passes, ended {state}"
    );
    if quarantined > 0 {
        line.push_str(&format!(", {quarantined} segments quarantined"));
    }
    Some(line)
}

/// One-line open-loop overload accounting: offered vs admitted vs
/// completed-within-deadline, sheds split by cause, retry-budget
/// activity, and the sojourn tail of executed requests. Takes the point
/// *window* snapshot ([`PointMeasurement::metrics`]: `openloop.*`
/// counters and the `openloop.sojourn` histogram, present only on runs
/// driven by `Harness::run_open_loop`). Returns `None` for closed-loop
/// runs so their reports are unchanged.
///
/// [`PointMeasurement::metrics`]: crate::harness::PointMeasurement
pub fn overload_line(m: &MetricsSnapshot) -> Option<String> {
    let offered = m.counter(names::OPENLOOP_OFFERED);
    if offered == 0 {
        return None;
    }
    let goodput = m.counter(names::OPENLOOP_GOODPUT);
    let missed = m.counter(names::OPENLOOP_DEADLINE_MISSED);
    let shed_queue = m.counter(names::OPENLOOP_SHED_QUEUE);
    let shed_stale = m.counter(names::OPENLOOP_SHED_STALE);
    let shed_degraded = m.counter(names::OPENLOOP_SHED_DEGRADED);
    let retries = m.counter(names::OPENLOOP_RETRIES);
    let denied = m.counter(names::OPENLOOP_RETRY_DENIED);
    let gave_up = m.counter(names::OPENLOOP_GAVE_UP);
    let pct = 100.0 * goodput as f64 / offered as f64;
    let mut line = format!(
        "  overload: offered {offered}, goodput {goodput} ({pct:.1}%), {missed} late, \
         shed {shed_queue}/{shed_stale} overload (queue/stale)"
    );
    if shed_degraded > 0 {
        line.push_str(&format!(" + {shed_degraded} degraded"));
    }
    line.push_str(&format!(
        ", retries {retries} ({denied} budget-denied), {gave_up} gave up"
    ));
    if let Some(h) = m.histogram(names::OPENLOOP_SOJOURN) {
        if !h.is_empty() {
            line.push_str(&format!(
                ", sojourn p50 {:.1}ms / p99 {:.1}ms / p999 {:.1}ms",
                h.quantile(0.50) as f64 / 1e6,
                h.quantile(0.99) as f64 / 1e6,
                h.quantile(0.999) as f64 / 1e6,
            ));
        }
    }
    Some(line)
}

/// One-line MVCC vacuum accounting: how many background passes ran, how
/// many dead versions they reclaimed, and how many versions remained
/// alive at the end of the run. Takes the *cumulative* snapshot
/// ([`PointMeasurement::metrics_end`]: `vacuum.*` counters run since
/// engine start). Returns `None` when the vacuum never ran and no
/// version count was sampled (e.g. `--no-vacuum` on a read-only run).
///
/// [`PointMeasurement::metrics_end`]: crate::harness::PointMeasurement
pub fn vacuum_line(m: &MetricsSnapshot) -> Option<String> {
    let passes = m.counter(names::VACUUM_PASSES);
    let pruned = m.counter(names::VACUUM_VERSIONS_PRUNED);
    let live = m.gauge(names::LIVE_VERSIONS);
    if passes == 0 && pruned == 0 && live == 0 {
        return None;
    }
    let mut line = format!(
        "  vacuum: {passes} passes, {pruned} versions pruned, {live} live"
    );
    if let Some(h) = m.histogram(names::VACUUM_CHAIN_LENGTH) {
        line.push_str(&format!(
            ", chain p50 {} / p99 {}",
            h.quantile(0.50),
            h.quantile(0.99)
        ));
    }
    Some(line)
}

/// One-line analytical-executor accounting: the largest worker pool a
/// query used, how many morsels the probe phases scanned vs. pruned via
/// zone maps, and the wall time spent probing. Takes the *cumulative*
/// snapshot ([`PointMeasurement::metrics_end`]: `scan.*`/`probe.*`
/// counters). Returns `None` when no analytical query ran.
///
/// [`PointMeasurement::metrics_end`]: crate::harness::PointMeasurement
pub fn analytics_line(m: &MetricsSnapshot) -> Option<String> {
    let scanned = m.counter(names::MORSELS_SCANNED);
    let pruned = m.counter(names::MORSELS_PRUNED);
    if scanned == 0 && pruned == 0 {
        return None;
    }
    let mut line = format!(
        "  analytics: {} workers max, {scanned} morsels scanned, {pruned} pruned, \
         probe {:.1}ms",
        m.gauge(names::PROBE_WORKERS_MAX),
        m.counter(names::PROBE_NANOS) as f64 / 1e6
    );
    let saturations = m.counter(names::AGG_SATURATIONS);
    if saturations > 0 {
        line.push_str(&format!(", {saturations} aggregate saturations"));
    }
    Some(line)
}

/// One-line vectorized-scan accounting: how many column batches the
/// kernels filtered, how many rows zone maps pruned before any batch was
/// read vs. how many the selection-vector kernels rejected, and the
/// columnar compression ratio (decoded-equivalent bytes over encoded
/// bytes). Takes the *cumulative* snapshot
/// ([`PointMeasurement::metrics_end`]: `scan.*` counters and
/// `colstore.*` gauges). Returns `None` when the vectorized path never
/// ran (scalar-only engines, or no analytical queries).
///
/// [`PointMeasurement::metrics_end`]: crate::harness::PointMeasurement
pub fn scan_line(m: &MetricsSnapshot) -> Option<String> {
    let batches = m.counter(names::SCAN_BATCHES);
    let pruned = m.counter(names::SCAN_ROWS_PRUNED);
    let filtered = m.counter(names::SCAN_ROWS_FILTERED);
    if batches == 0 && pruned == 0 && filtered == 0 {
        return None;
    }
    let mut line = format!(
        "  scan: {batches} batches, {pruned} rows pruned (zone maps), \
         {filtered} filtered (kernels)"
    );
    let encoded = m.gauge(names::COLSTORE_BYTES_ENCODED);
    let decoded = m.gauge(names::COLSTORE_BYTES_DECODED);
    if encoded > 0 && decoded > 0 {
        line.push_str(&format!(
            ", colstore {:.2}x compressed ({} -> {} bytes)",
            decoded as f64 / encoded as f64,
            decoded,
            encoded
        ));
    }
    Some(line)
}

/// One-line elastic-scheduler accounting: how many controller decisions
/// the run took, how many actually moved cores, the final `t/a` split,
/// and how many analytical queries the elastic side completed. Takes the
/// *window* snapshot ([`PointMeasurement::metrics`]: `sched.*` counters,
/// present only on runs driven under [`SchedPolicy::Elastic`]). Returns
/// `None` for static runs so their reports are unchanged.
///
/// [`PointMeasurement::metrics`]: crate::harness::PointMeasurement
/// [`SchedPolicy::Elastic`]: crate::sched::SchedPolicy
pub fn sched_line(m: &MetricsSnapshot) -> Option<String> {
    let decisions = m.counter(names::SCHED_DECISIONS);
    if decisions == 0 {
        return None;
    }
    let reassignments = m.counter(names::SCHED_REASSIGNMENTS);
    let a_queries = m.counter(names::SCHED_A_QUERIES);
    let t_cores = m.gauge(names::SCHED_T_CORES);
    let a_cores = m.gauge(names::SCHED_A_CORES);
    Some(format!(
        "  sched: {decisions} decisions, {reassignments} reassignments, \
         final split {t_cores}t/{a_cores}a, {a_queries} analytical queries"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::FrontierPoint;
    use hat_common::telemetry::HistogramSnapshot;

    fn frontier() -> Frontier {
        Frontier::from_points(vec![
            FrontierPoint { t: 100.0, a: 0.0, t_clients: 4, a_clients: 0 },
            FrontierPoint { t: 60.0, a: 6.0, t_clients: 2, a_clients: 2 },
            FrontierPoint { t: 0.0, a: 10.0, t_clients: 0, a_clients: 4 },
        ])
    }

    #[test]
    fn frontier_csv_has_header_and_rows() {
        let csv = frontier_csv(&frontier());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_clients,a_clients,tps,qps");
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("2,2,60.00,6.000"));
    }

    #[test]
    fn durability_line_elides_off_mode_and_reports_counters() {
        let off = MetricsSnapshot::new();
        assert!(durability_line(&off).is_none(), "nothing to say when durability is off");
        let mut flushed = MetricsSnapshot::new();
        flushed.set_counter(names::WAL_FSYNCS, 120);
        flushed.set_histogram(
            names::WAL_GROUP_COMMIT_BATCH,
            HistogramSnapshot::from_values(&[3, 3, 3, 9]),
        );
        let line = durability_line(&flushed).unwrap();
        assert!(line.contains("120 fsyncs"));
        assert!(line.contains("p50 3.0"));
        assert!(line.contains("p99 9.0"));
        assert!(!line.contains("recovered"), "no recovery counters on a clean start");
        flushed.set_counter(names::WAL_RECOVERY_REPLAYED, 42);
        flushed.set_counter(names::WAL_TORN_TAILS, 1);
        let line = durability_line(&flushed).unwrap();
        assert!(line.contains("recovered 42 records"));
        assert!(line.contains("1 torn tails truncated"));
    }

    #[test]
    fn analytics_line_elides_idle_points_and_reports_counters() {
        let idle = MetricsSnapshot::new();
        assert!(analytics_line(&idle).is_none(), "no queries ran, nothing to say");
        let mut busy = MetricsSnapshot::new();
        busy.set_gauge(names::PROBE_WORKERS_MAX, 8);
        busy.set_counter(names::MORSELS_SCANNED, 240);
        busy.set_counter(names::MORSELS_PRUNED, 60);
        busy.set_counter(names::PROBE_NANOS, 2_500_000);
        let line = analytics_line(&busy).unwrap();
        assert!(line.contains("8 workers max"));
        assert!(line.contains("240 morsels scanned"));
        assert!(line.contains("60 pruned"));
        assert!(line.contains("probe 2.5ms"));
        assert!(!line.contains("saturations"), "clamp counter elided when zero");
        busy.set_counter(names::AGG_SATURATIONS, 3);
        let line = analytics_line(&busy).unwrap();
        assert!(line.contains("3 aggregate saturations"));
    }

    #[test]
    fn scan_line_elides_scalar_runs_and_reports_ratio() {
        let idle = MetricsSnapshot::new();
        assert!(scan_line(&idle).is_none(), "scalar-only runs stay silent");
        let mut busy = MetricsSnapshot::new();
        busy.set_counter(names::SCAN_BATCHES, 50);
        busy.set_counter(names::SCAN_ROWS_PRUNED, 8192);
        busy.set_counter(names::SCAN_ROWS_FILTERED, 3000);
        let line = scan_line(&busy).unwrap();
        assert!(line.contains("50 batches"));
        assert!(line.contains("8192 rows pruned (zone maps)"));
        assert!(line.contains("3000 filtered (kernels)"));
        assert!(!line.contains("compressed"), "ratio elided without gauges");
        busy.set_gauge(names::COLSTORE_BYTES_ENCODED, 1_000);
        busy.set_gauge(names::COLSTORE_BYTES_DECODED, 4_000);
        let line = scan_line(&busy).unwrap();
        assert!(line.contains("4.00x compressed"));
        assert!(line.contains("4000 -> 1000 bytes"));
    }

    #[test]
    fn degradation_line_elides_clean_runs_and_reports_counters() {
        let clean = MetricsSnapshot::new();
        assert!(degradation_line(&clean).is_none(), "fault-free runs stay silent");
        let mut hurt = MetricsSnapshot::new();
        hurt.set_counter(names::DISK_FAULTS, 6);
        hurt.set_counter(names::WAL_SHED_COMMITS, 11);
        hurt.set_counter(names::HEALTH_DEGRADED_TICKS, 4);
        hurt.set_counter(names::WAL_SCRUB_PASSES, 2);
        let line = degradation_line(&hurt).unwrap();
        assert!(line.contains("6 disk faults"));
        assert!(line.contains("11 commits shed (storage)"));
        assert!(line.contains("4 degraded ticks"));
        assert!(line.contains("2 scrub passes"));
        assert!(line.contains("ended healthy"));
        assert!(!line.contains("quarantined"), "quarantine elided when zero");
        hurt.set_counter(names::WAL_QUARANTINED, 1);
        hurt.set_gauge(names::HEALTH_STATE, 1);
        let line = degradation_line(&hurt).unwrap();
        assert!(line.contains("ended degraded"));
        assert!(line.contains("1 segments quarantined"));
        // A run that ends below Healthy reports even with zero counters.
        let mut stuck = MetricsSnapshot::new();
        stuck.set_gauge(names::HEALTH_STATE, 2);
        assert!(degradation_line(&stuck).unwrap().contains("ended recovering"));
    }

    #[test]
    fn overload_line_elides_closed_loop_and_reports_goodput() {
        let closed = MetricsSnapshot::new();
        assert!(overload_line(&closed).is_none(), "closed-loop runs stay silent");
        let mut m = MetricsSnapshot::new();
        m.set_counter(names::OPENLOOP_OFFERED, 1000);
        m.set_counter(names::OPENLOOP_GOODPUT, 900);
        m.set_counter(names::OPENLOOP_DEADLINE_MISSED, 20);
        m.set_counter(names::OPENLOOP_SHED_QUEUE, 5);
        m.set_counter(names::OPENLOOP_SHED_STALE, 40);
        m.set_counter(names::OPENLOOP_RETRIES, 33);
        m.set_counter(names::OPENLOOP_RETRY_DENIED, 8);
        m.set_counter(names::OPENLOOP_GAVE_UP, 12);
        let line = overload_line(&m).unwrap();
        assert!(line.contains("offered 1000"));
        assert!(line.contains("goodput 900 (90.0%)"));
        assert!(line.contains("20 late"));
        assert!(line.contains("shed 5/40 overload (queue/stale)"));
        assert!(!line.contains("degraded"), "degraded sheds elided when zero");
        assert!(line.contains("retries 33 (8 budget-denied)"));
        assert!(line.contains("12 gave up"));
        assert!(!line.contains("sojourn"), "histogram elided when absent");
        m.set_counter(names::OPENLOOP_SHED_DEGRADED, 3);
        m.set_histogram(
            names::OPENLOOP_SOJOURN,
            HistogramSnapshot::from_values(&[2_000_000, 4_000_000, 30_000_000]),
        );
        let line = overload_line(&m).unwrap();
        assert!(line.contains("+ 3 degraded"));
        assert!(line.contains("sojourn p50"));
        assert!(line.contains("p999"));
    }

    #[test]
    fn sched_line_elides_static_runs_and_reports_split() {
        let static_run = MetricsSnapshot::new();
        assert!(sched_line(&static_run).is_none(), "static runs stay silent");
        let mut m = MetricsSnapshot::new();
        m.set_counter(names::SCHED_DECISIONS, 60);
        m.set_counter(names::SCHED_REASSIGNMENTS, 4);
        m.set_counter(names::SCHED_A_QUERIES, 210);
        m.set_gauge(names::SCHED_T_CORES, 3);
        m.set_gauge(names::SCHED_A_CORES, 1);
        let line = sched_line(&m).unwrap();
        assert!(line.contains("60 decisions"));
        assert!(line.contains("4 reassignments"));
        assert!(line.contains("final split 3t/1a"));
        assert!(line.contains("210 analytical queries"));
    }

    #[test]
    fn vacuum_line_elides_idle_runs_and_reports_counters() {
        let idle = MetricsSnapshot::new();
        assert!(vacuum_line(&idle).is_none(), "vacuum never ran, nothing to say");
        let mut busy = MetricsSnapshot::new();
        busy.set_counter(names::VACUUM_PASSES, 40);
        busy.set_counter(names::VACUUM_VERSIONS_PRUNED, 12_000);
        busy.set_gauge(names::LIVE_VERSIONS, 600);
        let line = vacuum_line(&busy).unwrap();
        assert!(line.contains("40 passes"));
        assert!(line.contains("12000 versions pruned"));
        assert!(line.contains("600 live"));
        assert!(!line.contains("chain"), "histogram elided when absent");
        busy.set_histogram(
            names::VACUUM_CHAIN_LENGTH,
            HistogramSnapshot::from_values(&[1, 1, 2, 9]),
        );
        let line = vacuum_line(&busy).unwrap();
        assert!(line.contains("chain p50 1 / p99 9"));
    }

    #[test]
    fn cdf_csv_rows() {
        let csv = cdf_csv(&[(0.0, 0.5), (1.5, 1.0)]);
        assert!(csv.contains("seconds,fraction"));
        assert!(csv.contains("1.500000,1.000000"));
    }

    #[test]
    fn ascii_plot_contains_markers_and_legend() {
        let plot = ascii_plot(
            "demo",
            "x",
            "y",
            &[Series { name: "stuff", marker: '*', points: vec![(1.0, 1.0), (2.0, 0.5)] }],
            32,
            10,
        );
        assert!(plot.contains('*'));
        assert!(plot.contains("demo"));
        assert!(plot.contains("* = stuff"));
        assert!(plot.contains("max 2.00"));
    }

    #[test]
    fn ascii_plot_handles_empty_series() {
        let plot = ascii_plot("empty", "x", "y", &[], 20, 8);
        assert!(plot.contains("empty"));
    }

    #[test]
    fn frontier_ascii_draws_both_series() {
        let plot = frontier_ascii("test-engine", &frontier());
        assert!(plot.contains('o'));
        assert!(plot.contains('.'));
        assert!(plot.contains("proportional line"));
    }

    #[test]
    fn resilience_line_elides_clean_runs_and_reports_counters() {
        let clean = MetricsSnapshot::new();
        assert!(resilience_line(&clean).contains("clean"));
        let mut noisy = MetricsSnapshot::new();
        noisy.set_counter(names::HARNESS_ABORTS, 4);
        noisy.set_counter(names::HARNESS_RETRIES, 3);
        noisy.set_counter(names::HARNESS_TIMEOUTS, 2);
        noisy.set_counter(names::HARNESS_GAVE_UP, 1);
        noisy.set_counter(names::HARNESS_QUERY_RETRIES, 5);
        noisy.set_gauge(names::HARNESS_BACKLOG_HWM, 17);
        let line = resilience_line(&noisy);
        assert!(line.contains("4 aborts"));
        assert!(line.contains("3 retries"));
        assert!(line.contains("2 in-doubt commits"));
        assert!(line.contains("1 gave up"));
        assert!(line.contains("5 query retries"));
        assert!(line.contains("backlog hwm 17"));
    }

    #[test]
    fn summary_reports_metrics() {
        let agg = FreshnessAgg::from_samples(&[0.0, 0.1, 0.2]);
        let s = summary("engine-x", &frontier(), &agg);
        assert!(s.contains("engine-x"));
        assert!(s.contains("X_T = 100.0"));
        assert!(s.contains("p99"));
        let s = summary("engine-y", &frontier(), &FreshnessAgg::default());
        assert!(s.contains("no samples"));
    }
}
