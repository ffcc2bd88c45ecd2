//! The unified telemetry layer: typed metric instruments, a registry,
//! diffable/mergeable snapshots, and a dependency-free JSON codec.
//!
//! Every engine counter, span timing, and latency distribution in the
//! workspace flows through these types instead of ad-hoc `AtomicU64`
//! fields and raw `Vec<u64>` sample logs:
//!
//! * [`Counter`] — monotonically increasing `u64` (commits, fsyncs).
//! * [`Gauge`] — last-writer-wins level (replication backlog, delta rows).
//! * [`Histogram`] — lock-free log-linear histogram for latencies and
//!   batch sizes. Recording touches only atomics; snapshots are
//!   *mergeable* (exact: bucket counts add) so repeated benchmark runs
//!   average correctly (§6.1's "average of three executions").
//! * [`MetricsRegistry`] — names instruments and snapshots them all at
//!   once into a [`MetricsSnapshot`], which is diffable (measurement
//!   windows), mergeable (repeated runs), and serializable (the
//!   machine-readable run artifact).
//!
//! Hot-path discipline: `record`/`add`/`set` never lock or allocate; the
//! registry's mutex is taken only at registration and snapshot time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod json;

use json::Json;

/// Canonical metric names, shared by producers (engines, harness) and
/// consumers (reports, artifacts) so a metric is added in exactly one
/// place and flows everywhere by name.
pub mod names {
    pub const TXN_COMMITS: &str = "txn.commits";
    pub const TXN_ABORTS: &str = "txn.aborts";
    pub const TXN_REPL_TIMEOUTS: &str = "txn.replication_timeouts";
    pub const QUERIES: &str = "query.executed";
    pub const MORSELS_SCANNED: &str = "scan.morsels_scanned";
    pub const MORSELS_PRUNED: &str = "scan.morsels_pruned";
    /// Scan batches pulled by the vectorized probe path.
    pub const SCAN_BATCHES: &str = "scan.batches";
    /// Fact rows skipped unscanned because morsel zone maps cannot
    /// satisfy the query's zone checks.
    pub const SCAN_ROWS_PRUNED: &str = "scan.rows_pruned_zonemap";
    /// Fact rows removed by the vectorized filter kernels.
    pub const SCAN_ROWS_FILTERED: &str = "scan.rows_filtered_vectorized";
    /// Compressed bytes resident in columnar segments (gauge).
    pub const COLSTORE_BYTES_ENCODED: &str = "colstore.bytes_encoded";
    /// Bytes those segments would occupy fully decoded (gauge); the
    /// encoded/decoded ratio is the compression ratio.
    pub const COLSTORE_BYTES_DECODED: &str = "colstore.bytes_decoded_equiv";
    pub const PROBE_NANOS: &str = "probe.nanos";
    /// Fact join keys the vectorized probe looked up, summed over joins.
    pub const PROBE_JOIN_LOOKUPS: &str = "probe.join_lookups";
    /// Fact rows the vectorized probe folded into an aggregate.
    pub const PROBE_ROWS_AGGREGATED: &str = "probe.rows_aggregated";
    pub const PROBE_WORKERS_MAX: &str = "probe.workers_max";
    pub const AGG_SATURATIONS: &str = "agg.saturations";
    /// End-to-end commit call duration (install + durability wait), ns.
    pub const SPAN_COMMIT: &str = "span.commit";
    /// Snapshot/view acquisition before a query (read-index waits,
    /// delta merges, snapshot loads), ns.
    pub const SPAN_SNAPSHOT: &str = "span.snapshot_acquire";
    /// Dimension hash-build phase of a query, ns.
    pub const SPAN_QUERY_BUILD: &str = "span.query_build";
    /// Fact probe phase of a query, ns.
    pub const SPAN_QUERY_PROBE: &str = "span.query_probe";
    pub const WAL_FSYNCS: &str = "wal.fsyncs";
    /// Commits acknowledged per durability flush (group-commit batch).
    pub const WAL_GROUP_COMMIT_BATCH: &str = "wal.group_commit_batch";
    pub const WAL_RECOVERY_REPLAYED: &str = "wal.recovery_replayed";
    pub const WAL_TORN_TAILS: &str = "wal.torn_tail_truncations";
    /// Commits shed with a retryable `Degraded` error (storage fault or
    /// group-commit backlog at its bound) instead of being queued.
    pub const WAL_SHED_COMMITS: &str = "wal.shed_commits";
    /// Engine health gauge: 0 healthy, 1 WAL stopped by a storage fault.
    pub const HEALTH_STATE: &str = "health.state";
    /// Faults injected by a seeded `DiskFaultPlan` (chaos runs only).
    pub const DISK_FAULTS: &str = "disk.faults_injected";
    /// Never recorded, so it reads 0; kept only because `benchmark/`
    /// reads it.
    pub const ADMIT_TXN_SHED: &str = "admission.txn.shed";
    /// Open-loop driver accounting. `offered` is what the arrival
    /// schedule generated (the independent variable); `completed` is
    /// what finished successfully; `goodput` the subset that finished
    /// within its deadline. Sheds are split by where/why the request
    /// died: at the harness's bounded arrival queue, at dequeue for a
    /// stale sojourn, or by storage degradation (`Degraded`).
    pub const OPENLOOP_OFFERED: &str = "openloop.offered";
    pub const OPENLOOP_STARTED: &str = "openloop.started";
    pub const OPENLOOP_COMPLETED: &str = "openloop.completed";
    pub const OPENLOOP_GOODPUT: &str = "openloop.goodput";
    pub const OPENLOOP_DEADLINE_MISSED: &str = "openloop.deadline_missed";
    pub const OPENLOOP_SHED_QUEUE: &str = "openloop.shed_queue";
    /// Requests shed at dequeue because their queue sojourn had already
    /// exceeded the deadline budget (CoDel-style: never spend service
    /// time on work whose client has given up).
    pub const OPENLOOP_SHED_STALE: &str = "openloop.shed_stale";
    pub const OPENLOOP_SHED_DEGRADED: &str = "openloop.shed_degraded";
    /// Retries attempted vs denied by the client-side retry budget
    /// (denied retries become `gave_up`, preventing retry storms).
    pub const OPENLOOP_RETRIES: &str = "openloop.retries";
    pub const OPENLOOP_RETRY_DENIED: &str = "openloop.retry_denied";
    pub const OPENLOOP_GAVE_UP: &str = "openloop.gave_up";
    /// Enqueue-to-completion nanoseconds for every finished request
    /// (the p50/p99/p999 sojourn signal of the overload report).
    pub const OPENLOOP_SOJOURN: &str = "openloop.sojourn";
    /// Elastic scheduler accounting: controller steps taken, split
    /// *changes* among them, analytical queries completed by the elastic
    /// A-side driver, and the final `(t, a)` core split as gauges. All
    /// zero in static runs, which is what elides the report line.
    pub const SCHED_DECISIONS: &str = "sched.decisions";
    pub const SCHED_REASSIGNMENTS: &str = "sched.reassignments";
    pub const SCHED_A_QUERIES: &str = "sched.a_queries";
    pub const SCHED_T_CORES: &str = "sched.t_cores";
    pub const SCHED_A_CORES: &str = "sched.a_cores";
    pub const REPL_BACKLOG: &str = "repl.backlog";
    pub const DELTA_ROWS: &str = "delta.rows";
    /// Background MVCC vacuum passes completed.
    pub const VACUUM_PASSES: &str = "vacuum.passes";
    /// Row versions reclaimed by vacuum (all passes, all tables).
    pub const VACUUM_VERSIONS_PRUNED: &str = "vacuum.versions_pruned";
    /// Dead secondary-index entries reclaimed by the vacuum sweep
    /// (lineorder composite indexes; entries whose rid has no live slot).
    pub const VACUUM_INDEX_SWEPT: &str = "vacuum.index_entries_swept";
    /// Live MVCC versions across every chain in the row store (gauge;
    /// the long-run memory-plateau signal).
    pub const LIVE_VERSIONS: &str = "vacuum.live_versions";
    /// Pre-prune chain length of each slot a vacuum pass visited.
    pub const VACUUM_CHAIN_LENGTH: &str = "vacuum.chain_length";
    pub const HARNESS_COMMITTED: &str = "harness.committed";
    pub const HARNESS_QUERIES: &str = "harness.queries";
    pub const HARNESS_ABORTS: &str = "harness.aborts";
    pub const HARNESS_RETRIES: &str = "harness.retries";
    pub const HARNESS_TIMEOUTS: &str = "harness.timeouts";
    pub const HARNESS_GAVE_UP: &str = "harness.gave_up";
    pub const HARNESS_QUERY_RETRIES: &str = "harness.query_retries";
    pub const HARNESS_BACKLOG_HWM: &str = "harness.backlog_hwm";
    /// Mean freshness score (ns) of the queries that finished in one
    /// tick; a time-series gauge, absent from ticks with no query.
    pub const HARNESS_FRESHNESS_LAG_NS: &str = "harness.freshness_lag_ns";
    /// Per-label latency histograms are nested under these prefixes.
    pub const LATENCY_TXN_PREFIX: &str = "latency.txn.";
    pub const LATENCY_QUERY_PREFIX: &str = "latency.query.";
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins level (may go up or down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is higher (high-water marks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log-linear bucket layout: values below 32 get exact unit buckets;
/// above, each power-of-two octave is split into 16 linear sub-buckets,
/// so the relative bucket width is at most 1/16 (6.25%) everywhere.
const SUBBUCKETS: usize = 16;
/// Total buckets covering the whole `u64` range.
pub const HIST_BUCKETS: usize = 16 * 61;

/// Index of the bucket containing `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 * SUBBUCKETS as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize; // e >= 5
        let sub = ((v >> (e - 4)) & 0xF) as usize;
        SUBBUCKETS * (e - 3) + sub
    }
}

/// Smallest value that lands in bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i < 2 * SUBBUCKETS {
        i as u64
    } else {
        let e = i / SUBBUCKETS + 3;
        let sub = (i % SUBBUCKETS) as u64;
        (SUBBUCKETS as u64 + sub) << (e - 4)
    }
}

/// Largest value that lands in bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

/// A lock-free log-linear histogram. `record` is atomics-only; the full
/// bucket array (~8 KiB) is allocated once at registration.
pub struct Histogram {
    buckets: Box<[AtomicU64; HIST_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array from a vec.
        let v: Vec<AtomicU64> = (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; HIST_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("sized");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (concurrent recorders may
    /// land between bucket and count reads; totals stay monotone).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An immutable histogram state: sparse `(bucket, count)` pairs plus
/// exact `count`/`sum`/`min`/`max`. Merging adds bucket counts (exact and
/// order-independent); diffing subtracts them (windowed views).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Sparse, sorted by bucket index; zero-count buckets omitted.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw values (tests, adapters).
    pub fn from_values(values: &[u64]) -> Self {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the q-th observation, clamped to the exact observed
    /// maximum — so the error is at most one bucket width (≤ 6.25%
    /// relative).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// Adds another snapshot's observations (exact; associative and
    /// commutative, so repeated-run merges are order-independent).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        if self.count == 0 {
            return other.clone();
        }
        if other.count == 0 {
            return self.clone();
        }
        let mut buckets = self.buckets.clone();
        for &(i, n) in &other.buckets {
            match buckets.binary_search_by_key(&i, |&(b, _)| b) {
                Ok(pos) => buckets[pos].1 += n,
                Err(pos) => buckets.insert(pos, (i, n)),
            }
        }
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            buckets,
        }
    }

    /// Observations recorded since `earlier` (bucket-wise subtraction).
    /// `min`/`max` cannot be un-merged, so the window inherits the
    /// cumulative extremes — an over-approximation, never an invention.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for &(i, n) in &self.buckets {
            let before = earlier
                .buckets
                .binary_search_by_key(&i, |&(b, _)| b)
                .map(|pos| earlier.buckets[pos].1)
                .unwrap_or(0);
            let d = n.saturating_sub(before);
            if d > 0 {
                buckets.push((i, d));
            }
        }
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 && buckets.is_empty() {
            return HistogramSnapshot::default();
        }
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::from_u64(self.count)),
            ("sum".into(), Json::from_u64(self.sum)),
            ("min".into(), Json::from_u64(self.min)),
            ("max".into(), Json::from_u64(self.max)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| {
                            Json::Arr(vec![Json::from_u64(i as u64), Json::from_u64(n)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let buckets = j
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram: missing buckets")?
            .iter()
            .map(|pair| {
                let p = pair.as_arr().filter(|p| p.len() == 2).ok_or("bad bucket pair")?;
                Ok((
                    p[0].as_u64().ok_or("bad bucket index")? as u32,
                    p[1].as_u64().ok_or("bad bucket count")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let field = |name: &str| {
            j.get(name).and_then(Json::as_u64).ok_or_else(|| format!("histogram: missing {name}"))
        };
        Ok(HistogramSnapshot {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            buckets,
        })
    }
}

/// Times a named span; finish into any [`Histogram`]. Cost: two
/// `Instant::now` calls and one histogram record.
#[derive(Debug)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    #[inline]
    pub fn start() -> Self {
        SpanTimer { start: Instant::now() }
    }

    /// Elapsed nanoseconds so far.
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records the elapsed time into `hist`.
    #[inline]
    pub fn finish(self, hist: &Histogram) {
        hist.record(self.elapsed_nanos());
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Names instruments and snapshots them all at once. Registration and
/// snapshotting take a mutex; the returned `Arc` handles are what hot
/// paths touch, lock-free.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<(String, Instrument)>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().map(|v| v.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry").field("instruments", &n).finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (n, i) in inner.iter() {
            if n == name {
                if let Instrument::Counter(c) = i {
                    return Arc::clone(c);
                }
                panic!("metric {name} re-registered with a different type");
            }
        }
        let c = Arc::new(Counter::new());
        inner.push((name.to_string(), Instrument::Counter(Arc::clone(&c))));
        c
    }

    /// Registers (or retrieves) a gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (n, i) in inner.iter() {
            if n == name {
                if let Instrument::Gauge(g) = i {
                    return Arc::clone(g);
                }
                panic!("metric {name} re-registered with a different type");
            }
        }
        let g = Arc::new(Gauge::new());
        inner.push((name.to_string(), Instrument::Gauge(Arc::clone(&g))));
        g
    }

    /// Registers (or retrieves) a histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (n, i) in inner.iter() {
            if n == name {
                if let Instrument::Histogram(h) = i {
                    return Arc::clone(h);
                }
                panic!("metric {name} re-registered with a different type");
            }
        }
        let h = Arc::new(Histogram::new());
        inner.push((name.to_string(), Instrument::Histogram(Arc::clone(&h))));
        h
    }

    /// Reads every instrument into one snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, instrument) in inner.iter() {
            match instrument {
                Instrument::Counter(c) => snap.set_counter(name, c.get()),
                Instrument::Gauge(g) => snap.set_gauge(name, g.get()),
                Instrument::Histogram(h) => snap.set_histogram(name, h.snapshot()),
            }
        }
        snap
    }
}

/// A point-in-time reading of a set of named metrics. Diffable (window
/// between two snapshots), mergeable (repeated runs), serializable (the
/// run artifact). Entries are kept sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

fn sorted_set<T>(entries: &mut Vec<(String, T)>, name: &str, value: T) {
    match entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(pos) => entries[pos].1 = value,
        Err(pos) => entries.insert(pos, (name.to_string(), value)),
    }
}

fn sorted_get<'a, T>(entries: &'a [(String, T)], name: &str) -> Option<&'a T> {
    entries
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()
        .map(|pos| &entries[pos].1)
}

impl MetricsSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter value, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        sorted_get(&self.counters, name).copied().unwrap_or(0)
    }

    /// Gauge value, zero when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        sorted_get(&self.gauges, name).copied().unwrap_or(0)
    }

    /// Histogram state, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        sorted_get(&self.histograms, name)
    }

    pub fn set_counter(&mut self, name: &str, v: u64) {
        sorted_set(&mut self.counters, name, v);
    }

    pub fn set_gauge(&mut self, name: &str, v: u64) {
        sorted_set(&mut self.gauges, name, v);
    }

    pub fn set_histogram(&mut self, name: &str, h: HistogramSnapshot) {
        sorted_set(&mut self.histograms, name, h);
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> &[(String, u64)] {
        &self.gauges
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> &[(String, HistogramSnapshot)] {
        &self.histograms
    }

    /// Histograms whose name starts with `prefix`, as `(suffix, hist)`.
    pub fn histograms_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a HistogramSnapshot)> + 'a {
        self.histograms
            .iter()
            .filter_map(move |(n, h)| n.strip_prefix(prefix).map(|s| (s, h)))
    }

    /// What happened between `earlier` and `self`: counters and
    /// histograms subtract (saturating, so concurrent-sampling skew never
    /// goes negative); gauges keep their later value.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let d = match earlier.histogram(n) {
                    Some(e) => h.diff(e),
                    None => h.clone(),
                };
                (n.clone(), d)
            })
            .collect();
        MetricsSnapshot { counters, gauges: self.gauges.clone(), histograms }
    }

    /// Combines two windows: counters and histograms add, gauges take the
    /// maximum. Associative and commutative.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (n, v) in &other.counters {
            let cur = out.counter(n);
            out.set_counter(n, cur + v);
        }
        for (n, v) in &other.gauges {
            let cur = sorted_get(&out.gauges, n).copied();
            out.set_gauge(n, cur.map_or(*v, |c| c.max(*v)));
        }
        for (n, h) in &other.histograms {
            let merged = match out.histogram(n) {
                Some(mine) => mine.merge(h),
                None => h.clone(),
            };
            out.set_histogram(n, merged);
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let obj = |entries: &[(String, u64)]| {
            Json::Obj(
                entries.iter().map(|(n, v)| (n.clone(), Json::from_u64(*v))).collect(),
            )
        };
        Json::Obj(vec![
            ("counters".into(), obj(&self.counters)),
            ("gauges".into(), obj(&self.gauges)),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let mut snap = MetricsSnapshot::default();
        let numbers = |j: &Json, key: &str| -> Result<Vec<(String, u64)>, String> {
            j.get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("snapshot: missing {key}"))?
                .iter()
                .map(|(n, v)| {
                    Ok((n.clone(), v.as_u64().ok_or_else(|| format!("bad value for {n}"))?))
                })
                .collect()
        };
        for (n, v) in numbers(j, "counters")? {
            snap.set_counter(&n, v);
        }
        for (n, v) in numbers(j, "gauges")? {
            snap.set_gauge(&n, v);
        }
        for (n, h) in j
            .get("histograms")
            .and_then(Json::as_obj)
            .ok_or("snapshot: missing histograms")?
        {
            snap.set_histogram(n, HistogramSnapshot::from_json(h)?);
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(9);
        g.set_max(3);
        assert_eq!(g.get(), 9);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn bucket_layout_is_continuous_and_monotone() {
        // Every value maps to exactly one bucket whose bounds contain it.
        for v in (0..4096u64).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]) {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v, "v={v} i={i}");
            assert!(v <= bucket_upper(i), "v={v} i={i}");
        }
        // Bucket bounds tile the u64 range without gaps.
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1), "i={i}");
        }
        assert_eq!(bucket_upper(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 2, 3] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.quantile(0.5), 1);
        assert_eq!(s.quantile(1.0), 3);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert_eq!(s.mean(), 8.0 / 5.0);
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record(1000); // bucket upper bound is above 1000
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), 1000);
    }

    #[test]
    fn merge_and_diff_roundtrip() {
        let a = HistogramSnapshot::from_values(&[1, 5, 900, 70_000]);
        let b = HistogramSnapshot::from_values(&[2, 5, 1_000_000]);
        let m = a.merge(&b);
        assert_eq!(m.count, 7);
        assert_eq!(m.sum, a.sum + b.sum);
        let d = m.diff(&a);
        assert_eq!(d.count, b.count);
        assert_eq!(d.sum, b.sum);
        // Same buckets as b (extremes are cumulative by design).
        assert_eq!(d.buckets, b.buckets);
        // Empty diff collapses to the default.
        assert_eq!(m.diff(&m), HistogramSnapshot::default());
    }

    #[test]
    fn registry_snapshot_reads_everything() {
        let r = MetricsRegistry::new();
        let c = r.counter("x.count");
        let g = r.gauge("x.level");
        let h = r.histogram("x.lat");
        c.add(3);
        g.set(7);
        h.record(100);
        let s = r.snapshot();
        assert_eq!(s.counter("x.count"), 3);
        assert_eq!(s.gauge("x.level"), 7);
        assert_eq!(s.histogram("x.lat").unwrap().count, 1);
        assert_eq!(s.counter("missing"), 0);
        // Re-registration returns the same instrument.
        r.counter("x.count").inc();
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn snapshot_diff_and_merge() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("c", 10);
        a.set_gauge("g", 4);
        a.set_histogram("h", HistogramSnapshot::from_values(&[1, 2]));
        let mut b = MetricsSnapshot::new();
        b.set_counter("c", 15);
        b.set_gauge("g", 2);
        b.set_histogram("h", HistogramSnapshot::from_values(&[1, 2, 8]));
        let d = b.diff(&a);
        assert_eq!(d.counter("c"), 5);
        assert_eq!(d.gauge("g"), 2, "gauges keep the later value");
        assert_eq!(d.histogram("h").unwrap().count, 1);
        let m = a.merge(&b);
        assert_eq!(m.counter("c"), 25);
        assert_eq!(m.gauge("g"), 4, "gauges merge by max");
        assert_eq!(m.histogram("h").unwrap().count, 5);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut s = MetricsSnapshot::new();
        s.set_counter("txn.commits", 123);
        s.set_gauge("repl.backlog", 7);
        s.set_histogram("span.commit", HistogramSnapshot::from_values(&[5, 5, 90_000]));
        let text = s.to_json().dump();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn span_timer_records() {
        let h = Histogram::new();
        let t = SpanTimer::start();
        std::thread::sleep(std::time::Duration::from_micros(50));
        t.finish(&h);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max >= 50_000, "recorded {} ns", s.max);
    }
}
