//! The morsel-driven star-join aggregation executor.
//!
//! Interprets a [`QuerySpec`] against a [`SnapshotView`] in two phases:
//!
//! 1. **Build** — for each dimension join, scan the (small) dimension table
//!    once, apply its filter, and hash `dim_key -> payload columns`. This
//!    phase is serial; the tables are shared read-only with every probe
//!    worker.
//! 2. **Probe** — split the fact table into morsels
//!    ([`SnapshotView::morsels`]), prune morsels whose date zone map cannot
//!    intersect the query's date hint, then scan them. Each fact row that
//!    passes the fact filter probes every dimension hash table (a miss
//!    filters the row), assembles its group key, and folds into a
//!    *per-worker* partial aggregate map. With [`QueryOpts::parallelism`]
//!    `> 1` the morsels are pulled from a shared cursor by a scoped worker
//!    pool; partials are then merged and the groups sorted by key.
//!
//! Parallel output is bit-identical to serial: aggregates accumulate in
//! `i128` (exact, so merge order is irrelevant), the merged map is keyed by
//! value, and the final sort fixes the order. Overflow past `i64` is
//! detected once at output and saturated, counted in
//! [`ExecStats::agg_saturations`] — never silently wrapped.
//!
//! The output also carries the HATtrick freshness vector read from the same
//! snapshot (§4.2's UNION + cross-join, expressed as a side read — the
//! visibility semantics are identical because both reads observe one
//! snapshot timestamp, and every probe worker scans under that same
//! timestamp).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;


use crate::batch::{filter_batch, BatchReader, KernelCache};
use crate::hint::ScanPruner;
use crate::spec::{AggExpr, GroupKey, GroupVal, QuerySpec};
use crate::view::{Morsel, RowRef, SnapshotView};

/// One output row: the group key values and the aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRow {
    pub key: Vec<GroupVal>,
    /// Money sums in cents, or a row count for `CountRows`.
    pub agg: i64,
    /// Number of fact rows folded into this group.
    pub rows: u64,
}

/// Per-query execution diagnostics. Plan-dependent: two executions of the
/// same query may differ here while their results compare equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Fact-table morsels the probe phase actually scanned.
    pub morsels_scanned: u64,
    /// Morsels skipped because their date zone map cannot intersect the
    /// query's date-range hint.
    pub morsels_pruned: u64,
    /// Wall time of the dimension hash-build phase, nanoseconds.
    pub build_nanos: u64,
    /// Wall time of the probe phase, nanoseconds.
    pub probe_nanos: u64,
    /// Worker threads the probe phase ran on (1 = serial).
    pub workers: u32,
    /// Output groups whose aggregate exceeded `i64` and was saturated.
    pub agg_saturations: u64,
    /// Scan batches the vectorized probe path pulled (0 on the scalar
    /// path).
    pub batches: u64,
    /// Fact rows skipped without scanning because their morsel's zone
    /// maps cannot satisfy the query's zone checks.
    pub rows_pruned_zonemap: u64,
    /// Fact rows removed by the vectorized filter kernels (scanned rows
    /// minus selection-vector survivors; 0 on the scalar path).
    pub rows_filtered_vectorized: u64,
}

/// The result of executing a query.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Group rows, sorted by key for deterministic comparison.
    pub groups: Vec<OutputRow>,
    /// Fact rows that survived filter + joins (diagnostic).
    pub matched_rows: u64,
    /// The freshness side-read: `(client, txnnum)` pairs visible in the
    /// query's snapshot.
    pub freshness: Vec<(u32, u64)>,
    /// Execution diagnostics. Excluded from equality: plans with different
    /// parallelism or pruning still compare equal when their results match.
    pub stats: ExecStats,
}

impl PartialEq for QueryOutput {
    fn eq(&self, other: &Self) -> bool {
        self.groups == other.groups
            && self.matched_rows == other.matched_rows
            && self.freshness == other.freshness
    }
}

impl Eq for QueryOutput {}

impl QueryOutput {
    /// Total aggregate across all groups.
    pub fn total(&self) -> i64 {
        self.groups.iter().map(|g| g.agg).sum()
    }
}

/// How the probe phase reads the fact table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ScanMode {
    /// Batch execution: selection-vector kernels over encoded columns,
    /// late materialization of survivors. The default.
    #[default]
    Vectorized,
    /// Row-at-a-time visitation through [`SnapshotView::scan_morsel`].
    /// Kept as the reference implementation the vectorized path must
    /// match byte for byte.
    Scalar,
}

/// A shared, live-updatable ceiling on probe workers.
///
/// The elastic scheduler narrows analytical parallelism at tick
/// granularity by storing into this gauge; every [`ExecContext::run`]
/// holding a clone reads it once when sizing its worker pool, so the new
/// ceiling applies from the next query onward without replumbing
/// [`QueryOpts`] through callers. `0` means uncapped. Results stay
/// bit-identical at any cap — the cap only changes how many threads pull
/// from the shared morsel cursor.
#[derive(Debug, Clone)]
pub struct WorkerCap(Arc<AtomicUsize>);

impl Default for WorkerCap {
    /// An uncapped gauge.
    fn default() -> Self {
        WorkerCap(Arc::new(AtomicUsize::new(0)))
    }
}

/// Identity equality: two `QueryOpts` compare equal only when they share
/// the same gauge (or both hold fresh uncapped defaults is *not* enough —
/// distinct allocations differ). Value equality would make two contexts
/// "equal" yet diverge as soon as one gauge moves.
impl PartialEq for WorkerCap {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for WorkerCap {}

impl WorkerCap {
    /// A new uncapped gauge.
    pub fn unlimited() -> Self {
        WorkerCap::default()
    }

    /// Sets the ceiling; `0` removes it.
    pub fn set(&self, workers: usize) {
        self.0.store(workers, Ordering::Relaxed);
    }

    /// The current ceiling, `None` when uncapped.
    pub fn get(&self) -> Option<usize> {
        match self.0.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// `requested` clamped to the current ceiling (and to ≥ 1 — a cap of
    /// 1 serializes the probe, it never blocks it).
    pub fn clamp(&self, requested: usize) -> usize {
        match self.get() {
            Some(cap) => requested.min(cap).max(1),
            None => requested,
        }
    }
}

/// Tuning knobs for one query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOpts {
    /// Worker threads for the probe phase. `1` runs serial on the calling
    /// thread; higher values fan the fact scan out over morsels. Results
    /// are bit-identical across parallelism levels.
    pub parallelism: usize,
    /// Probe-phase scan strategy. Results are bit-identical across modes.
    pub scan: ScanMode,
    /// Shared live ceiling on probe workers, consulted (once) at run time
    /// on top of `parallelism`. Defaults to uncapped.
    pub cap: WorkerCap,
}

impl Default for QueryOpts {
    /// Defaults to one probe worker per hardware thread (clamped), so
    /// out-of-the-box runs use the machine. Pin `parallelism` explicitly
    /// (e.g. [`QueryOpts::with_parallelism`]) where reproducible worker
    /// counts matter more than speed.
    fn default() -> Self {
        QueryOpts {
            parallelism: QueryOpts::default_parallelism(),
            scan: ScanMode::default(),
            cap: WorkerCap::default(),
        }
    }
}

impl QueryOpts {
    /// The default probe parallelism: `std::thread::available_parallelism()`
    /// clamped to `1..=8`. The upper clamp keeps default-sized pools from
    /// oversubscribing big machines with per-query thread spawns; beyond 8
    /// workers the shared-cursor probe is memory-bound on SSB-scale data.
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 8)
    }

    /// Options with `parallelism` probe workers (clamped to ≥ 1).
    pub fn with_parallelism(parallelism: usize) -> Self {
        QueryOpts { parallelism: parallelism.max(1), ..QueryOpts::default() }
    }

    /// The same options with an explicit scan mode.
    pub fn scan_mode(mut self, scan: ScanMode) -> Self {
        self.scan = scan;
        self
    }

    /// The same options sharing `cap` as their live worker ceiling.
    pub fn with_cap(mut self, cap: WorkerCap) -> Self {
        self.cap = cap;
        self
    }
}

/// Hashed payload of one dimension join.
struct DimTable {
    map: HashMap<u32, Vec<GroupVal>>,
}

/// Per-worker probe result: exact (`i128`) partial aggregates plus the
/// worker's matched-row count and scan diagnostics.
struct Partial {
    groups: HashMap<Vec<GroupVal>, (i128, u64)>,
    matched: u64,
    /// Batches pulled (vectorized path only).
    batches: u64,
    /// Rows the filter kernels removed (vectorized path only).
    filtered: u64,
}

/// One query execution: a spec, a snapshot view, and options. The
/// redesigned entry point — [`execute`] and [`execute_with`] are thin
/// wrappers over it.
pub struct ExecContext<'a> {
    spec: &'a QuerySpec,
    view: &'a dyn SnapshotView,
    opts: QueryOpts,
}

impl<'a> ExecContext<'a> {
    /// A context with default options (serial probe).
    pub fn new(spec: &'a QuerySpec, view: &'a dyn SnapshotView) -> Self {
        ExecContext { spec, view, opts: QueryOpts::default() }
    }

    /// A context with explicit options.
    pub fn with_opts(spec: &'a QuerySpec, view: &'a dyn SnapshotView, opts: QueryOpts) -> Self {
        ExecContext { spec, view, opts }
    }

    /// Runs the query.
    pub fn run(&self) -> QueryOutput {
        let spec = self.spec;
        assert!(spec.joins.len() <= 4, "SSB stars have at most 4 dimensions");

        // Phase 1: build dimension hash tables (serial — dims are small).
        let build_start = Instant::now();
        let mut dims: Vec<DimTable> = Vec::with_capacity(spec.joins.len());
        for join in &spec.joins {
            let mut map: HashMap<u32, Vec<GroupVal>> = HashMap::new();
            self.view.scan(join.dim, &mut |row| {
                if join.dim_filter.eval(row) {
                    let key = row.u32(join.dim_key);
                    let payload: Vec<GroupVal> = join
                        .payload
                        .iter()
                        .map(|&col| payload_val(row, join.dim, col))
                        .collect();
                    map.insert(key, payload);
                }
            });
            dims.push(DimTable { map });
        }
        let build_nanos = build_start.elapsed().as_nanos() as u64;

        // Phase 2: probe the fact table morsel by morsel. Each zone check
        // is a superset of the true predicate (the date hint covers every
        // date the date filter admits; fact-filter checks restate the
        // filter itself), so pruning never changes `groups` or
        // `matched_rows`.
        let pruner = ScanPruner::for_spec(spec);
        let (morsels, pruned): (Vec<Morsel>, Vec<Morsel>) = self
            .view
            .morsels(spec.fact, &pruner)
            .into_iter()
            .partition(|m| m.may_overlap(&pruner));
        let rows_pruned: u64 = pruned.iter().map(|m| m.rows().unwrap_or(0)).sum();
        let workers = self.opts.cap.clamp(self.opts.parallelism).clamp(1, morsels.len().max(1));
        let scan_mode = self.opts.scan;

        let probe_start = Instant::now();
        let cursor = AtomicUsize::new(0);
        let probe = |cursor: &AtomicUsize| match scan_mode {
            ScanMode::Scalar => probe_morsels(spec, self.view, &dims, &morsels, cursor),
            ScanMode::Vectorized => {
                probe_morsels_vectorized(spec, self.view, &dims, &morsels, cursor)
            }
        };
        let partials: Vec<Partial> = if workers <= 1 {
            vec![probe(&cursor)]
        } else {
            let (probe, cursor) = (&probe, &cursor);
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..workers).map(|_| scope.spawn(move || probe(cursor))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe worker panicked"))
                    .collect()
            })
        };
        let probe_nanos = probe_start.elapsed().as_nanos() as u64;

        // Merge partials. Addition over `i128` is exact, so the merged
        // values are independent of worker scheduling and merge order.
        let matched: u64 = partials.iter().map(|p| p.matched).sum();
        let batches: u64 = partials.iter().map(|p| p.batches).sum();
        let rows_filtered: u64 = partials.iter().map(|p| p.filtered).sum();
        let mut merged: HashMap<Vec<GroupVal>, (i128, u64)> = HashMap::new();
        for partial in partials {
            if merged.is_empty() {
                merged = partial.groups;
                continue;
            }
            for (key, (agg, rows)) in partial.groups {
                match merged.get_mut(&key) {
                    Some((a, r)) => {
                        *a += agg;
                        *r += rows;
                    }
                    None => {
                        merged.insert(key, (agg, rows));
                    }
                }
            }
        }

        // Global aggregates produce one row even over zero matches,
        // matching SQL `SUM` over an empty input (0 rather than NULL).
        if merged.is_empty() && spec.group_by.is_empty() {
            merged.insert(Vec::new(), (0, 0));
        }

        let mut agg_saturations = 0u64;
        let mut out: Vec<OutputRow> = merged
            .into_iter()
            .map(|(key, (agg, rows))| {
                let agg = if agg > i64::MAX as i128 {
                    agg_saturations += 1;
                    i64::MAX
                } else if agg < i64::MIN as i128 {
                    agg_saturations += 1;
                    i64::MIN
                } else {
                    agg as i64
                };
                OutputRow { key, agg, rows }
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));

        QueryOutput {
            groups: out,
            matched_rows: matched,
            freshness: self.view.freshness_vector(),
            stats: ExecStats {
                morsels_scanned: morsels.len() as u64,
                morsels_pruned: pruned.len() as u64,
                build_nanos,
                probe_nanos,
                workers: workers as u32,
                agg_saturations,
                batches,
                rows_pruned_zonemap: rows_pruned,
                rows_filtered_vectorized: rows_filtered,
            },
        }
    }
}

/// Probe-phase worker: pulls morsel indices from the shared cursor and
/// folds matching fact rows into a private partial map. Aggregates
/// accumulate in `i128` so merging partials is exact regardless of how the
/// cursor distributed morsels across workers.
fn probe_morsels(
    spec: &QuerySpec,
    view: &dyn SnapshotView,
    dims: &[DimTable],
    morsels: &[Morsel],
    cursor: &AtomicUsize,
) -> Partial {
    let mut groups: HashMap<Vec<GroupVal>, (i128, u64)> = HashMap::new();
    let mut matched: u64 = 0;
    let mut key_buf: Vec<GroupVal> = Vec::with_capacity(spec.group_by.len());
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(morsel) = morsels.get(i) else { break };
        view.scan_morsel(spec.fact, morsel, &mut |row| {
            if !spec.fact_filter.eval(row) {
                return;
            }
            // Probe every join; a miss filters the row.
            let mut payloads: [Option<&Vec<GroupVal>>; 4] = [None; 4];
            for (ji, join) in spec.joins.iter().enumerate() {
                match dims[ji].map.get(&row.u32(join.fact_key)) {
                    Some(p) => payloads[ji] = Some(p),
                    None => return,
                }
            }
            matched += 1;
            key_buf.clear();
            for gk in &spec.group_by {
                key_buf.push(match gk {
                    GroupKey::FactU32(col) => GroupVal::U32(row.u32(*col)),
                    GroupKey::DimU32(ji, pi) | GroupKey::DimStr(ji, pi) => {
                        payloads[*ji].expect("probed above")[*pi].clone()
                    }
                });
            }
            let delta = match spec.agg {
                AggExpr::SumMoney(col) => row.money(col).cents(),
                AggExpr::SumMoneyTimesPct(mcol, pcol) => {
                    row.money(mcol).pct(row.u32(pcol) as i64).cents()
                }
                AggExpr::SumMoneyDiff(a, b) => (row.money(a) - row.money(b)).cents(),
                AggExpr::CountRows => 1,
            };
            match groups.get_mut(key_buf.as_slice()) {
                Some((agg, rows)) => {
                    *agg += delta as i128;
                    *rows += 1;
                }
                None => {
                    groups.insert(key_buf.clone(), (delta as i128, 1));
                }
            }
        });
    }
    Partial { groups, matched, batches: 0, filtered: 0 }
}

/// The vectorized probe worker: pulls morsels from the shared cursor,
/// scans them through [`SnapshotView::scan_batches`], tightens a
/// selection vector with the filter kernels, and late-materializes only
/// the survivors through a [`BatchReader`] (amortized-O(1) RLE access)
/// for join probing and aggregation.
///
/// The per-row fold mirrors [`probe_morsels`] exactly — same probe order,
/// same key assembly, same `i128` accumulation — so the two paths are
/// result-identical by construction.
fn probe_morsels_vectorized(
    spec: &QuerySpec,
    view: &dyn SnapshotView,
    dims: &[DimTable],
    morsels: &[Morsel],
    cursor: &AtomicUsize,
) -> Partial {
    let mut groups: HashMap<Vec<GroupVal>, (i128, u64)> = HashMap::new();
    let mut matched: u64 = 0;
    let mut batches: u64 = 0;
    let mut filtered: u64 = 0;
    let mut key_buf: Vec<GroupVal> = Vec::with_capacity(spec.group_by.len());
    let mut sel: Vec<u32> = Vec::new();
    let mut cache = KernelCache::new();
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(morsel) = morsels.get(i) else { break };
        view.scan_batches(spec.fact, morsel, &mut |batch| {
            batches += 1;
            filter_batch(&spec.fact_filter, batch, &mut sel, &mut cache);
            filtered += (batch.len() - sel.len()) as u64;
            let mut reader = BatchReader::new(batch);
            'row: for &si in &sel {
                let si = si as usize;
                // Probe every join; a miss filters the row.
                let mut payloads: [Option<&Vec<GroupVal>>; 4] = [None; 4];
                for (ji, join) in spec.joins.iter().enumerate() {
                    match dims[ji].map.get(&reader.u32(join.fact_key, si)) {
                        Some(p) => payloads[ji] = Some(p),
                        None => continue 'row,
                    }
                }
                matched += 1;
                key_buf.clear();
                for gk in &spec.group_by {
                    key_buf.push(match gk {
                        GroupKey::FactU32(col) => GroupVal::U32(reader.u32(*col, si)),
                        GroupKey::DimU32(ji, pi) | GroupKey::DimStr(ji, pi) => {
                            payloads[*ji].expect("probed above")[*pi].clone()
                        }
                    });
                }
                let delta = match spec.agg {
                    AggExpr::SumMoney(col) => reader.money(col, si).cents(),
                    AggExpr::SumMoneyTimesPct(mcol, pcol) => {
                        reader.money(mcol, si).pct(reader.u32(pcol, si) as i64).cents()
                    }
                    AggExpr::SumMoneyDiff(a, b) => {
                        (reader.money(a, si) - reader.money(b, si)).cents()
                    }
                    AggExpr::CountRows => 1,
                };
                match groups.get_mut(key_buf.as_slice()) {
                    Some((agg, rows)) => {
                        *agg += delta as i128;
                        *rows += 1;
                    }
                    None => {
                        groups.insert(key_buf.clone(), (delta as i128, 1));
                    }
                }
            }
        });
    }
    Partial { groups, matched, batches, filtered }
}

/// Executes `spec` against `view` with default options (serial probe).
pub fn execute(spec: &QuerySpec, view: &dyn SnapshotView) -> QueryOutput {
    ExecContext::new(spec, view).run()
}

/// Executes `spec` against `view` with explicit options.
pub fn execute_with(spec: &QuerySpec, view: &dyn SnapshotView, opts: &QueryOpts) -> QueryOutput {
    ExecContext::with_opts(spec, view, opts.clone()).run()
}

/// Extracts a payload value with the right [`GroupVal`] variant based on
/// the column's declared type.
fn payload_val(row: &RowRef<'_>, table: hat_common::TableId, col: usize) -> GroupVal {
    use hat_common::value::{table_column_types, ColumnType};
    match table_column_types(table)[col] {
        ColumnType::U32 => GroupVal::U32(row.u32(col)),
        ColumnType::Str => GroupVal::Str(row.arc_str(col)),
        other => panic!("unsupported payload column type {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ColPredicate, Predicate};
    use crate::spec::{JoinSpec, QueryId};
    use hat_common::ids::{customer, history};
    use hat_common::value::row_from;
    use hat_common::{Money, Row, TableId, Value};
    use hat_storage::rowstore::RowDb;

    /// A miniature star: HISTORY as "fact" (orderkey, custkey, amount),
    /// CUSTOMER as dimension.
    fn tiny_db() -> RowDb {
        let db = RowDb::new();
        let c = db.store(TableId::Customer);
        for (ck, nation, region) in [
            (1u32, "CHINA", "ASIA"),
            (2, "FRANCE", "EUROPE"),
            (3, "JAPAN", "ASIA"),
        ] {
            c.install_insert(customer_row(ck, nation, region), 1);
        }
        let h = db.store(TableId::History);
        for (ok, ck, cents) in
            [(1u64, 1u32, 100i64), (2, 2, 200), (3, 3, 300), (4, 1, 400), (5, 9, 999)]
        {
            h.install_insert(history_row(ok, ck, cents), 1);
        }
        db
    }

    fn customer_row(ck: u32, nation: &str, region: &str) -> Row {
        row_from([
            Value::U32(ck),
            Value::from(format!("Customer#{ck:09}")),
            Value::from("addr"),
            Value::from("CITY0"),
            Value::from(nation),
            Value::from(region),
            Value::from("phone"),
            Value::from("AUTOMOBILE"),
            Value::U32(0),
        ])
    }

    fn history_row(ok: u64, ck: u32, cents: i64) -> Row {
        row_from([
            Value::U64(ok),
            Value::U32(ck),
            Value::Money(Money::from_cents(cents)),
        ])
    }

    fn base_spec() -> QuerySpec {
        QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::History,
            fact_filter: Predicate::all(),
            joins: vec![],
            group_by: vec![],
            agg: AggExpr::SumMoney(history::AMOUNT),
        }
    }

    #[test]
    fn global_sum_no_joins() {
        let db = tiny_db();
        let view = crate::view::MixedView::rows(&db, 10);
        let out = execute(&base_spec(), &view);
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].agg, 100 + 200 + 300 + 400 + 999);
        assert_eq!(out.matched_rows, 5);
    }

    #[test]
    fn fact_filter_applies() {
        let db = tiny_db();
        let view = crate::view::MixedView::rows(&db, 10);
        let mut spec = base_spec();
        spec.fact_filter =
            Predicate::and(vec![ColPredicate::U32Between(history::CUSTKEY, 1, 2)]);
        let out = execute(&spec, &view);
        assert_eq!(out.groups[0].agg, 100 + 200 + 400);
    }

    #[test]
    fn join_filters_and_groups() {
        let db = tiny_db();
        let view = crate::view::MixedView::rows(&db, 10);
        let mut spec = base_spec();
        spec.joins = vec![JoinSpec {
            dim: TableId::Customer,
            fact_key: history::CUSTKEY,
            dim_key: customer::CUSTKEY,
            dim_filter: Predicate::and(vec![ColPredicate::StrEq(
                customer::REGION,
                "ASIA".into(),
            )]),
            payload: vec![customer::NATION],
        }];
        spec.group_by = vec![GroupKey::DimStr(0, 0)];
        let out = execute(&spec, &view);
        // ASIA customers: 1 (CHINA: 100+400) and 3 (JAPAN: 300). Customer 9
        // doesn't exist -> join miss. Customer 2 is EUROPE -> filtered.
        assert_eq!(out.groups.len(), 2);
        let china = out.groups.iter().find(|g| g.key[0].to_string() == "CHINA").unwrap();
        assert_eq!(china.agg, 500);
        assert_eq!(china.rows, 2);
        let japan = out.groups.iter().find(|g| g.key[0].to_string() == "JAPAN").unwrap();
        assert_eq!(japan.agg, 300);
        assert_eq!(out.matched_rows, 3);
        // Sorted by key: CHINA < JAPAN.
        assert!(out.groups[0].key < out.groups[1].key);
    }

    #[test]
    fn group_by_fact_column() {
        let db = tiny_db();
        let view = crate::view::MixedView::rows(&db, 10);
        let mut spec = base_spec();
        spec.group_by = vec![GroupKey::FactU32(history::CUSTKEY)];
        spec.agg = AggExpr::CountRows;
        let out = execute(&spec, &view);
        let counts: Vec<(String, i64)> =
            out.groups.iter().map(|g| (g.key[0].to_string(), g.agg)).collect();
        assert_eq!(
            counts,
            vec![
                ("1".into(), 2),
                ("2".into(), 1),
                ("3".into(), 1),
                ("9".into(), 1)
            ]
        );
    }

    #[test]
    fn sum_diff_aggregate() {
        let db = RowDb::new();
        let h = db.store(TableId::History);
        // Reuse AMOUNT as both operands: a - a = 0.
        h.install_insert(history_row(1, 1, 500), 1);
        let view = crate::view::MixedView::rows(&db, 10);
        let mut spec = base_spec();
        spec.agg = AggExpr::SumMoneyDiff(history::AMOUNT, history::AMOUNT);
        let out = execute(&spec, &view);
        assert_eq!(out.groups[0].agg, 0);
    }

    #[test]
    fn pct_aggregate() {
        let db = RowDb::new();
        let h = db.store(TableId::History);
        // custkey doubles as a "discount percent" of 7.
        h.install_insert(history_row(1, 7, 1000), 1);
        let view = crate::view::MixedView::rows(&db, 10);
        let mut spec = base_spec();
        spec.agg = AggExpr::SumMoneyTimesPct(history::AMOUNT, history::CUSTKEY);
        let out = execute(&spec, &view);
        assert_eq!(out.groups[0].agg, 70, "7% of 1000 cents");
    }

    #[test]
    fn empty_input_global_agg_yields_zero_row() {
        let db = RowDb::new();
        let view = crate::view::MixedView::rows(&db, 10);
        let out = execute(&base_spec(), &view);
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].agg, 0);
        assert_eq!(out.matched_rows, 0);
        assert_eq!(out.total(), 0);
    }

    #[test]
    fn empty_input_grouped_agg_yields_no_rows() {
        let db = RowDb::new();
        let view = crate::view::MixedView::rows(&db, 10);
        let mut spec = base_spec();
        spec.group_by = vec![GroupKey::FactU32(history::CUSTKEY)];
        let out = execute(&spec, &view);
        assert!(out.groups.is_empty());
    }

    #[test]
    fn columnar_backend_matches_row_backend() {
        // Same data served row-format and column-format must aggregate
        // identically, including rows arriving through the delta.
        use hat_storage::colstore::ColumnTable;
        let db = tiny_db();
        let row_view = crate::view::MixedView::rows(&db, 10);

        let ct = ColumnTable::new(TableId::History);
        // Sealed segment: first three rows; delta: the last two.
        ct.load_segment(
            1,
            [
                history_row(1, 1, 100),
                history_row(2, 2, 200),
                history_row(3, 3, 300),
            ],
        );
        ct.append_delta(2, history_row(4, 1, 400));
        ct.append_delta(3, history_row(5, 9, 999));
        let empty_db = RowDb::new();
        // Customer dim stays row-format in this hybrid view.
        for (ck, nation, region) in [
            (1u32, "CHINA", "ASIA"),
            (2, "FRANCE", "EUROPE"),
            (3, "JAPAN", "ASIA"),
        ] {
            empty_db
                .store(TableId::Customer)
                .install_insert(customer_row(ck, nation, region), 1);
        }
        let col_view = crate::view::MixedView::rows(&empty_db, 10)
            .with_columnar(TableId::History, ct.snapshot(10));

        let mut spec = base_spec();
        spec.joins = vec![JoinSpec {
            dim: TableId::Customer,
            fact_key: history::CUSTKEY,
            dim_key: customer::CUSTKEY,
            dim_filter: Predicate::all(),
            payload: vec![customer::NATION],
        }];
        spec.group_by = vec![GroupKey::DimStr(0, 0)];
        let via_rows = execute(&spec, &row_view);
        let via_cols = execute(&spec, &col_view);
        assert_eq!(via_rows.groups, via_cols.groups);
        assert_eq!(via_rows.matched_rows, via_cols.matched_rows);
    }

    #[test]
    fn dim_u32_group_key_from_payload() {
        let db = tiny_db();
        let view = crate::view::MixedView::rows(&db, 10);
        let mut spec = base_spec();
        spec.joins = vec![JoinSpec {
            dim: TableId::Customer,
            fact_key: history::CUSTKEY,
            dim_key: customer::CUSTKEY,
            dim_filter: Predicate::all(),
            payload: vec![customer::PAYMENTCNT], // u32 payload column
        }];
        spec.group_by = vec![GroupKey::DimU32(0, 0)];
        let out = execute(&spec, &view);
        // All customers have paymentcnt 0 -> a single group.
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].key[0].to_string(), "0");
    }

    #[test]
    fn snapshot_ts_filters_columnar_delta() {
        use hat_storage::colstore::ColumnTable;
        let db = RowDb::new();
        let ct = ColumnTable::new(TableId::History);
        ct.load_segment(1, [history_row(1, 1, 100)]);
        ct.append_delta(5, history_row(2, 1, 200));
        // Snapshot before the delta row: only the sealed row counts.
        let view = crate::view::MixedView::rows(&db, 4)
            .with_columnar(TableId::History, ct.snapshot(4));
        let out = execute(&base_spec(), &view);
        assert_eq!(out.groups[0].agg, 100);
        // Snapshot after: both.
        let view = crate::view::MixedView::rows(&db, 5)
            .with_columnar(TableId::History, ct.snapshot(5));
        let out = execute(&base_spec(), &view);
        assert_eq!(out.groups[0].agg, 300);
    }

    #[test]
    fn freshness_vector_attached() {
        let db = tiny_db();
        db.store(TableId::Freshness)
            .install_insert(row_from([Value::U32(0), Value::U64(41)]), 1);
        let view = crate::view::MixedView::rows(&db, 10);
        let out = execute(&base_spec(), &view);
        assert_eq!(out.freshness, vec![(0, 41)]);
    }

    /// A larger star spread over many morsels, grouped, so the parallel
    /// path exercises work distribution and partial-map merging.
    fn many_row_db(n: u64) -> RowDb {
        let db = tiny_db();
        let h = db.store(TableId::History);
        for i in 0..n {
            h.install_insert(history_row(100 + i, (i % 3) as u32 + 1, i as i64), 2);
        }
        db
    }

    fn grouped_spec() -> QuerySpec {
        let mut spec = base_spec();
        spec.joins = vec![JoinSpec {
            dim: TableId::Customer,
            fact_key: history::CUSTKEY,
            dim_key: customer::CUSTKEY,
            dim_filter: Predicate::all(),
            payload: vec![customer::NATION],
        }];
        spec.group_by = vec![GroupKey::DimStr(0, 0)];
        spec
    }

    #[test]
    fn parallel_probe_matches_serial_bit_for_bit() {
        let n = crate::view::MORSEL_ROWS as u64 * 3 + 17;
        let db = many_row_db(n);
        let view = crate::view::MixedView::rows(&db, 10);
        let spec = grouped_spec();
        let serial = execute_with(&spec, &view, &QueryOpts::with_parallelism(1));
        assert_eq!(serial.stats.workers, 1);
        assert!(serial.stats.morsels_scanned >= 4);
        for p in [2, 3, 8] {
            let par = execute_with(&spec, &view, &QueryOpts::with_parallelism(p));
            assert_eq!(par, serial, "parallelism {p}");
            // Byte-identical, not just PartialEq: same order, same counts.
            assert_eq!(
                format!("{:?} {:?} {:?}", par.groups, par.matched_rows, par.freshness),
                format!(
                    "{:?} {:?} {:?}",
                    serial.groups, serial.matched_rows, serial.freshness
                ),
                "parallelism {p}"
            );
            assert_eq!(par.stats.workers as usize, p.min(par.stats.morsels_scanned as usize));
        }
    }

    #[test]
    fn parallelism_clamps_to_morsel_count() {
        let db = tiny_db(); // 5 fact rows -> 1 morsel
        let view = crate::view::MixedView::rows(&db, 10);
        let out = execute_with(&base_spec(), &view, &QueryOpts::with_parallelism(8));
        assert_eq!(out.stats.workers, 1, "no point spawning idle workers");
        assert_eq!(out.groups[0].agg, 100 + 200 + 300 + 400 + 999);
    }

    #[test]
    fn aggregate_saturates_instead_of_wrapping() {
        let db = RowDb::new();
        let h = db.store(TableId::History);
        // Two near-max values: their i64 sum wraps negative; the executor
        // must saturate and count it instead.
        h.install_insert(history_row(1, 1, i64::MAX - 10), 1);
        h.install_insert(history_row(2, 1, i64::MAX - 10), 1);
        let view = crate::view::MixedView::rows(&db, 10);
        let out = execute(&base_spec(), &view);
        assert_eq!(out.groups[0].agg, i64::MAX);
        assert_eq!(out.stats.agg_saturations, 1);
        // Sanity: a non-overflowing query reports zero saturations.
        let small = execute(&base_spec(), &crate::view::MixedView::rows(&tiny_db(), 10));
        assert_eq!(small.stats.agg_saturations, 0);
    }

    #[test]
    fn zone_map_pruning_counts_and_preserves_results() {
        // Build a columnar LINEORDER with one 1993 segment and one 1994
        // segment, join on DATE with d_year = 1994: the 1993 segment's
        // morsels must be pruned without changing the result.
        use hat_common::ids::{date, lineorder};
        use hat_storage::colstore::ColumnTable;
        use std::sync::Arc as StdArc;

        fn lo_row(ok: u64, orderdate: u32, cents: i64) -> Row {
            row_from([
                Value::U64(ok),
                Value::U32(1),
                Value::U32(1),
                Value::U32(1),
                Value::U32(1),
                Value::U32(orderdate),
                Value::Str(StdArc::from("p")),
                Value::Str(StdArc::from("s")),
                Value::U32(1),
                Value::Money(Money::from_cents(cents)),
                Value::Money(Money::from_cents(cents)),
                Value::U32(0),
                Value::Money(Money::from_cents(cents)),
                Value::Money(Money::from_cents(0)),
                Value::U32(0),
                Value::U32(orderdate),
                Value::Str(StdArc::from("RAIL")),
            ])
        }
        fn date_row(datekey: u32, year: u32) -> Row {
            row_from([
                Value::U32(datekey),
                Value::from("d"),
                Value::from("Monday"),
                Value::from("January"),
                Value::U32(year),
                Value::U32(year * 100 + 1),
                Value::from("Jan1994"),
                Value::U32(1),
                Value::U32(1),
                Value::U32(1),
                Value::U32(year * 10000 + 101),
                Value::U32(31),
                Value::from("Winter"),
                Value::from(false),
                Value::from(true),
                Value::from(false),
            ])
        }

        let db = RowDb::new();
        let d = db.store(TableId::Date);
        d.install_insert(date_row(19930105, 1993), 1);
        d.install_insert(date_row(19940105, 1994), 1);

        let ct = ColumnTable::new(TableId::Lineorder);
        ct.load_segment(1, (0..20).map(|i| lo_row(i, 19930105, 10)));
        ct.load_segment(1, (0..20).map(|i| lo_row(100 + i, 19940105, 10)));
        let view = crate::view::MixedView::rows(&db, 10)
            .with_columnar(TableId::Lineorder, ct.snapshot(10));

        let spec = QuerySpec {
            id: QueryId::Q1_1,
            fact: TableId::Lineorder,
            fact_filter: Predicate::all(),
            joins: vec![JoinSpec {
                dim: TableId::Date,
                fact_key: lineorder::ORDERDATE,
                dim_key: date::DATEKEY,
                dim_filter: Predicate::and(vec![ColPredicate::U32Eq(date::YEAR, 1994)]),
                payload: vec![],
            }],
            group_by: vec![],
            agg: AggExpr::SumMoney(lineorder::REVENUE),
        };
        let out = execute(&spec, &view);
        assert_eq!(out.stats.morsels_pruned, 1, "the 1993 segment prunes");
        assert_eq!(out.stats.morsels_scanned, 1);
        assert_eq!(out.stats.rows_pruned_zonemap, 20, "20 rows skipped unscanned");
        assert_eq!(out.matched_rows, 20, "only 1994 rows join");
        assert_eq!(out.groups[0].agg, 200);

        // Same query through plain scans (no zone maps): identical output.
        struct NoMorselView<'a>(&'a crate::view::MixedView<'a>);
        impl SnapshotView for NoMorselView<'_> {
            fn ts(&self) -> hat_txn::Ts {
                self.0.ts()
            }
            fn scan(&self, table: TableId, visit: &mut dyn FnMut(&RowRef<'_>)) {
                self.0.scan(table, visit)
            }
        }
        let unpruned = execute(&spec, &NoMorselView(&view));
        assert_eq!(unpruned.stats.morsels_pruned, 0);
        assert_eq!(out, unpruned);
    }

    /// A columnar star with every encoding in play: RLE (custkey runs),
    /// dictionary (nation via the Customer dim is row-format, but the
    /// fact's own str column exercises dict kernels when filtered), a
    /// delta tail, and a row-format dim.
    fn columnar_star(n: u64) -> (RowDb, hat_storage::colstore::ColumnTable) {
        use hat_storage::colstore::ColumnTable;
        let db = RowDb::new();
        for (ck, nation, region) in [
            (1u32, "CHINA", "ASIA"),
            (2, "FRANCE", "EUROPE"),
            (3, "JAPAN", "ASIA"),
        ] {
            db.store(TableId::Customer).install_insert(customer_row(ck, nation, region), 1);
        }
        let ct = ColumnTable::new(TableId::History);
        ct.load_segment(1, (0..n).map(|i| history_row(i, (i % 3) as u32 + 1, i as i64)));
        // Delta tail: row-format rows the fallback adapter must cover.
        for i in 0..50u64 {
            ct.append_delta(2 + i, history_row(n + i, (i % 3) as u32 + 1, 7));
        }
        (db, ct)
    }

    #[test]
    fn vectorized_matches_scalar_byte_for_byte() {
        let n = crate::view::MORSEL_ROWS as u64 * 2 + 33;
        let (db, ct) = columnar_star(n);
        let view = crate::view::MixedView::rows(&db, 1000)
            .with_columnar(TableId::History, ct.snapshot(1000));
        let mut spec = grouped_spec();
        spec.fact_filter =
            Predicate::and(vec![ColPredicate::U32Between(history::CUSTKEY, 1, 2)]);
        for p in [1usize, 2, 8] {
            let scalar = execute_with(
                &spec,
                &view,
                &QueryOpts::with_parallelism(p).scan_mode(ScanMode::Scalar),
            );
            let vectorized = execute_with(
                &spec,
                &view,
                &QueryOpts::with_parallelism(p).scan_mode(ScanMode::Vectorized),
            );
            assert_eq!(
                format!(
                    "{:?} {:?} {:?}",
                    scalar.groups, scalar.matched_rows, scalar.freshness
                ),
                format!(
                    "{:?} {:?} {:?}",
                    vectorized.groups, vectorized.matched_rows, vectorized.freshness
                ),
                "parallelism {p}"
            );
            assert!(vectorized.stats.batches > 0, "vectorized path pulls batches");
            assert!(
                vectorized.stats.rows_filtered_vectorized > 0,
                "custkey 3 rows are kernel-filtered"
            );
            assert_eq!(scalar.stats.batches, 0, "scalar path never batches");
        }
    }

    #[test]
    fn non_date_u32_filter_prunes_by_zone_map() {
        // Two segments with disjoint custkey ranges; a fact-filter
        // equality on custkey must prune one segment via its zone map —
        // the pruner generalized past the date hint — without changing
        // the result.
        use hat_storage::colstore::ColumnTable;
        let db = RowDb::new();
        let ct = ColumnTable::new(TableId::History);
        ct.load_segment(1, (0..30).map(|i| history_row(i, 100 + (i % 5) as u32, 10)));
        ct.load_segment(1, (0..30).map(|i| history_row(50 + i, 500 + (i % 5) as u32, 10)));
        let view = crate::view::MixedView::rows(&db, 10)
            .with_columnar(TableId::History, ct.snapshot(10));
        let mut spec = base_spec();
        spec.fact_filter = Predicate::and(vec![ColPredicate::U32Eq(history::CUSTKEY, 502)]);
        let out = execute(&spec, &view);
        assert_eq!(out.stats.morsels_pruned, 1, "custkeys 100..104 prune");
        assert!(out.stats.rows_pruned_zonemap >= 30);
        assert_eq!(out.matched_rows, 6);
        assert_eq!(out.groups[0].agg, 60);
        let scalar = execute_with(
            &spec,
            &view,
            &QueryOpts::default().scan_mode(ScanMode::Scalar),
        );
        assert_eq!(out, scalar);
    }
}
