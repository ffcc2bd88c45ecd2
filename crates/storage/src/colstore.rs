//! A columnar store with compression and an in-row-format delta.
//!
//! The hybrid engines (System-X-like and TiDB-like) keep an additional
//! column-format copy of the fact data (§2.2, "hybrid design" / TiFlash).
//! This module provides:
//!
//! * typed, compressed column vectors — dictionary encoding for strings,
//!   run-length encoding for low-cardinality integers ([`ColumnData`]),
//! * immutable sealed [`Segment`]s carrying a commit-timestamp column so
//!   snapshot reads can filter exactly,
//! * a [`DeltaStore`] of recently committed rows still in row format, and
//! * [`ColumnTable`], which combines both and supports atomic compaction
//!   of a delta prefix into a new sealed segment.
//!
//! A reader takes a [`ColumnSnapshot`] — cheap clones of the sealed segment
//! list plus the visible delta prefix — and scans without blocking writers
//! beyond a short lock acquisition.

use std::collections::HashMap;
use std::sync::Arc;

use hat_common::value::{table_column_types, ColumnType};
use hat_common::{Money, Row, TableId};
use hat_txn::Ts;
use parking_lot::RwLock;

/// A run-length-encoded vector of `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleU32 {
    /// `(value, cumulative_end)` pairs; `cumulative_end` is exclusive.
    runs: Vec<(u32, u32)>,
    len: u32,
}

impl RleU32 {
    /// Encodes a slice.
    pub fn encode(values: &[u32]) -> Self {
        let mut runs = Vec::new();
        let mut iter = values.iter();
        if let Some(&first) = iter.next() {
            let mut current = first;
            let mut end: u32 = 1;
            for &v in iter {
                if v == current {
                    end += 1;
                } else {
                    runs.push((current, end));
                    current = v;
                    end += 1;
                }
            }
            runs.push((current, end));
        }
        RleU32 { runs, len: values.len() as u32 }
    }

    /// Number of logical elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs (compression diagnostic).
    #[inline]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Random access by logical index.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        debug_assert!(idx < self.len());
        let i = self.runs.partition_point(|&(_, end)| end as usize <= idx);
        self.runs[i].0
    }

    /// Iterates all logical values in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut prev_end = 0u32;
        self.runs.iter().flat_map(move |&(v, end)| {
            let count = end - prev_end;
            prev_end = end;
            std::iter::repeat_n(v, count as usize)
        })
    }

    /// Iterates the runs overlapping logical rows `[lo, hi)` as
    /// `(value, start, end)` triples clipped to that window. This is the
    /// run-at-a-time entry point for scan kernels: one predicate
    /// evaluation per run instead of one per row.
    pub fn runs_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = (u32, usize, usize)> + '_ {
        let first = self.runs.partition_point(|&(_, end)| end as usize <= lo);
        let mut start = if first == 0 { 0 } else { self.runs[first - 1].1 as usize };
        self.runs[first..].iter().map_while(move |&(v, end)| {
            if start.max(lo) >= hi {
                return None;
            }
            let clipped = (v, start.max(lo), (end as usize).min(hi));
            start = end as usize;
            Some(clipped)
        })
    }

    /// Appends logical rows `[lo, hi)` to `out`, fully decoded: the
    /// run-at-a-time bulk read behind the executor's gathers.
    pub fn decode_into(&self, lo: usize, hi: usize, out: &mut Vec<u32>) {
        /// Runs up to this long are written as one fixed-width store,
        /// which spares a mispredicted loop exit on every short run.
        const SHORT: usize = 8;
        debug_assert!(lo <= hi && hi <= self.len());
        let base = out.len();
        let n = hi - lo;
        out.resize(base + n + SHORT, 0);
        let dst = &mut out[base..];
        let first = self.runs.partition_point(|&(_, end)| end as usize <= lo);
        let mut pos = 0;
        for &(v, end) in &self.runs[first..] {
            let end = (end as usize).min(hi) - lo;
            if end - pos <= SHORT {
                dst[pos..pos + SHORT].copy_from_slice(&[v; SHORT]);
            } else {
                dst[pos..end].fill(v);
            }
            pos = end;
            if pos == n {
                break;
            }
        }
        out.truncate(base + n);
    }
}

/// A bit-packed vector of `u32`: every value stored in `bits` bits,
/// little-endian within a `u64` word stream. Chosen for narrow columns
/// (small maxima) where neither runs nor a dictionary help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedU32 {
    bits: u32,
    len: u32,
    words: Vec<u64>,
}

impl PackedU32 {
    /// Packs `values` at the smallest width that fits their maximum
    /// (minimum 1 bit; 32 for a maximum with the top bit set).
    pub fn encode(values: &[u32]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let bits = (32 - max.leading_zeros()).max(1);
        let total_bits = values.len() * bits as usize;
        let mut words = vec![0u64; total_bits.div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            let off = i * bits as usize;
            let (word, shift) = (off / 64, (off % 64) as u32);
            words[word] |= (v as u64) << shift;
            if shift + bits > 64 {
                words[word + 1] |= (v as u64) >> (64 - shift);
            }
        }
        PackedU32 { bits, len: values.len() as u32, words }
    }

    /// Number of logical elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Random access by logical index.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        debug_assert!(idx < self.len());
        let off = idx * self.bits as usize;
        let (word, shift) = (off / 64, (off % 64) as u32);
        let mut v = self.words[word] >> shift;
        if shift + self.bits > 64 {
            v |= self.words[word + 1] << (64 - shift);
        }
        let mask = if self.bits == 32 { u32::MAX as u64 } else { (1u64 << self.bits) - 1 };
        (v & mask) as u32
    }

    /// Iterates all logical values in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Packed size in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// A dictionary-encoded string column.
#[derive(Debug, Clone)]
pub struct DictColumn {
    dict: Vec<Arc<str>>,
    codes: Vec<u32>,
}

impl DictColumn {
    /// Encodes a sequence of strings. Codes are assigned in first-seen
    /// order, so encoding is deterministic for a given input sequence.
    pub fn encode<'a, I: IntoIterator<Item = &'a Arc<str>>>(values: I) -> Self {
        // The build map keys on `Arc<str>` clones of the dictionary
        // entries; lookups borrow as `&str`, so no per-value allocation.
        let mut map: HashMap<Arc<str>, u32> = HashMap::new();
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut codes = Vec::new();
        for v in values {
            let code = match map.get(v.as_ref()) {
                Some(&c) => c,
                None => {
                    let c = dict.len() as u32;
                    dict.push(Arc::clone(v));
                    map.insert(Arc::clone(v), c);
                    c
                }
            };
            codes.push(code);
        }
        DictColumn { dict, codes }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Distinct-value count.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// The string at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &str {
        &self.dict[self.codes[idx] as usize]
    }

    /// The `Arc<str>` at `idx` (cheap clone for group keys).
    #[inline]
    pub fn get_arc(&self, idx: usize) -> &Arc<str> {
        &self.dict[self.codes[idx] as usize]
    }

    /// The dictionary code at `idx`.
    #[inline]
    pub fn code(&self, idx: usize) -> u32 {
        self.codes[idx]
    }

    /// Resolves a string to its code, if present. Linear scan — dicts are
    /// small and this runs once per predicate per segment, not per row.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.dict.iter().position(|s| s.as_ref() == value).map(|i| i as u32)
    }

    /// The dictionary entries, indexed by code. Scan kernels evaluate a
    /// string predicate once per entry here, then compare codes per row.
    #[inline]
    pub fn entries(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// The code vector (kernel fast path: compare codes, never strings).
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }
}

/// Fraction of distinct runs below which a `u32` column is RLE-encoded.
const RLE_THRESHOLD: f64 = 0.5;

/// Bit width above which bit-packing a `u32` column is not worth the
/// shift/mask on access (packing at 30+ bits saves almost nothing).
const PACK_MAX_BITS: u32 = 28;

/// One typed, possibly compressed column vector.
#[derive(Debug, Clone)]
pub enum ColumnData {
    U64(Vec<u64>),
    U32(Vec<u32>),
    U32Rle(RleU32),
    U32Packed(PackedU32),
    Money(Vec<i64>),
    Str(DictColumn),
    Bool(Vec<bool>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::U64(v) => v.len(),
            ColumnData::U32(v) => v.len(),
            ColumnData::U32Rle(v) => v.len(),
            ColumnData::U32Packed(v) => v.len(),
            ColumnData::Money(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `u64` accessor (also widens `u32` variants).
    #[inline]
    pub fn u64_at(&self, idx: usize) -> u64 {
        match self {
            ColumnData::U64(v) => v[idx],
            ColumnData::U32(v) => v[idx] as u64,
            ColumnData::U32Rle(v) => v.get(idx) as u64,
            ColumnData::U32Packed(v) => v.get(idx) as u64,
            _ => panic!("u64_at on non-integer column"),
        }
    }

    /// `u32` accessor.
    #[inline]
    pub fn u32_at(&self, idx: usize) -> u32 {
        match self {
            ColumnData::U32(v) => v[idx],
            ColumnData::U32Rle(v) => v.get(idx),
            ColumnData::U32Packed(v) => v.get(idx),
            _ => panic!("u32_at on non-u32 column"),
        }
    }

    /// Money accessor.
    #[inline]
    pub fn money_at(&self, idx: usize) -> Money {
        match self {
            ColumnData::Money(v) => Money::from_cents(v[idx]),
            _ => panic!("money_at on non-money column"),
        }
    }

    /// String accessor.
    #[inline]
    pub fn str_at(&self, idx: usize) -> &str {
        match self {
            ColumnData::Str(d) => d.get(idx),
            _ => panic!("str_at on non-string column"),
        }
    }

    /// `Arc<str>` accessor.
    #[inline]
    pub fn arc_str_at(&self, idx: usize) -> &Arc<str> {
        match self {
            ColumnData::Str(d) => d.get_arc(idx),
            _ => panic!("arc_str_at on non-string column"),
        }
    }

    /// Bool accessor.
    #[inline]
    pub fn bool_at(&self, idx: usize) -> bool {
        match self {
            ColumnData::Bool(v) => v[idx],
            _ => panic!("bool_at on non-bool column"),
        }
    }

    /// Approximate compressed size in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            ColumnData::U64(v) => v.len() * 8,
            ColumnData::U32(v) => v.len() * 4,
            ColumnData::U32Rle(v) => v.run_count() * 8,
            ColumnData::U32Packed(v) => v.packed_bytes(),
            ColumnData::Money(v) => v.len() * 8,
            ColumnData::Str(d) => {
                d.codes.len() * 4 + d.dict.iter().map(|s| s.len()).sum::<usize>()
            }
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// Size the column would occupy fully decoded (plain vectors; strings
    /// at their byte length). `approx_bytes / decoded_bytes` is the
    /// compression ratio the telemetry gauges report.
    pub fn decoded_bytes(&self) -> usize {
        match self {
            ColumnData::U64(v) => v.len() * 8,
            ColumnData::U32(v) => v.len() * 4,
            ColumnData::U32Rle(v) => v.len() * 4,
            ColumnData::U32Packed(v) => v.len() * 4,
            ColumnData::Money(v) => v.len() * 8,
            ColumnData::Str(d) => {
                d.codes.iter().map(|&c| d.dict[c as usize].len()).sum::<usize>()
            }
            ColumnData::Bool(v) => v.len(),
        }
    }
}

/// An immutable sealed block of columnar rows.
#[derive(Debug)]
pub struct Segment {
    /// Commit timestamp of each row, ascending.
    tss: Vec<Ts>,
    cols: Vec<ColumnData>,
    /// Zone map: per-column `(min, max)` over all rows, for `u32` columns
    /// only (`None` for other types). Covers the whole segment, so it is a
    /// conservative superset of any visible prefix — safe for pruning.
    u32_minmax: Vec<Option<(u32, u32)>>,
    /// Fully-decoded size in bytes, cached at build (the `Str` term is
    /// O(rows) to recompute).
    decoded_bytes: usize,
}

impl Segment {
    /// Number of rows.
    #[inline]
    pub fn row_count(&self) -> usize {
        self.tss.len()
    }

    /// Highest commit timestamp in the segment.
    pub fn max_ts(&self) -> Ts {
        self.tss.last().copied().unwrap_or(0)
    }

    /// Number of rows visible at snapshot `ts` — a prefix, because rows are
    /// sealed in commit order.
    pub fn visible_prefix(&self, ts: Ts) -> usize {
        self.tss.partition_point(|&t| t <= ts)
    }

    /// The column at `col`.
    #[inline]
    pub fn col(&self, col: usize) -> &ColumnData {
        &self.cols[col]
    }

    /// Approximate compressed size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.tss.len() * 8 + self.cols.iter().map(|c| c.approx_bytes()).sum::<usize>()
    }

    /// Size the segment would occupy with every column fully decoded
    /// (same ts-column term as [`Segment::approx_bytes`]).
    pub fn decoded_bytes(&self) -> usize {
        self.tss.len() * 8 + self.decoded_bytes
    }

    /// Zone-map lookup: the `(min, max)` of a `u32` column over *all* rows
    /// in the segment. `None` for non-u32 columns and empty segments. The
    /// range covers rows beyond any visible prefix too, so a scan that
    /// skips a segment because this range misses its predicate can never
    /// skip a visible matching row.
    #[inline]
    pub fn u32_minmax(&self, col: usize) -> Option<(u32, u32)> {
        self.u32_minmax.get(col).copied().flatten()
    }
}

/// Builds a sealed [`Segment`] from row-format input, choosing an encoding
/// per column.
pub struct SegmentBuilder {
    table: TableId,
    tss: Vec<Ts>,
    rows: Vec<Row>,
    /// When false, integer/string compression is skipped (ablation knob).
    compress: bool,
}

impl SegmentBuilder {
    /// A builder for `table` with compression enabled.
    pub fn new(table: TableId) -> Self {
        SegmentBuilder { table, tss: Vec::new(), rows: Vec::new(), compress: true }
    }

    /// Disables dictionary/RLE compression (used by the compression
    /// ablation bench).
    pub fn without_compression(mut self) -> Self {
        self.compress = false;
        self
    }

    /// Appends one committed row. Rows must arrive in commit-ts order.
    pub fn push(&mut self, ts: Ts, row: Row) {
        debug_assert!(self.tss.last().is_none_or(|&last| last <= ts));
        self.tss.push(ts);
        self.rows.push(row);
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Seals the buffered rows into a segment.
    pub fn build(self) -> Segment {
        let types = table_column_types(self.table);
        let n = self.rows.len();
        let mut cols = Vec::with_capacity(types.len());
        let mut u32_minmax = Vec::with_capacity(types.len());
        for (ci, ty) in types.iter().enumerate() {
            let mut minmax = None;
            let col = match ty {
                ColumnType::U64 => ColumnData::U64(
                    self.rows.iter().map(|r| r[ci].as_u64().expect("typed")).collect(),
                ),
                ColumnType::U32 => {
                    let vals: Vec<u32> =
                        self.rows.iter().map(|r| r[ci].as_u32().expect("typed")).collect();
                    minmax = vals
                        .iter()
                        .fold(None, |acc: Option<(u32, u32)>, &v| match acc {
                            None => Some((v, v)),
                            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
                        });
                    if self.compress && n > 16 {
                        let rle = RleU32::encode(&vals);
                        if (rle.run_count() as f64) < RLE_THRESHOLD * n as f64 {
                            ColumnData::U32Rle(rle)
                        } else {
                            // No useful runs: bit-pack when the value
                            // domain is narrow enough to pay off.
                            let packed = PackedU32::encode(&vals);
                            if packed.bits() <= PACK_MAX_BITS {
                                ColumnData::U32Packed(packed)
                            } else {
                                ColumnData::U32(vals)
                            }
                        }
                    } else {
                        ColumnData::U32(vals)
                    }
                }
                ColumnType::Money => ColumnData::Money(
                    self.rows
                        .iter()
                        .map(|r| r[ci].as_money().expect("typed").cents())
                        .collect(),
                ),
                ColumnType::Str => {
                    let arcs: Vec<&Arc<str>> = self
                        .rows
                        .iter()
                        .map(|r| match &r[ci] {
                            hat_common::Value::Str(s) => s,
                            other => panic!("expected str, got {}", other.type_name()),
                        })
                        .collect();
                    ColumnData::Str(DictColumn::encode(arcs))
                }
                ColumnType::Bool => ColumnData::Bool(
                    self.rows.iter().map(|r| r[ci].as_bool().expect("typed")).collect(),
                ),
            };
            cols.push(col);
            u32_minmax.push(minmax);
        }
        let decoded_bytes = cols.iter().map(|c| c.decoded_bytes()).sum();
        Segment { tss: self.tss, cols, u32_minmax, decoded_bytes }
    }
}

/// The row-format tail of recently committed rows not yet sealed.
pub type DeltaStore = Vec<(Ts, Row)>;

struct ColInner {
    segments: Vec<Arc<Segment>>,
    delta: DeltaStore,
}

/// A column-format table copy: sealed segments plus a delta tail.
pub struct ColumnTable {
    table: TableId,
    inner: RwLock<ColInner>,
}

impl ColumnTable {
    /// An empty columnar copy of `table`.
    pub fn new(table: TableId) -> Self {
        ColumnTable {
            table,
            inner: RwLock::new(ColInner { segments: Vec::new(), delta: Vec::new() }),
        }
    }

    /// The table this copy mirrors.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Appends a committed row to the delta. Rows must arrive in commit-ts
    /// order (the engines append during commit installation, which the
    /// timestamp oracle serializes).
    pub fn append_delta(&self, ts: Ts, row: Row) {
        let mut inner = self.inner.write();
        debug_assert!(inner.delta.last().is_none_or(|(last, _)| *last <= ts));
        inner.delta.push((ts, row));
    }

    /// Bulk-loads `rows` as a single sealed segment committed at `ts`.
    pub fn load_segment(&self, ts: Ts, rows: impl IntoIterator<Item = Row>) {
        let mut builder = SegmentBuilder::new(self.table);
        for row in rows {
            builder.push(ts, row);
        }
        if builder.is_empty() {
            return;
        }
        let seg = Arc::new(builder.build());
        self.inner.write().segments.push(seg);
    }

    /// Current delta length (compaction trigger input).
    pub fn delta_len(&self) -> usize {
        self.inner.read().delta.len()
    }

    /// Seals every delta row with `ts <= upto` into a new segment and
    /// removes it from the delta, atomically with respect to snapshots.
    /// Returns the number of rows sealed.
    pub fn compact(&self, upto: Ts) -> usize {
        // Build outside the write lock from a snapshot of the prefix, then
        // swap under the lock. The delta prefix is immutable (append-only),
        // so the rebuild races with nothing.
        let prefix: Vec<(Ts, Row)> = {
            let inner = self.inner.read();
            let n = inner.delta.partition_point(|(t, _)| *t <= upto);
            inner.delta[..n].to_vec()
        };
        if prefix.is_empty() {
            return 0;
        }
        let mut builder = SegmentBuilder::new(self.table);
        for (ts, row) in &prefix {
            builder.push(*ts, Arc::clone(row));
        }
        let seg = Arc::new(builder.build());
        let mut inner = self.inner.write();
        inner.delta.drain(..prefix.len());
        inner.segments.push(seg);
        prefix.len()
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.inner.read().segments.len()
    }

    /// Benchmark reset: keeps only the first `n` sealed segments (the ones
    /// built at load time) and clears the delta. Callers must guarantee no
    /// concurrent writers.
    pub fn reset_keep_segments(&self, n: usize) {
        let mut inner = self.inner.write();
        inner.segments.truncate(n);
        inner.delta.clear();
    }

    /// Takes a consistent snapshot for reading at timestamp `ts`.
    pub fn snapshot(&self, ts: Ts) -> ColumnSnapshot {
        let inner = self.inner.read();
        let delta_visible = inner.delta.partition_point(|(t, _)| *t <= ts);
        ColumnSnapshot {
            ts,
            segments: inner.segments.clone(),
            delta: inner.delta[..delta_visible].to_vec(),
        }
    }

    /// Approximate compressed size in bytes (segments only).
    pub fn approx_bytes(&self) -> usize {
        self.inner.read().segments.iter().map(|s| s.approx_bytes()).sum()
    }

    /// Size the sealed segments would occupy fully decoded (compression
    /// ratio denominator for the `colstore.*` gauges).
    pub fn decoded_bytes_equiv(&self) -> usize {
        self.inner.read().segments.iter().map(|s| s.decoded_bytes()).sum()
    }
}

/// A consistent columnar view at one timestamp.
pub struct ColumnSnapshot {
    ts: Ts,
    segments: Vec<Arc<Segment>>,
    delta: Vec<(Ts, Row)>,
}

impl ColumnSnapshot {
    /// The snapshot timestamp.
    pub fn ts(&self) -> Ts {
        self.ts
    }

    /// Sealed segments (scan the visible prefix of each).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Visible delta rows in commit order.
    pub fn delta(&self) -> &[(Ts, Row)] {
        &self.delta
    }

    /// Total visible row count.
    pub fn visible_rows(&self) -> usize {
        self.segments.iter().map(|s| s.visible_prefix(self.ts)).sum::<usize>()
            + self.delta.len()
    }
}

/// A columnar copy of an *update-only* table (the dimensions).
///
/// Dimension tables never grow during the benchmark (§5.1) but Payment
/// rewrites `C_PAYMENTCNT` and `S_YTD`. A `DimColumnCopy` keeps one sealed
/// segment (row position == row id, by load order) plus an update log;
/// readers take the segment and an overlay map of the updates visible at
/// their snapshot — merge-on-read for updates, the dual of the insert
/// delta. [`DimColumnCopy::fold`] rebuilds the segment from a log prefix,
/// like a delta-merge.
pub struct DimColumnCopy {
    table: TableId,
    inner: RwLock<DimInner>,
}

struct DimInner {
    /// The segment as originally loaded (for benchmark reset).
    loaded: Option<Arc<Segment>>,
    segment: Option<Arc<Segment>>,
    /// `(commit ts, row id, new row)` in commit order.
    updates: Vec<(Ts, u64, Row)>,
}

impl DimColumnCopy {
    /// An empty copy of `table`.
    pub fn new(table: TableId) -> Self {
        DimColumnCopy {
            table,
            inner: RwLock::new(DimInner { loaded: None, segment: None, updates: Vec::new() }),
        }
    }

    /// The mirrored table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Seals the loaded rows (in row-id order) into the base segment.
    pub fn load(&self, ts: Ts, rows: impl IntoIterator<Item = Row>) {
        let mut builder = SegmentBuilder::new(self.table);
        for row in rows {
            builder.push(ts, row);
        }
        let seg = Arc::new(builder.build());
        let mut inner = self.inner.write();
        inner.loaded = Some(Arc::clone(&seg));
        inner.segment = Some(seg);
        inner.updates.clear();
    }

    /// Records a committed update of row `rid`. Must arrive in ts order.
    pub fn append_update(&self, ts: Ts, rid: u64, row: Row) {
        let mut inner = self.inner.write();
        debug_assert!(inner.updates.last().is_none_or(|(t, _, _)| *t <= ts));
        inner.updates.push((ts, rid, row));
    }

    /// Pending (unfolded) updates.
    pub fn update_len(&self) -> usize {
        self.inner.read().updates.len()
    }

    /// Rebuilds the segment with every update at or before `upto` applied,
    /// and drops that log prefix. Returns the number of updates folded.
    pub fn fold(&self, upto: Ts) -> usize {
        let (segment, prefix) = {
            let inner = self.inner.read();
            let Some(seg) = inner.segment.clone() else { return 0 };
            let n = inner.updates.partition_point(|(t, _, _)| *t <= upto);
            if n == 0 {
                return 0;
            }
            (seg, inner.updates[..n].to_vec())
        };
        // Materialize rows, apply updates, re-seal. Row count is dim-sized
        // (thousands), so this is a cheap background operation.
        let mut rows: Vec<Row> = (0..segment.row_count())
            .map(|i| materialize_row(self.table, &segment, i))
            .collect();
        let mut max_ts = segment.max_ts();
        for (ts, rid, row) in &prefix {
            rows[*rid as usize] = Arc::clone(row);
            max_ts = max_ts.max(*ts);
        }
        let mut builder = SegmentBuilder::new(self.table);
        for row in rows {
            builder.push(max_ts, row);
        }
        let new_seg = Arc::new(builder.build());
        let mut inner = self.inner.write();
        inner.updates.drain(..prefix.len());
        inner.segment = Some(new_seg);
        prefix.len()
    }

    /// Benchmark reset: restore the loaded segment, drop all updates.
    pub fn reset(&self) {
        let mut inner = self.inner.write();
        inner.segment = inner.loaded.clone();
        inner.updates.clear();
    }

    /// A consistent snapshot at `ts`: the base segment and the overlay of
    /// visible updates (last write per row wins).
    pub fn snapshot(&self, ts: Ts) -> DimSnapshot {
        // Only the copy of the visible log runs under the read lock: every
        // commit's `append_update` waits for it, so the overlay is hashed
        // after the lock is released.
        let (segment, updates) = {
            let inner = self.inner.read();
            let visible = inner.updates.partition_point(|(t, _, _)| *t <= ts);
            (inner.segment.clone(), inner.updates[..visible].to_vec())
        };
        let overlay = updates.into_iter().map(|(_, rid, row)| (rid, row)).collect();
        DimSnapshot { ts, segment, overlay }
    }
}

/// Converts one columnar row back to row format (dim fold path and the
/// scalar fallback batch adapter in the query layer).
pub fn materialize_row(table: TableId, seg: &Segment, idx: usize) -> Row {
    use hat_common::Value;
    let types = table_column_types(table);
    let values: Vec<Value> = types
        .iter()
        .enumerate()
        .map(|(ci, ty)| match ty {
            ColumnType::U64 => Value::U64(seg.col(ci).u64_at(idx)),
            ColumnType::U32 => Value::U32(seg.col(ci).u32_at(idx)),
            ColumnType::Money => Value::Money(seg.col(ci).money_at(idx)),
            ColumnType::Str => Value::Str(Arc::clone(seg.col(ci).arc_str_at(idx))),
            ColumnType::Bool => Value::Bool(seg.col(ci).bool_at(idx)),
        })
        .collect();
    values.into()
}

/// A dimension snapshot: sealed columns plus an update overlay.
pub struct DimSnapshot {
    ts: Ts,
    segment: Option<Arc<Segment>>,
    overlay: HashMap<u64, Row>,
}

impl DimSnapshot {
    /// The snapshot timestamp.
    pub fn ts(&self) -> Ts {
        self.ts
    }

    /// The sealed segment, if loaded.
    pub fn segment(&self) -> Option<&Arc<Segment>> {
        self.segment.as_ref()
    }

    /// The update overlay: row id -> replacement row.
    pub fn overlay(&self) -> &HashMap<u64, Row> {
        &self.overlay
    }

    /// Number of visible rows.
    pub fn visible_rows(&self) -> usize {
        self.segment.as_ref().map_or(0, |s| s.row_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_common::value::row_from;
    use hat_common::Value;

    #[test]
    fn rle_roundtrip() {
        let data = vec![1, 1, 1, 2, 2, 3, 3, 3, 3, 1];
        let rle = RleU32::encode(&data);
        assert_eq!(rle.len(), data.len());
        assert_eq!(rle.run_count(), 4);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(rle.get(i), v, "index {i}");
        }
        assert_eq!(rle.iter().collect::<Vec<_>>(), data);
    }

    #[test]
    fn rle_empty_and_single() {
        let rle = RleU32::encode(&[]);
        assert!(rle.is_empty());
        assert_eq!(rle.iter().count(), 0);
        let rle = RleU32::encode(&[42]);
        assert_eq!(rle.get(0), 42);
        assert_eq!(rle.len(), 1);
    }

    #[test]
    fn dict_roundtrip() {
        let strs: Vec<Arc<str>> =
            ["asia", "europe", "asia", "america", "asia"].iter().map(|s| Arc::from(*s)).collect();
        let dict = DictColumn::encode(strs.iter());
        assert_eq!(dict.len(), 5);
        assert_eq!(dict.cardinality(), 3);
        assert_eq!(dict.get(0), "asia");
        assert_eq!(dict.get(3), "america");
        assert_eq!(dict.code(0), dict.code(2));
        assert_eq!(dict.code_of("europe"), Some(dict.code(1)));
        assert_eq!(dict.code_of("antarctica"), None);
    }

    fn history_row(ok: u64, ck: u32, cents: i64) -> Row {
        row_from([
            Value::U64(ok),
            Value::U32(ck),
            Value::Money(Money::from_cents(cents)),
        ])
    }

    #[test]
    fn segment_builder_types_and_access() {
        let mut b = SegmentBuilder::new(TableId::History);
        for i in 0..100u64 {
            b.push(i + 2, history_row(i, (i % 5) as u32, i as i64 * 10));
        }
        let seg = b.build();
        assert_eq!(seg.row_count(), 100);
        assert_eq!(seg.col(0).u64_at(7), 7);
        assert_eq!(seg.col(1).u32_at(7), 2);
        assert_eq!(seg.col(2).money_at(7).cents(), 70);
        assert_eq!(seg.max_ts(), 101);
        // ts column filtering.
        assert_eq!(seg.visible_prefix(51), 50);
        assert_eq!(seg.visible_prefix(1), 0);
        assert_eq!(seg.visible_prefix(u64::MAX), 100);
    }

    #[test]
    fn zone_map_tracks_u32_columns_only() {
        let mut b = SegmentBuilder::new(TableId::History);
        for i in 0..100u64 {
            b.push(2, history_row(i, 300 + (i % 5) as u32, 0));
        }
        let seg = b.build();
        assert_eq!(seg.u32_minmax(1), Some((300, 304)));
        assert_eq!(seg.u32_minmax(0), None, "u64 column has no u32 zone map");
        assert_eq!(seg.u32_minmax(2), None, "money column has no u32 zone map");
        assert_eq!(seg.u32_minmax(99), None, "out-of-range column is None");
        let empty = SegmentBuilder::new(TableId::History).build();
        assert_eq!(empty.u32_minmax(1), None);
    }

    #[test]
    fn low_cardinality_u32_uses_rle() {
        let mut b = SegmentBuilder::new(TableId::History);
        for i in 0..100u64 {
            // custkey column has long runs of one value.
            b.push(2, history_row(i, (i / 50) as u32, 0));
        }
        let seg = b.build();
        assert!(matches!(seg.col(1), ColumnData::U32Rle(_)));
        assert_eq!(seg.col(1).u32_at(49), 0);
        assert_eq!(seg.col(1).u32_at(50), 1);
    }

    #[test]
    fn narrow_high_cardinality_u32_bit_packs() {
        let mut b = SegmentBuilder::new(TableId::History);
        for i in 0..100u64 {
            // No runs, but the domain fits in 7 bits.
            b.push(2, history_row(i, i as u32, 0));
        }
        let seg = b.build();
        assert!(matches!(seg.col(1), ColumnData::U32Packed(_)));
        for i in 0..100usize {
            assert_eq!(seg.col(1).u32_at(i), i as u32);
        }
        assert!(seg.col(1).approx_bytes() < 100 * 4, "packed must beat plain");
    }

    #[test]
    fn wide_high_cardinality_u32_stays_plain() {
        let mut b = SegmentBuilder::new(TableId::History);
        for i in 0..100u64 {
            // Values need more than PACK_MAX_BITS bits: packing is not
            // worth the shift/mask overhead, keep plain.
            b.push(2, history_row(i, u32::MAX - i as u32, 0));
        }
        let seg = b.build();
        assert!(matches!(seg.col(1), ColumnData::U32(_)));
    }

    #[test]
    fn packed_u32_roundtrip_word_straddle() {
        // 7-bit values straddle u64 word boundaries every 64/7 values.
        let vals: Vec<u32> = (0..1000u32).map(|i| i % 128).collect();
        let packed = PackedU32::encode(&vals);
        assert_eq!(packed.bits(), 7);
        assert_eq!(packed.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(packed.get(i), v, "index {i}");
        }
        assert_eq!(packed.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn packed_u32_edge_widths() {
        // Zero only: minimum width of 1 bit.
        let zeros = vec![0u32; 100];
        let p = PackedU32::encode(&zeros);
        assert_eq!(p.bits(), 1);
        assert!(p.iter().all(|v| v == 0));
        // Full-width values: 32 bits, mask must not overflow.
        let wide = vec![u32::MAX, 0, u32::MAX - 1, 7];
        let p = PackedU32::encode(&wide);
        assert_eq!(p.bits(), 32);
        assert_eq!(p.iter().collect::<Vec<_>>(), wide);
        // Empty input.
        let p = PackedU32::encode(&[]);
        assert!(p.is_empty());
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    fn rle_decode_into_matches_get_on_every_window_shape() {
        // Runs of 20 (longer than one short-run store) and of 1.
        let data: Vec<u32> = (0..500u32).map(|i| if i < 250 { i / 20 } else { i }).collect();
        let rle = RleU32::encode(&data);
        for (lo, hi) in [(0, 500), (0, 0), (3, 4), (5, 9), (100, 101), (240, 260), (499, 500)] {
            // Appends after what `out` already holds.
            let mut out = vec![u32::MAX];
            rle.decode_into(lo, hi, &mut out);
            assert_eq!(out[0], u32::MAX);
            assert_eq!(&out[1..], &data[lo..hi], "window [{lo}, {hi})");
        }
    }

    #[test]
    fn rle_runs_in_covers_window_exactly() {
        let data = vec![5, 5, 5, 7, 7, 9, 9, 9, 9, 5];
        let rle = RleU32::encode(&data);
        // Window [2, 8): tail of the 5-run, the 7-run, head of the 9-run.
        let runs: Vec<(u32, usize, usize)> = rle.runs_in(2, 8).collect();
        assert_eq!(runs, vec![(5, 2, 3), (7, 3, 5), (9, 5, 8)]);
        // Full window reproduces the data.
        let mut out = Vec::new();
        for (v, s, e) in rle.runs_in(0, data.len()) {
            out.extend(std::iter::repeat_n(v, e - s));
            assert!(s < e);
        }
        assert_eq!(out, data);
        // Empty window.
        assert_eq!(rle.runs_in(4, 4).count(), 0);
    }

    #[test]
    fn dict_encode_stable_and_duplicate_free() {
        // Regression for the former unsafe self-referential build map:
        // codes must be assigned in first-seen order and the entry table
        // must contain each distinct string exactly once.
        let strs: Vec<Arc<str>> = ["b", "a", "b", "c", "a", "b", "d", "c"]
            .iter()
            .map(|s| Arc::from(*s))
            .collect();
        let dict = DictColumn::encode(strs.iter());
        assert_eq!(dict.entries().iter().map(|s| &**s).collect::<Vec<_>>(), [
            "b", "a", "c", "d"
        ]);
        assert_eq!(dict.codes(), [0, 1, 0, 2, 1, 0, 3, 2]);
        let mut seen = std::collections::HashSet::new();
        assert!(dict.entries().iter().all(|s| seen.insert(Arc::clone(s))));
        // Encoding the same input twice is deterministic.
        let again = DictColumn::encode(strs.iter());
        assert_eq!(again.codes(), dict.codes());
        assert_eq!(again.entries(), dict.entries());
    }

    #[test]
    fn decoded_bytes_reflect_compression_ratio() {
        let mut b = SegmentBuilder::new(TableId::Supplier);
        for i in 0..200u32 {
            b.push(2, supplier_row(i % 4, 0));
        }
        let seg = b.build();
        // Heavily repetitive strings: encoded size far below decoded size.
        assert!(seg.approx_bytes() < seg.decoded_bytes());
        // Decoded equivalent counts every string byte once per row.
        assert!(seg.decoded_bytes() > 200 * "Supplier#000000001".len());
    }

    #[test]
    fn without_compression_stays_plain() {
        let mut b = SegmentBuilder::new(TableId::History).without_compression();
        for i in 0..100u64 {
            b.push(2, history_row(i, 1, 0));
        }
        let seg = b.build();
        assert!(matches!(seg.col(1), ColumnData::U32(_)));
    }

    #[test]
    fn column_table_snapshot_and_delta() {
        let ct = ColumnTable::new(TableId::History);
        ct.load_segment(1, (0..10).map(|i| history_row(i, 0, 0)));
        for i in 10..20u64 {
            ct.append_delta(i, history_row(i, 0, 0));
        }
        // Snapshot at ts 14 sees segment (10 rows) + delta ts 10..=14.
        let snap = ct.snapshot(14);
        assert_eq!(snap.visible_rows(), 15);
        assert_eq!(snap.delta().len(), 5);
        // Snapshot at ts 1 sees only the loaded segment.
        assert_eq!(ct.snapshot(1).visible_rows(), 10);
    }

    #[test]
    fn compaction_preserves_visibility() {
        let ct = ColumnTable::new(TableId::History);
        for i in 2..50u64 {
            ct.append_delta(i, history_row(i, 0, 0));
        }
        let before = ct.snapshot(30).visible_rows();
        let sealed = ct.compact(30);
        assert_eq!(sealed, 29, "ts 2..=30 sealed");
        assert_eq!(ct.delta_len(), 19);
        let after = ct.snapshot(30).visible_rows();
        assert_eq!(before, after, "compaction must not change visibility");
        assert_eq!(ct.snapshot(u64::MAX).visible_rows(), 48);
        // Compacting again with the same horizon is a no-op.
        assert_eq!(ct.compact(30), 0);
    }

    fn supplier_row(sk: u32, ytd_cents: i64) -> Row {
        row_from([
            Value::U32(sk),
            Value::from(format!("Supplier#{sk:09}")),
            Value::from("addr"),
            Value::from("CITY0"),
            Value::from("CHINA"),
            Value::from("ASIA"),
            Value::from("phone"),
            Value::Money(Money::from_cents(ytd_cents)),
        ])
    }

    #[test]
    fn dim_copy_overlay_reflects_updates_by_snapshot() {
        let dim = DimColumnCopy::new(TableId::Supplier);
        dim.load(1, (1..=5).map(|sk| supplier_row(sk, 0)));
        dim.append_update(3, 1, supplier_row(2, 100));
        dim.append_update(5, 4, supplier_row(5, 200));
        // Snapshot before any update: empty overlay.
        let snap = dim.snapshot(2);
        assert!(snap.overlay().is_empty());
        assert_eq!(snap.visible_rows(), 5);
        // Snapshot between updates.
        let snap = dim.snapshot(4);
        assert_eq!(snap.overlay().len(), 1);
        assert_eq!(snap.overlay()[&1][7].as_money().unwrap().cents(), 100);
        // Snapshot after both.
        let snap = dim.snapshot(10);
        assert_eq!(snap.overlay().len(), 2);
    }

    #[test]
    fn dim_copy_overlay_last_write_wins() {
        let dim = DimColumnCopy::new(TableId::Supplier);
        dim.load(1, (1..=2).map(|sk| supplier_row(sk, 0)));
        dim.append_update(3, 0, supplier_row(1, 100));
        dim.append_update(4, 0, supplier_row(1, 250));
        let snap = dim.snapshot(10);
        assert_eq!(snap.overlay()[&0][7].as_money().unwrap().cents(), 250);
    }

    #[test]
    fn dim_fold_applies_and_preserves_visibility() {
        let dim = DimColumnCopy::new(TableId::Supplier);
        dim.load(1, (1..=4).map(|sk| supplier_row(sk, 0)));
        for (ts, rid) in [(3u64, 0u64), (4, 2), (6, 0)] {
            dim.append_update(ts, rid, supplier_row(rid as u32 + 1, ts as i64 * 10));
        }
        assert_eq!(dim.update_len(), 3);
        let before = dim.snapshot(10);
        assert_eq!(dim.fold(4), 2, "two updates folded");
        assert_eq!(dim.update_len(), 1);
        let after = dim.snapshot(10);
        // Same logical content at ts 10: folded values in segment, rest in
        // overlay.
        let seg = after.segment().unwrap();
        assert_eq!(seg.col(7).money_at(2).cents(), 40);
        assert_eq!(after.overlay()[&0][7].as_money().unwrap().cents(), 60);
        assert_eq!(before.overlay()[&0][7].as_money().unwrap().cents(), 60);
        assert_eq!(dim.fold(4), 0, "idempotent for same horizon");
    }

    #[test]
    fn dim_reset_restores_loaded_content() {
        let dim = DimColumnCopy::new(TableId::Supplier);
        dim.load(1, (1..=3).map(|sk| supplier_row(sk, 0)));
        dim.append_update(3, 1, supplier_row(2, 999));
        dim.fold(3);
        dim.reset();
        let snap = dim.snapshot(10);
        assert!(snap.overlay().is_empty());
        assert_eq!(snap.segment().unwrap().col(7).money_at(1).cents(), 0);
        assert_eq!(dim.update_len(), 0);
    }

    #[test]
    fn materialize_roundtrip() {
        let mut b = SegmentBuilder::new(TableId::Supplier);
        let original = supplier_row(7, 42);
        b.push(1, Arc::clone(&original));
        let seg = b.build();
        let back = materialize_row(TableId::Supplier, &seg, 0);
        assert_eq!(back, original);
    }

    #[test]
    fn reset_keeps_loaded_segments_only() {
        let ct = ColumnTable::new(TableId::History);
        ct.load_segment(1, (0..10).map(|i| history_row(i, 0, 0)));
        for i in 2..30u64 {
            ct.append_delta(i, history_row(100 + i, 0, 0));
        }
        ct.compact(20);
        assert_eq!(ct.segment_count(), 2);
        ct.reset_keep_segments(1);
        assert_eq!(ct.segment_count(), 1);
        assert_eq!(ct.delta_len(), 0);
        assert_eq!(ct.snapshot(u64::MAX).visible_rows(), 10);
    }

    #[test]
    fn segment_bytes_reflect_compression() {
        let mut plain = SegmentBuilder::new(TableId::History).without_compression();
        let mut comp = SegmentBuilder::new(TableId::History);
        for i in 0..1000u64 {
            plain.push(2, history_row(i, 1, 0));
            comp.push(2, history_row(i, 1, 0));
        }
        let p = plain.build().approx_bytes();
        let c = comp.build().approx_bytes();
        assert!(c < p, "RLE column must shrink the segment ({c} >= {p})");
    }
}
