//! Batch scan units and vectorized predicate kernels.
//!
//! The batch API replaces row-at-a-time visitation for the probe phase:
//! views emit [`ScanBatch`]es (at most [`MORSEL_ROWS`](crate::view::MORSEL_ROWS)
//! rows each), the executor evaluates the fact filter as vectorized
//! kernels that tighten a *selection vector* of batch-relative row
//! indices, and only surviving rows are materialized for join probing and
//! aggregation (late materialization): [`gather_u32`] and [`gather_money`]
//! copy one column's selected values into a plain vector, dispatching on
//! the column's encoding once per batch rather than once per row.
//!
//! Kernels work on the encoded domain wherever the storage allows:
//!
//! * string predicates against dictionary columns are translated **once
//!   per segment** into a per-code pass table, then each row is a single
//!   `u32` table lookup — no string decode, no string compare;
//! * RLE columns filter run-at-a-time through [`RleU32::runs_in`] — one
//!   predicate evaluation per run, one ordered merge against the
//!   selection vector — instead of a binary search per row;
//! * bit-packed and plain `u32` columns evaluate per index without
//!   constructing a `RowRef`.
//!
//! Anything else (row-format batches, predicate/column combinations with
//! no specialized kernel) falls back to scalar [`RowRef`] evaluation, so
//! the vectorized path is result-identical to the scalar path by
//! construction for the supported kernels and by shared code for the
//! rest.

use std::collections::HashMap;

use hat_common::{ColId, Row};
use hat_storage::colstore::{ColumnData, Segment};

use crate::predicate::{ColPredicate, Predicate};
use crate::view::RowRef;

/// One unit of batch scan work: a fixed-width chunk of rows in either
/// storage format, borrowed from the view that emitted it.
pub enum ScanBatch<'a> {
    /// Rows `[lo, lo + len)` of a sealed columnar segment, still encoded.
    Cols {
        seg: &'a Segment,
        lo: usize,
        len: usize,
    },
    /// Row-format rows: delta tails, row stores, dimension overlays, and
    /// the scalar fallback adapter.
    Rows(&'a [Row]),
}

impl ScanBatch<'_> {
    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        match self {
            ScanBatch::Cols { len, .. } => *len,
            ScanBatch::Rows(rows) => rows.len(),
        }
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A scalar row reference to batch-relative row `i`.
    #[inline]
    pub fn row_ref(&self, i: usize) -> RowRef<'_> {
        match self {
            ScanBatch::Cols { seg, lo, .. } => RowRef::Col { seg, idx: lo + i },
            ScanBatch::Rows(rows) => RowRef::Row(&rows[i]),
        }
    }
}

/// Per-worker scratch state for the filter kernels.
///
/// Holds the dictionary-predicate translations — keyed by segment address
/// and conjunct index, computed once per (segment, predicate) and reused
/// by every batch of that segment the worker scans — plus a reusable
/// selection-vector scratch buffer.
#[derive(Default)]
pub struct KernelCache {
    /// `(segment address, conjunct index) -> ` per-dictionary-code pass
    /// table. Segment addresses are stable for the life of a query: the
    /// view holds its snapshot's `Arc<Segment>`s alive.
    dict_pass: HashMap<(usize, usize), Vec<bool>>,
    /// Swap buffer for the run-at-a-time merge.
    scratch: Vec<u32>,
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> Self {
        KernelCache::default()
    }
}

/// Evaluates `pred` over `batch`, leaving in `sel` the batch-relative
/// indices of the rows that pass (ascending). `sel` is reset first, so
/// callers just reuse one vector across batches.
pub fn filter_batch(
    pred: &Predicate,
    batch: &ScanBatch<'_>,
    sel: &mut Vec<u32>,
    cache: &mut KernelCache,
) {
    sel.clear();
    sel.extend(0..batch.len() as u32);
    if pred.is_trivial() {
        return;
    }
    match batch {
        ScanBatch::Rows(rows) => {
            // Scalar fallback: row-format batches evaluate exactly as the
            // row-at-a-time path would.
            sel.retain(|&i| pred.eval(&RowRef::Row(&rows[i as usize])));
        }
        ScanBatch::Cols { seg, lo, .. } => {
            for (ci, conjunct) in pred.conjuncts.iter().enumerate() {
                if sel.is_empty() {
                    return;
                }
                filter_conjunct_cols(conjunct, ci, seg, *lo, sel, cache);
            }
        }
    }
}

/// Tightens `sel` by one conjunct over an encoded columnar batch.
fn filter_conjunct_cols(
    conjunct: &ColPredicate,
    conjunct_idx: usize,
    seg: &Segment,
    lo: usize,
    sel: &mut Vec<u32>,
    cache: &mut KernelCache,
) {
    let col = seg.col(conjunct.col());
    match (conjunct, col) {
        // u32 predicates over plain vectors: direct slice indexing.
        (_, ColumnData::U32(v)) if u32_test(conjunct, 0).is_some() => {
            sel.retain(|&i| u32_test(conjunct, v[lo + i as usize]).unwrap());
        }
        // u32 predicates over bit-packed vectors: decode per index (a
        // shift+mask), no RowRef construction.
        (_, ColumnData::U32Packed(p)) if u32_test(conjunct, 0).is_some() => {
            sel.retain(|&i| u32_test(conjunct, p.get(lo + i as usize)).unwrap());
        }
        // u32 predicates over RLE: one predicate evaluation per run, then
        // an ordered merge of the passing runs against the selection
        // vector. Never touches per-row storage.
        (_, ColumnData::U32Rle(r)) if u32_test(conjunct, 0).is_some() => {
            let hi = lo + sel.last().map_or(0, |&i| i as usize + 1);
            let mut passing = r
                .runs_in(lo, hi)
                .filter(|&(v, _, _)| u32_test(conjunct, v).unwrap());
            let mut cur = passing.next();
            let out = &mut cache.scratch;
            out.clear();
            for &i in sel.iter() {
                let abs = lo + i as usize;
                while let Some((_, _, end)) = cur {
                    if abs >= end {
                        cur = passing.next();
                    } else {
                        break;
                    }
                }
                match cur {
                    Some((_, start, _)) if abs >= start => out.push(i),
                    Some(_) => {}
                    None => break,
                }
            }
            std::mem::swap(sel, out);
        }
        // String predicates over dictionary columns: translate the
        // predicate to a per-code pass table once per segment, then each
        // row is one code lookup.
        (
            ColPredicate::StrEq(..) | ColPredicate::StrIn(..) | ColPredicate::StrBetween(..),
            ColumnData::Str(dict),
        ) => {
            let key = (seg as *const Segment as usize, conjunct_idx);
            let pass = cache.dict_pass.entry(key).or_insert_with(|| {
                dict.entries().iter().map(|s| str_test(conjunct, s)).collect()
            });
            let codes = dict.codes();
            sel.retain(|&i| pass[codes[lo + i as usize] as usize]);
        }
        // No specialized kernel (or a type mismatch): scalar fallback,
        // which preserves the scalar path's behavior — including its
        // panics on mistyped predicates.
        _ => {
            sel.retain(|&i| conjunct.eval(&RowRef::Col { seg, idx: lo + i as usize }));
        }
    }
}

/// Evaluates a u32 predicate against one value; `None` when the predicate
/// is not a u32 predicate (kernel dispatch guard).
#[inline]
fn u32_test(conjunct: &ColPredicate, v: u32) -> Option<bool> {
    match conjunct {
        ColPredicate::U32Eq(_, x) => Some(v == *x),
        ColPredicate::U32Between(_, lo, hi) => Some(*lo <= v && v <= *hi),
        ColPredicate::U32In(_, xs) => Some(xs.contains(&v)),
        _ => None,
    }
}

/// Evaluates a string predicate against one dictionary entry.
fn str_test(conjunct: &ColPredicate, s: &str) -> bool {
    match conjunct {
        ColPredicate::StrEq(_, x) => s == x.as_str(),
        ColPredicate::StrIn(_, xs) => xs.iter().any(|x| x == s),
        ColPredicate::StrBetween(_, lo, hi) => lo.as_str() <= s && s <= hi.as_str(),
        _ => unreachable!("str_test on non-string predicate"),
    }
}

/// Gathers `u32` column `col` at the selected rows of `batch` into `out`
/// (cleared first), one value per entry of `sel`, in `sel` order.
///
/// This is the probe's late materialization: the encoding is dispatched
/// once per call, not once per row, and RLE columns are expanded run at
/// a time instead of searched per row. `sel` must be ascending.
pub fn gather_u32(batch: &ScanBatch<'_>, col: ColId, sel: &[u32], out: &mut Vec<u32>) {
    out.clear();
    match batch {
        ScanBatch::Rows(rows) => {
            out.extend(sel.iter().map(|&i| rows[i as usize][col].as_u32().expect("typed row")))
        }
        ScanBatch::Cols { seg, lo, .. } => match seg.col(col) {
            ColumnData::U32(v) => out.extend(sel.iter().map(|&i| v[lo + i as usize])),
            ColumnData::U32Packed(p) => out.extend(sel.iter().map(|&i| p.get(lo + i as usize))),
            ColumnData::U32Rle(r) => {
                // Expand the runs covering the selection's span, then pick
                // the selected rows in place: `sel` is ascending, so slot
                // `k` is read from `sel[k] - first >= k` before any later
                // write can reach it.
                let (Some(&first), Some(&last)) = (sel.first(), sel.last()) else { return };
                let (first, last) = (first as usize, last as usize);
                r.decode_into(lo + first, lo + last + 1, out);
                if sel.len() < out.len() {
                    for (k, &i) in sel.iter().enumerate() {
                        out[k] = out[i as usize - first];
                    }
                    out.truncate(sel.len());
                }
            }
            _ => panic!("gather_u32 on non-u32 column {col}"),
        },
    }
}

/// Gathers money column `col` at the selected rows of `batch` into `out`
/// as cents (cleared first), in `sel` order.
pub fn gather_money(batch: &ScanBatch<'_>, col: ColId, sel: &[u32], out: &mut Vec<i64>) {
    out.clear();
    match batch {
        ScanBatch::Rows(rows) => out.extend(
            sel.iter().map(|&i| rows[i as usize][col].as_money().expect("typed row").cents()),
        ),
        ScanBatch::Cols { seg, lo, .. } => match seg.col(col) {
            ColumnData::Money(v) => out.extend(sel.iter().map(|&i| v[lo + i as usize])),
            _ => panic!("gather_money on non-money column {col}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_common::value::row_from;
    use hat_common::{Money, TableId, Value};
    use hat_storage::colstore::SegmentBuilder;

    /// History rows: (orderkey u64, custkey u32, amount money).
    fn history_row(ok: u64, ck: u32, cents: i64) -> Row {
        row_from([
            Value::U64(ok),
            Value::U32(ck),
            Value::Money(Money::from_cents(cents)),
        ])
    }

    fn supplier_row(sk: u32, region: &str) -> Row {
        row_from([
            Value::U32(sk),
            Value::from(format!("Supplier#{sk:09}")),
            Value::from("addr"),
            Value::from("CITY0"),
            Value::from("CHINA"),
            Value::from(region),
            Value::from("phone"),
            Value::Money(Money::from_cents(0)),
        ])
    }

    fn seg_of(rows: impl IntoIterator<Item = Row>, table: TableId) -> Segment {
        let mut b = SegmentBuilder::new(table);
        for r in rows {
            b.push(1, r);
        }
        b.build()
    }

    fn selected(pred: &Predicate, batch: &ScanBatch<'_>) -> Vec<u32> {
        let mut sel = Vec::new();
        filter_batch(pred, batch, &mut sel, &mut KernelCache::new());
        sel
    }

    /// The kernels must agree with scalar RowRef evaluation on every
    /// encoding the segment builder can choose.
    fn assert_matches_scalar(pred: &Predicate, batch: &ScanBatch<'_>) {
        let scalar: Vec<u32> = (0..batch.len() as u32)
            .filter(|&i| pred.eval(&batch.row_ref(i as usize)))
            .collect();
        assert_eq!(selected(pred, batch), scalar);
    }

    #[test]
    fn u32_kernels_match_scalar_across_encodings() {
        // Three segments, three encodings of the custkey column: long runs
        // (RLE), narrow high-cardinality (packed), and an uncompressed one.
        let rle = seg_of((0..200).map(|i| history_row(i, (i / 60) as u32, 0)), TableId::History);
        assert!(matches!(rle.col(1), ColumnData::U32Rle(_)));
        let packed =
            seg_of((0..200).map(|i| history_row(i, (i % 97) as u32, 0)), TableId::History);
        assert!(matches!(packed.col(1), ColumnData::U32Packed(_)));
        let mut b = SegmentBuilder::new(TableId::History).without_compression();
        for i in 0..200u64 {
            b.push(1, history_row(i, (i % 97) as u32, 0));
        }
        let plain = b.build();
        assert!(matches!(plain.col(1), ColumnData::U32(_)));

        let preds = [
            Predicate::and(vec![ColPredicate::U32Eq(1, 2)]),
            Predicate::and(vec![ColPredicate::U32Between(1, 1, 2)]),
            Predicate::and(vec![ColPredicate::U32In(1, vec![0, 3, 96])]),
            Predicate::and(vec![ColPredicate::U32Eq(1, 9999)]), // nothing passes
            Predicate::all(),
        ];
        for seg in [&rle, &packed, &plain] {
            for pred in &preds {
                // Whole-segment batch and an offset batch.
                assert_matches_scalar(pred, &ScanBatch::Cols { seg, lo: 0, len: 200 });
                assert_matches_scalar(pred, &ScanBatch::Cols { seg, lo: 57, len: 100 });
            }
        }
    }

    #[test]
    fn dict_kernels_translate_once_and_match_scalar() {
        let regions = ["ASIA", "EUROPE", "AMERICA"];
        let seg = seg_of(
            (0..120u32).map(|i| supplier_row(i, regions[(i % 3) as usize])),
            TableId::Supplier,
        );
        assert!(matches!(seg.col(5), ColumnData::Str(_)));
        let preds = [
            Predicate::and(vec![ColPredicate::StrEq(5, "ASIA".into())]),
            Predicate::and(vec![ColPredicate::StrIn(5, vec!["ASIA".into(), "AMERICA".into()])]),
            Predicate::and(vec![ColPredicate::StrBetween(5, "AMERICA".into(), "ASIA".into())]),
            Predicate::and(vec![ColPredicate::StrEq(5, "ANTARCTICA".into())]),
        ];
        for pred in &preds {
            assert_matches_scalar(pred, &ScanBatch::Cols { seg: &seg, lo: 0, len: 120 });
            assert_matches_scalar(pred, &ScanBatch::Cols { seg: &seg, lo: 40, len: 41 });
        }
        // The translation is cached per (segment, conjunct): a second
        // batch over the same segment reuses it.
        let mut cache = KernelCache::new();
        let mut sel = Vec::new();
        let pred = &preds[0];
        filter_batch(pred, &ScanBatch::Cols { seg: &seg, lo: 0, len: 60 }, &mut sel, &mut cache);
        assert_eq!(cache.dict_pass.len(), 1);
        filter_batch(pred, &ScanBatch::Cols { seg: &seg, lo: 60, len: 60 }, &mut sel, &mut cache);
        assert_eq!(cache.dict_pass.len(), 1, "second batch hits the cache");
    }

    #[test]
    fn conjunction_tightens_selection_in_order() {
        let seg = seg_of(
            (0..100).map(|i| history_row(i, (i % 10) as u32, i as i64)),
            TableId::History,
        );
        let pred = Predicate::and(vec![
            ColPredicate::U32Between(1, 2, 5),
            ColPredicate::U32In(1, vec![3, 7]),
        ]);
        let batch = ScanBatch::Cols { seg: &seg, lo: 0, len: 100 };
        let sel = selected(&pred, &batch);
        assert_eq!(sel.len(), 10, "only custkey 3 survives both conjuncts");
        assert!(sel.windows(2).all(|w| w[0] < w[1]), "ascending selection");
        assert_matches_scalar(&pred, &batch);
    }

    #[test]
    fn rows_batch_falls_back_to_scalar() {
        let rows: Vec<Row> = (0..50).map(|i| history_row(i, (i % 5) as u32, 0)).collect();
        let pred = Predicate::and(vec![ColPredicate::U32Eq(1, 3)]);
        let batch = ScanBatch::Rows(&rows);
        assert_eq!(batch.len(), 50);
        assert_matches_scalar(&pred, &batch);
    }

    #[test]
    fn gathers_match_rowref_accessors() {
        // One column per encoding the builder picks for u32: long runs
        // (RLE), narrow values (packed), and an uncompressed segment.
        let rle = seg_of(
            (0..150).map(|i| history_row(i, (i / 40) as u32, i as i64 * 3)),
            TableId::History,
        );
        assert!(matches!(rle.col(1), ColumnData::U32Rle(_)));
        let packed = seg_of(
            (0..150).map(|i| history_row(i, (i % 97) as u32, i as i64 * 3)),
            TableId::History,
        );
        assert!(matches!(packed.col(1), ColumnData::U32Packed(_)));
        let mut b = SegmentBuilder::new(TableId::History).without_compression();
        for i in 0..150u64 {
            b.push(1, history_row(i, (i % 97) as u32, i as i64 * 3));
        }
        let plain = b.build();
        assert!(matches!(plain.col(1), ColumnData::U32(_)));
        assert!(matches!(plain.col(2), ColumnData::Money(_)));

        let rows: Vec<Row> =
            (0..150).map(|i| history_row(i, (i / 40) as u32, i as i64 * 3)).collect();
        // Sparse, run-crossing selections, an empty one, and every row.
        let sels: [Vec<u32>; 4] =
            [vec![0, 1, 5, 29, 30, 31, 60, 61, 119], vec![], (0..120).collect(), vec![119]];
        let (mut us, mut ms) = (Vec::new(), Vec::new());
        for batch in [
            ScanBatch::Cols { seg: &rle, lo: 10, len: 120 },
            ScanBatch::Cols { seg: &packed, lo: 10, len: 120 },
            ScanBatch::Cols { seg: &plain, lo: 10, len: 120 },
            ScanBatch::Cols { seg: &rle, lo: 0, len: 150 },
            ScanBatch::Rows(&rows[30..]),
        ] {
            for sel in &sels {
                gather_u32(&batch, 1, sel, &mut us);
                gather_money(&batch, 2, sel, &mut ms);
                let want_u: Vec<u32> =
                    sel.iter().map(|&i| batch.row_ref(i as usize).u32(1)).collect();
                let want_m: Vec<i64> =
                    sel.iter().map(|&i| batch.row_ref(i as usize).money(2).cents()).collect();
                assert_eq!(us, want_u, "sel {sel:?}");
                assert_eq!(ms, want_m, "sel {sel:?}");
            }
        }
    }
}
