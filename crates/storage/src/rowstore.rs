//! An MVCC row store with per-slot version chains.
//!
//! This is the transactional backbone of every engine. Each logical row
//! occupies one *slot*; a slot holds a chain of committed versions, newest
//! first, each stamped with its commit timestamp. Readers traverse the
//! chain to the first version visible at their snapshot — the cost the
//! paper calls out for MVCC analytics ("every analytical query ... needs to
//! traverse potentially lengthy version chains", §2.2) is real here.
//!
//! Slots live in fixed-size segments so the store can grow (New Order and
//! Payment keep appending) without ever moving existing slots, and readers
//! can address slots while writers append.
//!
//! Dirty data never enters the store: transactions buffer writes in their
//! [`hat_txn::TxnCtx`] and install them at commit inside the oracle's
//! commit critical section, so a version chain only ever contains committed
//! versions in strictly increasing timestamp order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hat_common::{HatError, Result, Row, TableId};
use hat_txn::Ts;
use parking_lot::{Mutex, RwLock};

/// Index of a logical row within its table. Stable for the row's lifetime.
pub type RowId = u64;

/// Rows per segment. Power of two so slot addressing is shift/mask.
const SEG_SHIFT: usize = 12;
const SEG_SIZE: usize = 1 << SEG_SHIFT;

/// Words in a segment's dirty-slot bitmap (one bit per slot).
const DIRTY_WORDS: usize = SEG_SIZE / 64;

/// Timestamp of bulk-loaded base versions (`hat-txn`'s `LOAD_TS`).
/// Pruning always preserves a row's base version: benchmark reset
/// restores the loaded state via `revert_versions_after(BASE_TS)`, which
/// must find it even after vacuum reclaimed every intermediate version.
/// The cost is bounded — at most one extra version per updated row.
pub const BASE_TS: Ts = 1;

/// One committed version of a row.
struct Version {
    ts: Ts,
    row: Row,
    next: Option<Box<Version>>,
}

impl Drop for Version {
    fn drop(&mut self) {
        // Iterative chain teardown: hot rows accumulate arbitrarily long
        // version chains between GC passes, and the default recursive drop
        // of a linked list overflows the stack.
        let mut next = self.next.take();
        while let Some(mut v) = next {
            next = v.next.take();
        }
    }
}

/// A fixed block of slots, plus a dirty bitmap driving vacuum.
///
/// `dirty` has one bit per slot, set by [`RowStore::install_update`] after
/// prepending a version. A vacuum pass claims whole words with `swap(0)`
/// and visits only the set bits, so GC cost tracks the *update* rate, not
/// the table size; slots whose chain still holds versions above the prune
/// horizon are re-marked so a later pass (with a higher horizon) returns.
struct Segment {
    slots: Box<[Mutex<Option<Version>>]>,
    dirty: Box<[AtomicU64]>,
}

impl Segment {
    fn new() -> Arc<Segment> {
        let slots: Vec<Mutex<Option<Version>>> =
            (0..SEG_SIZE).map(|_| Mutex::new(None)).collect();
        let dirty: Vec<AtomicU64> = (0..DIRTY_WORDS).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Segment {
            slots: slots.into_boxed_slice(),
            dirty: dirty.into_boxed_slice(),
        })
    }

    /// Marks the slot at in-segment `offset` as a vacuum candidate.
    #[inline]
    fn mark_dirty(&self, offset: usize) {
        self.dirty[offset / 64].fetch_or(1u64 << (offset % 64), Ordering::Release);
    }
}

/// Outcome of one vacuum pass over a store (or summed over a database).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Versions reclaimed.
    pub freed: u64,
    /// Slots examined (for candidate passes: how many dirty bits fired).
    pub visited: u64,
}

impl PruneStats {
    pub fn absorb(&mut self, other: PruneStats) {
        self.freed += other.freed;
        self.visited += other.visited;
    }
}

/// A growable MVCC table of versioned rows.
pub struct RowStore {
    table: TableId,
    segments: RwLock<Vec<Arc<Segment>>>,
    /// Number of allocated slots (== next RowId).
    count: AtomicU64,
    /// Live versions across all chains (slots + their history). Kept
    /// exact by install/prune/truncate/revert so the memory gauge is O(1).
    versions: AtomicU64,
}

impl RowStore {
    /// An empty store for `table`.
    pub fn new(table: TableId) -> Self {
        RowStore {
            table,
            segments: RwLock::new(Vec::new()),
            count: AtomicU64::new(0),
            versions: AtomicU64::new(0),
        }
    }

    /// The table this store holds.
    #[inline]
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Number of slots ever allocated (visible and not-yet-visible alike).
    #[inline]
    pub fn slot_count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Total live versions across every chain in the store. One insert or
    /// update contributes one version until vacuum (or reset) reclaims it.
    #[inline]
    pub fn live_versions(&self) -> u64 {
        self.versions.load(Ordering::Acquire)
    }

    /// Grabs the segment holding `rid`, growing the directory if needed.
    fn segment_for(&self, rid: RowId) -> Arc<Segment> {
        let seg_idx = (rid >> SEG_SHIFT) as usize;
        {
            let segs = self.segments.read();
            if seg_idx < segs.len() {
                return Arc::clone(&segs[seg_idx]);
            }
        }
        let mut segs = self.segments.write();
        while segs.len() <= seg_idx {
            segs.push(Segment::new());
        }
        Arc::clone(&segs[seg_idx])
    }

    #[inline]
    fn slot_of(seg: &Segment, rid: RowId) -> &Mutex<Option<Version>> {
        &seg.slots[(rid as usize) & (SEG_SIZE - 1)]
    }

    /// Installs a brand-new row committed at `ts`, returning its id.
    ///
    /// Used by the bulk loader, by commit installation, and by replication
    /// replay (which must observe the same allocation order as the primary;
    /// see [`RowStore::install_insert_at`] for the checked variant).
    pub fn install_insert(&self, row: Row, ts: Ts) -> RowId {
        let rid = self.count.fetch_add(1, Ordering::AcqRel);
        let seg = self.segment_for(rid);
        let mut slot = Self::slot_of(&seg, rid).lock();
        debug_assert!(slot.is_none(), "fresh slot must be empty");
        *slot = Some(Version { ts, row, next: None });
        self.versions.fetch_add(1, Ordering::AcqRel);
        rid
    }

    /// Replay-side insert that asserts the replica allocates the same row
    /// id the primary logged. Physical replication depends on this.
    pub fn install_insert_at(&self, expected_rid: RowId, row: Row, ts: Ts) -> Result<()> {
        let rid = self.install_insert(row, ts);
        if rid != expected_rid {
            return Err(HatError::InvalidConfig(format!(
                "replica rid divergence on {}: expected {expected_rid}, got {rid}",
                self.table.name()
            )));
        }
        Ok(())
    }

    /// Recovery-side insert at an exact row id, tolerating allocation
    /// gaps. Rids are allocated inside the commit critical section, so a
    /// log replayed in order normally lands each insert at the next free
    /// id. Replay does not rely on that: an id it never sees stays an
    /// empty slot forever, which readers and scans already skip; replay
    /// indexes only the rows it installs, so no index entry points at one.
    pub fn install_insert_gapped(&self, rid: RowId, row: Row, ts: Ts) -> Result<()> {
        let mut cur = self.count.load(Ordering::Acquire);
        while cur <= rid {
            match self.count.compare_exchange(
                cur,
                rid + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let seg = self.segment_for(rid);
        let mut slot = Self::slot_of(&seg, rid).lock();
        if slot.is_some() {
            return Err(HatError::WalCorrupt {
                detail: format!(
                    "duplicate insert for {} rid {rid} during replay",
                    self.table.name()
                ),
            });
        }
        *slot = Some(Version { ts, row, next: None });
        drop(slot);
        self.versions.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Prepends a new version of an existing row, committed at `ts`.
    pub fn install_update(&self, rid: RowId, row: Row, ts: Ts) -> Result<()> {
        if rid >= self.slot_count() {
            return Err(HatError::NotFound { table: self.table.name() });
        }
        let seg = self.segment_for(rid);
        let mut slot = Self::slot_of(&seg, rid).lock();
        let old = slot.take();
        debug_assert!(
            old.as_ref().is_none_or(|v| v.ts < ts),
            "versions must be installed in increasing ts order"
        );
        *slot = Some(Version { ts, row, next: old.map(Box::new) });
        drop(slot);
        self.versions.fetch_add(1, Ordering::AcqRel);
        // Mark *after* installing: a vacuum pass that already claimed this
        // slot's bit re-finds it on its next pass; marking first could let
        // the claim race hide the new version's chain forever.
        seg.mark_dirty((rid as usize) & (SEG_SIZE - 1));
        Ok(())
    }

    /// Reads the version of `rid` visible at snapshot `ts`.
    pub fn read(&self, rid: RowId, ts: Ts) -> Option<Row> {
        if rid >= self.slot_count() {
            return None;
        }
        let seg = self.segment_for(rid);
        let slot = Self::slot_of(&seg, rid).lock();
        let mut version = slot.as_ref()?;
        loop {
            if version.ts <= ts {
                return Some(Arc::clone(&version.row));
            }
            version = version.next.as_deref()?;
        }
    }

    /// Reads the newest committed version and its timestamp.
    pub fn read_latest(&self, rid: RowId) -> Option<(Row, Ts)> {
        if rid >= self.slot_count() {
            return None;
        }
        let seg = self.segment_for(rid);
        let slot = Self::slot_of(&seg, rid).lock();
        slot.as_ref().map(|v| (Arc::clone(&v.row), v.ts))
    }

    /// Timestamp of the newest committed version, or `None` if the slot is
    /// still empty. Used for first-committer-wins checks and serializable
    /// read validation.
    pub fn latest_ts(&self, rid: RowId) -> Option<Ts> {
        if rid >= self.slot_count() {
            return None;
        }
        let seg = self.segment_for(rid);
        let slot = Self::slot_of(&seg, rid).lock();
        slot.as_ref().map(|v| v.ts)
    }

    /// Scans every row visible at snapshot `ts` in row-id order, invoking
    /// `visit(rid, &row)`. This is the row-store analytical scan path; it
    /// pays a per-slot lock and a version-chain walk, as MVCC scans do.
    pub fn scan<F>(&self, ts: Ts, mut visit: F)
    where
        F: FnMut(RowId, &Row),
    {
        let count = self.slot_count();
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let mut rid: RowId = 0;
        'outer: for seg in segs {
            for slot in seg.slots.iter() {
                if rid >= count {
                    break 'outer;
                }
                let guard = slot.lock();
                if let Some(mut version) = guard.as_ref() {
                    loop {
                        if version.ts <= ts {
                            visit(rid, &version.row);
                            break;
                        }
                        match version.next.as_deref() {
                            Some(next) => version = next,
                            None => break,
                        }
                    }
                }
                rid += 1;
            }
        }
    }

    /// Scans rows with ids in `[lo, hi)` visible at snapshot `ts`, in
    /// row-id order — the morsel-scan path. `hi` is clamped to the current
    /// slot count; rows installed after the caller sized its range carry a
    /// commit ts newer than any open snapshot, so the visibility walk skips
    /// them even if their slots are reached.
    pub fn scan_range<F>(&self, ts: Ts, lo: RowId, hi: RowId, mut visit: F)
    where
        F: FnMut(RowId, &Row),
    {
        let hi = hi.min(self.slot_count());
        if lo >= hi {
            return;
        }
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        for rid in lo..hi {
            // The directory may lag a racing insert that bumped the count;
            // such rows are newer than `ts` anyway.
            let Some(seg) = segs.get((rid >> SEG_SHIFT) as usize) else { break };
            let guard = Self::slot_of(seg, rid).lock();
            if let Some(mut version) = guard.as_ref() {
                loop {
                    if version.ts <= ts {
                        visit(rid, &version.row);
                        break;
                    }
                    match version.next.as_deref() {
                        Some(next) => version = next,
                        None => break,
                    }
                }
            }
        }
    }

    /// Like [`RowStore::scan`] but the visitor returns `false` to stop
    /// early — the no-index lookup path uses this to stop at the first
    /// matching row.
    pub fn scan_while<F>(&self, ts: Ts, mut visit: F)
    where
        F: FnMut(RowId, &Row) -> bool,
    {
        let count = self.slot_count();
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let mut rid: RowId = 0;
        'outer: for seg in segs {
            for slot in seg.slots.iter() {
                if rid >= count {
                    break 'outer;
                }
                let guard = slot.lock();
                if let Some(mut version) = guard.as_ref() {
                    loop {
                        if version.ts <= ts {
                            if !visit(rid, &version.row) {
                                return;
                            }
                            break;
                        }
                        match version.next.as_deref() {
                            Some(next) => version = next,
                            None => break,
                        }
                    }
                }
                rid += 1;
            }
        }
    }

    /// Number of rows visible at snapshot `ts` (diagnostic; full scan).
    pub fn visible_count(&self, ts: Ts) -> u64 {
        let mut n = 0;
        self.scan(ts, |_, _| n += 1);
        n
    }

    /// Prunes one slot: keeps every version newer than `horizon`, the one
    /// visible *at* `horizon`, and the load-time base version (see
    /// [`BASE_TS`]), drops the rest. Returns `(versions freed, chain
    /// length before, chain length after, revisit)` where `revisit` says
    /// whether a later pass with a higher horizon could reclaim more.
    fn prune_slot(slot: &Mutex<Option<Version>>, horizon: Ts) -> (u64, u64, u64, bool) {
        let mut guard = slot.lock();
        let Some(head) = guard.as_mut() else { return (0, 0, 0, false) };
        let mut freed = 0;
        let mut kept: u64 = 1;
        let mut has_base = false;
        // Walk to the first version with ts <= horizon; everything
        // strictly older than that version is unreachable — except the
        // base version at the chain's tail, which is re-attached.
        let mut cur: &mut Version = head;
        loop {
            if cur.ts <= horizon {
                has_base = cur.ts <= BASE_TS;
                let mut dropped = cur.next.take();
                let mut base: Option<Box<Version>> = None;
                while let Some(mut v) = dropped {
                    dropped = v.next.take();
                    if dropped.is_none() && v.ts <= BASE_TS {
                        base = Some(v);
                    } else {
                        freed += 1;
                    }
                }
                if let Some(b) = base {
                    cur.next = Some(b);
                    kept += 1;
                    has_base = true;
                }
                break;
            }
            match cur.next {
                Some(ref mut next) => {
                    kept += 1;
                    cur = next;
                }
                None => break,
            }
        }
        // Fully vacuumed, this chain converges to the newest version plus
        // (if distinct) the base; anything beyond that is future work.
        let head_ts = guard.as_ref().expect("chain non-empty").ts;
        let converged = 1 + u64::from(has_base && head_ts > BASE_TS);
        (freed, kept + freed, kept, kept > converged)
    }

    /// Garbage-collects versions that no snapshot at or above `horizon`
    /// can ever read, scanning **every** slot. Returns the number of
    /// versions freed. Each row's load-time base version survives
    /// regardless (see [`BASE_TS`]); reset depends on it. The background
    /// vacuum uses [`RowStore::prune_dirty`] instead; the full scan
    /// remains for resets, tests, and one-shot compaction.
    pub fn prune(&self, horizon: Ts) -> u64 {
        let count = self.slot_count();
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let mut freed = 0;
        let mut rid: RowId = 0;
        'outer: for seg in segs {
            for slot in seg.slots.iter() {
                if rid >= count {
                    break 'outer;
                }
                rid += 1;
                let (f, _, _, _) = Self::prune_slot(slot, horizon);
                freed += f;
            }
        }
        self.versions.fetch_sub(freed, Ordering::AcqRel);
        freed
    }

    /// Candidate-driven vacuum pass: visits only slots updated since the
    /// last pass (per-segment dirty bitmaps claimed with `swap(0)`), so
    /// cost scales with update traffic rather than table size. Slots whose
    /// chain still holds more than one version after pruning are re-marked
    /// — a later pass with a higher horizon will reclaim them.
    ///
    /// `observe_chain` receives the pre-prune chain length of every
    /// non-empty slot visited (the chain-length telemetry histogram).
    pub fn prune_dirty(
        &self,
        horizon: Ts,
        mut observe_chain: impl FnMut(u64),
    ) -> PruneStats {
        let count = self.slot_count();
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let mut stats = PruneStats::default();
        for (seg_idx, seg) in segs.iter().enumerate() {
            let base = (seg_idx << SEG_SHIFT) as u64;
            if base >= count {
                break;
            }
            for (word_idx, word) in seg.dirty.iter().enumerate() {
                if word.load(Ordering::Acquire) == 0 {
                    continue;
                }
                // Claim the whole word; updates landing after this swap
                // simply re-mark and are handled next pass.
                let mut bits = word.swap(0, Ordering::AcqRel);
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let offset = word_idx * 64 + bit;
                    if base + offset as u64 >= count {
                        continue;
                    }
                    stats.visited += 1;
                    let (freed, before, _after, revisit) =
                        Self::prune_slot(&seg.slots[offset], horizon);
                    if before > 0 {
                        observe_chain(before);
                    }
                    stats.freed += freed;
                    if revisit {
                        seg.mark_dirty(offset);
                    }
                }
            }
        }
        self.versions.fetch_sub(stats.freed, Ordering::AcqRel);
        stats
    }

    /// Drops every slot at or beyond `n`, shrinking the store back to `n`
    /// rows. Used by benchmark reset to undo the appends of a measurement
    /// run (the paper resets data to its initial state before each run,
    /// §6.1). Callers must guarantee no concurrent writers.
    pub fn truncate_slots(&self, n: u64) {
        let count = self.slot_count();
        if n >= count {
            return;
        }
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let mut dropped = 0;
        for rid in n..count {
            let seg = &segs[(rid >> SEG_SHIFT) as usize];
            let mut slot = Self::slot_of(seg, rid).lock();
            let mut v = slot.as_ref();
            while let Some(x) = v {
                dropped += 1;
                v = x.next.as_deref();
            }
            *slot = None;
        }
        self.versions.fetch_sub(dropped, Ordering::AcqRel);
        self.count.store(n, Ordering::Release);
    }

    /// Removes every version committed after `ts`, restoring each row to
    /// the newest version at or before `ts` (rows inserted after `ts`
    /// become empty slots — combine with [`RowStore::truncate_slots`] for a
    /// full reset). Callers must guarantee no concurrent writers.
    pub fn revert_versions_after(&self, ts: Ts) {
        let count = self.slot_count();
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let mut popped = 0;
        for rid in 0..count {
            let seg = &segs[(rid >> SEG_SHIFT) as usize];
            let mut slot = Self::slot_of(seg, rid).lock();
            // Pop newest versions until the head is old enough.
            while let Some(head) = slot.as_mut() {
                if head.ts <= ts {
                    break;
                }
                popped += 1;
                *slot = head.next.take().map(|b| *b);
            }
        }
        self.versions.fetch_sub(popped, Ordering::AcqRel);
    }

    /// Approximate bytes of row data held live, **including every version
    /// in every chain** — this is what the memory gauge and the vacuum's
    /// plateau claim are measured against. (It used to count only newest
    /// versions, which hid unbounded chain growth entirely.)
    pub fn approx_bytes(&self) -> usize {
        let count = self.slot_count();
        let segs: Vec<Arc<Segment>> = self.segments.read().clone();
        let mut total = 0;
        let mut rid: RowId = 0;
        'outer: for seg in segs {
            for slot in seg.slots.iter() {
                if rid >= count {
                    break 'outer;
                }
                rid += 1;
                let guard = slot.lock();
                let mut version = guard.as_ref();
                while let Some(v) = version {
                    total += v.row.iter().map(|val| val.approx_bytes()).sum::<usize>();
                    version = v.next.as_deref();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_common::value::row_from;
    use hat_common::Value;

    fn row(v: u32) -> Row {
        row_from([Value::U32(v)])
    }

    fn store() -> RowStore {
        RowStore::new(TableId::Customer)
    }

    #[test]
    fn insert_and_read() {
        let s = store();
        let rid = s.install_insert(row(7), 5);
        assert_eq!(rid, 0);
        assert_eq!(s.read(rid, 5).unwrap()[0].as_u32().unwrap(), 7);
        assert_eq!(s.read(rid, 4), None, "invisible before commit ts");
        assert_eq!(s.read(999, 100), None, "unknown rid");
    }

    #[test]
    fn scan_range_respects_bounds_and_snapshot() {
        let s = store();
        // Rows 0..10 at ts 2, rows 10..20 at ts 8, spanning a segment
        // boundary is covered by the full-scan tests; here bounds matter.
        for i in 0..20u32 {
            s.install_insert(row(i), if i < 10 { 2 } else { 8 });
        }
        let collect = |ts, lo, hi| {
            let mut got = Vec::new();
            s.scan_range(ts, lo, hi, |rid, r| got.push((rid, r[0].as_u32().unwrap())));
            got
        };
        assert_eq!(collect(10, 3, 6), vec![(3, 3), (4, 4), (5, 5)]);
        // Snapshot hides the second batch even inside the range.
        assert_eq!(collect(5, 8, 12), vec![(8, 8), (9, 9)]);
        // hi clamps to the slot count; empty and inverted ranges are no-ops.
        assert_eq!(collect(10, 18, 1000).len(), 2);
        assert!(collect(10, 7, 7).is_empty());
        assert!(collect(10, 9, 3).is_empty());
        // Ranged scans concatenated over a partition equal one full scan.
        let mut full = Vec::new();
        s.scan(10, |rid, r| full.push((rid, r[0].as_u32().unwrap())));
        let mut pieces = collect(10, 0, 7);
        pieces.extend(collect(10, 7, 20));
        assert_eq!(pieces, full);
    }

    #[test]
    fn versions_visible_by_snapshot() {
        let s = store();
        let rid = s.install_insert(row(1), 2);
        s.install_update(rid, row(2), 5).unwrap();
        s.install_update(rid, row(3), 9).unwrap();
        assert_eq!(s.read(rid, 2).unwrap()[0].as_u32().unwrap(), 1);
        assert_eq!(s.read(rid, 4).unwrap()[0].as_u32().unwrap(), 1);
        assert_eq!(s.read(rid, 5).unwrap()[0].as_u32().unwrap(), 2);
        assert_eq!(s.read(rid, 8).unwrap()[0].as_u32().unwrap(), 2);
        assert_eq!(s.read(rid, 9).unwrap()[0].as_u32().unwrap(), 3);
        assert_eq!(s.read(rid, 100).unwrap()[0].as_u32().unwrap(), 3);
        let (latest, ts) = s.read_latest(rid).unwrap();
        assert_eq!(latest[0].as_u32().unwrap(), 3);
        assert_eq!(ts, 9);
        assert_eq!(s.latest_ts(rid), Some(9));
    }

    #[test]
    fn update_unknown_rid_fails() {
        let s = store();
        assert!(matches!(
            s.install_update(0, row(1), 2),
            Err(HatError::NotFound { .. })
        ));
    }

    #[test]
    fn scan_respects_snapshot() {
        let s = store();
        for i in 0..10u32 {
            s.install_insert(row(i), (i + 1) as u64 * 2);
        }
        // Snapshot 9 sees rows committed at ts 2,4,6,8.
        let mut seen = Vec::new();
        s.scan(9, |rid, r| seen.push((rid, r[0].as_u32().unwrap())));
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(s.visible_count(20), 10);
        assert_eq!(s.visible_count(1), 0);
    }

    #[test]
    fn scan_uses_visible_version_not_latest() {
        let s = store();
        let rid = s.install_insert(row(1), 2);
        s.install_update(rid, row(99), 10).unwrap();
        let mut vals = Vec::new();
        s.scan(5, |_, r| vals.push(r[0].as_u32().unwrap()));
        assert_eq!(vals, vec![1]);
    }

    #[test]
    fn growth_across_segments() {
        let s = store();
        let n = (SEG_SIZE * 2 + 100) as u32;
        for i in 0..n {
            s.install_insert(row(i), 2);
        }
        assert_eq!(s.slot_count(), n as u64);
        assert_eq!(s.read(SEG_SIZE as u64 + 5, 2).unwrap()[0].as_u32().unwrap(), SEG_SIZE as u32 + 5);
        assert_eq!(s.visible_count(2), n as u64);
    }

    #[test]
    fn replica_rid_check() {
        let s = store();
        s.install_insert_at(0, row(1), 2).unwrap();
        s.install_insert_at(1, row(2), 2).unwrap();
        assert!(s.install_insert_at(5, row(3), 2).is_err());
    }

    #[test]
    fn prune_drops_unreachable_versions() {
        let s = store();
        let rid = s.install_insert(row(1), 2);
        s.install_update(rid, row(2), 4).unwrap();
        s.install_update(rid, row(3), 6).unwrap();
        s.install_update(rid, row(4), 8).unwrap();
        // Horizon 6: version@6 must stay (visible at 6), 8 stays (newer),
        // versions @4 and @2 freed.
        let freed = s.prune(6);
        assert_eq!(freed, 2);
        assert_eq!(s.read(rid, 6).unwrap()[0].as_u32().unwrap(), 3);
        assert_eq!(s.read(rid, 100).unwrap()[0].as_u32().unwrap(), 4);
        // Reads below the horizon may now miss — that's the GC contract.
        assert_eq!(s.prune(6), 0, "idempotent");
    }

    #[test]
    fn truncate_slots_shrinks() {
        let s = store();
        for i in 0..10u32 {
            s.install_insert(row(i), 2);
        }
        s.truncate_slots(4);
        assert_eq!(s.slot_count(), 4);
        assert_eq!(s.visible_count(10), 4);
        assert_eq!(s.read(5, 10), None);
        // Slots freed by truncate are reusable.
        let rid = s.install_insert(row(99), 3);
        assert_eq!(rid, 4);
        assert_eq!(s.read(4, 3).unwrap()[0].as_u32().unwrap(), 99);
        // Truncating beyond the count is a no-op.
        s.truncate_slots(100);
        assert_eq!(s.slot_count(), 5);
    }

    #[test]
    fn revert_versions_restores_old_state() {
        let s = store();
        let rid = s.install_insert(row(1), 2);
        s.install_update(rid, row(2), 5).unwrap();
        s.install_update(rid, row(3), 8).unwrap();
        let fresh = s.install_insert(row(9), 7);
        s.revert_versions_after(2);
        assert_eq!(s.read(rid, 100).unwrap()[0].as_u32().unwrap(), 1);
        assert_eq!(s.read(fresh, 100), None, "post-ts insert reverted away");
        assert_eq!(s.latest_ts(rid), Some(2));
    }

    #[test]
    fn scan_while_stops_early() {
        let s = store();
        for i in 0..100u32 {
            s.install_insert(row(i), 2);
        }
        let mut seen = 0;
        s.scan_while(2, |_, _| {
            seen += 1;
            seen < 7
        });
        assert_eq!(seen, 7);
    }

    #[test]
    fn concurrent_inserts_get_unique_rids() {
        let s = Arc::new(store());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|i| s.install_insert(row(t * 1000 + i), 2)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<RowId> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        let expect: Vec<RowId> = (0..4000).collect();
        assert_eq!(all, expect);
        assert_eq!(s.visible_count(2), 4000);
    }

    #[test]
    fn dropping_a_very_long_version_chain_does_not_overflow_stack() {
        let s = store();
        let rid = s.install_insert(row(0), 2);
        for ts in 3..300_000u64 {
            s.install_update(rid, row(1), ts).unwrap();
        }
        drop(s); // must not blow the stack
    }

    #[test]
    fn snapshot_reads_are_repeatable_under_concurrent_updates() {
        // A reader at a fixed snapshot must see the same version no matter
        // how many newer versions writers prepend concurrently.
        let s = Arc::new(store());
        let rid = s.install_insert(row(0), 2);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // At least one update even if the reader finishes before
                // this thread starts: the final check needs a newer version.
                let mut ts = 3;
                loop {
                    s.install_update(rid, row(ts as u32), ts).unwrap();
                    ts += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break ts;
                    }
                }
            })
        };
        for _ in 0..2000 {
            let seen = s.read(rid, 2).unwrap()[0].as_u32().unwrap();
            assert_eq!(seen, 0, "snapshot at ts 2 must always see version 0");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let final_ts = writer.join().unwrap();
        // The latest read at a current snapshot sees the newest version.
        let latest = s.read(rid, final_ts).unwrap()[0].as_u32().unwrap();
        assert_eq!(latest as u64, final_ts - 1);
    }

    #[test]
    fn scan_during_concurrent_append_never_sees_future_rows() {
        let s = Arc::new(store());
        for i in 0..100u32 {
            s.install_insert(row(i), 2);
        }
        let appender = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for ts in 10..20_010u64 {
                    s.install_insert(row(999), ts);
                }
            })
        };
        // Scan concurrently with the bounded append storm.
        while s.slot_count() < 20_100 {
            let mut n = 0;
            s.scan(2, |_, r| {
                assert_ne!(r[0].as_u32().unwrap(), 999, "future row leaked");
                n += 1;
            });
            assert_eq!(n, 100);
        }
        appender.join().unwrap();
        assert_eq!(s.visible_count(2), 100);
    }

    #[test]
    fn approx_bytes_counts_every_version_in_the_chain() {
        let s = store();
        let rid = s.install_insert(row(1), 2);
        let one = s.approx_bytes();
        assert!(one > 0);
        // A hand-built chain of 4 identical-width versions weighs 4x the
        // base version; pruning back to one version restores the base.
        s.install_update(rid, row(2), 3).unwrap();
        s.install_update(rid, row(3), 4).unwrap();
        s.install_update(rid, row(4), 5).unwrap();
        assert_eq!(s.approx_bytes(), 4 * one, "full chain counted");
        assert_eq!(s.prune(5), 3);
        assert_eq!(s.approx_bytes(), one, "vacuum shrinks the gauge");
    }

    #[test]
    fn live_versions_tracks_installs_prunes_and_resets() {
        let s = store();
        assert_eq!(s.live_versions(), 0);
        let a = s.install_insert(row(1), 2);
        let b = s.install_insert(row(2), 2);
        s.install_update(a, row(3), 4).unwrap();
        s.install_update(a, row(4), 6).unwrap();
        assert_eq!(s.live_versions(), 4);
        assert_eq!(s.prune(6), 2);
        assert_eq!(s.live_versions(), 2);
        s.install_update(b, row(5), 8).unwrap();
        // Revert pops the @8 update and `a`'s @6 head; `a`'s chain was
        // pruned above, so its slot empties entirely.
        s.revert_versions_after(2);
        assert_eq!(s.live_versions(), 1);
        s.truncate_slots(1);
        assert_eq!(s.live_versions(), 0, "only the empty slot survives");
    }

    #[test]
    fn prune_preserves_the_load_time_base_version() {
        let s = store();
        let rid = s.install_insert(row(1), BASE_TS);
        s.install_update(rid, row(2), 4).unwrap();
        s.install_update(rid, row(3), 6).unwrap();
        s.install_update(rid, row(4), 8).unwrap();
        // Horizon past every version: intermediates go, newest + base stay.
        assert_eq!(s.prune(10), 2);
        assert_eq!(s.live_versions(), 2);
        assert_eq!(s.read(rid, 100).unwrap()[0].as_u32().unwrap(), 4);
        // Benchmark reset still restores the loaded row after vacuum.
        s.revert_versions_after(BASE_TS);
        assert_eq!(s.read(rid, 100).unwrap()[0].as_u32().unwrap(), 1);
        assert_eq!(s.latest_ts(rid), Some(BASE_TS));
    }

    #[test]
    fn prune_dirty_converged_base_chain_is_not_remarked() {
        let s = store();
        let rid = s.install_insert(row(1), BASE_TS);
        s.install_update(rid, row(2), 4).unwrap();
        s.install_update(rid, row(3), 6).unwrap();
        let stats = s.prune_dirty(10, |_| {});
        assert_eq!(stats, PruneStats { freed: 1, visited: 1 });
        assert_eq!(s.live_versions(), 2, "newest plus base");
        // Fully converged: the dirty bit must not be re-set, or vacuum
        // would revisit every ever-updated slot on every pass forever.
        assert_eq!(s.prune_dirty(10, |_| {}), PruneStats { freed: 0, visited: 0 });
    }

    #[test]
    fn prune_dirty_visits_only_updated_slots() {
        let s = store();
        for i in 0..500u32 {
            s.install_insert(row(i), 2);
        }
        // Only three rows ever get updated.
        for &rid in &[7u64, 300, 499] {
            s.install_update(rid, row(1000), 5).unwrap();
        }
        let mut chains = Vec::new();
        let stats = s.prune_dirty(10, |len| chains.push(len));
        assert_eq!(stats.visited, 3, "candidate pass skips clean slots");
        assert_eq!(stats.freed, 3);
        chains.sort_unstable();
        assert_eq!(chains, vec![2, 2, 2], "pre-prune chain lengths observed");
        // Chains are back to length 1 and the bits were consumed: the
        // next pass has nothing to do.
        let stats = s.prune_dirty(10, |_| {});
        assert_eq!(stats, PruneStats { freed: 0, visited: 0 });
    }

    #[test]
    fn prune_dirty_remarks_chains_still_above_the_horizon() {
        let s = store();
        let rid = s.install_insert(row(1), 2);
        s.install_update(rid, row(2), 10).unwrap();
        // Horizon 5 cannot touch the @10 version, and the @2 version is
        // still visible at 5 — nothing freed, slot re-marked.
        let stats = s.prune_dirty(5, |_| {});
        assert_eq!(stats, PruneStats { freed: 0, visited: 1 });
        assert_eq!(s.live_versions(), 2);
        // A later pass with a horizon past the update reclaims it without
        // any new write having re-marked the slot.
        let stats = s.prune_dirty(10, |_| {});
        assert_eq!(stats, PruneStats { freed: 1, visited: 1 });
        assert_eq!(s.live_versions(), 1);
        assert_eq!(s.prune_dirty(10, |_| {}).visited, 0, "bit consumed");
    }

    #[test]
    fn prune_dirty_under_concurrent_updates_loses_no_candidates() {
        // Updates racing a vacuum pass must never strand a reclaimable
        // version: whatever a pass misses, a later pass (after writers
        // stop) must fully reclaim.
        let s = Arc::new(store());
        for i in 0..64u32 {
            s.install_insert(row(i), 2);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ts = 3;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for rid in 0..64u64 {
                        s.install_update(rid, row(ts as u32), ts).unwrap();
                        ts += 1;
                    }
                }
                ts
            })
        };
        for _ in 0..50 {
            s.prune_dirty(s.latest_ts(0).unwrap_or(2), |_| {});
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let final_ts = writer.join().unwrap();
        // Writers quiesced: one pass at the final horizon must leave
        // exactly one version per slot.
        s.prune_dirty(final_ts, |_| {});
        assert_eq!(s.live_versions(), 64, "every chain collapsed to one version");
        assert_eq!(s.visible_count(final_ts), 64);
    }
}

/// One [`RowStore`] per table of the HATtrick schema — the row-format
/// "database" used by the shared engine, by replication primaries and
/// replicas, and by the hybrid engines' transactional side.
pub struct RowDb {
    stores: Vec<Arc<RowStore>>,
}

impl RowDb {
    /// Creates empty stores for every table.
    pub fn new() -> Self {
        RowDb {
            stores: TableId::ALL.iter().map(|t| Arc::new(RowStore::new(*t))).collect(),
        }
    }

    /// The store for `table`.
    #[inline]
    pub fn store(&self, table: TableId) -> &RowStore {
        &self.stores[table.index()]
    }

    /// Shared handle to the store for `table`.
    pub fn store_arc(&self, table: TableId) -> Arc<RowStore> {
        Arc::clone(&self.stores[table.index()])
    }

    /// Approximate row-format bytes across all tables, full version
    /// chains included.
    pub fn approx_bytes(&self) -> usize {
        self.stores.iter().map(|s| s.approx_bytes()).sum()
    }

    /// Total live versions across all tables (O(1); see
    /// [`RowStore::live_versions`]).
    pub fn live_versions(&self) -> u64 {
        self.stores.iter().map(|s| s.live_versions()).sum()
    }

    /// One candidate-driven vacuum pass over every table. See
    /// [`RowStore::prune_dirty`] for the safety contract: `horizon` must
    /// not exceed the oldest active snapshot on this database.
    pub fn vacuum(&self, horizon: Ts, mut observe_chain: impl FnMut(u64)) -> PruneStats {
        let mut stats = PruneStats::default();
        for s in &self.stores {
            stats.absorb(s.prune_dirty(horizon, &mut observe_chain));
        }
        stats
    }
}

impl Default for RowDb {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod rowdb_tests {
    use super::*;
    use hat_common::value::row_from;
    use hat_common::Value;

    #[test]
    fn stores_are_per_table() {
        let db = RowDb::new();
        db.store(TableId::Customer).install_insert(row_from([Value::U32(1)]), 2);
        assert_eq!(db.store(TableId::Customer).slot_count(), 1);
        assert_eq!(db.store(TableId::Supplier).slot_count(), 0);
        assert_eq!(db.store(TableId::Customer).table(), TableId::Customer);
    }

    #[test]
    fn store_arc_aliases_store() {
        let db = RowDb::new();
        let arc = db.store_arc(TableId::History);
        arc.install_insert(
            row_from([
                Value::U64(1),
                Value::U32(2),
                Value::Money(hat_common::Money::ZERO),
            ]),
            2,
        );
        assert_eq!(db.store(TableId::History).slot_count(), 1);
    }
}
