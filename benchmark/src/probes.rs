//! Direct probes of the two layers the workloads only reach through the
//! engine: `hat-storage` and `hat-txn`. Single thread, ns per operation,
//! on rows of the same generated dataset the workload loaded.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::layers::{
    lineorder, BPlusTree, ColumnTable, DurableWal, LockManager, RowStore, SnapshotRegistry,
    TableOp, TsOracle, WalConfig,
};
use crate::adapter::{generate, Row, ScaleFactor, TableId};
use crate::stats;

/// Probe results; the names are the `probe.*` metrics.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub rowstore_read_ns: f64,
    pub bptree_lookup_ns: f64,
    pub colstore_scan_rows_per_s: f64,
    pub dwal_append_sync_ns: f64,
    pub oracle_ts_ns: f64,
    pub lock_cycle_ns: f64,
    pub snapshot_guard_ns: f64,
}

/// Rows each probe works on (the head of the generated fact table).
const ROWS: usize = 100_000;
const REPS: usize = 5;

/// Median over [`REPS`] timings of `ops` calls of `op`, in ns per call.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..ops {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&reps)
}

pub fn run(sf: f64, seed: u64, out_dir: &Path) -> Result<Probes, String> {
    let data = generate(ScaleFactor(sf), seed);
    let rows: Vec<Row> = data.lineorder.iter().take(ROWS).cloned().collect();
    drop(data);
    let n = rows.len();
    // A stride coprime to the row count visits every row in a scattered
    // order, so reads do not ride the prefetcher.
    let scatter = |i: usize| (i * 7919) % n;

    let store = RowStore::new(TableId::Lineorder);
    let mut tree = BPlusTree::<u64, u64>::new();
    for row in &rows {
        let rid = store.install_insert(Arc::clone(row), 2);
        tree.insert(rid.wrapping_mul(0x9E37_79B9) % (4 * n as u64), rid);
    }
    let rowstore_read_ns = ns_per_op(n, |i| {
        black_box(store.read(scatter(i) as u64, 2));
    });
    let bptree_lookup_ns = ns_per_op(n, |i| {
        let key = (scatter(i) as u64).wrapping_mul(0x9E37_79B9) % (4 * n as u64);
        black_box(tree.get(&key));
    });

    let table = ColumnTable::new(TableId::Lineorder);
    for chunk in rows.chunks(4096) {
        table.load_segment(2, chunk.iter().map(Arc::clone));
    }
    let snapshot = table.snapshot(2);
    let scan_ns = ns_per_op(1, |_| {
        let mut total = 0u64;
        for seg in snapshot.segments() {
            let col = seg.col(lineorder::QUANTITY);
            for i in 0..seg.visible_prefix(2) {
                total += u64::from(col.u32_at(i));
            }
        }
        black_box(total);
    });
    let colstore_scan_rows_per_s = n as f64 * 1e9 / scan_ns;

    let wal_dir = out_dir.join(format!("probe-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (wal, _) = DurableWal::open(WalConfig::new(&wal_dir)).map_err(|e| format!("dwal: {e}"))?;
    let mut failed = None;
    let dwal_append_sync_ns = ns_per_op(40, |i| {
        let op = TableOp::Insert { table: TableId::Lineorder, rid: i as u64, row: rows[i].clone() };
        let done = wal.append(3 + i as u64, &[op]).and_then(|lsn| wal.wait_durable(lsn));
        if let Err(e) = done {
            failed.get_or_insert(e);
        }
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);
    if let Some(e) = failed {
        return Err(format!("dwal append: {e}"));
    }

    let oracle = TsOracle::new();
    let oracle_ts_ns = ns_per_op(n, |_| {
        oracle.begin_commit().finish();
        black_box(oracle.read_ts());
    });
    let locks = LockManager::new();
    let mut lock_failed = false;
    let lock_cycle_ns = ns_per_op(n, |i| {
        let key = (TableId::Customer, scatter(i) as u64);
        lock_failed |= locks.try_lock(key, 1).is_err();
        locks.unlock(key, 1);
    });
    if lock_failed {
        return Err("lock probe: an uncontended lock was refused".into());
    }
    let registry = Arc::new(SnapshotRegistry::new());
    let snapshot_guard_ns = ns_per_op(n, |_| {
        drop(black_box(registry.register_with(|| 5)));
    });

    Ok(Probes {
        rowstore_read_ns,
        bptree_lookup_ns,
        colstore_scan_rows_per_s,
        dwal_append_sync_ns,
        oracle_ts_ns,
        lock_cycle_ns,
        snapshot_guard_ns,
    })
}
