//! `hat-storage` — storage substrates for the HTAP engines.
//!
//! * [`bptree`] — an in-memory B+tree with range scans, built from scratch;
//!   used for primary and secondary indexes.
//! * [`rowstore`] — an MVCC row store with per-slot version chains and
//!   timestamp-based visibility; the transactional backbone of every engine.
//! * [`colstore`] — a columnar store with dictionary and run-length
//!   compression plus an in-row-format delta; the analytical backbone of the
//!   hybrid engines.
//! * [`wal`] — commit log records, shipped to the isolated standby and
//!   the columnar learner.
//! * [`dwal`] — the durable on-disk write-ahead log: checksummed segment
//!   files, a group-commit flusher, checkpoints, and crash recovery.

pub mod bptree;
pub mod colstore;
pub mod dwal;
pub mod rowstore;
pub mod wal;

pub use bptree::BPlusTree;
pub use colstore::{ColumnSnapshot, ColumnTable, DeltaStore, DimColumnCopy, DimSnapshot, Segment, SegmentBuilder};
pub use dwal::{
    CheckpointData, DurableWal, DurableWalStats, KillPoint, TableCheckpoint, WalConfig,
    WalRecovery,
};
pub use rowstore::{PruneStats, RowDb, RowId, RowStore};
pub use wal::{LogRecord, TableOp};
