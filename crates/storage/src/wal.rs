//! Commit log records.
//!
//! The isolated engine ships these records to its replica ("streaming WAL
//! records ... as they are generated", §6.3) and the TiDB-like engine ships
//! them to its columnar learner. Records are *physical*: inserts carry the
//! row id the primary allocated, so a replica that applies records in LSN
//! order reproduces the primary's row addressing exactly.

use hat_common::{Nanos, Row, TableId};
use hat_txn::Ts;

/// Log sequence number; dense, starting at 1.
pub type Lsn = u64;

/// One redo operation within a committed transaction.
#[derive(Debug, Clone)]
pub enum TableOp {
    /// A row inserted at `rid`.
    Insert { table: TableId, rid: u64, row: Row },
    /// A new version of row `rid`.
    Update { table: TableId, rid: u64, row: Row },
}

impl TableOp {
    /// The table this operation touches.
    pub fn table(&self) -> TableId {
        match self {
            TableOp::Insert { table, .. } | TableOp::Update { table, .. } => *table,
        }
    }
}

/// The redo record of one committed transaction.
#[derive(Debug)]
pub struct LogRecord {
    pub lsn: Lsn,
    pub commit_ts: Ts,
    /// Wall-clock send time on the global benchmark clock, used by
    /// receivers to model network transit without a shared sleep.
    pub sent_at: Nanos,
    pub ops: Vec<TableOp>,
}
