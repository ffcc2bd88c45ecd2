//! `hat-txn` — transaction-management building blocks.
//!
//! The engines in `hat-engine` compose these pieces into complete commit
//! protocols:
//!
//! * [`oracle::TsOracle`] — logical-timestamp allocation with a
//!   commit-installation critical section that guarantees readers never
//!   observe a half-installed transaction,
//! * [`snapshot::Snapshot`] / [`IsolationLevel`] — MVCC visibility rules for
//!   read committed, snapshot isolation, and OCC-serializable execution,
//! * [`registry::SnapshotRegistry`] — striped active-snapshot tracking
//!   whose oldest registered timestamp is the safe MVCC vacuum horizon,
//! * [`locks::LockManager`] — the kernel's one row-lock table: per-row
//!   no-wait write locks, striped internally, implementing the
//!   first-updater-wins conflict rule,
//! * [`txn::TxnCtx`] — the per-transaction read/write bookkeeping shared by
//!   all engines.

pub mod locks;
pub mod oracle;
pub mod registry;
pub mod snapshot;
pub mod watermark;
pub mod txn;

pub use locks::{LockKey, LockManager};
pub use oracle::{CommitGuard, Ts, TsOracle, LOAD_TS};
pub use registry::{SnapshotGuard, SnapshotRegistry};
pub use snapshot::{IsolationLevel, Snapshot};
pub use txn::{ReadEntry, TxnCtx, WriteOp};
pub use watermark::Watermark;
