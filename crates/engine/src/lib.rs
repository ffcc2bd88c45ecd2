//! `hat-engine` — the HTAP engines under test.
//!
//! Each engine represents one of the paper's design categories (§2.2):
//!
//! * [`shared::ShdEngine`] — *shared design* (PostgreSQL-like): one MVCC row
//!   store serves both workloads.
//! * [`isolated::IsoEngine`] — *isolated design* (PostgreSQL streaming
//!   replication): a primary row store ships its WAL to a replica over a
//!   simulated link; analytics read the replica.
//! * [`hybrid::DualEngine`] — *hybrid design* (System-X-like): OCC row store
//!   plus a columnar copy; every analytical query synchronously folds the
//!   delta tail up to its start timestamp.
//! * [`hybrid::LearnerEngine`] — *hybrid design* (TiDB-like): consensus
//!   commit on the transactional path and an asynchronous columnar learner
//!   with read-index waits on the analytical path.
//! * [`cow::CowEngine`] — *shared design*, HyPer-like: analytics read
//!   periodic copy-on-write snapshots; staleness is bounded by the
//!   snapshot interval.
//!
//! All five are one type, [`Engine<D>`](Engine), which implements
//! [`api::HtapEngine`] once over the shared [`kernel::RowKernel`]: load,
//! sessions, the query pipeline, reset, metrics and the
//! background threads. A design supplies only what defines its category —
//! what an analytical snapshot is and where its freshness lag comes from.
//! The isolated standby and the columnar learner share one log follower.
//!
//! ```
//! use hat_engine::{EngineConfig, HtapEngine, NamedIndex, ShdEngine};
//! use hat_common::ids::TableId;
//! use hat_common::telemetry::names;
//! use hat_common::value::row_from;
//! use hat_common::Value;
//!
//! let engine = ShdEngine::new(EngineConfig::default());
//! let rows = vec![row_from([Value::U32(0), Value::U64(0)])];
//! engine.load(TableId::Freshness, &mut rows.into_iter()).unwrap();
//! engine.finish_load().unwrap();
//!
//! // One transaction: bump the freshness row and commit.
//! let mut session = engine.begin();
//! session
//!     .update(TableId::Freshness, 0, row_from([Value::U32(0), Value::U64(7)]))
//!     .unwrap();
//! let receipt = session.commit().unwrap();
//! assert!(receipt.is_acked() && receipt.ts > 0);
//! assert_eq!(engine.metrics().counter(names::TXN_COMMITS), 1);
//! ```

pub mod analytics;
pub mod api;
pub mod budget;
pub mod cow;
mod design;
pub mod durability;
mod follower;
pub mod hybrid;
pub mod isolated;
pub mod kernel;
pub mod netsim;
pub mod shared;

pub use api::{
    CommitDurability, CommitReceipt, DesignCategory, DurabilityMode, EngineConfig,
    EngineConfigBuilder, HtapEngine, InDoubtCause, IndexProfile, NamedIndex,
    Session,
};
pub use budget::CoreBudget;
pub use hat_query::exec::{ExecStats, QueryOpts, ScanMode, WorkerCap};
pub use durability::DurabilityLayer;
pub use hat_storage::dwal::{
    DiskFault, DiskFaultKind, DiskFaultPlan, HealthState, KillPoint, WalConfig,
};
pub use cow::{CowConfig, CowEngine};
pub use design::Engine;
pub use hybrid::{DualConfig, DualEngine, LearnerConfig, LearnerEngine, LearnerProfile};
pub use isolated::{IsoConfig, IsoEngine, ReplicationMode};
pub use netsim::{
    FaultInjector, FaultKind, FaultPlan, FaultPlanConfig, FaultWindow, NetworkLink,
};
pub use shared::ShdEngine;
