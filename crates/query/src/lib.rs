//! `hat-query` — the analytical query layer.
//!
//! Queries are described by data ([`spec::QuerySpec`]) and interpreted by a
//! vector-at-a-time executor ([`exec`]) against any backend that implements
//! [`view::SnapshotView`] — the MVCC row store (shared/isolated engines) and
//! the columnar store (hybrid engines) both do.
//!
//! [`ssb`] defines the 13 Star-Schema-Benchmark queries (Q1.1–Q4.3) in
//! `QuerySpec` form, extended per HATtrick §4.2 with the freshness-vector
//! side read.
//!
//! ```
//! use hat_common::ids::{history, TableId};
//! use hat_common::value::row_from;
//! use hat_common::{Money, Value};
//! use hat_query::predicate::Predicate;
//! use hat_query::spec::{AggExpr, QueryId, QuerySpec};
//! use hat_query::view::MixedView;
//! use hat_storage::rowstore::RowDb;
//!
//! let db = RowDb::new();
//! for i in 0..10u64 {
//!     db.store(TableId::History).install_insert(
//!         row_from([
//!             Value::U64(i),
//!             Value::U32(1),
//!             Value::Money(Money::from_cents(100)),
//!         ]),
//!         1,
//!     );
//! }
//! let spec = QuerySpec {
//!     id: QueryId::Q1_1,
//!     fact: TableId::History,
//!     fact_filter: Predicate::all(),
//!     joins: vec![],
//!     group_by: vec![],
//!     agg: AggExpr::SumMoney(history::AMOUNT),
//! };
//! let out = hat_query::exec::execute(&spec, &MixedView::rows(&db, 1));
//! assert_eq!(out.groups[0].agg, 1000);
//! ```

pub mod batch;
pub mod exec;
pub mod hint;
pub mod predicate;
pub mod spec;
pub mod ssb;
pub mod view;

pub use batch::{filter_batch, KernelCache, ScanBatch};
pub use exec::{execute, ExecContext, ExecStats, QueryOpts, QueryOutput, ScanMode};
pub use hint::{date_range_hint, ScanPruner, ZoneCheck};
pub use predicate::{ColPredicate, Predicate};
pub use spec::{AggExpr, GroupKey, GroupVal, JoinSpec, QueryId, QuerySpec};
pub use view::{MixedView, Morsel, MorselSource, RowRef, SnapshotView};
