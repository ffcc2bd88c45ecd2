//! Outside-in tracing: decorators over the engine traits.
//!
//! [`TracedEngine`] and [`TracedSession`] wrap any `HtapEngine` / `Session`
//! and record one span around every trait call, so the product needs no
//! instrumentation of its own. A transaction's root span runs from the
//! start of `begin()` to the end of `commit()`/`abort()`; its children are
//! the session calls, and what is left over (self time) is the workload
//! code between them — parameter draws, string formatting, row building.
//! A query's root span is the `query()` call; its two children are the
//! build and probe durations the executor reports in `QueryOutput.stats`,
//! and its self time is everything else the engine did (admission,
//! snapshot acquire, view construction, delta merge, result merge).
//!
//! Spans stay in memory until the run ends. The request id of a
//! transaction is read off the FRESHNESS update every HATtrick transaction
//! carries (`client << 40 | txnnum`), which also works for transactions the
//! product's own open-loop driver issues.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::adapter::{
    BenchClock, ColId, CommitReceipt, DesignCategory, HatResult, HtapEngine, Json, MetricsSnapshot,
    NamedIndex, QueryId, QueryOpts, QueryOutput, QuerySpec, Row, RowId, Session, TableId,
};
use crate::stats;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root: `begin()` start to `commit()`/`abort()` end.
    Txn,
    Begin,
    /// `lookup_u32`, `lookup_str`, `count_orders`, `read`, `scan_lookup_u32`.
    Read,
    /// `insert`, `update`.
    Write,
    Commit,
    Abort,
    /// Root: one `query()` call.
    Query,
    /// Dimension hash build, as reported by the executor.
    QueryBuild,
    /// Fact probe, as reported by the executor.
    QueryProbe,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Begin => "engine.begin",
            SpanKind::Read => "engine.session_read",
            SpanKind::Write => "engine.session_write",
            SpanKind::Commit => "engine.commit",
            SpanKind::Abort => "engine.abort",
            SpanKind::Query => "engine.query",
            SpanKind::QueryBuild => "query.build",
            SpanKind::QueryProbe => "query.probe",
        }
    }

    fn is_root(self) -> bool {
        matches!(self, SpanKind::Txn | SpanKind::Query)
    }
}

/// One recorded span. A root is followed in its buffer by its children, so
/// the parent link is positional until the trace is written out.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Transactions: `client << 40 | txnnum`. Queries: call sequence number.
    pub request: u64,
    /// Roots: 1 when the transaction committed / the query returned `Ok`.
    /// Query roots and their children carry the query's index in
    /// `QueryId::ALL` in `tag`.
    pub ok: bool,
    pub tag: u8,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

const SHARDS: usize = 16;

/// In-memory span store shared by every decorator of one run.
pub struct SpanSink {
    shards: Vec<Mutex<Vec<Span>>>,
    next_shard: AtomicUsize,
    clock: &'static BenchClock,
}

impl SpanSink {
    pub fn new() -> Arc<SpanSink> {
        Arc::new(SpanSink {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            next_shard: AtomicUsize::new(0),
            clock: BenchClock::global(),
        })
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Appends one root with its children.
    fn flush(&self, group: &[Span]) {
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
        self.shards[shard]
            .lock()
            .expect("span shard poisoned: a traced thread panicked")
            .extend_from_slice(group);
    }

    /// Takes every recorded span, leaving the sink empty.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("span shard poisoned"));
        }
        all
    }
}

/// `HtapEngine` decorator recording a span around every call.
pub struct TracedEngine {
    inner: Arc<dyn HtapEngine>,
    sink: Arc<SpanSink>,
    query_seq: AtomicU64,
}

impl TracedEngine {
    pub fn new(inner: Arc<dyn HtapEngine>, sink: Arc<SpanSink>) -> TracedEngine {
        TracedEngine { inner, sink, query_seq: AtomicU64::new(0) }
    }
}

impl HtapEngine for TracedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn design(&self) -> DesignCategory {
        self.inner.design()
    }

    fn load(&self, table: TableId, rows: &mut dyn Iterator<Item = Row>) -> HatResult<()> {
        self.inner.load(table, rows)
    }

    fn finish_load(&self) -> HatResult<()> {
        self.inner.finish_load()
    }

    fn begin(&self) -> Box<dyn Session + '_> {
        let start = self.sink.now();
        let inner = self.inner.begin();
        let end = self.sink.now();
        let mut spans = Vec::with_capacity(24);
        // Slot 0 is the root, completed at commit/abort.
        spans.push(Span {
            kind: SpanKind::Txn,
            start_ns: start,
            end_ns: start,
            request: 0,
            ok: false,
            tag: 0,
        });
        spans.push(Span {
            kind: SpanKind::Begin,
            start_ns: start,
            end_ns: end,
            request: 0,
            ok: true,
            tag: 0,
        });
        Box::new(TracedSession { inner, sink: &self.sink, spans })
    }

    fn query(&self, spec: &QuerySpec, opts: &QueryOpts) -> HatResult<QueryOutput> {
        let request = self.query_seq.fetch_add(1, Ordering::Relaxed);
        let tag = QueryId::ALL.iter().position(|&q| q == spec.id).unwrap_or(0) as u8;
        let start = self.sink.now();
        let out = self.inner.query(spec, opts);
        let end = self.sink.now();
        let mut group = [Span {
            kind: SpanKind::Query,
            start_ns: start,
            end_ns: end,
            request,
            ok: out.is_ok(),
            tag,
        }; 3];
        let mut n = 1;
        if let Ok(out) = &out {
            // The executor reports durations, not boundaries: the children
            // are laid back to back from the call's start.
            let build_end = start + out.stats.build_nanos;
            group[1] = Span { kind: SpanKind::QueryBuild, end_ns: build_end, ..group[0] };
            group[2] = Span {
                kind: SpanKind::QueryProbe,
                start_ns: build_end,
                end_ns: build_end + out.stats.probe_nanos,
                ..group[0]
            };
            n = 3;
        }
        self.sink.flush(&group[..n]);
        out
    }

    fn reset(&self) -> HatResult<()> {
        self.inner.reset()
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn set_txn_cores(&self, t_cores: u32, total: u32) {
        self.inner.set_txn_cores(t_cores, total)
    }
}

/// `Session` decorator; owns its transaction's spans until the end.
pub struct TracedSession<'a> {
    inner: Box<dyn Session + 'a>,
    sink: &'a SpanSink,
    spans: Vec<Span>,
}

impl TracedSession<'_> {
    fn record<T>(&mut self, kind: SpanKind, call: impl FnOnce(&mut dyn Session) -> T) -> T {
        let start = self.sink.now();
        let out = call(self.inner.as_mut());
        let end = self.sink.now();
        self.spans.push(Span { kind, start_ns: start, end_ns: end, request: 0, ok: true, tag: 0 });
        out
    }
}

impl Session for TracedSession<'_> {
    fn lookup_u32(&mut self, index: NamedIndex, key: u32) -> HatResult<Option<(RowId, Row)>> {
        self.record(SpanKind::Read, |s| s.lookup_u32(index, key))
    }

    fn lookup_str(&mut self, index: NamedIndex, key: &str) -> HatResult<Option<(RowId, Row)>> {
        self.record(SpanKind::Read, |s| s.lookup_str(index, key))
    }

    fn count_orders(&mut self, custkey: u32) -> HatResult<u64> {
        self.record(SpanKind::Read, |s| s.count_orders(custkey))
    }

    fn read(&mut self, table: TableId, rid: RowId) -> HatResult<Option<Row>> {
        self.record(SpanKind::Read, |s| s.read(table, rid))
    }

    fn insert(&mut self, table: TableId, row: Row) -> HatResult<()> {
        self.record(SpanKind::Write, |s| s.insert(table, row))
    }

    fn update(&mut self, table: TableId, rid: RowId, row: Row) -> HatResult<()> {
        if table == TableId::Freshness {
            // Every HATtrick transaction stamps (client, txnnum) here.
            let txnnum = row.get(1).and_then(|v| v.as_u64().ok()).unwrap_or(0);
            self.spans[0].request = (rid << 40) | txnnum;
        }
        self.record(SpanKind::Write, |s| s.update(table, rid, row))
    }

    fn scan_lookup_u32(
        &mut self,
        table: TableId,
        col: ColId,
        key: u32,
    ) -> HatResult<Option<(RowId, Row)>> {
        self.record(SpanKind::Read, |s| s.scan_lookup_u32(table, col, key))
    }

    fn commit(self: Box<Self>) -> HatResult<CommitReceipt> {
        let TracedSession { inner, sink, spans } = *self;
        let start = sink.now();
        let out = inner.commit();
        flush_session(sink, spans, SpanKind::Commit, start, out.is_ok());
        out
    }

    fn abort(self: Box<Self>) {
        let TracedSession { inner, sink, spans } = *self;
        let start = sink.now();
        inner.abort();
        flush_session(sink, spans, SpanKind::Abort, start, false);
    }
}

/// Completes a finished session's span group — adds the closing
/// `commit`/`abort` span that started at `start`, closes the root, stamps
/// the request id on every span — and hands it to the sink.
fn flush_session(sink: &SpanSink, mut spans: Vec<Span>, kind: SpanKind, start: u64, ok: bool) {
    let end = sink.now();
    let request = spans[0].request;
    spans.push(Span { kind, start_ns: start, end_ns: end, request, ok, tag: 0 });
    spans[0].end_ns = end;
    spans[0].ok = ok;
    for s in &mut spans[1..] {
        s.request = request;
    }
    sink.flush(&spans);
}

/// Count, busy time and latency percentiles of one span kind.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    pub count: u64,
    pub busy_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Per-query-id means over the traced window.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    pub count: u64,
    pub total_ns: u64,
    pub build_ns: u64,
    pub probe_ns: u64,
}

/// The trace, reduced to what the per-layer table prints.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub spans: u64,
    pub begin: KindStats,
    pub read: KindStats,
    pub write: KindStats,
    pub commit: KindStats,
    pub abort: KindStats,
    pub query: KindStats,
    /// Transaction roots and what their children did not cover.
    pub txn_roots: u64,
    pub txn_committed: u64,
    pub txn_root_ns: u64,
    pub txn_self_ns: u64,
    /// Query roots, their reported build/probe time and the remainder.
    pub query_roots: u64,
    pub query_root_ns: u64,
    pub query_build_ns: u64,
    pub query_probe_ns: u64,
    pub per_query: Vec<QueryStats>,
}

impl TraceSummary {
    /// Total duration of all root spans.
    pub fn root_ns(&self) -> u64 {
        self.txn_root_ns + self.query_root_ns
    }

    /// Self time the engine spent in `query()` outside build and probe.
    pub fn query_overhead_ns(&self) -> u64 {
        self.query_root_ns.saturating_sub(self.query_build_ns + self.query_probe_ns)
    }

    /// Share of the root spans' total that the printed layer rows account
    /// for (everything except `engine.abort`, which has no row of its own).
    pub fn attributed_share(&self) -> f64 {
        let root = self.root_ns();
        if root == 0 {
            return 0.0;
        }
        let listed = self.txn_self_ns
            + self.begin.busy_ns
            + self.read.busy_ns
            + self.write.busy_ns
            + self.commit.busy_ns
            + self.query_root_ns;
        listed as f64 / root as f64
    }
}

/// Reduces spans recorded inside `[from_ns, until_ns]` (by root end time).
pub fn summarize(spans: &[Span], from_ns: u64, until_ns: u64) -> TraceSummary {
    let mut out = TraceSummary { per_query: vec![QueryStats::default(); 13], ..Default::default() };
    let mut samples: [Vec<f64>; 6] = Default::default();
    let slot = |kind: SpanKind| match kind {
        SpanKind::Begin => Some(0),
        SpanKind::Read => Some(1),
        SpanKind::Write => Some(2),
        SpanKind::Commit => Some(3),
        SpanKind::Abort => Some(4),
        SpanKind::Query => Some(5),
        _ => None,
    };
    let mut i = 0;
    while i < spans.len() {
        let root = spans[i];
        debug_assert!(root.kind.is_root(), "groups start with their root");
        let mut j = i + 1;
        while j < spans.len() && !spans[j].kind.is_root() {
            j += 1;
        }
        let children = &spans[i + 1..j];
        i = j;
        if root.end_ns < from_ns || root.end_ns > until_ns {
            continue;
        }
        out.spans += 1 + children.len() as u64;
        match root.kind {
            SpanKind::Txn => {
                let covered: u64 = children.iter().map(Span::nanos).sum();
                out.txn_roots += 1;
                out.txn_committed += u64::from(root.ok);
                out.txn_root_ns += root.nanos();
                out.txn_self_ns += root.nanos().saturating_sub(covered);
                for c in children {
                    if let Some(k) = slot(c.kind) {
                        samples[k].push(c.nanos() as f64);
                    }
                }
            }
            _ => {
                out.query_roots += 1;
                out.query_root_ns += root.nanos();
                samples[5].push(root.nanos() as f64);
                let q = &mut out.per_query[usize::from(root.tag).min(12)];
                q.count += 1;
                q.total_ns += root.nanos();
                for c in children {
                    match c.kind {
                        SpanKind::QueryBuild => {
                            out.query_build_ns += c.nanos();
                            q.build_ns += c.nanos();
                        }
                        SpanKind::QueryProbe => {
                            out.query_probe_ns += c.nanos();
                            q.probe_ns += c.nanos();
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    let reduce = |v: &mut Vec<f64>| -> KindStats {
        let s = stats::sorted(std::mem::take(v));
        KindStats {
            count: s.len() as u64,
            busy_ns: s.iter().sum::<f64>() as u64,
            p50_ns: stats::percentile(&s, 50.0),
            p99_ns: stats::percentile(&s, f64::from(stats::tail_rung(s.len(), 99))),
        }
    };
    out.begin = reduce(&mut samples[0]);
    out.read = reduce(&mut samples[1]);
    out.write = reduce(&mut samples[2]);
    out.commit = reduce(&mut samples[3]);
    out.abort = reduce(&mut samples[4]);
    out.query = reduce(&mut samples[5]);
    out
}

/// Roots written out in full; the summary covers every span.
const WRITTEN_ROOTS: usize = 2000;

/// The trace file: the first [`WRITTEN_ROOTS`] requests span by span (name,
/// start, end, parent, request id) plus the summary of all of them.
pub fn to_json(workload: &str, spans: &[Span], summary: &TraceSummary) -> Json {
    let mut rows = Vec::new();
    let mut roots = 0usize;
    let mut parent = 0u64;
    for (id, s) in spans.iter().enumerate() {
        if s.kind.is_root() {
            if roots == WRITTEN_ROOTS {
                break;
            }
            roots += 1;
            parent = id as u64;
        }
        let mut row = vec![
            ("id".to_string(), Json::from_u64(id as u64)),
            ("name".to_string(), Json::Str(s.kind.name().into())),
            ("start_ns".to_string(), Json::from_u64(s.start_ns)),
            ("end_ns".to_string(), Json::from_u64(s.end_ns)),
            ("request".to_string(), Json::from_u64(s.request)),
            ("ok".to_string(), Json::Bool(s.ok)),
        ];
        if s.kind.is_root() {
            row.push(("parent".to_string(), Json::Null));
        } else {
            row.push(("parent".to_string(), Json::from_u64(parent)));
        }
        if matches!(s.kind, SpanKind::Query | SpanKind::QueryBuild | SpanKind::QueryProbe) {
            let label = QueryId::ALL[usize::from(s.tag).min(12)].label();
            row.push(("query".to_string(), Json::Str(label.into())));
        }
        if matches!(s.kind, SpanKind::QueryBuild | SpanKind::QueryProbe) {
            // Duration reported by the executor; placement is nominal.
            row.push(("synthetic".to_string(), Json::Bool(true)));
        }
        rows.push(Json::Obj(row));
    }
    Json::Obj(vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("spans_recorded".to_string(), Json::from_u64(spans.len() as u64)),
        ("roots_written".to_string(), Json::from_u64(roots as u64)),
        ("spans_summarized".to_string(), Json::from_u64(summary.spans)),
        ("txn_roots".to_string(), Json::from_u64(summary.txn_roots)),
        ("query_roots".to_string(), Json::from_u64(summary.query_roots)),
        ("root_ns".to_string(), Json::from_u64(summary.root_ns())),
        ("attributed_share".to_string(), Json::from_f64(summary.attributed_share())),
        ("spans".to_string(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{build_engine, generate_and_load, run_transaction, EngineKind};
    use crate::adapter::{ssb, HatRng, TxnMix, WorkloadState};

    #[test]
    fn self_times_sum_to_the_root_span() {
        let built = build_engine(EngineKind::SharedMem, std::path::Path::new("unused")).unwrap();
        let profile = generate_and_load(0.002, 5, built.engine.as_ref()).unwrap();
        let sink = SpanSink::new();
        let traced = TracedEngine::new(built.engine.clone(), sink.clone());
        let state = WorkloadState::new(&profile);
        let mut rng = HatRng::seeded(9);
        let mix = TxnMix::default();
        let t0 = BenchClock::global().now();
        for txnnum in 1..=300u64 {
            let kind = mix.draw(&mut rng);
            let receipt =
                run_transaction(&traced, &profile, &state, &mut rng, kind, 3, txnnum).unwrap();
            assert!(receipt.is_acked());
        }
        for q in QueryId::ALL {
            traced.query(&ssb::query(q), &QueryOpts::with_parallelism(1)).unwrap();
        }
        let spans = sink.drain();
        let sum = summarize(&spans, t0, u64::MAX);
        assert_eq!(sum.txn_roots, 300);
        assert_eq!(sum.txn_committed, 300);
        assert_eq!(sum.query_roots, 13);
        assert_eq!(sum.commit.count, 300);
        assert_eq!(sum.begin.count, 300);

        // Root = self + children, per class, within 1 %.
        let txn_children = sum.begin.busy_ns
            + sum.read.busy_ns
            + sum.write.busy_ns
            + sum.commit.busy_ns
            + sum.abort.busy_ns;
        let rebuilt = (sum.txn_self_ns + txn_children) as f64;
        assert!(
            (rebuilt / sum.txn_root_ns as f64 - 1.0).abs() < 0.01,
            "txn self + children = {rebuilt}, roots = {}",
            sum.txn_root_ns
        );
        let q = (sum.query_overhead_ns() + sum.query_build_ns + sum.query_probe_ns) as f64;
        assert!((q / sum.query_root_ns as f64 - 1.0).abs() < 0.01);
        assert!(sum.attributed_share() > 0.99, "share {}", sum.attributed_share());

        // Request ids come off the FRESHNESS update: client 3, txnnum 1..
        let first = spans.iter().find(|s| s.kind == SpanKind::Txn).unwrap();
        assert_eq!(first.request >> 40, 3);
        assert!((1..=300).contains(&(first.request & ((1 << 40) - 1))));

        let json = to_json("unit", &spans, &sum);
        assert_eq!(json.get("roots_written").and_then(Json::as_u64), Some(313));
        let rows = json.get("spans").and_then(Json::as_arr).unwrap();
        assert!(rows[0].get("parent").is_some_and(|p| *p == Json::Null));
        assert_eq!(rows[1].get("parent").and_then(Json::as_u64), Some(0));
    }
}
