//! The benchmark's own load drivers: closed-loop clients and one paced
//! transactional client, written against `HtapEngine` alone.
//!
//! A closed-loop client issues its next request when the previous one
//! returns. The paced client issues transaction `n` at `t0 + n / rate`,
//! catches up when it is late and never skips; its latencies run from the
//! *due* time, so a stall is charged to every request it delays.
//! Retryable aborts are retried at once with fresh parameters and the same
//! sequence number, as the paper's driver does.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::adapter::{
    names, query_batch, run_transaction, score_query, ssb, BenchClock, CommitRegistry, DataProfile,
    HatRng, HtapEngine, MetricsSnapshot, QueryId, QueryOpts, QueryOutput, QuerySpec, TxnKind,
    TxnMix, WorkloadState,
};

/// Attempts per logical operation before it is abandoned and counted as
/// failed. Far above what lock conflicts between two clients need.
const MAX_ATTEMPTS: u32 = 100;

/// Cadence of the gauge sampler in traced runs.
const GAUGE_EVERY: Duration = Duration::from_millis(100);

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const DONE: u8 = 2;

/// Client population of one drive. Thread counts are constants of the
/// workload, never derived from the machine.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub t_clients: u32,
    pub a_clients: u32,
    /// `Some(rate)`: the (single) transactional client is paced at `rate`
    /// transactions per second instead of running closed-loop.
    pub t_rate: Option<f64>,
    /// Probe workers per analytical query.
    pub parallelism: usize,
}

/// State that survives from one drive to the next on the same engine.
pub struct Clients {
    pub seed: u64,
    pub profile: DataProfile,
    pub state: WorkloadState,
    pub registry: CommitRegistry,
    /// Next sequence number per transactional client.
    pub next_txnnum: Vec<u64>,
    /// Payments committed (acknowledged or in doubt) since the engine was
    /// loaded, warm-ups included — what the HISTORY invariant counts.
    pub payments_committed: u64,
    drives: u64,
}

impl Clients {
    pub fn new(seed: u64, profile: DataProfile, t_clients: u32) -> Clients {
        let state = WorkloadState::new(&profile);
        Clients {
            seed,
            profile,
            state,
            registry: CommitRegistry::new(&vec![1; t_clients as usize]),
            next_txnnum: vec![1; t_clients as usize],
            payments_committed: 0,
            drives: 0,
        }
    }
}

/// Length of the slices a window is cut into for [`Window::txn_rate`].
const RATE_SLICE_NS: u64 = 500_000_000;

/// What one measured window saw. Latencies are nanoseconds.
#[derive(Default)]
pub struct Window {
    pub secs: f64,
    pub start_ns: u64,
    pub end_ns: u64,
    // Transactions whose last attempt returned inside the window.
    pub acked: u64,
    pub in_doubt: u64,
    pub gave_up: u64,
    pub aborts: u64,
    pub txn_lat: Vec<f64>,
    /// Completion time of each acknowledged transaction (benchmark clock).
    pub txn_done: Vec<u64>,
    /// Paced client only: how late each transaction started.
    pub late: Vec<f64>,
    // Queries that returned inside the window.
    pub queries: u64,
    pub query_failed: u64,
    pub query_lat: Vec<f64>,
    /// Whole 13-query batches that started and ended inside the window.
    pub batch: Vec<f64>,
    /// Freshness scores, seconds.
    pub freshness: Vec<f64>,
    pub per_query: Vec<PerQuery>,
    /// Gauge samples (traced runs only).
    pub backlog: Vec<f64>,
    pub delta_rows: Vec<f64>,
    /// Engine metrics across the window: counters and histograms are
    /// deltas, gauges their closing values.
    pub engine: MetricsSnapshot,
}

impl Window {
    /// Logical operations that finished inside the window.
    pub fn attempted(&self) -> u64 {
        self.acked + self.in_doubt + self.gave_up + self.queries + self.query_failed
    }

    /// Operations abandoned after [`MAX_ATTEMPTS`].
    pub fn failed(&self) -> u64 {
        self.gave_up + self.query_failed
    }

    /// Time the clients spent inside calls (for the trace coverage ratio).
    pub fn in_call_ns(&self, paced: bool) -> f64 {
        let late: f64 = if paced { self.late.iter().sum() } else { 0.0 };
        self.txn_lat.iter().sum::<f64>() - late + self.query_lat.iter().sum::<f64>()
    }

    /// Acknowledged transactions per second: the median over the window's
    /// 0.5 s slices, so one stalled slice (a neighbour's burst, a long
    /// fsync) does not move the run's number the way it moves the mean.
    pub fn txn_rate(&self) -> f64 {
        let slices = ((self.end_ns - self.start_ns) / RATE_SLICE_NS).max(1);
        let len = (self.end_ns - self.start_ns) / slices;
        let mut counts = vec![0.0; slices as usize];
        for &t in &self.txn_done {
            let i = (t.saturating_sub(self.start_ns) / len.max(1)).min(slices - 1);
            counts[i as usize] += 1.0;
        }
        crate::stats::median(&counts) * 1e9 / len.max(1) as f64
    }

    /// Queries per second: 13 over the median time of a whole batch, for
    /// the same reason (every batch holds the same 13 queries). Falls back
    /// to count over time when no batch fits the window.
    pub fn query_rate(&self) -> f64 {
        if self.batch.is_empty() {
            return self.queries as f64 / self.secs.max(f64::MIN_POSITIVE);
        }
        13.0 * 1e9 / crate::stats::median(&self.batch)
    }
}

/// Per-query-id tallies from `QueryOutput`.
#[derive(Debug, Clone, Default)]
pub struct PerQuery {
    pub count: u64,
    pub build_ns: u64,
    pub probe_ns: u64,
    pub morsels_scanned: u64,
    pub morsels_pruned: u64,
    pub rows_filtered: u64,
    /// Distinct result digests seen (one, on a read-only workload).
    pub digests: Vec<u64>,
}

#[derive(Default)]
struct TxnLog {
    acked: u64,
    in_doubt: u64,
    gave_up: u64,
    aborts: u64,
    lat: Vec<f64>,
    done: Vec<u64>,
    late: Vec<f64>,
    payments: u64,
    next_txnnum: u64,
}

#[derive(Default)]
struct QueryLog {
    queries: u64,
    failed: u64,
    lat: Vec<f64>,
    batch: Vec<f64>,
    freshness: Vec<f64>,
    per_query: Vec<PerQuery>,
}

/// FNV-1a over a canonical rendering of the result: stable across
/// toolchains, which the committed golden file needs.
pub fn digest(out: &QueryOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for g in &out.groups {
        for k in &g.key {
            eat(k.to_string().as_bytes());
            eat(b"|");
        }
        eat(format!("={}#{};", g.agg, g.rows).as_bytes());
    }
    eat(format!("matched={}", out.matched_rows).as_bytes());
    h
}

struct Shared<'a> {
    engine: &'a dyn HtapEngine,
    clients: &'a Clients,
    clock: &'static BenchClock,
    phase: AtomicU8,
    stop: AtomicBool,
    fatal: Mutex<Option<String>>,
    t0_ns: u64,
    stream: u64,
}

impl Shared<'_> {
    fn measuring(&self) -> bool {
        self.phase.load(Ordering::Relaxed) == MEASURE
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn fail(&self, what: String) {
        self.fatal.lock().expect("fatal slot poisoned").get_or_insert(what);
        self.stop.store(true, Ordering::Relaxed);
    }
}

fn txn_client(sh: &Shared<'_>, client: u32, first_txnnum: u64, rate: Option<f64>) -> TxnLog {
    let mut rng = HatRng::derive(sh.clients.seed, (sh.stream << 16) | 0x7000 | u64::from(client));
    let mix = TxnMix::default();
    let mut log = TxnLog {
        lat: Vec::with_capacity(1 << 20),
        done: Vec::with_capacity(1 << 20),
        next_txnnum: first_txnnum,
        ..TxnLog::default()
    };
    let mut issued = 0u64;
    while !sh.stopped() {
        // Paced: wait for this transaction's due time; a late client starts
        // at once and the lateness stays in its latency.
        let mut call_start = sh.clock.now();
        let mut late = 0.0;
        if let Some(rate) = rate {
            let due = sh.t0_ns + (issued as f64 * 1e9 / rate) as u64;
            if call_start < due {
                std::thread::sleep(Duration::from_nanos(due - call_start));
                if sh.stopped() {
                    break;
                }
            }
            late = sh.clock.now().saturating_sub(due) as f64;
            call_start = due;
        }
        issued += 1;
        let kind = mix.draw(&mut rng);
        let txnnum = log.next_txnnum;
        let mut attempts = 0;
        let receipt = loop {
            attempts += 1;
            match run_transaction(
                sh.engine,
                &sh.clients.profile,
                &sh.clients.state,
                &mut rng,
                kind,
                client,
                txnnum,
            ) {
                Ok(receipt) => break Some(receipt),
                Err(e) if e.is_retryable() => {
                    if sh.measuring() {
                        log.aborts += 1;
                    }
                    if attempts >= MAX_ATTEMPTS || sh.stopped() {
                        break None;
                    }
                }
                Err(e) => {
                    sh.fail(format!("transactional client {client}: {e}"));
                    break None;
                }
            }
        };
        let done = sh.clock.now();
        let measuring = sh.measuring();
        match receipt {
            Some(receipt) => {
                // In doubt still means installed: the number is consumed.
                sh.clients.registry.record(client, txnnum, done);
                log.next_txnnum += 1;
                log.payments += u64::from(kind == TxnKind::Payment);
                if measuring {
                    if receipt.is_acked() {
                        log.acked += 1;
                        log.lat.push(done.saturating_sub(call_start) as f64);
                        log.done.push(done);
                        if rate.is_some() {
                            log.late.push(late);
                        }
                    } else {
                        log.in_doubt += 1;
                    }
                }
            }
            None if measuring && attempts >= MAX_ATTEMPTS => log.gave_up += 1,
            None => {}
        }
    }
    log
}

fn query_client(sh: &Shared<'_>, client: u32, opts: &QueryOpts, keep_digests: bool) -> QueryLog {
    let mut rng = HatRng::derive(sh.clients.seed, (sh.stream << 16) | 0xA000 | u64::from(client));
    let specs: Vec<QuerySpec> = QueryId::ALL.iter().map(|&q| ssb::query(q)).collect();
    let mut log = QueryLog { per_query: vec![PerQuery::default(); 13], ..QueryLog::default() };
    'outer: loop {
        let mut whole = sh.measuring();
        let batch_start = sh.clock.now();
        for qid in query_batch(&mut rng) {
            if sh.stopped() {
                break 'outer;
            }
            let idx = QueryId::ALL.iter().position(|&q| q == qid).expect("known query id");
            let mut attempts = 0;
            loop {
                attempts += 1;
                let start = sh.clock.now();
                match sh.engine.query(&specs[idx], opts) {
                    Ok(out) => {
                        let done = sh.clock.now();
                        if !sh.measuring() {
                            whole = false;
                            break;
                        }
                        let lat = done.saturating_sub(start) as f64;
                        log.queries += 1;
                        log.lat.push(lat);
                        log.freshness.push(score_query(
                            start,
                            &out.freshness,
                            &sh.clients.registry,
                        ));
                        let pq = &mut log.per_query[idx];
                        pq.count += 1;
                        pq.build_ns += out.stats.build_nanos;
                        pq.probe_ns += out.stats.probe_nanos;
                        pq.morsels_scanned += out.stats.morsels_scanned;
                        pq.morsels_pruned += out.stats.morsels_pruned;
                        pq.rows_filtered += out.stats.rows_filtered_vectorized;
                        if keep_digests {
                            let d = digest(&out);
                            if !pq.digests.contains(&d) {
                                pq.digests.push(d);
                            }
                        }
                        break;
                    }
                    Err(e) if e.is_retryable() => {
                        if attempts >= MAX_ATTEMPTS || sh.stopped() {
                            if sh.measuring() {
                                log.failed += 1;
                            }
                            whole = false;
                            break;
                        }
                    }
                    Err(e) => {
                        sh.fail(format!("analytical client {client}: {e}"));
                        break 'outer;
                    }
                }
            }
        }
        if whole && sh.measuring() {
            log.batch.push(sh.clock.now().saturating_sub(batch_start) as f64);
        }
    }
    log
}

/// A client thread's log, or a recorded failure if it panicked.
fn joined<T>(sh: &Shared<'_>, result: std::thread::Result<T>) -> Option<T> {
    if result.is_err() {
        sh.fail("a client thread panicked".to_string());
    }
    result.ok()
}

/// Runs `load` against `engine`: `warmup_s` unmeasured, then `measure_s`
/// measured. With `sample_gauges` the coordinator also samples the
/// `repl.backlog` and `delta.rows` gauges every 100 ms.
pub fn drive(
    engine: &dyn HtapEngine,
    clients: &mut Clients,
    load: Load,
    warmup_s: f64,
    measure_s: f64,
    sample_gauges: bool,
) -> Result<Window, String> {
    assert!(
        load.t_rate.is_none() || load.t_clients == 1,
        "pacing drives exactly one transactional client"
    );
    clients.drives += 1;
    let clock = BenchClock::global();
    let sh = Shared {
        engine,
        clients,
        clock,
        phase: AtomicU8::new(WARMUP),
        stop: AtomicBool::new(false),
        fatal: Mutex::new(None),
        t0_ns: clock.now(),
        stream: clients.drives,
    };
    let opts = QueryOpts::with_parallelism(load.parallelism);
    let read_only = load.t_clients == 0;
    let mut window = Window::default();

    let (txn_logs, query_logs) = std::thread::scope(|scope| {
        let txn_handles: Vec<_> = (0..load.t_clients)
            .map(|c| {
                let (sh, first) = (&sh, sh.clients.next_txnnum[c as usize]);
                scope.spawn(move || txn_client(sh, c, first, load.t_rate))
            })
            .collect();
        let query_handles: Vec<_> = (0..load.a_clients)
            .map(|c| {
                let (sh, opts) = (&sh, &opts);
                scope.spawn(move || query_client(sh, c, opts, read_only))
            })
            .collect();

        let sleep_until = |deadline_ns: u64| {
            let now = clock.now();
            if now < deadline_ns {
                std::thread::sleep(Duration::from_nanos(deadline_ns - now));
            }
        };
        sleep_until(sh.t0_ns + (warmup_s * 1e9) as u64);
        let begin = engine.metrics();
        sh.phase.store(MEASURE, Ordering::Relaxed);
        window.start_ns = clock.now();
        let deadline = window.start_ns + (measure_s * 1e9) as u64;
        if sample_gauges {
            let mut next = window.start_ns;
            while next < deadline && !sh.stopped() {
                sleep_until(next);
                let m = engine.metrics();
                window.backlog.push(m.gauge(names::REPL_BACKLOG) as f64);
                window.delta_rows.push(m.gauge(names::DELTA_ROWS) as f64);
                next += GAUGE_EVERY.as_nanos() as u64;
            }
        }
        sleep_until(deadline);
        sh.phase.store(DONE, Ordering::Relaxed);
        window.end_ns = clock.now();
        window.engine = engine.metrics().diff(&begin);
        sh.stop.store(true, Ordering::Relaxed);

        let t: Vec<TxnLog> =
            txn_handles.into_iter().filter_map(|h| joined(&sh, h.join())).collect();
        let q: Vec<QueryLog> =
            query_handles.into_iter().filter_map(|h| joined(&sh, h.join())).collect();
        (t, q)
    });
    if let Some(what) = sh.fatal.into_inner().expect("fatal slot poisoned") {
        return Err(what);
    }

    window.secs = (window.end_ns - window.start_ns) as f64 / 1e9;
    for (c, log) in txn_logs.into_iter().enumerate() {
        clients.next_txnnum[c] = log.next_txnnum;
        clients.payments_committed += log.payments;
        window.acked += log.acked;
        window.in_doubt += log.in_doubt;
        window.gave_up += log.gave_up;
        window.aborts += log.aborts;
        window.txn_lat.extend(log.lat);
        window.txn_done.extend(log.done);
        window.late.extend(log.late);
    }
    window.per_query = vec![PerQuery::default(); 13];
    for log in query_logs {
        window.queries += log.queries;
        window.query_failed += log.failed;
        window.query_lat.extend(log.lat);
        window.batch.extend(log.batch);
        window.freshness.extend(log.freshness);
        for (into, from) in window.per_query.iter_mut().zip(log.per_query) {
            into.count += from.count;
            into.build_ns += from.build_ns;
            into.probe_ns += from.probe_ns;
            into.morsels_scanned += from.morsels_scanned;
            into.morsels_pruned += from.morsels_pruned;
            into.rows_filtered += from.rows_filtered;
            for d in from.digests {
                if !into.digests.contains(&d) {
                    into.digests.push(d);
                }
            }
        }
    }
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{build_engine, generate_and_load, EngineKind};

    #[test]
    fn paced_client_hits_its_rate_and_reports_lateness() {
        let built = build_engine(EngineKind::SharedMem, std::path::Path::new("unused")).unwrap();
        let profile = generate_and_load(0.002, 11, built.engine.as_ref()).unwrap();
        let mut clients = Clients::new(11, profile, 1);
        let load = Load { t_clients: 1, a_clients: 0, t_rate: Some(500.0), parallelism: 1 };
        let w = drive(built.engine.as_ref(), &mut clients, load, 0.2, 1.0, false).unwrap();
        let rate = w.acked as f64 / w.secs;
        assert!((rate - 500.0).abs() < 25.0, "paced at 500/s, measured {rate:.1}/s");
        assert_eq!(w.late.len() as u64, w.acked, "one lateness sample per transaction");
        assert!(w.late.iter().all(|&l| l >= 0.0));
        // Latency runs from the due time, so it can never undercut lateness.
        assert!(w.txn_lat.iter().zip(&w.late).all(|(lat, late)| lat >= late));
        assert_eq!(w.failed(), 0);
        // Sequence numbers are dense: the registry holds one commit per ack.
        assert_eq!(clients.registry.count(0) as u64 + 1, clients.next_txnnum[0]);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let built = build_engine(EngineKind::SharedMem, std::path::Path::new("unused")).unwrap();
        generate_and_load(0.002, 11, built.engine.as_ref()).unwrap();
        let opts = QueryOpts::with_parallelism(1);
        let a = built.engine.query(&ssb::query(QueryId::Q2_1), &opts).unwrap();
        let b = built.engine.query(&ssb::query(QueryId::Q2_1), &opts).unwrap();
        let c = built.engine.query(&ssb::query(QueryId::Q3_1), &opts).unwrap();
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
