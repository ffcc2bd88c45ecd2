//! Output checks: what must hold after a run for its numbers to count.
//! Any failed check makes the run incorrect (non-zero exit, `"ok": false`).

use std::path::Path;

use crate::adapter::{
    history, recover_fsync_engine, ssb, supplier, whole_table, AggExpr, Built, Burst, BurstOutcome,
    HtapEngine, QueryId, QueryOpts, ScanMode, TableId,
};
use crate::drive::{digest, Clients, Window};
use crate::workloads::Workload;

/// Result digests of the 13 queries at SF 0.2, seed 42, produced once by
/// `hat-benchmark golden` from `ShdEngine` under `ScanMode::Scalar` — a
/// different engine and a different executor path than `a1.dual` measures.
const GOLDEN_SF02_SEED42: &str = include_str!("../golden/ssb-sf0.2-seed42.txt");
pub const GOLDEN_SEED: u64 = 42;

/// Named pass/fail outcomes of one run.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub passed: Vec<String>,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// Adds another pass's outcomes.
    pub fn absorb(&mut self, other: Checks) {
        self.passed.extend(other.passed);
        self.failed.extend(other.failed);
    }

    fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed.push(name.to_string());
        } else {
            self.failed.push(format!("{name}: {}", detail()));
        }
    }

    fn eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        let ok = got == want;
        self.check(name, ok, || format!("got {got:?}, want {want:?}"));
    }
}

/// HISTORY as loaded, before any traffic.
pub struct Baseline {
    history_rows: i64,
    history_cents: i64,
}

struct Money {
    history_rows: i64,
    history_cents: i64,
    supplier_ytd: i64,
}

fn money(engine: &dyn HtapEngine) -> Result<Money, String> {
    let q = |table, agg| whole_table(engine, table, agg).map_err(|e| format!("check query: {e}"));
    Ok(Money {
        history_rows: q(TableId::History, AggExpr::CountRows)?,
        history_cents: q(TableId::History, AggExpr::SumMoney(history::AMOUNT))?,
        supplier_ytd: q(TableId::Supplier, AggExpr::SumMoney(supplier::YTD))?,
    })
}

impl Baseline {
    pub fn take(w: Workload, engine: &dyn HtapEngine) -> Result<Baseline, String> {
        if w == Workload::A1Dual {
            return Ok(Baseline { history_rows: 0, history_cents: 0 });
        }
        let m = money(engine)?;
        Ok(Baseline { history_rows: m.history_rows, history_cents: m.history_cents })
    }
}

/// The golden digest of `q`.
fn golden(q: QueryId) -> Option<u64> {
    GOLDEN_SF02_SEED42.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        if parts.next()? != q.label() {
            return None;
        }
        u64::from_str_radix(parts.next()?, 16).ok()
    })
}

/// The golden file's content for `engine` (the `golden` subcommand).
pub fn golden_lines(engine: &dyn HtapEngine) -> Result<String, String> {
    let opts = QueryOpts::with_parallelism(1).scan_mode(ScanMode::Scalar);
    let mut text = String::new();
    for q in QueryId::ALL {
        let out = engine.query(&ssb::query(q), &opts).map_err(|e| format!("{}: {e}", q.label()))?;
        text.push_str(&format!(
            "{} {:016x} groups={} matched={} total={}\n",
            q.label(),
            digest(&out),
            out.groups.len(),
            out.matched_rows,
            out.total()
        ));
    }
    Ok(text)
}

impl Checks {
    /// Payments are the only writers of HISTORY and `S_YTD`, so both must
    /// account exactly for the payments the clients saw commit.
    fn payments(&mut self, tag: &str, base: &Baseline, now: &Money, committed: u64) {
        self.eq(
            &format!("{tag}: HISTORY rows added == committed payments"),
            now.history_rows - base.history_rows,
            committed as i64,
        );
        self.eq(
            &format!("{tag}: sum S_YTD == sum new H_AMOUNT"),
            now.supplier_ytd,
            now.history_cents - base.history_cents,
        );
    }

    /// Checks after the load stopped, on the engine it ran against.
    /// Returns the per-query result digests (`a1.dual`).
    pub fn after_run(
        &mut self,
        w: Workload,
        seed: u64,
        built: &Built,
        base: &Baseline,
        clients: Option<&Clients>,
        window: &Window,
    ) -> Result<Vec<(String, u64)>, String> {
        let engine = built.engine.as_ref();
        let mut digests = Vec::new();
        if w != Workload::BurstShared {
            let busy = window.attempted() > 0;
            self.check("the measured window completed work", busy, || "empty window".into());
        }
        match w {
            Workload::T2SharedMem | Workload::T2SharedFsync | Workload::MixDual => {
                let c = clients.expect("closed-loop workload");
                self.payments("after run", base, &money(engine)?, c.payments_committed);
            }
            Workload::MixIsoAsync => {
                // The replica serves the analytical path: once it has
                // drained, it must show the primary's last commit.
                let c = clients.expect("paced workload");
                built.quiesce();
                let out = engine
                    .query(&ssb::query(QueryId::Q1_1), &QueryOpts::with_parallelism(1))
                    .map_err(|e| format!("quiesced query: {e}"))?;
                let seen = out.freshness.iter().find(|&&(client, _)| client == 0).map(|f| f.1);
                self.eq(
                    "quiesced replica sees the last committed txnnum",
                    seen,
                    Some(c.next_txnnum[0] - 1),
                );
                self.payments("quiesced replica", base, &money(engine)?, c.payments_committed);
                let stale = window.freshness.iter().any(|&f| f > 0.0);
                self.check("async replication shows non-zero freshness", stale, || {
                    "every query scored 0".into()
                });
            }
            Workload::A1Dual | Workload::BurstShared => {}
        }
        if w == Workload::MixDual {
            let worst = window.freshness.iter().copied().fold(0.0, f64::max);
            self.eq("max freshness score on the dual engine", worst, 0.0);
        }
        if w == Workload::A1Dual {
            // Reference: the same engine's row-at-a-time executor path.
            let reference = QueryOpts::with_parallelism(1).scan_mode(ScanMode::Scalar);
            for (i, q) in QueryId::ALL.into_iter().enumerate() {
                let label = q.label();
                let seen = &window.per_query[i].digests;
                self.eq(&format!("{label}: one result across all executions"), seen.len(), 1);
                let measured = seen.first().copied();
                let out = engine
                    .query(&ssb::query(q), &reference)
                    .map_err(|e| format!("{label} reference: {e}"))?;
                self.eq(
                    &format!("{label}: vectorized == scalar reference"),
                    measured,
                    Some(digest(&out)),
                );
                if seed == GOLDEN_SEED {
                    self.eq(&format!("{label}: == golden digest"), measured, golden(q));
                }
                digests.push((label.to_string(), measured.unwrap_or(0)));
            }
        }
        Ok(digests)
    }

    /// Open-loop accounting: the offered load is the seeded schedule, every
    /// attempt has exactly one fate and every arrival exactly one end.
    pub fn burst(&mut self, shape: &Burst, seed: u64, b: &BurstOutcome) {
        self.eq("offered == seeded arrival schedule", b.offered, shape.scheduled_arrivals(seed));
        let failed_attempts =
            b.shed_stale + b.shed_engine + b.shed_degraded + b.deadline_missed + b.aborts;
        self.eq(
            "attempts (offered + retries) == sum of attempt fates",
            b.offered + b.retries,
            b.shed_queue + b.goodput + failed_attempts,
        );
        self.eq("failed attempts == retries + give-ups", failed_attempts, b.retries + b.gave_up);
        self.eq(
            "offered == goodput + shed at enqueue + gave up",
            b.offered,
            b.goodput + b.shed_queue + b.gave_up,
        );
        self.eq("completed == goodput + late", b.completed, b.goodput + b.deadline_missed);
    }

    /// A fresh engine on the fsync workload's WAL directory must recover at
    /// least every commit a client saw acknowledged.
    pub fn recovery(&mut self, wal_dir: &Path, base: &Baseline, c: &Clients) -> Result<(), String> {
        let engine = recover_fsync_engine(wal_dir).map_err(|e| format!("recovery: {e}"))?;
        let now = money(engine.as_ref())?;
        let recovered = now.history_rows - base.history_rows;
        self.check(
            "recovered engine holds every acknowledged payment",
            recovered >= c.payments_committed as i64,
            || format!("{recovered} payments recovered, {} acknowledged", c.payments_committed),
        );
        self.eq(
            "recovered: sum S_YTD == sum new H_AMOUNT",
            now.supplier_ytd,
            now.history_cents - base.history_cents,
        );
        let out = engine
            .query(&ssb::query(QueryId::Q1_1), &QueryOpts::with_parallelism(1))
            .map_err(|e| format!("recovered query: {e}"))?;
        for (client, &next) in c.next_txnnum.iter().enumerate() {
            let seen =
                out.freshness.iter().find(|&&(id, _)| id as usize == client).map_or(0, |f| f.1);
            self.check(
                &format!("recovered: client {client} last acknowledged txnnum"),
                seen >= next - 1,
                || format!("recovered {seen}, acknowledged {}", next - 1),
            );
        }
        Ok(())
    }
}
