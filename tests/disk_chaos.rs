//! Disk-fault chaos harness for the durable WAL wired through the shared
//! engine: the storage-failure counterpart of `crash_recovery.rs`.
//!
//! Each scenario arms a [`DiskFaultPlan`] (transient EIO, fsync failure,
//! persistent ENOSPC, write stalls) against the WAL of a `ShdEngine` in
//! `DurabilityMode::Fsync`, drives explicit payment transactions through
//! the faults, and checks the fail-stop contract:
//!
//! 1. **Typed errors, no crash** — storage faults surface as typed
//!    errors, never as a panic or a process crash: commits shed *at
//!    admission* abort cleanly with retryable [`HatError::Degraded`],
//!    while a fault that voids the durability wait *after* install is the
//!    commit-in-doubt [`HatError::DurabilityInDoubt`]; analytics keep
//!    serving throughout.
//! 2. **Fail-stop** — the first failed write or fsync stops the WAL's
//!    writes for the rest of the run, even when the fault was transient;
//!    only reopening the directory takes writes again.
//! 3. **Durability invariants across faults and crashes** — every
//!    acknowledged payment survives reopen, recovery invents nothing,
//!    and supplier YTD equals the sum of recovered HISTORY amounts.
//!
//! Scenarios are seed-parameterized; `HAT_DISK_SEED=<n>` pins a single
//! seed (the CI matrix fans out over seeds this way). WAL directories
//! live under `target/disk-chaos/` and are kept on failure so the
//! failing seed's evidence can be archived.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hattrick_repro::common::ids::{history, supplier, TableId};
use hattrick_repro::common::rng::HatRng;
use hattrick_repro::common::telemetry::names;
use hattrick_repro::common::value::{row_from, row_with};
use hattrick_repro::common::{HatError, Money, Value};
use hattrick_repro::engine::{
    DiskFault, DiskFaultKind, DiskFaultPlan, DurabilityMode, EngineConfig, HealthState,
    HtapEngine, KillPoint, NamedIndex, QueryOpts, ShdEngine, WalConfig,
};
use hattrick_repro::query::{AggExpr, Predicate, QueryId, QuerySpec};

const NSUPP: u32 = 8;

/// Seeds to run each scenario under. `HAT_DISK_SEED` pins one (CI runs a
/// matrix over it); the default trio keeps local runs fast but varied.
fn seeds() -> Vec<u64> {
    match std::env::var("HAT_DISK_SEED") {
        Ok(s) => vec![s.parse().expect("HAT_DISK_SEED must be an integer")],
        Err(_) => vec![0x11, 0x2F, 0x63],
    }
}

/// A fresh WAL directory under `target/` (predictable path for CI
/// artifact collection). Leftovers from a previous run are removed.
fn wal_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("disk-chaos")
        .join(format!("{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Engine config with the given fault plan armed against the WAL. Small
/// segments cross rotation boundaries mid-fault.
fn chaos_config(dir: &Path, plan: DiskFaultPlan) -> EngineConfig {
    EngineConfig::builder()
        .durability(DurabilityMode::Fsync(WalConfig {
            segment_bytes: 4096,
            fault_plan: plan,
            max_backlog: 64,
            ..WalConfig::new(dir)
        }))
        .build()
}

fn supplier_row(k: u32) -> hattrick_repro::common::Row {
    row_from([
        Value::U32(k),
        Value::from(format!("Supplier#{k:09}")),
        Value::from("addr"),
        Value::from("CITY0"),
        Value::from("CHINA"),
        Value::from("ASIA"),
        Value::from("phone"),
        Value::Money(Money::ZERO),
    ])
}

/// Opens (or recovers) an engine on `dir` with the given fault plan and
/// loads the base suppliers on a fresh directory.
fn open_engine(dir: &Path, plan: DiskFaultPlan, fresh: bool) -> ShdEngine {
    let engine = ShdEngine::try_new(chaos_config(dir, plan)).expect("open engine");
    if fresh {
        let rows: Vec<_> = (1..=NSUPP).map(supplier_row).collect();
        engine.load(TableId::Supplier, &mut rows.into_iter()).unwrap();
        engine.finish_load().unwrap();
    }
    engine
}

/// One payment: supplier YTD += amount, plus a HISTORY row carrying the
/// (unique) amount. Returns Err if the commit was not acknowledged.
fn payment(engine: &ShdEngine, suppkey: u32, amount_cents: i64) -> Result<(), HatError> {
    let mut s = engine.begin();
    let (rid, row) = s
        .lookup_u32(NamedIndex::SupplierPk, suppkey)?
        .expect("supplier exists");
    let ytd = row[supplier::YTD].as_money().expect("typed");
    s.update(
        TableId::Supplier,
        rid,
        row_with(&row, supplier::YTD, Value::Money(ytd + Money::from_cents(amount_cents))),
    )?;
    s.insert(
        TableId::History,
        row_from([
            Value::U64(amount_cents as u64),
            Value::U32(suppkey),
            Value::Money(Money::from_cents(amount_cents)),
        ]),
    )?;
    // The receipt API reports a voided durability wait as an in-doubt
    // receipt, not an error; this suite's accounting needs the old
    // acked/in-doubt split, so map it back onto the error taxonomy.
    match s.commit()? {
        r if r.is_acked() => Ok(()),
        _ => Err(HatError::DurabilityInDoubt),
    }
}

/// The recovered HISTORY amounts, sorted.
fn recovered_amounts(engine: &ShdEngine) -> Vec<i64> {
    let k = engine.kernel();
    let ts = k.oracle.read_ts();
    let mut amounts = Vec::new();
    k.db.store(TableId::History).scan(ts, |_, row| {
        amounts.push(row[history::AMOUNT].as_money().expect("typed").cents());
    });
    amounts.sort_unstable();
    amounts
}

/// Total supplier YTD (equals the sum of applied payment amounts).
fn total_ytd(engine: &ShdEngine) -> i64 {
    let k = engine.kernel();
    let ts = k.oracle.read_ts();
    let mut sum = 0i64;
    k.db.store(TableId::Supplier).scan(ts, |_, row| {
        sum += row[supplier::YTD].as_money().expect("typed").cents();
    });
    sum
}

/// A trivial analytical plan (global `count(*)` over LINEORDER): enough
/// to prove the read path serves while the write path is shedding.
fn count_query() -> QuerySpec {
    QuerySpec {
        id: QueryId::Q1_1,
        fact: TableId::Lineorder,
        fact_filter: Predicate::all(),
        joins: Vec::new(),
        group_by: Vec::new(),
        agg: AggExpr::CountRows,
    }
}

/// Outcome of a chaos scenario's traffic phase.
#[derive(Debug)]
struct Traffic {
    /// Amounts of payments whose commit returned Ok.
    acked: Vec<i64>,
    /// Amounts of every payment attempted (acked or not). A payment that
    /// failed post-install ([`HatError::DurabilityInDoubt`]: the fsync
    /// fault hit after `commit()` installed the versions) may
    /// legitimately be recovered, so ghosts are judged against this set,
    /// not against `acked`.
    attempted: Vec<i64>,
}

/// Drives serial payments, each with a fresh (unique) amount, until
/// `want` of them are acknowledged or a storage fault stops the WAL. The
/// payment the fault hits is committed-in-doubt and is never re-executed
/// verbatim.
fn drive_acked(engine: &ShdEngine, seed: u64, want: usize, start_amount: i64) -> Traffic {
    let mut rng = HatRng::seeded(seed);
    let mut acked = Vec::new();
    let mut attempted = Vec::new();
    let mut amount = start_amount;
    while acked.len() < want && engine.kernel().health() == HealthState::Healthy {
        assert!(attempted.len() < 50_000, "attempt budget exhausted (seed {seed})");
        amount += 1;
        let supp = rng.range_u32(1, NSUPP);
        attempted.push(amount);
        match payment(engine, supp, amount) {
            Ok(()) => acked.push(amount),
            Err(e) => assert!(
                e.is_retryable(),
                "chaos surfaces retryable errors, got {e} (seed {seed})"
            ),
        }
    }
    Traffic { acked, attempted }
}

/// Core durability assertions after reopening the directory.
fn assert_recovered(engine: &ShdEngine, traffic: &Traffic, scenario: &str) {
    let recovered = recovered_amounts(engine);
    for a in &traffic.acked {
        assert!(
            recovered.contains(a),
            "{scenario}: acknowledged payment {a} lost by recovery"
        );
    }
    for r in &recovered {
        assert!(
            traffic.attempted.contains(r),
            "{scenario}: recovery surfaced ghost payment {r}"
        );
    }
    assert_eq!(
        total_ytd(engine),
        recovered.iter().sum::<i64>(),
        "{scenario}: supplier YTD diverged from history (torn payment)"
    );
}

#[test]
fn seeded_fault_plan_degrades_and_recovers_without_losing_acks() {
    for seed in seeds() {
        let dir = wal_dir("seeded", seed);
        let traffic = {
            let engine = open_engine(&dir, DiskFaultPlan::seeded(seed), true);
            // Until the WAL stops, or enough acks to drive every per-class
            // fault clock through every seeded window (they end below op
            // ~300 on their own clock; each acked payment advances both
            // the write clock — its frame — and the sync clock — its
            // group-commit fsync — at least once).
            let traffic = drive_acked(&engine, seed, 320, 100_000);
            let stopped = engine.kernel().health() != HealthState::Healthy;
            let stats = engine.metrics();
            // A window whose single op lands on the wrong I/O class
            // injects nothing; but any observed failure must trace back
            // to an injected fault, and vice versa a fault-free run must
            // have acknowledged every attempt.
            if traffic.attempted.len() > traffic.acked.len() {
                assert!(
                    stats.counter(names::DISK_FAULTS) >= 1,
                    "failures without injected faults (seed {seed})"
                );
            } else if stats.counter(names::DISK_FAULTS) == 0 {
                assert_eq!(
                    traffic.acked.len(),
                    traffic.attempted.len(),
                    "fault-free run acks everything (seed {seed})"
                );
            }
            assert_eq!(
                stats.gauge(names::HEALTH_STATE),
                u64::from(stopped),
                "gauge agrees with the kernel (seed {seed})"
            );
            traffic
        };
        // Reopen with a clean plan: recovery must honor every ack, and
        // the reopened WAL takes writes again.
        let engine = open_engine(&dir, DiskFaultPlan::new(), false);
        assert_recovered(&engine, &traffic, "seeded");
        payment(&engine, 1, 999_999).expect("reopen brings writes back");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fsync_fault_then_crash_loses_no_acked_commits() {
    for seed in seeds() {
        let dir = wal_dir("fsync-crash", seed);
        // The window sits on the sync-class clock, so it voids the
        // fsync at sync-op 30 (+seed skew) directly; 40 serial payments
        // (one group-commit fsync each) would sweep past it, but the
        // first failure stops the WAL.
        let plan = DiskFaultPlan::new().with(DiskFault {
            kind: DiskFaultKind::FsyncFail,
            at_op: 30 + seed % 7,
            for_ops: 4,
        });
        let mut traffic = {
            let engine = open_engine(&dir, plan, true);
            let mut traffic = drive_acked(&engine, seed, 40, 200_000);
            assert!(traffic.acked.len() < 40, "fsync fault stopped the WAL (seed {seed})");
            // A stopped WAL sheds the next commit at admission.
            traffic.attempted.push(250_000);
            let shed = payment(&engine, 1, 250_000).expect_err("stopped WAL sheds");
            assert!(matches!(shed, HatError::Degraded), "got {shed} (seed {seed})");
            let stats = engine.metrics();
            assert!(stats.counter(names::DISK_FAULTS) >= 1, "fsync fault fired (seed {seed})");
            assert!(
                stats.counter(names::WAL_SHED_COMMITS) >= 1,
                "degraded WAL sheds commits (seed {seed})"
            );
            traffic
        };
        // Now the crash: reopen — which is what brings writes back after
        // the fault — arm a kill, and die mid-traffic. Recovery after *both* a storage fault and a
        // process crash must still honor every acknowledgement.
        let traffic = {
            let engine = open_engine(&dir, DiskFaultPlan::new(), false);
            let mut rng = HatRng::seeded(seed ^ 0xDEAD);
            let mut amount = 300_000;
            for _ in 0..6 {
                amount += 1;
                traffic.attempted.push(amount);
                payment(&engine, rng.range_u32(1, NSUPP), amount).unwrap();
                traffic.acked.push(amount);
            }
            engine.kernel().durability.wal().expect("fsync mode").arm_kill(KillPoint::AfterFlush);
            let mut crashed = false;
            for _ in 0..64 {
                amount += 1;
                traffic.attempted.push(amount);
                match payment(&engine, rng.range_u32(1, NSUPP), amount) {
                    Ok(()) => traffic.acked.push(amount),
                    Err(e) => {
                        assert!(matches!(e, HatError::EngineStopped), "got {e}");
                        crashed = true;
                        break;
                    }
                }
            }
            assert!(crashed, "armed kill-point must fire (seed {seed})");
            traffic
        };
        let engine = open_engine(&dir, DiskFaultPlan::new(), false);
        assert_recovered(&engine, &traffic, "fsync-crash");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn persistent_enospc_sheds_writes_but_keeps_serving_reads() {
    for seed in seeds() {
        let dir = wal_dir("enospc", seed);
        let plan = DiskFaultPlan::new().with(DiskFault {
            kind: DiskFaultKind::WriteEnospc,
            at_op: 12,
            for_ops: u64::MAX,
        });
        let engine = open_engine(&dir, plan, true);
        // Drive until the device fills: acks stop, every later attempt
        // is shed with a retryable error, and the loop exits fast (no
        // I/O happens on a shed commit).
        let mut rng = HatRng::seeded(seed);
        let mut acked = Vec::new();
        let mut attempted = Vec::new();
        let mut amount = 400_000i64;
        let mut failures = 0u32;
        for _ in 0..2_000 {
            amount += 1;
            let supp = rng.range_u32(1, NSUPP);
            attempted.push(amount);
            match payment(&engine, supp, amount) {
                Ok(()) => acked.push(amount),
                Err(e) => {
                    assert!(e.is_retryable(), "got {e} (seed {seed})");
                    failures += 1;
                    if failures >= 64 {
                        break;
                    }
                }
            }
        }
        assert!(failures >= 64, "ENOSPC never clears; acks must stop (seed {seed})");
        let traffic = Traffic { acked, attempted };
        assert!(
            engine.kernel().health() != HealthState::Healthy,
            "device-full pins the WAL below Healthy (seed {seed})"
        );
        assert!(
            !engine.kernel().durability.wal().expect("fsync mode").is_crashed(),
            "ENOSPC degrades, never crashes (seed {seed})"
        );
        // Fresh commits are shed with a clean retryable error...
        let err = payment(&engine, 1, 999_999).expect_err("degraded WAL sheds");
        assert!(matches!(err, HatError::Degraded), "got {err}");
        assert!(err.is_retryable());
        // ...while the read side keeps serving: point lookups and a full
        // analytical query both succeed on the degraded engine.
        let mut s = engine.begin();
        assert!(s.lookup_u32(NamedIndex::SupplierPk, 1).unwrap().is_some());
        drop(s);
        engine.query(&count_query(), &QueryOpts::default()).expect("analytics serve while degraded");
        let stats = engine.metrics();
        assert!(stats.counter(names::WAL_SHED_COMMITS) >= 1, "sheds are counted (seed {seed})");
        assert!(stats.gauge(names::HEALTH_STATE) != 0, "gauge shows the degradation (seed {seed})");
        // Clean shutdown while degraded must not wedge or panic.
        let acked = traffic.acked.clone();
        drop(engine);
        // Reopen on pristine I/O: every acked payment is on disk.
        let engine = open_engine(&dir, DiskFaultPlan::new(), false);
        let recovered = recovered_amounts(&engine);
        for a in &acked {
            assert!(recovered.contains(a), "acked {a} lost (seed {seed})");
        }
        assert_recovered(&engine, &traffic, "enospc");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wait_path_failures_are_commit_in_doubt_not_clean_aborts() {
    // The two failure surfaces a storage fault exposes must classify
    // differently. A payment whose versions installed before its fsync
    // failed is committed-in-doubt: already visible to readers, and its
    // frame may or may not survive a reopen — re-executing it verbatim
    // could double-apply. A payment shed at admission by the stopped
    // WAL aborted cleanly: nothing installed, safe to retry blindly. The
    // error types must carry that distinction.
    for seed in seeds() {
        let dir = wal_dir("in-doubt", seed);
        // A one-op fsync window: transient, yet the WAL stays stopped.
        let plan = DiskFaultPlan::new().with(DiskFault {
            kind: DiskFaultKind::FsyncFail,
            at_op: 3,
            for_ops: 1,
        });
        let engine = open_engine(&dir, plan, true);

        // Serial payments until the window voids one durability wait.
        let mut acked = Vec::new();
        let mut attempted = Vec::new();
        let mut amount = 800_000i64;
        let in_doubt_amount = loop {
            amount += 1;
            assert!(amount < 800_100, "fault never fired (seed {seed})");
            attempted.push(amount);
            match payment(&engine, 1, amount) {
                Ok(()) => acked.push(amount),
                Err(e) => {
                    assert!(
                        matches!(e, HatError::DurabilityInDoubt),
                        "wait-path failure misclassified as {e} (seed {seed})"
                    );
                    assert!(e.is_commit_in_doubt() && e.is_retryable());
                    break amount;
                }
            }
        };
        // The stopped WAL sheds a fresh commit at admission: a clean,
        // not-in-doubt abort.
        amount += 1;
        let shed_amount = amount;
        attempted.push(shed_amount);
        let shed = payment(&engine, 1, shed_amount).expect_err("degraded WAL sheds");
        assert!(
            matches!(shed, HatError::Degraded),
            "admission shed misclassified as {shed} (seed {seed})"
        );
        assert!(shed.is_retryable() && !shed.is_commit_in_doubt());
        // The in-doubt payment really did install: it is visible to
        // readers right now, while the shed one is not.
        let live = recovered_amounts(&engine);
        assert!(
            live.contains(&in_doubt_amount),
            "in-doubt payment must stay visible (seed {seed})"
        );
        assert!(
            !live.contains(&shed_amount),
            "shed payment must not install (seed {seed})"
        );
        // After reopen the in-doubt payment may or may not be there
        // (fail-stop cut its frame back with the segment); either way it
        // is whole, which `assert_recovered`'s YTD = Σ history checks.
        let traffic = Traffic { acked, attempted };
        drop(engine);
        let engine = open_engine(&dir, DiskFaultPlan::new(), false);
        let recovered = recovered_amounts(&engine);
        assert!(
            !recovered.contains(&shed_amount),
            "shed payment resurrected by recovery (seed {seed})"
        );
        assert_recovered(&engine, &traffic, "in-doubt");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn write_stalls_slow_commits_without_degrading() {
    for seed in seeds() {
        let dir = wal_dir("stall", seed);
        let plan = DiskFaultPlan::new().with(DiskFault {
            kind: DiskFaultKind::WriteStall(Duration::from_millis(2)),
            at_op: 16,
            for_ops: 8,
        });
        let engine = open_engine(&dir, plan, true);
        // Stalls are not errors: every payment eventually acknowledges
        // and the WAL never stops.
        let mut rng = HatRng::seeded(seed);
        let mut amount = 700_000;
        for _ in 0..30 {
            amount += 1;
            payment(&engine, rng.range_u32(1, NSUPP), amount)
                .expect("stalled writes still acknowledge");
        }
        assert_eq!(engine.kernel().health(), HealthState::Healthy, "seed {seed}");
        let stats = engine.metrics();
        assert!(stats.counter(names::DISK_FAULTS) >= 1, "stalls are counted as faults (seed {seed})");
        assert_eq!(stats.counter(names::WAL_SHED_COMMITS), 0, "no shedding from a slow device (seed {seed})");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
