//! Deterministic crash-recovery harness for the durable WAL (`dwal`)
//! wired through the shared engine.
//!
//! Each scenario drives explicit payment transactions (supplier `S_YTD +=
//! amount`, one HISTORY row per payment, every amount unique) against a
//! `ShdEngine` in `DurabilityMode::Fsync`, injects a crash at a chosen
//! kill-point (or tampers with the segment files directly), reopens the
//! WAL directory, and checks the three durability invariants:
//!
//! 1. **No lost acknowledged commit** — every payment whose `commit()`
//!    returned `Ok` is present after recovery.
//! 2. **No ghost commit** — everything present after recovery was
//!    actually attempted (recovery invents nothing).
//! 3. **Atomicity across recovery** — the sum of supplier YTD deltas
//!    equals the sum of recovered HISTORY amounts (a torn replay of half
//!    a payment would break the equality).
//!
//! Scenarios are seed-parameterized; `HAT_CRASH_SEED=<n>` pins a single
//! seed (the CI matrix fans out over seeds this way). WAL directories
//! live under `target/crash-recovery/` and are kept on failure so the
//! failing seed's evidence can be archived.

use std::path::{Path, PathBuf};

use hattrick_repro::common::ids::{history, lineorder, supplier, TableId};
use hattrick_repro::common::rng::HatRng;
use hattrick_repro::common::telemetry::names;
use hattrick_repro::common::value::{row_from, row_with};
use hattrick_repro::common::{HatError, Money, Row, Value};
use hattrick_repro::engine::{
    DurabilityMode, EngineConfig, HtapEngine, KillPoint, NamedIndex, ShdEngine,
    WalConfig,
};

const NSUPP: u32 = 8;

/// Seeds to run each scenario under. `HAT_CRASH_SEED` pins one (CI runs a
/// matrix over it); the default trio keeps local runs fast but varied.
fn seeds() -> Vec<u64> {
    match std::env::var("HAT_CRASH_SEED") {
        Ok(s) => vec![s.parse().expect("HAT_CRASH_SEED must be an integer")],
        Err(_) => vec![0xA1, 0xB7, 0xC3],
    }
}

/// A fresh WAL directory under `target/` (predictable path for CI
/// artifact collection). Leftovers from a previous run are removed.
fn wal_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("crash-recovery")
        .join(format!("{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fsync_config(dir: &Path) -> EngineConfig {
    EngineConfig::builder()
        .durability(DurabilityMode::Fsync(WalConfig {
            // Small segments so scenarios cross rotation boundaries.
            segment_bytes: 4096,
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

/// Opens (or recovers) an engine on `dir` and loads the base suppliers on
/// a fresh directory. `finish_load` checkpoints, making the base data
/// durable without logging it.
fn open_engine(dir: &Path, fresh: bool) -> ShdEngine {
    let engine = ShdEngine::try_new(fsync_config(dir)).expect("open engine");
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
    s.commit().map(|_| ())
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

/// Outcome of a crash scenario's traffic phase.
struct Traffic {
    /// Amounts of payments whose commit returned Ok.
    acked: Vec<i64>,
    /// Amounts of every payment attempted (acked or not).
    attempted: Vec<i64>,
}

/// Runs `pre` acknowledged payments, arms `kill`, then keeps paying until
/// the WAL crash surfaces (bounded). Unique amounts index the attempts.
fn drive_until_crash(engine: &ShdEngine, seed: u64, kill: KillPoint) -> Traffic {
    let mut rng = HatRng::seeded(seed);
    let mut acked = Vec::new();
    let mut attempted = Vec::new();
    let mut amount = 10_000 + (seed as i64 % 97) * 1_000;
    let pre = 8 + (seed % 5) as usize;
    for _ in 0..pre {
        amount += 1;
        let supp = rng.range_u32(1, NSUPP);
        attempted.push(amount);
        payment(engine, supp, amount).expect("pre-kill payments are acknowledged");
        acked.push(amount);
    }
    engine
        .kernel()
        .durability
        .wal()
        .expect("fsync mode")
        .arm_kill(kill);
    let mut crashed = false;
    for _ in 0..64 {
        amount += 1;
        let supp = rng.range_u32(1, NSUPP);
        attempted.push(amount);
        match payment(engine, supp, amount) {
            Ok(()) => acked.push(amount),
            Err(e) => {
                assert!(
                    matches!(e, HatError::EngineStopped),
                    "crash surfaces as EngineStopped, got {e}"
                );
                crashed = true;
                break;
            }
        }
    }
    assert!(crashed, "armed kill-point must fire within the attempt budget");
    assert!(
        engine.kernel().durability.wal().unwrap().is_crashed(),
        "WAL records the crash"
    );
    Traffic { acked, attempted }
}

/// Core assertions after reopening the directory. `min_replay` is the
/// smallest acceptable WAL replay count — the full acked set when no
/// checkpoint ran after load, less when one bounded the tail.
fn assert_recovered(engine: &ShdEngine, traffic: &Traffic, scenario: &str, min_replay: u64) {
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
    let stats = engine.metrics();
    assert!(
        stats.counter(names::WAL_RECOVERY_REPLAYED) >= min_replay,
        "{scenario}: replay count {} below expected {min_replay}",
        stats.counter(names::WAL_RECOVERY_REPLAYED),
    );
}

/// Last WAL segment file in `dir` (highest first-LSN).
fn last_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "seg")
                && std::fs::metadata(p).is_ok_and(|m| m.len() > 16)
        })
        .collect();
    segs.sort();
    segs.pop().expect("at least one non-empty segment")
}

#[test]
fn kill_before_flush_loses_only_unacknowledged_commits() {
    for seed in seeds() {
        let dir = wal_dir("before-flush", seed);
        let traffic = {
            let engine = open_engine(&dir, true);
            drive_until_crash(&engine, seed, KillPoint::BeforeFlush)
        };
        let engine = open_engine(&dir, false);
        assert_recovered(&engine, &traffic, "before-flush", traffic.acked.len() as u64);
        // The crashing payment was never acknowledged, so recovery may
        // legitimately drop it — but everything acked must be exact.
        assert_eq!(
            recovered_amounts(&engine),
            {
                let mut v = traffic.acked.clone();
                v.sort_unstable();
                v
            },
            "BeforeFlush discards exactly the unflushed batch (seed {seed})"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_after_flush_preserves_every_acknowledged_commit() {
    for seed in seeds() {
        let dir = wal_dir("after-flush", seed);
        let traffic = {
            let engine = open_engine(&dir, true);
            drive_until_crash(&engine, seed, KillPoint::AfterFlush)
        };
        let engine = open_engine(&dir, false);
        assert_recovered(&engine, &traffic, "after-flush", traffic.acked.len() as u64);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_tail_after_torn_flush_is_truncated_and_counted() {
    for seed in seeds() {
        let dir = wal_dir("torn", seed);
        let traffic = {
            let engine = open_engine(&dir, true);
            drive_until_crash(&engine, seed, KillPoint::TornFlush)
        };
        // TornFlush wrote the final batch without fsync; shear the last
        // segment mid-frame to model the torn sector a real power cut
        // leaves behind.
        let seg = last_segment(&dir);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let engine = open_engine(&dir, false);
        assert_recovered(&engine, &traffic, "torn-tail", traffic.acked.len() as u64);
        assert!(
            engine.metrics().counter(names::WAL_TORN_TAILS) >= 1,
            "the sheared record is truncated and counted (seed {seed})"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bit_flip_in_sealed_record_fails_with_checksum_mismatch() {
    for seed in seeds() {
        let dir = wal_dir("bitflip", seed);
        {
            // Clean run, clean shutdown: all records complete and fsynced.
            let engine = open_engine(&dir, true);
            let mut rng = HatRng::seeded(seed);
            for i in 0..12i64 {
                payment(&engine, rng.range_u32(1, NSUPP), 20_000 + i).unwrap();
            }
        }
        // Silent corruption: flip one bit inside the last record's payload.
        let seg = last_segment(&dir);
        let mut bytes = std::fs::read(&seg).unwrap();
        let idx = bytes.len() - 2;
        bytes[idx] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();

        let err = match ShdEngine::try_new(fsync_config(&dir)) {
            Ok(_) => panic!("corruption must be detected (seed {seed})"),
            Err(e) => e,
        };
        assert!(
            matches!(err, HatError::ChecksumMismatch { .. }),
            "bit flip must be a checksum mismatch, got {err} (seed {seed})"
        );
        assert!(!err.is_retryable(), "corruption needs an operator, not a retry");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn mid_checkpoint_kill_leaves_recovery_on_the_wal_tail() {
    for seed in seeds() {
        let dir = wal_dir("mid-ckpt", seed);
        let traffic = {
            let engine = open_engine(&dir, true);
            let mut rng = HatRng::seeded(seed);
            let mut acked = Vec::new();
            let mut amount = 30_000 + (seed as i64 % 89);
            for _ in 0..10 {
                amount += 1;
                payment(&engine, rng.range_u32(1, NSUPP), amount).unwrap();
                acked.push(amount);
            }
            let wal = engine.kernel().durability.wal().unwrap();
            wal.arm_kill(KillPoint::MidCheckpoint);
            let err = engine.checkpoint().expect_err("checkpoint dies mid-write");
            assert!(matches!(err, HatError::EngineStopped), "got {err}");
            Traffic { attempted: acked.clone(), acked }
        };
        // The half-written checkpoint must be invisible: recovery replays
        // the full WAL tail from the load-time checkpoint instead.
        let engine = open_engine(&dir, false);
        assert_recovered(&engine, &traffic, "mid-checkpoint", traffic.acked.len() as u64);
        assert_eq!(
            recovered_amounts(&engine).len(),
            traffic.acked.len(),
            "every acked payment replayed (seed {seed})"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_is_idempotent_across_reopens() {
    for seed in seeds() {
        let dir = wal_dir("reopen", seed);
        let traffic = {
            let engine = open_engine(&dir, true);
            drive_until_crash(&engine, seed, KillPoint::AfterFlush)
        };
        let first = {
            let engine = open_engine(&dir, false);
            assert_recovered(&engine, &traffic, "reopen-1", traffic.acked.len() as u64);
            (recovered_amounts(&engine), total_ytd(&engine))
        };
        // Reopening again (clean shutdown in between) reaches the exact
        // same state: recovery neither re-applies nor drops anything.
        let engine = open_engine(&dir, false);
        assert_eq!(first.0, recovered_amounts(&engine), "seed {seed}");
        assert_eq!(first.1, total_ytd(&engine), "seed {seed}");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn periodic_checkpoints_bound_replay_and_prune_segments() {
    for seed in seeds() {
        let dir = wal_dir("periodic", seed);
        let traffic = {
            let engine = open_engine(&dir, true);
            let mut rng = HatRng::seeded(seed);
            let mut acked = Vec::new();
            let mut amount = 40_000 + (seed as i64 % 83);
            for _ in 0..30 {
                amount += 1;
                payment(&engine, rng.range_u32(1, NSUPP), amount).unwrap();
                acked.push(amount);
            }
            // Manual checkpoint mid-stream, then more traffic.
            engine.checkpoint().unwrap();
            for _ in 0..10 {
                amount += 1;
                payment(&engine, rng.range_u32(1, NSUPP), amount).unwrap();
                acked.push(amount);
            }
            Traffic { attempted: acked.clone(), acked }
        };
        let engine = open_engine(&dir, false);
        assert_recovered(&engine, &traffic, "periodic", 1);
        // Replay skipped the checkpointed prefix: well under the full 40.
        let stats = engine.metrics();
        assert!(
            stats.counter(names::WAL_RECOVERY_REPLAYED) <= 10,
            "checkpoint bounds replay to the tail, replayed {} (seed {seed})",
            stats.counter(names::WAL_RECOVERY_REPLAYED)
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn reopen_after_reset_recovers_the_live_rows() {
    // A benchmark reset truncates HISTORY back to its loaded size, so the
    // payments after it reuse the rids of the payments before it. The
    // reset itself is not logged: unless it checkpoints the post-reset
    // image, replay inserts the reused rids twice and recovery fails.
    for seed in seeds() {
        let dir = wal_dir("reset", seed);
        let mut rng = HatRng::seeded(seed);
        let live = {
            let engine = open_engine(&dir, true);
            for i in 0..6 {
                payment(&engine, rng.range_u32(1, NSUPP), 50_000 + i).unwrap();
            }
            engine.reset().unwrap();
            assert!(recovered_amounts(&engine).is_empty(), "reset drops the payments");
            for i in 0..4 {
                payment(&engine, rng.range_u32(1, NSUPP), 60_000 + i).unwrap();
            }
            (recovered_amounts(&engine), total_ytd(&engine))
        };
        let engine = ShdEngine::try_new(fsync_config(&dir))
            .unwrap_or_else(|e| panic!("reopen after reset failed: {e} (seed {seed})"));
        assert_eq!((recovered_amounts(&engine), total_ytd(&engine)), live, "seed {seed}");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A LINEORDER row of customer `custkey`.
fn lineorder_row(orderkey: u64, custkey: u32) -> Row {
    let mut cols: Vec<Value> = (0..lineorder::WIDTH).map(|_| Value::U32(1)).collect();
    cols[lineorder::ORDERKEY] = Value::U64(orderkey);
    cols[lineorder::CUSTKEY] = Value::U32(custkey);
    cols[lineorder::ORDERDATE] = Value::U32(19940101);
    row_from(cols)
}

#[test]
fn count_orders_after_reopen_matches_the_count_before_the_crash() {
    // Count Orders reads each lineorder index entry's insert timestamp.
    // After a reopen those come from the checkpoint image (rows loaded
    // and rows committed before the mid-stream checkpoint) and from the
    // WAL tail (rows committed after it); a wrong stamp hides a row from
    // its customer's count.
    const NCUST: u32 = 5;
    fn order_batch(
        engine: &ShdEngine,
        rng: &mut HatRng,
        next: &mut u64,
        n: u64,
    ) -> Result<(), HatError> {
        let mut s = engine.begin();
        for _ in 0..n {
            *next += 1;
            s.insert(TableId::Lineorder, lineorder_row(*next, rng.range_u32(1, NCUST)))?;
        }
        s.commit().map(|_| ())
    }
    fn counts(engine: &ShdEngine) -> Vec<u64> {
        let mut s = engine.begin();
        let counts = (1..=NCUST).map(|c| s.count_orders(c).unwrap()).collect();
        s.abort();
        counts
    }
    for seed in seeds() {
        let dir = wal_dir("count-orders", seed);
        let mut rng = HatRng::seeded(seed);
        let mut next = 0;
        let before = {
            let engine = ShdEngine::try_new(fsync_config(&dir)).expect("open engine");
            let loaded: Vec<Row> =
                (0..8).map(|i| lineorder_row(1_000 + i, rng.range_u32(1, NCUST))).collect();
            engine.load(TableId::Lineorder, &mut loaded.into_iter()).unwrap();
            engine.finish_load().unwrap();
            for _ in 0..4 {
                order_batch(&engine, &mut rng, &mut next, 3).unwrap();
            }
            engine.checkpoint().unwrap();
            for _ in 0..4 {
                order_batch(&engine, &mut rng, &mut next, 3).unwrap();
            }
            let before = counts(&engine);
            assert_eq!(before.iter().sum::<u64>(), 8 + 24, "seed {seed}");
            // The crashing batch is never flushed, so recovery drops it.
            let wal = engine.kernel().durability.wal().expect("fsync mode");
            wal.arm_kill(KillPoint::BeforeFlush);
            let err = order_batch(&engine, &mut rng, &mut next, 3).expect_err("kill fires");
            assert!(matches!(err, HatError::EngineStopped), "got {err}");
            before
        };
        let engine = ShdEngine::try_new(fsync_config(&dir)).expect("reopen");
        assert_eq!(counts(&engine), before, "seed {seed}");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
