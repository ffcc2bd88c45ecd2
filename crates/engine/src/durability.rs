//! The kernel's durability layer: what a commit pays between version
//! installation and acknowledgement.
//!
//! [`DurabilityMode`] selects the model. `Off` acknowledges immediately
//! (an in-memory engine). `Sleep` models a WAL flush as a fixed latency —
//! but *coalesced*: concurrent waiters share one simulated flush instead
//! of each sleeping the full latency, matching how group commit amortizes
//! the fsync (PostgreSQL's `commit_delay` batching, §6.3). `Fsync` is the
//! real thing: records go to the on-disk [`DurableWal`] and the commit
//! blocks until its group-commit flusher has fsynced them.

use std::sync::Arc;
use std::time::Duration;

use hat_common::telemetry::Histogram;
use hat_common::Result;
use hat_storage::dwal::{DurableWal, DurableWalStats, HealthState, WalConfig, WalRecovery};
use hat_storage::wal::TableOp;
use hat_txn::Ts;
use parking_lot::{Condvar, Mutex};

/// How commits become durable. Part of
/// [`EngineConfig`](crate::api::EngineConfig).
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityMode {
    /// No durability wait at all: commits acknowledge as soon as they are
    /// installed. Raw in-memory speed; used by tests and ablations.
    Off,
    /// Model the WAL flush as a group-commit coalesced sleep of the given
    /// duration. The benchmark default — it prices durability without
    /// doing I/O, keeping runs reproducible across storage hardware.
    Sleep(Duration),
    /// A real on-disk WAL: checksummed segments, one fsync per batch of
    /// concurrent commits, checkpoints, and crash recovery.
    Fsync(WalConfig),
}

impl DurabilityMode {
    /// Whether commits pay any durability wait at all.
    pub fn is_off(&self) -> bool {
        matches!(self, DurabilityMode::Off)
            || matches!(self, DurabilityMode::Sleep(d) if d.is_zero())
    }
}

/// Group-commit coalescing for `Sleep` mode.
///
/// Waiters gather behind a *leader*: the first waiter of an epoch sleeps
/// the full latency (the simulated flush), then publishes the epoch as
/// durable and wakes everyone who joined while it slept. A commit that
/// arrives mid-flush joins the *next* epoch — exactly the "my record must
/// be covered by a flush that started after my append" rule of a real
/// group commit, so the worst case is two flush durations and the common
/// loaded case is `latency / batch`.
struct SleepGroupCommit {
    latency: Duration,
    state: Mutex<SleepState>,
    cv: Condvar,
    /// Waiters per simulated flush (lock-free; read by `stats`).
    batch_hist: Histogram,
}

#[derive(Default)]
struct SleepState {
    /// Epoch currently being flushed (or about to be).
    epoch: u64,
    /// Highest epoch whose flush completed.
    durable_epoch: u64,
    /// Whether a leader is mid-flush.
    leader_active: bool,
    /// Waiters enrolled in the pending (not yet flushing) epoch.
    enrolled: u64,
    flushes: u64,
}

impl SleepGroupCommit {
    fn new(latency: Duration) -> Self {
        SleepGroupCommit {
            latency,
            state: Mutex::new(SleepState::default()),
            cv: Condvar::new(),
            batch_hist: Histogram::new(),
        }
    }

    /// Waits for the simulated flush covering this commit.
    fn wait(&self) {
        let mut st = self.state.lock();
        // Enroll in the next epoch to start flushing.
        let my_epoch = st.epoch + 1;
        st.enrolled += 1;
        loop {
            if st.durable_epoch >= my_epoch {
                return;
            }
            if !st.leader_active {
                // Become the leader: flush everyone enrolled so far.
                st.leader_active = true;
                st.epoch = my_epoch;
                let batch = st.enrolled;
                st.enrolled = 0;
                drop(st);
                std::thread::sleep(self.latency);
                st = self.state.lock();
                st.durable_epoch = st.epoch;
                st.leader_active = false;
                st.flushes += 1;
                self.batch_hist.record(batch);
                self.cv.notify_all();
                return;
            }
            self.cv.wait(&mut st);
        }
    }

    fn stats(&self) -> DurableWalStats {
        let batches = self.batch_hist.snapshot();
        let flushes = self.state.lock().flushes;
        DurableWalStats {
            fsyncs: flushes,
            group_commit_batches: batches,
            ..DurableWalStats::default()
        }
    }
}

/// The runtime object behind a [`DurabilityMode`], held by the kernel.
pub enum DurabilityLayer {
    Off,
    Sleep(SleepGroupCommitHandle),
    Fsync(Arc<DurableWal>),
}

/// Public wrapper keeping [`SleepGroupCommit`] private.
pub struct SleepGroupCommitHandle(SleepGroupCommit);

impl DurabilityLayer {
    /// Builds the layer; for `Fsync` this opens the WAL directory and
    /// runs recovery, returning what was found for the kernel to replay.
    pub fn open(mode: &DurabilityMode) -> Result<(Self, Option<WalRecovery>)> {
        Ok(match mode {
            DurabilityMode::Off => (DurabilityLayer::Off, None),
            DurabilityMode::Sleep(latency) if latency.is_zero() => {
                (DurabilityLayer::Off, None)
            }
            DurabilityMode::Sleep(latency) => (
                DurabilityLayer::Sleep(SleepGroupCommitHandle(SleepGroupCommit::new(
                    *latency,
                ))),
                None,
            ),
            DurabilityMode::Fsync(config) => {
                let (wal, recovery) = DurableWal::open(config.clone())?;
                (DurabilityLayer::Fsync(wal), Some(recovery))
            }
        })
    }

    /// Logs the commit record. Must run inside the commit critical
    /// section so WAL order equals commit-timestamp order. Returns the
    /// token [`DurabilityLayer::wait`] blocks on.
    pub fn log(&self, commit_ts: Ts, ops: &[TableOp]) -> Result<u64> {
        match self {
            DurabilityLayer::Off | DurabilityLayer::Sleep(_) => Ok(0),
            DurabilityLayer::Fsync(wal) => wal.append(commit_ts, ops),
        }
    }

    /// Blocks until the commit is durable (outside the critical section,
    /// so concurrent commits share the flush). The versions are already
    /// installed by this point, so a storage fault here surfaces as the
    /// commit-in-doubt
    /// [`HatError::DurabilityInDoubt`](hat_common::HatError) — never as
    /// the clean-abort `Degraded` that [`DurabilityLayer::admit`] uses.
    pub fn wait(&self, token: u64) -> Result<()> {
        match self {
            DurabilityLayer::Off => Ok(()),
            DurabilityLayer::Sleep(h) => {
                h.0.wait();
                Ok(())
            }
            DurabilityLayer::Fsync(wal) => wal.wait_durable(token),
        }
    }

    /// The on-disk WAL, when one exists.
    pub fn wal(&self) -> Option<&Arc<DurableWal>> {
        match self {
            DurabilityLayer::Fsync(wal) => Some(wal),
            _ => None,
        }
    }

    /// Admission control for a commit about to install: sheds it with a
    /// retryable [`HatError::Degraded`](hat_common::HatError) when a
    /// storage fault stopped the WAL or its backlog is full. Modes without
    /// a real WAL admit everything.
    pub fn admit(&self) -> hat_common::Result<()> {
        match self {
            DurabilityLayer::Fsync(wal) => wal.admit(),
            _ => Ok(()),
        }
    }

    /// Whether the WAL still takes writes (`Healthy` without a WAL).
    pub fn health(&self) -> HealthState {
        match self {
            DurabilityLayer::Fsync(wal) => wal.health(),
            _ => HealthState::Healthy,
        }
    }

    /// Durability counters (zeroes for `Off`).
    pub fn stats(&self) -> DurableWalStats {
        match self {
            DurabilityLayer::Off => DurableWalStats::default(),
            DurabilityLayer::Sleep(h) => h.0.stats(),
            DurabilityLayer::Fsync(wal) => wal.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    #[test]
    fn sleep_mode_coalesces_concurrent_waiters() {
        // 8 threads x 4 commits at 2ms latency: uncoalesced that is
        // 8*4*2 = 64ms of serial sleeping per thread-line; coalesced,
        // threads share flushes so wall time is ~4 * (2..4ms) per thread.
        let gc = Arc::new(SleepGroupCommit::new(Duration::from_millis(2)));
        let started = Instant::now();
        let waits = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let waits = Arc::clone(&waits);
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        gc.wait();
                        waits.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(waits.load(Ordering::Relaxed), 32);
        let stats = gc.stats();
        assert!(
            stats.fsyncs < 32,
            "32 commits must share flushes (got {} flushes)",
            stats.fsyncs
        );
        // Worst case per wait is two flush durations; with 4 waits per
        // thread that bounds wall time well below serial sleeping.
        assert!(
            started.elapsed() < Duration::from_millis(64),
            "coalescing failed: took {:?}",
            started.elapsed()
        );
        let batches = &stats.group_commit_batches;
        assert!(batches.quantile(0.99) >= batches.quantile(0.50));
    }

    #[test]
    fn single_waiter_pays_one_latency() {
        let gc = SleepGroupCommit::new(Duration::from_millis(1));
        let started = Instant::now();
        gc.wait();
        let elapsed = started.elapsed();
        assert!(elapsed >= Duration::from_millis(1));
        assert_eq!(gc.stats().fsyncs, 1);
        assert_eq!(gc.stats().group_commit_batches.quantile(0.50), 1);
    }

    #[test]
    fn off_detection() {
        assert!(DurabilityMode::Off.is_off());
        assert!(DurabilityMode::Sleep(Duration::ZERO).is_off());
        assert!(!DurabilityMode::Sleep(Duration::from_micros(100)).is_off());
        let (layer, rec) = DurabilityLayer::open(&DurabilityMode::Off).unwrap();
        assert!(rec.is_none());
        assert!(matches!(layer, DurabilityLayer::Off));
        // Zero-latency sleep degrades to Off (no leader machinery).
        let (layer, _) =
            DurabilityLayer::open(&DurabilityMode::Sleep(Duration::ZERO)).unwrap();
        assert!(matches!(layer, DurabilityLayer::Off));
    }
}
