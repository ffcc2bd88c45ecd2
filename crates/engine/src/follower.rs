//! The log follower shared by the isolated standby and the columnar
//! learner.
//!
//! Both designs keep a second copy current by consuming a totally ordered
//! commit log on a background thread. The follower owns everything they
//! have in common: the log itself — one queue of the records not yet
//! applied — catch-up versus throttled replay, the applied LSN / backlog
//! / watermark bookkeeping, and crash / restart / quiesce. A design
//! passes in a [`Replay`]: its throttle and its apply step.
//!
//! # Retention and rejoin
//!
//! A live follower never loses a record: the queue grows with its lag. A
//! crashed one keeps at most `wal_retention` records (the in-memory
//! analogue of `wal_keep_size` / a Raft log's unsnapshotted suffix),
//! oldest dropped first. A restart resumes at the front of the queue; if
//! records after the last applied one were dropped, it fails with
//! [`HatError::WalTruncated`] and the copy needs a full resync instead.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hat_common::clock::BenchClock;
use hat_common::{HatError, Result};
use hat_storage::wal::{LogRecord, Lsn, TableOp};
use hat_txn::{Ts, Watermark, LOAD_TS};
use parking_lot::{Condvar, Mutex};

use crate::design::{Background, Stop, Task};

/// How long a follower blocks on an empty log, or on a partitioned link,
/// before it re-checks its stop flag.
pub const POLL: Duration = Duration::from_millis(5);

/// Records a crashed follower keeps for catch-up by default.
pub const DEFAULT_RETENTION: usize = 65_536;

/// What a follower does with each shipped record.
pub trait Replay: Send + Sync + 'static {
    /// Pays the simulated cost of one live record. Catch-up and quiesce
    /// drains skip it. Returns `false` if the follower was stopped first:
    /// the record then stays unapplied and a restart replays it.
    fn throttle(&self, record: &LogRecord, pace: &Pace<'_>) -> bool;

    /// Applies one record to the follower's copy.
    fn apply(&self, record: &LogRecord);

    /// Runs once the applied watermark has passed `commit_ts`.
    fn after_advance(&self, _commit_ts: Ts) {}
}

/// A throttle's view of its follower's control flags.
pub struct Pace<'a> {
    stop: &'a Stop,
    fast_drain: &'a AtomicBool,
}

impl Pace<'_> {
    /// The follower is crashing or the engine is dropping.
    pub fn stopped(&self) -> bool {
        self.stop.is_set()
    }

    /// A quiesce is draining the backlog: skip the remaining waits.
    pub fn draining(&self) -> bool {
        self.fast_drain.load(Ordering::Acquire)
    }
}

/// The log, guarded by one lock.
struct Log {
    /// Records not yet applied, oldest first; contiguous LSNs.
    queue: VecDeque<Arc<LogRecord>>,
    /// LSN the next record receives.
    next_lsn: Lsn,
    /// Highest commit timestamp with a log record. Timestamps *without*
    /// records exist (serializable validation failures burn one), so
    /// waiting for the follower must target this, not the read horizon.
    last_ts: Ts,
    /// Highest LSN applied. Survives a crash, so a restart resumes right
    /// after it without losing or double-applying records.
    applied_lsn: Lsn,
    /// The replay thread waits on an empty queue and needs a wake-up.
    parked: bool,
}

/// A log plus the thread that replays it into a second copy.
pub struct Follower<R: Replay> {
    /// Thread name of each incarnation.
    name: &'static str,
    /// Bound on the queue while the follower is down.
    retention: usize,
    log: Mutex<Log>,
    /// Signals a record to a parked replay thread.
    wake: Condvar,
    /// The copy the log replays into, with its throttle.
    pub target: R,
    /// Applied horizon of the copy.
    pub applied: Watermark,
    /// The follower is crashed: no thread is consuming the log, so it
    /// may drop records past `retention`.
    down: AtomicBool,
    /// When set, the thread skips its simulated costs — used by quiesce
    /// to drain the backlog at memory speed (catch-up recovery runs
    /// unthrottled in real systems too; only the measured benchmark
    /// phases model apply cost).
    fast_drain: AtomicBool,
    /// The running incarnation, if any.
    task: Mutex<Option<Arc<Task>>>,
}

impl<R: Replay> Follower<R> {
    /// A follower over an empty log that keeps `wal_retention` records
    /// for catch-up while it is down. Its thread starts at
    /// [`Follower::start`].
    pub fn new(name: &'static str, wal_retention: usize, target: R) -> Self {
        Follower {
            name,
            retention: wal_retention,
            log: Mutex::new(Log {
                queue: VecDeque::new(),
                next_lsn: 1,
                last_ts: LOAD_TS,
                applied_lsn: 0,
                parked: false,
            }),
            wake: Condvar::new(),
            target,
            applied: Watermark::new(LOAD_TS),
            down: AtomicBool::new(false),
            fast_drain: AtomicBool::new(false),
            task: Mutex::new(None),
        }
    }

    /// Logs one commit. Called from the commit hook inside the commit
    /// critical section, so LSNs and `last_logged` follow commit order.
    pub fn log(&self, ts: Ts, ops: &[TableOp]) {
        let ops = ops.to_vec();
        let sent_at = BenchClock::global().now();
        let mut log = self.log.lock();
        let lsn = log.next_lsn;
        log.next_lsn += 1;
        log.last_ts = ts;
        log.queue.push_back(Arc::new(LogRecord { lsn, commit_ts: ts, sent_at, ops }));
        if self.is_down() {
            while log.queue.len() > self.retention {
                log.queue.pop_front();
            }
        }
        // Only a thread parked on an empty queue needs the futex wake.
        let wake = std::mem::take(&mut log.parked);
        drop(log);
        if wake {
            self.wake.notify_one();
        }
    }

    /// Records logged but not yet applied.
    pub fn backlog(&self) -> u64 {
        let log = self.log.lock();
        log.next_lsn - 1 - log.applied_lsn
    }

    /// Highest commit timestamp with a log record.
    pub fn last_logged(&self) -> Ts {
        self.log.lock().last_ts
    }

    /// Whether the follower is crashed.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Starts an incarnation at the front of the queue: the record right
    /// after the last applied one. Records logged before this call are
    /// catch-up work, applied at memory speed like recovery replay; later
    /// records are throttled.
    pub fn start(self: &Arc<Self>, background: &Background) -> Result<()> {
        let catchup_end = {
            let log = self.log.lock();
            let oldest = log.queue.front().map_or(log.next_lsn, |r| r.lsn);
            let requested = log.applied_lsn + 1;
            if requested < oldest {
                return Err(HatError::WalTruncated { requested, oldest });
            }
            // Under the lock: no record is dropped after the check.
            self.down.store(false, Ordering::Release);
            log.next_lsn - 1
        };
        let me = Arc::clone(self);
        let task = background.spawn(self.name, move |stop| me.run(catchup_end, stop));
        *self.task.lock() = Some(task);
        Ok(())
    }

    /// Kills the follower thread. The copy and the applied LSN survive
    /// (crash, not wipeout). Idempotent.
    pub fn crash(&self) {
        let task = self.task.lock().take();
        if let Some(task) = task {
            task.stop();
            self.down.store(true, Ordering::Release);
        }
    }

    /// Restarts a crashed follower: catches up on the retained log at
    /// memory speed, then resumes throttled replay. Fails with
    /// `HatError::WalTruncated` if records were dropped while it was
    /// down. A no-op while the follower is up.
    pub fn restart(self: &Arc<Self>, background: &Background) -> Result<()> {
        if !self.is_down() {
            return Ok(());
        }
        self.start(background)
    }

    /// Blocks until everything logged so far is applied, draining at
    /// full speed (harness hygiene, not a measured phase). The follower
    /// must be up.
    pub fn quiesce(&self) {
        debug_assert!(!self.is_down(), "quiesce requires a live follower");
        self.fast_drain.store(true, Ordering::Release);
        self.applied.wait_for(self.last_logged());
        self.fast_drain.store(false, Ordering::Release);
    }

    /// Recovers a crashed follower and drains it (reset's first step).
    pub fn drain(self: &Arc<Self>, background: &Background) -> Result<()> {
        self.restart(background)?;
        self.quiesce();
        Ok(())
    }

    /// The oldest unapplied record, left in the queue; `None` once
    /// stopped.
    fn front(&self, stop: &Stop) -> Option<Arc<LogRecord>> {
        let mut log = self.log.lock();
        while !stop.is_set() {
            if let Some(record) = log.queue.front() {
                return Some(Arc::clone(record));
            }
            log.parked = true;
            self.wake.wait_for(&mut log, POLL);
            log.parked = false;
        }
        None
    }

    fn run(&self, catchup_end: Lsn, stop: &Stop) {
        let pace = Pace { stop, fast_drain: &self.fast_drain };
        while let Some(record) = self.front(stop) {
            let live = record.lsn > catchup_end && !pace.draining();
            if live && !self.target.throttle(&record, &pace) {
                // Unapplied: it stays at the front for a restart.
                break;
            }
            self.target.apply(&record);
            // Pop before advancing: quiesce/reset observe a zero backlog
            // only after the watermark they waited on.
            {
                let mut log = self.log.lock();
                log.queue.pop_front();
                log.applied_lsn = record.lsn;
            }
            self.applied.advance(record.commit_ts);
            self.target.after_advance(record.commit_ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies a record by noting its LSN.
    #[derive(Default)]
    struct Collect(Mutex<Vec<Lsn>>);

    impl Replay for Collect {
        fn throttle(&self, _record: &LogRecord, _pace: &Pace<'_>) -> bool {
            true
        }

        fn apply(&self, record: &LogRecord) {
            self.0.lock().push(record.lsn);
        }
    }

    /// Logs `n` empty commits at consecutive timestamps.
    fn log(follower: &Follower<Collect>, n: u64) {
        for _ in 0..n {
            let ts = follower.last_logged() + 1;
            follower.log(ts, &[]);
        }
    }

    #[test]
    fn retention_bounds_only_a_crashed_follower_at_its_exact_edge() {
        // Retention 4: a follower that misses exactly 4 records while down
        // catches up on all of them; one that misses 5 needs a resync.
        for missed in [4, 5] {
            let background = Background::default();
            let follower = Arc::new(Follower::new("follower-test", 4, Collect::default()));
            // Logged before the first start: applied as catch-up, never
            // trimmed (the follower is not down).
            log(&follower, 6);
            follower.start(&background).unwrap();
            follower.quiesce();
            follower.crash();
            log(&follower, missed);
            assert_eq!(follower.backlog(), missed, "dropped records still count as unapplied");
            match follower.restart(&background) {
                Ok(()) => {
                    assert_eq!(missed, 4);
                    follower.quiesce();
                    assert_eq!(*follower.target.0.lock(), (1..=10).collect::<Vec<_>>());
                    assert_eq!(follower.backlog(), 0);
                }
                Err(err) => {
                    assert_eq!(missed, 5);
                    assert_eq!(err, HatError::WalTruncated { requested: 7, oldest: 8 });
                    assert!(follower.is_down(), "a failed restart leaves the follower down");
                }
            }
        }
    }
}
