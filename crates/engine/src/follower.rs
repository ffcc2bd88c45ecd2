//! The log follower shared by the isolated standby and the columnar
//! learner.
//!
//! Both designs keep a second copy current by consuming a totally ordered
//! commit log on a background thread. The follower owns everything they
//! have in common: the log itself, the subscription at `applied_lsn + 1`,
//! catch-up versus throttled replay, the applied LSN / backlog /
//! watermark bookkeeping, and crash / restart / quiesce. A design passes
//! in a [`Replay`]: its throttle and its apply step.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError};
use hat_common::Result;
use hat_storage::wal::{LogRecord, Lsn, TableOp, Wal};
use hat_txn::{Ts, Watermark, LOAD_TS};
use parking_lot::Mutex;

use crate::design::{Background, Stop, Task};

/// How long a follower blocks on an empty log, or on a partitioned link,
/// before it re-checks its stop flag.
pub const POLL: Duration = Duration::from_millis(5);

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

/// A log plus the thread that replays it into a second copy.
pub struct Follower<R: Replay> {
    /// Thread name of each incarnation.
    name: &'static str,
    wal: Wal,
    /// The copy the log replays into, with its throttle.
    pub target: R,
    /// Applied horizon of the copy.
    pub applied: Watermark,
    /// Records logged but not yet applied.
    backlog: AtomicU64,
    /// Highest commit timestamp with a log record. Timestamps *without*
    /// records exist (serializable validation failures burn one), so
    /// waiting for the follower must target this, not the read horizon.
    last_logged: AtomicU64,
    /// Highest LSN applied. Survives a crash, so a restart can rejoin the
    /// log at `applied_lsn + 1` without losing or double-applying records.
    applied_lsn: AtomicU64,
    /// The follower is crashed: no thread is consuming the log.
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
    /// A follower over a fresh log retaining `wal_retention` records for
    /// catch-up. Its thread starts at [`Follower::start`].
    pub fn new(name: &'static str, wal_retention: usize, target: R) -> Self {
        Follower {
            name,
            wal: Wal::with_retention(wal_retention),
            target,
            applied: Watermark::new(LOAD_TS),
            backlog: AtomicU64::new(0),
            last_logged: AtomicU64::new(LOAD_TS),
            applied_lsn: AtomicU64::new(0),
            down: AtomicBool::new(false),
            fast_drain: AtomicBool::new(false),
            task: Mutex::new(None),
        }
    }

    /// Logs one commit. Called from the commit hook inside the commit
    /// critical section, so `last_logged` is monotonic.
    pub fn log(&self, ts: Ts, ops: &[TableOp]) {
        self.backlog.fetch_add(1, Ordering::Relaxed);
        self.last_logged.store(ts, Ordering::Release);
        self.wal.append(ts, ops.to_vec());
    }

    /// Records logged but not yet applied.
    pub fn backlog(&self) -> u64 {
        self.backlog.load(Ordering::Relaxed)
    }

    /// Highest commit timestamp with a log record.
    pub fn last_logged(&self) -> Ts {
        self.last_logged.load(Ordering::Acquire)
    }

    /// Whether the follower is crashed.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Starts the first incarnation (after load).
    pub fn start(self: &Arc<Self>, background: &Background) -> Result<()> {
        // Rejoin exactly after the last applied record: the retention ring
        // replays everything logged since, atomically with registration,
        // so no record is lost or doubled.
        let rx = self.wal.subscribe_from(self.applied_lsn.load(Ordering::Acquire) + 1)?;
        // Records logged before this start are catch-up work, applied at
        // memory speed like recovery replay. Later records are throttled.
        let catchup_end = self.wal.appended();
        let me = Arc::clone(self);
        let task = background.spawn(self.name, move |stop| me.run(&rx, catchup_end, stop));
        *self.task.lock() = Some(task);
        Ok(())
    }

    /// Kills the follower thread. The copy and the applied LSN survive
    /// (crash, not wipeout). Idempotent.
    pub fn crash(&self) {
        let task = self.task.lock().take();
        if let Some(task) = task {
            self.down.store(true, Ordering::Release);
            task.stop();
        }
    }

    /// Restarts a crashed follower: catches up on the retained log at
    /// memory speed, then resumes throttled replay. Fails with
    /// `HatError::WalTruncated` if the follower fell behind the retention
    /// ring. A no-op while the follower is up.
    pub fn restart(self: &Arc<Self>, background: &Background) -> Result<()> {
        if !self.is_down() {
            return Ok(());
        }
        self.start(background)?;
        self.down.store(false, Ordering::Release);
        Ok(())
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

    fn run(&self, rx: &Receiver<Arc<LogRecord>>, catchup_end: Lsn, stop: &Stop) {
        let pace = Pace { stop, fast_drain: &self.fast_drain };
        while !stop.is_set() {
            let record = match rx.recv_timeout(POLL) {
                Ok(record) => record,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let live = record.lsn > catchup_end && !pace.draining();
            if live && !self.target.throttle(&record, &pace) {
                // Unapplied: applied_lsn still points before this record,
                // so a restart's subscription replays it.
                break;
            }
            self.target.apply(&record);
            self.applied_lsn.store(record.lsn, Ordering::Release);
            // Decrement before advancing: quiesce/reset observe a zero
            // backlog only after the watermark they waited on.
            self.backlog.fetch_sub(1, Ordering::Relaxed);
            self.applied.advance(record.commit_ts);
            self.target.after_advance(record.commit_ts);
        }
    }
}
