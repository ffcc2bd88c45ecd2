//! Logical timestamps and the commit-installation protocol.
//!
//! Versions in the MVCC row store are stamped with a *commit timestamp*
//! drawn from a global counter. A reader's snapshot is the highest timestamp
//! whose transaction is fully installed; because installation happens inside
//! a short critical section ([`TsOracle::begin_commit`]), the visible prefix
//! of commit timestamps is always contiguous and a snapshot can never
//! observe half of a transaction.
//!
//! This mirrors the commit serialization points of real systems (PostgreSQL
//! advances its visibility horizon under `ProcArrayLock`; Hekaton finalizes
//! versions through an atomic commit-record step). The kernel runs every
//! commit of every engine through one `TsOracle`, so the same mutex also
//! orders what the kernel does inside it: commit hooks see `on_install` in
//! timestamp order and the WAL's append order is timestamp order. The
//! critical section only covers validation, version *installation* (a
//! handful of pointer writes) and those appends, not transaction logic,
//! so it is short — but it is a genuine shared resource that contributes
//! to the T-vs-T interference the benchmark measures.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

/// A logical timestamp. `0` is reserved for "before any transaction"; the
/// initial bulk load commits at timestamp `1`.
pub type Ts = u64;

/// Timestamp reserved for initially loaded data.
pub const LOAD_TS: Ts = 1;

/// Allocates begin/commit timestamps and serializes commit installation.
#[derive(Debug)]
pub struct TsOracle {
    /// Highest fully installed commit timestamp.
    last_committed: AtomicU64,
    /// Serializes commit installation (held by [`CommitGuard`]).
    commit_lock: Mutex<()>,
}

impl TsOracle {
    /// A fresh oracle whose visibility horizon covers only the bulk load.
    pub fn new() -> Self {
        TsOracle {
            last_committed: AtomicU64::new(LOAD_TS),
            commit_lock: Mutex::new(()),
        }
    }

    /// The snapshot timestamp a new reader/transaction should use: every
    /// commit with `ts <= read_ts()` is fully installed and visible.
    #[inline]
    pub fn read_ts(&self) -> Ts {
        self.last_committed.load(Ordering::Acquire)
    }

    /// Enters the commit critical section and allocates the next commit
    /// timestamp. Version installation must happen while the returned guard
    /// is alive; dropping the guard *without* calling
    /// [`CommitGuard::finish`] abandons the timestamp (the horizon still
    /// advances, over an empty transaction), which is harmless.
    pub fn begin_commit(&self) -> CommitGuard<'_> {
        let guard = self.commit_lock.lock();
        let ts = self.last_committed.load(Ordering::Relaxed) + 1;
        CommitGuard { oracle: self, ts, _guard: guard }
    }

    /// Restores the visibility horizon after crash recovery: every
    /// replayed commit with `ts <= horizon` is installed, so new
    /// transactions must snapshot at (and allocate past) it. Only moves
    /// forward; must run before any traffic.
    pub fn advance_to(&self, horizon: Ts) {
        let _guard = self.commit_lock.lock();
        if self.last_committed.load(Ordering::Relaxed) < horizon {
            self.last_committed.store(horizon, Ordering::Release);
        }
    }
}

impl Default for TsOracle {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII token for the commit critical section. See
/// [`TsOracle::begin_commit`].
#[must_use = "installation must happen while the guard is alive"]
pub struct CommitGuard<'a> {
    oracle: &'a TsOracle,
    ts: Ts,
    _guard: MutexGuard<'a, ()>,
}

impl CommitGuard<'_> {
    /// The commit timestamp allocated to this transaction.
    #[inline]
    pub fn ts(&self) -> Ts {
        self.ts
    }

    /// Publishes the commit: advances the visibility horizon so snapshots
    /// taken from now on see this transaction. Consumes the guard.
    pub fn finish(self) {
        // Store-release pairs with the load-acquire in `read_ts`; monotonic
        // because commits are serialized by the mutex held in `_guard`.
        self.oracle.last_committed.store(self.ts, Ordering::Release);
    }
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        // If `finish` ran, this store is a no-op re-publication of the same
        // value ordering-wise (finish stored ts already). If the guard was
        // abandoned (install failed before any version was written), we
        // still advance the horizon past the burned timestamp so later
        // commits remain contiguous.
        let cur = self.oracle.last_committed.load(Ordering::Relaxed);
        if cur < self.ts {
            self.oracle.last_committed.store(self.ts, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_oracle_sees_load() {
        let o = TsOracle::new();
        assert_eq!(o.read_ts(), LOAD_TS);
    }

    #[test]
    fn commit_advances_horizon() {
        let o = TsOracle::new();
        let g = o.begin_commit();
        let ts = g.ts();
        assert_eq!(ts, LOAD_TS + 1);
        // Not yet visible while installing.
        assert_eq!(o.read_ts(), LOAD_TS);
        g.finish();
        assert_eq!(o.read_ts(), ts);
    }

    #[test]
    fn abandoned_guard_burns_timestamp() {
        let o = TsOracle::new();
        {
            let _g = o.begin_commit();
            // dropped without finish
        }
        assert_eq!(o.read_ts(), LOAD_TS + 1, "horizon still advances");
        let g = o.begin_commit();
        assert_eq!(g.ts(), LOAD_TS + 2);
        g.finish();
    }

    #[test]
    fn concurrent_commits_are_contiguous_and_unique() {
        let o = Arc::new(TsOracle::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let o = Arc::clone(&o);
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..200 {
                    let g = o.begin_commit();
                    seen.push(g.ts());
                    g.finish();
                }
                seen
            }));
        }
        let mut all: Vec<Ts> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<Ts> = (LOAD_TS + 1..=LOAD_TS + 1600).collect();
        assert_eq!(all, expect, "timestamps dense and unique");
        assert_eq!(o.read_ts(), LOAD_TS + 1600);
    }

    #[test]
    fn advance_to_moves_horizon_forward_only() {
        let o = TsOracle::new();
        o.advance_to(17);
        assert_eq!(o.read_ts(), 17);
        o.advance_to(5);
        assert_eq!(o.read_ts(), 17, "never moves backwards");
        let g = o.begin_commit();
        assert_eq!(g.ts(), 18, "allocation continues past the recovered horizon");
        g.finish();
    }

    #[test]
    fn snapshot_never_sees_uninstalled_commit() {
        // While a guard is held, read_ts must stay below the guard's ts.
        let o = Arc::new(TsOracle::new());
        let g = o.begin_commit();
        let ts = g.ts();
        let o2 = Arc::clone(&o);
        let reader = std::thread::spawn(move || o2.read_ts());
        assert!(reader.join().unwrap() < ts);
        g.finish();
        assert_eq!(o.read_ts(), ts);
    }
}
