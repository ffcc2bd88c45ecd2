//! Per-row write locks under a no-wait conflict policy.
//!
//! Writers lock each row before buffering an update. A conflicting
//! acquisition aborts immediately (first-updater-wins), which is
//! deadlock-free by construction; the HATtrick client driver retries with
//! fresh inputs. Contention shows up as aborts, the signal the
//! small-scale-factor experiments in the paper rely on (§6.2).
//!
//! The kernel holds one [`LockManager`]. Its map is striped across
//! internal mutexes by key hash to keep lock acquisition cheap under
//! concurrency.

use std::collections::HashMap;

use hat_common::{HatError, Result, TableId};
use parking_lot::Mutex;

/// Identifies a lockable row: `(table, row id)`.
pub type LockKey = (TableId, u64);

/// Transaction identifier used as lock owner.
pub type OwnerId = u64;

const STRIPES: usize = 64;

/// A striped row-lock table.
pub struct LockManager {
    stripes: Vec<Mutex<HashMap<LockKey, OwnerId>>>,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager").finish_non_exhaustive()
    }
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockManager { stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    #[inline]
    fn stripe(&self, key: &LockKey) -> &Mutex<HashMap<LockKey, OwnerId>> {
        // Cheap multiplicative hash over (table, rid).
        let h = (key.0.index() as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(key.1)
            .wrapping_mul(0xD1B54A32D192ED03);
        &self.stripes[(h >> 32) as usize % STRIPES]
    }

    /// Attempts to acquire a write lock on `key` for `owner`.
    ///
    /// Re-acquisition by the same owner succeeds (and is idempotent). A
    /// lock held by another owner returns [`HatError::WriteConflict`].
    pub fn try_lock(&self, key: LockKey, owner: OwnerId) -> Result<()> {
        let mut held = self.stripe(&key).lock();
        match held.get(&key) {
            None => {
                held.insert(key, owner);
                Ok(())
            }
            Some(&holder) if holder == owner => Ok(()),
            Some(_) => Err(HatError::WriteConflict { table: key.0.name() }),
        }
    }

    /// Releases one lock if held by `owner`.
    pub fn unlock(&self, key: LockKey, owner: OwnerId) {
        let mut held = self.stripe(&key).lock();
        if held.get(&key) == Some(&owner) {
            held.remove(&key);
        }
    }

    /// Releases every lock in `keys` held by `owner` (commit/abort path).
    pub fn unlock_all(&self, keys: &[LockKey], owner: OwnerId) {
        for key in keys {
            self.unlock(*key, owner);
        }
    }

    /// Whether `key` is currently write-locked by a transaction other
    /// than `owner`. Serializable validation uses this as a Silo-style
    /// second check: a read is valid only if the row's version is
    /// unchanged *and* no concurrent writer holds its lock, so a reader
    /// also aborts against a writer that has locked the row but not yet
    /// reached the commit critical section.
    pub fn held_by_other(&self, key: &LockKey, owner: OwnerId) -> bool {
        self.stripe(key).lock().get(key).is_some_and(|h| *h != owner)
    }

    /// Number of locks currently held (test/diagnostic helper; takes every
    /// stripe lock).
    pub fn held_count(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T: TableId = TableId::Customer;

    #[test]
    fn basic_lock_unlock() {
        let lm = LockManager::new();
        lm.try_lock((T, 1), 100).unwrap();
        assert_eq!(lm.held_count(), 1);
        lm.unlock((T, 1), 100);
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn conflict_is_no_wait() {
        let lm = LockManager::new();
        lm.try_lock((T, 1), 100).unwrap();
        let err = lm.try_lock((T, 1), 200).unwrap_err();
        assert!(err.is_retryable());
        assert!(matches!(err, HatError::WriteConflict { table: "customer" }));
    }

    #[test]
    fn reacquisition_by_owner_is_idempotent() {
        let lm = LockManager::new();
        lm.try_lock((T, 1), 100).unwrap();
        lm.try_lock((T, 1), 100).unwrap();
        assert_eq!(lm.held_count(), 1);
    }

    #[test]
    fn unlock_by_non_owner_is_ignored() {
        let lm = LockManager::new();
        lm.try_lock((T, 1), 100).unwrap();
        lm.unlock((T, 1), 999);
        assert_eq!(lm.held_count(), 1, "non-owner cannot release");
    }

    #[test]
    fn same_rid_different_tables_do_not_conflict() {
        let lm = LockManager::new();
        lm.try_lock((TableId::Customer, 7), 1).unwrap();
        lm.try_lock((TableId::Supplier, 7), 2).unwrap();
        assert_eq!(lm.held_count(), 2);
    }

    #[test]
    fn unlock_all_releases_everything() {
        let lm = LockManager::new();
        let keys: Vec<LockKey> = (0..50).map(|i| (T, i)).collect();
        for k in &keys {
            lm.try_lock(*k, 5).unwrap();
        }
        lm.unlock_all(&keys, 5);
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn concurrent_lockers_exclusive() {
        // 8 threads fight over 16 rows; at most one holder per row wins
        // per round, and the lock table is empty at the end.
        let lm = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for owner in 0..8u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for round in 0..1000u64 {
                    let key = (T, round % 16);
                    if lm.try_lock(key, owner).is_ok() {
                        wins += 1;
                        lm.unlock(key, owner);
                    }
                }
                wins
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(lm.held_count(), 0);
    }
}
