//! Common error type shared by every crate in the workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, HatError>;

/// The error type for every fallible operation in the HATtrick stack.
///
/// Transaction aborts are modelled as errors so that the client driver can
/// distinguish a *retryable* outcome (write conflict, serialization failure)
/// from a genuine bug (schema violation, missing table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HatError {
    /// A write-write conflict was detected; the transaction must abort.
    /// Retryable.
    WriteConflict {
        /// Table on which the conflict occurred.
        table: &'static str,
    },
    /// Serializable validation failed (a read was invalidated by a
    /// concurrent committer). Retryable.
    SerializationFailure,
    /// The transaction was already committed or aborted.
    TxnClosed,
    /// A unique-key constraint would be violated by an insert.
    DuplicateKey { table: &'static str },
    /// A referenced row does not exist.
    NotFound { table: &'static str },
    /// A table or index referenced by name/id does not exist.
    UnknownTable(String),
    /// A column index was out of bounds or had an unexpected type.
    TypeMismatch { expected: &'static str, got: &'static str },
    /// The engine was asked to do something its configuration forbids
    /// (e.g. an index seek with `IndexProfile::None`).
    Unsupported(String),
    /// The replication link or a background worker shut down unexpectedly.
    EngineStopped,
    /// Invalid benchmark or engine configuration.
    InvalidConfig(String),
    /// A synchronous-replication wait (standby acknowledgement or remote
    /// apply) exceeded its configured bound *after* the transaction was
    /// installed on the primary. The transaction is durable locally but
    /// in doubt at the replica — clients must treat it as
    /// committed-in-doubt, not as a clean abort. Retryable in the sense
    /// that the *connection* recovers; the harness accounts it separately
    /// so the work is never double-applied.
    ReplicationTimeout,
    /// The replication/consensus service could not be reached *before*
    /// anything was installed (e.g. consensus rounds timed out under a
    /// link partition). The transaction aborted cleanly; safe to retry.
    ReplicaUnavailable,
    /// A restarting log follower needs an LSN that was dropped while it
    /// was down (more records than its retention bound); it needs a full
    /// resync (basebackup) instead of log catch-up.
    WalTruncated { requested: u64, oldest: u64 },
    /// An on-disk WAL segment or checkpoint is structurally invalid
    /// (bad magic, impossible frame length, LSN discontinuity, torn
    /// record in a *sealed* segment). Recovery cannot proceed; operator
    /// intervention (restore from backup) is required. Not retryable.
    WalCorrupt { detail: String },
    /// A complete WAL record failed its CRC32 check — the bytes were
    /// fully written but silently corrupted (bit rot, torn sector).
    /// Distinguished from [`HatError::WalCorrupt`] so the harness can
    /// assert that injected bit-flips are detected as such. `lsn` is the
    /// expected sequence position of the bad record. Not retryable.
    ChecksumMismatch { lsn: u64 },
    /// The engine shed this commit *at admission* because its storage is
    /// degraded (a failed fsync/write quarantined the active WAL
    /// segment) or the group-commit backlog hit its bound. Nothing was
    /// installed: the transaction aborted cleanly and may be retried
    /// once the health state machine re-admits writes. Reads and
    /// analytics keep working throughout. Retryable. A failure *after*
    /// install is [`HatError::DurabilityInDoubt`], never this.
    Degraded,
    /// A storage fault voided the durability wait *after* the
    /// transaction installed: its WAL frame is re-queued to be rewritten
    /// onto a fresh segment, so the commit stays visible and becomes
    /// durable once the WAL re-admits itself (or is lost if the process
    /// dies first). Committed-in-doubt like
    /// [`HatError::ReplicationTimeout`]: the client's connection
    /// recovers, but the transaction must never be blindly re-executed —
    /// that would double-apply it.
    DurabilityInDoubt,
    /// A sealed WAL segment failed checksum verification during a scrub:
    /// the storage is not just transiently failing but has lost durable
    /// bytes. Commits stay shed until an operator restores the segment
    /// (`segment` is its first LSN); retrying cannot help. Not retryable.
    Quarantined { segment: u64 },
}

impl HatError {
    /// Whether the client driver should retry the enclosing transaction.
    ///
    /// The HATtrick harness counts only *successful* transactions towards
    /// throughput; conflicting transactions are retried with fresh inputs,
    /// matching how the paper's driver treats aborts.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            HatError::WriteConflict { .. }
                | HatError::SerializationFailure
                | HatError::ReplicationTimeout
                | HatError::ReplicaUnavailable
                | HatError::Degraded
                | HatError::DurabilityInDoubt
        )
    }

    /// Whether the transaction may have installed on the primary despite
    /// the error. Such outcomes must not be blindly re-executed: the
    /// writes are durable locally and a retry would double-apply them.
    pub fn is_commit_in_doubt(&self) -> bool {
        matches!(self, HatError::ReplicationTimeout | HatError::DurabilityInDoubt)
    }
}

impl fmt::Display for HatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HatError::WriteConflict { table } => {
                write!(f, "write-write conflict on table {table}")
            }
            HatError::SerializationFailure => {
                write!(f, "serializable validation failed")
            }
            HatError::TxnClosed => write!(f, "transaction already closed"),
            HatError::DuplicateKey { table } => {
                write!(f, "duplicate key in table {table}")
            }
            HatError::NotFound { table } => {
                write!(f, "row not found in table {table}")
            }
            HatError::UnknownTable(name) => write!(f, "unknown table {name}"),
            HatError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            HatError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            HatError::EngineStopped => write!(f, "engine stopped"),
            HatError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            HatError::ReplicationTimeout => {
                write!(f, "synchronous replication wait timed out (commit in doubt)")
            }
            HatError::ReplicaUnavailable => {
                write!(f, "replication/consensus service unavailable")
            }
            HatError::WalTruncated { requested, oldest } => {
                write!(
                    f,
                    "wal truncated: lsn {requested} requested but oldest retained is {oldest}"
                )
            }
            HatError::WalCorrupt { detail } => write!(f, "wal corrupt: {detail}"),
            HatError::ChecksumMismatch { lsn } => {
                write!(f, "wal record checksum mismatch at lsn {lsn}")
            }
            HatError::Degraded => {
                write!(f, "commit shed: engine degraded by a storage fault or full backlog")
            }
            HatError::DurabilityInDoubt => {
                write!(
                    f,
                    "durability wait voided by a storage fault after install (commit in doubt)"
                )
            }
            HatError::Quarantined { segment } => {
                write!(
                    f,
                    "wal segment at lsn {segment} quarantined after failed scrub; \
                     operator intervention required"
                )
            }
        }
    }
}

impl std::error::Error for HatError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar of every variant, with its expected classification.
    /// Adding a variant without extending this table fails the
    /// completeness check below, so new errors can't ship unclassified.
    fn classification_table() -> Vec<(HatError, /*retryable*/ bool, /*in_doubt*/ bool)> {
        vec![
            (HatError::WriteConflict { table: "customer" }, true, false),
            (HatError::SerializationFailure, true, false),
            (HatError::TxnClosed, false, false),
            (HatError::DuplicateKey { table: "history" }, false, false),
            (HatError::NotFound { table: "supplier" }, false, false),
            (HatError::UnknownTable("nope".into()), false, false),
            (HatError::TypeMismatch { expected: "u32", got: "str" }, false, false),
            (HatError::Unsupported("index seek".into()), false, false),
            (HatError::EngineStopped, false, false),
            (HatError::InvalidConfig("bad".into()), false, false),
            (HatError::ReplicationTimeout, true, true),
            (HatError::ReplicaUnavailable, true, false),
            (HatError::WalTruncated { requested: 7, oldest: 42 }, false, false),
            (HatError::WalCorrupt { detail: "bad magic".into() }, false, false),
            (HatError::ChecksumMismatch { lsn: 99 }, false, false),
            // Shed commits aborted cleanly before install: retry once the
            // health state machine re-admits writes.
            (HatError::Degraded, true, false),
            // Installed, then the durability wait was voided: like
            // ReplicationTimeout, the client must never re-execute it.
            (HatError::DurabilityInDoubt, true, true),
            // Scrub-confirmed durable-byte loss: retrying cannot help.
            (HatError::Quarantined { segment: 17 }, false, false),
        ]
    }

    #[test]
    fn every_variant_is_classified() {
        for (err, retryable, in_doubt) in classification_table() {
            assert_eq!(err.is_retryable(), retryable, "is_retryable({err:?})");
            assert_eq!(err.is_commit_in_doubt(), in_doubt, "is_commit_in_doubt({err:?})");
            // Commit-in-doubt implies the connection-level retry class:
            // the client reconnects, but must not re-execute blindly.
            if err.is_commit_in_doubt() {
                assert!(err.is_retryable(), "{err:?}");
            }
        }
    }

    #[test]
    fn classification_table_is_complete() {
        // Exhaustive match: a new variant breaks this compile until it is
        // added here AND to `classification_table`.
        let table = classification_table();
        for (err, _, _) in &table {
            let covered = match err {
                HatError::WriteConflict { .. }
                | HatError::SerializationFailure
                | HatError::TxnClosed
                | HatError::DuplicateKey { .. }
                | HatError::NotFound { .. }
                | HatError::UnknownTable(_)
                | HatError::TypeMismatch { .. }
                | HatError::Unsupported(_)
                | HatError::EngineStopped
                | HatError::InvalidConfig(_)
                | HatError::ReplicationTimeout
                | HatError::ReplicaUnavailable
                | HatError::WalTruncated { .. }
                | HatError::WalCorrupt { .. }
                | HatError::ChecksumMismatch { .. }
                | HatError::Degraded
                | HatError::DurabilityInDoubt
                | HatError::Quarantined { .. } => true,
            };
            assert!(covered);
        }
        // Every variant appears in the table exactly once (by discriminant).
        let discriminants: std::collections::HashSet<std::mem::Discriminant<HatError>> =
            table.iter().map(|(e, _, _)| std::mem::discriminant(e)).collect();
        assert_eq!(discriminants.len(), table.len(), "duplicate table entries");
        assert_eq!(discriminants.len(), 18, "table must cover all 18 variants");
    }

    #[test]
    fn display_is_informative() {
        let e = HatError::WriteConflict { table: "supplier" };
        assert!(e.to_string().contains("supplier"));
        let e = HatError::UnknownTable("nope".into());
        assert!(e.to_string().contains("nope"));
        let e = HatError::ReplicationTimeout;
        assert!(e.to_string().contains("in doubt"));
        let e = HatError::WalTruncated { requested: 3, oldest: 9 };
        assert!(e.to_string().contains('3') && e.to_string().contains('9'));
        let e = HatError::WalCorrupt { detail: "short header".into() };
        assert!(e.to_string().contains("short header"));
        let e = HatError::ChecksumMismatch { lsn: 12 };
        assert!(e.to_string().contains("12") && e.to_string().contains("checksum"));
        let e = HatError::Degraded;
        assert!(e.to_string().contains("degraded"));
        let e = HatError::DurabilityInDoubt;
        assert!(e.to_string().contains("in doubt"));
        let e = HatError::Quarantined { segment: 17 };
        assert!(e.to_string().contains("17") && e.to_string().contains("quarantined"));
    }
}
