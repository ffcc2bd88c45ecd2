//! Durable on-disk write-ahead log with group commit, checksummed
//! segments, checkpoints, and crash recovery.
//!
//! [`crate::wal::LogRecord`] models *shipping* (what a replica replays);
//! this module models *durability* — the cost the
//! paper's evaluated systems pay at `synchronous_commit = on` (PostgreSQL)
//! or on the Raft-log fsync path (TiDB, §6.3).
//!
//! # Segment format
//!
//! The log is a sequence of fixed-size-ish segment files named
//! `wal-<first_lsn>.seg`:
//!
//! ```text
//! +----------------------+----------------------------------------------+
//! | header (16 bytes)    | frames ...                                   |
//! | magic "HATWAL01" (8) | [len: u32][crc32: u32][payload: len bytes]   |
//! | first_lsn: u64 LE    | [len: u32][crc32: u32][payload]  ...         |
//! +----------------------+----------------------------------------------+
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. The payload is one commit
//! record: `lsn, commit_ts, op_count, ops…` (all integers little-endian).
//! Records never split across segments; a segment rotates once it exceeds
//! [`WalConfig::segment_bytes`].
//!
//! # Torn tails vs. corruption
//!
//! On recovery, an *incomplete* frame at the end of the **last** segment is
//! a torn write (the crash interrupted an unacknowledged flush): the tail
//! is truncated at the last complete record and counted in
//! `torn_tail_truncations`. A *complete* frame whose CRC does not match is
//! silent corruption and fails recovery with
//! [`HatError::ChecksumMismatch`]; structural damage anywhere else (bad
//! magic, LSN discontinuity, torn frame in a sealed segment) fails with
//! [`HatError::WalCorrupt`].
//!
//! # Group commit
//!
//! [`DurableWal::append`] only enqueues the encoded frame (it is called
//! inside the commit critical section, so frames are enqueued in
//! commit-timestamp order); a dedicated flusher thread drains the queue,
//! writes the whole batch, and issues **one** fsync for every waiter that
//! accumulated meanwhile. [`DurableWal::wait_durable`] blocks until the
//! flusher's durable horizon covers the record — many concurrent commits
//! share one fsync, which is exactly PostgreSQL's group commit.
//!
//! # Checkpoints
//!
//! [`DurableWal::checkpoint`] durably persists a snapshot of the table
//! stores (built by the caller) tagged with a low-water LSN: it is written
//! to a `.tmp` file, fsynced, and atomically renamed to
//! `ckpt-<lsn>.ckpt`, after which sealed segments entirely below the
//! low-water mark are deleted. Recovery loads the newest valid checkpoint
//! and replays only the WAL tail past its LSN.
//!
//! # Disk faults & graceful degradation
//!
//! Every file operation goes through a [`WalIo`] layer driven by a seeded
//! [`DiskFaultPlan`] — a schedule of injected faults (EIO/ENOSPC on
//! write, fsync failure, write stalls, read-side bit-rot) generalizing
//! the one-shot [`KillPoint`] into something a chaos harness can script.
//!
//! A failed write or fsync is **fatal for that batch's durability
//! claim**: the WAL never re-fsyncs the same dirty range and pretends
//! (the fsyncgate lesson). Instead the active segment is *quarantined* —
//! truncated back to its durable prefix and sealed — the unacknowledged
//! frames are re-queued to be rewritten from memory onto a fresh segment,
//! waiters receive [`HatError::DurabilityInDoubt`] (their commit is
//! installed and will become durable on re-admission, so it must never
//! be blindly re-executed), and the WAL enters the
//! `Healthy → Degraded → Recovering → Healthy` ladder:
//!
//! * **Degraded** — the flusher parks; [`DurableWal::admit`] sheds new
//!   commits with [`HatError::Degraded`] (bounded backlog, never an
//!   unbounded queue), so the engine serves reads/analytics only.
//! * a background *scrubber* re-verifies sealed-segment checksums and
//!   probes the device each tick; when both pass it moves to
//!   **Recovering** and wakes the flusher.
//! * **Recovering** — the flusher drains the re-queued backlog onto a
//!   fresh segment; once the durable horizon catches up the WAL is
//!   **Healthy** again and commits are re-admitted.
//!
//! If a scrub finds a sealed segment with a bad checksum the storage has
//! lost durable bytes: commits are shed with the non-retryable
//! [`HatError::Quarantined`] until an operator intervenes.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hat_common::rng::HatRng;
use hat_common::telemetry::{Histogram, HistogramSnapshot};
use hat_common::{HatError, Money, Result, Row, TableId, Value};
use hat_txn::Ts;
use parking_lot::{Condvar, Mutex};

use crate::wal::{Lsn, TableOp};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"HATWAL01";
/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"HATCKPT1";
/// Segment header: magic + first LSN.
const SEGMENT_HEADER_BYTES: u64 = 16;
/// Frame header: length + CRC32.
const FRAME_HEADER_BYTES: usize = 8;

/// Configuration of the on-disk WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Directory holding segment and checkpoint files (created on open).
    pub dir: PathBuf,
    /// Rotate to a new segment once the active one exceeds this size.
    pub segment_bytes: u64,
    /// Issue real `fsync` syscalls. `false` keeps the full group-commit
    /// protocol (batching, durable horizon, counters) but skips the
    /// syscall — useful for CI where the backing store is a ramdisk
    /// anyway.
    pub sync: bool,
    /// Injected-fault schedule for chaos runs; empty means no injection.
    pub fault_plan: DiskFaultPlan,
    /// Shed commits with [`HatError::Degraded`] once this many frames are
    /// queued ahead of the flusher ([`DurableWal::admit`]). Bounds the
    /// group-commit backlog so a stalled or degraded device back-pressures
    /// clients instead of growing an unbounded queue.
    pub max_backlog: usize,
    /// Cadence of the background scrubber (checksum re-verification and,
    /// while degraded, the device probe driving re-admission). With an
    /// empty fault plan the scrubber parks while `Healthy` — zero
    /// background I/O or CPU in fault-free benchmark runs — and only
    /// starts ticking if a real I/O failure degrades the WAL.
    pub scrub_interval: Duration,
}

impl WalConfig {
    /// Defaults: 4 MiB segments, real fsync, no background checkpoints,
    /// no fault injection, 4096-frame backlog bound, 5 ms scrub cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            sync: true,
            fault_plan: DiskFaultPlan::default(),
            max_backlog: 4096,
            scrub_interval: Duration::from_millis(5),
        }
    }
}

/// Engine/WAL health, the ladder a storage fault walks: a failed
/// write/fsync moves `Healthy → Degraded` (commits shed, analytics keep
/// serving), a clean scrub plus device probe moves `Degraded →
/// Recovering` (the flusher drains the re-queued backlog onto a fresh
/// segment), and a caught-up durable horizon moves `Recovering →
/// Healthy` (commits re-admitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    #[default]
    Healthy,
    Degraded,
    Recovering,
}

impl HealthState {
    /// Stable numeric encoding for the `health.state` telemetry gauge.
    pub fn as_u64(self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Recovering => 2,
        }
    }

    /// Human label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Recovering => "recovering",
        }
    }
}

/// One kind of storage misbehavior [`WalIo`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// `write(2)` fails with `EIO`.
    WriteEio,
    /// `write(2)` fails with `ENOSPC` (device full).
    WriteEnospc,
    /// `fsync(2)` fails with `EIO` — the fsyncgate case: the batch's
    /// durability claim is void and must never be re-fsynced-and-trusted.
    FsyncFail,
    /// The write completes but only after stalling for the duration
    /// (a dying device or saturated queue).
    WriteStall(Duration),
    /// A read of a segment or checkpoint returns one flipped bit
    /// (silent bit-rot, caught by CRC verification).
    ReadBitRot,
}

impl DiskFaultKind {
    /// Which I/O class this fault intercepts.
    fn class(self) -> IoClass {
        match self {
            DiskFaultKind::WriteEio
            | DiskFaultKind::WriteEnospc
            | DiskFaultKind::WriteStall(_) => IoClass::Write,
            DiskFaultKind::FsyncFail => IoClass::Sync,
            DiskFaultKind::ReadBitRot => IoClass::Read,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoClass {
    Write,
    Sync,
    Read,
}

impl IoClass {
    /// Index into [`WalIo`]'s per-class op clocks.
    fn idx(self) -> usize {
        match self {
            IoClass::Write => 0,
            IoClass::Sync => 1,
            IoClass::Read => 2,
        }
    }
}

/// One scheduled fault window: ops `at_op .. at_op + for_ops` of the
/// matching [`IoClass`] misbehave. `for_ops == 1` is a transient fault;
/// `u64::MAX` is a persistent one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    pub kind: DiskFaultKind,
    /// First operation index (0-based) the fault covers, counted on the
    /// clock of the fault's own I/O class (writes, fsyncs, and reads
    /// each tick independently).
    pub at_op: u64,
    /// Number of consecutive operations covered.
    pub for_ops: u64,
}

/// A deterministic schedule of [`DiskFault`]s, consulted by [`WalIo`] on
/// every file operation. Generalizes the one-shot [`KillPoint`] (which
/// still exists for crash-recovery tests) into something the chaos
/// harness can script: faults fire at fixed operation indices, so a run
/// is reproducible from its seed.
///
/// Reproducibility is guaranteed per I/O class: each class has its own
/// op clock, write/sync clocks are advanced only by the durability path
/// (flusher and checkpoint writes/fsyncs), and the wall-clock-driven
/// scrubber consults them *without* advancing ([`WalIo::probe_gate`],
/// which instead consumes a covering window on failure). The read clock
/// is advanced by recovery reads — which happen at open, before any
/// background thread runs — and by scrub verification reads, so
/// read-side windows aimed past recovery fire at scrubber-timing-
/// dependent points ([`DiskFaultPlan::seeded`] excludes them for this
/// reason).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    faults: Vec<DiskFault>,
}

impl DiskFaultPlan {
    /// An empty plan (no injection).
    pub fn new() -> Self {
        DiskFaultPlan::default()
    }

    /// Adds one fault window (builder-style).
    pub fn with(mut self, fault: DiskFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// A reproducible random schedule: 1–3 short write/sync fault windows
    /// at increasing operation indices. Read-side faults are excluded so
    /// a seeded chaos run degrades and recovers rather than failing its
    /// own recovery scan.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = HatRng::seeded(seed ^ 0xD15C_FA17);
        let mut faults = Vec::new();
        let windows = 1 + rng.next_u64() % 3;
        let mut at = 10 + rng.next_u64() % 40;
        for _ in 0..windows {
            let kind = match rng.next_u64() % 4 {
                0 => DiskFaultKind::FsyncFail,
                1 => DiskFaultKind::WriteEio,
                2 => DiskFaultKind::WriteEnospc,
                _ => DiskFaultKind::WriteStall(Duration::from_micros(500)),
            };
            faults.push(DiskFault { kind, at_op: at, for_ops: 1 + rng.next_u64() % 6 });
            at += 40 + rng.next_u64() % 80;
        }
        DiskFaultPlan { faults }
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault window (if any) covering operation `op` of class
    /// `class`.
    fn window_at(&self, op: u64, class: IoClass) -> Option<DiskFault> {
        self.faults
            .iter()
            .find(|f| {
                f.kind.class() == class
                    && op >= f.at_op
                    && op - f.at_op < f.for_ops
            })
            .copied()
    }

    /// The fault kind (if any) covering operation `op` of class `class`.
    fn fault_at(&self, op: u64, class: IoClass) -> Option<DiskFaultKind> {
        self.window_at(op, class).map(|f| f.kind)
    }
}

/// The pluggable I/O layer every segment/checkpoint file operation goes
/// through. Counts operations, consults the [`DiskFaultPlan`], and
/// injects the scheduled errors; with an empty plan it is a transparent
/// pass-through (two relaxed atomic ops per call).
struct WalIo {
    plan: DiskFaultPlan,
    /// Per-class monotonic op clocks ([`IoClass::idx`]). The write/sync
    /// clocks are the *fault clocks* the durability path (flusher,
    /// checkpoints) advances; scrub probes consult them without
    /// advancing, so seeded fault windows fire at the same flusher ops
    /// regardless of scrubber timing.
    ops: [AtomicU64; 3],
    /// Faults actually injected (the `disk.faults_injected` counter).
    injected: AtomicU64,
}

impl WalIo {
    fn new(plan: DiskFaultPlan) -> Self {
        WalIo {
            plan,
            ops: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            injected: AtomicU64::new(0),
        }
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Injects the scheduled misbehavior of the fault (if any) covering
    /// operation `op` of class `class`: returns the injected error, or
    /// sleeps through a stall. Does not advance any clock.
    fn inject_at(&self, op: u64, class: IoClass) -> std::io::Result<()> {
        match self.plan.fault_at(op, class) {
            None => Ok(()),
            Some(DiskFaultKind::WriteStall(d)) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
                Ok(())
            }
            Some(DiskFaultKind::WriteEnospc) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // ENOSPC
                Err(std::io::Error::from_raw_os_error(28))
            }
            Some(DiskFaultKind::WriteEio) | Some(DiskFaultKind::FsyncFail) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // EIO
                Err(std::io::Error::from_raw_os_error(5))
            }
            // Bit-rot is applied by `read`, not here.
            Some(DiskFaultKind::ReadBitRot) => Ok(()),
        }
    }

    /// Consults the plan for the next operation of `class`, advancing
    /// that class's fault clock.
    fn gate(&self, class: IoClass) -> std::io::Result<()> {
        let op = self.ops[class.idx()].fetch_add(1, Ordering::Relaxed);
        self.inject_at(op, class)
    }

    /// Scrub-probe gate: consults the `class` fault clock **without
    /// advancing it** — probes run on wall-clock cadence and must not
    /// perturb where flusher/checkpoint ops land. A covering fault
    /// window still fails the probe, and that failure *consumes* the
    /// window (the clock jumps to its end), so a transient fault expires
    /// after one failed probe instead of after a timing-dependent number
    /// of scrub ticks. Persistent windows (`at_op + for_ops` overflows)
    /// are never consumed: the probe keeps failing.
    fn probe_gate(&self, class: IoClass) -> std::io::Result<()> {
        let clock = &self.ops[class.idx()];
        let op = clock.load(Ordering::Relaxed);
        if let Some(f) = self.plan.window_at(op, class) {
            if let Some(end) = f.at_op.checked_add(f.for_ops) {
                clock.fetch_max(end, Ordering::Relaxed);
            }
        }
        self.inject_at(op, class)
    }

    fn write_all(&self, file: &mut File, buf: &[u8]) -> std::io::Result<()> {
        self.gate(IoClass::Write)?;
        file.write_all(buf)
    }

    /// The real fsync when `sync` is set; the injection gate either way,
    /// so chaos runs work on CI ramdisks with `sync: false` too.
    fn sync(&self, file: &File, sync: bool) -> std::io::Result<()> {
        self.gate(IoClass::Sync)?;
        if sync {
            file.sync_all()
        } else {
            Ok(())
        }
    }

    /// Reads a whole file, applying a scheduled bit-flip past the header
    /// (deterministic position from the operation index).
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path).and_then(|mut f| f.read_to_end(&mut bytes))?;
        let op = self.ops[IoClass::Read.idx()].fetch_add(1, Ordering::Relaxed);
        if let Some(DiskFaultKind::ReadBitRot) = self.plan.fault_at(op, IoClass::Read) {
            let body = SEGMENT_HEADER_BYTES as usize;
            if bytes.len() > body {
                self.injected.fetch_add(1, Ordering::Relaxed);
                let idx = body + (op as usize).wrapping_mul(131) % (bytes.len() - body);
                bytes[idx] ^= 0x10;
            }
        }
        Ok(bytes)
    }

    /// Creates (truncating) a file for writing, gated as a write.
    fn create(&self, path: &Path) -> std::io::Result<File> {
        self.gate(IoClass::Write)?;
        OpenOptions::new().write(true).create(true).truncate(true).open(path)
    }
}

/// Crash-injection points used by the recovery harness. Arming one makes
/// the WAL "die" at that point: the flusher stops, pending work is
/// dropped, and every in-flight or future `wait_durable`/`append` fails
/// with [`HatError::EngineStopped`] — the in-process analogue of
/// `kill -9` between two specific instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Die before the next batch reaches the file: nothing of it survives.
    BeforeFlush,
    /// Die after the next batch is written but **not** fsynced: its bytes
    /// may survive in any prefix (the harness injects the torn tail).
    TornFlush,
    /// Die right after the next fsync: the batch is durable, waiters are
    /// acknowledged, everything later is lost.
    AfterFlush,
    /// Die midway through the next checkpoint, leaving a partial `.tmp`.
    MidCheckpoint,
}

/// One recovered commit record.
#[derive(Debug, Clone)]
pub struct RecoveredRecord {
    pub lsn: Lsn,
    pub commit_ts: Ts,
    pub ops: Vec<TableOp>,
    /// Commit shards the transaction touched (empty = single-shard commit
    /// on the stream's own shard). A cross-shard record is logged **only**
    /// on its coordinator's stream, so recovery resolves an in-doubt 2PC
    /// commit by one deterministic rule: committed iff the record is
    /// durable in the coordinator's WAL. The participant set makes the
    /// decision auditable and lets the recovery merge assert that the
    /// record's ops never appear on a second stream.
    pub participants: Vec<u8>,
}

/// Snapshot of one table store inside a checkpoint: `(rid, version_ts,
/// row)` for every row visible at the checkpoint timestamp, in rid order.
#[derive(Debug, Clone)]
pub struct TableCheckpoint {
    pub table: TableId,
    pub rows: Vec<(u64, Ts, Row)>,
}

/// A durable snapshot of the table stores plus its low-water mark: every
/// commit with `ts <= last_ts` is contained, and exactly the WAL records
/// with `lsn <= lsn` are reflected.
#[derive(Debug, Clone)]
pub struct CheckpointData {
    pub lsn: Lsn,
    pub last_ts: Ts,
    pub tables: Vec<TableCheckpoint>,
}

/// What `DurableWal::open` found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Newest valid checkpoint, if any.
    pub checkpoint: Option<CheckpointData>,
    /// WAL records past the checkpoint's low-water mark, in LSN order.
    pub tail: Vec<RecoveredRecord>,
    /// Incomplete trailing frames removed from the last segment.
    pub torn_tail_truncations: u64,
    /// LSN the next append will receive.
    pub next_lsn: Lsn,
}

impl WalRecovery {
    /// Number of records replayed from the WAL tail.
    pub fn replayed_records(&self) -> u64 {
        self.tail.len() as u64
    }

    /// Highest commit timestamp contained in the recovered state.
    pub fn max_ts(&self) -> Ts {
        let ckpt = self.checkpoint.as_ref().map(|c| c.last_ts).unwrap_or(0);
        let tail = self.tail.last().map(|r| r.commit_ts).unwrap_or(0);
        ckpt.max(tail)
    }
}

/// Counters surfaced through the kernel's `MetricsSnapshot` → reports.
#[derive(Debug, Clone, Default)]
pub struct DurableWalStats {
    /// Flush batches made durable (one fsync each).
    pub fsyncs: u64,
    /// Highest LSN guaranteed on disk.
    pub durable_lsn: Lsn,
    /// Records-per-fsync distribution (mergeable across runs and shards).
    pub group_commit_batches: HistogramSnapshot,
    /// Records replayed from the WAL tail at open.
    pub recovery_replayed_records: u64,
    /// Incomplete trailing frames truncated at open.
    pub torn_tail_truncations: u64,
    /// Checkpoints durably written.
    pub checkpoints: u64,
    /// Sealed segments deleted below the checkpoint low-water mark.
    pub segments_deleted: u64,
    /// Current health-ladder position.
    pub health: HealthState,
    /// Faults injected by the configured [`DiskFaultPlan`].
    pub disk_faults: u64,
    /// Commits shed with [`HatError::Degraded`]/[`HatError::Quarantined`]
    /// by [`DurableWal::admit`].
    pub shed_commits: u64,
    /// Scrub ticks spent outside `Healthy`.
    pub degraded_ticks: u64,
    /// Scrub passes completed (checksum verification / device probes).
    pub scrub_passes: u64,
    /// Active segments quarantined after a failed write or fsync.
    pub quarantined_segments: u64,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected, table-driven)
// ---------------------------------------------------------------------------

/// The standard CRC-32 lookup table for polynomial 0xEDB88320.
fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// IEEE CRC-32 of `bytes` (the checksum zlib/gzip/Ethernet use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::U64(x) => {
            buf.push(0);
            put_u64(buf, *x);
        }
        Value::U32(x) => {
            buf.push(1);
            put_u32(buf, *x);
        }
        Value::Money(m) => {
            buf.push(2);
            put_u64(buf, m.cents() as u64);
        }
        Value::Str(s) => {
            buf.push(3);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(*b as u8);
        }
    }
}

fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    put_u16(buf, row.len() as u16);
    for v in row.iter() {
        encode_value(buf, v);
    }
}

/// Serializes one commit record's payload (without framing). The
/// participant set (2PC: every commit shard the transaction touched) is a
/// trailing section so single-shard streams pay one byte and pre-shard
/// records (no trailing bytes) decode as participant-free.
fn encode_record_payload(
    lsn: Lsn,
    commit_ts: Ts,
    ops: &[TableOp],
    participants: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 * ops.len().max(1));
    put_u64(&mut buf, lsn);
    put_u64(&mut buf, commit_ts);
    put_u32(&mut buf, ops.len() as u32);
    for op in ops {
        let (tag, table, rid, row) = match op {
            TableOp::Insert { table, rid, row } => (0u8, table, rid, row),
            TableOp::Update { table, rid, row } => (1u8, table, rid, row),
        };
        buf.push(tag);
        buf.push(table.index() as u8);
        put_u64(&mut buf, *rid);
        encode_row(&mut buf, row);
    }
    buf.push(participants.len() as u8);
    buf.extend_from_slice(participants);
    buf
}

/// Wraps a payload in `[len][crc32]` framing.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(payload));
    frame.extend_from_slice(payload);
    frame
}

/// Bounded little-endian reader over a byte slice; any overrun or invalid
/// tag decodes to [`HatError::WalCorrupt`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "record truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn corrupt(detail: impl Into<String>) -> HatError {
    HatError::WalCorrupt { detail: detail.into() }
}

/// Bounds-checked little-endian u32 at `off`; a truncated buffer is
/// [`HatError::WalCorrupt`], never a panic (recovery runs on arbitrary
/// crash debris).
fn le_u32(bytes: &[u8], off: usize) -> Result<u32> {
    match off.checked_add(4).and_then(|end| bytes.get(off..end)) {
        Some(s) => Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]])),
        None => Err(corrupt(format!("truncated u32 at offset {off}"))),
    }
}

/// Bounds-checked little-endian u64 at `off` (see [`le_u32`]).
fn le_u64(bytes: &[u8], off: usize) -> Result<u64> {
    match off.checked_add(8).and_then(|end| bytes.get(off..end)) {
        Some(s) => {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            Ok(u64::from_le_bytes(b))
        }
        None => Err(corrupt(format!("truncated u64 at offset {off}"))),
    }
}

fn io_err(ctx: &str, e: std::io::Error) -> HatError {
    HatError::WalCorrupt { detail: format!("{ctx}: {e}") }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::U64(r.u64()?),
        1 => Value::U32(r.u32()?),
        2 => Value::Money(Money::from_cents(r.u64()? as i64)),
        3 => {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| corrupt("string value is not utf-8"))?;
            Value::Str(Arc::from(s))
        }
        4 => Value::Bool(r.u8()? != 0),
        tag => return Err(corrupt(format!("unknown value tag {tag}"))),
    })
}

fn decode_row(r: &mut Reader<'_>) -> Result<Row> {
    let ncols = r.u16()? as usize;
    let mut values = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        values.push(decode_value(r)?);
    }
    Ok(values.into())
}

fn decode_table(r: &mut Reader<'_>) -> Result<TableId> {
    let idx = r.u8()? as usize;
    TableId::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| corrupt(format!("unknown table index {idx}")))
}

fn decode_record_payload(payload: &[u8]) -> Result<RecoveredRecord> {
    let mut r = Reader::new(payload);
    let lsn = r.u64()?;
    let commit_ts = r.u64()?;
    let nops = r.u32()? as usize;
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        let tag = r.u8()?;
        let table = decode_table(&mut r)?;
        let rid = r.u64()?;
        let row = decode_row(&mut r)?;
        ops.push(match tag {
            0 => TableOp::Insert { table, rid, row },
            1 => TableOp::Update { table, rid, row },
            t => return Err(corrupt(format!("unknown op tag {t}"))),
        });
    }
    // Trailing participant-set section; absent on pre-shard records.
    let participants = if r.remaining() == 0 {
        Vec::new()
    } else {
        let n = r.u8()? as usize;
        r.take(n)?.to_vec()
    };
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after record payload"));
    }
    Ok(RecoveredRecord { lsn, commit_ts, ops, participants })
}

fn encode_checkpoint_body(data: &CheckpointData) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, data.lsn);
    put_u64(&mut buf, data.last_ts);
    buf.push(data.tables.len() as u8);
    for t in &data.tables {
        buf.push(t.table.index() as u8);
        put_u64(&mut buf, t.rows.len() as u64);
        for (rid, ts, row) in &t.rows {
            put_u64(&mut buf, *rid);
            put_u64(&mut buf, *ts);
            encode_row(&mut buf, row);
        }
    }
    buf
}

fn decode_checkpoint_body(body: &[u8]) -> Result<CheckpointData> {
    let mut r = Reader::new(body);
    let lsn = r.u64()?;
    let last_ts = r.u64()?;
    let ntables = r.u8()? as usize;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let table = decode_table(&mut r)?;
        let nrows = r.u64()? as usize;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let rid = r.u64()?;
            let ts = r.u64()?;
            rows.push((rid, ts, decode_row(&mut r)?));
        }
        tables.push(TableCheckpoint { table, rows });
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after checkpoint body"));
    }
    Ok(CheckpointData { lsn, last_ts, tables })
}

// ---------------------------------------------------------------------------
// File naming
// ---------------------------------------------------------------------------

fn segment_path(dir: &Path, first_lsn: Lsn) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.seg"))
}

fn checkpoint_path(dir: &Path, lsn: Lsn) -> PathBuf {
    dir.join(format!("ckpt-{lsn:020}.ckpt"))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

fn sync_dir(dir: &Path, sync: bool) -> Result<()> {
    if sync {
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync wal dir", e))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The durable WAL
// ---------------------------------------------------------------------------

/// Shared state between appenders, durability waiters, the flusher
/// thread, and the checkpointer.
struct FlushState {
    /// Encoded frames awaiting the flusher, in LSN order.
    pending: Vec<(Lsn, Vec<u8>)>,
    /// LSN the next append receives.
    next_lsn: Lsn,
    /// `(lsn, commit_ts)` of the most recent append — the consistent
    /// low-water pair a checkpoint snapshots at.
    last_appended: (Lsn, Ts),
    /// Every record with `lsn <=` this is on disk (or durably recovered).
    durable_lsn: Lsn,
    /// Set by kill points, I/O errors, or [`DurableWal::crash`]: the
    /// simulated process death. No further work is accepted.
    crashed: bool,
    /// Set by Drop for a clean shutdown (flush everything, then exit).
    shutdown: bool,
    kill: Option<KillPoint>,
    fsyncs: u64,
    checkpoints: u64,
    segments_deleted: u64,
    /// Position on the degradation ladder (see [`HealthState`]).
    health: HealthState,
    /// First LSN of a sealed segment a scrub found corrupt, if any:
    /// commits then shed with [`HatError::Quarantined`] instead of the
    /// retryable [`HatError::Degraded`].
    corrupt_segment: Option<Lsn>,
    /// Commits shed by [`DurableWal::admit`].
    shed: u64,
    /// Active segments quarantined after a failed write/fsync.
    quarantined: u64,
    /// Scrub ticks spent outside `Healthy`.
    degraded_ticks: u64,
    /// Completed scrub passes.
    scrub_passes: u64,
}

/// State shared with the flusher thread. The thread holds only this, not
/// the [`DurableWal`] handle, so dropping the last handle can signal
/// shutdown and join the thread.
struct WalShared {
    config: WalConfig,
    state: Mutex<FlushState>,
    /// Wakes the flusher when pending work or shutdown arrives.
    work: Condvar,
    /// Wakes `wait_durable` callers when the durable horizon advances or
    /// the WAL crashes.
    durable: Condvar,
    /// Wakes the scrubber early on shutdown/crash (it otherwise ticks at
    /// `config.scrub_interval`).
    scrub: Condvar,
    /// First LSN of the segment the flusher currently appends to; the
    /// checkpointer must never delete that file.
    active_first_lsn: std::sync::atomic::AtomicU64,
    /// Records per flush batch (lock-free; read by `stats`).
    batch_hist: Histogram,
    /// Fault-injecting I/O layer all file operations go through.
    io: WalIo,
}

/// See the module docs: segment files + group-commit flusher +
/// checkpoints + recovery.
pub struct DurableWal {
    inner: Arc<WalShared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
    scrubber: Mutex<Option<JoinHandle<()>>>,
    recovery_replayed: u64,
    recovery_torn: u64,
}

impl std::fmt::Debug for DurableWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableWal")
            .field("dir", &self.inner.config.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The flusher's file handle plus rotation bookkeeping.
struct ActiveSegment {
    file: File,
    bytes: u64,
}

impl ActiveSegment {
    /// Creates (or truncates) the segment for `first_lsn` and writes its
    /// header, all through the fault-injecting I/O layer. Callers fsync
    /// the directory afterwards if configured.
    fn create(io: &WalIo, dir: &Path, first_lsn: Lsn) -> std::io::Result<Self> {
        let mut file = io.create(&segment_path(dir, first_lsn))?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&first_lsn.to_le_bytes());
        io.write_all(&mut file, &header)?;
        Ok(ActiveSegment { file, bytes: SEGMENT_HEADER_BYTES })
    }
}

impl DurableWal {
    /// Opens (creating if needed) the WAL at `config.dir`, running
    /// recovery: the newest valid checkpoint is loaded, the WAL tail past
    /// it is decoded and CRC-verified, a torn trailing frame is truncated,
    /// and the group-commit flusher thread is started at the recovered
    /// LSN horizon.
    pub fn open(config: WalConfig) -> Result<(Arc<DurableWal>, WalRecovery)> {
        fs::create_dir_all(&config.dir).map_err(|e| io_err("create wal dir", e))?;
        let io = WalIo::new(config.fault_plan.clone());
        let recovery = recover(&config, &io)?;

        let inner = Arc::new(WalShared {
            state: Mutex::new(FlushState {
                pending: Vec::new(),
                next_lsn: recovery.next_lsn,
                last_appended: (recovery.next_lsn - 1, recovery.max_ts()),
                durable_lsn: recovery.next_lsn - 1,
                crashed: false,
                shutdown: false,
                kill: None,
                fsyncs: 0,
                checkpoints: 0,
                segments_deleted: 0,
                health: HealthState::Healthy,
                corrupt_segment: None,
                shed: 0,
                quarantined: 0,
                degraded_ticks: 0,
                scrub_passes: 0,
            }),
            work: Condvar::new(),
            durable: Condvar::new(),
            scrub: Condvar::new(),
            active_first_lsn: std::sync::atomic::AtomicU64::new(recovery.next_lsn),
            batch_hist: Histogram::new(),
            io,
            config,
        });

        // A fresh active segment at the recovered horizon: recovered
        // segments stay sealed, so a second crash can only tear the new
        // file.
        let seg = ActiveSegment::create(&inner.io, &inner.config.dir, recovery.next_lsn)
            .map_err(|e| io_err("create active segment", e))?;
        sync_dir(&inner.config.dir, inner.config.sync)?;

        let thread_shared = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("wal-flusher".into())
            .spawn(move || flusher_loop(thread_shared, seg))
            .map_err(|e| io_err("spawn wal flusher", e))?;
        let scrub_shared = Arc::clone(&inner);
        let scrub_handle = std::thread::Builder::new()
            .name("wal-scrubber".into())
            .spawn(move || scrubber_loop(scrub_shared))
            .map_err(|e| io_err("spawn wal scrubber", e))?;
        let wal = Arc::new(DurableWal {
            inner,
            flusher: Mutex::new(Some(handle)),
            scrubber: Mutex::new(Some(scrub_handle)),
            recovery_replayed: recovery.replayed_records(),
            recovery_torn: recovery.torn_tail_truncations,
        });
        Ok((wal, recovery))
    }

    /// Enqueues one commit record and returns its LSN. Must be called
    /// inside the commit critical section so that LSN order equals
    /// commit-timestamp order. The record is **not** durable until
    /// [`DurableWal::wait_durable`] returns for it.
    pub fn append(&self, commit_ts: Ts, ops: &[TableOp]) -> Result<Lsn> {
        self.append_with(commit_ts, ops, &[])
    }

    /// [`DurableWal::append`] carrying a 2PC participant set: the commit
    /// shards the transaction touched. A cross-shard commit appends one
    /// record — ops of *all* participants — to its coordinator's stream
    /// only, which is the whole in-doubt resolution protocol (see
    /// [`RecoveredRecord::participants`]).
    pub fn append_with(
        &self,
        commit_ts: Ts,
        ops: &[TableOp],
        participants: &[u8],
    ) -> Result<Lsn> {
        let mut st = self.inner.state.lock();
        if st.crashed {
            return Err(HatError::EngineStopped);
        }
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        st.last_appended = (lsn, commit_ts);
        let frame = encode_frame(&encode_record_payload(lsn, commit_ts, ops, participants));
        st.pending.push((lsn, frame));
        self.inner.work.notify_one();
        Ok(lsn)
    }

    /// Admission control, called by the kernel **before** a transaction
    /// installs anything: sheds the commit with a clean, retryable
    /// [`HatError::Degraded`] when the WAL is degraded/recovering or the
    /// group-commit backlog is at its bound, and with the non-retryable
    /// [`HatError::Quarantined`] when a scrub has confirmed durable-byte
    /// loss. Shedding here (not at [`DurableWal::append`], which runs
    /// after install) is what keeps a shed commit invisible: nothing was
    /// installed, so recovery can never surface half of it.
    pub fn admit(&self) -> Result<()> {
        let mut st = self.inner.state.lock();
        if st.crashed {
            return Err(HatError::EngineStopped);
        }
        if let Some(segment) = st.corrupt_segment {
            st.shed += 1;
            return Err(HatError::Quarantined { segment });
        }
        if st.health != HealthState::Healthy
            || st.pending.len() >= self.inner.config.max_backlog
        {
            st.shed += 1;
            return Err(HatError::Degraded);
        }
        Ok(())
    }

    /// Current position on the health ladder.
    pub fn health(&self) -> HealthState {
        self.inner.state.lock().health
    }

    /// Blocks until `lsn` is on disk (one shared fsync per batch of
    /// waiters). Fails with [`HatError::EngineStopped`] if the WAL
    /// crashed before covering `lsn` — the commit's durability is then
    /// unknown to the caller, exactly like a process crash between write
    /// and acknowledgement. Fails with [`HatError::DurabilityInDoubt`]
    /// if a storage fault degraded the WAL first: the caller's commit is
    /// *installed* (its frame is re-queued and becomes durable on
    /// re-admission), so this is committed-in-doubt — never the clean
    /// pre-install abort [`HatError::Degraded`] signals, and never safe
    /// to blindly re-execute.
    pub fn wait_durable(&self, lsn: Lsn) -> Result<()> {
        let mut st = self.inner.state.lock();
        loop {
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if st.crashed {
                return Err(HatError::EngineStopped);
            }
            // A storage fault voided this batch's durability claim: the
            // commit was installed but never acknowledged. Waiters fail
            // with the commit-in-doubt error instead of blocking until
            // (if ever) the re-queued frames land on a fresh segment.
            if st.health != HealthState::Healthy {
                return Err(HatError::DurabilityInDoubt);
            }
            self.inner.durable.wait(&mut st);
        }
    }

    /// `(lsn, commit_ts)` of the most recent append — the consistent
    /// pair a checkpoint snapshot is taken at.
    pub fn last_appended(&self) -> (Lsn, Ts) {
        self.inner.state.lock().last_appended
    }

    /// Highest LSN guaranteed on disk.
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.state.lock().durable_lsn
    }

    /// Durably writes `data` (tmp + fsync + atomic rename), then deletes
    /// sealed segments entirely below its low-water LSN and superseded
    /// checkpoint files.
    pub fn checkpoint(&self, data: &CheckpointData) -> Result<()> {
        {
            let mut st = self.inner.state.lock();
            if st.crashed {
                return Err(HatError::EngineStopped);
            }
            // Never checkpoint onto sick storage: the tmp write would
            // just fail (or worse, claim coverage of frames that are not
            // durable yet while the flusher backlog drains).
            if st.health != HealthState::Healthy {
                return Err(HatError::Degraded);
            }
            if st.kill == Some(KillPoint::MidCheckpoint) {
                st.kill = None;
                st.crashed = true;
                st.pending.clear();
                drop(st);
                // Simulate dying halfway through the tmp write: a partial
                // file with a valid magic but truncated body.
                let mut body = encode_checkpoint_body(data);
                body.truncate(body.len() / 2);
                let tmp = self.inner.config.dir.join(format!("ckpt-{:020}.tmp", data.lsn));
                let _ = fs::write(&tmp, [CHECKPOINT_MAGIC.as_slice(), &body].concat());
                self.inner.durable.notify_all();
                self.inner.work.notify_all();
                return Err(HatError::EngineStopped);
            }
        }

        let body = encode_checkpoint_body(data);
        let tmp = self.inner.config.dir.join(format!("ckpt-{:020}.tmp", data.lsn));
        let io = &self.inner.io;
        let written = (|| -> std::io::Result<()> {
            let mut file = io.create(&tmp)?;
            let mut buf = Vec::with_capacity(8 + body.len() + 4);
            buf.extend_from_slice(CHECKPOINT_MAGIC);
            buf.extend_from_slice(&body);
            buf.extend_from_slice(&crc32(&body).to_le_bytes());
            io.write_all(&mut file, &buf)?;
            io.sync(&file, self.inner.config.sync)
        })();
        if written.is_err() {
            // A checkpoint failure claims nothing (the tmp is never
            // renamed), but the device is misbehaving: degrade so the
            // scrubber decides when to trust it again.
            let _ = fs::remove_file(&tmp);
            let mut st = self.inner.state.lock();
            st.health = HealthState::Degraded;
            drop(st);
            self.inner.durable.notify_all();
            // Wake the scrubber: with an empty fault plan it parks while
            // healthy and must be told the device went sick for real.
            self.inner.scrub.notify_all();
            return Err(HatError::Degraded);
        }
        fs::rename(&tmp, checkpoint_path(&self.inner.config.dir, data.lsn))
            .map_err(|e| io_err("rename ckpt", e))?;
        sync_dir(&self.inner.config.dir, self.inner.config.sync)?;

        let deleted = self.prune_below(data.lsn)?;
        let mut st = self.inner.state.lock();
        st.checkpoints += 1;
        st.segments_deleted += deleted;
        Ok(())
    }

    /// Deletes sealed segments whose every record is `<= low_water`, plus
    /// checkpoint files older than the one at `low_water`. Returns the
    /// number of segments removed.
    fn prune_below(&self, low_water: Lsn) -> Result<u64> {
        let dir = &self.inner.config.dir;
        let mut segs: Vec<Lsn> = Vec::new();
        let mut old_ckpts: Vec<Lsn> = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| io_err("read wal dir", e))? {
            let entry = entry.map_err(|e| io_err("read wal dir", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(lsn) = parse_numbered(&name, "wal-", ".seg") {
                segs.push(lsn);
            } else if let Some(lsn) = parse_numbered(&name, "ckpt-", ".ckpt") {
                if lsn < low_water {
                    old_ckpts.push(lsn);
                }
            }
        }
        segs.sort_unstable();
        let active = self.inner.active_first_lsn.load(std::sync::atomic::Ordering::Relaxed);
        let mut deleted = 0;
        // Segment i covers [segs[i], segs[i+1] - 1]; deletable when that
        // whole range is at or below the low-water mark and the flusher is
        // not appending to it.
        for w in segs.windows(2) {
            let (first, next_first) = (w[0], w[1]);
            if next_first <= low_water + 1 && first < active {
                fs::remove_file(segment_path(dir, first))
                    .map_err(|e| io_err("delete sealed segment", e))?;
                deleted += 1;
            }
        }
        for lsn in old_ckpts {
            let _ = fs::remove_file(checkpoint_path(dir, lsn));
        }
        Ok(deleted)
    }

    /// Arms a one-shot crash injection point (see [`KillPoint`]).
    pub fn arm_kill(&self, kp: KillPoint) {
        // The kill fires when the flusher next touches a batch (or the
        // checkpointer runs); an idle flusher observes it with the next
        // append's wakeup.
        self.inner.state.lock().kill = Some(kp);
    }

    /// Immediate simulated process death: pending (unflushed) records are
    /// dropped, the flusher stops without a final flush, and all waiters
    /// fail. Disk state is whatever previous fsyncs made durable.
    pub fn crash(&self) {
        let mut st = self.inner.state.lock();
        st.crashed = true;
        st.pending.clear();
        drop(st);
        self.inner.work.notify_all();
        self.inner.durable.notify_all();
        self.inner.scrub.notify_all();
        self.join_flusher();
    }

    /// Whether a crash (injected or real I/O failure) has stopped the WAL.
    pub fn is_crashed(&self) -> bool {
        self.inner.state.lock().crashed
    }

    /// The directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.inner.config.dir
    }

    /// The configuration this WAL was opened with.
    pub fn config(&self) -> &WalConfig {
        &self.inner.config
    }

    /// Current counters.
    pub fn stats(&self) -> DurableWalStats {
        let batches = self.inner.batch_hist.snapshot();
        let st = self.inner.state.lock();
        DurableWalStats {
            fsyncs: st.fsyncs,
            durable_lsn: st.durable_lsn,
            group_commit_batches: batches,
            recovery_replayed_records: self.recovery_replayed,
            torn_tail_truncations: self.recovery_torn,
            checkpoints: st.checkpoints,
            segments_deleted: st.segments_deleted,
            health: st.health,
            disk_faults: self.inner.io.injected(),
            shed_commits: st.shed,
            degraded_ticks: st.degraded_ticks,
            scrub_passes: st.scrub_passes,
            quarantined_segments: st.quarantined,
        }
    }

    fn join_flusher(&self) {
        if let Some(handle) = self.flusher.lock().take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.scrubber.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DurableWal {
    fn drop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.work.notify_all();
        self.inner.scrub.notify_all();
        self.join_flusher();
    }
}

/// The group-commit flusher: drains whole batches of pending frames,
/// writes them (rotating segments), issues one fsync, then advances the
/// durable horizon and wakes every covered waiter.
///
/// A failed write/fsync no longer kills the WAL: the batch's durability
/// claim is voided, the active segment is quarantined at its durable
/// prefix, the suspect frames are re-queued, and the health ladder drops
/// to `Degraded` ([`degrade_flusher`]). The flusher then parks until the
/// scrubber re-admits the device (`Recovering`), drains the backlog onto
/// a fresh segment, and declares `Healthy` once the horizon catches up.
/// Armed [`KillPoint`]s keep their original terminal-crash semantics.
fn flusher_loop(wal: Arc<WalShared>, seg: ActiveSegment) {
    let die = |wal: &WalShared| {
        let mut st = wal.state.lock();
        st.crashed = true;
        st.pending.clear();
        drop(st);
        wal.durable.notify_all();
    };

    // `None` between a quarantine and the recovery that replaces it.
    let mut seg = Some(seg);

    loop {
        let batch = {
            let mut st = wal.state.lock();
            while (st.pending.is_empty() || st.health == HealthState::Degraded)
                && !st.shutdown
                && !st.crashed
            {
                wal.work.wait(&mut st);
            }
            if st.crashed {
                drop(st);
                wal.durable.notify_all();
                return;
            }
            if st.shutdown && st.health == HealthState::Degraded {
                // Clean shutdown on sick storage: the backlog was never
                // acknowledged, so dropping it honors every claim made.
                return;
            }
            if st.pending.is_empty() {
                // Clean shutdown with nothing left to write.
                if wal.config.sync {
                    if let Some(s) = seg.as_ref() {
                        let _ = s.file.sync_all();
                    }
                }
                return;
            }
            if st.kill == Some(KillPoint::BeforeFlush) {
                st.kill = None;
                st.crashed = true;
                st.pending.clear();
                drop(st);
                wal.durable.notify_all();
                return;
            }
            std::mem::take(&mut st.pending)
        };

        // Harden against the impossible: an empty batch is skipped, not
        // an `expect` panic inside the one thread that must never die.
        let last_lsn = match batch.last() {
            Some((lsn, _)) => *lsn,
            None => continue,
        };
        let count = batch.len() as u64;

        // After a quarantine there is no active segment: start a fresh
        // one at the first re-queued frame (the rewrite-from-memory leg
        // of fsync-failure handling — the old segment is never reused).
        if seg.is_none() {
            let first = batch[0].0;
            let created = ActiveSegment::create(&wal.io, &wal.config.dir, first)
                .and_then(|ns| {
                    if wal.config.sync {
                        File::open(&wal.config.dir).and_then(|d| d.sync_all())?;
                    }
                    Ok(ns)
                });
            match created {
                Ok(ns) => {
                    wal.active_first_lsn.store(first, Ordering::Relaxed);
                    seg = Some(ns);
                }
                Err(_) => {
                    if !degrade_flusher(&wal, None, batch, 0, None) {
                        die(&wal);
                        return;
                    }
                    continue;
                }
            }
        }
        let mut s = match seg.take() {
            Some(s) => s,
            None => continue,
        };

        // `synced_upto`: batch frames below this index sit in sealed,
        // fsynced segments and are durable whatever happens next.
        // `batch_start`: file offset of this batch's first frame within
        // the *current* segment — the truncation point that restores the
        // segment to its durable prefix on failure.
        let mut synced_upto = 0usize;
        let mut batch_start = s.bytes;
        // `(suspect_from, truncate_current)` on failure.
        let mut failure: Option<(usize, bool)> = None;
        for (i, (lsn, frame)) in batch.iter().enumerate() {
            if s.bytes >= wal.config.segment_bytes {
                // Seal the full segment and rotate to a new one starting
                // at this record's LSN.
                if wal.io.sync(&s.file, wal.config.sync).is_err() {
                    failure = Some((synced_upto, true));
                    break;
                }
                synced_upto = i;
                let rotated = ActiveSegment::create(&wal.io, &wal.config.dir, *lsn)
                    .and_then(|ns| {
                        if wal.config.sync {
                            File::open(&wal.config.dir).and_then(|d| d.sync_all())?;
                        }
                        Ok(ns)
                    });
                match rotated {
                    Ok(ns) => {
                        wal.active_first_lsn.store(*lsn, Ordering::Relaxed);
                        s = ns;
                        batch_start = s.bytes;
                    }
                    Err(_) => {
                        // The old segment sealed cleanly — everything in
                        // it is durable; only the unwritten tail is
                        // suspect, and there is nothing to truncate.
                        failure = Some((i, false));
                        break;
                    }
                }
            }
            if wal.io.write_all(&mut s.file, frame).is_err() {
                failure = Some((synced_upto, true));
                break;
            }
            s.bytes += frame.len() as u64;
        }

        if failure.is_none() {
            let torn_kill = {
                let mut st = wal.state.lock();
                if st.kill == Some(KillPoint::TornFlush) {
                    st.kill = None;
                    true
                } else {
                    false
                }
            };
            if torn_kill {
                // Written but never fsynced: the harness may now shear
                // the file at an arbitrary byte to model a torn page.
                die(&wal);
                return;
            }
            if wal.io.sync(&s.file, wal.config.sync).is_err() {
                // fsyncgate: this fsync's failure voids the whole
                // unsynced suffix of the batch — never re-fsync it.
                failure = Some((synced_upto, true));
            }
        }

        if let Some((suspect_from, truncate)) = failure {
            let trunc_to = if truncate { Some(batch_start) } else { None };
            if !degrade_flusher(&wal, Some(s), batch, suspect_from, trunc_to) {
                die(&wal);
                return;
            }
            continue;
        }

        wal.batch_hist.record(count);
        let mut st = wal.state.lock();
        st.durable_lsn = last_lsn;
        st.fsyncs += 1;
        if st.health == HealthState::Recovering && st.pending.is_empty() {
            // The re-queued backlog is fully rewritten and fsynced on the
            // fresh segment: re-admission complete.
            st.health = HealthState::Healthy;
        }
        let after_kill = st.kill == Some(KillPoint::AfterFlush);
        if after_kill {
            st.kill = None;
            st.crashed = true;
            st.pending.clear();
        }
        drop(st);
        wal.durable.notify_all();
        if after_kill {
            return;
        }
        seg = Some(s);
    }
}

/// Voids the durability claim of `batch[suspect_from..]` after a failed
/// write/fsync: truncates the active segment back to its durable prefix
/// (`truncate_to`), seals and quarantines it, advances the durable
/// horizon over the prefix that *did* land in sealed+fsynced segments,
/// re-queues the suspect frames (to be rewritten from memory onto a
/// fresh segment — never re-fsynced in place), and walks the health
/// ladder to `Degraded`. Returns `false` when even the truncation
/// failed, in which case the caller must fall back to a terminal crash.
fn degrade_flusher(
    wal: &WalShared,
    seg: Option<ActiveSegment>,
    mut batch: Vec<(Lsn, Vec<u8>)>,
    suspect_from: usize,
    truncate_to: Option<u64>,
) -> bool {
    if let (Some(s), Some(off)) = (seg.as_ref(), truncate_to) {
        if s.file.set_len(off).is_err() {
            return false;
        }
    }
    // Dropping the handle seals the quarantined segment at its durable
    // prefix; the flusher opens a fresh file on re-admission.
    drop(seg);
    let durable_to =
        if suspect_from > 0 { Some(batch[suspect_from - 1].0) } else { None };
    let mut requeue = batch.split_off(suspect_from);
    let mut st = wal.state.lock();
    if let Some(lsn) = durable_to {
        if lsn > st.durable_lsn {
            st.durable_lsn = lsn;
        }
    }
    st.health = HealthState::Degraded;
    if truncate_to.is_some() {
        st.quarantined += 1;
    }
    // Suspect frames go back ahead of anything appended since, keeping
    // the LSN chain contiguous for the eventual rewrite.
    requeue.append(&mut st.pending);
    st.pending = requeue;
    // Point the checkpointer's do-not-delete marker at the first frame
    // the fresh segment will hold.
    let next_first = st.pending.first().map(|(l, _)| *l).unwrap_or(st.next_lsn);
    wal.active_first_lsn.store(next_first, Ordering::Relaxed);
    drop(st);
    // Waiters observe `Degraded` and fail with the commit-in-doubt
    // error; admission control sheds new commits before they install
    // anything. The scrubber may be parked (empty fault plan) — wake it
    // so it drives re-admission.
    wal.durable.notify_all();
    wal.scrub.notify_all();
    true
}

/// The background scrubber: ticks at `config.scrub_interval`, counts
/// degraded time, and drives re-admission. A degraded WAL returns to
/// service only when every sealed segment re-verifies its checksums AND
/// a fresh write+fsync probe succeeds — never by trusting a retried
/// fsync of old data. A sealed segment that fails verification pins the
/// WAL in quarantine ([`HatError::Quarantined`]) for an operator.
///
/// With an empty fault plan the scrubber parks while `Healthy` instead
/// of ticking: a fault-free benchmark run pays zero background I/O and
/// CPU for it. Degrade paths (`degrade_flusher`, a failed checkpoint)
/// notify `scrub` to wake it when a real device failure needs it.
fn scrubber_loop(wal: Arc<WalShared>) {
    let mut tick: u64 = 0;
    loop {
        {
            let mut st = wal.state.lock();
            if st.shutdown || st.crashed {
                return;
            }
            if st.health == HealthState::Healthy && wal.config.fault_plan.is_empty() {
                wal.scrub.wait(&mut st);
            } else {
                wal.scrub.wait_for(&mut st, wal.config.scrub_interval);
            }
            if st.shutdown || st.crashed {
                return;
            }
        }
        tick += 1;
        let health = {
            let mut st = wal.state.lock();
            if st.health != HealthState::Healthy {
                st.degraded_ticks += 1;
            }
            st.health
        };
        match health {
            HealthState::Degraded => {
                let verified = verify_sealed_segments(&wal);
                let probe_ok = verified.is_ok() && probe_device(&wal).is_ok();
                let mut st = wal.state.lock();
                st.scrub_passes += 1;
                match verified {
                    Err(segment) => {
                        // Durable bytes are gone: hold quarantine until an
                        // operator intervenes.
                        st.corrupt_segment = Some(segment);
                    }
                    Ok(()) if probe_ok => {
                        st.corrupt_segment = None;
                        if st.pending.is_empty() {
                            st.health = HealthState::Healthy;
                        } else {
                            st.health = HealthState::Recovering;
                        }
                        drop(st);
                        wal.work.notify_all();
                    }
                    Ok(()) => {}
                }
            }
            // A light periodic pass while healthy: bit-rot is noticed
            // before the next recovery depends on the bytes.
            HealthState::Healthy if tick.is_multiple_of(64) => {
                let verified = verify_sealed_segments(&wal);
                let mut st = wal.state.lock();
                st.scrub_passes += 1;
                if let Err(segment) = verified {
                    st.corrupt_segment = Some(segment);
                    st.health = HealthState::Degraded;
                    drop(st);
                    wal.durable.notify_all();
                }
            }
            _ => {}
        }
    }
}

/// Re-verifies the frame CRCs of every sealed segment (structure and
/// checksums; payloads are not decoded). Returns the first LSN of the
/// first bad segment. Reads go through the fault-injection layer, so
/// scheduled bit-rot is caught here like anywhere else.
fn verify_sealed_segments(wal: &WalShared) -> std::result::Result<(), Lsn> {
    let active = wal.active_first_lsn.load(Ordering::Relaxed);
    let entries = match fs::read_dir(&wal.config.dir) {
        Ok(e) => e,
        // An unlistable directory is the probe's problem, not proof of
        // lost durable bytes.
        Err(_) => return Ok(()),
    };
    let mut firsts: Vec<Lsn> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| parse_numbered(&e.file_name().to_string_lossy(), "wal-", ".seg"))
        .filter(|&first| first < active)
        .collect();
    firsts.sort_unstable();
    for first in firsts {
        if verify_segment(wal, first).is_err() {
            return Err(first);
        }
    }
    Ok(())
}

fn verify_segment(wal: &WalShared, first_lsn: Lsn) -> Result<()> {
    let path = segment_path(&wal.config.dir, first_lsn);
    let bytes = match wal.io.read(&path) {
        Ok(bytes) => bytes,
        // The checkpointer races this scan: it may prune a sealed
        // segment below the low-water mark between the directory listing
        // and this read. A vanished file is benign GC, not durable-byte
        // loss — only a segment that exists and fails its checks may
        // quarantine the WAL.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(io_err("scrub read", e)),
    };
    if bytes.len() < SEGMENT_HEADER_BYTES as usize || &bytes[..8] != SEGMENT_MAGIC {
        return Err(corrupt("bad header"));
    }
    let mut offset = SEGMENT_HEADER_BYTES as usize;
    while offset < bytes.len() {
        let len = le_u32(&bytes, offset)? as usize;
        let crc = le_u32(&bytes, offset + 4)?;
        let payload = offset
            .checked_add(FRAME_HEADER_BYTES)
            .and_then(|start| start.checked_add(len).map(|end| (start, end)))
            .and_then(|(start, end)| bytes.get(start..end))
            .ok_or_else(|| corrupt("torn frame in sealed segment"))?;
        if crc32(payload) != crc {
            return Err(HatError::ChecksumMismatch { lsn: first_lsn });
        }
        offset += FRAME_HEADER_BYTES + len;
    }
    Ok(())
}

/// Writes and fsyncs a small probe file through the fault-injection
/// layer: the device is considered writable again only when a *fresh*
/// write succeeds end to end. Probes use the non-advancing
/// [`WalIo::probe_gate`] so their wall-clock cadence never shifts where
/// the flusher's own ops land on the fault clocks (a failed probe
/// consumes the covering window instead — that is what lets a transient
/// window expire while the flusher is parked).
fn probe_device(wal: &WalShared) -> std::io::Result<()> {
    let path = wal.config.dir.join("probe.tmp");
    let result = (|| {
        wal.io.probe_gate(IoClass::Write)?;
        let mut f =
            OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        f.write_all(b"hat-scrub-probe")?;
        wal.io.probe_gate(IoClass::Sync)?;
        if wal.config.sync {
            f.sync_all()
        } else {
            Ok(())
        }
    })();
    let _ = fs::remove_file(&path);
    result
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Scans `config.dir`: loads the newest valid checkpoint, replays the WAL
/// tail, truncates a torn final frame, and removes leftover `.tmp` files.
///
/// Every byte is read through the [`WalIo`] fault-injection layer, and
/// every slice access is bounds-checked: arbitrarily truncated or
/// bit-flipped input yields `Ok` (torn tail) or a classified
/// [`HatError::WalCorrupt`]/[`HatError::ChecksumMismatch`] — never a
/// panic, and never a ghost commit.
fn recover(config: &WalConfig, io: &WalIo) -> Result<WalRecovery> {
    let mut seg_lsns: Vec<Lsn> = Vec::new();
    let mut ckpt_lsns: Vec<Lsn> = Vec::new();
    for entry in fs::read_dir(&config.dir).map_err(|e| io_err("read wal dir", e))? {
        let entry = entry.map_err(|e| io_err("read wal dir", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(lsn) = parse_numbered(&name, "wal-", ".seg") {
            seg_lsns.push(lsn);
        } else if let Some(lsn) = parse_numbered(&name, "ckpt-", ".ckpt") {
            ckpt_lsns.push(lsn);
        } else if name.ends_with(".tmp") {
            // A checkpoint the crash interrupted before its atomic
            // rename; never valid, always discarded.
            let _ = fs::remove_file(entry.path());
        }
    }
    seg_lsns.sort_unstable();
    ckpt_lsns.sort_unstable();

    let checkpoint = match ckpt_lsns.last() {
        Some(&lsn) => Some(load_checkpoint(io, &checkpoint_path(&config.dir, lsn), lsn)?),
        None => None,
    };
    let start_lsn = checkpoint.as_ref().map(|c| c.lsn + 1).unwrap_or(1);

    if let Some(&first) = seg_lsns.first() {
        if first > start_lsn {
            return Err(corrupt(format!(
                "gap between checkpoint (low water {}) and first segment (lsn {first})",
                start_lsn - 1
            )));
        }
    }

    let mut tail: Vec<RecoveredRecord> = Vec::new();
    let mut torn = 0u64;
    let mut next_lsn = start_lsn;
    let mut expected = seg_lsns.first().copied().unwrap_or(start_lsn);
    for (i, &first_lsn) in seg_lsns.iter().enumerate() {
        if first_lsn != expected {
            return Err(corrupt(format!(
                "segment chain broken: expected lsn {expected}, found segment at {first_lsn}"
            )));
        }
        let is_last = i == seg_lsns.len() - 1;
        let scanned = scan_segment(config, io, first_lsn, is_last)?;
        torn += scanned.torn;
        expected = first_lsn + scanned.records.len() as u64;
        for rec in scanned.records {
            next_lsn = rec.lsn + 1;
            if rec.lsn >= start_lsn {
                tail.push(rec);
            }
        }
    }
    next_lsn = next_lsn.max(start_lsn);

    Ok(WalRecovery { checkpoint, tail, torn_tail_truncations: torn, next_lsn })
}

struct ScannedSegment {
    records: Vec<RecoveredRecord>,
    torn: u64,
}

/// Decodes every frame of one segment. A short trailing frame is torn:
/// in the last segment it is truncated away and counted; in a sealed
/// segment it is corruption. A complete frame with a bad CRC is
/// [`HatError::ChecksumMismatch`] everywhere.
fn scan_segment(
    config: &WalConfig,
    io: &WalIo,
    first_lsn: Lsn,
    is_last: bool,
) -> Result<ScannedSegment> {
    let path = segment_path(&config.dir, first_lsn);
    let bytes = io.read(&path).map_err(|e| io_err("read segment", e))?;
    if bytes.len() < SEGMENT_HEADER_BYTES as usize || &bytes[..8] != SEGMENT_MAGIC {
        return Err(corrupt(format!("segment {} has a bad header", path.display())));
    }
    let header_lsn = le_u64(&bytes, 8)?;
    if header_lsn != first_lsn {
        return Err(corrupt(format!(
            "segment {} header lsn {header_lsn} does not match its name",
            path.display()
        )));
    }

    let mut records = Vec::new();
    let mut torn = 0u64;
    let mut offset = SEGMENT_HEADER_BYTES as usize;
    let mut expected = first_lsn;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        let complete = remaining >= FRAME_HEADER_BYTES && {
            let len = le_u32(&bytes, offset)? as usize;
            // `checked_add` guards against a bit-flipped length field
            // overflowing the comparison on 32-bit targets.
            FRAME_HEADER_BYTES
                .checked_add(len)
                .map(|need| remaining >= need)
                .unwrap_or(false)
        };
        if !complete {
            if !is_last {
                return Err(corrupt(format!(
                    "torn frame inside sealed segment {}",
                    path.display()
                )));
            }
            // Torn tail: shear the incomplete frame off so the segment
            // ends at the last whole record.
            OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(offset as u64))
                .map_err(|e| io_err("truncate torn tail", e))?;
            torn += 1;
            break;
        }
        let len = le_u32(&bytes, offset)? as usize;
        let crc = le_u32(&bytes, offset + 4)?;
        let payload = offset
            .checked_add(FRAME_HEADER_BYTES)
            .and_then(|start| start.checked_add(len).map(|end| (start, end)))
            .and_then(|(start, end)| bytes.get(start..end))
            .ok_or_else(|| corrupt("frame payload out of bounds"))?;
        if crc32(payload) != crc {
            return Err(HatError::ChecksumMismatch { lsn: expected });
        }
        let rec = decode_record_payload(payload)?;
        if rec.lsn != expected {
            return Err(corrupt(format!(
                "lsn discontinuity in {}: expected {expected}, found {}",
                path.display(),
                rec.lsn
            )));
        }
        expected += 1;
        offset += FRAME_HEADER_BYTES + len;
        records.push(rec);
    }
    Ok(ScannedSegment { records, torn })
}

fn load_checkpoint(io: &WalIo, path: &Path, lsn: Lsn) -> Result<CheckpointData> {
    let bytes = io.read(path).map_err(|e| io_err("read checkpoint", e))?;
    if bytes.len() < 12 || &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt(format!("checkpoint {} has a bad header", path.display())));
    }
    let body = &bytes[8..bytes.len() - 4];
    let crc = le_u32(&bytes, bytes.len() - 4)?;
    if crc32(body) != crc {
        return Err(HatError::ChecksumMismatch { lsn });
    }
    let data = decode_checkpoint_body(body)?;
    if data.lsn != lsn {
        return Err(corrupt(format!(
            "checkpoint {} body lsn {} does not match its name",
            path.display(),
            data.lsn
        )));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_common::value::row_from;

    /// A fresh per-test WAL directory, removed when the guard drops
    /// (declared first, it outlives the WALs opened on it).
    struct TestDir(PathBuf);

    impl std::ops::Deref for TestDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TestDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn test_dir(tag: &str) -> TestDir {
        let dir = std::env::temp_dir()
            .join(format!("hat-dwal-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn cfg(dir: &Path) -> WalConfig {
        WalConfig { sync: false, ..WalConfig::new(dir) }
    }

    fn op(v: u32) -> TableOp {
        TableOp::Insert {
            table: TableId::History,
            rid: v as u64,
            row: row_from([
                Value::U32(v),
                Value::U64(v as u64 * 10),
                Value::Money(Money::from_cents(-25)),
                Value::Str(Arc::from("note")),
                Value::Bool(v.is_multiple_of(2)),
            ]),
        }
    }

    fn append_n(wal: &DurableWal, n: u32) {
        for i in 0..n {
            let lsn = wal.append(i as u64 + 2, &[op(i)]).unwrap();
            wal.wait_durable(lsn).unwrap();
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip_preserves_all_value_types() {
        let ops = vec![op(1), TableOp::Update { table: TableId::Supplier, rid: 3, row: row_from([Value::U32(9)]) }];
        let payload = encode_record_payload(42, 17, &ops, &[0, 2]);
        let rec = decode_record_payload(&payload).unwrap();
        assert_eq!(rec.lsn, 42);
        assert_eq!(rec.commit_ts, 17);
        assert_eq!(rec.participants, vec![0, 2]);
        assert_eq!(rec.ops.len(), 2);
        match &rec.ops[0] {
            TableOp::Insert { table, rid, row } => {
                assert_eq!(*table, TableId::History);
                assert_eq!(*rid, 1);
                assert_eq!(row[0], Value::U32(1));
                assert_eq!(row[1], Value::U64(10));
                assert_eq!(row[2], Value::Money(Money::from_cents(-25)));
                assert_eq!(row[3].as_str().unwrap(), "note");
                assert_eq!(row[4], Value::Bool(false));
            }
            other => panic!("wrong op {other:?}"),
        }
        match &rec.ops[1] {
            TableOp::Update { table, rid, .. } => {
                assert_eq!(*table, TableId::Supplier);
                assert_eq!(*rid, 3);
            }
            other => panic!("wrong op {other:?}"),
        }
    }

    #[test]
    fn append_flush_reopen_recovers_everything() {
        let dir = test_dir("reopen");
        {
            let (wal, rec) = DurableWal::open(cfg(&dir)).unwrap();
            assert!(rec.checkpoint.is_none());
            assert_eq!(rec.next_lsn, 1);
            append_n(&wal, 20);
            assert_eq!(wal.durable_lsn(), 20);
        }
        let (wal, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.tail.len(), 20);
        assert_eq!(rec.tail[0].lsn, 1);
        assert_eq!(rec.tail[19].lsn, 20);
        assert_eq!(rec.next_lsn, 21);
        assert_eq!(rec.torn_tail_truncations, 0);
        assert_eq!(wal.stats().recovery_replayed_records, 20);
    }

    #[test]
    fn segments_rotate_and_recover_across_files() {
        let dir = test_dir("rotate");
        let config = WalConfig { segment_bytes: 256, ..cfg(&dir) };
        {
            let (wal, _) = DurableWal::open(config.clone()).unwrap();
            append_n(&wal, 40);
        }
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".seg")
            })
            .count();
        assert!(segs > 2, "expected rotation, got {segs} segment(s)");
        let (_, rec) = DurableWal::open(config).unwrap();
        assert_eq!(rec.tail.len(), 40);
        assert_eq!(rec.tail.last().unwrap().lsn, 40);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = test_dir("torn");
        {
            let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
            append_n(&wal, 5);
        }
        // Shear the newest non-empty segment mid-frame (the last segment
        // is the empty one the second open created; records live in the
        // previous one).
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(".seg"))
            .collect();
        segs.sort();
        let target = segs
            .iter()
            .rev()
            .find(|p| fs::metadata(p).unwrap().len() > SEGMENT_HEADER_BYTES)
            .unwrap();
        let len = fs::metadata(target).unwrap().len();
        OpenOptions::new().write(true).open(target).unwrap().set_len(len - 3).unwrap();

        let (wal, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.torn_tail_truncations, 1);
        assert_eq!(rec.tail.len(), 4, "last record sheared off");
        assert_eq!(rec.next_lsn, 5);
        assert_eq!(wal.stats().torn_tail_truncations, 1);
        drop(wal);
        // After truncation the directory recovers cleanly again.
        let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.torn_tail_truncations, 0);
        assert_eq!(rec.tail.len(), 4);
    }

    #[test]
    fn bit_flip_fails_with_checksum_mismatch() {
        let dir = test_dir("flip");
        {
            let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
            append_n(&wal, 3);
        }
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        // Flip one payload bit of the second record (well past the first
        // frame's header).
        let idx = bytes.len() - 5;
        bytes[idx] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let err = DurableWal::open(cfg(&dir)).unwrap_err();
        assert!(
            matches!(err, HatError::ChecksumMismatch { .. }),
            "got {err:?}"
        );
        assert!(!err.is_retryable());
    }

    #[test]
    fn garbage_header_is_wal_corrupt() {
        let dir = test_dir("garbage");
        {
            let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
            append_n(&wal, 1);
        }
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[0] = b'X';
        fs::write(&seg, &bytes).unwrap();
        let err = DurableWal::open(cfg(&dir)).unwrap_err();
        assert!(matches!(err, HatError::WalCorrupt { .. }), "got {err:?}");
    }

    #[test]
    fn checkpoint_truncates_sealed_segments_and_bounds_replay() {
        let dir = test_dir("ckpt");
        let config = WalConfig { segment_bytes: 256, ..cfg(&dir) };
        {
            let (wal, _) = DurableWal::open(config.clone()).unwrap();
            append_n(&wal, 40);
            let (lsn, ts) = wal.last_appended();
            wal.checkpoint(&CheckpointData {
                lsn,
                last_ts: ts,
                tables: vec![TableCheckpoint {
                    table: TableId::History,
                    rows: vec![(0, 2, row_from([Value::U32(7)]))],
                }],
            })
            .unwrap();
            let stats = wal.stats();
            assert_eq!(stats.checkpoints, 1);
            assert!(stats.segments_deleted > 0, "sealed segments below low water");
            // The log keeps accepting appends after a checkpoint.
            let lsn = wal.append(100, &[op(41)]).unwrap();
            wal.wait_durable(lsn).unwrap();
        }
        let (_, rec) = DurableWal::open(config).unwrap();
        let ckpt = rec.checkpoint.expect("checkpoint recovered");
        assert_eq!(ckpt.lsn, 40);
        assert_eq!(ckpt.last_ts, 41);
        assert_eq!(ckpt.tables[0].rows[0].2[0], Value::U32(7));
        assert_eq!(rec.tail.len(), 1, "only the post-checkpoint record replays");
        assert_eq!(rec.tail[0].lsn, 41);
        assert_eq!(rec.next_lsn, 42);
    }

    #[test]
    fn kill_before_flush_loses_only_unacknowledged_records() {
        let dir = test_dir("kill-before");
        {
            let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
            append_n(&wal, 3);
            wal.arm_kill(KillPoint::BeforeFlush);
            let lsn = wal.append(50, &[op(99)]).unwrap();
            assert_eq!(wal.wait_durable(lsn), Err(HatError::EngineStopped));
            assert!(wal.is_crashed());
            assert!(wal.append(51, &[op(100)]).is_err(), "no appends after death");
        }
        let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.tail.len(), 3, "acknowledged records survive, the doomed one doesn't");
    }

    #[test]
    fn kill_after_flush_preserves_acknowledged_batch() {
        let dir = test_dir("kill-after");
        {
            let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
            append_n(&wal, 2);
            wal.arm_kill(KillPoint::AfterFlush);
            let lsn = wal.append(50, &[op(9)]).unwrap();
            assert_eq!(wal.wait_durable(lsn), Ok(()), "fsync completed before death");
        }
        let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.tail.len(), 3);
    }

    #[test]
    fn mid_checkpoint_kill_leaves_no_visible_checkpoint() {
        let dir = test_dir("kill-ckpt");
        {
            let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
            append_n(&wal, 4);
            wal.arm_kill(KillPoint::MidCheckpoint);
            let (lsn, ts) = wal.last_appended();
            let err = wal
                .checkpoint(&CheckpointData { lsn, last_ts: ts, tables: vec![] })
                .unwrap_err();
            assert_eq!(err, HatError::EngineStopped);
        }
        let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert!(rec.checkpoint.is_none(), "partial tmp must be ignored");
        assert_eq!(rec.tail.len(), 4, "wal tail still replays fully");
        let tmps = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(tmps, 0, "recovery removes the partial tmp");
    }

    #[test]
    fn group_commit_batches_concurrent_waiters() {
        let dir = test_dir("group");
        let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for j in 0..50u32 {
                        let lsn = wal.append(2 + (i * 50 + j) as u64, &[op(j)]).unwrap();
                        wal.wait_durable(lsn).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.durable_lsn, 400);
        assert!(
            stats.fsyncs < 400,
            "some of the 400 commits must share an fsync (got {})",
            stats.fsyncs
        );
        let batches = &stats.group_commit_batches;
        assert!(batches.quantile(0.99) >= batches.quantile(0.50));
        assert!(batches.quantile(0.50) >= 1);
    }

    #[test]
    fn any_byte_prefix_recovers_a_record_prefix() {
        // Satellite property: shear a valid segment at EVERY byte offset;
        // recovery must yield an exact prefix of the committed history and
        // never fail.
        let dir = test_dir("prefix");
        {
            let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
            append_n(&wal, 6);
        }
        let seg = segment_path(&dir, 1);
        let full = fs::read(&seg).unwrap();
        let scratch = test_dir("prefix-scratch");
        for cut in SEGMENT_HEADER_BYTES as usize..=full.len() {
            let _ = fs::remove_dir_all(&scratch);
            fs::create_dir_all(&scratch).unwrap();
            fs::write(segment_path(&scratch, 1), &full[..cut]).unwrap();
            let (_, rec) = DurableWal::open(cfg(&scratch)).unwrap();
            // An exact prefix: lsns 1..=n with payloads intact.
            for (i, r) in rec.tail.iter().enumerate() {
                assert_eq!(r.lsn, i as u64 + 1, "cut at {cut}");
                assert_eq!(r.commit_ts, i as u64 + 2, "cut at {cut}");
            }
            assert_eq!(
                rec.torn_tail_truncations,
                u64::from(rec.tail.len() < 6 && cut > SEGMENT_HEADER_BYTES as usize && {
                    // A cut exactly on a frame boundary is a clean end,
                    // not a torn record.
                    let mut off = SEGMENT_HEADER_BYTES as usize;
                    let mut on_boundary = cut == off;
                    while off < cut {
                        let len = u32::from_le_bytes(full[off..off + 4].try_into().unwrap())
                            as usize;
                        off += FRAME_HEADER_BYTES + len;
                        if off == cut {
                            on_boundary = true;
                        }
                    }
                    !on_boundary
                }),
                "cut at {cut}"
            );
        }
        let _ = fs::remove_dir_all(&scratch);
    }

    #[test]
    fn crash_discards_pending_without_flush() {
        let dir = test_dir("crash");
        let (wal, _) = DurableWal::open(cfg(&dir)).unwrap();
        append_n(&wal, 2);
        wal.crash();
        assert!(wal.is_crashed());
        assert_eq!(wal.append(9, &[op(1)]), Err(HatError::EngineStopped));
        drop(wal);
        let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.tail.len(), 2);
    }

    // -- disk-fault injection & graceful degradation ------------------------

    #[test]
    fn fsync_fault_degrades_then_scrubber_readmits() {
        let dir = test_dir("fsync-fault");
        // Sync-clock ops are batch fsyncs only (per-class clocks): each
        // serial single-record batch is one fsync, so op 6 is the 7th
        // batch's. The second window op is consumed by the scrubber's
        // failed probe, so exactly one durability claim is voided.
        let plan = DiskFaultPlan::new()
            .with(DiskFault { kind: DiskFaultKind::FsyncFail, at_op: 6, for_ops: 2 });
        let config = WalConfig {
            fault_plan: plan,
            scrub_interval: Duration::from_millis(1),
            ..cfg(&dir)
        };
        let (wal, _) = DurableWal::open(config).unwrap();
        let mut acked: Vec<Lsn> = Vec::new();
        let mut shed = 0u32;
        let mut i = 0u32;
        while acked.len() < 12 {
            i += 1;
            assert!(i < 10_000, "scrubber never re-admitted the device");
            if wal.admit().is_err() {
                shed += 1;
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let lsn = wal.append(i as u64 + 1, &[op(i)]).unwrap();
            match wal.wait_durable(lsn) {
                Ok(()) => acked.push(lsn),
                // Post-install failures are committed-in-doubt, never the
                // clean pre-install `Degraded` (a client honoring the
                // contract would double-apply on blind retry otherwise).
                Err(HatError::DurabilityInDoubt) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let stats = wal.stats();
        assert!(stats.disk_faults >= 1, "fault never injected");
        assert!(shed >= 1, "failed fsync never voided a durability claim");
        assert_eq!(stats.quarantined_segments, 1);
        assert!(stats.scrub_passes >= 1);
        assert!(stats.degraded_ticks >= 1);
        assert_eq!(wal.health(), HealthState::Healthy);
        drop(wal);
        // Reopen on healed storage: every acked commit survived, and
        // nothing appears that was never appended.
        let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
        let recovered: std::collections::HashSet<Lsn> =
            rec.tail.iter().map(|r| r.lsn).collect();
        for lsn in &acked {
            assert!(recovered.contains(lsn), "acked lsn {lsn} lost");
        }
        assert!(recovered.len() <= i as usize, "ghost commits recovered");
    }

    #[test]
    fn persistent_enospc_sheds_writes_but_stays_up() {
        let dir = test_dir("enospc");
        // Write-clock ops: segment create (0), header (1), first batch's
        // frame (2) — the disk fills at op 3 (the second batch's write)
        // and never frees: the WAL must shed, not crash.
        let plan = DiskFaultPlan::new().with(DiskFault {
            kind: DiskFaultKind::WriteEnospc,
            at_op: 3,
            for_ops: u64::MAX,
        });
        let config = WalConfig {
            fault_plan: plan,
            scrub_interval: Duration::from_millis(1),
            ..cfg(&dir)
        };
        let (wal, _) = DurableWal::open(config).unwrap();
        let l1 = wal.append(2, &[op(1)]).unwrap();
        wal.wait_durable(l1).unwrap();
        let l2 = wal.append(3, &[op(2)]).unwrap();
        // The wait-path error is committed-in-doubt (l2 is installed and
        // re-queued); the admission-path error is a clean retryable abort.
        let err = wal.wait_durable(l2).unwrap_err();
        assert_eq!(err, HatError::DurabilityInDoubt);
        assert!(err.is_commit_in_doubt() && err.is_retryable());
        // The scrubber keeps probing, but the device never heals.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(wal.health(), HealthState::Degraded);
        let shed_err = wal.admit().unwrap_err();
        assert_eq!(shed_err, HatError::Degraded);
        assert!(shed_err.is_retryable() && !shed_err.is_commit_in_doubt());
        assert!(!wal.is_crashed(), "a full disk must degrade, not crash");
        let stats = wal.stats();
        assert_eq!(stats.durable_lsn, 1);
        assert!(stats.disk_faults >= 1);
        assert!(stats.scrub_passes >= 1);
        assert!(stats.degraded_ticks >= 1);
        assert!(stats.shed_commits >= 1);
        assert_eq!(stats.quarantined_segments, 1);
        drop(wal);
        // Reopen on healed storage: the acked commit survived; the shed
        // one was never written — no ghosts.
        let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].lsn, 1);
    }

    #[test]
    fn full_backlog_sheds_commits_while_healthy() {
        let dir = test_dir("backlog");
        // Stall the flusher's writes so appends pile up behind it.
        let plan = DiskFaultPlan::new().with(DiskFault {
            kind: DiskFaultKind::WriteStall(Duration::from_millis(100)),
            at_op: 2,
            for_ops: 4,
        });
        let config = WalConfig { fault_plan: plan, max_backlog: 4, ..cfg(&dir) };
        let (wal, _) = DurableWal::open(config).unwrap();
        let mut shed = false;
        let mut last = 0;
        for i in 0..64u32 {
            if wal.admit().is_err() {
                shed = true;
                break;
            }
            last = wal.append(i as u64 + 2, &[op(i)]).unwrap();
        }
        assert!(shed, "backlog bound never shed a commit");
        // Overload is not a fault: health stays green, and everything
        // admitted drains once the stall clears.
        assert_eq!(wal.health(), HealthState::Healthy);
        assert!(wal.stats().shed_commits >= 1);
        wal.wait_durable(last).unwrap();
    }

    #[test]
    fn scrub_treats_vanished_segment_as_benign_gc() {
        // The scrubber lists sealed segments without the state lock, so
        // the checkpointer may prune one below the low-water mark between
        // the listing and the read. A vanished file must verify as benign
        // GC — treating it as corruption would pin `admit()` on the
        // terminal `Quarantined` for what was routine cleanup.
        let dir = test_dir("scrub-race");
        let config = WalConfig { segment_bytes: 256, ..cfg(&dir) };
        let (wal, _) = DurableWal::open(config).unwrap();
        append_n(&wal, 40);
        assert!(
            verify_segment(&wal.inner, 999_999).is_ok(),
            "a pruned segment is not durable-byte loss"
        );
        // The WAL still serves and stays healthy after such a scan.
        assert_eq!(wal.health(), HealthState::Healthy);
        append_n(&wal, 1);
    }

    #[test]
    fn idle_scrubber_does_no_background_io_without_a_fault_plan() {
        // Fault-free benchmark configs must not pay for the scrubber: with
        // an empty plan it parks instead of ticking, so a measured run has
        // zero background verify reads competing with the workload.
        let dir = test_dir("idle-scrub");
        let config = WalConfig { scrub_interval: Duration::from_millis(1), ..cfg(&dir) };
        let (wal, _) = DurableWal::open(config).unwrap();
        append_n(&wal, 8);
        // 200 ms at a 1 ms cadence would be ~3 full verify passes under an
        // always-on scrubber; a parked one never reads a byte.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(wal.stats().scrub_passes, 0, "scrubber ticked while parked");
        append_n(&wal, 1);
        assert_eq!(wal.health(), HealthState::Healthy);
    }

    #[test]
    fn fault_clocks_are_immune_to_scrubber_timing() {
        // Per-class op clocks: the wall-clock-driven scrubber (verify
        // reads, device probes) must not shift where write/sync fault
        // windows land on the flusher. Two identical serial runs under
        // very different scrub cadences inject the same fault count and
        // quarantine the same number of segments.
        let run = |tag: &str, scrub: Duration| -> (u64, u64) {
            let dir = test_dir(tag);
            let plan = DiskFaultPlan::new()
                .with(DiskFault { kind: DiskFaultKind::FsyncFail, at_op: 5, for_ops: 3 })
                .with(DiskFault { kind: DiskFaultKind::WriteEio, at_op: 20, for_ops: 2 });
            let config = WalConfig { fault_plan: plan, scrub_interval: scrub, ..cfg(&dir) };
            let (wal, _) = DurableWal::open(config).unwrap();
            let mut i = 0u32;
            let mut acked = 0u32;
            while acked < 30 {
                i += 1;
                assert!(i < 50_000, "never recovered ({tag})");
                if wal.admit().is_err() {
                    std::thread::sleep(Duration::from_micros(100));
                    continue;
                }
                let lsn = wal.append(i as u64 + 1, &[op(i)]).unwrap();
                match wal.wait_durable(lsn) {
                    Ok(()) => acked += 1,
                    Err(HatError::DurabilityInDoubt) => {}
                    Err(e) => panic!("unexpected error ({tag}): {e}"),
                }
            }
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while wal.health() != HealthState::Healthy {
                assert!(std::time::Instant::now() < deadline, "stuck degraded ({tag})");
                std::thread::sleep(Duration::from_millis(1));
            }
            let stats = wal.stats();
            (stats.disk_faults, stats.quarantined_segments)
        };
        // Each window fails the flusher once and one probe once (the
        // probe's failure consumes the window), whatever the cadence.
        let fast = run("det-fast", Duration::from_millis(1));
        let slow = run("det-slow", Duration::from_millis(10));
        assert_eq!(fast, slow, "scrubber cadence changed the fault schedule");
        assert_eq!(fast, (4, 2));
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        assert_eq!(DiskFaultPlan::seeded(7), DiskFaultPlan::seeded(7));
        assert!(!DiskFaultPlan::seeded(7).is_empty());
        // Not guaranteed for every pair, but these must differ for the
        // CI seed matrix to explore distinct schedules.
        assert_ne!(DiskFaultPlan::seeded(1), DiskFaultPlan::seeded(2));
    }

    #[test]
    fn seeded_chaos_never_loses_acked_commits() {
        for seed in [1u64, 2, 3] {
            let dir = test_dir(&format!("chaos-{seed}"));
            let config = WalConfig {
                fault_plan: DiskFaultPlan::seeded(seed),
                scrub_interval: Duration::from_millis(1),
                segment_bytes: 512,
                ..cfg(&dir)
            };
            let (wal, _) = DurableWal::open(config).unwrap();
            let mut acked: Vec<Lsn> = Vec::new();
            let mut attempts = 0u32;
            while acked.len() < 30 {
                attempts += 1;
                assert!(attempts < 50_000, "seed {seed}: never recovered");
                if wal.admit().is_err() {
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                let lsn = wal.append(attempts as u64 + 1, &[op(attempts)]).unwrap();
                match wal.wait_durable(lsn) {
                    Ok(()) => acked.push(lsn),
                    Err(HatError::DurabilityInDoubt) => {}
                    Err(e) => panic!("seed {seed}: unexpected error: {e}"),
                }
            }
            drop(wal);
            let (_, rec) = DurableWal::open(cfg(&dir)).unwrap();
            let recovered: std::collections::HashSet<Lsn> =
                rec.tail.iter().map(|r| r.lsn).collect();
            for lsn in &acked {
                assert!(recovered.contains(lsn), "seed {seed}: acked lsn {lsn} lost");
            }
        }
    }

    #[test]
    fn fuzzed_wal_bytes_never_panic_or_ghost() {
        // Satellite property: recovery over arbitrarily truncated or
        // bit-flipped WAL directories returns Ok (torn tail) or a
        // classified WalCorrupt/ChecksumMismatch — never a panic, and on
        // Ok never a record that was not appended.
        let base = test_dir("fuzz-base");
        {
            let config = WalConfig { segment_bytes: 256, ..cfg(&base) };
            let (wal, _) = DurableWal::open(config).unwrap();
            append_n(&wal, 24);
            // A mid-history checkpoint so the ckpt parse path is fuzzed
            // too (low water at lsn 8 keeps several segments live).
            wal.checkpoint(&CheckpointData { lsn: 8, last_ts: 10, tables: Vec::new() })
                .unwrap();
        }
        let scratch = test_dir("fuzz-scratch");
        let mut rng = HatRng::seeded(0xF00D);
        for iter in 0..200u32 {
            let _ = fs::remove_dir_all(&scratch);
            fs::create_dir_all(&scratch).unwrap();
            let mut files = Vec::new();
            for e in fs::read_dir(&base).unwrap() {
                let e = e.unwrap();
                let dst = scratch.join(e.file_name());
                fs::copy(e.path(), &dst).unwrap();
                files.push(dst);
            }
            files.sort();
            // Mutate one file: truncate, flip a bit, or both.
            let victim = &files[rng.next_u64() as usize % files.len()];
            let mut bytes = fs::read(victim).unwrap();
            let mode = rng.next_u64() % 3;
            if mode != 1 {
                bytes.truncate(rng.next_u64() as usize % (bytes.len() + 1));
            }
            if mode != 0 && !bytes.is_empty() {
                let at = rng.next_u64() as usize % bytes.len();
                bytes[at] ^= 1 << (rng.next_u64() % 8);
            }
            fs::write(victim, &bytes).unwrap();

            match DurableWal::open(cfg(&scratch)) {
                Ok((_, rec)) => {
                    for r in &rec.tail {
                        // append_n writes commit_ts = lsn + 1; anything
                        // else would be a ghost commit.
                        assert!(
                            r.lsn <= 24 && r.commit_ts == r.lsn + 1,
                            "iter {iter}: ghost record lsn {} ts {}",
                            r.lsn,
                            r.commit_ts
                        );
                    }
                }
                Err(HatError::WalCorrupt { .. }) | Err(HatError::ChecksumMismatch { .. }) => {}
                Err(e) => panic!("iter {iter}: unclassified recovery error: {e}"),
            }
        }
        let _ = fs::remove_dir_all(&scratch);
    }
}
