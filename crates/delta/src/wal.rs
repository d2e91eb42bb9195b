//! Write-ahead logging for delta stores, with pipelined group commit
//! and replay.
//!
//! The paper's trickle path inherits durability from SQL Server's fully
//! logged row-store engine: every delta-store insert and delete-bitmap
//! mark is WAL-protected, so a crash never loses a committed row. This
//! module closes the same gap for the reproduction. Mutations append
//! CRC32-framed records to an append-only, segmented log
//! ([`cstore_storage::log::LogStore`]); commit is *pipelined group
//! commit* — committers buffer frames under a short mutex and park,
//! while a dedicated log-writer thread drains the buffer, appends and
//! fsyncs each stolen batch, and wakes the committers whose LSNs it
//! made durable. Because committers never do IO themselves, batch N+1
//! accumulates while batch N is still fsyncing (and is stolen the
//! moment the fsync completes — flushes themselves are serialized so
//! batches reach storage in LSN order). On open, [`Wal::open`] replays the log into the freshly
//! loaded tables: records at or below a table's persisted LSN watermark
//! are skipped (the generation-stamped save already contains them), a
//! torn tail is truncated at the first bad frame, and — in degraded
//! mode — an unreadable interior segment is quarantined while later
//! segments still apply.
//!
//! ## Durability modes
//!
//! `SET wal_sync = off|group|strict` selects how much of that pipeline
//! a commit waits for (see `DESIGN.md` §8 for the loss-window table):
//!
//! - `off` — the commit is acknowledged as soon as its frames are
//!   buffered; the writer thread flushes behind the caller. A crash can
//!   lose the buffered tail.
//! - `group` (default) — the commit parks until the writer thread has
//!   fsynced its LSN; acknowledged means durable.
//! - `strict` — as `group`, but the committing thread flushes the
//!   buffer itself (leader-style) instead of handing off, trading
//!   batching opportunity for the lowest acknowledge latency.
//!
//! ## Frame format
//!
//! ```text
//! [payload_len: u32][crc32(payload): u32][payload]
//! payload = [lsn: u64][record_type: u8][record body]
//! ```
//!
//! Record types: `1` Insert, `2` Delete, `3` RowGroupSealed (an
//! informational marker, ignored by replay: a bulk load writes one after
//! each compressed group's `InsertBatch` frames, a tuple-mover install
//! one per moved delta store, and [`Wal::try_clear_failure`] one as its
//! probe; group rebuilds and archiving change no row and log nothing),
//! `4` Checkpoint (generation + per-table
//! LSN watermarks; written after a successful save, drives segment
//! retirement), `5` InsertBatch (one frame covering every row of a
//! multi-row statement or bulk-load chunk, so ingest pays one commit
//! obligation per statement instead of one per row). A Delete record
//! carries the full row values as well as the `RowId`: row ids are not
//! stable across replay (re-inserted delta rows get fresh ids,
//! mover-built row groups vanish with the crash), so replay falls back
//! to delete-by-value when the logged id no longer resolves.
//!
//! Multi-statement transactions add framing records: `6` TxnBegin,
//! `7` TxnCommit, `8` TxnAbort, and `9` TxnOp (a transaction id wrapping
//! an ordinary Insert/InsertBatch/Delete body). Replay *buffers* TxnOp
//! records per transaction and applies them only when the matching
//! TxnCommit is decoded — stamped with the commit record's LSN, the
//! transaction's atomicity point. A transaction whose commit record
//! never made it to stable storage (crash, abort, torn tail) is
//! discarded wholesale, which is what makes a multi-statement commit
//! all-or-nothing across any WAL fault point.
//!
//! ## Locks
//!
//! `wal_store` (the segment store + segment index) is held across the
//! physical append/fsync of a flush; `wal_state` (LSN allocator, commit
//! buffer, durable watermark) is only ever held for short critical
//! sections — never across IO. `wal_store` is acquired before
//! `wal_state`, never the other way; a flusher steals the buffer under
//! `wal_state`, *releases it*, and only then takes `wal_store` to
//! flush. At most one flusher (writer thread, strict-mode leader, or
//! recovery probe) is in flight at a time — a `flush_inflight` token in
//! `wal_state` serializes steal+flush so batches reach storage in LSN
//! order, which is what lets a successful flush publish
//! `durable_lsn = max(batch)`. See `LOCK_ORDER.md`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cstore_common::fault::FaultInjector;
use cstore_common::sync::{Condvar, Mutex};
use cstore_common::waits::{self, WaitClass};
use cstore_common::{metrics, Error, Result, Row, RowId};
use cstore_storage::format::{crc32, read_value, write_value, Reader, Writer};
use cstore_storage::log::LogStore;

use crate::table::ColumnStoreTable;

/// Upper bound on a single record frame; anything larger is treated as
/// log corruption rather than attempted as an allocation.
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Histogram bounds for the group-commit batch size (records per flush).
pub const BATCH_BUCKETS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// How much durability a commit waits for. See the module docs and
/// `DESIGN.md` §8; selected per-database with `SET wal_sync = …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSyncMode {
    /// Acknowledge once buffered; the writer thread flushes behind the
    /// caller. Loss window: every frame not yet flushed at the crash.
    Off,
    /// Acknowledge once the writer thread has fsynced the commit's LSN.
    #[default]
    Group,
    /// As `Group`, but the committer flushes inline (leader-style).
    Strict,
}

impl WalSyncMode {
    /// Parse a `SET wal_sync` value (case-insensitive).
    pub fn parse(s: &str) -> Option<WalSyncMode> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(WalSyncMode::Off),
            "group" => Some(WalSyncMode::Group),
            "strict" => Some(WalSyncMode::Strict),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            WalSyncMode::Off => "off",
            WalSyncMode::Group => "group",
            WalSyncMode::Strict => "strict",
        }
    }

    /// Stable numeric form, for storing the mode in an atomic.
    pub fn to_u8(self) -> u8 {
        match self {
            WalSyncMode::Off => 0,
            WalSyncMode::Group => 1,
            WalSyncMode::Strict => 2,
        }
    }

    /// Inverse of [`WalSyncMode::to_u8`]; unknown values decode as the
    /// `Group` default.
    pub fn from_u8(v: u8) -> WalSyncMode {
        match v {
            0 => WalSyncMode::Off,
            2 => WalSyncMode::Strict,
            _ => WalSyncMode::Group,
        }
    }
}

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A trickle insert of one row.
    Insert { table: String, row: Row },
    /// A delete; carries the row values for replay-by-value fallback.
    Delete { table: String, rid: RowId, row: Row },
    /// Tuple mover sealed a delta store into a compressed row group.
    RowGroupSealed {
        table: String,
        group: u32,
        rows: u64,
    },
    /// A generation-stamped save committed; per-table LSN watermarks.
    Checkpoint {
        generation: u64,
        boundaries: Vec<(String, u64)>,
    },
    /// Every row of one multi-row statement or bulk-load chunk under a
    /// single LSN: replay applies all of them or none (watermark check
    /// on the one LSN), and ingest pays one commit for the whole frame.
    InsertBatch { table: String, rows: Vec<Row> },
    /// An explicit transaction opened (`BEGIN`).
    TxnBegin { txn: u64 },
    /// The transaction's atomicity point: replay applies the buffered
    /// TxnOp records of `txn` when (and only when) this record is seen.
    TxnCommit { txn: u64 },
    /// The transaction rolled back; replay discards its buffered ops.
    /// Informational — a missing abort record (crash) discards too.
    TxnAbort { txn: u64 },
    /// One DML operation inside an open transaction: an ordinary
    /// Insert/InsertBatch/Delete body tagged with the owning txn id.
    /// Logged at statement time, applied (or discarded) at commit.
    TxnOp { txn: u64, op: Box<WalRecord> },
}

impl WalRecord {
    fn type_tag(&self) -> u8 {
        match self {
            WalRecord::Insert { .. } => 1,
            WalRecord::Delete { .. } => 2,
            WalRecord::RowGroupSealed { .. } => 3,
            WalRecord::Checkpoint { .. } => 4,
            WalRecord::InsertBatch { .. } => 5,
            WalRecord::TxnBegin { .. } => 6,
            WalRecord::TxnCommit { .. } => 7,
            WalRecord::TxnAbort { .. } => 8,
            WalRecord::TxnOp { .. } => 9,
        }
    }

    fn encode_body(&self, w: &mut Writer) -> Result<()> {
        match self {
            WalRecord::Insert { table, row } => {
                w.lp_bytes(table.as_bytes())?;
                write_row(w, row)?;
            }
            WalRecord::Delete { table, rid, row } => {
                w.lp_bytes(table.as_bytes())?;
                w.u64(rid.pack());
                write_row(w, row)?;
            }
            WalRecord::RowGroupSealed { table, group, rows } => {
                w.lp_bytes(table.as_bytes())?;
                w.u32(*group);
                w.u64(*rows);
            }
            WalRecord::Checkpoint {
                generation,
                boundaries,
            } => {
                w.u64(*generation);
                w.u32(boundaries.len() as u32);
                for (table, lsn) in boundaries {
                    w.lp_bytes(table.as_bytes())?;
                    w.u64(*lsn);
                }
            }
            WalRecord::InsertBatch { table, rows } => {
                w.lp_bytes(table.as_bytes())?;
                w.u32(rows.len() as u32);
                for row in rows {
                    write_row(w, row)?;
                }
            }
            WalRecord::TxnBegin { txn }
            | WalRecord::TxnCommit { txn }
            | WalRecord::TxnAbort { txn } => {
                w.u64(*txn);
            }
            WalRecord::TxnOp { txn, op } => {
                w.u64(*txn);
                w.u8(op.type_tag());
                op.encode_body(w)?;
            }
        }
        Ok(())
    }

    fn decode_body(tag: u8, r: &mut Reader<'_>) -> Result<WalRecord> {
        let read_name = |r: &mut Reader<'_>| -> Result<String> {
            String::from_utf8(r.lp_bytes()?.to_vec())
                .map_err(|_| Error::Storage("WAL record table name is not UTF-8".into()))
        };
        match tag {
            1 => Ok(WalRecord::Insert {
                table: read_name(r)?,
                row: read_row(r)?,
            }),
            2 => Ok(WalRecord::Delete {
                table: read_name(r)?,
                rid: RowId::unpack(r.u64()?),
                row: read_row(r)?,
            }),
            3 => Ok(WalRecord::RowGroupSealed {
                table: read_name(r)?,
                group: r.u32()?,
                rows: r.u64()?,
            }),
            4 => {
                let generation = r.u64()?;
                let n = r.u32()? as usize;
                let mut boundaries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let table = read_name(r)?;
                    boundaries.push((table, r.u64()?));
                }
                Ok(WalRecord::Checkpoint {
                    generation,
                    boundaries,
                })
            }
            5 => {
                let table = read_name(r)?;
                let n = r.u32()? as usize;
                if n > 1 << 24 {
                    return Err(Error::Storage(format!(
                        "WAL insert batch has absurd cardinality {n}"
                    )));
                }
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    rows.push(read_row(r)?);
                }
                Ok(WalRecord::InsertBatch { table, rows })
            }
            6 => Ok(WalRecord::TxnBegin { txn: r.u64()? }),
            7 => Ok(WalRecord::TxnCommit { txn: r.u64()? }),
            8 => Ok(WalRecord::TxnAbort { txn: r.u64()? }),
            9 => {
                let txn = r.u64()?;
                let inner = r.u8()?;
                // Only plain DML may ride inside a transaction: a nested
                // TxnOp, a Checkpoint, or a mover marker inside a frame
                // is corruption, not a valid log.
                if !matches!(inner, 1 | 2 | 5) {
                    return Err(Error::Storage(format!(
                        "WAL TxnOp wraps invalid inner record type {inner}"
                    )));
                }
                let op = WalRecord::decode_body(inner, r)?;
                Ok(WalRecord::TxnOp {
                    txn,
                    op: Box::new(op),
                })
            }
            other => Err(Error::Storage(format!("unknown WAL record type {other}"))),
        }
    }
}

fn write_row(w: &mut Writer, row: &Row) -> Result<()> {
    w.u32(row.len() as u32);
    for v in row.values() {
        write_value(w, v)?;
    }
    Ok(())
}

fn read_row(r: &mut Reader<'_>) -> Result<Row> {
    let n = r.u32()? as usize;
    if n > 1 << 20 {
        return Err(Error::Storage(format!("WAL row has absurd arity {n}")));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(read_value(r)?);
    }
    Ok(Row::new(values))
}

/// Encode one frame: `[len][crc][payload]` with `payload = [lsn][tag][body]`.
fn encode_frame(lsn: u64, record: &WalRecord) -> Result<Vec<u8>> {
    let mut payload = Writer::new();
    payload.u64(lsn);
    payload.u8(record.type_tag());
    record.encode_body(&mut payload)?;
    let payload = payload.into_bytes();
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Why frame decoding stopped partway through a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FrameStop {
    /// Clean end of segment.
    End,
    /// Incomplete or CRC-failing frame starting at this byte offset.
    Bad { offset: u64, reason: String },
}

/// Decode frames sequentially, calling `f` per record. Returns where and
/// why decoding stopped.
fn decode_frames(
    bytes: &[u8],
    mut f: impl FnMut(u64, WalRecord) -> Result<()>,
) -> Result<FrameStop> {
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < 8 {
            return Ok(FrameStop::Bad {
                offset: off as u64,
                reason: format!("truncated frame header ({} bytes)", rest.len()),
            });
        }
        // lint: allow(unwrap) — slice length checked ≥ 8 above
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        // lint: allow(unwrap) — slice length checked ≥ 8 above
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            return Ok(FrameStop::Bad {
                offset: off as u64,
                reason: format!("frame length {len} exceeds limit"),
            });
        }
        let len = len as usize;
        if rest.len() < 8 + len {
            return Ok(FrameStop::Bad {
                offset: off as u64,
                reason: format!("torn frame: {} of {} payload bytes", rest.len() - 8, len),
            });
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            return Ok(FrameStop::Bad {
                offset: off as u64,
                reason: "frame CRC mismatch".into(),
            });
        }
        let mut r = Reader::new(payload);
        let lsn = r.u64()?;
        let tag = r.u8()?;
        let record = WalRecord::decode_body(tag, &mut r).map_err(|e| {
            Error::Storage(format!(
                "WAL frame at offset {off} decodes but is invalid: {e}"
            ))
        })?;
        f(lsn, record)?;
        off += 8 + len;
    }
    Ok(FrameStop::End)
}

/// Tuning knobs for the WAL.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub segment_bytes: u64,
    /// Strict open fails on an unreadable *interior* segment; degraded
    /// open quarantines it and keeps going. A torn tail in the *last*
    /// segment is normal crash debris and is truncated in both modes.
    pub strict: bool,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            strict: false,
        }
    }
}

/// A quarantined (unreadable) log segment noted during replay.
#[derive(Debug, Clone)]
pub struct SegmentQuarantine {
    pub segment: u64,
    pub reason: String,
}

/// What [`Wal::open`] found and did during replay.
#[derive(Debug, Clone, Default)]
pub struct WalReplayReport {
    /// Frames decoded across all segments.
    pub records_scanned: u64,
    /// Records applied to a table (insert/delete past its watermark).
    pub records_applied: u64,
    /// Records skipped because the save already contained them.
    pub records_below_watermark: u64,
    /// Records naming a table the catalog no longer (or not yet) has.
    pub records_unknown_table: u64,
    /// Delete records whose row could not be located (already gone).
    pub deletes_unmatched: u64,
    /// Truncation events (0 or 1: the torn tail, when present).
    pub records_truncated: u64,
    /// Torn tail truncated from the final segment, if any:
    /// (segment, offset, reason).
    pub torn_tail: Option<(u64, u64, String)>,
    /// Unreadable interior segments quarantined in degraded mode.
    pub quarantined: Vec<SegmentQuarantine>,
    /// Last checkpoint record seen: (generation, lsn).
    pub last_checkpoint: Option<(u64, u64)>,
    /// Highest LSN seen in the log.
    pub max_lsn: u64,
    /// Transactions whose TxnCommit was decoded and whose buffered ops
    /// were applied (or skipped below-watermark as a unit).
    pub txns_committed: u64,
    /// Transactions discarded: an explicit TxnAbort, or no commit record
    /// by the end of the log (crash between TxnBegin and TxnCommit).
    pub txns_discarded: u64,
}

impl WalReplayReport {
    /// True when replay saw no corruption of any kind.
    pub fn is_clean(&self) -> bool {
        self.torn_tail.is_none() && self.quarantined.is_empty()
    }
}

/// Per-segment bookkeeping for retirement decisions.
#[derive(Debug, Clone, Copy)]
struct SegmentInfo {
    bytes: u64,
    max_lsn: u64,
}

/// State behind the `wal_store` lock: the physical segment store.
struct StoreState {
    store: Box<dyn LogStore>,
    /// Existing segments and their stats, keyed by id (sorted).
    segments: BTreeMap<u64, SegmentInfo>,
    /// Segment currently receiving appends.
    active: u64,
    faults: Option<FaultInjector>,
}

impl StoreState {
    /// Move to a fresh, durably created segment.
    fn rotate(&mut self) -> Result<()> {
        let next = self.active + 1;
        self.store.create(next)?;
        self.segments.insert(
            next,
            SegmentInfo {
                bytes: 0,
                max_lsn: 0,
            },
        );
        self.active = next;
        Ok(())
    }
}

/// State behind the `wal_state` lock: LSNs, the commit buffer, counters.
#[derive(Default)]
struct WalState {
    next_lsn: u64,
    durable_lsn: u64,
    /// Buffered (lsn, frame) pairs awaiting the next group flush.
    buffer: Vec<(u64, Vec<u8>)>,
    /// A flush failed; the WAL refuses further work (durability of
    /// anything not yet acknowledged is unknown).
    failed: Option<String>,
    /// LSN ranges `(above, below]` that rode a flush that failed: those
    /// frames are gone (or of unknown durability), so their committers
    /// must observe an error *even after* a recovery probe clears
    /// `failed` and pushes `durable_lsn` past them. Ranges are open
    /// below at the durable watermark as of the failure, so LSNs that
    /// were already durable before the failed flush are never reported
    /// lost.
    lost: Vec<(u64, u64)>,
    /// A stolen batch is currently being appended/fsynced. Exactly one
    /// flusher (the writer thread, a strict-mode leader, or a recovery
    /// probe) may hold this at a time: `durable_lsn = max(batch)` in
    /// [`WalCore::finish_flush`] is only correct if batches reach
    /// storage in the LSN order they were stolen in.
    flush_inflight: bool,
    /// The log-writer thread exits once this is set and the buffer is
    /// drained; set by `Wal::drop`.
    shutdown: bool,
    /// The dedicated log-writer thread; joined on `Wal::drop`.
    writer: Option<std::thread::JoinHandle<()>>,
    counters: WalCounters,
}

impl WalState {
    /// Give an encoded frame the next LSN and queue it for the next
    /// flush. The frame was encoded with a placeholder LSN: patch the
    /// real one in (offset 8 = after len+crc), then fix the CRC over
    /// the payload.
    fn buffer_frame(&mut self, mut frame: Vec<u8>) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        frame[8..16].copy_from_slice(&lsn.to_le_bytes());
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.counters.records_appended += 1;
        self.counters.bytes_appended += frame.len() as u64;
        self.buffer.push((lsn, frame));
        lsn
    }
}

/// Cumulative counters surfaced via `sys.wal` and the metrics registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalCounters {
    pub records_appended: u64,
    pub bytes_appended: u64,
    pub fsyncs: u64,
    pub flushes: u64,
    pub checkpoints: u64,
    pub segments_retired: u64,
    pub records_replayed: u64,
    pub records_truncated: u64,
    pub segments_quarantined: u64,
}

/// Point-in-time WAL status for introspection (`sys.wal`).
#[derive(Debug, Clone)]
pub struct WalStatus {
    pub segment_count: u64,
    pub active_segment: u64,
    pub tail_lsn: u64,
    pub durable_lsn: u64,
    pub last_checkpoint: Option<(u64, u64)>,
    pub sync_mode: WalSyncMode,
    pub counters: WalCounters,
    pub failed: Option<String>,
}

/// Shared WAL internals: everything the log-writer thread needs without
/// keeping the public [`Wal`] (and therefore its drop-driven shutdown)
/// alive. `Wal` is a thin handle around this.
struct WalCore {
    wal_store: Mutex<StoreState>,
    wal_state: Mutex<WalState>,
    /// Committers park here; the flusher (writer thread or strict-mode
    /// leader) notifies after every durable-LSN or failure update.
    flushed: Condvar,
    /// The log-writer thread parks here when the buffer is empty (or the
    /// WAL is failed); committers and shutdown notify it.
    work: Condvar,
    /// Current `SET wal_sync` mode (a `WalSyncMode` as u8).
    sync_mode: AtomicU8,
    options: WalOptions,
    /// Last checkpoint (generation, lsn) — updated on `checkpoint`.
    last_checkpoint: Mutex<Option<(u64, u64)>>,
}

/// The write-ahead log. Shared (`Arc`) between the database and every
/// column-store table wired to it; dropping the last handle shuts down
/// and joins the log-writer thread (draining any buffered tail).
pub struct Wal {
    core: Arc<WalCore>,
}

/// The dedicated log-writer thread: steal the commit buffer under
/// `wal_state`, release the lock, flush (append + fsync) under
/// `wal_store`, publish the outcome, repeat. Committers keep buffering
/// batch N+1 while batch N is in flight here — that is the pipelining.
/// A failed WAL parks the writer until a probe clears it; shutdown
/// drains whatever is still flushable, then exits.
fn writer_loop(core: Arc<WalCore>) {
    loop {
        let batch = {
            let mut st = core.wal_state.lock();
            // Never steal while another flusher (a strict-mode leader or
            // a recovery probe) is in flight — even during shutdown —
            // or two batches could race for storage and fsync out of
            // LSN order. `finish_flush` notifies `work` when it clears
            // the token.
            while st.flush_inflight
                || (!st.shutdown && (st.failed.is_some() || st.buffer.is_empty()))
            {
                st = core.work.wait(st);
            }
            if st.failed.is_some() || st.buffer.is_empty() {
                // Shutting down with nothing flushable left.
                return;
            }
            st.flush_inflight = true;
            std::mem::take(&mut st.buffer)
        };
        let res = core.flush_batch(&batch);
        if let Err(_e) = core.finish_flush(&batch, res) {
            // The failure is recorded sticky in `wal_state` and surfaced
            // to every committer; the writer parks until a probe clears.
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let handle = {
            let mut st = self.core.wal_state.lock();
            st.shutdown = true;
            st.writer.take()
        };
        self.core.work.notify_all();
        if let Some(h) = handle {
            // lint: allow(discard) — the writer thread returns no payload
            let _ = h.join();
        }
    }
}

impl Wal {
    /// Open the log in `store`: scan every segment, replay records past
    /// each table's persisted watermark into `tables`, truncate a torn
    /// tail, position the log for appending, and start the log-writer
    /// thread. `tables` maps lower-cased table names to their freshly
    /// loaded tables.
    pub fn open(
        mut store: Box<dyn LogStore>,
        options: WalOptions,
        faults: Option<FaultInjector>,
        tables: &[(String, ColumnStoreTable)],
    ) -> Result<(Arc<Wal>, WalReplayReport)> {
        let mut report = WalReplayReport::default();
        let by_name: BTreeMap<String, &ColumnStoreTable> = tables
            .iter()
            .map(|(n, t)| (n.to_ascii_lowercase(), t))
            .collect();

        let ids = store.segment_ids()?;
        let mut segments = BTreeMap::new();
        let last_seg = ids.last().copied();
        // In-flight transactions: TxnOp frames buffer here (in log
        // order, across segment boundaries) until their TxnCommit
        // applies them or a TxnAbort / end-of-log discards them.
        let mut pending_txns: BTreeMap<u64, Vec<WalRecord>> = BTreeMap::new();
        for seg in &ids {
            let seg = *seg;
            if let Some(f) = &faults {
                if let Some(kind) = f.hit("wal.replay") {
                    Self::note_unreadable(
                        seg,
                        kind.to_error("wal.replay").to_string(),
                        options.strict,
                        &mut report,
                    )?;
                    segments.insert(
                        seg,
                        SegmentInfo {
                            bytes: 0,
                            max_lsn: 0,
                        },
                    );
                    continue;
                }
            }
            let bytes = match store.read(seg) {
                Ok(b) => b,
                Err(e) => {
                    Self::note_unreadable(seg, e.to_string(), options.strict, &mut report)?;
                    segments.insert(
                        seg,
                        SegmentInfo {
                            bytes: 0,
                            max_lsn: 0,
                        },
                    );
                    continue;
                }
            };
            let mut seg_max_lsn = 0u64;
            let stop = decode_frames(&bytes, |lsn, record| {
                report.records_scanned += 1;
                seg_max_lsn = seg_max_lsn.max(lsn);
                report.max_lsn = report.max_lsn.max(lsn);
                Self::apply_record(lsn, record, &by_name, &mut pending_txns, &mut report)
            })?;
            let mut seg_bytes = bytes.len() as u64;
            if let FrameStop::Bad { offset, reason } = stop {
                if Some(seg) == last_seg {
                    // Torn tail: normal crash debris. Truncate durably so
                    // new appends land after a valid prefix.
                    let dropped = bytes.len() as u64 - offset;
                    store.truncate(seg, offset)?;
                    seg_bytes = offset;
                    report.records_truncated += 1;
                    report.torn_tail =
                        Some((seg, offset, format!("{reason} ({dropped} bytes dropped)")));
                } else {
                    // Corruption in the interior of the log: later
                    // segments hold acknowledged records, so this is real
                    // damage, not a crash tail.
                    Self::note_unreadable(
                        seg,
                        format!("bad frame at offset {offset}: {reason}"),
                        options.strict,
                        &mut report,
                    )?;
                }
            }
            segments.insert(
                seg,
                SegmentInfo {
                    bytes: seg_bytes,
                    max_lsn: seg_max_lsn,
                },
            );
        }

        // Transactions still open at the end of the log never committed:
        // the crash (or a retired abort record) beat their TxnCommit.
        // Their buffered ops are simply dropped — all-or-nothing.
        report.txns_discarded += pending_txns.len() as u64;
        drop(pending_txns);

        // Position for appending: continue the last segment, or start one.
        let active = match last_seg {
            Some(id) => id,
            None => {
                store.create(1)?;
                segments.insert(
                    1,
                    SegmentInfo {
                        bytes: 0,
                        max_lsn: 0,
                    },
                );
                1
            }
        };

        let counters = WalCounters {
            records_replayed: report.records_applied,
            records_truncated: report.records_truncated,
            segments_quarantined: report.quarantined.len() as u64,
            ..Default::default()
        };
        let m = metrics::global();
        m.add("cstore_wal_replayed_records_total", report.records_applied);
        m.add(
            "cstore_wal_truncated_records_total",
            report.records_truncated,
        );
        m.add(
            "cstore_wal_quarantined_segments_total",
            report.quarantined.len() as u64,
        );

        let core = Arc::new(WalCore {
            wal_store: Mutex::new_leveled(
                9,
                "wal.store",
                StoreState {
                    store,
                    segments,
                    active,
                    faults,
                },
            ),
            wal_state: Mutex::new_leveled(
                10,
                "wal.state",
                WalState {
                    next_lsn: report.max_lsn + 1,
                    durable_lsn: report.max_lsn,
                    counters,
                    ..Default::default()
                },
            ),
            flushed: Condvar::new(),
            work: Condvar::new(),
            sync_mode: AtomicU8::new(WalSyncMode::default().to_u8()),
            options,
            last_checkpoint: Mutex::new_leveled(11, "wal.ckpt", report.last_checkpoint),
        });
        let writer = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("cstore-wal-writer".into())
                .spawn(move || writer_loop(core))
                // lint: allow(unwrap) — thread spawn fails only on OS
                // resource exhaustion, at which point nothing works
                .expect("spawn WAL writer thread")
        };
        core.wal_state.lock().writer = Some(writer);
        Ok((Arc::new(Wal { core }), report))
    }

    fn note_unreadable(
        seg: u64,
        reason: String,
        strict: bool,
        report: &mut WalReplayReport,
    ) -> Result<()> {
        if strict {
            return Err(Error::Storage(format!(
                "WAL segment {seg} is unreadable: {reason}"
            )));
        }
        report.quarantined.push(SegmentQuarantine {
            segment: seg,
            reason,
        });
        Ok(())
    }

    fn apply_record(
        lsn: u64,
        record: WalRecord,
        tables: &BTreeMap<String, &ColumnStoreTable>,
        pending_txns: &mut BTreeMap<u64, Vec<WalRecord>>,
        report: &mut WalReplayReport,
    ) -> Result<()> {
        let records = match record {
            WalRecord::TxnBegin { txn } => {
                pending_txns.insert(txn, Vec::new());
                return Ok(());
            }
            WalRecord::TxnOp { txn, op } => {
                // A TxnOp whose TxnBegin fell into a retired/quarantined
                // segment still buffers: only the commit record decides.
                pending_txns.entry(txn).or_default().push(*op);
                return Ok(());
            }
            WalRecord::TxnAbort { txn } => {
                if pending_txns.remove(&txn).is_some() {
                    report.txns_discarded += 1;
                }
                return Ok(());
            }
            WalRecord::TxnCommit { txn } => {
                report.txns_committed += 1;
                // No buffered ops: the whole transaction (begin + ops +
                // commit) was already covered by a save and its segments
                // retired, or it was read-only. Nothing to do.
                pending_txns.remove(&txn).unwrap_or_default()
            }
            WalRecord::RowGroupSealed { .. } => {
                // Informational: replay re-inserts the rows as delta rows;
                // the mover will re-seal them in due course.
                return Ok(());
            }
            WalRecord::Checkpoint { generation, .. } => {
                report.last_checkpoint = Some((generation, lsn));
                return Ok(());
            }
            dml => {
                if let Some((table, op)) = TxnApplyOp::from_record(dml) {
                    Self::replay(lsn, &table, vec![op], tables, report)?;
                }
                return Ok(());
            }
        };
        // Group the transaction's ops by table, preserving per-table log
        // order (the order that makes a delete of its own insert resolve),
        // and stamp each group with the commit record's LSN.
        let mut by_table: Vec<(String, Vec<TxnApplyOp>)> = Vec::new();
        for (name, op) in records.into_iter().filter_map(TxnApplyOp::from_record) {
            match by_table
                .iter_mut()
                .find(|(n, _)| n.eq_ignore_ascii_case(&name))
            {
                Some((_, ops)) => ops.push(op),
                None => by_table.push((name, vec![op])),
            }
        }
        for (name, ops) in by_table {
            Self::replay(lsn, &name, ops, tables, report)?;
        }
        Ok(())
    }

    /// Replay one record's worth of `ops` into `table` and count the
    /// outcome in `report`.
    fn replay(
        lsn: u64,
        table: &str,
        ops: Vec<TxnApplyOp>,
        tables: &BTreeMap<String, &ColumnStoreTable>,
        report: &mut WalReplayReport,
    ) -> Result<()> {
        let Some(t) = tables.get(&table.to_ascii_lowercase()) else {
            report.records_unknown_table += 1;
            return Ok(());
        };
        match t.wal_apply(lsn, ops)? {
            Some(misses) => {
                report.records_applied += 1;
                report.deletes_unmatched += misses;
            }
            None => report.records_below_watermark += 1,
        }
        Ok(())
    }

    /// Append a record to the commit buffer, returning its LSN. Cheap:
    /// encodes the frame and pushes it under the `wal_state` lock; call
    /// [`Wal::commit`] (after releasing any table lock) to make it
    /// durable. Safe to call while holding a table's write lock.
    pub fn log(&self, record: &WalRecord) -> Result<u64> {
        let lsn = self.log_all(std::slice::from_ref(record))?;
        Ok(lsn.unwrap_or_default())
    }

    /// [`Wal::log`] for several records under **one** `wal_state`
    /// critical section: they get consecutive LSNs and the log-writer
    /// thread cannot steal part of them, so they reach storage in one
    /// flush. Returns the last record's LSN (`None` for no records).
    pub fn log_all(&self, records: &[WalRecord]) -> Result<Option<u64>> {
        let frames = records
            .iter()
            .map(|r| encode_frame(0, r))
            .collect::<Result<Vec<_>>>()?;
        let mut st = self.core.wal_state.lock();
        if let Some(e) = &st.failed {
            return Err(Error::Storage(format!("WAL is failed: {e}")));
        }
        Ok(frames.into_iter().map(|f| st.buffer_frame(f)).last())
    }

    /// Make every record up to `lsn` durable per the current
    /// [`WalSyncMode`]: park until the writer thread flushes it
    /// (`group`), flush it ourselves (`strict`), or acknowledge
    /// immediately and let the writer catch up (`off`). Must not be
    /// called while holding a table lock.
    pub fn commit(&self, lsn: u64) -> Result<()> {
        self.commit_mode(lsn, self.sync_mode())
    }

    /// Like [`Wal::commit`] but always waits for durability regardless
    /// of the session `wal_sync` mode. Checkpoints and recovery probes
    /// must not be acknowledged before they reach stable storage.
    pub fn sync_commit(&self, lsn: u64) -> Result<()> {
        self.commit_mode(lsn, WalSyncMode::Strict)
    }

    fn commit_mode(&self, lsn: u64, mode: WalSyncMode) -> Result<()> {
        let start = Instant::now();
        let mut waited = false;
        let result = self.commit_mode_inner(lsn, mode, &mut waited);
        if waited {
            // Charged to the committing query's wait frame: time parked
            // on the group-commit condvar, or spent leading a strict
            // flush on the group's behalf. The fast paths (already
            // durable, `off` ack) record nothing.
            waits::observe(WaitClass::WalCommit, start.elapsed());
        }
        result
    }

    fn commit_mode_inner(&self, lsn: u64, mode: WalSyncMode, waited: &mut bool) -> Result<()> {
        let mut st = self.core.wal_state.lock();
        loop {
            // Order matters: a records-lost check must precede the
            // durable check, because a successful recovery probe pushes
            // `durable_lsn` *past* the LSNs that rode the failed flush —
            // without this, a committer woken after the probe would see
            // durable ≥ lsn and acknowledge a lost record. Ranges, not a
            // floor: LSNs already durable *before* the failed flush are
            // on disk and must still acknowledge cleanly.
            if let Some(&(above, below)) = st
                .lost
                .iter()
                .find(|&&(above, below)| above < lsn && lsn <= below)
            {
                return Err(Error::Storage(format!(
                    "WAL records in LSN range ({above}, {below}] were lost in a failed flush"
                )));
            }
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if let Some(e) = &st.failed {
                return Err(Error::Storage(format!("WAL is failed: {e}")));
            }
            match mode {
                WalSyncMode::Off => {
                    // Acknowledge now; the writer thread flushes behind
                    // us. The loss window is the buffered tail.
                    drop(st);
                    self.core.work.notify_one();
                    return Ok(());
                }
                WalSyncMode::Strict if !st.buffer.is_empty() && !st.flush_inflight => {
                    // Leader path: flush the buffer ourselves instead of
                    // handing off to the writer thread. Only with the
                    // flush token in hand — a second concurrent flusher
                    // would race for storage and could fsync batches out
                    // of LSN order, breaking `durable_lsn = max(batch)`.
                    // If a flush is already in flight we park below and
                    // re-evaluate when it completes.
                    st.flush_inflight = true;
                    let batch = std::mem::take(&mut st.buffer);
                    drop(st);
                    *waited = true;
                    self.core
                        .finish_flush(&batch, self.core.flush_batch(&batch))?;
                    st = self.core.wal_state.lock();
                }
                _ => {
                    // Hand the buffered batch to the writer thread and
                    // park until it publishes our LSN (or a failure).
                    *waited = true;
                    self.core.work.notify_one();
                    st = self.core.flushed.wait(st);
                }
            }
        }
    }

    /// Convenience for tests: `log` + `commit` in one call.
    #[cfg(test)]
    pub fn log_and_commit(&self, record: &WalRecord) -> Result<u64> {
        let lsn = self.log(record)?;
        self.commit(lsn)?;
        Ok(lsn)
    }

    /// Current `SET wal_sync` durability mode.
    pub fn sync_mode(&self) -> WalSyncMode {
        WalSyncMode::from_u8(self.core.sync_mode.load(Ordering::Relaxed))
    }

    /// Switch the durability mode. Takes effect for subsequent commits;
    /// in-flight commits finish under the mode they started with.
    pub fn set_sync_mode(&self, mode: WalSyncMode) {
        self.core.sync_mode.store(mode.to_u8(), Ordering::Relaxed);
        // Leaving `off`: anything acknowledged under the old mode should
        // stop being a loss window as soon as possible.
        self.core.work.notify_one();
    }

    /// Record a committed save: rotate to a fresh segment, append and
    /// fsync a Checkpoint record, then retire segments wholly covered by
    /// the save (`max_lsn` ≤ the smallest per-table watermark). Returns
    /// the number of segments retired. Always durable, even under
    /// `wal_sync = off`.
    pub fn checkpoint(&self, generation: u64, boundaries: Vec<(String, u64)>) -> Result<u64> {
        let floor = boundaries
            .iter()
            .map(|(_, lsn)| *lsn)
            .min()
            .unwrap_or(u64::MAX);
        {
            let mut ss = self.core.wal_store.lock();
            let active_nonempty = ss.segments.get(&ss.active).is_some_and(|i| i.bytes > 0);
            if active_nonempty {
                ss.rotate()?;
            }
        }
        let lsn = self.log(&WalRecord::Checkpoint {
            generation,
            boundaries,
        })?;
        self.sync_commit(lsn)?;
        let mut retired = 0u64;
        {
            let mut ss = self.core.wal_store.lock();
            let retirable: Vec<u64> = ss
                .segments
                .iter()
                .filter(|(&id, info)| id != ss.active && info.max_lsn <= floor)
                .map(|(&id, _)| id)
                .collect();
            for id in retirable {
                ss.store.remove(id)?;
                ss.segments.remove(&id);
                retired += 1;
            }
        }
        {
            let mut st = self.core.wal_state.lock();
            st.counters.checkpoints += 1;
            st.counters.segments_retired += retired;
        }
        *self.core.last_checkpoint.lock() = Some((generation, lsn));
        let m = metrics::global();
        m.add("cstore_wal_checkpoints_total", 1);
        m.add("cstore_wal_retired_segments_total", retired);
        Ok(retired)
    }

    /// Attempt to clear a sticky flush failure by proving the log can
    /// accept writes again: append and fsync a probe record — plus any
    /// frames still sitting in the commit buffer — through the real IO
    /// path (including the `wal.append`/`wal.fsync` fault points). On
    /// success the failure clears and logging resumes; on failure the
    /// WAL stays failed and the probe error is returned. Records that
    /// rode the *original* failed flush stay lost either way: their
    /// committers keep observing an error (see `WalState::lost`). A healthy
    /// WAL returns `Ok` without touching storage. Called by the
    /// database's health state machine during recovery probing.
    pub fn try_clear_failure(&self) -> Result<()> {
        let (mut batch, probe_lsn) = {
            let mut st = self.core.wal_state.lock();
            // Serialize with any in-flight flush (including a racing
            // probe): the single-flusher invariant holds here too.
            loop {
                if st.failed.is_none() {
                    return Ok(());
                }
                if !st.flush_inflight {
                    break;
                }
                st = self.core.flushed.wait(st);
            }
            st.flush_inflight = true;
            let lsn = st.next_lsn;
            st.next_lsn += 1;
            // Take the frames buffered behind the failure with us: they
            // were never acknowledged, and flushing them alongside the
            // probe means their (still-parked or future) committers can
            // legitimately see durable ≥ lsn afterwards.
            (std::mem::take(&mut st.buffer), lsn)
        };
        // The probe is a RowGroupSealed marker: informational at replay,
        // so a successfully probed-but-then-crashed log replays cleanly.
        let frame = encode_frame(
            probe_lsn,
            &WalRecord::RowGroupSealed {
                table: "<wal.probe>".into(),
                group: 0,
                rows: 0,
            },
        )?;
        let frame_len = frame.len() as u64;
        batch.push((probe_lsn, frame));
        let res = self.core.flush_batch(&batch);
        let mut st = self.core.wal_state.lock();
        st.flush_inflight = false;
        match res {
            Ok(()) => {
                st.durable_lsn = st.durable_lsn.max(probe_lsn);
                st.counters.records_appended += 1;
                st.counters.bytes_appended += frame_len;
                st.counters.flushes += 1;
                st.counters.fsyncs += 1;
                st.failed = None;
            }
            Err(e) => {
                // The probe batch (buffered frames included) is now of
                // unknown durability too; everything in it sits above
                // the (unchanged) durable watermark.
                if probe_lsn > st.durable_lsn {
                    let lost = (st.durable_lsn, probe_lsn);
                    st.lost.push(lost);
                }
                st.failed = Some(e.to_string());
                drop(st);
                self.core.flushed.notify_all();
                return Err(e);
            }
        }
        drop(st);
        self.core.flushed.notify_all();
        self.core.work.notify_one();
        Ok(())
    }

    /// Consult the WAL's fault injector at `point` (used by the
    /// transaction layer for the `wal.txn_begin` / `wal.txn_commit` /
    /// `wal.txn_abort` points, which wrap whole framing records rather
    /// than individual appends). No-op without an injector.
    pub fn fault_check(&self, point: &str) -> Result<()> {
        let ss = self.core.wal_store.lock();
        if let Some(f) = &ss.faults {
            if let Some(kind) = f.hit(point) {
                return Err(kind.to_error(point));
            }
        }
        Ok(())
    }

    /// Highest LSN handed out so far (0 if none).
    pub fn tail_lsn(&self) -> u64 {
        self.core.wal_state.lock().next_lsn.saturating_sub(1)
    }

    /// The sticky failure, if the log has one — [`WalStatus::failed`]
    /// without the rest of the status, and so without `wal_store`, which
    /// the log writer holds for the length of every append + fsync. The
    /// health check in front of each write statement reads this; through
    /// [`Wal::status`] it queued behind whichever flush was in flight.
    pub fn failure(&self) -> Option<String> {
        self.core.wal_state.lock().failed.clone()
    }

    /// Point-in-time status snapshot for `sys.wal`.
    pub fn status(&self) -> WalStatus {
        let (segment_count, active_segment) = {
            let ss = self.core.wal_store.lock();
            (ss.segments.len() as u64, ss.active)
        };
        let st = self.core.wal_state.lock();
        WalStatus {
            segment_count,
            active_segment,
            tail_lsn: st.next_lsn.saturating_sub(1),
            durable_lsn: st.durable_lsn,
            last_checkpoint: *self.core.last_checkpoint.lock(),
            sync_mode: self.sync_mode(),
            counters: st.counters,
            failed: st.failed.clone(),
        }
    }
}

impl WalCore {
    /// Physically append and fsync one batch. Holds `wal_store` for the
    /// duration; consults the fault injector at `wal.append` (per frame)
    /// and `wal.fsync`.
    fn flush_batch(&self, batch: &[(u64, Vec<u8>)]) -> Result<()> {
        let mut ss = self.wal_store.lock();
        let ss = &mut *ss;
        for (lsn, frame) in batch {
            if let Some(f) = &ss.faults {
                if let Some(kind) = f.hit("wal.append") {
                    use cstore_common::fault::FaultKind;
                    match kind {
                        FaultKind::IoError | FaultKind::Crash => {
                            return Err(kind.to_error("wal.append"));
                        }
                        FaultKind::TornWrite | FaultKind::TornCrash => {
                            // A power cut mid-write: some prefix of the
                            // frame reaches the platter. Make the tear
                            // durable, then die.
                            let cut = f.rng_below(frame.len() as u64) as usize;
                            ss.store.append(ss.active, &frame[..cut])?;
                            ss.store.sync(ss.active)?;
                            return Err(kind.to_error("wal.append"));
                        }
                        FaultKind::BitFlip => {
                            // The frame lands whole but with one bit
                            // flipped — latent corruption the CRC catches
                            // at replay. Then die.
                            let mut bad = frame.clone();
                            let bit = f.rng_below(bad.len() as u64 * 8);
                            bad[(bit / 8) as usize] ^= 1 << (bit % 8);
                            ss.store.append(ss.active, &bad)?;
                            ss.store.sync(ss.active)?;
                            return Err(kind.to_error("wal.append"));
                        }
                    }
                }
            }
            ss.store.append(ss.active, frame)?;
            let info = ss
                .segments
                .get_mut(&ss.active)
                // lint: allow(unwrap) — rotate() always registers the active segment
                .expect("active segment is tracked");
            info.bytes += frame.len() as u64;
            info.max_lsn = info.max_lsn.max(*lsn);
        }
        if let Some(f) = &ss.faults {
            if let Some(kind) = f.hit("wal.fsync") {
                return Err(kind.to_error("wal.fsync"));
            }
        }
        ss.store.sync(ss.active)?;
        let batch_bytes: u64 = batch.iter().map(|(_, fr)| fr.len() as u64).sum();
        let active_full = ss
            .segments
            .get(&ss.active)
            .is_some_and(|i| i.bytes >= self.options.segment_bytes);
        if active_full {
            ss.rotate()?;
        }
        let m = metrics::global();
        m.add("cstore_wal_appends_total", batch.len() as u64);
        m.add("cstore_wal_bytes_total", batch_bytes);
        m.add("cstore_wal_fsyncs_total", 1);
        m.observe(
            "cstore_wal_group_commit_batch",
            &BATCH_BUCKETS,
            batch.len() as u64,
        );
        Ok(())
    }

    /// Publish a flush outcome: release the flush token, advance the
    /// durable watermark (or record the sticky failure and the lost LSN
    /// range) and wake committers plus the writer thread.
    fn finish_flush(&self, batch: &[(u64, Vec<u8>)], res: Result<()>) -> Result<()> {
        let batch_max = batch.iter().map(|(l, _)| *l).max();
        let mut st = self.wal_state.lock();
        st.flush_inflight = false;
        match &res {
            Ok(()) => {
                if let Some(max) = batch_max {
                    st.durable_lsn = st.durable_lsn.max(max);
                }
                st.counters.flushes += 1;
                st.counters.fsyncs += 1;
            }
            Err(e) => {
                st.failed = Some(e.to_string());
                // Everything in the failed batch sits strictly above the
                // durable watermark (flushes are serialized by the
                // token), so `(durable_lsn, batch_max]` is exactly the
                // lost range — LSNs durable before the failure stay
                // acknowledgeable.
                if let Some(max) = batch_max {
                    if max > st.durable_lsn {
                        let lost = (st.durable_lsn, max);
                        st.lost.push(lost);
                    }
                }
            }
        }
        drop(st);
        self.flushed.notify_all();
        // The writer may be parked waiting for the token (e.g. during
        // shutdown drain, or with a fresh batch buffered behind a
        // strict leader's flush).
        self.work.notify_all();
        res
    }
}

/// A table's wiring into a shared WAL: the log plus the name this table
/// logs records under.
#[derive(Clone)]
pub struct WalHandle {
    pub wal: Arc<Wal>,
    pub table: String,
}

/// One write against one table: what a commit applies
/// ([`ColumnStoreTable::apply_write_set`]) and what replay rebuilds from
/// plain frames and from `TxnOp` frames at their `TxnCommit`
/// ([`ColumnStoreTable::wal_apply`]). Within a table the ops preserve the
/// transaction's log order, so a delete targeting a row the same
/// transaction inserted resolves.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnApplyOp {
    /// Insert these rows (one Insert or InsertBatch frame's worth).
    Insert(Vec<Row>),
    /// Delete this row; the values drive replay-by-value fallback.
    Delete(RowId, Row),
}

impl TxnApplyOp {
    /// The WAL record body for this op against `table` — the same body
    /// whether it is logged as a plain frame or wrapped in a `TxnOp`
    /// (the inverse of the mapping replay does at `TxnCommit`).
    pub fn record(&self, table: &str) -> WalRecord {
        let table = table.to_string();
        match self {
            TxnApplyOp::Insert(rows) => match rows.as_slice() {
                [row] => WalRecord::Insert {
                    table,
                    row: row.clone(),
                },
                _ => WalRecord::InsertBatch {
                    table,
                    rows: rows.clone(),
                },
            },
            TxnApplyOp::Delete(rid, row) => WalRecord::Delete {
                table,
                rid: *rid,
                row: row.clone(),
            },
        }
    }

    /// The inverse of [`TxnApplyOp::record`]: the table an Insert,
    /// InsertBatch or Delete record names and the op it carries; `None`
    /// for every other record.
    pub(crate) fn from_record(record: WalRecord) -> Option<(String, TxnApplyOp)> {
        match record {
            WalRecord::Insert { table, row } => Some((table, TxnApplyOp::Insert(vec![row]))),
            WalRecord::InsertBatch { table, rows } => Some((table, TxnApplyOp::Insert(rows))),
            WalRecord::Delete { table, rid, row } => Some((table, TxnApplyOp::Delete(rid, row))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstore_storage::log::MemLogStore;

    fn frame_roundtrip(record: WalRecord) {
        let frame = encode_frame(42, &record).unwrap();
        let mut seen = Vec::new();
        let stop = decode_frames(&frame, |lsn, r| {
            seen.push((lsn, r));
            Ok(())
        })
        .unwrap();
        assert_eq!(stop, FrameStop::End);
        assert_eq!(seen, vec![(42, record)]);
    }

    #[test]
    fn record_frames_roundtrip() {
        use cstore_common::{RowGroupId, Value};
        frame_roundtrip(WalRecord::Insert {
            table: "t".into(),
            row: Row::new(vec![Value::Int64(7), Value::Null, Value::from("x")]),
        });
        frame_roundtrip(WalRecord::Delete {
            table: "t".into(),
            rid: RowId::new(RowGroupId(3), 9),
            row: Row::new(vec![Value::Int32(1)]),
        });
        frame_roundtrip(WalRecord::RowGroupSealed {
            table: "t".into(),
            group: 5,
            rows: 1000,
        });
        frame_roundtrip(WalRecord::Checkpoint {
            generation: 2,
            boundaries: vec![("a".into(), 10), ("b".into(), 12)],
        });
        frame_roundtrip(WalRecord::InsertBatch {
            table: "t".into(),
            rows: vec![
                Row::new(vec![Value::Int64(1), Value::from("a")]),
                Row::new(vec![Value::Int64(2), Value::Null]),
                Row::new(vec![Value::Int64(3), Value::from("c")]),
            ],
        });
        frame_roundtrip(WalRecord::InsertBatch {
            table: "empty".into(),
            rows: vec![],
        });
    }

    #[test]
    fn txn_frames_roundtrip() {
        use cstore_common::{RowGroupId, Value};
        frame_roundtrip(WalRecord::TxnBegin { txn: 1 });
        frame_roundtrip(WalRecord::TxnCommit { txn: u64::MAX });
        frame_roundtrip(WalRecord::TxnAbort { txn: 7 });
        frame_roundtrip(WalRecord::TxnOp {
            txn: 3,
            op: Box::new(WalRecord::InsertBatch {
                table: "t".into(),
                rows: vec![Row::new(vec![Value::Int64(1), Value::from("a")])],
            }),
        });
        frame_roundtrip(WalRecord::TxnOp {
            txn: 3,
            op: Box::new(WalRecord::Delete {
                table: "t".into(),
                rid: RowId::new(RowGroupId(2), 5),
                row: Row::new(vec![Value::Int64(1)]),
            }),
        });
    }

    #[test]
    fn txn_op_rejects_non_dml_inner_record() {
        // A TxnOp wrapping a Checkpoint (tag 4) is not a valid log; the
        // decoder must refuse rather than apply it.
        let mut payload = Writer::new();
        payload.u64(9); // lsn
        payload.u8(9); // TxnOp
        payload.u64(1); // txn id
        payload.u8(4); // inner tag: Checkpoint — invalid inside a txn
        payload.u64(0);
        payload.u32(0);
        let payload = payload.into_bytes();
        let mut r = Reader::new(&payload[9..]);
        let err = WalRecord::decode_body(9, &mut r).unwrap_err();
        assert!(err.to_string().contains("invalid inner record"), "{err}");
    }

    #[test]
    fn torn_frame_is_detected_not_misparsed() {
        let frame = encode_frame(
            1,
            &WalRecord::RowGroupSealed {
                table: "t".into(),
                group: 1,
                rows: 1,
            },
        )
        .unwrap();
        for cut in 0..frame.len() {
            let stop = decode_frames(&frame[..cut], |_, _| Ok(())).unwrap();
            if cut == 0 {
                assert_eq!(stop, FrameStop::End);
            } else {
                assert!(
                    matches!(stop, FrameStop::Bad { offset: 0, .. }),
                    "cut={cut}"
                );
            }
        }
        // Flip each bit: either the CRC or a sanity bound must catch it.
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let stop = decode_frames(&bad, |_, _| Ok(())).unwrap();
            assert!(
                matches!(stop, FrameStop::Bad { .. }),
                "bit flip {bit} went undetected"
            );
        }
    }

    #[test]
    fn group_commit_batches_concurrent_writers() {
        let store = MemLogStore::new();
        let (wal, _) =
            Wal::open(Box::new(store.clone()), WalOptions::default(), None, &[]).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        wal.log_and_commit(&WalRecord::RowGroupSealed {
                            table: format!("t{i}"),
                            group: j,
                            rows: 1,
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let status = wal.status();
        assert_eq!(status.counters.records_appended, 400);
        assert_eq!(status.durable_lsn, 400);
        // Group commit means strictly fewer fsyncs than records (with 8
        // writers racing, batches > 1 are effectively certain; allow
        // equality only in the degenerate fully serialized schedule).
        assert!(status.counters.fsyncs <= status.counters.records_appended);
        // Everything must really be durable.
        let image = store.crash_image();
        let mut n = 0;
        for seg in image.segment_ids().unwrap() {
            decode_frames(&image.read(seg).unwrap(), |_, _| {
                n += 1;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(n, 400);
    }

    #[test]
    fn strict_mode_commits_inline_and_stays_durable() {
        let store = MemLogStore::new();
        let (wal, _) =
            Wal::open(Box::new(store.clone()), WalOptions::default(), None, &[]).unwrap();
        wal.set_sync_mode(WalSyncMode::Strict);
        for i in 0..20 {
            wal.log_and_commit(&WalRecord::RowGroupSealed {
                table: "t".into(),
                group: i,
                rows: 1,
            })
            .unwrap();
        }
        let status = wal.status();
        assert_eq!(status.durable_lsn, 20);
        assert_eq!(status.sync_mode, WalSyncMode::Strict);
        let image = store.crash_image();
        let mut n = 0;
        for seg in image.segment_ids().unwrap() {
            decode_frames(&image.read(seg).unwrap(), |_, _| {
                n += 1;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(n, 20);
    }

    #[test]
    fn off_mode_acks_without_waiting_and_drains_on_drop() {
        let store = MemLogStore::new();
        let (wal, _) =
            Wal::open(Box::new(store.clone()), WalOptions::default(), None, &[]).unwrap();
        wal.set_sync_mode(WalSyncMode::Off);
        for i in 0..30 {
            wal.log_and_commit(&WalRecord::RowGroupSealed {
                table: "t".into(),
                group: i,
                rows: 1,
            })
            .unwrap();
        }
        // Dropping the last handle shuts the writer down, draining any
        // buffered tail — a clean close loses nothing even in off mode.
        drop(wal);
        let image = store.crash_image();
        let mut n = 0;
        for seg in image.segment_ids().unwrap() {
            decode_frames(&image.read(seg).unwrap(), |_, _| {
                n += 1;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(n, 30);
    }

    #[test]
    fn sticky_failure_clears_only_when_storage_recovers() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        let store = MemLogStore::new();
        let faults = FaultInjector::new(7);
        let (wal, _) = Wal::open(
            Box::new(store.clone()),
            WalOptions::default(),
            Some(faults.clone()),
            &[],
        )
        .unwrap();
        // Healthy WAL: probe is a no-op.
        wal.try_clear_failure().unwrap();
        // Wedge the log: every append fails (ENOSPC-style).
        faults.arm("wal.append", FaultSpec::new(FaultKind::IoError).always());
        let rec = WalRecord::RowGroupSealed {
            table: "t".into(),
            group: 0,
            rows: 1,
        };
        assert!(wal.log_and_commit(&rec).is_err());
        assert!(wal.status().failed.is_some());
        // Logging is refused while failed.
        let err = wal.log(&rec).unwrap_err();
        assert!(err.to_string().contains("WAL is failed"), "{err}");
        // A probe while storage is still broken keeps the failure sticky.
        assert!(wal.try_clear_failure().is_err());
        assert!(wal.status().failed.is_some());
        // Storage recovers: the probe proves a durable append and clears.
        faults.disarm_all();
        wal.try_clear_failure().unwrap();
        assert!(wal.status().failed.is_none());
        wal.log_and_commit(&rec).unwrap();
    }

    /// Satellite-3 regression: a committer whose frames rode a failed
    /// flush must observe the error even if a recovery probe has since
    /// cleared the failure and pushed `durable_lsn` past its LSN.
    #[test]
    fn probe_does_not_resurrect_records_lost_in_a_failed_flush() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        let store = MemLogStore::new();
        let faults = FaultInjector::new(11);
        let (wal, _) = Wal::open(
            Box::new(store.clone()),
            WalOptions::default(),
            Some(faults.clone()),
            &[],
        )
        .unwrap();
        let rec = WalRecord::RowGroupSealed {
            table: "t".into(),
            group: 0,
            rows: 1,
        };
        // Buffer two frames, then have the flush that carries both fail
        // at the fsync: lsn1's committer has not shown up yet — it is
        // exactly the "rode another thread's failed flush" victim.
        let lsn1 = wal.log(&rec).unwrap();
        let lsn2 = wal.log(&rec).unwrap();
        faults.arm("wal.fsync", FaultSpec::new(FaultKind::IoError).always());
        assert!(wal.commit(lsn2).is_err());
        assert!(wal.status().failed.is_some());
        // Storage recovers; the probe clears the sticky failure and
        // advances the durable watermark past the lost LSNs.
        faults.disarm_all();
        wal.try_clear_failure().unwrap();
        assert!(wal.status().failed.is_none());
        assert!(wal.status().durable_lsn > lsn1);
        // The victim's commit must still fail: its frame is gone.
        let err = wal.commit(lsn1).unwrap_err();
        assert!(err.to_string().contains("lost"), "{err}");
        let err = wal.commit(lsn2).unwrap_err();
        assert!(err.to_string().contains("lost"), "{err}");
        // New work is fine.
        wal.log_and_commit(&rec).unwrap();
    }

    /// Review fix: the lost range is `(durable-at-failure, batch_max]`,
    /// not a blanket floor — a record that rode an earlier *successful*
    /// flush must keep acknowledging cleanly after a later flush fails,
    /// and must not be reported lost (its frame is on disk and replays).
    #[test]
    fn already_durable_records_survive_a_later_flush_failure() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        let store = MemLogStore::new();
        let faults = FaultInjector::new(17);
        let (wal, _) = Wal::open(
            Box::new(store.clone()),
            WalOptions::default(),
            Some(faults.clone()),
            &[],
        )
        .unwrap();
        let rec = WalRecord::RowGroupSealed {
            table: "t".into(),
            group: 0,
            rows: 1,
        };
        // lsn1 rides a successful flush.
        let lsn1 = wal.log(&rec).unwrap();
        wal.commit(lsn1).unwrap();
        assert!(wal.status().durable_lsn >= lsn1);
        // lsn2's flush fails at the fsync (armed before logging so the
        // writer cannot sneak the frame out first).
        faults.arm("wal.fsync", FaultSpec::new(FaultKind::IoError).always());
        let lsn2 = wal.log(&rec).unwrap();
        assert!(wal.commit(lsn2).is_err());
        assert!(wal.status().failed.is_some());
        // lsn1 is on disk: its committer must NOT see a spurious "lost"
        // error (the caller would treat a durable, replayable write as
        // failed — a phantom row after recovery).
        wal.commit(lsn1).unwrap();
        // After recovery the distinction persists: lsn1 acknowledges,
        // lsn2 stays lost.
        faults.disarm_all();
        wal.try_clear_failure().unwrap();
        wal.commit(lsn1).unwrap();
        let err = wal.commit(lsn2).unwrap_err();
        assert!(err.to_string().contains("lost"), "{err}");
    }

    /// Review fix: `sync_commit` (the checkpoint path) and strict-mode
    /// leaders used to flush inline while the writer thread could also
    /// be flushing — two batches racing for storage can fsync out of
    /// LSN order, and `durable_lsn = max(batch)` would then acknowledge
    /// records still sitting in an earlier, un-fsynced batch. With the
    /// flush-in-flight token every acknowledged commit must be in the
    /// crash image, even when fsync starts failing mid-run.
    #[test]
    fn acked_commits_are_durable_with_mixed_group_and_strict_flushers() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        use std::collections::HashSet;
        let store = MemLogStore::new();
        let faults = FaultInjector::new(23);
        let (wal, _) = Wal::open(
            Box::new(store.clone()),
            WalOptions::default(),
            Some(faults.clone()),
            &[],
        )
        .unwrap();
        // Let some fsyncs through, then storage dies for good.
        faults.arm(
            "wal.fsync",
            FaultSpec::new(FaultKind::IoError).after(25).always(),
        );
        let acked = Arc::new(std::sync::Mutex::new(Vec::<(u32, u32)>::new()));
        let threads: Vec<_> = (0..8u32)
            .map(|i| {
                let wal = Arc::clone(&wal);
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || {
                    for j in 0..100u32 {
                        let rec = WalRecord::RowGroupSealed {
                            table: format!("t{i}"),
                            group: j,
                            rows: 1,
                        };
                        // Threads 6 and 7 commit checkpoint-style
                        // (inline strict flush); the rest ride the
                        // writer thread's group commit.
                        let res = wal.log(&rec).and_then(|lsn| {
                            if i >= 6 {
                                wal.sync_commit(lsn)
                            } else {
                                wal.commit(lsn)
                            }
                        });
                        match res {
                            Ok(()) => acked.lock().unwrap().push((i, j)),
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let image = store.crash_image();
        let mut durable = HashSet::new();
        for seg in image.segment_ids().unwrap() {
            decode_frames(&image.read(seg).unwrap(), |_, r| {
                if let WalRecord::RowGroupSealed { table, group, .. } = r {
                    durable.insert((table, group));
                }
                Ok(())
            })
            .unwrap();
        }
        for (i, j) in acked.lock().unwrap().iter() {
            assert!(
                durable.contains(&(format!("t{i}"), *j)),
                "commit t{i}/{j} was acknowledged but is not in the crash image"
            );
        }
    }

    /// Satellite-3 concurrency coverage: when a flush fails, *every*
    /// parked committer — flusher and waiters alike — observes an error;
    /// after recovery all new commits succeed.
    #[test]
    fn all_concurrent_committers_observe_a_flush_failure() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        let store = MemLogStore::new();
        let faults = FaultInjector::new(13);
        let (wal, _) = Wal::open(
            Box::new(store.clone()),
            WalOptions::default(),
            Some(faults.clone()),
            &[],
        )
        .unwrap();
        faults.arm("wal.fsync", FaultSpec::new(FaultKind::IoError).always());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    wal.log_and_commit(&WalRecord::RowGroupSealed {
                        table: format!("t{i}"),
                        group: 0,
                        rows: 1,
                    })
                    .is_err()
                })
            })
            .collect();
        for t in threads {
            assert!(
                t.join().unwrap(),
                "a committer was acknowledged despite the failed flush"
            );
        }
        faults.disarm_all();
        wal.try_clear_failure().unwrap();
        wal.log_and_commit(&WalRecord::RowGroupSealed {
            table: "t".into(),
            group: 1,
            rows: 1,
        })
        .unwrap();
    }

    /// Every record kind replayed into a table holding keys 0..4, once
    /// past the table's watermark and once with a save covering the whole
    /// log: the rows left and every counter of the report.
    #[test]
    fn replay_applies_each_record_kind_once_and_reports_it() {
        use crate::table::TableConfig;
        use cstore_common::{DataType, Field, RowGroupId, Schema, Value};

        struct Case {
            name: &'static str,
            records: Vec<WalRecord>,
            applied: u64,
            unmatched: u64,
            unknown: u64,
            committed: u64,
            discarded: u64,
            checkpoint: bool,
            /// Keys left when the records are past the watermark.
            keys: Vec<i64>,
        }
        let row = |k: i64| Row::new(vec![Value::Int64(k)]);
        let ins = |k: i64| WalRecord::Insert {
            table: "t".into(),
            row: row(k),
        };
        // Base rows sit at tuples 0..4 of the first delta store; ids of
        // replayed rows are fresh, so a bracket's delete of its own
        // insert names a stale id and resolves by value.
        let del = |group: u32, tuple: u32, k: i64| WalRecord::Delete {
            table: "T".into(),
            rid: RowId::new(RowGroupId(group), tuple),
            row: row(k),
        };
        let op = |txn: u64, op: WalRecord| WalRecord::TxnOp {
            txn,
            op: Box::new(op),
        };
        let base = || vec![0, 1, 2, 3];
        let with = |extra: &[i64], without: &[i64]| {
            let mut keys: Vec<i64> = base()
                .into_iter()
                .filter(|k| !without.contains(k))
                .collect();
            keys.extend_from_slice(extra);
            keys.sort_unstable();
            keys
        };
        let none = || Case {
            name: "",
            records: vec![],
            applied: 0,
            unmatched: 0,
            unknown: 0,
            committed: 0,
            discarded: 0,
            checkpoint: false,
            keys: base(),
        };
        let cases = vec![
            Case {
                name: "insert",
                records: vec![ins(10)],
                applied: 1,
                keys: with(&[10], &[]),
                ..none()
            },
            Case {
                name: "insert batch",
                records: vec![WalRecord::InsertBatch {
                    table: "t".into(),
                    rows: vec![row(10), row(11), row(12)],
                }],
                applied: 1,
                keys: with(&[10, 11, 12], &[]),
                ..none()
            },
            Case {
                name: "delete found",
                records: vec![del(0, 2, 2)],
                applied: 1,
                keys: with(&[], &[2]),
                ..none()
            },
            Case {
                name: "delete not found",
                records: vec![del(0, 2, 99)],
                applied: 1,
                unmatched: 1,
                ..none()
            },
            Case {
                name: "committed bracket",
                records: vec![
                    WalRecord::TxnBegin { txn: 7 },
                    op(7, ins(20)),
                    op(7, ins(21)),
                    op(7, del(55, 0, 20)),
                    op(7, del(0, 1, 99)),
                    WalRecord::TxnCommit { txn: 7 },
                ],
                applied: 1,
                unmatched: 1,
                committed: 1,
                keys: with(&[21], &[]),
                ..none()
            },
            Case {
                name: "aborted bracket",
                records: vec![
                    WalRecord::TxnBegin { txn: 8 },
                    op(8, ins(30)),
                    op(8, del(0, 0, 0)),
                    WalRecord::TxnAbort { txn: 8 },
                ],
                discarded: 1,
                ..none()
            },
            Case {
                name: "unfinished bracket",
                records: vec![WalRecord::TxnBegin { txn: 9 }, op(9, ins(40))],
                discarded: 1,
                ..none()
            },
            Case {
                name: "unknown table",
                records: vec![WalRecord::Insert {
                    table: "gone".into(),
                    row: row(50),
                }],
                unknown: 1,
                ..none()
            },
            Case {
                name: "row group sealed",
                records: vec![WalRecord::RowGroupSealed {
                    table: "t".into(),
                    group: 0,
                    rows: 4,
                }],
                ..none()
            },
            Case {
                name: "checkpoint",
                records: vec![WalRecord::Checkpoint {
                    generation: 3,
                    boundaries: vec![("t".into(), 0)],
                }],
                checkpoint: true,
                ..none()
            },
        ];
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int64)]);
        for case in &cases {
            for covered in [false, true] {
                let what = format!("{} (covered by a save: {covered})", case.name);
                let t = ColumnStoreTable::new(schema.clone(), TableConfig::default());
                t.insert_batch(&base().into_iter().map(row).collect::<Vec<_>>())
                    .unwrap();
                let n = case.records.len() as u64;
                if covered {
                    // An empty apply at the last LSN stands in for a save
                    // that covered the whole log.
                    t.wal_apply(n, Vec::new()).unwrap();
                }
                let mut store = MemLogStore::new();
                store.create(1).unwrap();
                for (lsn, record) in (1..).zip(&case.records) {
                    store
                        .append(1, &encode_frame(lsn, record).unwrap())
                        .unwrap();
                }
                store.sync(1).unwrap();
                let tables = [("t".to_string(), t.clone())];
                let (_wal, report) =
                    Wal::open(Box::new(store), WalOptions::default(), None, &tables).unwrap();
                let mut keys: Vec<i64> = t
                    .snapshot()
                    .scan_rows()
                    .map(|r| r.get(0).as_i64().unwrap())
                    .collect();
                keys.sort_unstable();
                let (applied, below, unmatched, want_keys) = match covered {
                    false => (case.applied, 0, case.unmatched, case.keys.clone()),
                    true => (0, case.applied, 0, base()),
                };
                assert_eq!(keys, want_keys, "{what}: rows");
                assert_eq!(report.records_scanned, n, "{what}: scanned");
                assert_eq!(report.records_applied, applied, "{what}: applied");
                assert_eq!(report.records_below_watermark, below, "{what}: below");
                assert_eq!(report.records_unknown_table, case.unknown, "{what}");
                assert_eq!(report.deletes_unmatched, unmatched, "{what}: unmatched");
                assert_eq!(report.records_truncated, 0, "{what}");
                assert!(report.is_clean(), "{what}");
                let checkpoint = case.checkpoint.then_some((3, n));
                assert_eq!(report.last_checkpoint, checkpoint, "{what}");
                assert_eq!(report.max_lsn, n, "{what}");
                assert_eq!(report.txns_committed, case.committed, "{what}");
                assert_eq!(report.txns_discarded, case.discarded, "{what}");
            }
        }
    }

    #[test]
    fn segments_rotate_and_checkpoint_retires() {
        let store = MemLogStore::new();
        let (wal, _) = Wal::open(
            Box::new(store.clone()),
            WalOptions {
                segment_bytes: 256,
                strict: false,
            },
            None,
            &[],
        )
        .unwrap();
        for i in 0..50 {
            wal.log_and_commit(&WalRecord::RowGroupSealed {
                table: "t".into(),
                group: i,
                rows: 1,
            })
            .unwrap();
        }
        let before = wal.status();
        assert!(before.segment_count > 1, "expected rotation");
        let tail = wal.tail_lsn();
        let retired = wal.checkpoint(1, vec![("t".into(), tail)]).unwrap();
        assert!(retired > 0, "expected retirement");
        let after = wal.status();
        assert!(after.segment_count < before.segment_count);
        assert_eq!(after.last_checkpoint.map(|(g, _)| g), Some(1));
    }

    /// A bulk load (two groups and a delta remainder) and a two-store
    /// mover pass log exactly these frames, in this order: the record
    /// kinds and counts existing logs hold for them, so every log replays
    /// the same way.
    #[test]
    fn bulk_load_and_mover_pass_log_the_same_frames() {
        use crate::table::TableConfig;
        use cstore_common::{DataType, Field, Schema, Value};
        let store = MemLogStore::new();
        let (wal, _) =
            Wal::open(Box::new(store.clone()), WalOptions::default(), None, &[]).unwrap();
        let config = TableConfig {
            delta_capacity: 100,
            bulk_load_threshold: 500,
            max_rowgroup_rows: 1000,
            sort_mode: cstore_storage::SortMode::None,
        };
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int64)]);
        let t = ColumnStoreTable::new(schema, config);
        t.set_wal(WalHandle {
            wal: Arc::clone(&wal),
            table: "t".into(),
        });
        let rows: Vec<Row> = (0..2200).map(|k| Row::new(vec![Value::Int64(k)])).collect();
        assert_eq!(t.bulk_insert(&rows).unwrap().compressed_groups.len(), 2);
        t.close_open_delta();
        assert_eq!(t.tuple_move_once().unwrap(), 2);
        let mut frames = Vec::new();
        let image = store.crash_image();
        for seg in image.segment_ids().unwrap() {
            decode_frames(&image.read(seg).unwrap(), |_, r| {
                frames.push(match r {
                    WalRecord::InsertBatch { rows, .. } => format!("InsertBatch {}", rows.len()),
                    WalRecord::RowGroupSealed { group, rows, .. } => {
                        format!("RowGroupSealed {group} {rows}")
                    }
                    other => format!("{other:?}"),
                });
                Ok(())
            })
            .unwrap();
        }
        let expected = [
            "InsertBatch 1000",
            "RowGroupSealed 0 1000",
            "InsertBatch 1000",
            "RowGroupSealed 1 1000",
            "InsertBatch 200",
            "RowGroupSealed 2 100",
            "RowGroupSealed 3 100",
        ];
        assert_eq!(frames, expected);
    }
}
