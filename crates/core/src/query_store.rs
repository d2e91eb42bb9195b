//! The Query Store: per-shape workload history in fixed time intervals,
//! persisted across restarts.
//!
//! Every statement the database executes is normalized to a *shape*
//! (literals → `?`, see `cstore_sql::shape`) and aggregated into the
//! current time interval: execution count, rows, an elapsed-time
//! histogram (for p50/p99), the query's wait-class breakdown, spill
//! volume, failures and timeouts. Closed intervals form a bounded
//! history ring that [`crate::Database::save_to`] persists as a
//! `g<N>.querystore` blob and `open_from` reloads, so workload history
//! survives restart — the substrate the cost-based tuple mover
//! (ROADMAP item 4) and any regression-hunting DBA read.
//!
//! Locking: one leveled mutex, `db.query_store` (level 15) — a leaf
//! lock, taken only to record one finished query or snapshot the view;
//! no engine lock is ever acquired under it.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::{SystemTime, UNIX_EPOCH};

use cstore_common::metrics::{quantile_from_cumulative, LATENCY_BUCKETS_US};
use cstore_common::sync::Mutex;
use cstore_common::{convert, Error, Result};
use cstore_storage::format::{Reader, Writer};

use crate::introspect::{QueryProfile, QueryStatus};

/// Default interval width: one minute, SQL Server Query Store's finest
/// `INTERVAL_LENGTH_MINUTES` granularity.
pub const DEFAULT_INTERVAL_MS: u64 = 60_000;
/// Closed intervals retained in memory (plus the current one).
pub const DEFAULT_MAX_INTERVALS: usize = 64;
/// Distinct shapes tracked per interval; further shapes are counted in
/// `shapes_dropped` rather than growing without bound.
pub const DEFAULT_MAX_SHAPES: usize = 512;

const BLOB_MAGIC: u32 = 0x5153_5452; // "QSTR"
const BLOB_VERSION: u16 = 1;

/// Per-class wait totals inside one shape aggregate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaitAgg {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Aggregated stats of one query shape within one interval.
#[derive(Clone, Debug)]
pub struct ShapeAgg {
    pub shape_hash: u64,
    pub shape_text: String,
    pub executions: u64,
    pub failures: u64,
    pub timeouts: u64,
    pub rows_returned: u64,
    pub total_elapsed_us: u64,
    pub max_elapsed_us: u64,
    /// Latency histogram counts, one per [`LATENCY_BUCKETS_US`] bound
    /// plus a trailing overflow bucket; p50/p99 interpolate from these.
    pub latency_buckets: Vec<u64>,
    pub waits: BTreeMap<String, WaitAgg>,
    pub spill_partitions: u64,
    pub spill_bytes: u64,
}

impl ShapeAgg {
    fn new(shape_hash: u64, shape_text: String) -> ShapeAgg {
        ShapeAgg {
            shape_hash,
            shape_text,
            executions: 0,
            failures: 0,
            timeouts: 0,
            rows_returned: 0,
            total_elapsed_us: 0,
            max_elapsed_us: 0,
            latency_buckets: vec![0; LATENCY_BUCKETS_US.len() + 1],
            waits: BTreeMap::new(),
            spill_partitions: 0,
            spill_bytes: 0,
        }
    }

    fn absorb(&mut self, p: &QueryProfile) {
        let elapsed_us = p.elapsed_us();
        self.executions += 1;
        self.failures += (p.status != QueryStatus::Ok) as u64;
        self.timeouts += p.timed_out as u64;
        self.rows_returned += p.exec.rows_returned;
        self.total_elapsed_us = self.total_elapsed_us.saturating_add(elapsed_us);
        self.max_elapsed_us = self.max_elapsed_us.max(elapsed_us);
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| elapsed_us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_buckets[idx] += 1;
        for w in p.exec.waits.snapshot() {
            let agg = self.waits.entry(w.class).or_default();
            agg.count += w.count;
            agg.total_ns = agg.total_ns.saturating_add(w.total_ns);
            agg.max_ns = agg.max_ns.max(w.max_ns);
        }
        self.spill_partitions += p.exec.counters.partitions_spilled;
        self.spill_bytes += p.exec.counters.bytes_spilled;
    }

    /// Interpolated elapsed-time quantile in microseconds.
    pub fn elapsed_quantile_us(&self, q: f64) -> u64 {
        let mut acc = 0u64;
        let cumulative: Vec<(u64, u64)> = self
            .latency_buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                acc += n;
                (LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX), acc)
            })
            .collect();
        quantile_from_cumulative(&cumulative, q)
    }

    /// Compact `CLASS=total_ms(n)` rendering of the wait breakdown,
    /// worst class first; empty string when the shape never waited.
    pub fn waits_summary(&self) -> String {
        let mut entries: Vec<(&String, &WaitAgg)> = self.waits.iter().collect();
        entries.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns));
        entries
            .iter()
            .map(|(class, agg)| {
                format!(
                    "{}={:.3}ms(n={})",
                    class,
                    agg.total_ns as f64 / 1e6,
                    agg.count
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One fixed time interval of aggregated shapes.
#[derive(Clone, Debug)]
pub struct Interval {
    /// `unix_ms / interval_ms` at the time the interval opened.
    pub id: u64,
    /// Interval start, milliseconds since the unix epoch.
    pub start_unix_ms: u64,
    pub shapes: BTreeMap<u64, ShapeAgg>,
    /// Samples not aggregated because the per-interval shape cap was hit.
    pub shapes_dropped: u64,
}

struct StoreInner {
    /// Oldest first; the back interval is current iff its id matches the
    /// wall clock. All of these persist.
    intervals: VecDeque<Interval>,
}

/// The Query Store. One per [`crate::Database`]; cheap to record into
/// (one leaf-lock acquisition per finished statement).
pub struct QueryStore {
    shapes: Mutex<StoreInner>,
    interval_ms: std::sync::atomic::AtomicU64,
    max_intervals: usize,
    max_shapes: usize,
}

impl Default for QueryStore {
    fn default() -> Self {
        QueryStore::new()
    }
}

impl QueryStore {
    pub fn new() -> QueryStore {
        QueryStore {
            shapes: Mutex::new_leveled(
                15,
                "db.query_store",
                StoreInner {
                    intervals: VecDeque::new(),
                },
            ),
            interval_ms: std::sync::atomic::AtomicU64::new(DEFAULT_INTERVAL_MS),
            max_intervals: DEFAULT_MAX_INTERVALS,
            max_shapes: DEFAULT_MAX_SHAPES,
        }
    }

    fn now_unix_ms() -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    pub fn interval_ms(&self) -> u64 {
        self.interval_ms.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// `SET query_store_interval_ms`: width of *future* intervals (the
    /// current interval closes at its original boundary).
    pub fn set_interval_ms(&self, ms: u64) {
        self.interval_ms
            .store(ms.max(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// Aggregate one finished statement into the current interval.
    pub fn record(&self, profile: &QueryProfile) {
        let width = self.interval_ms();
        let now = Self::now_unix_ms();
        let id = now / width;
        let mut inner = self.shapes.lock();
        let open_new = inner.intervals.back().is_none_or(|cur| cur.id != id);
        if open_new {
            inner.intervals.push_back(Interval {
                id,
                start_unix_ms: id * width,
                shapes: BTreeMap::new(),
                shapes_dropped: 0,
            });
            while inner.intervals.len() > self.max_intervals {
                inner.intervals.pop_front();
            }
        }
        let max_shapes = self.max_shapes;
        if let Some(cur) = inner.intervals.back_mut() {
            let shape = &profile.shape;
            if !cur.shapes.contains_key(&shape.hash) && cur.shapes.len() >= max_shapes {
                cur.shapes_dropped += 1;
                return;
            }
            cur.shapes
                .entry(shape.hash)
                .or_insert_with(|| ShapeAgg::new(shape.hash, shape.text.clone()))
                .absorb(profile);
        }
    }

    /// All intervals, oldest first (clone — the view builder iterates
    /// without holding the store lock).
    pub fn snapshot(&self) -> Vec<Interval> {
        self.shapes.lock().intervals.iter().cloned().collect()
    }

    /// Total executions recorded for `shape_hash` across all intervals
    /// (test and round-trip helper).
    pub fn executions_for(&self, shape_hash: u64) -> u64 {
        self.snapshot()
            .iter()
            .filter_map(|iv| iv.shapes.get(&shape_hash))
            .map(|s| s.executions)
            .sum()
    }

    // ---------------------------------------------------- persistence

    /// Serialize every interval as a CRC-sealed blob payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let inner = self.shapes.lock();
        let mut w = Writer::new();
        w.u32(BLOB_MAGIC);
        w.u16(BLOB_VERSION);
        w.u64(self.interval_ms());
        w.u32(convert::u32_from_usize(inner.intervals.len())?);
        for iv in &inner.intervals {
            w.u64(iv.id);
            w.u64(iv.start_unix_ms);
            w.u64(iv.shapes_dropped);
            w.u32(convert::u32_from_usize(iv.shapes.len())?);
            for shape in iv.shapes.values() {
                w.u64(shape.shape_hash);
                w.lp_bytes(shape.shape_text.as_bytes())?;
                w.u64(shape.executions);
                w.u64(shape.failures);
                w.u64(shape.timeouts);
                w.u64(shape.rows_returned);
                w.u64(shape.total_elapsed_us);
                w.u64(shape.max_elapsed_us);
                w.u32(convert::u32_from_usize(shape.latency_buckets.len())?);
                for &n in &shape.latency_buckets {
                    w.u64(n);
                }
                w.u32(convert::u32_from_usize(shape.waits.len())?);
                for (class, agg) in &shape.waits {
                    w.lp_bytes(class.as_bytes())?;
                    w.u64(agg.count);
                    w.u64(agg.total_ns);
                    w.u64(agg.max_ns);
                }
                w.u64(shape.spill_partitions);
                w.u64(shape.spill_bytes);
            }
        }
        Ok(w.seal())
    }

    /// Replace this store's history with a decoded blob (CRC-checked).
    /// The loaded intervals all count as closed history: the next
    /// recorded sample opens a fresh wall-clock interval.
    pub fn load(&self, data: &[u8]) -> Result<()> {
        let payload = Reader::check_crc(data)?;
        let mut r = Reader::new(payload);
        if r.u32()? != BLOB_MAGIC {
            return Err(Error::Storage("query store blob: bad magic".into()));
        }
        let version = r.u16()?;
        if version != BLOB_VERSION {
            return Err(Error::Storage(format!(
                "query store blob: unsupported version {version}"
            )));
        }
        let interval_ms = r.u64()?;
        let n_intervals = r.u32()? as usize;
        let mut intervals = VecDeque::with_capacity(n_intervals.min(1024));
        for _ in 0..n_intervals {
            let id = r.u64()?;
            let start_unix_ms = r.u64()?;
            let shapes_dropped = r.u64()?;
            let n_shapes = r.u32()? as usize;
            let mut shapes = BTreeMap::new();
            for _ in 0..n_shapes {
                let shape_hash = r.u64()?;
                let text = String::from_utf8_lossy(r.lp_bytes()?).into_owned();
                let mut agg = ShapeAgg::new(shape_hash, text);
                agg.executions = r.u64()?;
                agg.failures = r.u64()?;
                agg.timeouts = r.u64()?;
                agg.rows_returned = r.u64()?;
                agg.total_elapsed_us = r.u64()?;
                agg.max_elapsed_us = r.u64()?;
                let n_buckets = r.u32()? as usize;
                let mut buckets = Vec::with_capacity(n_buckets.min(256));
                for _ in 0..n_buckets {
                    buckets.push(r.u64()?);
                }
                // Tolerate bucket-layout drift across versions: pad or
                // truncate to the current layout (quantiles degrade,
                // counts survive).
                buckets.resize(LATENCY_BUCKETS_US.len() + 1, 0);
                agg.latency_buckets = buckets;
                let n_waits = r.u32()? as usize;
                for _ in 0..n_waits {
                    let class = String::from_utf8_lossy(r.lp_bytes()?).into_owned();
                    let wait = WaitAgg {
                        count: r.u64()?,
                        total_ns: r.u64()?,
                        max_ns: r.u64()?,
                    };
                    agg.waits.insert(class, wait);
                }
                agg.spill_partitions = r.u64()?;
                agg.spill_bytes = r.u64()?;
                shapes.insert(shape_hash, agg);
            }
            intervals.push_back(Interval {
                id,
                start_unix_ms,
                shapes,
                shapes_dropped,
            });
        }
        while intervals.len() > self.max_intervals {
            intervals.pop_front();
        }
        self.set_interval_ms(interval_ms);
        self.shapes.lock().intervals = intervals;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// An OK statement that returned 3 rows and waited once on the WAL.
    fn sample(hash: u64, text: &str, us: u64) -> QueryProfile {
        use cstore_common::waits::{install, observe, WaitClass, WaitProfile};
        let waits = Arc::new(WaitProfile::new());
        {
            let _frame = install(Arc::clone(&waits));
            observe(WaitClass::WalCommit, Duration::from_nanos(5_000));
        }
        let mut exec = cstore_exec::ExecProfile::idle(waits);
        exec.rows_returned = 3;
        QueryProfile {
            text: text.into(),
            shape: cstore_sql::QueryShape {
                hash,
                text: text.into(),
            },
            status: QueryStatus::Ok,
            timed_out: false,
            error: None,
            elapsed: Duration::from_micros(us),
            exec,
        }
    }

    #[test]
    fn repeated_shapes_aggregate() {
        let qs = QueryStore::new();
        for i in 0..10 {
            qs.record(&sample(42, "select ?", 100 + i));
        }
        qs.record(&sample(7, "other", 50));
        assert_eq!(qs.executions_for(42), 10);
        assert_eq!(qs.executions_for(7), 1);
        let snap = qs.snapshot();
        let agg = snap
            .iter()
            .find_map(|iv| iv.shapes.get(&42))
            .expect("shape present");
        assert_eq!(agg.rows_returned, 30);
        assert_eq!(agg.waits["WAL_COMMIT"].count, 10);
        assert!(agg.elapsed_quantile_us(0.5) > 0);
        assert!(agg.waits_summary().contains("WAL_COMMIT"));
    }

    #[test]
    fn encode_load_round_trip() {
        let qs = QueryStore::new();
        for _ in 0..5 {
            qs.record(&sample(99, "select a from t where b = ?", 1_000));
        }
        let mut failed = sample(99, "select a from t where b = ?", 2_000);
        failed.status = QueryStatus::Error;
        failed.timed_out = true;
        qs.record(&failed);
        let blob = qs.encode().unwrap();
        let restored = QueryStore::new();
        restored.load(&blob).unwrap();
        assert_eq!(restored.executions_for(99), 6);
        let snap = restored.snapshot();
        let agg = snap
            .iter()
            .find_map(|iv| iv.shapes.get(&99))
            .expect("restored shape");
        assert_eq!(agg.failures, 1);
        assert_eq!(agg.timeouts, 1);
        assert_eq!(agg.waits["WAL_COMMIT"].count, 6);
        assert_eq!(agg.shape_text, "select a from t where b = ?");
    }

    #[test]
    fn load_rejects_corruption() {
        let qs = QueryStore::new();
        qs.record(&sample(1, "q", 10));
        let mut blob = qs.encode().unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        assert!(QueryStore::new().load(&blob).is_err());
    }

    #[test]
    fn shape_cap_drops_new_shapes_not_old() {
        let qs = QueryStore {
            shapes: Mutex::new(StoreInner {
                intervals: VecDeque::new(),
            }),
            interval_ms: std::sync::atomic::AtomicU64::new(DEFAULT_INTERVAL_MS),
            max_intervals: 4,
            max_shapes: 2,
        };
        qs.record(&sample(1, "a", 1));
        qs.record(&sample(2, "b", 1));
        qs.record(&sample(3, "c", 1));
        qs.record(&sample(1, "a", 1));
        let snap = qs.snapshot();
        assert_eq!(snap[0].shapes.len(), 2);
        assert_eq!(snap[0].shapes_dropped, 1);
        assert_eq!(qs.executions_for(1), 2, "existing shapes keep counting");
    }
}
