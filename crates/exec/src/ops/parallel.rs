//! Parallel columnstore scan.
//!
//! Batch mode is built for multicore (a point the paper makes about the
//! batch engine's design); the natural unit of scan parallelism is the
//! row group. This operator partitions the snapshot's row groups across
//! worker threads, each running an ordinary [`ColumnStoreScan`] over its
//! partition and streaming batches through a bounded channel. Output
//! batch order is unspecified, as for any parallel scan.

use cstore_common::{DataType, Error, Result};
use cstore_delta::TableSnapshot;
use cstore_storage::pred::ColumnPred;
use std::sync::mpsc::{sync_channel, Receiver};

use crate::batch::Batch;
use crate::ops::scan::{ColumnStoreScan, FilterSlot};
use crate::ops::{BatchOperator, BoxedBatchOp};
use crate::runtime::ExecContext;

/// A scan that decodes row groups on `parallelism` worker threads.
pub struct ParallelScan {
    /// Partition scans, consumed when the workers start.
    partitions: Vec<ColumnStoreScan>,
    output_types: Vec<DataType>,
    running: Option<Running>,
    /// Set once a worker error has been surfaced (or the scan drained):
    /// the operator is fused and every later poll returns `Ok(None)`.
    fused: bool,
}

struct Running {
    rx: Receiver<Result<Batch>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ParallelScan {
    /// Build a scan over `snapshot` split into `parallelism` partitions.
    pub fn new(
        snapshot: TableSnapshot,
        projection: Vec<usize>,
        preds: Vec<(usize, ColumnPred)>,
        ctx: ExecContext,
        parallelism: usize,
    ) -> Self {
        let k = parallelism.max(1);
        let partitions: Vec<ColumnStoreScan> = (0..k)
            .map(|i| {
                ColumnStoreScan::new(
                    snapshot.partition(i, k),
                    projection.clone(),
                    preds.clone(),
                    ctx.clone(),
                )
            })
            .collect();
        let output_types = projection
            .iter()
            .map(|&c| snapshot.schema().field(c).data_type)
            .collect();
        ParallelScan {
            partitions,
            output_types,
            running: None,
            fused: false,
        }
    }

    /// Attach a bitmap-filter slot (propagated to every partition).
    pub fn with_bitmap_filter(mut self, col: usize, slot: FilterSlot) -> Self {
        let parts = std::mem::take(&mut self.partitions);
        self.partitions = parts
            .into_iter()
            .map(|p| p.with_bitmap_filter(col, slot.clone()))
            .collect();
        self
    }

    /// Append the row-id column (see [`ColumnStoreScan::with_row_ids`]).
    /// A row id names its group, so it is the same whichever partition
    /// produced the row.
    pub fn with_row_ids(mut self) -> Self {
        let parts = std::mem::take(&mut self.partitions);
        self.partitions = parts.into_iter().map(|p| p.with_row_ids()).collect();
        if let Some(part) = self.partitions.first() {
            self.output_types = part.output_types().to_vec();
        }
        self
    }

    fn start(&mut self) {
        let scans = std::mem::take(&mut self.partitions);
        let (tx, rx) = sync_channel::<Result<Batch>>(scans.len() * 4);
        // Workers inherit the coordinating query's wait frame so their
        // blocking (contended table locks) is attributed to this query.
        let waits = cstore_common::waits::current();
        let workers = scans
            .into_iter()
            .map(|mut scan| {
                let tx = tx.clone();
                let waits = waits.clone();
                std::thread::spawn(move || {
                    let _scope = waits.map(cstore_common::waits::install);
                    loop {
                        match scan.next() {
                            Ok(Some(batch)) => {
                                if tx.send(Ok(batch)).is_err() {
                                    return; // consumer went away (e.g. LIMIT)
                                }
                            }
                            Ok(None) => return,
                            Err(e) => {
                                // lint: allow(discard) — the consumer hung up;
                                // the error has nowhere left to go
                                let _ = tx.send(Err(e));
                                return;
                            }
                        }
                    }
                })
            })
            .collect();
        self.running = Some(Running { rx, workers });
    }
}

impl BatchOperator for ParallelScan {
    fn output_types(&self) -> &[DataType] {
        &self.output_types
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.fused {
            return Ok(None);
        }
        if self.running.is_none() {
            self.start();
        }
        let running = self
            .running
            .as_mut()
            .ok_or_else(|| Error::Execution("parallel scan polled before start".into()))?;
        match running.rx.recv() {
            Ok(Ok(batch)) => Ok(Some(batch)),
            // A worker errored: fuse the operator so no further batches
            // can leak out after the error escaped. Drop the receiver
            // (failing the remaining workers' sends) and join them, then
            // surface the error once; later polls return `Ok(None)`.
            Ok(Err(e)) => {
                self.fused = true;
                if let Some(running) = self.running.take() {
                    drop(running.rx);
                    for w in running.workers {
                        // lint: allow(discard) — best-effort join while
                        // propagating the first worker error
                        let _ = w.join();
                    }
                }
                Err(e)
            }
            // All senders dropped: every worker finished.
            Err(_) => {
                self.fused = true;
                for w in running.workers.drain(..) {
                    w.join()
                        .map_err(|_| Error::Execution("parallel scan worker panicked".into()))?;
                }
                Ok(None)
            }
        }
    }
}

impl Drop for ParallelScan {
    fn drop(&mut self) {
        // Dropping the receiver makes workers' sends fail; join them so no
        // thread outlives the operator.
        if let Some(running) = self.running.take() {
            drop(running.rx);
            for w in running.workers {
                // lint: allow(discard) — best-effort join in Drop; a worker
                // panic was already surfaced through the result channel
                let _ = w.join();
            }
        }
    }
}

/// Boxing helper used by the planner.
pub fn boxed(scan: ParallelScan) -> BoxedBatchOp {
    Box::new(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect_rows;
    use cstore_common::{Field, Row, Schema, Value};
    use cstore_delta::{ColumnStoreTable, TableConfig};
    use cstore_storage::pred::CmpOp;
    use cstore_storage::SortMode;

    fn table(n: i64) -> ColumnStoreTable {
        let schema = Schema::new(vec![
            Field::not_null("k", DataType::Int64),
            Field::not_null("s", DataType::Utf8),
        ]);
        let t = ColumnStoreTable::new(
            schema,
            TableConfig {
                delta_capacity: 64,
                bulk_load_threshold: 100,
                max_rowgroup_rows: 500,
                sort_mode: SortMode::Columns(vec![0]),
            },
        );
        t.bulk_insert(
            &(0..n)
                .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("s{}", i % 9))]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        // A few delta rows so partition 0 carries them.
        for i in n..n + 7 {
            t.insert(Row::new(vec![Value::Int64(i), Value::str("delta")]))
                .unwrap();
        }
        t
    }

    fn keys(rows: &[Row]) -> Vec<i64> {
        let mut k: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        k.sort_unstable();
        k
    }

    #[test]
    fn parallel_matches_serial() {
        let t = table(5000);
        let ctx = ExecContext::default();
        let serial = ColumnStoreScan::new(t.snapshot(), vec![0, 1], vec![], ctx.clone());
        let serial_rows = collect_rows(Box::new(serial)).unwrap();
        for k in [1usize, 2, 3, 8] {
            let par = ParallelScan::new(t.snapshot(), vec![0, 1], vec![], ctx.clone(), k);
            let par_rows = collect_rows(Box::new(par)).unwrap();
            assert_eq!(keys(&par_rows), keys(&serial_rows), "k={k}");
        }
    }

    #[test]
    fn row_ids_do_not_depend_on_the_partitioning() {
        let t = table(5000);
        let ctx = ExecContext::default();
        let sorted = |op: BoxedBatchOp| {
            let mut rows = collect_rows(op).unwrap();
            rows.sort();
            rows
        };
        let serial =
            ColumnStoreScan::new(t.snapshot(), vec![0], vec![], ctx.clone()).with_row_ids();
        let par = ParallelScan::new(t.snapshot(), vec![0], vec![], ctx, 3).with_row_ids();
        assert_eq!(par.output_types(), &[DataType::Int64, DataType::Int64]);
        assert_eq!(sorted(Box::new(par)), sorted(Box::new(serial)));
    }

    #[test]
    fn parallel_applies_pushdown() {
        let t = table(5000);
        let preds = vec![(
            0usize,
            ColumnPred::Cmp {
                op: CmpOp::Lt,
                value: Value::Int64(1234),
            },
        )];
        let par = ParallelScan::new(t.snapshot(), vec![0], preds, ExecContext::default(), 4);
        let rows = collect_rows(Box::new(par)).unwrap();
        assert_eq!(rows.len(), 1234);
    }

    #[test]
    fn error_fuses_operator() {
        // Drive `next()` against a hand-fed channel: a batch, then a worker
        // error, then another batch that must NOT escape after the error.
        let (tx, rx) = sync_channel::<Result<Batch>>(8);
        let types = vec![DataType::Int64];
        let batch = |k: i64| {
            Batch::from_rows(&types, &[Row::new(vec![Value::Int64(k)])]).expect("test batch")
        };
        tx.send(Ok(batch(1))).unwrap();
        tx.send(Err(Error::Execution("injected worker failure".into())))
            .unwrap();
        tx.send(Ok(batch(2))).unwrap();
        let mut scan = ParallelScan {
            partitions: Vec::new(),
            output_types: types.clone(),
            running: Some(Running {
                rx,
                workers: Vec::new(),
            }),
            fused: false,
        };
        assert!(scan.next().unwrap().is_some(), "first batch flows");
        assert!(scan.next().is_err(), "worker error surfaces once");
        // Pre-fix, this poll yielded batch(2) after the error had escaped.
        assert!(scan.next().unwrap().is_none(), "fused after error");
        assert!(scan.next().unwrap().is_none(), "stays fused");
    }

    #[test]
    fn early_drop_does_not_hang() {
        let t = table(20_000);
        let mut par = ParallelScan::new(
            t.snapshot(),
            vec![0],
            vec![],
            ExecContext::default().with_batch_size(64),
            4,
        );
        // Pull one batch, then drop — workers must shut down cleanly.
        let first = par.next().unwrap();
        assert!(first.is_some());
        drop(par);
    }
}
