//! Stats-collecting operator wrappers.
//!
//! EXPLAIN ANALYZE needs per-operator actuals without every operator
//! carrying its own timing code: the planner wraps each physical operator
//! in a [`StatsOp`] (batch mode) or [`RowStatsOp`] (row mode) that times
//! `next()` and counts rows/batches out into an [`OpStats`] registered
//! with the query's [`ExecStats`](crate::runtime::ExecStats).
//!
//! The executor is pull-based, so the recorded wall time for an operator
//! is *inclusive* of its children — the same convention SQL Server's
//! actual-execution-plan operator times use.
//!
//! The wrappers double as the query's *deadline* checkpoints: because
//! every physical operator is wrapped, checking the per-query deadline
//! here bounds the time between checks by one operator `next()` call
//! without threading timeout logic through every operator.

use std::sync::Arc;
use std::time::Instant;

use cstore_common::{DataType, Result, Row};

use crate::batch::Batch;
use crate::ops::{BatchOperator, BoxedBatchOp, BoxedRowOp, RowOperator};
use crate::runtime::{check_deadline, OpStats};

/// Batch-mode wrapper: forwards `next()`, recording rows, batches and
/// inclusive wall time into the shared [`OpStats`]; aborts cleanly once
/// the query deadline passes.
pub struct StatsOp {
    input: BoxedBatchOp,
    stats: Arc<OpStats>,
    deadline: Option<Instant>,
}

impl StatsOp {
    pub fn new(input: BoxedBatchOp, stats: Arc<OpStats>, deadline: Option<Instant>) -> Self {
        StatsOp {
            input,
            stats,
            deadline,
        }
    }
}

impl BatchOperator for StatsOp {
    fn output_types(&self) -> &[DataType] {
        self.input.output_types()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        check_deadline(self.deadline)?;
        let start = Instant::now();
        let out = self.input.next();
        let elapsed = start.elapsed().as_nanos() as u64;
        match &out {
            Ok(Some(batch)) => self.stats.record(batch.n_qualifying() as u64, elapsed),
            _ => self.stats.record(0, elapsed),
        }
        out
    }
}

/// Row-mode wrapper: each yielded row counts as one row; a "batch" is
/// recorded per row so `batches_out` doubles as the call count.
pub struct RowStatsOp {
    input: BoxedRowOp,
    stats: Arc<OpStats>,
    deadline: Option<Instant>,
}

impl RowStatsOp {
    pub fn new(input: BoxedRowOp, stats: Arc<OpStats>, deadline: Option<Instant>) -> Self {
        RowStatsOp {
            input,
            stats,
            deadline,
        }
    }
}

impl RowOperator for RowStatsOp {
    fn output_types(&self) -> &[DataType] {
        self.input.output_types()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        check_deadline(self.deadline)?;
        let start = Instant::now();
        let out = self.input.next();
        let elapsed = start.elapsed().as_nanos() as u64;
        match &out {
            Ok(Some(_)) => self.stats.record(1, elapsed),
            _ => self.stats.record(0, elapsed),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::runtime::ExecStats;
    use cstore_common::Error;

    struct TwoBatches {
        types: Vec<DataType>,
        left: usize,
    }

    impl BatchOperator for TwoBatches {
        fn output_types(&self) -> &[DataType] {
            &self.types
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            if self.left == 0 {
                return Ok(None);
            }
            self.left -= 1;
            let rows: Vec<Row> = (0..3)
                .map(|i| Row::new(vec![cstore_common::Value::Int64(i)]))
                .collect();
            Ok(Some(Batch::from_rows(&self.types, &rows)?))
        }
    }

    #[test]
    fn stats_op_counts_rows_and_batches() {
        let stats = ExecStats::default();
        let op_stats = stats.register(0, "TwoBatches");
        let inner = Box::new(TwoBatches {
            types: vec![DataType::Int64],
            left: 2,
        });
        let mut op = StatsOp::new(inner, Arc::clone(&op_stats), None);
        let mut total = 0;
        while let Some(b) = op.next().unwrap() {
            total += b.n_qualifying();
        }
        assert_eq!(total, 6);
        assert_eq!(op_stats.rows(), 6);
        assert_eq!(op_stats.batches(), 2);
        assert!(op_stats.elapsed_nanos() > 0);
    }

    /// A synthetic slow source: every `next()` burns wall time, so a
    /// short deadline must fire between batches.
    struct SlowBatches {
        types: Vec<DataType>,
        left: usize,
    }

    impl BatchOperator for SlowBatches {
        fn output_types(&self) -> &[DataType] {
            &self.types
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            if self.left == 0 {
                return Ok(None);
            }
            self.left -= 1;
            std::thread::sleep(std::time::Duration::from_millis(20));
            let rows = vec![Row::new(vec![cstore_common::Value::Int64(1)])];
            Ok(Some(Batch::from_rows(&self.types, &rows)?))
        }
    }

    #[test]
    fn expired_deadline_aborts_with_clean_error() {
        let stats = ExecStats::default();
        let op_stats = stats.register(0, "SlowBatches");
        let inner = Box::new(SlowBatches {
            types: vec![DataType::Int64],
            left: 1_000,
        });
        let deadline = Instant::now() + std::time::Duration::from_millis(30);
        let mut op = StatsOp::new(inner, op_stats, Some(deadline));
        let err = loop {
            match op.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("deadline never fired"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Error::Timeout), "{err}");
        assert!(err.to_string().contains("query_timeout_ms"), "{err}");
    }

    #[test]
    fn unset_deadline_never_fires() {
        assert!(check_deadline(None).is_ok());
        assert!(check_deadline(Some(Instant::now() - std::time::Duration::from_secs(1))).is_err());
    }
}
