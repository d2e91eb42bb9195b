//! Logical plans.
//!
//! A conventional relational algebra tree. Expressions reference input
//! columns by ordinal (the SQL binder resolves names); every node can
//! report its output fields, so lowering and rewrites stay type-checked.

use cstore_common::{DataType, Error, Field, Result, Schema};
use cstore_exec::ops::hash_agg::AggExpr;
use cstore_exec::ops::hash_join::JoinType;
use cstore_exec::Expr;
use cstore_storage::pred::ColumnPred;

/// A sort key in a logical plan.
#[derive(Clone, Debug)]
pub struct LogicalSortKey {
    pub expr: Expr,
    pub descending: bool,
}

/// Name of the pseudo-column a `row_ids` scan appends. No table column
/// can carry it (`$` is not an identifier character), and no SQL names it:
/// the scopes the binder resolves against hold table columns only.
pub const ROW_ID_COLUMN: &str = "$row_id";

/// The logical plan tree.
#[derive(Clone, Debug)]
pub enum LogicalPlan {
    /// Base-table scan. `pushed` predicates are single-column constant
    /// predicates the scan evaluates on encoded data; `projection` (when
    /// set) restricts output to those table columns, in order. With
    /// `row_ids` the output ends in one more column, [`ROW_ID_COLUMN`]: an
    /// `Int64` locating each row (`RowId::to_i64`) — how UPDATE and DELETE
    /// plan their victim search. Columnstore tables only, batch mode only.
    Scan {
        table: String,
        schema: Schema,
        projection: Option<Vec<usize>>,
        pushed: Vec<(usize, ColumnPred)>,
        row_ids: bool,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    /// Equijoin: `left.on_left[i] = right.on_right[i]`.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        join_type: JoinType,
        on_left: Vec<usize>,
        on_right: Vec<usize>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
        names: Vec<String>,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<LogicalSortKey>,
        limit: Option<usize>,
        offset: usize,
    },
    UnionAll {
        inputs: Vec<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Output fields (names + types) of this node.
    pub fn output_fields(&self) -> Result<Vec<Field>> {
        match self {
            LogicalPlan::Scan {
                schema,
                projection,
                row_ids,
                ..
            } => {
                let mut fields: Vec<Field> = match projection {
                    Some(cols) => cols.iter().map(|&c| schema.field(c).clone()).collect(),
                    None => schema.fields().to_vec(),
                };
                if *row_ids {
                    fields.push(Field::not_null(ROW_ID_COLUMN, DataType::Int64));
                }
                Ok(fields)
            }
            LogicalPlan::Filter { input, .. } => input.output_fields(),
            LogicalPlan::Project {
                input,
                exprs,
                names,
            } => {
                let in_fields = input.output_fields()?;
                let in_types: Vec<DataType> = in_fields.iter().map(|f| f.data_type).collect();
                exprs
                    .iter()
                    .zip(names)
                    .map(|(e, n)| Ok(Field::nullable(n.clone(), e.infer_type(&in_types)?)))
                    .collect()
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => {
                let mut fields = left.output_fields()?;
                match join_type {
                    JoinType::LeftSemi | JoinType::LeftAnti => {}
                    _ => fields.extend(right.output_fields()?),
                }
                // Outer joins make the other side's columns nullable.
                Ok(fields
                    .into_iter()
                    .map(|mut f| {
                        f.nullable = true;
                        f
                    })
                    .collect())
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                names,
            } => {
                let in_fields = input.output_fields()?;
                let in_types: Vec<DataType> = in_fields.iter().map(|f| f.data_type).collect();
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for (i, g) in group_by.iter().enumerate() {
                    fields.push(Field::nullable(
                        names.get(i).cloned().unwrap_or_else(|| format!("group{i}")),
                        g.infer_type(&in_types)?,
                    ));
                }
                for (i, a) in aggs.iter().enumerate() {
                    fields.push(Field::nullable(
                        names
                            .get(group_by.len() + i)
                            .cloned()
                            .unwrap_or_else(|| format!("agg{i}")),
                        a.output_type(&in_types)?,
                    ));
                }
                Ok(fields)
            }
            LogicalPlan::Sort { input, .. } => input.output_fields(),
            LogicalPlan::UnionAll { inputs } => inputs
                .first()
                .ok_or_else(|| Error::Plan("empty UNION ALL".into()))?
                .output_fields(),
        }
    }

    /// Output column types.
    pub fn output_types(&self) -> Result<Vec<DataType>> {
        Ok(self.output_fields()?.iter().map(|f| f.data_type).collect())
    }

    /// Number of output columns.
    pub fn arity(&self) -> Result<usize> {
        Ok(self.output_fields()?.len())
    }

    /// Child plans (for generic traversals).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs } => inputs.iter().collect(),
        }
    }

    /// Resolve a named output column to its ordinal.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.output_fields()?
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| Error::Catalog(format!("unknown column '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstore_exec::ops::hash_agg::AggFunc;
    use cstore_storage::pred::CmpOp;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Field::not_null("a", DataType::Int64),
                Field::not_null("b", DataType::Utf8),
                Field::nullable("c", DataType::Float64),
            ]),
            projection: None,
            pushed: vec![],
            row_ids: false,
        }
    }

    #[test]
    fn scan_projection_narrows_fields() {
        let mut s = scan();
        assert_eq!(s.arity().unwrap(), 3);
        if let LogicalPlan::Scan { projection, .. } = &mut s {
            *projection = Some(vec![2, 0]);
        }
        let fields = s.output_fields().unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, "c");
        assert_eq!(fields[1].name, "a");
        if let LogicalPlan::Scan { row_ids, .. } = &mut s {
            *row_ids = true;
        }
        let fields = s.output_fields().unwrap();
        assert_eq!(fields.len(), 3, "the row id follows the projected columns");
        assert_eq!(fields[2].name, ROW_ID_COLUMN);
        assert_eq!(fields[2].data_type, DataType::Int64);
    }

    #[test]
    fn join_concatenates_fields() {
        let j = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            join_type: JoinType::Inner,
            on_left: vec![0],
            on_right: vec![0],
        };
        assert_eq!(j.arity().unwrap(), 6);
        let semi = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            join_type: JoinType::LeftSemi,
            on_left: vec![0],
            on_right: vec![0],
        };
        assert_eq!(semi.arity().unwrap(), 3);
    }

    #[test]
    fn aggregate_fields_and_types() {
        let a = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![Expr::col(1)],
            aggs: vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Avg, Expr::col(0)),
            ],
            names: vec!["b".into(), "n".into(), "avg_a".into()],
        };
        let fields = a.output_fields().unwrap();
        assert_eq!(fields[0].data_type, DataType::Utf8);
        assert_eq!(fields[1].data_type, DataType::Int64);
        assert_eq!(fields[2].data_type, DataType::Float64);
        assert_eq!(a.column_index("avg_a").unwrap(), 2);
    }

    #[test]
    fn filter_preserves_schema() {
        let f = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(5i64)),
        };
        assert_eq!(f.arity().unwrap(), 3);
    }
}
