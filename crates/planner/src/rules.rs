//! Rewrite rules: predicate pushdown, projection pruning, join ordering.

use std::collections::BTreeSet;

use cstore_common::{Error, FxHashMap, Result};
use cstore_exec::ops::hash_join::JoinType;
use cstore_exec::Expr;
use cstore_storage::pred::ColumnPred;

use crate::catalog::CatalogProvider;
use crate::logical::LogicalPlan;
use crate::stats::TableStatistics;

/// Run the standard rewrite pipeline.
pub fn optimize(plan: LogicalPlan, catalog: &dyn CatalogProvider) -> Result<LogicalPlan> {
    let plan = push_filters(plan)?;
    let plan = order_joins(plan, catalog)?;
    // Pushdown again: join reordering may have exposed new pushdown
    // opportunities (filters that floated above reordered joins).
    let plan = push_filters(plan)?;
    prune_projections(plan)
}

// ------------------------------------------------------------ pushdown

/// Split an expression into its top-level conjuncts.
pub fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            split_conjuncts(*a, out);
            split_conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// AND a list of conjuncts back together (empty → None).
pub fn conjoin(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut acc = conjuncts.pop()?;
    while let Some(e) = conjuncts.pop() {
        acc = Expr::and(e, acc);
    }
    Some(acc)
}

/// Convert `col <op> const`-shaped expressions into a pushable
/// [`ColumnPred`] over the input's column `usize`.
pub fn to_column_pred(e: &Expr) -> Option<(usize, ColumnPred)> {
    match e {
        Expr::Cmp { op, lhs, rhs } => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => Some((
                *c,
                ColumnPred::Cmp {
                    op: *op,
                    value: v.clone(),
                },
            )),
            (Expr::Lit(v), Expr::Col(c)) => Some((
                *c,
                ColumnPred::Cmp {
                    op: op.flip(),
                    value: v.clone(),
                },
            )),
            _ => None,
        },
        Expr::InList { expr, list } => match expr.as_ref() {
            Expr::Col(c) => Some((*c, ColumnPred::InList(list.clone()))),
            _ => None,
        },
        Expr::IsNull(inner) => match inner.as_ref() {
            Expr::Col(c) => Some((*c, ColumnPred::IsNull)),
            _ => None,
        },
        Expr::IsNotNull(inner) => match inner.as_ref() {
            Expr::Col(c) => Some((*c, ColumnPred::IsNotNull)),
            _ => None,
        },
        _ => None,
    }
}

/// Shift every `Col(i)` in `e` by `-offset` (for pushing right-side join
/// conjuncts down).
fn shift_columns(e: &Expr, offset: usize) -> Expr {
    remap_expr(e, &|i| i - offset)
}

/// Rewrite column ordinals through `f`.
fn remap_expr(e: &Expr, f: &impl Fn(usize) -> usize) -> Expr {
    match e {
        Expr::Col(i) => Expr::Col(f(*i)),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
            op: *op,
            lhs: Box::new(remap_expr(lhs, f)),
            rhs: Box::new(remap_expr(rhs, f)),
        },
        Expr::And(a, b) => Expr::And(Box::new(remap_expr(a, f)), Box::new(remap_expr(b, f))),
        Expr::Or(a, b) => Expr::Or(Box::new(remap_expr(a, f)), Box::new(remap_expr(b, f))),
        Expr::Not(x) => Expr::Not(Box::new(remap_expr(x, f))),
        Expr::IsNull(x) => Expr::IsNull(Box::new(remap_expr(x, f))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(remap_expr(x, f))),
        Expr::Arith { op, lhs, rhs } => Expr::Arith {
            op: *op,
            lhs: Box::new(remap_expr(lhs, f)),
            rhs: Box::new(remap_expr(rhs, f)),
        },
        Expr::InList { expr, list } => Expr::InList {
            expr: Box::new(remap_expr(expr, f)),
            list: list.clone(),
        },
        Expr::Like { expr, pattern } => Expr::Like {
            expr: Box::new(remap_expr(expr, f)),
            pattern: pattern.clone(),
        },
    }
}

fn expr_refs(e: &Expr) -> Vec<usize> {
    let mut v = Vec::new();
    e.referenced_columns(&mut v);
    v
}

/// Push filter predicates toward (and into) scans.
pub fn push_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_filters(*input)?;
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            push_conjuncts(input, conjuncts)?
        }
        LogicalPlan::Project {
            input,
            exprs,
            names,
        } => LogicalPlan::Project {
            input: Box::new(push_filters(*input)?),
            exprs,
            names,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on_left,
            on_right,
        } => LogicalPlan::Join {
            left: Box::new(push_filters(*left)?),
            right: Box::new(push_filters(*right)?),
            join_type,
            on_left,
            on_right,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            names,
        } => LogicalPlan::Aggregate {
            input: Box::new(push_filters(*input)?),
            group_by,
            aggs,
            names,
        },
        LogicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
        } => LogicalPlan::Sort {
            input: Box::new(push_filters(*input)?),
            keys,
            limit,
            offset,
        },
        LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
            inputs: inputs
                .into_iter()
                .map(push_filters)
                .collect::<Result<Vec<_>>>()?,
        },
        leaf @ LogicalPlan::Scan { .. } => leaf,
    })
}

/// Push a set of conjuncts into `plan`, keeping what can't sink as a
/// Filter on top.
fn push_conjuncts(plan: LogicalPlan, conjuncts: Vec<Expr>) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            projection,
            mut pushed,
            row_ids,
        } => {
            // Scans at this stage output the full table schema (pruning
            // runs later), so filter ordinals == table ordinals.
            debug_assert!(projection.is_none(), "pushdown must run before pruning");
            let mut residual = Vec::new();
            for c in conjuncts {
                match to_column_pred(&c) {
                    Some((col, pred)) => pushed.push((col, pred)),
                    None => residual.push(c),
                }
            }
            let scan = LogicalPlan::Scan {
                table,
                schema,
                projection,
                pushed,
                row_ids,
            };
            Ok(match conjoin(residual) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(scan),
                    predicate: p,
                },
                None => scan,
            })
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on_left,
            on_right,
        } => {
            let left_arity = left.arity()?;
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut residual = Vec::new();
            for c in conjuncts {
                let refs = expr_refs(&c);
                let all_left = refs.iter().all(|&i| i < left_arity);
                let all_right = refs.iter().all(|&i| i >= left_arity);
                // Pushing below a join is only sound where the join cannot
                // null-extend that side.
                let left_safe = !matches!(join_type, JoinType::RightOuter | JoinType::FullOuter);
                let right_safe = matches!(join_type, JoinType::Inner);
                if all_left && left_safe {
                    to_left.push(c);
                } else if all_right && right_safe {
                    to_right.push(shift_columns(&c, left_arity));
                } else {
                    residual.push(c);
                }
            }
            let left = push_conjuncts(*left, to_left)?;
            let right = push_conjuncts(*right, to_right)?;
            let join = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                on_left,
                on_right,
            };
            Ok(match conjoin(residual) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: p,
                },
                None => join,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut all = conjuncts;
            split_conjuncts(predicate, &mut all);
            push_conjuncts(*input, all)
        }
        other => {
            // Don't sink through Project/Aggregate/Sort/Union; keep the
            // filter here.
            let other = push_filters(other)?;
            Ok(match conjoin(conjuncts) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(other),
                    predicate: p,
                },
                None => other,
            })
        }
    }
}

// -------------------------------------------------------- join ordering

/// Rough output-cardinality estimate.
pub fn estimate_rows(plan: &LogicalPlan, catalog: &dyn CatalogProvider) -> f64 {
    match plan {
        LogicalPlan::Scan { table, pushed, .. } => {
            let stats = match catalog.statistics(table) {
                Some(s) => s,
                None => {
                    let Some(t) = catalog.table(table) else {
                        return 1000.0;
                    };
                    TableStatistics::collect(&t)
                }
            };
            let mut rows = stats.row_count as f64;
            for (col, pred) in pushed {
                rows *= stats.pred_selectivity(*col, pred);
            }
            rows.max(1.0)
        }
        LogicalPlan::Filter { input, predicate } => {
            // Without deeper context, reuse table-free selectivity defaults.
            let stats = TableStatistics::default();
            estimate_rows(input, catalog) * stats.expr_selectivity(predicate).max(0.001)
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::Sort { input, .. } => {
            estimate_rows(input, catalog)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            ..
        } => {
            let l = estimate_rows(left, catalog);
            let r = estimate_rows(right, catalog);
            match join_type {
                JoinType::Inner => estimate_inner(l, r),
                JoinType::LeftOuter | JoinType::LeftSemi => l,
                JoinType::LeftAnti => l * 0.5,
                JoinType::RightOuter => r.max(l),
                JoinType::FullOuter => l + r,
            }
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                (estimate_rows(input, catalog) / 10.0).max(1.0)
            }
        }
        LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| estimate_rows(p, catalog)).sum(),
    }
}

/// Inner-join cardinality. Star joins are FK→PK: the fact (larger) side's
/// cardinality is an upper bound and, with unfiltered dimensions, a good
/// estimate; dimension filtering is already reflected in the scan estimates
/// that feed join *ordering*, so this deliberately coarse estimate is only
/// used for the batch-vs-row mode decision.
fn estimate_inner(l: f64, r: f64) -> f64 {
    l.max(r).max(1.0)
}

/// Greedy star-join ordering: for a left-deep chain of inner equijoins
/// whose join keys all come from the leftmost (fact) input, join the
/// dimension with the smallest estimated cardinality first. A compensating
/// projection restores the original output column order.
pub fn order_joins(plan: LogicalPlan, catalog: &dyn CatalogProvider) -> Result<LogicalPlan> {
    // First recurse into children.
    let plan = map_children(plan, &mut |c| order_joins(c, catalog))?;
    // Collect the chain root-down.
    let LogicalPlan::Join { .. } = &plan else {
        return Ok(plan);
    };
    let mut dims: Vec<(LogicalPlan, Vec<usize>, Vec<usize>)> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Join {
                left,
                right,
                join_type: JoinType::Inner,
                on_left,
                on_right,
            } => {
                dims.push((*right, on_left, on_right));
                cur = *left;
            }
            other => {
                cur = other;
                break;
            }
        }
    }
    let fact = cur;
    let fact_arity = fact.arity()?;
    // Only safe to permute when every join key references the fact table.
    if dims.len() < 2
        || dims
            .iter()
            .any(|(_, on_left, _)| on_left.iter().any(|&k| k >= fact_arity))
    {
        // Rebuild in original order.
        return Ok(rebuild_chain(fact, dims.into_iter().rev().collect()));
    }
    // Record original output layout: fact cols, then dim blocks in
    // original (bottom-up) order.
    let mut dim_arities: Vec<usize> = Vec::new();
    for (d, _, _) in dims.iter().rev() {
        dim_arities.push(d.arity()?);
    }
    // Order by ascending estimated cardinality (most selective first).
    let mut order: Vec<usize> = (0..dims.len()).collect(); // root-down index
    let estimates: Vec<f64> = dims
        .iter()
        .map(|(d, _, _)| estimate_rows(d, catalog))
        .collect();
    order.sort_by(|&a, &b| estimates[a].total_cmp(&estimates[b]));
    let already_ordered = order.windows(2).all(|w| {
        // dims is root-down; bottom-up original order is reversed.
        w[0] > w[1]
    });
    if already_ordered {
        return Ok(rebuild_chain(fact, dims.into_iter().rev().collect()));
    }
    // Build the new chain bottom-up in `order` (most selective first).
    let n_dims = dims.len();
    type Dim = (LogicalPlan, Vec<usize>, Vec<usize>);
    let mut taken: Vec<Option<Dim>> = dims.into_iter().map(Some).collect();
    let mut chain: Vec<Dim> = Vec::with_capacity(n_dims);
    for &i in &order {
        chain.push(taken[i].take().expect("each dim used once"));
    }
    // Compute where each original dim block lands in the new output.
    // New output: fact block, then blocks in `order` sequence.
    let mut new_offsets: FxHashMap<usize, usize> = FxHashMap::default(); // root-down dim idx -> new block offset
    let mut off = fact_arity;
    for &i in &order {
        new_offsets.insert(i, off);
        // dims index i (root-down) corresponds to bottom-up position
        // n_dims - 1 - i.
        off += dim_arities[n_dims - 1 - i];
    }
    let new_plan = rebuild_chain(fact, chain);
    // Compensating projection: original order was fact block then
    // bottom-up dim blocks (root-down index n_dims-1 .. 0).
    let fields = new_plan.output_fields()?;
    let mut exprs = Vec::with_capacity(fields.len());
    let mut names = Vec::with_capacity(fields.len());
    for c in 0..fact_arity {
        exprs.push(Expr::col(c));
    }
    #[allow(clippy::needless_range_loop)]
    for bottom_up in 0..n_dims {
        let root_down = n_dims - 1 - bottom_up;
        let start = new_offsets[&root_down];
        for c in 0..dim_arities[bottom_up] {
            exprs.push(Expr::col(start + c));
        }
    }
    // Names follow the original layout; recover them by permuting the new
    // field names through the same expressions.
    for e in &exprs {
        if let Expr::Col(i) = e {
            names.push(fields[*i].name.clone());
        }
    }
    Ok(LogicalPlan::Project {
        input: Box::new(new_plan),
        exprs,
        names,
    })
}

/// Rebuild a left-deep join chain from fact + (dim, on_left, on_right)
/// list in bottom-up order.
fn rebuild_chain(
    fact: LogicalPlan,
    chain: Vec<(LogicalPlan, Vec<usize>, Vec<usize>)>,
) -> LogicalPlan {
    let mut plan = fact;
    for (dim, on_left, on_right) in chain {
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(dim),
            join_type: JoinType::Inner,
            on_left,
            on_right,
        };
    }
    plan
}

fn map_children(
    plan: LogicalPlan,
    f: &mut impl FnMut(LogicalPlan) -> Result<LogicalPlan>,
) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)?),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            names,
        } => LogicalPlan::Project {
            input: Box::new(f(*input)?),
            exprs,
            names,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on_left,
            on_right,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
            join_type,
            on_left,
            on_right,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            names,
        } => LogicalPlan::Aggregate {
            input: Box::new(f(*input)?),
            group_by,
            aggs,
            names,
        },
        LogicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
        } => LogicalPlan::Sort {
            input: Box::new(f(*input)?),
            keys,
            limit,
            offset,
        },
        LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
            inputs: inputs.into_iter().map(f).collect::<Result<Vec<_>>>()?,
        },
    })
}

// ------------------------------------------------------------- pruning

/// Narrow every scan to the columns the plan actually uses.
pub fn prune_projections(plan: LogicalPlan) -> Result<LogicalPlan> {
    let arity = plan.arity()?;
    let all: BTreeSet<usize> = (0..arity).collect();
    let (plan, mapping) = restrict(plan, &all)?;
    // At the root all columns were requested; the mapping must be the
    // identity or the plan's observable schema changed.
    debug_assert!(all.iter().all(|&i| mapping.get(&i) == Some(&i)));
    Ok(plan)
}

/// Restrict `plan` to produce (at least) the columns in `needed`, returning
/// the rewritten plan and a map old-ordinal → new-ordinal.
fn restrict(
    plan: LogicalPlan,
    needed: &BTreeSet<usize>,
) -> Result<(LogicalPlan, FxHashMap<usize, usize>)> {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            projection,
            pushed,
            row_ids,
        } => {
            let n_table = schema.len();
            let narrowed = |cols: Vec<usize>| LogicalPlan::Scan {
                table,
                schema,
                projection: Some(cols),
                pushed,
                row_ids,
            };
            if let Some(existing) = projection {
                // Already narrowed (idempotent pass): identity mapping.
                let arity = existing.len() + usize::from(row_ids);
                return Ok((narrowed(existing), (0..arity).map(|i| (i, i)).collect()));
            }
            // The row id is not a table column: it stays, after whichever
            // columns do.
            let mut cols: Vec<usize> = needed.iter().copied().filter(|&c| c < n_table).collect();
            // A zero-column scan (e.g. under COUNT(*)) would lose row
            // counts: batches infer row count from their first column.
            // Keep the cheapest column as a row-count carrier.
            if cols.is_empty() && !row_ids {
                cols.push(0);
            }
            let mut mapping: FxHashMap<usize, usize> = cols
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new))
                .collect();
            if row_ids {
                mapping.insert(n_table, cols.len());
            }
            Ok((narrowed(cols), mapping))
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut need = needed.clone();
            need.extend(expr_refs(&predicate));
            let (input, m) = restrict(*input, &need)?;
            let predicate = remap_expr(&predicate, &|i| m[&i]);
            Ok((
                LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                },
                m,
            ))
        }
        LogicalPlan::Project {
            input,
            exprs,
            names,
        } => {
            // Narrow to the requested output expressions. Like scans, a
            // projection must keep at least one column or batches lose
            // their row counts (COUNT(*) needs rows, not columns).
            let mut kept: Vec<usize> = needed
                .iter()
                .copied()
                .filter(|&i| i < exprs.len())
                .collect();
            if kept.is_empty() && !exprs.is_empty() {
                kept.push(0);
            }
            let mut need_inputs: BTreeSet<usize> = BTreeSet::new();
            for &i in &kept {
                need_inputs.extend(expr_refs(&exprs[i]));
            }
            let (input, m) = restrict(*input, &need_inputs)?;
            let new_exprs: Vec<Expr> = kept
                .iter()
                .map(|&i| remap_expr(&exprs[i], &|c| m[&c]))
                .collect();
            let new_names: Vec<String> = kept.iter().map(|&i| names[i].clone()).collect();
            let mapping = kept
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new))
                .collect();
            Ok((
                LogicalPlan::Project {
                    input: Box::new(input),
                    exprs: new_exprs,
                    names: new_names,
                },
                mapping,
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on_left,
            on_right,
        } => {
            let left_arity = left.arity()?;
            let mut need_left: BTreeSet<usize> = on_left.iter().copied().collect();
            let mut need_right: BTreeSet<usize> = on_right.iter().copied().collect();
            for &i in needed {
                if i < left_arity {
                    need_left.insert(i);
                } else {
                    need_right.insert(i - left_arity);
                }
            }
            let (new_left, ml) = restrict(*left, &need_left)?;
            let (new_right, mr) = restrict(*right, &need_right)?;
            let new_left_arity = new_left.arity()?;
            let on_left = on_left.iter().map(|k| ml[k]).collect();
            let on_right = on_right.iter().map(|k| mr[k]).collect();
            let mut mapping = FxHashMap::default();
            for (&old, &new) in &ml {
                mapping.insert(old, new);
            }
            if !join_type.eq(&JoinType::LeftSemi) && !join_type.eq(&JoinType::LeftAnti) {
                for (&old, &new) in &mr {
                    mapping.insert(left_arity + old, new_left_arity + new);
                }
            }
            Ok((
                LogicalPlan::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    join_type,
                    on_left,
                    on_right,
                },
                mapping,
            ))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            names,
        } => {
            let mut need_inputs: BTreeSet<usize> = BTreeSet::new();
            for g in &group_by {
                need_inputs.extend(expr_refs(g));
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    need_inputs.extend(expr_refs(arg));
                }
            }
            let (input, m) = restrict(*input, &need_inputs)?;
            let group_by = group_by.iter().map(|g| remap_expr(g, &|c| m[&c])).collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(|arg| remap_expr(&arg, &|c| m[&c]));
                    a
                })
                .collect();
            // Aggregate output shape is unchanged.
            let arity = names.len();
            let mapping = (0..arity).map(|i| (i, i)).collect();
            Ok((
                LogicalPlan::Aggregate {
                    input: Box::new(input),
                    group_by,
                    aggs,
                    names,
                },
                mapping,
            ))
        }
        LogicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
        } => {
            let mut need = needed.clone();
            for k in &keys {
                need.extend(expr_refs(&k.expr));
            }
            let (input, m) = restrict(*input, &need)?;
            let keys = keys
                .into_iter()
                .map(|mut k| {
                    k.expr = remap_expr(&k.expr, &|c| m[&c]);
                    k
                })
                .collect();
            Ok((
                LogicalPlan::Sort {
                    input: Box::new(input),
                    keys,
                    limit,
                    offset,
                },
                m,
            ))
        }
        LogicalPlan::UnionAll { inputs } => {
            // Union inputs must stay aligned; request the same set from
            // each and verify the mappings agree.
            let mut out = Vec::with_capacity(inputs.len());
            let mut mapping: Option<FxHashMap<usize, usize>> = None;
            for p in inputs {
                let arity = p.arity()?;
                let all: BTreeSet<usize> = (0..arity).collect();
                let (p, m) = restrict(p, &all)?;
                if let Some(prev) = &mapping {
                    if *prev != m {
                        return Err(Error::Plan("UNION ALL inputs pruned inconsistently".into()));
                    }
                }
                mapping = Some(m);
                out.push(p);
            }
            Ok((
                LogicalPlan::UnionAll { inputs: out },
                mapping.unwrap_or_default(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use cstore_common::{DataType, Field, Schema, Value};
    use cstore_storage::pred::CmpOp;

    fn scan(name: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(cols.iter().map(|(n, t)| Field::nullable(*n, *t)).collect()),
            projection: None,
            pushed: vec![],
            row_ids: false,
        }
    }

    #[test]
    fn pushdown_into_scan() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t", &[("a", DataType::Int64), ("b", DataType::Utf8)])),
            predicate: Expr::and(
                Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(5i64)),
                Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::col(1)), // not pushable
            ),
        };
        let out = push_filters(plan).unwrap();
        let LogicalPlan::Filter { input, .. } = &out else {
            panic!("residual filter expected, got {out:?}");
        };
        let LogicalPlan::Scan { pushed, .. } = input.as_ref() else {
            panic!("scan expected");
        };
        assert_eq!(pushed.len(), 1);
        assert_eq!(pushed[0].0, 0);
    }

    #[test]
    fn pushdown_through_inner_join() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("f", &[("k", DataType::Int64), ("x", DataType::Int64)])),
            right: Box::new(scan("d", &[("k", DataType::Int64), ("y", DataType::Int64)])),
            join_type: JoinType::Inner,
            on_left: vec![0],
            on_right: vec![0],
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: Expr::and(
                Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(10i64)), // left.x
                Expr::cmp(CmpOp::Gt, Expr::col(3), Expr::lit(0i64)),  // right.y
            ),
        };
        let out = push_filters(plan).unwrap();
        let LogicalPlan::Join { left, right, .. } = &out else {
            panic!("join at root, got {out:?}");
        };
        let LogicalPlan::Scan { pushed, .. } = left.as_ref() else {
            panic!()
        };
        assert_eq!(pushed[0].0, 1);
        let LogicalPlan::Scan { pushed, .. } = right.as_ref() else {
            panic!()
        };
        assert_eq!(pushed[0].0, 1, "right-side ordinal rebased");
    }

    #[test]
    fn no_pushdown_below_outer_join_null_side() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("f", &[("k", DataType::Int64)])),
            right: Box::new(scan("d", &[("k", DataType::Int64)])),
            join_type: JoinType::LeftOuter,
            on_left: vec![0],
            on_right: vec![0],
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::lit(1i64)), // right side
        };
        let out = push_filters(plan).unwrap();
        assert!(
            matches!(&out, LogicalPlan::Filter { .. }),
            "filter must stay above the outer join"
        );
    }

    #[test]
    fn prune_narrows_scan() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan(
                "t",
                &[
                    ("a", DataType::Int64),
                    ("b", DataType::Int64),
                    ("c", DataType::Int64),
                ],
            )),
            exprs: vec![Expr::col(2)],
            names: vec!["c".into()],
        };
        let out = prune_projections(plan).unwrap();
        let LogicalPlan::Project { input, exprs, .. } = &out else {
            panic!()
        };
        let LogicalPlan::Scan { projection, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(projection.as_deref(), Some(&[2usize][..]));
        assert!(
            matches!(exprs[0], Expr::Col(0)),
            "expr remapped to new ordinal"
        );
    }

    /// The victim search of `UPDATE/DELETE … WHERE a = 5 AND a + b > 7`:
    /// pushdown and pruning leave the row id where it was, last.
    #[test]
    fn a_row_id_scan_keeps_its_row_id_through_pushdown_and_pruning() {
        let mut victims = scan("t", &[("a", DataType::Int64), ("b", DataType::Int64)]);
        if let LogicalPlan::Scan { row_ids, .. } = &mut victims {
            *row_ids = true;
        }
        let sum = Expr::Arith {
            op: cstore_exec::ArithOp::Add,
            lhs: Box::new(Expr::col(0)),
            rhs: Box::new(Expr::col(1)),
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(victims),
            predicate: Expr::and(
                Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(5i64)),
                Expr::cmp(CmpOp::Gt, sum, Expr::lit(7i64)),
            ),
        };
        let out = optimize(plan, &MemoryCatalog::new()).unwrap();
        let names: Vec<String> = out
            .output_fields()
            .unwrap()
            .into_iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(names, ["a", "b", crate::logical::ROW_ID_COLUMN]);
        let LogicalPlan::Filter { input, .. } = &out else {
            panic!("residual filter expected, got {out:?}");
        };
        let LogicalPlan::Scan {
            projection,
            pushed,
            row_ids,
            ..
        } = input.as_ref()
        else {
            panic!("scan expected");
        };
        assert!(*row_ids);
        assert_eq!(projection.as_deref(), Some(&[0usize, 1][..]));
        assert_eq!(pushed.len(), 1, "a = 5 is evaluated on the segment");
    }

    #[test]
    fn prune_keeps_join_keys() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("f", &[("k", DataType::Int64), ("x", DataType::Int64)])),
            right: Box::new(scan("d", &[("k", DataType::Int64), ("y", DataType::Int64)])),
            join_type: JoinType::Inner,
            on_left: vec![0],
            on_right: vec![0],
        };
        let plan = LogicalPlan::Project {
            input: Box::new(join),
            exprs: vec![Expr::col(1)], // f.x only
            names: vec!["x".into()],
        };
        let out = prune_projections(plan).unwrap();
        let LogicalPlan::Project { input, .. } = &out else {
            panic!()
        };
        let LogicalPlan::Join {
            left,
            right,
            on_left,
            on_right,
            ..
        } = input.as_ref()
        else {
            panic!()
        };
        // Both sides keep their key column even though only f.x is output.
        let LogicalPlan::Scan { projection: pl, .. } = left.as_ref() else {
            panic!()
        };
        assert_eq!(pl.as_deref(), Some(&[0usize, 1][..]));
        let LogicalPlan::Scan { projection: pr, .. } = right.as_ref() else {
            panic!()
        };
        assert_eq!(pr.as_deref(), Some(&[0usize][..]));
        assert_eq!(on_left, &[0]);
        assert_eq!(on_right, &[0]);
    }

    #[test]
    fn join_order_puts_selective_dimension_first() {
        use cstore_common::Row;
        use cstore_delta::{ColumnStoreTable, TableConfig};
        let mut catalog = MemoryCatalog::new();
        let mk = |n: usize| {
            let t = ColumnStoreTable::new(
                Schema::new(vec![Field::not_null("k", DataType::Int64)]),
                TableConfig {
                    bulk_load_threshold: 1,
                    ..TableConfig::default()
                },
            );
            t.bulk_insert(
                &(0..n as i64)
                    .map(|i| Row::new(vec![Value::Int64(i)]))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            TableRef::ColumnStore(t)
        };
        use crate::catalog::TableRef;
        catalog.register("fact", mk(10_000));
        catalog.register("big_dim", mk(5_000));
        catalog.register("small_dim", mk(10));
        let fact = scan("fact", &[("k", DataType::Int64), ("k2", DataType::Int64)]);
        let big = scan("big_dim", &[("k", DataType::Int64)]);
        let small = scan("small_dim", &[("k", DataType::Int64)]);
        // Original order: fact ⋈ big ⋈ small.
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Join {
                left: Box::new(fact),
                right: Box::new(big),
                join_type: JoinType::Inner,
                on_left: vec![0],
                on_right: vec![0],
            }),
            right: Box::new(small),
            join_type: JoinType::Inner,
            on_left: vec![1],
            on_right: vec![0],
        };
        let fields_before = plan.output_fields().unwrap();
        let out = order_joins(plan, &catalog).unwrap();
        // A compensating project preserves the output schema.
        let fields_after = out.output_fields().unwrap();
        assert_eq!(
            fields_before.iter().map(|f| &f.name).collect::<Vec<_>>(),
            fields_after.iter().map(|f| &f.name).collect::<Vec<_>>()
        );
        // And the innermost join is now against small_dim.
        let LogicalPlan::Project { input, .. } = &out else {
            panic!("expected compensating project, got {out:?}")
        };
        let LogicalPlan::Join { left, .. } = input.as_ref() else {
            panic!()
        };
        let LogicalPlan::Join { right, .. } = left.as_ref() else {
            panic!()
        };
        let LogicalPlan::Scan { table, .. } = right.as_ref() else {
            panic!()
        };
        assert_eq!(table, "small_dim");
    }
}
