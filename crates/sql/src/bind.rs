//! Binding: names → ordinals, AST → logical plan.

use cstore_common::{DataType, Error, Result, Schema, Value};
use cstore_exec::ops::hash_agg::{AggExpr, AggFunc};
use cstore_exec::ops::hash_join::JoinType;
use cstore_exec::{ArithOp, Expr};
use cstore_planner::logical::{LogicalPlan, LogicalSortKey};
use cstore_planner::CatalogProvider;
use cstore_storage::pred::CmpOp;

use crate::ast::*;

/// One visible column while binding: `(qualifier, name)`.
#[derive(Clone, Debug)]
struct ScopeCol {
    qualifier: String,
    name: String,
}

/// The set of visible columns (aligned with plan output ordinals).
struct Scope {
    cols: Vec<ScopeCol>,
    types: Vec<DataType>,
}

impl Scope {
    fn from_schema(qualifier: &str, schema: &Schema) -> Scope {
        Scope {
            cols: schema
                .fields()
                .iter()
                .map(|f| ScopeCol {
                    qualifier: qualifier.to_owned(),
                    name: f.name.clone(),
                })
                .collect(),
            types: schema.fields().iter().map(|f| f.data_type).collect(),
        }
    }

    fn concat(mut self, other: Scope) -> Scope {
        self.cols.extend(other.cols);
        self.types.extend(other.types);
        self
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name.eq_ignore_ascii_case(name)
                    && qualifier.is_none_or(|q| c.qualifier.eq_ignore_ascii_case(q))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [one] => Ok(*one),
            [] => Err(Error::Catalog(format!(
                "unknown column '{}{name}'",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            _ => Err(Error::Sql(format!("ambiguous column '{name}'"))),
        }
    }
}

/// Bind a SELECT statement to a logical plan.
pub fn bind_select(stmt: &SelectStmt, catalog: &dyn CatalogProvider) -> Result<LogicalPlan> {
    let from = stmt
        .from
        .as_ref()
        .ok_or_else(|| Error::Unsupported("SELECT without FROM".into()))?;
    let (mut plan, mut scope) = bind_table(from, catalog, false)?;

    // Joins.
    for join in &stmt.joins {
        let (right_plan, right_scope) = bind_table(&join.table, catalog, false)?;
        let _left_arity = scope.cols.len();
        // Split ON into equi-key pairs and residual conjuncts.
        let mut conjuncts = Vec::new();
        split_ast_conjuncts(&join.on, &mut conjuncts);
        let mut on_left = Vec::new();
        let mut on_right = Vec::new();
        let mut residual = Vec::new();
        for c in conjuncts {
            if let AstExpr::Binary {
                op: BinaryOp::Cmp(CmpOp::Eq),
                lhs,
                rhs,
            } = &c
            {
                let l_in_left = try_resolve(lhs, &scope);
                let r_in_right = try_resolve(rhs, &right_scope);
                if let (Some(l), Some(r)) = (l_in_left, r_in_right) {
                    on_left.push(l);
                    on_right.push(r);
                    continue;
                }
                let l_in_right = try_resolve(lhs, &right_scope);
                let r_in_left = try_resolve(rhs, &scope);
                if let (Some(r), Some(l)) = (l_in_right, r_in_left) {
                    on_left.push(l);
                    on_right.push(r);
                    continue;
                }
            }
            residual.push(c);
        }
        if on_left.is_empty() {
            return Err(Error::Unsupported(
                "join requires at least one equality condition".into(),
            ));
        }
        if !residual.is_empty() && join.join_type != JoinType::Inner {
            return Err(Error::Unsupported(
                "non-equality ON conditions are only supported for INNER JOIN".into(),
            ));
        }
        let joined_scope = match join.join_type {
            JoinType::LeftSemi | JoinType::LeftAnti => Scope {
                cols: scope.cols.clone(),
                types: scope.types.clone(),
            },
            _ => Scope {
                cols: scope.cols.clone(),
                types: scope.types.clone(),
            }
            .concat(right_scope),
        };
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right_plan),
            join_type: join.join_type,
            on_left,
            on_right,
        };
        scope = joined_scope;
        if !residual.is_empty() {
            let pred = bind_conjunction(&residual, &scope)?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }
    }

    // WHERE.
    if let Some(w) = &stmt.where_clause {
        let predicate = bind_expr(w, &scope)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    // Aggregation?
    let has_aggs = stmt.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => contains_agg(expr),
        SelectItem::Wildcard => false,
    }) || stmt.having.as_ref().is_some_and(contains_agg);
    if !stmt.group_by.is_empty() || has_aggs {
        return bind_grouped(stmt, plan, scope, catalog);
    }

    // Plain projection.
    let (exprs, names) = bind_select_items(&stmt.items, &scope)?;
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        names: names.clone(),
    };
    if stmt.distinct {
        plan = distinct_over(plan, &names)?;
    }
    bind_order_limit(stmt, plan, &names)
}

/// `SELECT DISTINCT`: group by every output column, no aggregates.
fn distinct_over(plan: LogicalPlan, names: &[String]) -> Result<LogicalPlan> {
    let arity = plan.arity()?;
    Ok(LogicalPlan::Aggregate {
        input: Box::new(plan),
        group_by: (0..arity).map(Expr::col).collect(),
        aggs: vec![],
        names: names.to_vec(),
    })
}

/// Bind a UNION ALL chain; the final branch's ORDER BY/LIMIT apply to the
/// whole union.
pub fn bind_union(branches: &[SelectStmt], catalog: &dyn CatalogProvider) -> Result<LogicalPlan> {
    assert!(branches.len() >= 2, "parser guarantees ≥2 branches");
    let (last, init) = branches.split_last().expect("non-empty");
    // Bind the last branch without its ordering, then re-apply it on top.
    let mut bare_last = last.clone();
    bare_last.order_by = vec![];
    bare_last.limit = None;
    bare_last.offset = 0;
    let mut inputs = Vec::with_capacity(branches.len());
    for b in init {
        inputs.push(bind_select(b, catalog)?);
    }
    inputs.push(bind_select(&bare_last, catalog)?);
    let first_fields = inputs[0].output_fields()?;
    let names: Vec<String> = first_fields.iter().map(|f| f.name.clone()).collect();
    let first_types: Vec<DataType> = first_fields.iter().map(|f| f.data_type).collect();
    for (i, p) in inputs.iter().enumerate().skip(1) {
        let types = p.output_types()?;
        if types != first_types {
            return Err(Error::Type(format!(
                "UNION ALL branch {} has column types {types:?}, expected {first_types:?}",
                i + 1
            )));
        }
    }
    let plan = LogicalPlan::UnionAll { inputs };
    bind_order_limit(last, plan, &names)
}

/// Bind the victim search of `UPDATE`/`DELETE … WHERE selection`: the plan
/// `SELECT *, <row id> FROM table WHERE selection` would bind to, could SQL
/// name the row id. The optimizer then treats the `WHERE` like any query's
/// (conjuncts pushed into the scan, the rest a `Filter` above it).
pub fn bind_victim_scan(
    table: &str,
    selection: Option<&AstExpr>,
    catalog: &dyn CatalogProvider,
) -> Result<LogicalPlan> {
    let from = TableRef {
        name: table.to_owned(),
        alias: None,
    };
    let (scan, scope) = bind_table(&from, catalog, true)?;
    Ok(match selection {
        Some(w) => LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: bind_expr(w, &scope)?,
        },
        None => scan,
    })
}

/// Bind FROM/JOIN table reference (`row_ids`: see [`LogicalPlan::Scan`]).
fn bind_table(
    t: &TableRef,
    catalog: &dyn CatalogProvider,
    row_ids: bool,
) -> Result<(LogicalPlan, Scope)> {
    let table = catalog
        .table(&t.name)
        .ok_or_else(|| Error::Catalog(format!("unknown table '{}'", t.name)))?;
    let schema = table.schema();
    let scope = Scope::from_schema(t.binding(), &schema);
    Ok((
        LogicalPlan::Scan {
            table: t.name.clone(),
            schema,
            projection: None,
            pushed: vec![],
            row_ids,
        },
        scope,
    ))
}

fn split_ast_conjuncts(e: &AstExpr, out: &mut Vec<AstExpr>) {
    if let AstExpr::Binary {
        op: BinaryOp::And,
        lhs,
        rhs,
    } = e
    {
        split_ast_conjuncts(lhs, out);
        split_ast_conjuncts(rhs, out);
    } else {
        out.push(e.clone());
    }
}

fn try_resolve(e: &AstExpr, scope: &Scope) -> Option<usize> {
    if let AstExpr::Column { qualifier, name } = e {
        scope.resolve(qualifier.as_deref(), name).ok()
    } else {
        None
    }
}

fn bind_conjunction(conjuncts: &[AstExpr], scope: &Scope) -> Result<Expr> {
    let mut bound = conjuncts
        .iter()
        .map(|c| bind_expr(c, scope))
        .collect::<Result<Vec<_>>>()?;
    let mut acc = bound.pop().expect("non-empty conjunction");
    while let Some(e) = bound.pop() {
        acc = Expr::and(e, acc);
    }
    Ok(acc)
}

/// Coerce a comparison literal to the column type it is compared against.
/// Decimal columns need their literals rescaled to mantissas; genuinely
/// incompatible comparisons (string vs number) are rejected at bind time
/// instead of failing mid-query.
fn coerce_cmp_literal(v: &Value, col_ty: DataType) -> Result<Value> {
    if v.is_null() || v.fits(col_ty) {
        return Ok(v.clone());
    }
    if matches!(col_ty, DataType::Decimal { .. }) {
        return coerce(v.clone(), col_ty);
    }
    // Mixed numeric comparisons (int literal vs float column etc.) are
    // handled by the comparison kernels directly.
    let lit_numeric = matches!(
        v,
        Value::Int32(_) | Value::Int64(_) | Value::Float64(_) | Value::Decimal(_)
    );
    if lit_numeric && (col_ty.is_numeric() || col_ty == DataType::Date) {
        return Ok(v.clone());
    }
    Err(Error::Type(format!(
        "cannot compare a {col_ty} column with literal {v}"
    )))
}

/// If `bound` is a bare column, the type to coerce its comparands to.
fn col_type(bound: &Expr, scope: &Scope) -> Option<DataType> {
    match bound {
        Expr::Col(c) => scope.types.get(*c).copied(),
        _ => None,
    }
}

/// Bind an expression against a scope. Aggregate calls are rejected here;
/// grouped queries go through [`bind_grouped`].
fn bind_expr(e: &AstExpr, scope: &Scope) -> Result<Expr> {
    Ok(match e {
        AstExpr::Column { qualifier, name } => {
            Expr::col(scope.resolve(qualifier.as_deref(), name)?)
        }
        AstExpr::Lit(v) => Expr::Lit(v.clone()),
        AstExpr::Binary { op, lhs, rhs } => {
            let mut l = bind_expr(lhs, scope)?;
            let mut r = bind_expr(rhs, scope)?;
            if let BinaryOp::Cmp(_) = op {
                // Rescale literals compared against typed columns.
                if let (Some(ty), Expr::Lit(v)) = (col_type(&l, scope), &r) {
                    r = Expr::Lit(coerce_cmp_literal(v, ty)?);
                } else if let (Expr::Lit(v), Some(ty)) = (&l, col_type(&r, scope)) {
                    l = Expr::Lit(coerce_cmp_literal(v, ty)?);
                }
            }
            match op {
                BinaryOp::Cmp(c) => Expr::cmp(*c, l, r),
                BinaryOp::And => Expr::and(l, r),
                BinaryOp::Or => Expr::or(l, r),
                BinaryOp::Add => Expr::arith(ArithOp::Add, l, r),
                BinaryOp::Sub => Expr::arith(ArithOp::Sub, l, r),
                BinaryOp::Mul => Expr::arith(ArithOp::Mul, l, r),
                BinaryOp::Div => Expr::arith(ArithOp::Div, l, r),
            }
        }
        AstExpr::Not(inner) => Expr::Not(Box::new(bind_expr(inner, scope)?)),
        AstExpr::Neg(inner) => match bind_expr(inner, scope)? {
            // Fold literal negation so `-5` stays a literal.
            Expr::Lit(Value::Int64(n)) => Expr::Lit(Value::Int64(-n)),
            Expr::Lit(Value::Float64(f)) => Expr::Lit(Value::Float64(-f)),
            other => Expr::arith(ArithOp::Sub, Expr::lit(0i64), other),
        },
        AstExpr::Between {
            expr,
            negated,
            lo,
            hi,
        } => {
            let x = bind_expr(expr, scope)?;
            let fix = |e: Expr| -> Result<Expr> {
                match (col_type(&x, scope), &e) {
                    (Some(ty), Expr::Lit(v)) => Ok(Expr::Lit(coerce_cmp_literal(v, ty)?)),
                    _ => Ok(e),
                }
            };
            let lo = fix(bind_expr(lo, scope)?)?;
            let hi = fix(bind_expr(hi, scope)?)?;
            let b = Expr::and(
                Expr::cmp(CmpOp::Ge, x.clone(), lo),
                Expr::cmp(CmpOp::Le, x, hi),
            );
            if *negated {
                Expr::Not(Box::new(b))
            } else {
                b
            }
        }
        AstExpr::InList {
            expr,
            negated,
            list,
        } => {
            let x = bind_expr(expr, scope)?;
            let values = list
                .iter()
                .map(|item| match item {
                    AstExpr::Lit(v) => Ok(v.clone()),
                    AstExpr::Neg(inner) => match inner.as_ref() {
                        AstExpr::Lit(Value::Int64(n)) => Ok(Value::Int64(-n)),
                        AstExpr::Lit(Value::Float64(f)) => Ok(Value::Float64(-f)),
                        _ => Err(Error::Unsupported("IN list items must be literals".into())),
                    },
                    _ => Err(Error::Unsupported("IN list items must be literals".into())),
                })
                .collect::<Result<Vec<_>>>()?;
            let values = match col_type(&x, scope) {
                Some(ty) => values
                    .iter()
                    .map(|v| coerce_cmp_literal(v, ty))
                    .collect::<Result<Vec<_>>>()?,
                None => values,
            };
            let e = Expr::InList {
                expr: Box::new(x),
                list: values,
            };
            if *negated {
                Expr::Not(Box::new(e))
            } else {
                e
            }
        }
        AstExpr::IsNull { expr, negated } => {
            let x = Box::new(bind_expr(expr, scope)?);
            if *negated {
                Expr::IsNotNull(x)
            } else {
                Expr::IsNull(x)
            }
        }
        AstExpr::Like {
            expr,
            negated,
            pattern,
        } => {
            let x = bind_expr(expr, scope)?;
            if let Some(ty) = col_type(&x, scope) {
                if ty != DataType::Utf8 {
                    return Err(Error::Type(format!(
                        "LIKE applies to VARCHAR columns, not {ty}"
                    )));
                }
            }
            let like = Expr::Like {
                expr: Box::new(x.clone()),
                pattern: pattern.clone(),
            };
            if *negated {
                Expr::Not(Box::new(like))
            } else {
                // Prefix patterns additionally get a *redundant* sargable
                // range (`col >= 'abc' AND col < 'abd'`) so the scan can
                // push it onto encoded data and eliminate segments; the
                // LIKE itself stays for exactness.
                match prefix_range(pattern) {
                    Some((lo, hi)) => {
                        let mut e = Expr::cmp(CmpOp::Ge, x.clone(), Expr::Lit(Value::str(lo)));
                        if let Some(hi) = hi {
                            e = Expr::and(e, Expr::cmp(CmpOp::Lt, x, Expr::Lit(Value::str(hi))));
                        }
                        Expr::and(e, like)
                    }
                    None => like,
                }
            }
        }
        AstExpr::FuncCall { name, .. } => {
            return Err(Error::Sql(format!(
                "aggregate {name}() is not allowed here"
            )))
        }
    })
}

/// For a pattern with a non-empty literal prefix (e.g. `abc%`), the
/// sargable range `[prefix, successor)`. `None` when the pattern starts
/// with a wildcard; the upper bound is `None` when no successor string
/// exists (prefix of all `char::MAX`).
fn prefix_range(pattern: &str) -> Option<(String, Option<String>)> {
    let prefix: String = pattern
        .chars()
        .take_while(|&c| c != '%' && c != '_')
        .collect();
    if prefix.is_empty() {
        return None;
    }
    // Successor: bump the last char that has a successor.
    let mut chars: Vec<char> = prefix.chars().collect();
    let hi = loop {
        match chars.pop() {
            None => break None,
            Some(c) => {
                if let Some(next) = char::from_u32(c as u32 + 1).filter(|n| *n > c) {
                    chars.push(next);
                    break Some(chars.iter().collect::<String>());
                }
                // No successor char (surrogate boundary etc.): drop it and
                // bump the previous one.
            }
        }
    };
    Some((prefix, hi))
}

fn contains_agg(e: &AstExpr) -> bool {
    match e {
        AstExpr::FuncCall { .. } => true,
        AstExpr::Binary { lhs, rhs, .. } => contains_agg(lhs) || contains_agg(rhs),
        AstExpr::Not(x) | AstExpr::Neg(x) => contains_agg(x),
        AstExpr::Between { expr, lo, hi, .. } => {
            contains_agg(expr) || contains_agg(lo) || contains_agg(hi)
        }
        AstExpr::InList { expr, .. } => contains_agg(expr),
        AstExpr::IsNull { expr, .. } | AstExpr::Like { expr, .. } => contains_agg(expr),
        AstExpr::Column { .. } | AstExpr::Lit(_) => false,
    }
}

fn collect_aggs(e: &AstExpr, out: &mut Vec<AstExpr>) {
    match e {
        AstExpr::FuncCall { .. } => {
            if !out.contains(e) {
                out.push(e.clone());
            }
        }
        AstExpr::Binary { lhs, rhs, .. } => {
            collect_aggs(lhs, out);
            collect_aggs(rhs, out);
        }
        AstExpr::Not(x) | AstExpr::Neg(x) => collect_aggs(x, out),
        AstExpr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        AstExpr::InList { expr, .. } => collect_aggs(expr, out),
        AstExpr::IsNull { expr, .. } | AstExpr::Like { expr, .. } => collect_aggs(expr, out),
        AstExpr::Column { .. } | AstExpr::Lit(_) => {}
    }
}

/// Bind a grouped (or scalar-aggregate) SELECT.
fn bind_grouped(
    stmt: &SelectStmt,
    input: LogicalPlan,
    scope: Scope,
    _catalog: &dyn CatalogProvider,
) -> Result<LogicalPlan> {
    // Collect distinct aggregate calls from items + HAVING + ORDER BY.
    let mut agg_asts: Vec<AstExpr> = Vec::new();
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr, &mut agg_asts);
        } else {
            return Err(Error::Sql(
                "SELECT * cannot be combined with GROUP BY".into(),
            ));
        }
    }
    if let Some(h) = &stmt.having {
        collect_aggs(h, &mut agg_asts);
    }
    for o in &stmt.order_by {
        collect_aggs(&o.expr, &mut agg_asts);
    }
    // Bind aggregates and group keys against the input scope.
    let aggs: Vec<AggExpr> = agg_asts
        .iter()
        .map(|a| bind_agg(a, &scope))
        .collect::<Result<Vec<_>>>()?;
    let group_exprs: Vec<Expr> = stmt
        .group_by
        .iter()
        .map(|g| bind_expr(g, &scope))
        .collect::<Result<Vec<_>>>()?;
    let n_groups = group_exprs.len();
    // Names for the Aggregate node's raw output.
    let mut agg_names: Vec<String> = (0..n_groups).map(|i| format!("group{i}")).collect();
    agg_names.extend((0..aggs.len()).map(|i| format!("agg{i}")));
    let agg_plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: group_exprs,
        aggs,
        names: agg_names,
    };
    // Rewriting context: an expression over the aggregate output replaces
    // group-by subtrees with Col(i) and aggregate subtrees with
    // Col(n_groups + j).
    let rewrite = |e: &AstExpr| -> Result<Expr> {
        rewrite_grouped(e, &stmt.group_by, &agg_asts, n_groups, &scope)
    };
    // HAVING.
    let mut plan = agg_plan;
    if let Some(h) = &stmt.having {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: rewrite(h)?,
        };
    }
    // SELECT list.
    let mut exprs = Vec::with_capacity(stmt.items.len());
    let mut names = Vec::with_capacity(stmt.items.len());
    for (i, item) in stmt.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            // lint: allow(panic) — wildcards were expanded into Expr items
            // earlier in bind_select
            unreachable!("wildcard rejected above");
        };
        exprs.push(rewrite(expr)?);
        names.push(alias.clone().unwrap_or_else(|| display_name(expr, i)));
    }
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        names: names.clone(),
    };
    bind_order_limit(stmt, plan, &names)
}

/// Rewrite an expression over the aggregate's output.
#[allow(clippy::only_used_in_recursion)]
fn rewrite_grouped(
    e: &AstExpr,
    group_by: &[AstExpr],
    agg_asts: &[AstExpr],
    n_groups: usize,
    scope: &Scope,
) -> Result<Expr> {
    // Whole-subtree matches first.
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return Ok(Expr::col(i));
    }
    if let Some(j) = agg_asts.iter().position(|a| a == e) {
        return Ok(Expr::col(n_groups + j));
    }
    Ok(match e {
        AstExpr::Lit(v) => Expr::Lit(v.clone()),
        AstExpr::Binary { op, lhs, rhs } => {
            let l = rewrite_grouped(lhs, group_by, agg_asts, n_groups, scope)?;
            let r = rewrite_grouped(rhs, group_by, agg_asts, n_groups, scope)?;
            match op {
                BinaryOp::Cmp(c) => Expr::cmp(*c, l, r),
                BinaryOp::And => Expr::and(l, r),
                BinaryOp::Or => Expr::or(l, r),
                BinaryOp::Add => Expr::arith(ArithOp::Add, l, r),
                BinaryOp::Sub => Expr::arith(ArithOp::Sub, l, r),
                BinaryOp::Mul => Expr::arith(ArithOp::Mul, l, r),
                BinaryOp::Div => Expr::arith(ArithOp::Div, l, r),
            }
        }
        AstExpr::Not(x) => Expr::Not(Box::new(rewrite_grouped(
            x, group_by, agg_asts, n_groups, scope,
        )?)),
        AstExpr::Neg(x) => Expr::arith(
            ArithOp::Sub,
            Expr::lit(0i64),
            rewrite_grouped(x, group_by, agg_asts, n_groups, scope)?,
        ),
        AstExpr::IsNull { expr, negated } => {
            let x = Box::new(rewrite_grouped(expr, group_by, agg_asts, n_groups, scope)?);
            if *negated {
                Expr::IsNotNull(x)
            } else {
                Expr::IsNull(x)
            }
        }
        AstExpr::Between {
            expr,
            negated,
            lo,
            hi,
        } => {
            let x = rewrite_grouped(expr, group_by, agg_asts, n_groups, scope)?;
            let b = Expr::and(
                Expr::cmp(
                    CmpOp::Ge,
                    x.clone(),
                    rewrite_grouped(lo, group_by, agg_asts, n_groups, scope)?,
                ),
                Expr::cmp(
                    CmpOp::Le,
                    x,
                    rewrite_grouped(hi, group_by, agg_asts, n_groups, scope)?,
                ),
            );
            if *negated {
                Expr::Not(Box::new(b))
            } else {
                b
            }
        }
        AstExpr::InList {
            expr,
            negated,
            list,
        } => {
            let x = rewrite_grouped(expr, group_by, agg_asts, n_groups, scope)?;
            let values = list
                .iter()
                .map(|item| match item {
                    AstExpr::Lit(v) => Ok(v.clone()),
                    _ => Err(Error::Unsupported("IN list items must be literals".into())),
                })
                .collect::<Result<Vec<_>>>()?;
            let e = Expr::InList {
                expr: Box::new(x),
                list: values,
            };
            if *negated {
                Expr::Not(Box::new(e))
            } else {
                e
            }
        }
        AstExpr::Like {
            expr,
            negated,
            pattern,
        } => {
            let x = rewrite_grouped(expr, group_by, agg_asts, n_groups, scope)?;
            let e = Expr::Like {
                expr: Box::new(x),
                pattern: pattern.clone(),
            };
            if *negated {
                Expr::Not(Box::new(e))
            } else {
                e
            }
        }
        AstExpr::Column { name, qualifier } => {
            return Err(Error::Sql(format!(
                "column '{}{name}' must appear in GROUP BY or inside an aggregate",
                qualifier
                    .as_ref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            )))
        }
        other => {
            return Err(Error::Unsupported(format!(
                "expression {other:?} not supported over GROUP BY output"
            )))
        }
    })
}

fn bind_agg(e: &AstExpr, scope: &Scope) -> Result<AggExpr> {
    let AstExpr::FuncCall {
        name,
        arg,
        star,
        distinct,
    } = e
    else {
        // lint: allow(panic) — collect_aggs only yields Func expressions
        unreachable!("collect_aggs only collects calls");
    };
    let func = match name.as_str() {
        "COUNT" if *star => return Ok(AggExpr::count_star()),
        "COUNT" if *distinct => AggFunc::CountDistinct,
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        "AVG" => AggFunc::Avg,
        other => return Err(Error::Sql(format!("unknown aggregate '{other}'"))),
    };
    let arg = arg
        .as_ref()
        .ok_or_else(|| Error::Sql(format!("{name}() requires an argument")))?;
    if contains_agg(arg) {
        return Err(Error::Sql("nested aggregates are not allowed".into()));
    }
    Ok(AggExpr::new(func, bind_expr(arg, scope)?))
}

/// Bind SELECT items (non-grouped path).
fn bind_select_items(items: &[SelectItem], scope: &Scope) -> Result<(Vec<Expr>, Vec<String>)> {
    let mut exprs = Vec::new();
    let mut names = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (ord, col) in scope.cols.iter().enumerate() {
                    exprs.push(Expr::col(ord));
                    names.push(col.name.clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                exprs.push(bind_expr(expr, scope)?);
                names.push(alias.clone().unwrap_or_else(|| display_name(expr, i)));
            }
        }
    }
    Ok((exprs, names))
}

fn display_name(e: &AstExpr, ordinal: usize) -> String {
    match e {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::FuncCall { name, star, .. } => {
            if *star {
                format!("{}_star", name.to_ascii_lowercase())
            } else {
                name.to_ascii_lowercase()
            }
        }
        _ => format!("col{ordinal}"),
    }
}

/// Attach ORDER BY / LIMIT / OFFSET over the final projection.
fn bind_order_limit(
    stmt: &SelectStmt,
    plan: LogicalPlan,
    output_names: &[String],
) -> Result<LogicalPlan> {
    if stmt.order_by.is_empty() && stmt.limit.is_none() && stmt.offset == 0 {
        return Ok(plan);
    }
    let mut keys = Vec::with_capacity(stmt.order_by.len());
    for o in &stmt.order_by {
        let ordinal = match &o.expr {
            AstExpr::Lit(Value::Int64(n)) if (1..=output_names.len() as i64).contains(n) => {
                (*n - 1) as usize
            }
            AstExpr::Column {
                qualifier: None,
                name,
            } => output_names
                .iter()
                .position(|x| x.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    Error::Sql(format!(
                        "ORDER BY column '{name}' is not in the SELECT list"
                    ))
                })?,
            AstExpr::FuncCall { .. } => {
                return Err(Error::Unsupported(
                    "ORDER BY aggregate: give it an alias in the SELECT list".into(),
                ))
            }
            other => {
                return Err(Error::Unsupported(format!(
                    "ORDER BY expression {other:?}; use an output column name or ordinal"
                )))
            }
        };
        keys.push(LogicalSortKey {
            expr: Expr::col(ordinal),
            descending: o.descending,
        });
    }
    Ok(LogicalPlan::Sort {
        input: Box::new(plan),
        keys,
        limit: stmt.limit,
        offset: stmt.offset,
    })
}

/// Bind an expression against one table's schema (`SET col = expr`, and
/// the `WHERE` of heap-table DML).
pub fn bind_expr_on_schema(e: &AstExpr, schema: &Schema, table: &str) -> Result<Expr> {
    let scope = Scope::from_schema(table, schema);
    bind_expr(e, &scope)
}

/// Evaluate a literal-only expression (INSERT values).
pub fn literal_value(e: &AstExpr, target: DataType) -> Result<Value> {
    let v = match e {
        AstExpr::Lit(v) => v.clone(),
        AstExpr::Neg(inner) => match literal_value(inner, target)? {
            Value::Int64(n) => Value::Int64(-n),
            Value::Int32(n) => Value::Int32(-n),
            Value::Float64(f) => Value::Float64(-f),
            Value::Decimal(m) => Value::Decimal(-m),
            other => return Err(Error::Type(format!("cannot negate {other:?}"))),
        },
        other => {
            return Err(Error::Unsupported(format!(
                "INSERT values must be literals, got {other:?}"
            )))
        }
    };
    coerce(v, target)
}

/// Coerce a literal to a column type (integer widths, decimal mantissas).
pub fn coerce(v: Value, target: DataType) -> Result<Value> {
    if v.is_null() || v.fits(target) {
        return Ok(v);
    }
    let coerced = match (&v, target) {
        (Value::Int64(n), DataType::Int32) if i32::try_from(*n).is_ok() => {
            Some(Value::Int32(*n as i32))
        }
        (Value::Int32(n), DataType::Int64) => Some(Value::Int64(*n as i64)),
        (Value::Int64(n), DataType::Date) if i32::try_from(*n).is_ok() => {
            Some(Value::Date(*n as i32))
        }
        (Value::Int64(n), DataType::Float64) => Some(Value::Float64(*n as f64)),
        (Value::Int64(n), DataType::Decimal { scale }) => {
            n.checked_mul(10i64.pow(scale as u32)).map(Value::Decimal)
        }
        (Value::Float64(f), DataType::Decimal { scale }) => {
            Some(Value::Decimal((f * 10f64.powi(scale as i32)).round() as i64))
        }
        (Value::Bool(b), DataType::Bool) => Some(Value::Bool(*b)),
        _ => None,
    };
    coerced.ok_or_else(|| Error::Type(format!("cannot store {v:?} in a {target} column")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cstore_common::{Field, Row};
    use cstore_delta::{ColumnStoreTable, TableConfig};
    use cstore_planner::catalog::{MemoryCatalog, TableRef as CatTable};

    fn catalog() -> MemoryCatalog {
        let mut c = MemoryCatalog::new();
        let mk = |fields: Vec<Field>, rows: Vec<Row>| {
            let t = ColumnStoreTable::new(
                Schema::new(fields),
                TableConfig {
                    bulk_load_threshold: 1,
                    ..TableConfig::default()
                },
            );
            if !rows.is_empty() {
                t.bulk_insert(&rows).unwrap();
            }
            CatTable::ColumnStore(t)
        };
        c.register(
            "sales",
            mk(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::not_null("cust_id", DataType::Int64),
                    Field::nullable("amount", DataType::Float64),
                ],
                (0..100)
                    .map(|i| {
                        Row::new(vec![
                            Value::Int64(i),
                            Value::Int64(i % 10),
                            Value::Float64(i as f64),
                        ])
                    })
                    .collect(),
            ),
        );
        c.register(
            "customers",
            mk(
                vec![
                    Field::not_null("id", DataType::Int64),
                    Field::not_null("name", DataType::Utf8),
                ],
                (0..10)
                    .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("c{i}"))]))
                    .collect(),
            ),
        );
        c
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let Statement::Select(s) = parse(sql)? else {
            panic!("not a select")
        };
        bind_select(&s, &catalog())
    }

    #[test]
    fn binds_simple_select() {
        let plan = bind("SELECT id, amount FROM sales WHERE amount > 10").unwrap();
        let fields = plan.output_fields().unwrap();
        assert_eq!(fields[0].name, "id");
        assert_eq!(fields[1].name, "amount");
    }

    #[test]
    fn binds_wildcard_and_alias() {
        let plan = bind("SELECT * FROM sales s").unwrap();
        assert_eq!(plan.arity().unwrap(), 3);
        let plan = bind("SELECT s.id AS key FROM sales s").unwrap();
        assert_eq!(plan.output_fields().unwrap()[0].name, "key");
    }

    #[test]
    fn binds_join_with_keys() {
        let plan =
            bind("SELECT s.id, c.name FROM sales s JOIN customers c ON s.cust_id = c.id").unwrap();
        // Find the join and check its keys.
        fn find_join(p: &LogicalPlan) -> Option<(&Vec<usize>, &Vec<usize>)> {
            match p {
                LogicalPlan::Join {
                    on_left, on_right, ..
                } => Some((on_left, on_right)),
                _ => p.children().iter().find_map(|c| find_join(c)),
            }
        }
        let (l, r) = find_join(&plan).unwrap();
        assert_eq!(l, &vec![1]);
        assert_eq!(r, &vec![0]);
    }

    #[test]
    fn rejects_unknown_and_ambiguous() {
        assert!(bind("SELECT nope FROM sales").is_err());
        assert!(
            bind("SELECT id FROM sales s JOIN customers c ON s.cust_id = c.id").is_err(),
            "id is ambiguous"
        );
        assert!(bind("SELECT * FROM missing").is_err());
    }

    #[test]
    fn binds_grouped_query() {
        let plan = bind(
            "SELECT cust_id, COUNT(*) AS n, SUM(amount) AS total \
             FROM sales GROUP BY cust_id HAVING COUNT(*) > 5 \
             ORDER BY total DESC LIMIT 3",
        )
        .unwrap();
        let fields = plan.output_fields().unwrap();
        // Sort is at the root.
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
        assert_eq!(
            fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["cust_id", "n", "total"]
        );
    }

    #[test]
    fn grouped_rejects_loose_columns() {
        let err = bind("SELECT id, COUNT(*) FROM sales GROUP BY cust_id").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn agg_expression_over_aggregates() {
        let plan = bind("SELECT SUM(amount) / COUNT(*) AS mean FROM sales").unwrap();
        assert_eq!(plan.output_fields().unwrap()[0].name, "mean");
    }

    #[test]
    fn order_by_ordinal() {
        let plan = bind("SELECT id, amount FROM sales ORDER BY 2 DESC").unwrap();
        let LogicalPlan::Sort { keys, .. } = &plan else {
            panic!()
        };
        assert!(matches!(keys[0].expr, Expr::Col(1)));
        assert!(keys[0].descending);
    }

    #[test]
    fn coerce_literals() {
        assert_eq!(
            coerce(Value::Int64(5), DataType::Decimal { scale: 2 }).unwrap(),
            Value::Decimal(500)
        );
        assert_eq!(
            coerce(Value::Int64(5), DataType::Int32).unwrap(),
            Value::Int32(5)
        );
        assert!(coerce(Value::str("x"), DataType::Int64).is_err());
        assert!(coerce(Value::Int64(1 << 40), DataType::Int32).is_err());
    }
}
