//! Recursive-descent SQL parser.

use cstore_common::{DataType, Error, Result, Value};
use cstore_exec::ops::hash_join::JoinType;
use cstore_storage::pred::CmpOp;

use crate::ast::*;
use crate::lexer::{tokenize, Token};

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    parse_tokens(tokenize(sql)?)
}

/// Parse one already-lexed SQL statement.
pub fn parse_tokens(tokens: Vec<Token>) -> Result<Statement> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_if(|t| *t == Token::Semi);
    if !p.at_end() {
        return Err(Error::Sql(format!(
            "unexpected trailing tokens at {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Maximum expression nesting depth. Recursive-descent parsing uses a
/// stack frame chain per nesting level; unbounded input could otherwise
/// overflow the thread stack.
const MAX_EXPR_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::Sql("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Sql(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_if(&mut self, f: impl Fn(&Token) -> bool) -> bool {
        if self.peek().is_some_and(f) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.eat_if(|x| *x == t) {
            Ok(())
        } else {
            Err(Error::Sql(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(Error::Sql(format!("expected identifier, found {other:?}"))),
        }
    }

    // ------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            // `EXPLAIN ANALYZE <ident>` is the statistics command
            // `ANALYZE <table>` being explained, not EXPLAIN ANALYZE —
            // keywords lex as idents, so exclude statement starters.
            let starts_statement = ["SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "EXPLAIN"]
                .iter()
                .any(|kw| self.peek().is_some_and(|t| t.is_kw(kw)));
            if analyze && !starts_statement && matches!(self.peek(), Some(Token::Ident(_))) {
                return Ok(Statement::Explain {
                    analyze: false,
                    stmt: Box::new(Statement::Analyze {
                        table: self.ident()?,
                    }),
                });
            }
            return Ok(Statement::Explain {
                analyze,
                stmt: Box::new(self.statement()?),
            });
        }
        if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
            let first = self.select()?;
            if !self.peek().is_some_and(|t| t.is_kw("UNION")) {
                return Ok(Statement::Select(first));
            }
            let mut branches = vec![first];
            while self.eat_kw("UNION") {
                self.expect_kw("ALL")?;
                branches.push(self.select()?);
            }
            // Non-final branches must not carry their own ordering.
            for b in &branches[..branches.len() - 1] {
                if !b.order_by.is_empty() || b.limit.is_some() || b.offset != 0 {
                    return Err(Error::Sql(
                        "ORDER BY/LIMIT must follow the final UNION ALL branch".into(),
                    ));
                }
            }
            return Ok(Statement::UnionAll(branches));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("CREATE") {
            return self.create_table();
        }
        if self.eat_kw("ANALYZE") {
            let table = self.ident()?;
            return Ok(Statement::Analyze { table });
        }
        if self.eat_kw("SET") {
            let option = self.ident()?;
            self.expect(Token::Eq)?;
            let value = match self.next()? {
                Token::Int(n) => SetValue::Int(n),
                Token::Ident(name) => SetValue::Name(name),
                other => {
                    return Err(Error::Sql(format!(
                        "SET {option} expects an integer or name value, found {other:?}"
                    )))
                }
            };
            return Ok(Statement::Set { option, value });
        }
        if self.eat_kw("BEGIN") {
            self.eat_txn_noise();
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            self.eat_txn_noise();
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            self.eat_txn_noise();
            return Ok(Statement::Rollback);
        }
        Err(Error::Sql(format!(
            "expected a statement, found {:?}",
            self.peek()
        )))
    }

    /// Optional `TRANSACTION` / `WORK` noise word after BEGIN/COMMIT/
    /// ROLLBACK, per the usual SQL grammars.
    fn eat_txn_noise(&mut self) {
        if !self.eat_kw("TRANSACTION") {
            // lint: allow(discard) — pure noise word, present or not
            let _ = self.eat_kw("WORK");
        }
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut stmt = SelectStmt {
            distinct: self.eat_kw("DISTINCT"),
            ..SelectStmt::default()
        };
        loop {
            if self.eat_if(|t| *t == Token::Star) {
                stmt.items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                self.eat_kw("AS");
                let alias = if matches!(self.peek(), Some(Token::Ident(s)) if !is_keyword(s)) {
                    Some(self.ident()?)
                } else {
                    None
                };
                stmt.items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_if(|t| *t == Token::Comma) {
                break;
            }
        }
        if self.eat_kw("FROM") {
            stmt.from = Some(self.table_ref()?);
            loop {
                let join_type = if self.eat_kw("JOIN") || {
                    let inner = self.eat_kw("INNER");
                    if inner {
                        self.expect_kw("JOIN")?;
                    }
                    inner
                } {
                    JoinType::Inner
                } else if self.eat_kw("LEFT") {
                    self.eat_kw("OUTER");
                    if self.eat_kw("SEMI") {
                        self.expect_kw("JOIN")?;
                        JoinType::LeftSemi
                    } else if self.eat_kw("ANTI") {
                        self.expect_kw("JOIN")?;
                        JoinType::LeftAnti
                    } else {
                        self.expect_kw("JOIN")?;
                        JoinType::LeftOuter
                    }
                } else if self.eat_kw("RIGHT") {
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinType::RightOuter
                } else if self.eat_kw("FULL") {
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinType::FullOuter
                } else {
                    break;
                };
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                stmt.joins.push(JoinClause {
                    join_type,
                    table,
                    on,
                });
            }
        }
        if self.eat_kw("WHERE") {
            stmt.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat_if(|t| *t == Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                stmt.order_by.push(OrderItem { expr, descending });
                if !self.eat_if(|t| *t == Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => stmt.limit = Some(n as usize),
                other => return Err(Error::Sql(format!("bad LIMIT {other:?}"))),
            }
        }
        if self.eat_kw("OFFSET") {
            match self.next()? {
                Token::Int(n) if n >= 0 => stmt.offset = n as usize,
                other => return Err(Error::Sql(format!("bad OFFSET {other:?}"))),
            }
        }
        Ok(stmt)
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut name = self.ident()?;
        // Schema-qualified names (`sys.row_groups`) resolve as a single
        // dotted catalog name.
        if self.eat_if(|t| *t == Token::Dot) {
            name = format!("{name}.{}", self.ident()?);
        }
        self.eat_kw("AS");
        let alias = if matches!(self.peek(), Some(Token::Ident(s)) if !is_keyword(s)) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_if(|t| *t == Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            rows.push(row);
            if !self.eat_if(|t| *t == Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, selection })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_if(|t| *t == Token::Comma) {
                break;
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            selection,
        })
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let data_type = self.data_type()?;
            let nullable = if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                false
            } else {
                self.eat_kw("NULL");
                true
            };
            columns.push(ColumnDef {
                name: col,
                data_type,
                nullable,
            });
            if !self.eat_if(|t| *t == Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        let organization = if self.eat_kw("USING") {
            let org = self.ident()?;
            match org.to_ascii_uppercase().as_str() {
                "COLUMNSTORE" => TableOrganization::Columnstore,
                "HEAP" => TableOrganization::Heap,
                other => {
                    return Err(Error::Sql(format!(
                        "unknown table organization '{other}' (expected COLUMNSTORE or HEAP)"
                    )))
                }
            }
        } else {
            TableOrganization::default()
        };
        Ok(Statement::CreateTable {
            name,
            columns,
            organization,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident()?.to_ascii_uppercase();
        Ok(match name.as_str() {
            "BOOL" | "BOOLEAN" => DataType::Bool,
            "INT" | "INTEGER" => DataType::Int32,
            "BIGINT" => DataType::Int64,
            "DOUBLE" | "FLOAT" | "REAL" => DataType::Float64,
            "DATE" => DataType::Date,
            "VARCHAR" | "TEXT" | "STRING" => {
                // Optional length: VARCHAR(40) — parsed and ignored.
                if self.eat_if(|t| *t == Token::LParen) {
                    self.next()?;
                    self.expect(Token::RParen)?;
                }
                DataType::Utf8
            }
            "DECIMAL" | "NUMERIC" => {
                let mut scale = 2u8;
                if self.eat_if(|t| *t == Token::LParen) {
                    // DECIMAL(precision, scale) — precision ignored.
                    let first = self.next()?;
                    if self.eat_if(|t| *t == Token::Comma) {
                        match self.next()? {
                            Token::Int(s) if (0..=18).contains(&s) => scale = s as u8,
                            other => {
                                return Err(Error::Sql(format!("bad decimal scale {other:?}")))
                            }
                        }
                    } else if let Token::Int(s) = first {
                        if (0..=18).contains(&s) {
                            scale = s as u8;
                        }
                    }
                    self.expect(Token::RParen)?;
                }
                DataType::Decimal { scale }
            }
            other => return Err(Error::Sql(format!("unknown type '{other}'"))),
        })
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<AstExpr> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(Error::Sql(format!(
                "expression nesting deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        let out = self.or_expr();
        self.depth -= 1;
        out
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = AstExpr::Binary {
                op: BinaryOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = AstExpr::Binary {
                op: BinaryOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_kw("NOT") {
            Ok(AstExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<AstExpr> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] BETWEEN / IN
        let negated = self.eat_kw("NOT");
        if self.eat_kw("BETWEEN") {
            let lo = self.add_expr()?;
            self.expect_kw("AND")?;
            let hi = self.add_expr()?;
            return Ok(AstExpr::Between {
                expr: Box::new(lhs),
                negated,
                lo: Box::new(lo),
                hi: Box::new(hi),
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.next()? {
                Token::Str(p) => p,
                other => {
                    return Err(Error::Sql(format!(
                        "LIKE expects a string pattern, found {other:?}"
                    )))
                }
            };
            return Ok(AstExpr::Like {
                expr: Box::new(lhs),
                negated,
                pattern,
            });
        }
        if self.eat_kw("IN") {
            self.expect(Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_if(|t| *t == Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            return Ok(AstExpr::InList {
                expr: Box::new(lhs),
                negated,
                list,
            });
        }
        if negated {
            return Err(Error::Sql("expected BETWEEN, IN or LIKE after NOT".into()));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(AstExpr::Binary {
                op: BinaryOp::Cmp(op),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = AstExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = AstExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AstExpr> {
        if self.eat_if(|t| *t == Token::Minus) {
            return Ok(AstExpr::Neg(Box::new(self.unary_expr()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.next()? {
            Token::Int(n) => Ok(AstExpr::Lit(Value::Int64(n))),
            Token::Float(f) => Ok(AstExpr::Lit(Value::Float64(f))),
            Token::Str(s) => Ok(AstExpr::Lit(Value::str(s))),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => return Ok(AstExpr::Lit(Value::Null)),
                    "TRUE" => return Ok(AstExpr::Lit(Value::Bool(true))),
                    "FALSE" => return Ok(AstExpr::Lit(Value::Bool(false))),
                    "DATE" => {
                        // DATE n → Date literal from day number.
                        if let Some(Token::Int(_)) = self.peek() {
                            if let Token::Int(d) = self.next()? {
                                return Ok(AstExpr::Lit(Value::Date(d as i32)));
                            }
                        }
                    }
                    _ => {}
                }
                // Function call?
                if self.peek() == Some(&Token::LParen)
                    && matches!(upper.as_str(), "COUNT" | "SUM" | "MIN" | "MAX" | "AVG")
                {
                    self.pos += 1; // (
                    if upper == "COUNT" && self.eat_if(|t| *t == Token::Star) {
                        self.expect(Token::RParen)?;
                        return Ok(AstExpr::FuncCall {
                            name: upper,
                            arg: None,
                            star: true,
                            distinct: false,
                        });
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    if distinct && upper != "COUNT" {
                        return Err(Error::Sql(format!(
                            "DISTINCT is only supported in COUNT(DISTINCT …), not {upper}()"
                        )));
                    }
                    let arg = self.expr()?;
                    self.expect(Token::RParen)?;
                    return Ok(AstExpr::FuncCall {
                        name: upper,
                        arg: Some(Box::new(arg)),
                        star: false,
                        distinct,
                    });
                }
                // Reserved words cannot start a column reference.
                if is_keyword(&name) {
                    return Err(Error::Sql(format!(
                        "unexpected keyword '{name}' in expression"
                    )));
                }
                // Qualified column?
                if self.eat_if(|t| *t == Token::Dot) {
                    let col = self.ident()?;
                    return Ok(AstExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(AstExpr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(Error::Sql(format!("unexpected token {other:?}"))),
        }
    }
}

/// Keywords that terminate alias positions.
fn is_keyword(s: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "LIMIT",
        "OFFSET",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "FULL",
        "OUTER",
        "SEMI",
        "ANTI",
        "ON",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "BETWEEN",
        "INSERT",
        "INTO",
        "VALUES",
        "DELETE",
        "UPDATE",
        "SET",
        "CREATE",
        "TABLE",
        "USING",
        "EXPLAIN",
        "ASC",
        "DESC",
        "UNION",
        "ALL",
        "DISTINCT",
        "ANALYZE",
        "LIKE",
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
        "TRANSACTION",
        "WORK",
    ];
    KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse("SELECT a, b AS bee FROM t WHERE a > 5 ORDER BY bee DESC LIMIT 10 OFFSET 2")
            .unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert_eq!(s.items.len(), 2);
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].descending);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, 2);
    }

    #[test]
    fn parses_joins() {
        let s = parse(
            "SELECT * FROM fact f \
             JOIN dim1 ON f.k1 = dim1.k \
             LEFT JOIN dim2 d2 ON f.k2 = d2.k \
             RIGHT OUTER JOIN dim3 ON f.k3 = dim3.k \
             LEFT SEMI JOIN dim4 ON f.k4 = dim4.k",
        )
        .unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert_eq!(s.from.as_ref().unwrap().binding(), "f");
        let kinds: Vec<JoinType> = s.joins.iter().map(|j| j.join_type).collect();
        assert_eq!(
            kinds,
            vec![
                JoinType::Inner,
                JoinType::LeftOuter,
                JoinType::RightOuter,
                JoinType::LeftSemi
            ]
        );
    }

    #[test]
    fn parses_aggregates_and_groups() {
        let s = parse("SELECT cat, COUNT(*), SUM(x + 1) FROM t GROUP BY cat HAVING COUNT(*) > 2")
            .unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr {
                expr: AstExpr::FuncCall { star: true, .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_predicates() {
        let s = parse(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b IN ('x', 'y') \
             AND c IS NOT NULL AND NOT d = 4",
        )
        .unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_dml_and_ddl() {
        let s = parse("INSERT INTO t VALUES (1, 'a'), (2, NULL)").unwrap();
        let Statement::Insert { rows, .. } = s else {
            panic!()
        };
        assert_eq!(rows.len(), 2);

        let s = parse("DELETE FROM t WHERE a = 1").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                selection: Some(_),
                ..
            }
        ));

        let s = parse("UPDATE t SET a = a + 1, b = 'x' WHERE c < 0").unwrap();
        let Statement::Update { assignments, .. } = s else {
            panic!()
        };
        assert_eq!(assignments.len(), 2);

        let s = parse(
            "CREATE TABLE sales (id BIGINT NOT NULL, qty INT, price DECIMAL(10, 2), \
             note VARCHAR(40)) USING COLUMNSTORE",
        )
        .unwrap();
        let Statement::CreateTable {
            columns,
            organization,
            ..
        } = s
        else {
            panic!()
        };
        assert_eq!(columns.len(), 4);
        assert_eq!(columns[2].data_type, DataType::Decimal { scale: 2 });
        assert!(!columns[0].nullable);
        assert!(columns[1].nullable);
        assert_eq!(organization, TableOrganization::Columnstore);
    }

    #[test]
    fn parses_explain() {
        let s = parse("EXPLAIN SELECT 1").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: false, .. }));
        let s = parse("EXPLAIN ANALYZE SELECT 1").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
    }

    #[test]
    fn precedence_is_sane() {
        // a + b * 2 parses as a + (b * 2)
        let s = parse("SELECT a + b * 2 FROM t").unwrap();
        let Statement::Select(s) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let AstExpr::Binary {
            op: BinaryOp::Add,
            rhs,
            ..
        } = expr
        else {
            panic!("expected +, got {expr:?}")
        };
        assert!(matches!(
            rhs.as_ref(),
            AstExpr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELEC 1").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("SELECT 1 extra garbage ,").is_err());
        assert!(parse("CREATE TABLE t (a WIDGET)").is_err());
    }

    #[test]
    fn parses_transaction_statements() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("begin transaction").unwrap(), Statement::Begin);
        assert_eq!(parse("BEGIN WORK").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("commit work").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
        assert_eq!(parse("rollback transaction").unwrap(), Statement::Rollback);
    }

    #[test]
    fn rejects_malformed_transaction_statements() {
        // Trailing junk after the optional noise word must not parse.
        assert!(parse("BEGIN TRANSACTION NOW").is_err());
        assert!(parse("COMMIT 5").is_err());
        assert!(parse("ROLLBACK TO SAVEPOINT s").is_err());
    }
}
