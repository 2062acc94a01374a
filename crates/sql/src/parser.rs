//! Recursive-descent parser for the SELECT subset.

use eon_types::{EonError, Result, Value};

use crate::ast::*;
use crate::lexer::{tokenize, Sym, Token};

/// How deep an expression may nest. Parentheses, `NOT`, unary minus and
/// aggregate arguments each open a level, and every link of a `+ - * /`
/// chain adds one to the left-deep tree it builds. The parser, the
/// binder, the plan rules, evaluation and drop all recurse once per
/// level, so this bound is what keeps one statement from the network
/// from overflowing a session thread's stack.
const MAX_DEPTH: usize = 128;

fn too_deep() -> EonError {
    EonError::Query(format!("expression nests deeper than {MAX_DEPTH} levels"))
}

/// Parse one SELECT statement.
pub fn parse(sql: &str) -> Result<SelectStmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let stmt = p.select_stmt()?;
    if p.pos != p.tokens.len() {
        return Err(EonError::Query(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting level of the expression being parsed.
    depth: usize,
}

impl Parser {
    /// `parse` one nesting level down. Its result, with every level
    /// above it, must fit in [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<SqlExpr>) -> Result<SqlExpr> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep());
        }
        self.depth += 1;
        let e = parse(self);
        self.depth -= 1;
        let e = e?;
        if self.depth + 1 + e.depth() > MAX_DEPTH {
            return Err(too_deep());
        }
        Ok(e)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| EonError::Query("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
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
            Err(EonError::Query(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if self.peek() == Some(&Token::Symbol(sym)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(EonError::Query(format!(
                "expected {sym:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Word(w) => Ok(w),
            other => Err(EonError::Query(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------- SELECT

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let alias = if self.eat_kw("AS") {
                Some(self.ident()?)
            } else {
                match self.peek() {
                    // Bare alias: `SUM(x) revenue` — an identifier that
                    // is not a clause keyword.
                    Some(Token::Word(w))
                        if !is_clause_kw(w) && !w.eq_ignore_ascii_case("FROM") =>
                    {
                        Some(self.ident()?)
                    }
                    _ => None,
                }
            };
            items.push(SelectItem { expr, alias });
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }

        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw("JOIN") {
                JoinType::Inner
            } else if self.peek().map(|t| t.is_kw("INNER")).unwrap_or(false) {
                self.pos += 1;
                self.expect_kw("JOIN")?;
                JoinType::Inner
            } else if self.peek().map(|t| t.is_kw("LEFT")).unwrap_or(false) {
                self.pos += 1;
                let _ = self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinType::Left
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let mut on = Vec::new();
            loop {
                let l = self.col_ref()?;
                self.expect_sym(Sym::Eq)?;
                let r = self.col_ref()?;
                on.push((l, r));
                if !self.eat_kw("AND") {
                    break;
                }
            }
            joins.push(Join { kind, table, on });
        }

        let where_ = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.col_ref()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let key = match self.peek() {
                    Some(Token::Int(n)) => {
                        let n = *n;
                        self.pos += 1;
                        OrderKey::Position(n as usize)
                    }
                    _ => OrderKey::Name(self.col_ref()?),
                };
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    let _ = self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { key, desc });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(EonError::Query(format!("bad LIMIT {other:?}")));
                }
            }
        } else {
            None
        };

        Ok(SelectStmt {
            items,
            from,
            joins,
            where_,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                Some(Token::Word(w)) if !is_clause_kw(w) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(TableRef { table, alias })
    }

    fn col_ref(&mut self) -> Result<ColRef> {
        let first = self.ident()?;
        if self.eat_sym(Sym::Dot) {
            Ok(ColRef {
                table: Some(first),
                column: self.ident()?,
            })
        } else {
            Ok(ColRef {
                table: None,
                column: first,
            })
        }
    }

    // ------------------------------------------------------ expressions
    // Precedence: OR < AND < NOT < comparison/IS/LIKE/IN/BETWEEN <
    // add/sub < mul/div < atom.

    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut terms = vec![self.and_expr()?];
        while self.eat_kw("OR") {
            terms.push(self.and_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            SqlExpr::Or(terms)
        })
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut terms = vec![self.not_expr()?];
        while self.eat_kw("AND") {
            terms.push(self.not_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            SqlExpr::And(terms)
        })
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("NOT") {
            Ok(SqlExpr::Not(Box::new(self.nested(Self::not_expr)?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<SqlExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] LIKE / IN / BETWEEN
        let negated = if self.peek().map(|t| t.is_kw("NOT")).unwrap_or(false)
            && self
                .tokens
                .get(self.pos + 1)
                .map(|t| t.is_kw("LIKE") || t.is_kw("IN") || t.is_kw("BETWEEN"))
                .unwrap_or(false)
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            let pattern = match self.next()? {
                Token::Str(s) => s,
                other => return Err(EonError::Query(format!("LIKE needs a string, got {other:?}"))),
            };
            return Ok(SqlExpr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(SqlExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            let between = SqlExpr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
            };
            return Ok(if negated {
                SqlExpr::Not(Box::new(between))
            } else {
                between
            });
        }
        if negated {
            return Err(EonError::Query("dangling NOT".into()));
        }
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::Ne)) => Some(BinOp::Ne),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let right = self.additive()?;
                Ok(SqlExpr::Binary {
                    op,
                    l: Box::new(left),
                    r: Box::new(right),
                })
            }
            None => Ok(left),
        }
    }

    fn additive(&mut self) -> Result<SqlExpr> {
        self.chain(Self::multiplicative, |sym| match sym {
            Sym::Plus => Some(BinOp::Add),
            Sym::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> Result<SqlExpr> {
        self.chain(Self::atom, |sym| match sym {
            Sym::Star => Some(BinOp::Mul),
            Sym::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// A left-associative chain `operand (op operand)*`. Each link puts
    /// everything parsed so far one level deeper, so the chain's depth
    /// is checked link by link.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<SqlExpr>,
        op_of: fn(&Sym) -> Option<BinOp>,
    ) -> Result<SqlExpr> {
        let mut left = operand(self)?;
        let mut depth = None;
        while let Some(op) = match self.peek() {
            Some(Token::Symbol(sym)) => op_of(sym),
            _ => None,
        } {
            self.pos += 1;
            let right = operand(self)?;
            let linked = depth.unwrap_or_else(|| left.depth()).max(right.depth()) + 1;
            if self.depth + linked > MAX_DEPTH {
                return Err(too_deep());
            }
            depth = Some(linked);
            left = SqlExpr::Binary {
                op,
                l: Box::new(left),
                r: Box::new(right),
            };
        }
        Ok(left)
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next()? {
            Token::Int(n) => Ok(Value::Int(n)),
            Token::Float(f) => Ok(Value::Float(f)),
            Token::Str(s) => Ok(Value::Str(s)),
            Token::Word(w) if w.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Token::Word(w) if w.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Token::Word(w) if w.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            other => Err(EonError::Query(format!("expected literal, found {other:?}"))),
        }
    }

    fn atom(&mut self) -> Result<SqlExpr> {
        match self.peek().cloned() {
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                let e = self.nested(Self::expr)?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Symbol(Sym::Minus)) => {
                self.pos += 1;
                // Negative literal or 0 - expr.
                let inner = self.nested(Self::atom)?;
                Ok(match inner {
                    SqlExpr::Lit(Value::Int(n)) => SqlExpr::Lit(Value::Int(-n)),
                    SqlExpr::Lit(Value::Float(f)) => SqlExpr::Lit(Value::Float(-f)),
                    e => SqlExpr::Binary {
                        op: BinOp::Sub,
                        l: Box::new(SqlExpr::Lit(Value::Int(0))),
                        r: Box::new(e),
                    },
                })
            }
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Value::Int(n)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Value::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Value::Str(s)))
            }
            Some(Token::Word(w)) => {
                let up = w.to_ascii_uppercase();
                // DATE '1994-01-01'
                if up == "DATE" {
                    if let Some(Token::Str(_)) = self.tokens.get(self.pos + 1) {
                        self.pos += 1;
                        let Token::Str(s) = self.next()? else { unreachable!() };
                        return parse_date(&s).map(SqlExpr::Lit);
                    }
                }
                if up == "NULL" {
                    self.pos += 1;
                    return Ok(SqlExpr::Lit(Value::Null));
                }
                if up == "TRUE" || up == "FALSE" {
                    self.pos += 1;
                    return Ok(SqlExpr::Lit(Value::Bool(up == "TRUE")));
                }
                // Aggregate call?
                let agg = match up.as_str() {
                    "SUM" => Some(AggCall::Sum),
                    "COUNT" => Some(AggCall::Count),
                    "AVG" => Some(AggCall::Avg),
                    "MIN" => Some(AggCall::Min),
                    "MAX" => Some(AggCall::Max),
                    _ => None,
                };
                if let Some(func) = agg {
                    if self.tokens.get(self.pos + 1) == Some(&Token::Symbol(Sym::LParen)) {
                        self.pos += 2; // name + (
                        let distinct = self.eat_kw("DISTINCT");
                        let arg = if self.eat_sym(Sym::Star) {
                            None
                        } else {
                            Some(Box::new(self.nested(Self::expr)?))
                        };
                        self.expect_sym(Sym::RParen)?;
                        return Ok(SqlExpr::Agg {
                            func,
                            arg,
                            distinct,
                        });
                    }
                }
                // Plain or qualified column.
                Ok(SqlExpr::Col(self.col_ref()?))
            }
            other => Err(EonError::Query(format!("unexpected token {other:?}"))),
        }
    }
}

fn is_clause_kw(w: &str) -> bool {
    matches!(
        w.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "ON"
            | "AND"
            | "OR"
            | "AS"
            | "ASC"
            | "DESC"
    )
}

/// Parse `YYYY-MM-DD` into a `Value::Date`.
fn parse_date(s: &str) -> Result<Value> {
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() == 3 {
        if let (Ok(y), Ok(m), Ok(d)) = (
            parts[0].parse::<i32>(),
            parts[1].parse::<u32>(),
            parts[2].parse::<u32>(),
        ) {
            if (1..=12).contains(&m) && (1..=31).contains(&d) {
                return Ok(Value::Date(eon_types::value::ymd_to_days(y, m, d)));
            }
        }
    }
    Err(EonError::Query(format!("bad date literal '{s}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let s = parse("SELECT a FROM t").unwrap();
        assert_eq!(s.items.len(), 1);
        assert_eq!(s.from.table, "t");
        assert!(s.joins.is_empty() && s.where_.is_none());
    }

    #[test]
    fn full_query_shape() {
        let s = parse(
            "SELECT c.region, SUM(s.price * s.qty) AS revenue, COUNT(*) \
             FROM sales s JOIN customer c ON s.cust_id = c.id \
             WHERE s.price > 10 AND c.segment = 'BUILDING' \
             GROUP BY c.region HAVING revenue > 100 \
             ORDER BY revenue DESC, 1 ASC LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.items[1].alias.as_deref(), Some("revenue"));
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].on.len(), 1);
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert_eq!(s.order_by[1].key, OrderKey::Position(1));
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn date_in_between_and_like() {
        let s = parse(
            "SELECT 1 FROM t WHERE d BETWEEN DATE '1994-01-01' AND DATE '1994-12-31' \
             AND name NOT LIKE '%green%' AND k IN (1, 2, 3) AND x IS NOT NULL",
        )
        .unwrap();
        let SqlExpr::And(terms) = s.where_.unwrap() else { panic!() };
        assert_eq!(terms.len(), 4);
        assert!(matches!(terms[0], SqlExpr::Between { .. }));
        assert!(matches!(terms[1], SqlExpr::Like { negated: true, .. }));
        assert!(matches!(terms[2], SqlExpr::InList { negated: false, .. }));
        assert!(matches!(terms[3], SqlExpr::IsNull { negated: true, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse("SELECT a + b * c FROM t").unwrap();
        let SqlExpr::Binary { op: BinOp::Add, r, .. } = &s.items[0].expr else {
            panic!("mul must bind tighter: {:?}", s.items[0].expr)
        };
        assert!(matches!(**r, SqlExpr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn count_distinct() {
        let s = parse("SELECT COUNT(DISTINCT supp) FROM t").unwrap();
        assert!(matches!(
            s.items[0].expr,
            SqlExpr::Agg {
                func: AggCall::Count,
                distinct: true,
                ..
            }
        ));
    }

    #[test]
    fn left_join_and_multi_on() {
        let s = parse(
            "SELECT 1 FROM a LEFT OUTER JOIN b ON a.x = b.x AND a.y = b.y WHERE a.z = 1",
        )
        .unwrap();
        assert_eq!(s.joins[0].kind, JoinType::Left);
        assert_eq!(s.joins[0].on.len(), 2);
        assert!(s.where_.is_some());
    }

    #[test]
    fn errors() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT a").is_err()); // no FROM
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t extra garbage ,").is_err());
        assert!(parse("SELECT 1 FROM t WHERE d = DATE '1994-13-01'").is_err());
    }

    /// One statement per way to nest an expression, `n` levels deep.
    fn nested_statements(n: usize) -> [String; 4] {
        [
            format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n)),
            format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(n)),
            format!("SELECT a{} FROM t", " + a".repeat(n)),
            format!("SELECT {}a FROM t", "- ".repeat(n)),
        ]
    }

    /// On a thread with the default stack, as every `eon-server` session
    /// thread has, a statement nested 100 000 deep is a typed error (it
    /// used to abort the process with a stack overflow), and one nested
    /// 100 deep still parses.
    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        std::thread::spawn(|| {
            for sql in nested_statements(100_000) {
                match parse(&sql) {
                    Err(EonError::Query(m)) => assert!(m.contains("nests deeper"), "{m}"),
                    other => panic!("{}…: {other:?}", &sql[..20]),
                }
            }
            for sql in nested_statements(100) {
                parse(&sql).unwrap_or_else(|e| panic!("{}…: {e}", &sql[..20]));
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn negative_literals() {
        let s = parse("SELECT -5, -2.5 FROM t WHERE a > -10").unwrap();
        assert_eq!(s.items[0].expr, SqlExpr::Lit(Value::Int(-5)));
        assert_eq!(s.items[1].expr, SqlExpr::Lit(Value::Float(-2.5)));
    }
}
