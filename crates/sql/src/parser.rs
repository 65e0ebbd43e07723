//! Recursive-descent parser for the SELECT-centric dialect.
//!
//! Entry points:
//! * [`parse_statement`] — exactly one statement,
//! * [`parse_statements`] — a `;`-separated batch,
//! * [`parse_query`] — a bare query (used by rewrite tests).
//!
//! Non-SELECT statements are classified by their leading keyword and their
//! tokens skipped; the pipeline only needs to count them (§5.3 of the paper).
//! Unsupported constructs (e.g. CTEs) surface as [`ParseError`]s and land in
//! the pipeline's syntax-error bucket, exactly like genuinely malformed
//! statements in the original framework.

use crate::ast::*;
use crate::error::{ParseError, ParseLimit, Result};
use crate::lexer::tokenize_with;
use crate::limits::ParseLimits;
use crate::token::{Keyword, SpannedToken, Token};

/// Parses exactly one statement; trailing semicolons are permitted.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    parse_statement_with(sql, &ParseLimits::default())
}

/// Parses exactly one statement under explicit resource limits.
pub fn parse_statement_with(sql: &str, limits: &ParseLimits) -> Result<Statement> {
    let tokens = tokenize_with(sql, limits)?;
    let mut p = Parser::new(tokens, limits.max_depth);
    let stmt = p.parse_statement()?;
    p.skip_semicolons();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a `;`-separated batch of statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    parse_statements_with(sql, &ParseLimits::default())
}

/// Parses a `;`-separated batch of statements under explicit resource
/// limits.
pub fn parse_statements_with(sql: &str, limits: &ParseLimits) -> Result<Vec<Statement>> {
    let tokens = tokenize_with(sql, limits)?;
    let mut p = Parser::new(tokens, limits.max_depth);
    let mut out = Vec::new();
    p.skip_semicolons();
    while !p.at_eof() {
        out.push(p.parse_statement()?);
        p.skip_semicolons();
    }
    Ok(out)
}

/// Parses a bare `SELECT` query.
pub fn parse_query(sql: &str) -> Result<Query> {
    parse_query_with(sql, &ParseLimits::default())
}

/// Parses a bare `SELECT` query under explicit resource limits.
pub fn parse_query_with(sql: &str, limits: &ParseLimits) -> Result<Query> {
    let tokens = tokenize_with(sql, limits)?;
    let mut p = Parser::new(tokens, limits.max_depth);
    let q = p.parse_query()?;
    p.skip_semicolons();
    p.expect_eof()?;
    Ok(q)
}

/// Flat-nesting budget per unit of `max_depth`: iteratively parsed operator
/// chains may build at most `32 × max_depth` AST levels per statement (2048
/// at the default depth of 64) — orders of magnitude above real queries,
/// while capping AST height low enough for its recursive consumers.
const FLAT_NODES_PER_DEPTH: usize = 32;

struct Parser<'a> {
    tokens: Vec<SpannedToken<'a>>,
    pos: usize,
    /// Current nesting depth (expressions, subqueries, join trees).
    depth: usize,
    /// Depth at which [`Parser::descend`] refuses to go deeper.
    max_depth: usize,
    /// AST levels built iteratively in the current statement — see
    /// [`Parser::charge`].
    flat: usize,
    /// Budget at which [`Parser::charge`] refuses to build more.
    flat_cap: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<SpannedToken<'a>>, max_depth: usize) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            max_depth,
            flat: 0,
            flat_cap: max_depth.saturating_mul(FLAT_NODES_PER_DEPTH),
        }
    }

    /// Enters one nesting level; errs with a typed limit violation when the
    /// configured depth is exceeded. Every `descend` must be paired with an
    /// `ascend` on the success *and* error path of the caller — the pattern
    /// used below runs the recursive body, then decrements unconditionally.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(ParseError::limit(ParseLimit::Depth, self.offset()));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        debug_assert!(self.depth > 0);
        self.depth -= 1;
    }

    /// Charges `n` AST levels built *iteratively* — left-deep binary-operator
    /// chains, `NOT`/sign chains, join chains — against the per-statement
    /// flat-nesting budget.
    ///
    /// [`Parser::descend`] bounds the parser's own recursion, but these
    /// loops consume no parse stack while still Box-nesting the tree one
    /// level per node. Without this charge, a flood of `NOT`s or `OR`s that
    /// fits every byte/token limit would build an AST too deep for its
    /// recursive consumers (drop glue, visitors, the printer) and abort the
    /// process when the tree is walked or destroyed. Together the two guards
    /// bound AST height by `max_depth × (FLAT_NODES_PER_DEPTH + 1)`.
    fn charge(&mut self, n: usize) -> Result<()> {
        self.flat += n;
        if self.flat > self.flat_cap {
            return Err(ParseError::limit(ParseLimit::Depth, self.offset()));
        }
        Ok(())
    }

    // ---- cursor helpers -------------------------------------------------

    fn at_eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_at(&self, n: usize) -> Option<&Token<'a>> {
        self.tokens.get(self.pos + n).map(|t| &t.token)
    }

    fn peek_kw(&self) -> Option<Keyword> {
        self.peek().and_then(Token::keyword)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .or_else(|| self.tokens.last().map(|t| t.offset + 1))
            .unwrap_or(0)
    }

    fn advance(&mut self) -> Option<&Token<'a>> {
        let t = self.tokens.get(self.pos).map(|t| &t.token);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, token: &Token<'a>) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.peek_kw() == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &Token<'a>) -> Result<()> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {token}, found {}",
                self.describe_current()
            )))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kw.as_str(),
                self.describe_current()
            )))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing input: {}",
                self.describe_current()
            )))
        }
    }

    fn skip_semicolons(&mut self) {
        while self.eat(&Token::Semicolon) {}
    }

    fn describe_current(&self) -> String {
        match self.peek() {
            Some(t) => format!("{t}"),
            None => "end of input".to_string(),
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.offset())
    }

    // ---- statements -----------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        // The flat-nesting budget is per statement, so one long (but legal)
        // statement cannot starve the rest of a `;`-separated batch.
        self.flat = 0;
        match self.peek_kw() {
            Some(Keyword::Select) => Ok(Statement::Select(Box::new(self.parse_query()?))),
            Some(Keyword::Insert) => self.skip_classified(StatementKind::Insert),
            Some(Keyword::Update) => self.skip_classified(StatementKind::Update),
            Some(Keyword::Delete) => self.skip_classified(StatementKind::Delete),
            Some(Keyword::Create | Keyword::Drop | Keyword::Alter | Keyword::Truncate) => {
                self.skip_classified(StatementKind::Ddl)
            }
            Some(Keyword::Exec | Keyword::Execute) => self.skip_classified(StatementKind::Exec),
            Some(
                Keyword::Declare | Keyword::Set | Keyword::Use | Keyword::Grant | Keyword::Revoke,
            ) => self.skip_classified(StatementKind::Other),
            Some(Keyword::With) => Err(self.err("common table expressions are not supported")),
            Some(_) | None => Err(self.err(format!(
                "expected a statement, found {}",
                self.describe_current()
            ))),
        }
    }

    /// Consumes tokens up to (not including) the next top-level `;`, keeping
    /// only the classification. Parentheses are balanced so that semicolons
    /// inside string literals / nested constructs do not end the statement
    /// early (strings are already atomic tokens; parens matter for `EXEC`).
    fn skip_classified(&mut self, kind: StatementKind) -> Result<Statement> {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t {
                Token::Semicolon if depth == 0 => break,
                Token::LParen => depth += 1,
                Token::RParen => depth = depth.saturating_sub(1),
                _ => {}
            }
            self.pos += 1;
        }
        Ok(Statement::Other(kind))
    }

    // ---- queries ----------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        self.descend()?;
        let q = self.parse_query_inner();
        self.ascend();
        q
    }

    fn parse_query_inner(&mut self) -> Result<Query> {
        let body = self.parse_select_body()?;
        let mut set_ops = Vec::new();
        loop {
            let op = match self.peek_kw() {
                Some(Keyword::Union) => SetOperator::Union,
                Some(Keyword::Except) => SetOperator::Except,
                Some(Keyword::Intersect) => SetOperator::Intersect,
                _ => break,
            };
            self.pos += 1;
            let all = self.eat_kw(Keyword::All);
            let next = self.parse_select_body()?;
            set_ops.push((op, all, next));
        }
        let order_by = if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            self.parse_order_by_list()?
        } else {
            Vec::new()
        };
        let limit = if self.eat_kw(Keyword::Limit) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Query {
            body,
            set_ops,
            order_by,
            limit,
        })
    }

    fn parse_order_by_list(&mut self) -> Result<Vec<OrderByItem>> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let asc = if self.eat_kw(Keyword::Asc) {
                Some(true)
            } else if self.eat_kw(Keyword::Desc) {
                Some(false)
            } else {
                None
            };
            items.push(OrderByItem { expr, asc });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_select_body(&mut self) -> Result<Select> {
        self.expect_kw(Keyword::Select)?;
        let distinct = if self.eat_kw(Keyword::Distinct) {
            true
        } else {
            self.eat_kw(Keyword::All);
            false
        };
        let (top, top_percent) = if self.eat_kw(Keyword::Top) {
            // `TOP n [PERCENT]` or `TOP (expr)`.
            let n = self.parse_primary()?;
            (Some(n), self.eat_kw(Keyword::Percent))
        } else {
            (None, false)
        };

        let mut projection = vec![self.parse_select_item()?];
        while self.eat(&Token::Comma) {
            projection.push(self.parse_select_item()?);
        }

        let into = if self.eat_kw(Keyword::Into) {
            Some(self.parse_object_name()?)
        } else {
            None
        };

        let from = if self.eat_kw(Keyword::From) {
            let mut from = vec![self.parse_table_ref()?];
            while self.eat(&Token::Comma) {
                from.push(self.parse_table_ref()?);
            }
            from
        } else {
            Vec::new()
        };

        let selection = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let group_by = if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            let mut exprs = vec![self.parse_expr()?];
            while self.eat(&Token::Comma) {
                exprs.push(self.parse_expr()?);
            }
            exprs
        } else {
            Vec::new()
        };

        let having = if self.eat_kw(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        Ok(Select {
            distinct,
            top,
            top_percent,
            projection,
            into,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(Token::Word { .. }), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let name = self.parse_object_name()?;
            self.expect(&Token::Dot)?;
            self.expect(&Token::Star)?;
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        // Handle longer qualified wildcards like `db.t.*` by scanning ahead.
        if self.is_qualified_wildcard() {
            let name = self.parse_object_name()?;
            self.expect(&Token::Dot)?;
            self.expect(&Token::Star)?;
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// Looks ahead for `word (. word)* . *`.
    fn is_qualified_wildcard(&self) -> bool {
        let mut i = 0;
        loop {
            match (self.peek_at(i), self.peek_at(i + 1)) {
                (Some(Token::Word { .. }), Some(Token::Dot)) => match self.peek_at(i + 2) {
                    Some(Token::Star) => return true,
                    Some(Token::Word { .. }) => i += 2,
                    _ => return false,
                },
                _ => return false,
            }
        }
    }

    /// `AS alias` or a bare non-reserved word.
    fn parse_optional_alias(&mut self) -> Result<Option<Ident>> {
        if self.eat_kw(Keyword::As) {
            match self.advance() {
                Some(Token::Word { value, .. }) => Ok(Some(Ident::new(*value))),
                Some(Token::String(s)) => Ok(Some(Ident::new(s.as_ref()))),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    Err(self.err("expected alias after AS"))
                }
            }
        } else {
            match self.peek() {
                Some(Token::Word {
                    value,
                    keyword: None,
                }) => {
                    let ident = Ident::new(*value);
                    self.pos += 1;
                    Ok(Some(ident))
                }
                _ => Ok(None),
            }
        }
    }

    fn parse_object_name(&mut self) -> Result<ObjectName> {
        let mut parts = Vec::new();
        loop {
            match self.peek() {
                Some(Token::Word { value, .. }) => {
                    parts.push(Ident::new(*value));
                    self.pos += 1;
                }
                _ => return Err(self.err("expected identifier")),
            }
            // Stop before `.*` so qualified wildcards can be handled above.
            if self.peek() == Some(&Token::Dot)
                && matches!(self.peek_at(1), Some(Token::Word { .. }))
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(ObjectName(parts))
    }

    // ---- FROM clause ------------------------------------------------------

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        self.descend()?;
        let t = self.parse_table_ref_inner();
        self.ascend();
        t
    }

    fn parse_table_ref_inner(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.eat_kw(Keyword::Cross) {
                if self.eat_kw(Keyword::Apply) {
                    JoinKind::CrossApply
                } else {
                    self.expect_kw(Keyword::Join)?;
                    JoinKind::Cross
                }
            } else if self.peek_kw() == Some(Keyword::Outer)
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.is_keyword(Keyword::Apply))
            {
                self.pos += 2;
                JoinKind::OuterApply
            } else if self.eat_kw(Keyword::Inner) {
                self.expect_kw(Keyword::Join)?;
                JoinKind::Inner
            } else if self.eat_kw(Keyword::Left) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Left
            } else if self.eat_kw(Keyword::Right) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Right
            } else if self.eat_kw(Keyword::Full) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Full
            } else if self.eat_kw(Keyword::Join) {
                JoinKind::Inner
            } else {
                break;
            };
            self.charge(1)?;
            let right = self.parse_table_primary()?;
            let constraint = if matches!(
                kind,
                JoinKind::Cross | JoinKind::CrossApply | JoinKind::OuterApply
            ) {
                None
            } else if self.eat_kw(Keyword::On) {
                Some(self.parse_expr()?)
            } else {
                // Tolerate missing ON (some logged queries use WHERE joins).
                None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                constraint,
            };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        if self.eat(&Token::LParen) {
            if self.peek_kw() == Some(Keyword::Select) {
                let subquery = Box::new(self.parse_query()?);
                self.expect(&Token::RParen)?;
                let alias = self.parse_optional_alias()?;
                return Ok(TableRef::Derived { subquery, alias });
            }
            // Parenthesized join tree.
            let inner = self.parse_table_ref()?;
            self.expect(&Token::RParen)?;
            return Ok(inner);
        }
        let name = self.parse_object_name()?;
        if self.eat(&Token::LParen) {
            // Table-valued function.
            let mut args = Vec::new();
            if !self.eat(&Token::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            let alias = self.parse_optional_alias()?;
            return Ok(TableRef::Function { name, args, alias });
        }
        let alias = self.parse_optional_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions --------------------------------------------------

    /// Full expression entry point (lowest precedence: OR).
    ///
    /// Every nested expression — parenthesized groups, subqueries, function
    /// arguments — re-enters here, so this single guard bounds the parser's
    /// recursion over arbitrarily hostile inputs. Operator *chains*
    /// (`NOT`/sign chains, left-deep binary chains) are parsed iteratively
    /// and instead charge the flat-nesting budget ([`Parser::charge`]),
    /// which bounds the depth of the AST they build.
    fn parse_expr(&mut self) -> Result<Expr> {
        self.descend()?;
        let e = self.parse_or();
        self.ascend();
        e
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw(Keyword::Or) {
            self.charge(1)?;
            let right = self.parse_and()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw(Keyword::And) {
            self.charge(1)?;
            let right = self.parse_not()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        // Iterative: a chain of `NOT NOT NOT ...` consumes no parse stack,
        // but every `NOT` still nests the AST one level, so the whole chain
        // is charged against the flat-nesting budget before any node is
        // built.
        let mut nots = 0usize;
        while self.peek_kw() == Some(Keyword::Not)
            && !matches!(
                self.peek_at(1).and_then(Token::keyword),
                Some(Keyword::In | Keyword::Between | Keyword::Like | Keyword::Exists)
            )
        {
            self.pos += 1;
            nots += 1;
        }
        self.charge(nots)?;
        let mut expr = self.parse_predicate()?;
        for _ in 0..nots {
            expr = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            };
        }
        Ok(expr)
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        let mut expr = self.parse_bitwise()?;
        loop {
            // `IS [NOT] NULL`
            if self.eat_kw(Keyword::Is) {
                self.charge(1)?;
                let negated = self.eat_kw(Keyword::Not);
                self.expect_kw(Keyword::Null)?;
                expr = Expr::IsNull {
                    expr: Box::new(expr),
                    negated,
                };
                continue;
            }
            // `[NOT] IN / BETWEEN / LIKE`
            let negated = if self.peek_kw() == Some(Keyword::Not)
                && matches!(
                    self.peek_at(1).and_then(Token::keyword),
                    Some(Keyword::In | Keyword::Between | Keyword::Like)
                ) {
                self.pos += 1;
                true
            } else {
                false
            };
            if self.eat_kw(Keyword::In) {
                self.charge(1)?;
                self.expect(&Token::LParen)?;
                if self.peek_kw() == Some(Keyword::Select) {
                    let subquery = Box::new(self.parse_query()?);
                    self.expect(&Token::RParen)?;
                    expr = Expr::InSubquery {
                        expr: Box::new(expr),
                        subquery,
                        negated,
                    };
                } else {
                    let mut list = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            list.push(self.parse_expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect(&Token::RParen)?;
                    }
                    expr = Expr::InList {
                        expr: Box::new(expr),
                        list,
                        negated,
                    };
                }
                continue;
            }
            if self.eat_kw(Keyword::Between) {
                self.charge(1)?;
                let low = self.parse_bitwise()?;
                self.expect_kw(Keyword::And)?;
                let high = self.parse_bitwise()?;
                expr = Expr::Between {
                    expr: Box::new(expr),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if self.eat_kw(Keyword::Like) {
                self.charge(1)?;
                let pattern = self.parse_bitwise()?;
                expr = Expr::Like {
                    expr: Box::new(expr),
                    pattern: Box::new(pattern),
                    negated,
                };
                continue;
            }
            if negated {
                return Err(self.err("expected IN, BETWEEN or LIKE after NOT"));
            }
            // Plain comparisons.
            let op = match self.peek() {
                Some(Token::Eq) => BinaryOp::Eq,
                Some(Token::Neq) => BinaryOp::NotEq,
                Some(Token::Lt) => BinaryOp::Lt,
                Some(Token::LtEq) => BinaryOp::LtEq,
                Some(Token::Gt) => BinaryOp::Gt,
                Some(Token::GtEq) => BinaryOp::GtEq,
                _ => break,
            };
            self.pos += 1;
            self.charge(1)?;
            let right = self.parse_bitwise()?;
            expr = Expr::Binary {
                left: Box::new(expr),
                op,
                right: Box::new(right),
            };
        }
        Ok(expr)
    }

    /// Bitwise operators sit between comparisons and additive arithmetic
    /// (SkyServer filters on flag masks: `(flags & 0x10) = 0`).
    fn parse_bitwise(&mut self) -> Result<Expr> {
        let mut left = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                Some(Token::Ampersand) => BinaryOp::BitAnd,
                Some(Token::Pipe) => BinaryOp::BitOr,
                Some(Token::Caret) => BinaryOp::BitXor,
                _ => break,
            };
            self.pos += 1;
            self.charge(1)?;
            let right = self.parse_additive()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Plus,
                Some(Token::Minus) => BinaryOp::Minus,
                _ => break,
            };
            self.pos += 1;
            self.charge(1)?;
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Multiply,
                Some(Token::Slash) => BinaryOp::Divide,
                Some(Token::Percent) => BinaryOp::Modulo,
                _ => break,
            };
            self.pos += 1;
            self.charge(1)?;
            let right = self.parse_unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        // Iterative for the same reason as `parse_not`: sign chains like
        // `- - - - x` must not consume parse stack proportional to their
        // length — and, like `NOT` chains, they pay for the AST levels they
        // build up front via the flat-nesting budget.
        let mut ops = Vec::new();
        loop {
            if self.eat(&Token::Minus) {
                ops.push(UnaryOp::Minus);
            } else if self.eat(&Token::Plus) {
                ops.push(UnaryOp::Plus);
            } else {
                break;
            }
        }
        self.charge(ops.len())?;
        let mut expr = self.parse_primary()?;
        for op in ops.into_iter().rev() {
            expr = Expr::Unary {
                op,
                expr: Box::new(expr),
            };
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(Token::Number(_)) => {
                let Some(Token::Number(n)) = self.advance() else {
                    unreachable!()
                };
                Ok(Expr::Literal(Literal::Number((*n).to_string())))
            }
            Some(Token::String(_)) => {
                let Some(Token::String(s)) = self.advance() else {
                    unreachable!()
                };
                Ok(Expr::Literal(Literal::String(s.to_string())))
            }
            Some(Token::Variable(_)) => {
                let Some(Token::Variable(v)) = self.advance() else {
                    unreachable!()
                };
                Ok(Expr::Variable((*v).to_string()))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                if self.peek_kw() == Some(Keyword::Select) {
                    let q = Box::new(self.parse_query()?);
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Subquery(q))
                } else {
                    let inner = self.parse_expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Nested(Box::new(inner)))
                }
            }
            Some(Token::Word { keyword, .. }) => match keyword {
                Some(Keyword::Null) => {
                    self.pos += 1;
                    Ok(Expr::Literal(Literal::Null))
                }
                Some(Keyword::True) => {
                    self.pos += 1;
                    Ok(Expr::Literal(Literal::Boolean(true)))
                }
                Some(Keyword::False) => {
                    self.pos += 1;
                    Ok(Expr::Literal(Literal::Boolean(false)))
                }
                Some(Keyword::Case) => self.parse_case(),
                Some(Keyword::Cast) => self.parse_cast(),
                Some(Keyword::Exists) => {
                    self.pos += 1;
                    self.expect(&Token::LParen)?;
                    let q = Box::new(self.parse_query()?);
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Exists {
                        subquery: q,
                        negated: false,
                    })
                }
                Some(Keyword::Not)
                    if self
                        .peek_at(1)
                        .is_some_and(|t| t.is_keyword(Keyword::Exists)) =>
                {
                    self.pos += 2;
                    self.expect(&Token::LParen)?;
                    let q = Box::new(self.parse_query()?);
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Exists {
                        subquery: q,
                        negated: true,
                    })
                }
                // Reserved keywords cannot start an expression — this is what
                // makes `SELECT FROM t` a syntax error. `LEFT`/`RIGHT` are
                // exempt because they double as string functions.
                Some(kw) if !matches!(kw, Keyword::Left | Keyword::Right) => {
                    Err(self.err(format!("unexpected keyword {} in expression", kw.as_str())))
                }
                _ => {
                    let name = self.parse_object_name()?;
                    if self.eat(&Token::LParen) {
                        let distinct = self.eat_kw(Keyword::Distinct);
                        let mut args = Vec::new();
                        if !self.eat(&Token::RParen) {
                            loop {
                                if self.peek() == Some(&Token::Star)
                                    && matches!(
                                        self.peek_at(1),
                                        Some(Token::RParen) | Some(Token::Comma)
                                    )
                                {
                                    self.pos += 1;
                                    args.push(Expr::Wildcard);
                                } else {
                                    args.push(self.parse_expr()?);
                                }
                                if !self.eat(&Token::Comma) {
                                    break;
                                }
                            }
                            self.expect(&Token::RParen)?;
                        }
                        Ok(Expr::Function {
                            name,
                            args,
                            distinct,
                        })
                    } else {
                        Ok(Expr::Column(name))
                    }
                }
            },
            _ => Err(self.err(format!(
                "expected expression, found {}",
                self.describe_current()
            ))),
        }
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_kw(Keyword::Case)?;
        let operand = if self.peek_kw() != Some(Keyword::When) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let when = self.parse_expr()?;
            self.expect_kw(Keyword::Then)?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_result = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_result,
        })
    }

    fn parse_cast(&mut self) -> Result<Expr> {
        self.expect_kw(Keyword::Cast)?;
        self.expect(&Token::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_kw(Keyword::As)?;
        // Type name: word plus optional `(n[,m])` size suffix.
        let mut ty = match self.advance() {
            Some(Token::Word { value, .. }) => (*value).to_string(),
            _ => return Err(self.err("expected type name in CAST")),
        };
        if self.eat(&Token::LParen) {
            ty.push('(');
            let mut first = true;
            loop {
                match self.advance() {
                    Some(Token::Number(n)) => {
                        if !first {
                            ty.push(',');
                        }
                        ty.push_str(n);
                        first = false;
                    }
                    _ => return Err(self.err("expected number in CAST type size")),
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            ty.push(')');
        }
        self.expect(&Token::RParen)?;
        Ok(Expr::Cast {
            expr: Box::new(expr),
            ty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Select(q) => *q,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_select() {
        let q = sel("SELECT 1");
        assert_eq!(q.body.projection.len(), 1);
        assert!(q.body.from.is_empty());
    }

    #[test]
    fn parses_projection_aliases() {
        let q = sel("SELECT a AS x, b y, c FROM t");
        let aliases: Vec<_> = q
            .body
            .projection
            .iter()
            .map(|p| match p {
                SelectItem::Expr { alias, .. } => alias.as_ref().map(|a| a.value.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            aliases,
            vec![Some("x".to_string()), Some("y".to_string()), None]
        );
    }

    #[test]
    fn parses_wildcards() {
        let q = sel("SELECT *, p.*, count(*) FROM photoprimary p");
        assert!(matches!(q.body.projection[0], SelectItem::Wildcard));
        assert!(matches!(
            q.body.projection[1],
            SelectItem::QualifiedWildcard(_)
        ));
        match &q.body.projection[2] {
            SelectItem::Expr {
                expr: Expr::Function { args, .. },
                ..
            } => assert_eq!(args, &vec![Expr::Wildcard]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_joins() {
        let q = sel("SELECT g.objid FROM photoobjall AS g \
             JOIN fgetnearbyobjeq(@ra, @dec, @r) AS gn ON g.objid = gn.objid \
             LEFT OUTER JOIN specobj s ON s.bestobjid = gn.objid");
        let TableRef::Join { left, kind, .. } = &q.body.from[0] else {
            panic!("expected join");
        };
        assert_eq!(*kind, JoinKind::Left);
        let TableRef::Join { right, kind, .. } = left.as_ref() else {
            panic!("expected inner join");
        };
        assert_eq!(*kind, JoinKind::Inner);
        assert!(matches!(right.as_ref(), TableRef::Function { .. }));
    }

    #[test]
    fn parses_comma_joins_with_tvf() {
        let q = sel(
            "SELECT p.objid FROM fgetobjfromrect(@ra1,@dec1,@ra2,@dec2) n, photoprimary p \
             WHERE n.objid = p.objid AND r BETWEEN 10 AND 20",
        );
        assert_eq!(q.body.from.len(), 2);
        let conj = q.body.selection.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 2);
    }

    #[test]
    fn parses_derived_table() {
        let q = sel("SELECT E.empId, O.oCount FROM Employees E INNER JOIN \
             (SELECT empId, count(orders) as oCount FROM Orders GROUP BY empId) O \
             ON O.empId = E.empId");
        let TableRef::Join { right, .. } = &q.body.from[0] else {
            panic!()
        };
        assert!(matches!(right.as_ref(), TableRef::Derived { .. }));
    }

    #[test]
    fn parses_in_list_and_subquery() {
        let q = sel("SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (SELECT b FROM u)");
        let conj = q.body.selection.as_ref().unwrap().conjuncts();
        assert!(matches!(conj[0], Expr::InList { negated: false, .. }));
        assert!(matches!(conj[1], Expr::InSubquery { negated: true, .. }));
    }

    #[test]
    fn parses_between_like_isnull() {
        let q = sel(
            "SELECT a FROM t WHERE r BETWEEN 14 AND 16 AND name LIKE 'gal%' \
             AND x IS NOT NULL AND y IS NULL AND z NOT BETWEEN 1 AND 2",
        );
        let conj = q.body.selection.as_ref().unwrap().conjuncts();
        assert_eq!(conj.len(), 5);
        assert!(matches!(conj[2], Expr::IsNull { negated: true, .. }));
        assert!(matches!(conj[4], Expr::Between { negated: true, .. }));
    }

    #[test]
    fn parses_null_comparisons_for_snc() {
        // The SNC antipattern relies on `= NULL` parsing successfully.
        let q = sel("SELECT * FROM Bugs WHERE assigned_to = NULL");
        let Expr::Binary { right, op, .. } = q.body.selection.as_ref().unwrap() else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Eq);
        assert_eq!(**right, Expr::Literal(Literal::Null));
    }

    #[test]
    fn parses_top_and_order_by() {
        let q = sel("SELECT TOP 10 objid FROM photoprimary ORDER BY r DESC, g");
        assert!(q.body.top.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].asc, Some(false));
        assert_eq!(q.order_by[1].asc, None);
    }

    #[test]
    fn parses_group_by_having() {
        let q = sel("SELECT empId, count(*) FROM Orders GROUP BY empId HAVING count(*) > 3");
        assert_eq!(q.body.group_by.len(), 1);
        assert!(q.body.having.is_some());
    }

    #[test]
    fn parses_union() {
        let q = sel("SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v");
        assert_eq!(q.set_ops.len(), 2);
        assert_eq!(q.set_ops[0].0, SetOperator::Union);
        assert!(q.set_ops[0].1);
        assert!(!q.set_ops[1].1);
    }

    #[test]
    fn parses_case_and_cast() {
        let q = sel("SELECT CASE WHEN r > 20 THEN 'faint' ELSE 'bright' END, \
             CAST(ra AS varchar(32)) FROM photoprimary");
        assert!(matches!(
            q.body.projection[0],
            SelectItem::Expr {
                expr: Expr::Case { .. },
                ..
            }
        ));
        match &q.body.projection[1] {
            SelectItem::Expr {
                expr: Expr::Cast { ty, .. },
                ..
            } => assert_eq!(ty, "varchar(32)"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_exists() {
        let q =
            sel("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u) AND NOT EXISTS (SELECT 2 FROM v)");
        let conj = q.body.selection.as_ref().unwrap().conjuncts();
        assert!(matches!(conj[0], Expr::Exists { negated: false, .. }));
        assert!(matches!(conj[1], Expr::Exists { negated: true, .. }));
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let q = sel("SELECT 1 + 2 * 3 FROM t");
        let SelectItem::Expr {
            expr: Expr::Binary { op, right, .. },
            ..
        } = &q.body.projection[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Plus);
        assert!(matches!(
            right.as_ref(),
            Expr::Binary {
                op: BinaryOp::Multiply,
                ..
            }
        ));
    }

    #[test]
    fn not_binds_tighter_than_and() {
        let q = sel("SELECT a FROM t WHERE NOT a = 1 AND b = 2");
        let conj = q.body.selection.as_ref().unwrap().conjuncts();
        assert_eq!(conj.len(), 2);
        assert!(matches!(
            conj[0],
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn classifies_non_select_statements() {
        assert_eq!(
            parse_statement("INSERT INTO t VALUES (1)").unwrap(),
            Statement::Other(StatementKind::Insert)
        );
        assert_eq!(
            parse_statement("UPDATE t SET a = 1 WHERE b = 2").unwrap(),
            Statement::Other(StatementKind::Update)
        );
        assert_eq!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Other(StatementKind::Delete)
        );
        assert_eq!(
            parse_statement("CREATE TABLE t (a int)").unwrap(),
            Statement::Other(StatementKind::Ddl)
        );
        assert_eq!(
            parse_statement("EXEC spGetNeighbors 1, 2").unwrap(),
            Statement::Other(StatementKind::Exec)
        );
    }

    #[test]
    fn parses_statement_batches() {
        let stmts = parse_statements("SELECT 1; INSERT INTO t VALUES (2); SELECT 3;").unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[0], Statement::Select(_)));
        assert!(matches!(stmts[1], Statement::Other(StatementKind::Insert)));
        assert!(matches!(stmts[2], Statement::Select(_)));
    }

    #[test]
    fn rejects_malformed_sql() {
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT a FROM").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("SELEC a FROM t").is_err());
        assert!(parse_statement("SELECT a FROM t GROUP a").is_err());
        assert!(parse_statement("").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_statement("SELECT a FROM t )").is_err());
    }

    #[test]
    fn rejects_ctes_as_unsupported() {
        assert!(parse_statement("WITH x AS (SELECT 1) SELECT * FROM x").is_err());
    }

    #[test]
    fn parses_skyserver_table6_shape() {
        let q = sel("SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982829850899");
        assert_eq!(q.body.projection.len(), 2);
        let Expr::Binary { op, .. } = q.body.selection.as_ref().unwrap() else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Eq);
    }

    #[test]
    fn parses_scalar_function_calls_in_from_with_schema_prefix() {
        let q = sel("SELECT * FROM dbo.fGetNearestObjEq(145.38708,0.12532,0.1)");
        let TableRef::Function { name, args, .. } = &q.body.from[0] else {
            panic!()
        };
        assert_eq!(name.last().normalized(), "fgetnearestobjeq");
        assert_eq!(name.0.len(), 2);
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn keywords_can_be_function_names() {
        // LEFT / RIGHT as string functions.
        let q = sel("SELECT LEFT(name, 3) FROM t");
        assert!(matches!(
            q.body.projection[0],
            SelectItem::Expr {
                expr: Expr::Function { .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_cross_and_outer_apply() {
        let q = sel(
            "SELECT p.objid, n.distance FROM photoprimary p              CROSS APPLY fGetNearbyObjEq(p.ra, p.dec, 1.0) n",
        );
        let TableRef::Join {
            kind,
            right,
            constraint,
            ..
        } = &q.body.from[0]
        else {
            panic!("expected apply join");
        };
        assert_eq!(*kind, JoinKind::CrossApply);
        assert!(constraint.is_none());
        assert!(matches!(right.as_ref(), TableRef::Function { .. }));

        let q = sel("SELECT * FROM t OUTER APPLY f(t.x) AS a");
        let TableRef::Join { kind, .. } = &q.body.from[0] else {
            panic!()
        };
        assert_eq!(*kind, JoinKind::OuterApply);
    }

    #[test]
    fn parses_top_percent() {
        let q = sel("SELECT TOP 10 PERCENT objid FROM photoprimary ORDER BY r");
        assert!(q.body.top.is_some());
        assert!(q.body.top_percent);
        let q = sel("SELECT TOP 10 objid FROM photoprimary");
        assert!(!q.body.top_percent);
    }

    #[test]
    fn limit_clause() {
        let q = sel("SELECT a FROM t LIMIT 100");
        assert!(q.limit.is_some());
    }
}
