//! Query-shape normalization for the Query Store.
//!
//! Two statements have the same *shape* when they differ only in literal
//! values: `SELECT a FROM t WHERE x = 5` and `select a from t where
//! x = 17` normalize to the identical template `select a from t where
//! x = ?`, and therefore the same 64-bit shape hash. Normalization works
//! at the lexer level — no parse or bind is needed, so even statements
//! the parser rejects still get a stable hash (from their raw text) and
//! can be aggregated as failures.

use crate::lexer::{tokenize, Token};
use cstore_common::hash::hash_bytes;

/// Longest normalized text kept for display; the hash always covers the
/// full text, so truncation never merges distinct shapes.
const MAX_SHAPE_TEXT: usize = 256;

/// A normalized query shape: the stable 64-bit hash plus the
/// parameterized template text it was computed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryShape {
    pub hash: u64,
    pub text: String,
}

fn push_token(out: &mut String, t: &Token) {
    if !out.is_empty() {
        out.push(' ');
    }
    match t {
        Token::Ident(s) => out.push_str(&s.to_ascii_lowercase()),
        Token::Int(_) | Token::Float(_) | Token::Str(_) => out.push('?'),
        Token::LParen => out.push('('),
        Token::RParen => out.push(')'),
        Token::Comma => out.push(','),
        Token::Dot => out.push('.'),
        Token::Star => out.push('*'),
        Token::Plus => out.push('+'),
        Token::Minus => out.push('-'),
        Token::Slash => out.push('/'),
        Token::Eq => out.push('='),
        Token::Ne => out.push_str("<>"),
        Token::Lt => out.push('<'),
        Token::Le => out.push_str("<="),
        Token::Gt => out.push('>'),
        Token::Ge => out.push_str(">="),
        Token::Semi => out.push(';'),
    }
}

/// Normalize `sql` to its shape: literals become `?` placeholders,
/// identifiers and keywords are lowercased, whitespace and comments
/// vanish. Statements the lexer rejects fall back to hashing the
/// trimmed, lowercased raw text (still deterministic, still groupable).
pub fn query_shape(sql: &str) -> QueryShape {
    shape_of(sql, tokenize(sql).as_deref().ok())
}

/// [`query_shape`] for a caller that has already lexed `sql` (`None` when
/// the lexer rejected it), so a statement is tokenized once for both its
/// shape and [`crate::parser::parse_tokens`].
pub fn shape_of(sql: &str, tokens: Option<&[Token]>) -> QueryShape {
    let text = match tokens {
        Some(tokens) => {
            let mut out = String::with_capacity(sql.len());
            for t in tokens {
                push_token(&mut out, t);
            }
            out
        }
        None => {
            let collapsed: Vec<&str> = sql.split_whitespace().collect();
            collapsed.join(" ").to_ascii_lowercase()
        }
    };
    let hash = hash_bytes(text.as_bytes());
    let mut display = text;
    if display.len() > MAX_SHAPE_TEXT {
        display.truncate(MAX_SHAPE_TEXT);
        display.push('…');
    }
    QueryShape {
        hash,
        text: display,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_case_do_not_change_the_shape() {
        let a = query_shape("SELECT a FROM t WHERE x = 5 AND s = 'abc'");
        let b = query_shape("select  a from T where X = 99 and s='zz' -- c");
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.text, "select a from t where x = ? and s = ?");
    }

    #[test]
    fn different_structure_different_shape() {
        let a = query_shape("SELECT a FROM t WHERE x = 5");
        let b = query_shape("SELECT a FROM t WHERE y = 5");
        let c = query_shape("SELECT a FROM t");
        assert_ne!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn float_and_int_literals_normalize_alike() {
        let a = query_shape("SELECT * FROM t WHERE x > 1.5");
        let b = query_shape("SELECT * FROM t WHERE x > 2");
        assert_eq!(a.hash, b.hash, "both are `x > ?`");
    }

    #[test]
    fn unlexable_text_still_hashes_deterministically() {
        let a = query_shape("SELECT # broken");
        let b = query_shape("select   # BROKEN");
        assert_eq!(a.hash, b.hash);
        assert!(!a.text.is_empty());
    }

    #[test]
    fn long_shapes_truncate_display_but_not_hash() {
        let cols: Vec<String> = (0..100).map(|i| format!("col_{i}")).collect();
        let q1 = format!("SELECT {} FROM t WHERE a = 1", cols.join(", "));
        let q2 = format!("SELECT {} FROM t WHERE a = 2", cols.join(", "));
        let s1 = query_shape(&q1);
        let s2 = query_shape(&q2);
        assert!(s1.text.chars().count() <= MAX_SHAPE_TEXT + 1);
        assert_eq!(s1.hash, s2.hash);
    }
}
