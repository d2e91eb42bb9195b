//! SQL front end: lexer, parser and binder for a warehouse-oriented SQL
//! subset (SELECT with joins/aggregation/ordering, INSERT, UPDATE, DELETE,
//! CREATE TABLE, EXPLAIN).

pub mod ast;
pub mod bind;
pub mod lexer;
pub mod parser;
pub mod shape;

pub use ast::{Statement, TableOrganization};
pub use bind::{
    bind_expr_on_schema, bind_select, bind_union, bind_victim_scan, coerce, literal_value,
};
pub use parser::parse;
pub use shape::{query_shape, QueryShape};
