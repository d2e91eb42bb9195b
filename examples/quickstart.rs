//! Quickstart: create a columnstore table, load data, query it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cstore::Database;

fn main() -> cstore::common::Result<()> {
    let db = Database::new();

    // A table backed by an updatable clustered columnstore index (the
    // default organization — add `USING HEAP` for a row-store baseline).
    db.execute(
        "CREATE TABLE orders (
            order_id   BIGINT NOT NULL,
            customer   VARCHAR NOT NULL,
            amount     DECIMAL(10, 2) NOT NULL,
            placed_on  DATE NOT NULL,
            note       VARCHAR
        )",
    )?;

    // Trickle inserts land in a delta store.
    db.execute(
        "INSERT INTO orders VALUES
            (1, 'ada',   12.50, 100, NULL),
            (2, 'boole', 20.00, 100, 'gift wrap'),
            (3, 'ada',    7.25, 101, NULL),
            (4, 'curie', 99.99, 102, NULL),
            (5, 'ada',   15.00, 102, 'expedite')",
    )?;

    // Query with filters, aggregation and ordering.
    let result = db.execute(
        "SELECT customer, COUNT(*) AS orders, SUM(amount) AS total
         FROM orders
         WHERE placed_on BETWEEN 100 AND 101
         GROUP BY customer
         ORDER BY total DESC",
    )?;
    println!("{}", result.to_table());

    // Updates and deletes work against the columnstore (delete bitmap +
    // delta stores under the hood).
    db.execute("UPDATE orders SET amount = 8.00 WHERE order_id = 3")?;
    db.execute("DELETE FROM orders WHERE customer = 'curie'")?;

    let result = db.execute("SELECT COUNT(*), SUM(amount) FROM orders")?;
    println!("{}", result.to_table());

    // EXPLAIN shows the optimizer's choices: execution mode, predicate
    // pushdown, estimated cardinalities.
    let plan = db.execute("EXPLAIN SELECT customer FROM orders WHERE amount > 10.0")?;
    if let cstore::QueryResult::Explain(text) = plan {
        println!("{text}");
    }
    Ok(())
}
