//! Trickle updates: the updatable columnstore in motion.
//!
//! Demonstrates the paper's main enhancement end to end: single-row
//! inserts flowing into delta stores, deletes marking the delete bitmap,
//! a background tuple mover compressing closed delta stores, and queries
//! staying correct (and getting faster) throughout.
//!
//! ```sh
//! cargo run --release --example trickle_updates
//! ```

use std::time::Duration;

use cstore::common::{Row, Value};
use cstore::delta::TableConfig;
use cstore::Database;

fn print_stats(db: &Database, label: &str) {
    let s = db.table_stats("events").expect("stats");
    println!(
        "{label:<28} compressed={:>7} rows/{:>2} groups | delta={:>6} rows ({} open, {} closed) | deleted={}",
        s.compressed_rows,
        s.n_compressed_groups,
        s.delta_rows,
        s.n_open_deltas,
        s.n_closed_deltas,
        s.deleted_rows
    );
}

fn main() -> cstore::common::Result<()> {
    // Small delta stores so the lifecycle is visible in one run.
    let db = Database::new().with_table_config(TableConfig {
        delta_capacity: 10_000,
        bulk_load_threshold: 50_000,
        ..Default::default()
    });
    db.execute("CREATE TABLE events (id BIGINT NOT NULL, kind VARCHAR NOT NULL, amount DOUBLE)")?;

    // A historical bulk load: straight to compressed row groups.
    let history: Vec<Row> = (0..100_000)
        .map(|i| {
            Row::new(vec![
                Value::Int64(i),
                Value::str(["view", "click", "buy"][(i % 3) as usize]),
                Value::Float64((i % 50) as f64),
            ])
        })
        .collect();
    db.bulk_load("events", &history)?;
    print_stats(&db, "after bulk load:");

    // Live trickle: 25k single-row inserts fill delta stores.
    for i in 100_000..125_000i64 {
        db.execute(&format!(
            "INSERT INTO events VALUES ({i}, 'click', {})",
            (i % 50) as f64
        ))?;
    }
    print_stats(&db, "after 25k trickle inserts:");

    // Deletes: compressed rows go to the delete bitmap, delta rows leave
    // their delta store directly.
    let n = db.execute("DELETE FROM events WHERE kind = 'buy' AND id < 1000")?;
    println!("deleted {} rows", n.affected());
    print_stats(&db, "after deletes:");

    // Background tuple mover drains the closed delta stores.
    let mover = db.start_tuple_mover("events", Duration::from_millis(5))?;
    std::thread::sleep(Duration::from_millis(200));
    let moved = mover.stop()?;
    println!("tuple mover compressed {moved} delta stores");
    print_stats(&db, "after tuple mover:");

    // Queries see one consistent table throughout.
    let r = db.execute(
        "SELECT kind, COUNT(*) AS n, AVG(amount) AS avg_amount \
         FROM events GROUP BY kind ORDER BY kind",
    )?;
    println!("\n{}", r.to_table());
    Ok(())
}
