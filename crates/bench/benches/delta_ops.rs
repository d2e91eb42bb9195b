//! Microbenchmarks: the write path — trickle inserts, deletes, and the
//! tuple mover's compression step.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cstore_common::{DataType, Field, Row, RowId, Schema, Value};
use cstore_delta::{ColumnStoreTable, TableConfig};

fn schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::not_null("tag", DataType::Utf8),
        Field::nullable("v", DataType::Float64),
    ])
}

fn row(i: i64) -> Row {
    Row::new(vec![
        Value::Int64(i),
        Value::str(["a", "b", "c", "d"][(i % 4) as usize]),
        Value::Float64(i as f64),
    ])
}

fn bench_table_writes(c: &mut Criterion) {
    const N: usize = 50_000;
    let config = TableConfig {
        delta_capacity: 1 << 20,
        ..Default::default()
    };
    let mut g = c.benchmark_group("table_write_path");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    g.bench_function("trickle_insert", |b| {
        b.iter(|| {
            let t = ColumnStoreTable::new(schema(), config.clone());
            for i in 0..N as i64 {
                t.insert(row(i)).unwrap();
            }
            std::hint::black_box(t.total_rows())
        });
    });
    g.bench_function("bulk_insert_direct", |b| {
        let rows: Vec<Row> = (0..N as i64).map(row).collect();
        let config = TableConfig {
            bulk_load_threshold: 1024,
            ..Default::default()
        };
        b.iter(|| {
            let t = ColumnStoreTable::new(schema(), config.clone());
            t.bulk_insert(&rows).unwrap();
            std::hint::black_box(t.total_rows())
        });
    });
    g.bench_function("delete_from_compressed", |b| {
        let rows: Vec<Row> = (0..N as i64).map(row).collect();
        let config = TableConfig {
            bulk_load_threshold: 1024,
            ..Default::default()
        };
        b.iter(|| {
            let t = ColumnStoreTable::new(schema(), config.clone());
            t.bulk_insert(&rows).unwrap();
            let gid = t.snapshot().groups()[0].id();
            for i in (0..N as u32).step_by(3) {
                t.delete(RowId::new(gid, i)).unwrap();
            }
            std::hint::black_box(t.total_rows())
        });
    });
    g.bench_function("tuple_move", |b| {
        b.iter(|| {
            let t = ColumnStoreTable::new(
                schema(),
                TableConfig {
                    delta_capacity: N / 4,
                    ..Default::default()
                },
            );
            for i in 0..N as i64 {
                t.insert(row(i)).unwrap();
            }
            t.close_open_delta();
            std::hint::black_box(t.tuple_move_once().unwrap())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_table_writes);
criterion_main!(benches);
