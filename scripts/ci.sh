#!/usr/bin/env sh
# Local CI gate: formatting, static analysis, build, tests — in the order
# that fails fastest. Run from anywhere; operates on the repo root.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cstore-lint check"
cargo run -q -p cstore-lint -- check

# Lock-discipline gate, static half: `list` exits nonzero if any finding
# is not explicitly waived — the interprocedural L7/L8 passes must stay
# at zero live findings, not merely within the ratchet.
echo "==> cstore-lint zero non-waived findings"
cargo run -q -p cstore-lint -- list --json >/dev/null || {
    echo "cstore-lint: non-waived findings present (run 'cargo run -p cstore-lint -- list')"
    exit 1
}

echo "==> cargo build --release"
cargo build --workspace --release -q

# Not a gate: the size of what was just built, so a PR that says
# "net-negative" can point at two numbers in two logs. The delta crate
# (delta stores, mutation path, WAL) gets its own line next to the total.
echo "==> code size (non-test, non-comment, non-blank Rust lines)"
scripts/loc.sh
scripts/loc.sh crates/delta/src

echo "==> cargo test"
cargo test --workspace -q

# Chaos gate: crash-point matrix over save, degraded open per blob kind,
# and the mover under injected faults. Fixed seeds, fully offline — part
# of the workspace run above, re-run here explicitly so a failure names
# the robustness suite directly.
echo "==> chaos + degraded-open suites"
cargo test -q --test chaos --test degraded_open

# Resource-governor gate: the four governor mechanisms (admission
# control, shared memory ledger, delta backpressure, read-only health
# machine) under injected storage failure, run with runtime lockdep so
# the new governor locks (levels 12-14) prove their place in the order.
echo "==> resource governor chaos (with lockdep)"
cargo test -q --features lockdep --test governor

# Lock-discipline gate, dynamic half: re-run the concurrency and chaos
# suites with the `lockdep` feature, so a runtime lock-order inversion
# anywhere in the engine aborts the suite instead of deadlocking in
# production. (Unit tests get this for free via cfg(test); integration
# tests compile the library without it, hence the explicit feature.)
echo "==> concurrency + chaos under runtime lockdep"
cargo test -q --features lockdep --test concurrency --test chaos

# WAL gate: the crash-point matrix over every WAL append/fsync (clean
# crash, torn write, bit flip), randomized crash schedules, group-commit
# crash under concurrency, and quarantine of interior log damage — plus
# the sys.wal smoke (queryable through the ordinary planner, reflects
# checkpoint retirement after a save).
echo "==> WAL chaos matrix + sys.wal smoke"
cargo test -q --test chaos wal_
cargo test -q --test introspection wal_view_tracks_appends_and_checkpoint_retirement

# Observability gate: run the EXPLAIN ANALYZE smoke query (star-schema
# join with a selective day predicate) and require that the rendered plan
# reports actual segment elimination — a plan that silently stops
# eliminating groups fails here even if results stay correct.
echo "==> EXPLAIN ANALYZE smoke"
smoke=$(cargo test -q --test observability explain_analyze_actuals -- --nocapture)
echo "$smoke" | grep -E 'groups_eliminated=[1-9]' >/dev/null || {
    echo "EXPLAIN ANALYZE smoke reported no segment elimination:"
    echo "$smoke"
    exit 1
}
echo "$smoke" | grep -E 'pruned=[1-9]' >/dev/null || {
    echo "EXPLAIN ANALYZE smoke reported no bitmap-filter prunes:"
    echo "$smoke"
    exit 1
}

# Introspection gate: drive the real shell binary over a loaded table and
# require that the sys.* views report compressed row groups and a
# nontrivial per-segment compression ratio. A refactor that silently
# breaks view binding, the dotted-name parser, or the segment-stats
# plumbing fails here even though the engine still answers data queries.
echo "==> sys.* introspection smoke (shell)"
introspect=$(printf '%s\n' \
    '\demo 150000' \
    'SELECT table_name, state, total_rows FROM sys.row_groups;' \
    "SELECT encoding, compression_ratio FROM sys.column_segments WHERE compression_ratio > 2.0;" \
    '\quit' | cargo run -q --release --bin cstore 2>/dev/null)
echo "$introspect" | grep -E 'COMPRESSED' >/dev/null || {
    echo "sys.row_groups reported no COMPRESSED groups:"
    echo "$introspect"
    exit 1
}
echo "$introspect" | grep -E '(DICT|VALUE)_(RLE|BITPACK)' >/dev/null || {
    echo "sys.column_segments reported no segment with compression_ratio > 2:"
    echo "$introspect"
    exit 1
}

# Trace gate: the Chrome-trace export must contain complete events for a
# query, a tuple-mover compression pass and a persistence save.
echo "==> trace dump smoke"
trace=$(cargo run -q --release --bin cstore -- trace dump 2>/dev/null)
for needle in '"traceEvents":[' '"ph":"X"' '"name":"query"' \
    '"name":"compress_rowgroup"' '"name":"persist.save"'; do
    case "$trace" in
    *"$needle"*) ;;
    *)
        echo "trace dump missing $needle"
        exit 1
        ;;
    esac
done

# Wait-stats + Query Store gate: drive the shell through a two-session
# persisted workload. Session 2 reopens the directory (which attaches the
# WAL), commits trickle inserts and repeats one SELECT shape; it must
# then report a nonzero WAL_COMMIT row in sys.wait_stats and an
# aggregated sys.query_store row for the repeated shape. A refactor that
# silently stops attributing commit waits, or stops aggregating shapes,
# fails here even though every query still answers correctly.
echo "==> wait stats + query store smoke (shell)"
wsdir=$(mktemp -d)
printf '%s\n' \
    'CREATE TABLE qs (id BIGINT NOT NULL, v BIGINT NOT NULL);' \
    'INSERT INTO qs VALUES (1, 10);' \
    '\quit' | cargo run -q --release --bin cstore -- "$wsdir" >/dev/null 2>&1
waitsmoke=$(printf '%s\n' \
    'INSERT INTO qs VALUES (2, 20);' \
    'INSERT INTO qs VALUES (3, 30);' \
    'INSERT INTO qs VALUES (4, 40);' \
    'SELECT SUM(v) FROM qs WHERE id > 0;' \
    'SELECT SUM(v) FROM qs WHERE id > 1;' \
    'SELECT SUM(v) FROM qs WHERE id > 2;' \
    'SELECT wait_class, wait_count FROM sys.wait_stats WHERE wait_count > 0;' \
    'SELECT query_shape, executions FROM sys.query_store WHERE executions > 2;' \
    '\quit' | cargo run -q --release --bin cstore -- "$wsdir" 2>/dev/null)
echo "$waitsmoke" | grep 'WAL_COMMIT' >/dev/null || {
    echo "sys.wait_stats reported no WAL_COMMIT wait after WAL-attached inserts:"
    echo "$waitsmoke"
    exit 1
}
echo "$waitsmoke" | grep -F 'where id > ?' >/dev/null || {
    echo "sys.query_store reported no aggregated row for the repeated SELECT shape:"
    echo "$waitsmoke"
    exit 1
}
rm -rf "$wsdir"

# Transactions gate: drive BEGIN…ROLLBACK and BEGIN…disconnect…reopen
# through the real shell against a persisted directory. Rolled-back rows
# must never be visible, never survive a reopen, and the abort must be
# observable in sys.transactions and sys.query_log. A refactor that
# leaks buffered transaction writes (or stops rolling back a dropped
# session) fails here even though unit suites still pass.
echo "==> transactions smoke (shell)"
txdir=$(mktemp -d)
txsmoke=$(printf '%s\n' \
    'CREATE TABLE txndemo (id BIGINT NOT NULL, v VARCHAR NOT NULL);' \
    "INSERT INTO txndemo VALUES (1, 'keepme');" \
    'BEGIN;' \
    "INSERT INTO txndemo VALUES (2, 'leakme'), (3, 'leakme');" \
    "UPDATE txndemo SET v = 'leakme' WHERE id = 1;" \
    'ROLLBACK;' \
    'SELECT id, v FROM txndemo ORDER BY id;' \
    "SELECT state FROM sys.transactions WHERE state = 'ABORTED';" \
    "SELECT status FROM sys.query_log WHERE status = 'ROLLBACK';" \
    '\quit' | cargo run -q --release --bin cstore -- "$txdir" 2>/dev/null)
echo "$txsmoke" | grep 'keepme' >/dev/null || {
    echo "committed row lost after ROLLBACK:"
    echo "$txsmoke"
    exit 1
}
echo "$txsmoke" | grep 'leakme' >/dev/null && {
    echo "rolled-back transaction leaked rows:"
    echo "$txsmoke"
    exit 1
}
echo "$txsmoke" | grep 'ABORTED' >/dev/null || {
    echo "sys.transactions reported no ABORTED transaction:"
    echo "$txsmoke"
    exit 1
}
echo "$txsmoke" | grep 'ROLLBACK' >/dev/null || {
    echo "sys.query_log reported no ROLLBACK outcome:"
    echo "$txsmoke"
    exit 1
}
# A session that disconnects (EOF, no \quit) mid-transaction: the shell
# rolls the open transaction back before its exit save.
drop=$(printf '%s\n' \
    'BEGIN;' \
    "INSERT INTO txndemo VALUES (4, 'ghost');" \
    | cargo run -q --release --bin cstore -- "$txdir" 2>&1)
echo "$drop" | grep 'open transaction rolled back on exit' >/dev/null || {
    echo "shell did not roll back the open transaction on disconnect:"
    echo "$drop"
    exit 1
}
# Reopen: zero leaked rows from either aborted transaction.
reopen=$(printf '%s\n' \
    'SELECT id, v FROM txndemo ORDER BY id;' \
    '\quit' | cargo run -q --release --bin cstore -- "$txdir" 2>/dev/null)
echo "$reopen" | grep 'keepme' >/dev/null || {
    echo "committed row lost across reopen:"
    echo "$reopen"
    exit 1
}
echo "$reopen" | grep -E 'leakme|ghost' >/dev/null && {
    echo "aborted transaction rows leaked across reopen:"
    echo "$reopen"
    exit 1
}
rm -rf "$txdir"

# Bench-results gate: the E1 harness (offline, no external deps) must
# produce a machine-readable BENCH_E1.json with the agreed shape.
echo "==> bench BENCH_E1.json shape"
bench_results=$(mktemp -d)
(cd crates/bench && CSTORE_SCALE=small CSTORE_RESULTS_DIR="$bench_results" \
    cargo run -q --offline --release --bin exp_e1_compression >/dev/null)
for field in '"experiment":"E1"' '"rows":' '"wall_ms":' '"bytes":' '"compression_ratio":'; do
    grep -F "$field" "$bench_results/BENCH_E1.json" >/dev/null || {
        echo "BENCH_E1.json missing $field:"
        cat "$bench_results/BENCH_E1.json" 2>/dev/null || echo "(no file)"
        exit 1
    }
done
rm -rf "$bench_results"

# E5 durability-tax gate: the trickle-insert harness must record the
# WAL-on vs WAL-off insert rates in BENCH_E5.json so the WAL's overhead
# stays measured, not guessed. The 16-writer axis records rows/s and
# fsyncs/row per `wal_sync` mode; the group-commit ratio against the
# WAL-free rate is the pipelined-log-writer regression gate (target ~5x;
# the bound leaves headroom for slow CI disks — a regression to the old
# fsync-per-commit path shows up as ~50x and fails loudly).
echo "==> bench BENCH_E5.json shape + group-commit ratio"
bench_results=$(mktemp -d)
(cd crates/bench && CSTORE_SCALE=small CSTORE_RESULTS_DIR="$bench_results" \
    cargo run -q --offline --release --bin exp_e5_trickle_inserts >/dev/null)
for field in '"experiment":"E5"' '"wal_off_inserts_per_s":' '"wal_on_inserts_per_s":' \
    '"wal_overhead_pct":' '"wal16_off_rows_per_s":' '"wal16_nosync_rows_per_s":' \
    '"wal16_group_rows_per_s":' '"wal16_group_fsyncs_per_row":' \
    '"wal16_strict_rows_per_s":' '"wal16_strict_fsyncs_per_row":' \
    '"wal16_group_vs_off_ratio":'; do
    grep -F "$field" "$bench_results/BENCH_E5.json" >/dev/null || {
        echo "BENCH_E5.json missing $field:"
        cat "$bench_results/BENCH_E5.json" 2>/dev/null || echo "(no file)"
        exit 1
    }
done
ratio=$(sed -n 's/.*"wal16_group_vs_off_ratio":\([0-9.]*\).*/\1/p' "$bench_results/BENCH_E5.json")
awk "BEGIN { exit !($ratio <= 12) }" || {
    echo "wal16_group_vs_off_ratio regressed: $ratio (group commit must stay near 5x of WAL-off)"
    cat "$bench_results/BENCH_E5.json"
    exit 1
}
echo "    wal16_group_vs_off_ratio = $ratio"
rm -rf "$bench_results"

# E8 governor-pressure gate: the spilling harness must record the budget
# sweep and the concurrent shared-ledger axis in BENCH_E8.json, so the
# governor's memory behavior under concurrency stays measured.
echo "==> bench BENCH_E8.json shape"
bench_results=$(mktemp -d)
(cd crates/bench && CSTORE_SCALE=small CSTORE_RESULTS_DIR="$bench_results" \
    cargo run -q --offline --release --bin exp_e8_spilling >/dev/null)
for field in '"experiment":"E8"' '"budget_10pct_spilled_bytes":' \
    '"concurrent_k16_ms":' '"concurrent_k16_completed":'; do
    grep -F "$field" "$bench_results/BENCH_E8.json" >/dev/null || {
        echo "BENCH_E8.json missing $field:"
        cat "$bench_results/BENCH_E8.json" 2>/dev/null || echo "(no file)"
        exit 1
    }
done
rm -rf "$bench_results"

# Write-path gate: a short quick-scale pass of the benchmark's
# `trickle_ingest` workload — autocommit inserts, 16-row inserts,
# BEGIN…COMMIT batches, UPDATE and DELETE from two sessions beside the
# tuple mover, then a restart — must acknowledge and recover every
# operation. Timings are not judged here (a quick run is too short);
# only that the last line, the JSON result, reports no failed operation.
echo "==> perfbench trickle_ingest smoke"
trickle=$(cd perfbench && cargo run --release --offline --quiet --bin bench -- \
    run --workload trickle_ingest --quick --seconds 3 | tail -n 1)
case "$trickle" in
*'"failed": 0,'*) ;;
*)
    echo "trickle_ingest reported failed operations:"
    echo "$trickle"
    exit 1
    ;;
esac

# Read-path gate: the same for `star_join_agg` — star joins, group-bys
# and a Top-N through the hash join and hash aggregation, every result
# checked against the generator's oracle and against row mode.
echo "==> perfbench star_join_agg smoke"
star=$(cd perfbench && cargo run --release --offline --quiet --bin bench -- \
    run --workload star_join_agg --quick --seconds 3 | tail -n 1)
case "$star" in
*'"failed": 0,'*) ;;
*)
    echo "star_join_agg reported failed operations:"
    echo "$star"
    exit 1
    ;;
esac

# Read-beside-write gate: `hybrid_read_write` — an open-loop writer whose
# DELETEs find their victims through the batch scan (segment elimination,
# row-id pseudo-column) while a reader checks bounded counts and the
# tuple mover runs, then a restart against a shadow count.
echo "==> perfbench hybrid_read_write smoke"
hybrid=$(cd perfbench && cargo run --release --offline --quiet --bin bench -- \
    run --workload hybrid_read_write --quick --seconds 3 | tail -n 1)
case "$hybrid" in
*'"failed": 0,'*) ;;
*)
    echo "hybrid_read_write reported failed operations:"
    echo "$hybrid"
    exit 1
    ;;
esac

echo "==> ci: all gates passed"
