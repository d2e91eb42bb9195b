//! The metric registry: every name the benchmark reports, with its unit
//! and better-direction. `BENCHMARK.json` lists the same names (a unit
//! test holds the two together); README.md defines each one.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's static description.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics: what a user of the engine sees. Every workload
/// reports every one (measured with the traced pass off). Regression
/// bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("read_p50_ms", "ms"),
    lower("read_p95_ms", "ms"),
    higher("reads_per_s", "1/s"),
    lower("write_p50_ms", "ms"),
    lower("write_p95_ms", "ms"),
    higher("rows_ingested_per_s", "rows/s"),
    lower("recovery_s", "s"),
    lower("stored_bytes_per_raw_byte", "ratio"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: one engine crate each, taken in the traced run.
/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // sql / planner: per-statement medians from the staged replay.
    lower("sql.parse_us", "us"),
    lower("sql.bind_us", "us"),
    lower("planner.optimize_us", "us"),
    lower("planner.build_physical_us", "us"),
    // core: what `Database::execute` adds around the staged pipeline, and
    // the non-headline write classes.
    lower("core.execute_overhead_us", "us"),
    lower("core.insert16_us", "us"),
    lower("core.txn_commit_us", "us"),
    lower("core.update_ms", "ms"),
    lower("core.delete_ms", "ms"),
    // exec: staged collect_rows, operator self times, exact counts.
    lower("exec.collect_ms", "ms"),
    lower("exec.scan_self_ms", "ms"),
    lower("exec.filter_self_ms", "ms"),
    lower("exec.join_self_ms", "ms"),
    lower("exec.agg_self_ms", "ms"),
    lower("exec.sort_self_ms", "ms"),
    lower("exec.other_self_ms", "ms"),
    lower("exec.rows_scanned", "count"),
    lower("exec.rows_scanned_delta", "count"),
    lower("exec.groups_scanned", "count"),
    higher("exec.groups_eliminated", "count"),
    higher("exec.rows_dropped_by_bitmap", "count"),
    lower("exec.join_build_rows", "count"),
    lower("exec.join_probe_rows", "count"),
    lower("exec.bytes_spilled", "bytes"),
    lower("exec.rows_examined_per_row_returned", "ratio"),
    higher("exec.elimination_ratio", "ratio"),
    // exec probes: one operator in isolation on the workload's fact rows.
    lower("exec.probe.join_build_ns_per_row", "ns"),
    lower("exec.probe.join_probe_ns_per_row", "ns"),
    lower("exec.probe.agg_ns_per_row", "ns"),
    lower("exec.probe.pred_ns_per_row", "ns"),
    lower("exec.probe.bitmap_ns_per_probe", "ns"),
    // storage: decode / predicate kernels per encoding family, archival,
    // encode and persist — size and speed side by side.
    lower("storage.decode_ns_per_value.dict_rle", "ns"),
    lower("storage.decode_ns_per_value.dict_bitpack", "ns"),
    lower("storage.decode_ns_per_value.value_rle", "ns"),
    lower("storage.decode_ns_per_value.value_bitpack", "ns"),
    lower("storage.pred_ns_per_value", "ns"),
    lower("storage.unarchive_ms_per_group", "ms"),
    higher("storage.encode_rows_per_s", "rows/s"),
    higher("storage.archive_mb_per_s", "MiB/s"),
    lower("storage.save_s", "s"),
    lower("storage.open_s", "s"),
    lower("storage.encoded_bytes_per_raw_byte", "ratio"),
    lower("storage.archived_bytes_per_encoded_byte", "ratio"),
    // delta: trickle insert path, WAL, tuple mover.
    lower("delta.insert_us", "us"),
    lower("delta.insert_wal_us", "us"),
    lower("delta.wal.fsyncs_per_op", "ratio"),
    lower("delta.wal.bytes_per_user_byte", "ratio"),
    higher("delta.wal.records_per_flush", "ratio"),
    lower("delta.wal.commit_wait_ms_per_op", "ms"),
    higher("delta.mover.passes", "count"),
    higher("delta.mover.rows_moved", "count"),
    lower("delta.mover.busy_share", "ratio"),
    lower("delta.delta_rows_at_end", "count"),
    lower("delta.closed_stores_max", "count"),
    lower("delta.snapshot_scan_ns_per_row", "ns"),
    // common: process-wide wait classes (`sys.wait_stats`).
    lower("common.waits.wal_commit_ms", "ms"),
    lower("common.waits.admission_ms", "ms"),
    lower("common.waits.memory_grant_denials", "count"),
    lower("common.waits.backpressure_ms", "ms"),
    lower("common.waits.spill_io_ms", "ms"),
    lower("common.waits.mover_idle_ms", "ms"),
    lower("common.waits.lock_ms", "ms"),
    // Qualifiers of the numbers themselves.
    lower("gen.late_p95_ms", "ms"),
    lower("trace.overhead_share", "ratio"),
];

/// The five workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "scan_filter",
        "read path where storage decode and the exec scan do nearly all the work and hash tables none",
    ),
    (
        "star_join_agg",
        "read path where exec hash join, bitmap filters, hash aggregation and sort dominate and decode is the minority",
    ),
    (
        "trickle_ingest",
        "write path: core DML, delta stores and the WAL do the work, with the tuple mover behind two sessions",
    ),
    (
        "hybrid_read_write",
        "the same scan layer read beside an open-loop writer, over row groups, delta stores and delete bitmap while the mover runs",
    ),
    (
        "bulk_load_persist",
        "encode, archive, save and reopen: the write-cost and space corners of the read-write-space triangle",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn names(arr: &Json) -> Vec<String> {
        arr.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// registry's names, units and directions, inside the contract's
    /// limits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = spec.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for (section, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let arr = spec.get(section).unwrap();
            assert_eq!(
                names(arr),
                defs.iter().map(|d| d.name).collect::<Vec<_>>(),
                "{section}"
            );
            for (m, d) in arr.as_arr().unwrap().iter().zip(defs) {
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    m.get("better").unwrap().as_str(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                assert!(json::is_plain_name(d.name));
                assert!(d.unit.len() <= 16);
                match m.get("bound").and_then(Json::as_f64) {
                    Some(b) => assert!(bounded && b > 0.0 && b <= 0.25, "{}", d.name),
                    None => assert!(!bounded, "{}", d.name),
                }
            }
        }
        assert_eq!(
            names(spec.get("workloads").unwrap()),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert_eq!(END_TO_END[0].name, "setup_s");
        let paths = names_of_strings(spec.get("paths").unwrap());
        assert_eq!(paths, ["perfbench"]);
    }

    fn names_of_strings(arr: &Json) -> Vec<String> {
        arr.as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
