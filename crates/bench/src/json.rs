//! JSON codec benchmarks over the document a sweepd job moves: a merged
//! grid of fig08's shape. The daemon pretty-prints it into its reply,
//! the client parses the reply and pretty-prints it again into `--out`.
//!
//! * `pretty_merged_grid` — pretty-print the grid's JSON tree.
//! * `parse_merged_grid` — parse the pretty text back into a tree.
//!
//! The grid is synthetic (no corpus or file input): 56 trace-mode cells,
//! eight per application, whose `stream_lengths` histograms have the
//! lengths fig08 produces at scale 0.1 — about 0.9 MB pretty-printed.
//! The rows call `serde::json` directly: `serde_json`'s entry points
//! would add a clone of the whole tree (`Serialize`/`Deserialize` for
//! `Value`) to what is meant to time the codec alone.

use criterion::{black_box, Criterion};
use serde::json::{self, Value};
use serde_json::json;
use std::sync::OnceLock;

/// Registers every JSON codec benchmark on `c`.
pub fn all(c: &mut Criterion) {
    let (grid, text) = merged_grid();
    let mut g = c.benchmark_group("json");
    g.bench_function("pretty_merged_grid", |b| {
        b.iter(|| black_box(json::to_string_pretty(grid).len()));
    });
    g.bench_function("parse_merged_grid", |b| {
        b.iter(|| black_box(json::parse(text).is_ok()));
    });
    g.finish();
}

/// fig08's applications with the `stream_lengths` length of their cells.
const APPS: [(&str, usize); 7] = [
    ("em3d", 185),
    ("moldyn", 1600),
    ("ocean", 64),
    ("Apache", 360),
    ("DB2", 1430),
    ("Oracle", 1660),
    ("Zeus", 363),
];

/// The synthetic grid as a tree and as pretty text, built once.
fn merged_grid() -> &'static (Value, String) {
    static GRID: OnceLock<(Value, String)> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let cells: Vec<Value> = (0..56u64)
            .map(|cell| {
                let (workload, streams) = APPS[cell as usize / 8];
                let stream_lengths: Vec<u64> = (0..streams).map(|_| 1 + next(200)).collect();
                let mut counter = || next(100_000);
                json!({
                    "cell": cell,
                    "output": {
                        "mode": "trace",
                        "result": {
                            "workload": workload,
                            "engine_name": "TSE",
                            "mem": {
                                "reads": counter(), "writes": counter(), "l1_hits": counter(),
                                "l2_hits": counter(), "cold_misses": counter(),
                                "replacement_misses": counter(), "coherence_misses": counter(),
                                "write_transactions": counter(), "invalidations": counter(),
                                "writebacks": counter(), "evictions": counter(),
                            },
                            "engine": {
                                "covered": counter(), "partial_covered": counter(),
                                "uncovered": counter(), "fetched": counter(),
                                "discarded": counter(), "skipped_fetches": counter(),
                                "cmob_appends": counter(), "pointer_updates": counter(),
                                "queues_allocated": counter(), "queue_stalls": counter(),
                                "queue_resolutions": counter(), "consumed_heads": counter(),
                                "stream_lengths": stream_lengths,
                                "cmob_pin_bytes": counter(),
                                "partial_residual_cycles": counter(),
                                "partial_full_cycles": counter(),
                            },
                            "traffic": {
                                "total_bytes": counter(), "demand_bytes": counter(),
                                "overhead_bytes": counter(), "stream_address_bytes": counter(),
                                "discarded_data_bytes": counter(), "cmob_bytes": counter(),
                                "bisection_demand_bytes": counter(),
                                "bisection_overhead_bytes": counter(), "messages": counter(),
                            },
                            "consumptions": [],
                            "records": counter(),
                            "spin_misses": counter(),
                        }
                    }
                })
            })
            .collect();
        let grid = json!({ "version": 1, "figure": "fig08", "cells": cells });
        let text = json::to_string_pretty(&grid);
        (grid, text)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_grid_has_fig08_size_and_round_trips() {
        let (grid, text) = merged_grid();
        assert_eq!(
            grid.get("cells").and_then(Value::as_array).map(Vec::len),
            Some(56)
        );
        assert!(
            (700_000..1_200_000).contains(&text.len()),
            "pretty grid is {} bytes",
            text.len()
        );
        assert_eq!(&json::parse(text).unwrap(), grid);
    }
}
