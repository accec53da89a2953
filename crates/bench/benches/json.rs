//! Criterion registrar for the JSON codec benches; the bodies live in
//! `tse_bench::json` so the `bench-baseline` binary can run the same
//! suite and persist its medians.

use criterion::{criterion_group, criterion_main, Criterion};

criterion_group! {
    name = json_group;
    config = Criterion::default().sample_size(20);
    targets = tse_bench::json::all
}
criterion_main!(json_group);
