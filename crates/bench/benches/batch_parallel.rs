//! Criterion benchmark of the shard-parallel batch executor: one
//! `EmbeddingTable::gather` at parallelism 1 / 2 / 4 / 8 on the in-memory and
//! FASTER engines, plus a cold FASTER configuration with simulated SSD read
//! latency where the win comes from overlapping device waits.
//!
//! All table setup lives in `mlkv_bench::batch_parallel`, shared with the
//! `emit_bench_json` binary, so this bench and the recorded
//! `BENCH_batch_parallel.json` always measure the same stores.
//!
//! The interesting read is `gather/<n>` across the `pN` rows of one group. A
//! batch fans out only when every worker gets
//! `mlkv_storage::exec::MIN_KEYS_PER_WORKER` keys, so `gather/1024` and
//! `gather/4096` run inline at every level (the rows should match), and
//! `gather/16384` fans out to `min(N, 4)` workers, which only pays on idle
//! cores. `p1` runs every job inline on the caller — comparing it against the
//! `batch_ops` bench checks for regressions.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlkv::BackendKind;
use mlkv_bench::batch_parallel::{
    cold_faster_table, rotating_keys, warm_table, COLD_KEY_SPACE, GATHER_BATCH_SIZES,
    PARALLELISM_LEVELS, WARM_KEY_SPACE,
};

fn bench_warm(c: &mut Criterion, group_name: &str, backend: BackendKind) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for parallelism in PARALLELISM_LEVELS {
        let table = warm_table(backend, parallelism);
        for n in GATHER_BATCH_SIZES {
            group.bench_with_input(
                BenchmarkId::new(format!("gather/{n}"), format!("p{parallelism}")),
                &table,
                |b, t| {
                    let mut base = 0u64;
                    b.iter(|| {
                        base = base.wrapping_add(31);
                        t.gather(&rotating_keys(base, n, WARM_KEY_SPACE)).unwrap()
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_memstore(c: &mut Criterion) {
    bench_warm(c, "memstore_parallel_gather", BackendKind::InMemory);
}

fn bench_faster(c: &mut Criterion) {
    bench_warm(c, "faster_parallel_gather", BackendKind::Faster);
}

fn bench_faster_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("faster_cold_ssd_sim_parallel_gather");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(600));
    for parallelism in [1usize, 4] {
        let table = cold_faster_table(parallelism);
        group.bench_with_input(
            BenchmarkId::new("gather/1024", format!("p{parallelism}")),
            &table,
            |b, t| {
                let mut base = 0u64;
                b.iter(|| {
                    base = base.wrapping_add(31);
                    t.gather(&rotating_keys(base, 1024, COLD_KEY_SPACE))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_memstore, bench_faster, bench_faster_cold);
criterion_main!(benches);
