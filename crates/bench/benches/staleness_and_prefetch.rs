//! Criterion micro-benchmarks of MLKV's two core mechanisms: the record-word
//! staleness protocol (cost of the vector clock, §IV-E) and look-ahead
//! prefetching (cost/benefit of promoting cold records, §IV-D).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mlkv::record_word::AtomicRecordWord;
use mlkv::{BackendKind, Mlkv};

fn bench_record_word(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_word");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let word = AtomicRecordWord::new();
    group.bench_function("get_put_cycle", |b| {
        b.iter(|| {
            let _ = word.try_acquire_get(u32::MAX);
            word.release(false);
            if let Some(latch) = word.try_acquire_put() {
                word.release_put(latch, false);
            }
        })
    });
    group.finish();
}

fn bench_table_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding_table");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    // With vs without bounded-staleness enforcement (the §IV-E overhead claim).
    for (label, enforce) in [("with_staleness", true), ("without_staleness", false)] {
        let mut builder = Mlkv::builder("bench-table")
            .dim(16)
            .staleness_bound(u32::MAX)
            .backend(BackendKind::Mlkv)
            .memory_budget(16 << 20);
        if !enforce {
            builder = builder.disable_staleness_enforcement();
        }
        let table = builder.build().unwrap().table();
        for k in 0..5_000u64 {
            table.put_one(k, &[0.1; 16]).unwrap();
        }
        group.bench_function(format!("get_put_{label}"), |b| {
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 1) % 5_000;
                let v = table.get_one(k).unwrap();
                table.put_one(k, &v).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_lookahead(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookahead_prefetch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    // Small buffer so most keys are cold; measure cold gets with and without a
    // preceding look-ahead pass.
    let table = Mlkv::builder("bench-lookahead")
        .dim(16)
        .staleness_bound(u32::MAX)
        .backend(BackendKind::Mlkv)
        .memory_budget(256 << 10)
        .page_size(4 << 10)
        .build()
        .unwrap()
        .table();
    for k in 0..20_000u64 {
        table.put_one(k, &[0.1; 16]).unwrap();
    }
    group.bench_function("cold_get_no_prefetch", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            table.get_one(k).unwrap()
        })
    });
    group.bench_function("cold_get_after_lookahead", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            table.lookahead(&[(k + 7919) % 10_000]);
            table.get_one(k).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_record_word, bench_table_get, bench_lookahead);
criterion_main!(benches);
