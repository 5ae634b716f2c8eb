//! Criterion micro-benchmarks of MLKV's two core mechanisms: the record-word
//! staleness protocol (cost of the vector clock, §IV-E) and look-ahead
//! prefetching (cost/benefit of promoting cold records, §IV-D).

use std::sync::mpsc::{self, TryRecvError};
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use mlkv::record_word::AtomicRecordWord;
use mlkv::{
    open_store, BackendKind, ConsistencyMode, EmbeddingTable, Mlkv, StalenessController,
    StoreConfig,
};

fn bench_record_word(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_word");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let word = AtomicRecordWord::new();
    group.bench_function("get_put_cycle", |b| {
        b.iter(|| {
            let _ = word.try_admit_get(u32::MAX);
            if let Some(latch) = word.try_acquire_put() {
                word.release_put(latch);
            }
        })
    });
    group.finish();
}

/// Words the admission benches track: the key space of a `train-cold` table.
const TRACKED_KEYS: u64 = 200_000;
/// Bytes streamed between cold samples: more than the last-level cache of the
/// 2-core Xeon host the numbers in ROADMAP.md were taken on (105 MiB).
const EVICT_BYTES: usize = 128 << 20;

/// Gather-sized batches over a table of `table_keys` keys: 509 scattered
/// draws each, duplicates included, in the order a trainer would look them
/// up.
fn scattered_draws(table_keys: u64) -> Vec<Vec<u64>> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..64)
        .map(|_| {
            (0..509)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % table_keys
                })
                .collect()
        })
        .collect()
}

/// [`scattered_draws`], sorted and deduplicated as `EmbeddingTable::gather`
/// hands them to the controller and the engine.
fn scattered_batches(table_keys: u64) -> Vec<Vec<u64>> {
    scattered_draws(table_keys)
        .into_iter()
        .map(|mut keys| {
            keys.sort_unstable();
            keys.dedup();
            keys
        })
        .collect()
}

/// One staleness-controller batch call: a gather's admission or an apply's
/// Put latches (taken and released).
fn bench_admission(c: &mut Criterion) {
    let ctl = StalenessController::new(ConsistencyMode::Asp, true);
    drop(
        ctl.acquire_put_batch(&(0..TRACKED_KEYS).collect::<Vec<_>>())
            .unwrap(),
    );
    let batches = scattered_batches(TRACKED_KEYS);
    let mut evict = vec![0u64; EVICT_BYTES / 8];
    let admit: fn(&StalenessController, &[u64]) = |ctl, keys| ctl.admit_get_batch(keys).unwrap();
    let put: fn(&StalenessController, &[u64]) =
        |ctl, keys| drop(ctl.acquire_put_batch(keys).unwrap());
    for (name, run) in [("admit_get_batch", admit), ("put_batch", put)] {
        let mut group = c.benchmark_group(name);
        group
            .sample_size(20)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(600));
        let mut next = 0;
        // Cold: the table is evicted from every cache level before each batch.
        group.bench_function("cold", |b| {
            b.iter_batched(
                || {
                    evict.iter_mut().for_each(|w| *w = w.wrapping_add(1));
                    next = (next + 1) % batches.len();
                    &batches[next]
                },
                |keys| run(&ctl, keys),
                BatchSize::PerIteration,
            )
        });
        group.bench_function("hot", |b| b.iter(|| run(&ctl, &batches[0])));
        group.finish();
    }
}

/// A warm step over an in-memory FASTER table, at two table sizes (4,000
/// keys, whose rows stay in the last-level cache, and [`TRACKED_KEYS`]) and
/// with staleness enforcement on and off:
///
/// * `gather_into` of 509 scattered draws;
/// * `apply_gradients` of the same draws' unique keys;
/// * the bare engine `multi_read` of those unique keys, which `gather_into`
///   wraps. The difference is the table's own share of a gather: sorting and
///   deduplicating the draws, the staleness admission, the per-row slots,
///   decoding and copying duplicates.
///
/// Rows are named `<op>/<table keys>/<enforcement>`, and the engine's
/// `multi_read/<table keys>`. One more row,
/// `apply_gradients/cross_thread/<TRACKED_KEYS>` (enforcement on), times the
/// apply the way an asynchronous applier meets it: before each apply a
/// helper thread writes the gradients and gathers the rows, so their lines
/// sit in another core's cache, as they do after a trainer's step. The other
/// rows find every line already in the bench thread's cache.
fn bench_warm_gather(c: &mut Criterion) {
    const DIM: usize = 16;
    let mut group = c.benchmark_group("warm_gather");
    // The cross-thread row takes one sample per setup, up to this many within
    // the measurement window.
    group
        .sample_size(500)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let mut rows = vec![0.0f32; 509 * DIM];
    let gradient = [0.01f32; DIM];
    for table_keys in [4_000, TRACKED_KEYS] {
        let draws = scattered_draws(table_keys);
        let unique = scattered_batches(table_keys);
        let updates: Vec<Vec<(u64, &[f32])>> = unique
            .iter()
            .map(|keys| keys.iter().map(|&k| (k, &gradient[..])).collect())
            .collect();
        for enforce in [true, false] {
            let store = open_store(
                BackendKind::Mlkv,
                StoreConfig::in_memory()
                    .with_memory_budget(64 << 20)
                    .with_index_buckets(1 << 18),
            )
            .unwrap();
            let table = EmbeddingTable::builder(store)
                .dim(DIM)
                .staleness_bound(u32::MAX)
                .enforce_staleness(enforce)
                .lookahead_workers(0)
                .build()
                .unwrap();
            let keys: Vec<u64> = (0..table_keys).collect();
            for chunk in keys.chunks(4096) {
                table
                    .put(chunk, &vec![vec![0.1; DIM]; chunk.len()])
                    .unwrap();
            }
            let label = format!("{table_keys}/{}", if enforce { "on" } else { "off" });
            let mut next = 0;
            group.bench_function(format!("gather_into/{label}"), |b| {
                b.iter(|| {
                    next = (next + 1) % draws.len();
                    table.gather_into(&draws[next], &mut rows).unwrap();
                })
            });
            group.bench_function(format!("apply_gradients/{label}"), |b| {
                b.iter(|| {
                    next = (next + 1) % updates.len();
                    table.apply_gradients(&updates[next], 1e-3).unwrap();
                })
            });
            if enforce && table_keys == TRACKED_KEYS {
                group.bench_function(format!("apply_gradients/cross_thread/{table_keys}"), |b| {
                    let (to_helper, requests) = mpsc::channel::<usize>();
                    let (to_bench, replies) = mpsc::channel::<Vec<Vec<f32>>>();
                    let (table, draws, unique) = (&table, &draws, &unique);
                    std::thread::scope(|scope| {
                        // The helper polls rather than blocks, so it keeps a
                        // core of its own and the bench thread keeps the other.
                        scope.spawn(move || loop {
                            match requests.try_recv() {
                                Ok(n) => {
                                    let mut rows = vec![0.0f32; draws[n].len() * DIM];
                                    table.gather_into(&draws[n], &mut rows).unwrap();
                                    black_box(&rows);
                                    // One allocation per row, as a trainer
                                    // hands them over: no sequential stream
                                    // for the hardware prefetcher to follow.
                                    let gradients = unique[n].iter().map(|_| vec![0.01f32; DIM]);
                                    to_bench.send(gradients.collect()).unwrap();
                                }
                                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                                Err(TryRecvError::Disconnected) => break,
                            }
                        });
                        b.iter_batched(
                            || {
                                next = (next + 1) % unique.len();
                                to_helper.send(next).unwrap();
                                (&unique[next], replies.recv().unwrap())
                            },
                            |(keys, gradients)| {
                                let updates: Vec<(u64, &[f32])> = keys
                                    .iter()
                                    .copied()
                                    .zip(gradients.iter().map(Vec::as_slice))
                                    .collect();
                                table.apply_gradients(&updates, 1e-3).unwrap();
                            },
                            BatchSize::PerIteration,
                        );
                        drop(to_helper);
                    });
                });
            }
            if !enforce {
                // The engine read does not depend on the table's enforcement.
                group.bench_function(format!("multi_read/{table_keys}"), |b| {
                    b.iter(|| {
                        next = (next + 1) % unique.len();
                        let failed = table.store().multi_read(&unique[next], &|i, value| {
                            black_box((i, value.map(<[u8]>::len)));
                        });
                        assert!(failed.is_empty());
                    })
                });
            }
        }
    }
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

criterion_group!(
    benches,
    bench_record_word,
    bench_admission,
    bench_warm_gather,
    bench_table_get,
    bench_lookahead
);
criterion_main!(benches);
