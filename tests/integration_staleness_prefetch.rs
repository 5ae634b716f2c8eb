//! Integration tests for the two MLKV mechanisms working together across
//! threads and backends: bounded staleness consistency and look-ahead
//! prefetching.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlkv::{open_store, BackendKind, EmbeddingTable, Mlkv, StoreConfig};

#[test]
fn ssp_bound_is_never_exceeded_under_concurrency() {
    let model = Mlkv::builder("ssp-bound")
        .dim(4)
        .staleness_bound(3)
        .backend(BackendKind::Mlkv)
        .memory_budget(1 << 20)
        .build()
        .unwrap();
    let table = model.table();
    let keys: Vec<u64> = (0..16).collect();
    for k in &keys {
        table.put_one(*k, &[0.0; 4]).unwrap();
    }

    let mut handles = Vec::new();
    for _ in 0..4 {
        let table = Arc::clone(&table);
        let keys = keys.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..50u64 {
                let key = keys[(round % keys.len() as u64) as usize];
                let v = table.get_one(key).unwrap();
                // Staleness observed right after a successful Get can never exceed
                // bound + 1 (this Get itself).
                assert!(table.staleness_of(key) <= 4, "bound violated");
                table
                    .apply_gradients(&[(key, &[0.001; 4][..])], 0.1)
                    .unwrap();
                assert_eq!(v.len(), 4);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for k in keys {
        assert_eq!(table.staleness_of(k), 0);
    }
}

#[test]
fn asp_and_disabled_enforcement_never_block() {
    for (label, build) in [
        ("ASP", Mlkv::builder("asp").dim(4).staleness_bound(u32::MAX)),
        (
            "disabled",
            Mlkv::builder("off")
                .dim(4)
                .staleness_bound(0)
                .disable_staleness_enforcement(),
        ),
    ] {
        let model = build.memory_budget(1 << 20).build().unwrap();
        let start = std::time::Instant::now();
        for _ in 0..200 {
            model.get_one(1).unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{label}: unexpected blocking"
        );
    }
}

#[test]
fn lookahead_beyond_the_staleness_bound_does_not_violate_it() {
    // The whole point of look-ahead prefetching (§III-C2): prefetching keys far
    // beyond the staleness window must not change any record's staleness.
    let model = Mlkv::builder("lookahead-bound")
        .dim(4)
        .staleness_bound(2)
        .backend(BackendKind::Mlkv)
        .memory_budget(64 << 10)
        .page_size(4 << 10)
        .build()
        .unwrap();
    let table = model.table();
    for k in 0..2_000u64 {
        table.put_one(k, &[k as f32; 4]).unwrap();
    }
    let future_keys: Vec<u64> = (0..500).collect();
    table.lookahead(&future_keys);
    table.wait_for_lookahead();
    for k in &future_keys {
        assert_eq!(
            table.staleness_of(*k),
            0,
            "prefetch changed staleness of {k}"
        );
    }
    // Values are unchanged by promotion.
    for k in [0u64, 100, 499] {
        assert_eq!(table.get_one(k).unwrap(), vec![k as f32; 4]);
    }
    assert!(table.prefetch_stats().promoted > 0);
}

#[test]
fn every_backend_supports_the_full_table_api() {
    for backend in BackendKind::ALL {
        let mut builder = Mlkv::builder("api-matrix")
            .dim(4)
            .staleness_bound(8)
            .backend(backend)
            .memory_budget(1 << 20);
        if !backend.is_mlkv() {
            builder = builder.disable_staleness_enforcement();
        }
        let model = builder.build().unwrap();
        let keys: Vec<u64> = (0..32).collect();
        let values: Vec<Vec<f32>> = keys.iter().map(|k| vec![*k as f32; 4]).collect();
        model.put(&keys, &values).unwrap();
        assert_eq!(model.gather(&keys).unwrap(), values, "{}", backend.name());
        let grad = [1.0f32; 4];
        let updates: Vec<(u64, &[f32])> = keys.iter().map(|k| (*k, grad.as_slice())).collect();
        model.apply_gradients(&updates, 0.5).unwrap();
        assert_eq!(
            model.get_one(0).unwrap(),
            vec![-0.5; 4],
            "{}",
            backend.name()
        );
        model.lookahead(&keys);
        model.wait_for_lookahead();
        model.flush().unwrap();
        assert_eq!(model.len(), 32, "{}", backend.name());
    }
}

/// The staleness bound, checked on the values a gather returns rather than on
/// the table's own counter. Every row of a counter table starts at 0.0, and
/// every apply adds exactly 1.0 to each coordinate. Two threads each gather
/// and then apply the same keys. A gather that starts after `G` gathers have
/// returned may run at most `s` applies ahead, so each coordinate it reads is
/// at least `G - s`; and it is at most the number of applies started.
#[test]
fn gathered_values_stay_within_the_staleness_bound_on_every_engine() {
    const DIM: usize = 4;
    const STEPS: u64 = 200;
    let keys: Arc<Vec<u64>> = Arc::new((0..16).collect());
    for kind in BackendKind::ALL {
        for bound in [0u32, 1, 10] {
            let store =
                open_store(kind, StoreConfig::in_memory().with_memory_budget(1 << 20)).unwrap();
            let table = Arc::new(
                EmbeddingTable::builder(store)
                    .dim(DIM)
                    .staleness_bound(bound)
                    .build()
                    .unwrap(),
            );
            table.put(&keys, &vec![vec![0.0; DIM]; keys.len()]).unwrap();
            let gathers_returned = Arc::new(AtomicU64::new(0));
            let applies_started = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let table = Arc::clone(&table);
                    let keys = Arc::clone(&keys);
                    let gathers_returned = Arc::clone(&gathers_returned);
                    let applies_started = Arc::clone(&applies_started);
                    std::thread::spawn(move || {
                        let plus_one = [-1.0f32; DIM];
                        let updates: Vec<(u64, &[f32])> =
                            keys.iter().map(|&k| (k, &plus_one[..])).collect();
                        for _ in 0..STEPS {
                            let before = gathers_returned.load(Ordering::SeqCst);
                            let rows = table.gather(&keys).unwrap();
                            gathers_returned.fetch_add(1, Ordering::SeqCst);
                            let started = applies_started.load(Ordering::SeqCst);
                            let floor = before.saturating_sub(u64::from(bound));
                            for (key, row) in keys.iter().zip(&rows) {
                                for &x in row {
                                    assert!(
                                        x >= floor as f32 && x <= started as f32,
                                        "{} bound {bound}: key {key} read {x} after {before} \
                                         gathers and {started} applies started",
                                        kind.name()
                                    );
                                }
                            }
                            applies_started.fetch_add(1, Ordering::SeqCst);
                            table.apply_gradients(&updates, 1.0).unwrap();
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
            let total = (2 * STEPS) as f32;
            assert_eq!(
                table.gather(&keys).unwrap(),
                vec![vec![total; DIM]; keys.len()],
                "{} bound {bound}: every apply lands exactly once",
                kind.name()
            );
        }
    }
}
