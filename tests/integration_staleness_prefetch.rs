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

/// How the staleness oracle's workers read a step's rows and add 1.0 to them.
#[derive(Clone, Copy, Debug)]
enum Access {
    /// `gather` and `apply_gradients`, over rows put to 0.0 first.
    Batch,
    /// The same over keys nothing wrote: every row starts at the
    /// initialiser's 0.0 (`init_scale(0.0)`), so gathers miss while applies
    /// land.
    Unseen,
    /// `get_one` and `rmw_one`, key by key, over rows put to 0.0 first.
    PerKey,
}

/// The staleness bound, checked on the values a gather returns rather than on
/// the table's own counter. Every row of a counter table starts at 0.0, and
/// every apply adds exactly 1.0 to each coordinate. Two threads each read
/// and then apply the same keys, one step at a time. A read that starts after
/// `G` steps' reads have returned may run at most `s` applies ahead, so each
/// coordinate it reads is at least `G - s`; and it is at most the number of
/// applies started. Every engine, bounds {0, 1, 10}, through each [`Access`].
#[test]
fn gathered_values_stay_within_the_staleness_bound_on_every_engine() {
    for access in [Access::Batch, Access::Unseen, Access::PerKey] {
        for kind in BackendKind::ALL {
            for bound in [0u32, 1, 10] {
                check_staleness_oracle(access, kind, bound);
            }
        }
    }
}

fn check_staleness_oracle(access: Access, kind: BackendKind, bound: u32) {
    const DIM: usize = 4;
    const STEPS: u64 = 200;
    let cell = format!("{access:?} {} bound {bound}", kind.name());
    let keys: Arc<Vec<u64>> = Arc::new((0..16).collect());
    let store = open_store(kind, StoreConfig::in_memory().with_memory_budget(1 << 20)).unwrap();
    let table = Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(bound)
            .init_scale(0.0)
            .build()
            .unwrap(),
    );
    if !matches!(access, Access::Unseen) {
        table.put(&keys, &vec![vec![0.0; DIM]; keys.len()]).unwrap();
    }
    let gathers_returned = Arc::new(AtomicU64::new(0));
    let applies_started = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let table = Arc::clone(&table);
            let keys = Arc::clone(&keys);
            let gathers_returned = Arc::clone(&gathers_returned);
            let applies_started = Arc::clone(&applies_started);
            let cell = cell.clone();
            std::thread::spawn(move || {
                let plus_one = [-1.0f32; DIM];
                let updates: Vec<(u64, &[f32])> =
                    keys.iter().map(|&k| (k, &plus_one[..])).collect();
                for _ in 0..STEPS {
                    let before = gathers_returned.load(Ordering::SeqCst);
                    let rows = match access {
                        Access::Batch | Access::Unseen => table.gather(&keys).unwrap(),
                        Access::PerKey => keys.iter().map(|&k| table.get_one(k).unwrap()).collect(),
                    };
                    gathers_returned.fetch_add(1, Ordering::SeqCst);
                    let started = applies_started.load(Ordering::SeqCst);
                    let floor = before.saturating_sub(u64::from(bound));
                    for (key, row) in keys.iter().zip(&rows) {
                        for &x in row {
                            assert!(
                                x >= floor as f32 && x <= started as f32,
                                "{cell}: key {key} read {x} after {before} gathers and \
                                 {started} applies started"
                            );
                        }
                    }
                    applies_started.fetch_add(1, Ordering::SeqCst);
                    match access {
                        Access::Batch | Access::Unseen => {
                            table.apply_gradients(&updates, 1.0).unwrap()
                        }
                        Access::PerKey => {
                            for &k in keys.iter() {
                                table
                                    .rmw_one(k, |v| v.iter_mut().for_each(|x| *x += 1.0))
                                    .unwrap();
                            }
                        }
                    }
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
        "{cell}: every apply lands exactly once"
    );
}

/// With enforcement off no latch orders two `rmw_one`s on one key, so the
/// engine's own read-modify-write must: two threads each add 1.0 to one key
/// a thousand times, and no addition is lost. (Under enforcement the oracle's
/// per-key cells check every engine.) FASTER is not in the list: its
/// `multi_rmw` reads, then writes in place or appends, with nothing that
/// orders two callers on one key, and it relies on the table's Put latch for
/// that (ROADMAP, "FASTER's read-modify-write is not atomic").
#[test]
fn rmw_one_loses_no_update_with_enforcement_off() {
    const ADDS: usize = 1_000;
    for kind in [
        BackendKind::RocksDbLike,
        BackendKind::WiredTigerLike,
        BackendKind::InMemory,
    ] {
        let store = open_store(kind, StoreConfig::in_memory().with_memory_budget(1 << 20)).unwrap();
        let table = Arc::new(
            EmbeddingTable::builder(store)
                .dim(4)
                .enforce_staleness(false)
                .init_scale(0.0)
                .build()
                .unwrap(),
        );
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    for _ in 0..ADDS {
                        table
                            .rmw_one(7, |v| v.iter_mut().for_each(|x| *x += 1.0))
                            .unwrap();
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        assert_eq!(
            table.get_one(7).unwrap(),
            vec![(2 * ADDS) as f32; 4],
            "{}: an rmw_one was lost",
            kind.name()
        );
    }
}

/// A gather is a pure read: on every engine, over a durable group-commit
/// store, gathering unseen keys serves the initialiser's rows and leaves the
/// table's length and the engine's write counters where they were. The
/// first apply is what stores an unseen key.
#[test]
fn gathering_unseen_keys_writes_nothing_on_every_engine() {
    use mlkv::codec::init_vector;
    use mlkv::DurabilityMode;

    const DIM: usize = 4;
    for kind in BackendKind::ALL {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-pure-gather-{}-{}",
            kind.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let config = StoreConfig::on_disk(&dir)
            .with_memory_budget(1 << 20)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 });
        let table = EmbeddingTable::builder(open_store(kind, config).unwrap())
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .build()
            .unwrap();
        let stored: Vec<u64> = (0..8).collect();
        table
            .put(&stored, &vec![vec![1.0; DIM]; stored.len()])
            .unwrap();
        let writes = |t: &EmbeddingTable| {
            let m = t.store_metrics();
            (t.len(), m.upserts, m.rmws, m.wal_appends)
        };
        let before = writes(&table);
        let unseen: Vec<u64> = (100..108).collect();
        let keys: Vec<u64> = stored.iter().chain(&unseen).copied().collect();
        for _ in 0..2 {
            let rows = table.gather(&keys).unwrap();
            for (k, row) in keys.iter().zip(&rows) {
                let want = if *k < 8 {
                    vec![1.0; DIM]
                } else {
                    init_vector(*k, DIM, table.options().init_scale, table.options().seed)
                };
                assert_eq!(row, &want, "{}: key {k}", kind.name());
            }
        }
        assert_eq!(writes(&table), before, "{}: a gather wrote", kind.name());
        assert!(!table.contains(100).unwrap(), "{}", kind.name());
        assert_eq!(table.stats().initialised, 0, "{}", kind.name());

        table
            .apply_gradients(&[(100, &[0.0; DIM][..])], 1.0)
            .unwrap();
        assert_eq!(table.len(), before.0 + 1, "{}", kind.name());
        assert_eq!(table.stats().initialised, 1, "{}", kind.name());
        assert_eq!(
            table.get_one(100).unwrap(),
            init_vector(100, DIM, table.options().init_scale, table.options().seed),
            "{}: the first apply starts from the row the gather served",
            kind.name()
        );
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }
}
