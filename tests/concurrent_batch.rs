//! Concurrent batch correctness: `gather` running against `apply_gradients`
//! on the same key set must never lose an update, on any backend, under any
//! interleaving — and the shard-parallel batch executor must produce
//! byte-identical state at every parallelism level, on both sides of the
//! batch size at which it starts to fan out.
//!
//! The stress tests are loom-style in spirit: real threads plus *seeded*
//! interleavings (seed-derived chunk sizes and per-thread key orders vary the
//! overlap between the reader and the writer), so a scheduling-dependent lost
//! update has many distinct schedules in which to show up while every failure
//! stays reproducible from its seed.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mlkv::{open_store, BackendKind, DurabilityMode, EmbeddingTable, KvStore, StoreConfig};

const DIM: usize = 8;

/// The persistent engines whose write paths are sharded (the in-memory
/// baseline has no shard/WAL machinery to exercise).
const PERSISTENT: [BackendKind; 3] = [
    BackendKind::Faster,
    BackendKind::RocksDbLike,
    BackendKind::WiredTigerLike,
];

/// Base store configuration. CI's env matrix (`MLKV_PARALLELISM`) applies
/// first so a matrix cell steers the defaults; the explicit knobs a test pins
/// (a nonzero parallelism, a level under sweep) then win over the
/// environment.
fn store_config(parallelism: usize) -> StoreConfig {
    let mut cfg = StoreConfig::in_memory()
        .apply_env_overrides()
        .with_memory_budget(1 << 20)
        .with_page_size(4096)
        .with_index_buckets(1 << 10);
    if parallelism != 0 {
        cfg = cfg.with_parallelism(parallelism);
    }
    cfg
}

fn store_for(kind: BackendKind, parallelism: usize) -> Arc<dyn KvStore> {
    open_store(kind, store_config(parallelism)).unwrap()
}

fn table_for(kind: BackendKind, parallelism: usize) -> Arc<EmbeddingTable> {
    Arc::new(
        EmbeddingTable::builder(store_for(kind, parallelism))
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .build()
            .unwrap(),
    )
}

/// splitmix64: deterministic per-seed pseudo-randomness without pulling the
/// rand shim into the integration tests.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffled(keys: &[u64], seed: u64) -> Vec<u64> {
    let mut out = keys.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// One seeded interleaving of a gatherer racing an updater over the same
/// (initially unseen) key set. Every key receives exactly one gradient, so
/// whatever the schedule, the final row must be `init(key) - lr * grad`:
/// a gather serving the initial row must never clobber a concurrent update.
fn run_lost_update_round(kind: BackendKind, seed: u64) {
    let table = table_for(kind, 0);
    let num_keys = 192u64;
    let keys: Vec<u64> = (0..num_keys).map(|k| k * 3 + seed % 7).collect();
    let mut state = seed;
    let gather_chunk = 8 + (splitmix(&mut state) % 56) as usize;
    let update_chunk = 1 + (splitmix(&mut state) % 24) as usize;
    let gather_keys = shuffled(&keys, splitmix(&mut state));
    let update_keys = shuffled(&keys, splitmix(&mut state));

    let gatherer = {
        let table = Arc::clone(&table);
        std::thread::spawn(move || {
            for chunk in gather_keys.chunks(gather_chunk) {
                for row in table.gather(chunk).unwrap() {
                    assert_eq!(row.len(), DIM);
                }
            }
        })
    };
    let updater = {
        let table = Arc::clone(&table);
        std::thread::spawn(move || {
            let grad = [1.0f32; DIM];
            for chunk in update_keys.chunks(update_chunk) {
                let updates: Vec<(u64, &[f32])> =
                    chunk.iter().map(|k| (*k, grad.as_slice())).collect();
                table.apply_gradients(&updates, 0.5).unwrap();
            }
        })
    };
    gatherer.join().unwrap();
    updater.join().unwrap();

    // Reference initialisation from an identically seeded, untouched table.
    let reference = table_for(kind, 0);
    for &k in &keys {
        let init = reference.get_one(k).unwrap();
        let expected: Vec<f32> = init.iter().map(|x| x - 0.5).collect();
        assert_eq!(
            table.get_one(k).unwrap(),
            expected,
            "{}: key {k} lost its update (seed {seed})",
            kind.name()
        );
    }
}

#[test]
fn gather_racing_apply_gradients_loses_no_update_on_any_backend() {
    for kind in BackendKind::ALL {
        for seed in [1u64, 42, 1337] {
            run_lost_update_round(kind, seed);
        }
    }
}

#[test]
fn parallel_batches_racing_each_other_converge_to_the_same_totals() {
    // Two updater threads, each applying a known number of gradients per key
    // through training-sized batches with duplicate keys: the per-key record
    // locks must serialise the read-modify-writes so no step is lost, on every
    // backend.
    for kind in BackendKind::ALL {
        let table = table_for(kind, 0);
        let keys: Vec<u64> = (0..128).collect();
        let batch: Vec<u64> = keys.iter().cycle().take(512).copied().collect();
        let rounds = 4usize;
        let occurrences_per_key = (batch.len() / keys.len()) * rounds * 2;
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let table = Arc::clone(&table);
                let batch = batch.clone();
                std::thread::spawn(move || {
                    let grad = [1.0f32; DIM];
                    for _ in 0..rounds {
                        let updates: Vec<(u64, &[f32])> =
                            batch.iter().map(|k| (*k, grad.as_slice())).collect();
                        table.apply_gradients(&updates, 0.25).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let reference = table_for(kind, 0);
        let step = 0.25 * occurrences_per_key as f32;
        for &k in &keys {
            let init = reference.get_one(k).unwrap();
            let expected: Vec<f32> = init.iter().map(|x| x - step).collect();
            let got = table.get_one(k).unwrap();
            for (g, e) in got.iter().zip(&expected) {
                assert!(
                    (g - e).abs() < 1e-4,
                    "{}: key {k}: {got:?} vs {expected:?}",
                    kind.name()
                );
            }
        }
    }
}

/// Apply an identical batched program at several parallelism levels and
/// demand byte-identical results and final state.
fn check_parallelism_equivalence(kind: BackendKind, base_keys: &[u64], rounds: u8) {
    let levels = [1usize, 2, 8];
    let tables: Vec<Arc<EmbeddingTable>> = levels.iter().map(|&p| table_for(kind, p)).collect();
    // Tile the random key pattern to a training step's batch size. Batches
    // this size run inline; `parallelism` still sizes the write path's
    // shards (fan-out itself is covered by the boundary tests below).
    let batch: Vec<u64> = base_keys.iter().cycle().take(512).copied().collect();
    for round in 0..rounds {
        let grad = vec![0.125f32 * (round + 1) as f32; DIM];
        let mut gathered: Vec<Vec<Vec<f32>>> = Vec::new();
        for table in &tables {
            gathered.push(table.gather(&batch).unwrap());
            let updates: Vec<(u64, &[f32])> = batch.iter().map(|k| (*k, grad.as_slice())).collect();
            table.apply_gradients(&updates, 0.1).unwrap();
        }
        for other in &gathered[1..] {
            assert_eq!(
                &gathered[0],
                other,
                "{}: gather diverged between parallelism levels",
                kind.name()
            );
        }
    }
    // Final state sweep straight at the stores, byte-for-byte.
    let all_keys: Vec<u64> = (0..600).collect();
    let baseline = tables[0].store().multi_get(&all_keys);
    for (level, table) in levels.iter().zip(&tables).skip(1) {
        let state = table.store().multi_get(&all_keys);
        for (k, (a, b)) in all_keys.iter().zip(baseline.iter().zip(&state)) {
            assert_eq!(
                a.as_ref().ok(),
                b.as_ref().ok(),
                "{}: key {k} differs between parallelism 1 and {level}",
                kind.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// parallelism ∈ {1, 2, 8} yields byte-identical gather results and final
    /// store state on every backend, for random key patterns with duplicates.
    #[test]
    fn parallelism_levels_are_byte_identical(
        base_keys in proptest::collection::vec(0u64..600, 16..48),
        rounds in 1u8..3,
    ) {
        for kind in BackendKind::ALL {
            check_parallelism_equivalence(kind, &base_keys, rounds);
        }
    }
}

/// Two concurrent writers on *disjoint* key ranges applied at every
/// parallelism level — which sizes the engine's memtable shards / leaf-latch
/// lanes / buffer-pool shards: the final store state must be byte-identical
/// to `parallelism = 1`. The ranges are disjoint because gradient arithmetic is
/// floating-point — byte-identity across configurations is only well-defined
/// when no two threads race on the same key. Duplicate keys *within* one
/// batch are still exercised (a fanned-out batch is split into whole-key
/// ranges, covered by the boundary tests below).
fn check_concurrent_writer_equivalence(kind: BackendKind, base_keys: &[u64], rounds: u8) {
    let levels = [1usize, 2, 8];
    let programs: [Vec<u64>; 2] = [
        base_keys.to_vec(),
        base_keys.iter().map(|k| k + 1_000).collect(),
    ];
    let mut finals: Vec<Vec<Option<Vec<u8>>>> = Vec::new();
    for &level in &levels {
        let table = table_for(kind, level);
        let workers: Vec<_> = programs
            .iter()
            .map(|keys| {
                let table = Arc::clone(&table);
                // Training-sized batches: they run inline, on write paths
                // sharded by the parallelism level.
                let batch: Vec<u64> = keys.iter().cycle().take(512).copied().collect();
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let grad = vec![0.125f32 * (round + 1) as f32; DIM];
                        let updates: Vec<(u64, &[f32])> =
                            batch.iter().map(|k| (*k, grad.as_slice())).collect();
                        table.apply_gradients(&updates, 0.1).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let probe: Vec<u64> = (0..600u64).chain(1_000..1_600).collect();
        finals.push(
            table
                .store()
                .multi_get(&probe)
                .into_iter()
                .map(|r| r.ok())
                .collect(),
        );
    }
    for (state, &level) in finals.iter().zip(&levels).skip(1) {
        assert_eq!(
            &finals[0],
            state,
            "{}: final state diverged between parallelism 1 and {level}",
            kind.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Concurrent `apply_gradients` at parallelism ∈ {1, 2, 8} leaves every
    /// persistent engine byte-identical to its inline write path.
    #[test]
    fn concurrent_writers_are_byte_identical_across_parallelism(
        base_keys in proptest::collection::vec(0u64..600, 16..48),
        rounds in 1u8..3,
    ) {
        for kind in PERSISTENT {
            check_concurrent_writer_equivalence(kind, &base_keys, rounds);
        }
    }
}

#[test]
fn lsm_memtable_flush_under_concurrent_writers_loses_no_update() {
    // A memtable budget far below the working set forces flushes *while*
    // sharded writers are applying batches: the flush path drains all
    // memtable shards into one SST pass, and must not lose or reorder any
    // shard's records relative to the batches still landing.
    let tiny = store_config(4).with_memory_budget(8 << 10);
    let store = open_store(BackendKind::RocksDbLike, tiny.clone()).unwrap();
    let table = Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .build()
            .unwrap(),
    );
    let rounds = 6u32;
    let ranges: Vec<Vec<u64>> = (0..2u64)
        .map(|t| (0..256u64).map(|k| t * 10_000 + k).collect())
        .collect();
    let workers: Vec<_> = ranges
        .iter()
        .map(|keys| {
            let table = Arc::clone(&table);
            let batch: Vec<u64> = keys.iter().cycle().take(512).copied().collect();
            std::thread::spawn(move || {
                let grad = [1.0f32; DIM];
                for _ in 0..rounds {
                    let updates: Vec<(u64, &[f32])> =
                        batch.iter().map(|k| (*k, grad.as_slice())).collect();
                    table.apply_gradients(&updates, 0.5).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert!(
        table.store().metrics().snapshot().disk_writes > 0,
        "the tiny memtable budget must force flushes mid-run"
    );
    // Every key occurs 512/256 times per batch, so it accumulates
    // rounds x 2 gradients of 1.0 at lr 0.5.
    let step = 0.5 * 2.0 * rounds as f32;
    let reference = Arc::new(
        EmbeddingTable::builder(open_store(BackendKind::RocksDbLike, tiny).unwrap())
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .build()
            .unwrap(),
    );
    for keys in &ranges {
        for &k in keys {
            let init = reference.get_one(k).unwrap();
            let expected: Vec<f32> = init.iter().map(|x| x - step).collect();
            let got = table.get_one(k).unwrap();
            for (g, e) in got.iter().zip(&expected) {
                assert!((g - e).abs() < 1e-3, "key {k}: {got:?} vs {expected:?}");
            }
        }
    }
}

/// LSM writers read their cold keys through the block cache, which readers
/// fill. A reader that misses the memtable, loses the race to a writer's
/// put, and then caches the older SSTable value leaves an entry the memtable
/// shadows only until the next flush. Here one thread loops `multi_get` over
/// cold keys while another loops `multi_rmw` increments over the same keys,
/// with a budget small enough to flush every few batches: no increment is
/// lost, and no reader ever sees a counter go backwards.
#[test]
fn lsm_reader_racing_rmw_across_flushes_loses_no_increment() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let store = open_store(
        BackendKind::RocksDbLike,
        store_config(2).with_memory_budget(8 << 10),
    )
    .unwrap();
    let keys: Vec<u64> = (0..512).collect();
    for &k in &keys {
        store.put(k, &0u64.to_le_bytes()).unwrap();
    }
    store.flush().unwrap();
    let count = |v: &[u8]| u64::from_le_bytes(v.try_into().unwrap());
    let rounds = 40u64;
    let start = Arc::new(Barrier::new(2));
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (store, start, done, keys) = (
            Arc::clone(&store),
            Arc::clone(&start),
            Arc::clone(&done),
            keys.clone(),
        );
        std::thread::spawn(move || {
            start.wait();
            let mut seen = vec![0u64; keys.len()];
            let mut passes = 0u64;
            while !done.load(Ordering::SeqCst) {
                for chunk in shuffled(&keys, passes).chunks(48) {
                    for (&k, got) in chunk.iter().zip(store.multi_get(chunk)) {
                        let n = count(&got.unwrap());
                        assert!(n >= seen[k as usize], "key {k} went back: {n}");
                        seen[k as usize] = n;
                    }
                }
                passes += 1;
            }
            passes
        })
    };
    // Device writes that are not WAL appends are SSTable builds.
    let table_builds = || {
        let snap = store.metrics().snapshot();
        snap.disk_writes - snap.wal_appends
    };
    let builds_before = table_builds();
    start.wait();
    for round in 0..rounds {
        for chunk in shuffled(&keys, 1_000 + round).chunks(64) {
            store
                .multi_rmw(chunk, &|_, cur| {
                    (count(cur.unwrap()) + 1).to_le_bytes().to_vec()
                })
                .unwrap();
        }
    }
    done.store(true, Ordering::SeqCst);
    assert!(reader.join().unwrap() > 0, "the reader must have raced");
    let flushes = table_builds() - builds_before;
    assert!(flushes > 10, "the 8 KiB budget must flush often: {flushes}");
    for (&k, got) in keys.iter().zip(store.multi_get(&keys)) {
        assert_eq!(count(&got.unwrap()), rounds, "key {k} lost an increment");
    }
}

/// The boundary `mlkv_storage::exec` switches on: every engine's `write_batch`,
/// `multi_rmw` and `multi_get`, with duplicate keys, on both sides of
/// `2 × MIN_KEYS_PER_WORKER` (the smallest batch that fans out, to two
/// workers) and at `parallelism` 2 / 8, must return the results and leave the
/// state of a per-key loop on a serial `MemStore`. (Below the boundary both
/// levels run inline, which is all `parallelism` 1 ever does.) The tiny
/// memory budget keeps most of each disk engine cold, so the batches cross the
/// boundary on the device paths too.
#[test]
fn batch_ops_match_a_per_key_loop_on_both_sides_of_the_executor_cutoff() {
    use mlkv_storage::exec::MIN_KEYS_PER_WORKER;
    use mlkv_storage::{MemStore, WriteBatch};

    let sizes = [1, 2 * MIN_KEYS_PER_WORKER - 1, 2 * MIN_KEYS_PER_WORKER];
    let append = |i: usize, cur: Option<&[u8]>| -> Vec<u8> {
        let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
        v.push(i as u8);
        v
    };
    for kind in [
        BackendKind::InMemory,
        BackendKind::Faster,
        BackendKind::RocksDbLike,
        BackendKind::WiredTigerLike,
    ] {
        for parallelism in [2usize, 8] {
            let cell = format!("{} parallelism {parallelism}", kind.name());
            let config = store_config(parallelism)
                .with_memory_budget(8 << 10)
                .with_page_size(2 << 10);
            let store = open_store(kind, config).unwrap();
            let model = MemStore::with_shards_and_parallelism(1, 1);
            let mut key_space = 0u64;
            for (round, &n) in sizes.iter().enumerate() {
                // Every key occurs about four times per batch, and the
                // rounds' key ranges overlap, so later batches update earlier
                // state.
                let distinct = n as u64 / 4 + 1;
                key_space = key_space.max(distinct);
                let keys: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % distinct).collect();

                // write_batch: the last occurrence of a key wins.
                let mut batch = WriteBatch::new();
                for (i, &k) in keys.iter().enumerate() {
                    let value = vec![round as u8, i as u8, (i >> 8) as u8];
                    model.put(k, &value).unwrap();
                    batch.put(k, value);
                }
                store.write_batch(&batch).unwrap();

                // multi_rmw: each occurrence sees the previous one's write.
                let got = store.multi_rmw(&keys, &append).unwrap();
                let want: Vec<Vec<u8>> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| model.rmw(k, &|cur| append(i, cur)).unwrap())
                    .collect();
                assert_eq!(got, want, "{cell}: multi_rmw of {n} keys");

                // multi_get, with a key nobody wrote in the middle.
                let mut probes = keys.clone();
                probes.insert(n / 2, 1 << 40);
                let got = store.multi_get(&probes);
                assert_eq!(got.len(), probes.len());
                for (k, result) in probes.iter().zip(got) {
                    match model.get(*k) {
                        Ok(v) => assert_eq!(result.ok(), Some(v), "{cell}: key {k} of {n}"),
                        Err(_) => assert!(
                            result.unwrap_err().is_not_found(),
                            "{cell}: absent key {k} of {n}"
                        ),
                    }
                }
            }
            for k in 0..key_space {
                assert_eq!(
                    store.get(k).ok(),
                    model.get(k).ok(),
                    "{cell}: final state of key {k}"
                );
            }
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mlkv-batchwal-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn wal_ships_one_group_per_acked_batch_in_commit_order() {
    use std::time::Duration;

    use mlkv_storage::{Shipment, WalShipper, WalTap};

    // Mixed batch sizes: the largest fans out, so shard workers stage it
    // concurrently — the committer must still log exactly one WAL group per
    // acknowledged batch, published to the tap in commit order.
    let batch_sizes = [3usize, 512, 1, 2 * mlkv_storage::exec::MIN_KEYS_PER_WORKER];
    for kind in PERSISTENT {
        let dir = temp_dir(kind.name());
        std::fs::remove_dir_all(&dir).ok();
        let tap = Arc::new(WalTap::new(64));
        let store = open_store(
            kind,
            StoreConfig::on_disk(&dir)
                .apply_env_overrides()
                .with_memory_budget(1 << 20)
                .with_page_size(4096)
                .with_index_buckets(1 << 10)
                .with_parallelism(4)
                .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
                .with_wal_tap(Arc::clone(&tap)),
        )
        .unwrap();
        // A shipper tracking the tap must see exactly one new group per
        // acknowledged batch, in commit order with contiguous offsets. Frame
        // *counts* per group are engine-specific (FASTER and the LSM log one
        // logical frame per key; the B+tree journals physical page images),
        // so only the logical-WAL engines pin frames == keys.
        let mut shipper = WalShipper::new(Arc::clone(&tap), 0);
        let mut offset = 0u64;
        let mut next_key = 0u64;
        for &n in &batch_sizes {
            let keys: Vec<u64> = (next_key..next_key + n as u64).collect();
            next_key += n as u64;
            store
                .multi_rmw(&keys, &|i, _| vec![(i % 251) as u8])
                .unwrap();
            let group = match shipper.next(Duration::from_secs(1)) {
                Shipment::Group(g) => g,
                other => panic!(
                    "{}: expected the {n}-key batch's group, got {other:?}",
                    kind.name()
                ),
            };
            assert_eq!(
                group.offset,
                offset,
                "{}: group out of commit order",
                kind.name()
            );
            offset = group.end();
            assert_eq!(
                offset,
                tap.next_offset(),
                "{}: exactly one group per acknowledged {n}-key batch",
                kind.name()
            );
            if kind != BackendKind::WiredTigerLike {
                assert_eq!(
                    group.frames.len(),
                    n,
                    "{}: one logical WAL frame per key in the batch",
                    kind.name()
                );
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A cold FASTER store whose hash chains are several records deep, so every
/// batch below crosses the resolver's multi-round device walk.
fn deep_chain_config(parallelism: usize) -> StoreConfig {
    store_config(parallelism)
        .with_memory_budget(8 << 10)
        .with_page_size(1 << 10)
        .with_index_buckets(64)
}

/// The paths that ride the batched resolver — `multi_rmw` with duplicate
/// keys, `write_batch` with duplicate keys, `delete`, `exists`,
/// `approximate_len`, and the WAL replay on reopen (one batch holding a key's
/// put / delete / put in occurrence order) — against a per-key loop on a
/// serial `MemStore`, over cold chains ≥ 3 records deep, on both sides of the
/// batch size at which the executor fans out.
#[test]
fn faster_resolver_paths_match_a_per_key_loop_over_deep_cold_chains() {
    use mlkv_storage::{MemStore, WriteBatch};

    const SPACE: u64 = 1500;
    let append = |i: usize, cur: Option<&[u8]>| -> Vec<u8> {
        let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
        v.push(i as u8);
        v
    };
    for parallelism in [1usize, 2, 8] {
        let dir = temp_dir(&format!("resolver-{parallelism}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = deep_chain_config(parallelism)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 });
        config.dir = Some(dir.clone());
        let store = open_store(BackendKind::Faster, config.clone()).unwrap();
        let model = MemStore::with_shards_and_parallelism(1, 1);
        let check = |store: &Arc<dyn KvStore>, what: &str| {
            let cell = format!("parallelism {parallelism}, after {what}");
            assert_eq!(store.approximate_len(), model.approximate_len(), "{cell}");
            // Live, tombstoned and never-written keys alike.
            for k in (0..SPACE + 8).step_by(7) {
                assert_eq!(
                    store.exists(k).unwrap(),
                    model.exists(k).unwrap(),
                    "{cell}: {k}"
                );
                assert_eq!(store.get(k).ok(), model.get(k).ok(), "{cell}: key {k}");
            }
        };
        // ~23 records per chain, nearly all of them on the device.
        for k in 0..SPACE {
            store.put(k, &[k as u8; 8]).unwrap();
            model.put(k, &[k as u8; 8]).unwrap();
        }
        let fans_out = 2 * mlkv_storage::exec::MIN_KEYS_PER_WORKER;
        for (round, n) in [1usize, 257, fans_out].into_iter().enumerate() {
            // Every key occurs about twice per batch.
            let distinct = n as u64 / 2 + 1;
            let keys: Vec<u64> = (0..n as u64)
                .map(|i| (i * 7 + 3) % distinct * 5 % SPACE)
                .collect();

            let got = store.multi_rmw(&keys, &append).unwrap();
            let want: Vec<Vec<u8>> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| model.rmw(k, &|cur| append(i, cur)).unwrap())
                .collect();
            assert_eq!(got, want, "parallelism {parallelism}: multi_rmw of {n}");
            check(&store, &format!("multi_rmw of {n}"));

            // Deletes of live, already-deleted and never-written keys (a
            // bounded sample of a large batch: each is its own commit).
            for &k in keys.iter().step_by((n / 128).max(3)).chain(&[SPACE + 1]) {
                store.delete(k).unwrap();
                model.delete(k).unwrap();
                store.delete(k).unwrap();
            }
            check(&store, &format!("deletes of {n}"));

            // write_batch: a key's last occurrence wins, over live and
            // tombstoned keys.
            let mut batch = WriteBatch::new();
            for (i, &k) in keys.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
                let value = vec![round as u8, i as u8, (i >> 8) as u8];
                model.put(k, &value).unwrap();
                batch.put(k, value);
            }
            store.write_batch(&batch).unwrap();
            check(&store, &format!("write_batch of {n}"));
        }
        // Reopen without a checkpoint: the WAL replays as one batch through
        // the same apply pass, each key's puts and deletes in order.
        drop(store);
        let reopened = open_store(BackendKind::Faster, config).unwrap();
        check(&reopened, "reopen");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The resolve→install window of a promotion is a whole look-ahead batch
/// wide: a prefetcher looping `multi_promote` over the very keys a trainer is
/// `apply_gradients`-ing must never reinstall a value the trainer already
/// replaced. The end state is byte-identical to the same program applied
/// with no prefetcher.
#[test]
fn promoter_racing_apply_gradients_ends_byte_identical_to_the_serial_shadow() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let keys: Vec<u64> = (0..2048).collect();
    let rounds = 12u8;
    // A window of a few hundred rows over 2048: most updates and most hints
    // find their key on the device.
    let config = || deep_chain_config(2).with_memory_budget(32 << 10);
    let table_over = |store: Arc<dyn KvStore>| {
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .build()
            .unwrap()
    };
    let train = |table: &EmbeddingTable| {
        for round in 0..rounds {
            let grad = vec![0.125f32 * (round + 1) as f32; DIM];
            // A different half of the key space each round, so keys fall out
            // of the in-memory window between their updates.
            let updates: Vec<(u64, &[f32])> = keys
                .iter()
                .filter(|&&k| k % 2 == u64::from(round) % 2)
                .map(|k| (*k, grad.as_slice()))
                .collect();
            table.apply_gradients(&updates, 0.1).unwrap();
        }
    };
    let shadow = table_over(open_store(BackendKind::Faster, config()).unwrap());
    train(&shadow);

    let raced = Arc::new(table_over(
        open_store(BackendKind::Faster, config()).unwrap(),
    ));
    let start = Arc::new(Barrier::new(2));
    let done = Arc::new(AtomicBool::new(false));
    let promoter = {
        let (raced, start, done, keys) = (
            Arc::clone(&raced),
            Arc::clone(&start),
            Arc::clone(&done),
            keys.clone(),
        );
        std::thread::spawn(move || {
            start.wait();
            let mut promoted = 0;
            // Look-ahead-sized hints, cycling over the trainer's key space.
            for hint in keys.chunks(64).cycle() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                promoted += raced.store().multi_promote(hint).unwrap();
            }
            promoted
        })
    };
    start.wait();
    train(&raced);
    done.store(true, Ordering::SeqCst);
    let promoted = promoter.join().unwrap();
    assert!(
        promoted > 0,
        "the prefetcher must have raced real promotions"
    );

    let want = shadow.store().multi_get(&keys);
    let got = raced.store().multi_get(&keys);
    for (k, (a, b)) in keys.iter().zip(want.iter().zip(&got)) {
        assert_eq!(
            a.as_ref().unwrap(),
            b.as_ref().unwrap(),
            "key {k} diverged from the serial shadow"
        );
    }
    assert_eq!(
        raced.store().approximate_len(),
        shadow.store().approximate_len()
    );
}

/// `multi_read` and `gather_into` on every engine at `parallelism` 1 and 8,
/// on both sides of `2 × MIN_KEYS_PER_WORKER`, over live, tombstoned and
/// never-written keys, mostly cold (8 KiB budget). `multi_read` visits every
/// position exactly once with what `multi_get` returns for it, and every row
/// `gather_into` (and so `gather`) writes is the row a per-key store `get`
/// returns on an identically built table, or, where that finds nothing, the
/// initialiser's row for the key.
#[test]
fn multi_read_and_gather_into_match_multi_get_and_per_key_reads() {
    use std::collections::HashMap;
    use std::sync::Mutex;

    use mlkv::codec::{decode_vector, encode_vector, init_vector};
    use mlkv_storage::exec::MIN_KEYS_PER_WORKER;
    use mlkv_storage::WriteBatch;

    /// Keys `0..LIVE` are written, every fifth of them deleted again; batch
    /// keys in `LIVE..SPACE` are never written before the batch reads them.
    const LIVE: u64 = 600;
    const SPACE: u64 = 700;
    let sizes = [37, 2 * MIN_KEYS_PER_WORKER - 1, 2 * MIN_KEYS_PER_WORKER];
    let batch_keys = |round: usize, n: usize| -> Vec<u64> {
        (0..n as u64)
            .map(|i| match (i * 13 + round as u64) % SPACE {
                // A fresh never-written range per round, so every round's
                // gather serves keys from the initialiser.
                k if k >= LIVE => k + 1_000 * round as u64,
                k => k,
            })
            .collect()
    };
    let delete_every_fifth = |table: &EmbeddingTable| {
        for k in (0..LIVE).step_by(5) {
            table.store().delete(k).unwrap();
        }
    };
    for kind in [
        BackendKind::InMemory,
        BackendKind::Faster,
        BackendKind::RocksDbLike,
        BackendKind::WiredTigerLike,
    ] {
        for parallelism in [1usize, 8] {
            let cell = format!("{} parallelism {parallelism}", kind.name());
            // `batched` serves the batch calls, `reference` the per-key ones.
            let tables: Vec<EmbeddingTable> = (0..2)
                .map(|_| {
                    let config = store_config(parallelism)
                        .with_memory_budget(8 << 10)
                        .with_page_size(2 << 10);
                    let store = open_store(kind, config).unwrap();
                    let mut batch = WriteBatch::new();
                    for k in 0..LIVE {
                        batch.put(k, encode_vector(&[k as f32; DIM]));
                    }
                    store.write_batch(&batch).unwrap();
                    let table = EmbeddingTable::builder(store)
                        .dim(DIM)
                        .staleness_bound(u32::MAX)
                        .build()
                        .unwrap();
                    delete_every_fifth(&table);
                    table
                })
                .collect();
            let (batched, reference) = (&tables[0], &tables[1]);

            // Reads only, so every size sees tombstones and absent keys.
            for (round, &n) in sizes.iter().enumerate() {
                let keys = batch_keys(round, n);
                let store = batched.store();
                let visits = Mutex::new(vec![None; n]);
                let failed = store.multi_read(&keys, &|i, value| {
                    let mut visits = visits.lock().unwrap();
                    assert!(visits[i].is_none(), "{cell}: position {i} visited twice");
                    visits[i] = Some(value.map(<[u8]>::to_vec));
                });
                assert!(failed.is_empty(), "{cell}: {n} keys");
                let visits = visits.into_inner().unwrap();
                for (i, (got, want)) in visits.into_iter().zip(store.multi_get(&keys)).enumerate() {
                    let want = match want {
                        Ok(value) => Some(value),
                        Err(e) if e.is_not_found() => None,
                        Err(e) => panic!("{cell}: multi_get failed: {e}"),
                    };
                    assert_eq!(got, Some(want), "{cell}: position {i} of {n}");
                }
            }

            for (round, &n) in sizes.iter().enumerate() {
                let keys = batch_keys(round, n);
                let mut rows = vec![f32::NAN; n * DIM];
                batched.gather_into(&keys, &mut rows).unwrap();
                // Expected rows from the other table's store, one `get` per
                // key: the stored row, or the initialiser's for a key that
                // was never written or is tombstoned.
                let options = reference.options();
                let mut per_key: HashMap<u64, Vec<f32>> = HashMap::new();
                for (i, k) in keys.iter().enumerate() {
                    let want =
                        per_key
                            .entry(*k)
                            .or_insert_with(|| match reference.store().get(*k) {
                                Ok(bytes) => decode_vector(&bytes, DIM).unwrap(),
                                Err(e) if e.is_not_found() => {
                                    init_vector(*k, DIM, options.init_scale, options.seed)
                                }
                                Err(e) => panic!("{cell}: get {k} failed: {e}"),
                            });
                    assert_eq!(
                        &rows[i * DIM..(i + 1) * DIM],
                        want.as_slice(),
                        "{cell}: key {k} at position {i} of {n}"
                    );
                }
                // Tombstone a fifth of the written keys again on both.
                delete_every_fifth(batched);
                delete_every_fifth(reference);
            }
        }
    }
}

/// FASTER hands `multi_read` a row in memory in place, under the page
/// frame's read lock, while an in-place update holds the write lock: a
/// gather can never see an update half-written. An applier subtracts the
/// same amount from all 16 coordinates of every row while two gatherers read
/// (staleness control off, so nothing above the engine orders them): every
/// gathered row has 16 equal coordinates.
#[test]
fn faster_gathers_never_see_a_torn_row() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const WIDE: usize = 16;
    let keys: Vec<u64> = (0..256).collect();
    // The mutable half of the window holds all 256 rows, so every update is
    // an in-place overwrite of the bytes the gatherers read (an appended
    // record is complete before the index links it).
    let store = open_store(
        BackendKind::Faster,
        store_config(0)
            .with_memory_budget(64 << 10)
            .with_page_size(4 << 10),
    )
    .unwrap();
    let table = Arc::new(
        EmbeddingTable::builder(store)
            .dim(WIDE)
            .enforce_staleness(false)
            .build()
            .unwrap(),
    );
    table
        .put(&keys, &vec![vec![0.0; WIDE]; keys.len()])
        .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let gatherers: Vec<_> = (0..2)
        .map(|g| {
            let (table, done, keys) = (Arc::clone(&table), Arc::clone(&done), keys.clone());
            std::thread::spawn(move || {
                let mut rows = vec![0.0f32; keys.len() * WIDE];
                let mut gathers = 0u64;
                while !done.load(Ordering::SeqCst) || gathers == 0 {
                    table.gather_into(&keys, &mut rows).unwrap();
                    for (k, row) in keys.iter().zip(rows.chunks_exact(WIDE)) {
                        assert!(
                            row.iter().all(|x| *x == row[0]),
                            "gatherer {g}: key {k} read torn: {row:?}"
                        );
                    }
                    gathers += 1;
                }
                gathers
            })
        })
        .collect();
    let grad = [1.0f32; WIDE];
    let updates: Vec<(u64, &[f32])> = keys.iter().map(|k| (*k, grad.as_slice())).collect();
    for _ in 0..200 {
        table.apply_gradients(&updates, 1.0).unwrap();
    }
    done.store(true, Ordering::SeqCst);
    for gatherer in gatherers {
        assert!(gatherer.join().unwrap() > 0);
    }
    for row in table.gather(&keys).unwrap() {
        assert_eq!(row, vec![-200.0; WIDE]);
    }
}
