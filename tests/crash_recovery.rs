//! Deterministic crash-injection harness for the durability layer.
//!
//! The core guarantee under test: with `DurabilityMode::GroupCommit`, every
//! *acknowledged* batch survives power loss, no matter where in the sync
//! schedule the power dies. The harness drives seeded `gather` /
//! `apply_gradients` traffic through the full [`mlkv::EmbeddingTable`] stack
//! against every persistent backend, with every file of the store routed
//! through a [`CrashDevice`] sharing one [`CrashClock`]:
//!
//! 1. **Count pass** — run the workload un-armed and record how many sync
//!    boundaries it has.
//! 2. **Sweep** — for every `kill_at in 1..=total_syncs`, rerun from scratch,
//!    lose power *during* that fsync (un-synced bytes vanish, all I/O errors
//!    until reopen), reopen over the hardened bytes only, and check every key
//!    of the universe against a shadow model kept on the in-memory backend.
//!
//! Verification is per-key: a key must read back either its value after the
//! last fully-acknowledged batch, or — only if the key was touched by the
//! batch in flight when power died — its value after that batch. Mixed states
//! are legal (an engine-internal sync such as an SST flush may harden part of
//! the in-flight batch before the killed commit sync), torn acknowledged
//! state is not. Lazy init is deterministic (`init_vector(key, ...)`), so a
//! key that is absent on disk gathers identically to one that was only ever
//! initialised — which is exactly what makes shadow comparison sound.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mlkv::table::EmbeddingTable;
use mlkv::{open_store, BackendKind, DurabilityMode, KvStore, StoreConfig, WriteBatch};
use mlkv_faster::{FasterKv, HashIndex};
use mlkv_storage::{CrashClock, CrashDevice, Device, DeviceFactory, FileDevice};

const DIM: usize = 8;
const BATCHES: usize = 60;
const BATCH_KEYS: usize = 32;
const UNIVERSE: u64 = 300;
const LR: f32 = 0.05;
const SEED: u64 = 0x5EED_CAFE;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mlkv-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Factory that slides a [`CrashDevice`] under every file of the store, all
/// scripted by one shared clock (power loss kills the whole machine).
fn crash_factory(dir: &Path, clock: &Arc<CrashClock>) -> DeviceFactory {
    let dir = dir.to_path_buf();
    let clock = Arc::clone(clock);
    DeviceFactory::new(move |name| {
        std::fs::create_dir_all(&dir)?;
        let inner: Arc<dyn Device> = Arc::new(FileDevice::open(dir.join(name))?);
        Ok(Arc::new(CrashDevice::new(inner, Arc::clone(&clock))) as Arc<dyn Device>)
    })
}

/// Small budgets so the run exercises memtable flushes, hybrid-log spills and
/// buffer-pool evictions, not just the WAL. `apply_env_overrides` keeps the
/// CI matrix's environment knobs in force; the explicit parallelism keeps
/// the sync schedule deterministic.
fn crash_config(dir: &Path, clock: &Arc<CrashClock>) -> StoreConfig {
    StoreConfig::on_disk(dir)
        .with_device_factory(crash_factory(dir, clock))
        .with_memory_budget(8 << 10)
        .with_page_size(1 << 10)
        .with_parallelism(1)
        .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
        .apply_env_overrides()
}

fn open_table(kind: BackendKind, config: StoreConfig) -> EmbeddingTable {
    let store = open_store(kind, config).expect("open store");
    EmbeddingTable::builder(store)
        .dim(DIM)
        .staleness_bound(u32::MAX)
        .enforce_staleness(false)
        .lookahead_workers(0)
        .init_scale(0.1)
        .seed(7)
        .build()
        .expect("build table")
}

/// Deterministic, duplicate-free key set for batch `b`.
fn batch_keys(b: usize) -> Vec<u64> {
    let mut keys = Vec::with_capacity(BATCH_KEYS);
    let mut seen = BTreeSet::new();
    let mut x = SEED ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while keys.len() < BATCH_KEYS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (x >> 33) % UNIVERSE;
        if seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

fn grad(b: usize, j: usize) -> Vec<f32> {
    vec![0.01 + ((b * 31 + j * 7) % 23) as f32 * 0.003; DIM]
}

/// One training step: gather the batch, then apply deterministic gradients.
fn run_batch(table: &EmbeddingTable, b: usize) -> Result<(), mlkv::StorageError> {
    let keys = batch_keys(b);
    table.gather(&keys)?;
    let grads: Vec<Vec<f32>> = (0..keys.len()).map(|j| grad(b, j)).collect();
    let updates: Vec<(u64, &[f32])> = keys
        .iter()
        .zip(&grads)
        .map(|(k, g)| (*k, g.as_slice()))
        .collect();
    table.apply_gradients(&updates, LR)
}

/// Drive batches until one fails; returns the fully-acknowledged batch count.
fn drive(table: &EmbeddingTable, upto: usize) -> usize {
    for b in 0..upto {
        if run_batch(table, b).is_err() {
            return b;
        }
    }
    upto
}

/// Shadow model: `snapshots[a]` is the full-universe gather after `a`
/// acknowledged batches (`snapshots[0]` is the pristine init state).
fn shadow_snapshots() -> Vec<Vec<Vec<f32>>> {
    let table = open_table(
        BackendKind::InMemory,
        StoreConfig::in_memory().with_parallelism(1),
    );
    let universe: Vec<u64> = (0..UNIVERSE).collect();
    let mut snaps = vec![table.gather(&universe).expect("shadow gather")];
    for b in 0..BATCHES {
        run_batch(&table, b).expect("shadow batch");
        snaps.push(table.gather(&universe).expect("shadow gather"));
    }
    snaps
}

/// The tentpole sweep: kill at every sync boundary, reopen, verify all
/// acknowledged batches against the shadow model.
fn crash_sweep(kind: BackendKind, tag: &str) {
    let snaps = shadow_snapshots();
    let universe: Vec<u64> = (0..UNIVERSE).collect();

    // Count pass: learn the sync schedule and sanity-check the final state.
    let dir = temp_dir(tag);
    std::fs::remove_dir_all(&dir).ok();
    let clock = Arc::new(CrashClock::new());
    {
        let table = open_table(kind, crash_config(&dir, &clock));
        assert_eq!(drive(&table, BATCHES), BATCHES);
        assert_eq!(
            table.gather(&universe).expect("count-pass gather"),
            snaps[BATCHES],
            "[{}] un-crashed run diverged from shadow",
            kind.name()
        );
    }
    let total_syncs = clock.syncs();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        total_syncs >= BATCHES as u64,
        "[{}] group commit must sync at least once per acknowledged batch \
         ({} syncs for {} batches)",
        kind.name(),
        total_syncs,
        BATCHES
    );
    // Parsed by CI into the step summary.
    println!(
        "crash-sweep backend={} kill_points={}",
        kind.name(),
        total_syncs
    );

    for kill_at in 1..=total_syncs {
        let dir = temp_dir(&format!("{tag}-k{kill_at}"));
        std::fs::remove_dir_all(&dir).ok();
        let clock = Arc::new(CrashClock::new());
        clock.arm(kill_at);
        let acked = {
            let table = open_table(kind, crash_config(&dir, &clock));
            drive(&table, BATCHES)
        };
        assert!(
            clock.is_dead(),
            "[{}] kill point {kill_at}/{total_syncs} never fired",
            kind.name()
        );

        // Power cycle: reopen over the hardened bytes with a fresh clock.
        let table = open_table(kind, crash_config(&dir, &Arc::new(CrashClock::new())));
        let got = table.gather(&universe).expect("post-recovery gather");

        let pre = &snaps[acked];
        let post = &snaps[(acked + 1).min(BATCHES)];
        let inflight: BTreeSet<u64> = if acked < BATCHES {
            batch_keys(acked).into_iter().collect()
        } else {
            BTreeSet::new()
        };
        for (i, key) in universe.iter().enumerate() {
            let ok = got[i] == pre[i] || (inflight.contains(key) && got[i] == post[i]);
            assert!(
                ok,
                "[{}] kill {kill_at}/{total_syncs}: key {key} after {acked} acked \
                 batches recovered {:?}, expected {:?}{}",
                kind.name(),
                got[i],
                pre[i],
                if inflight.contains(key) {
                    format!(" or in-flight {:?}", post[i])
                } else {
                    String::new()
                }
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn faster_survives_power_loss_at_every_sync_boundary() {
    crash_sweep(BackendKind::Mlkv, "faster");
}

#[test]
fn lsm_survives_power_loss_at_every_sync_boundary() {
    crash_sweep(BackendKind::RocksDbLike, "lsm");
}

#[test]
fn btree_survives_power_loss_at_every_sync_boundary() {
    crash_sweep(BackendKind::WiredTigerLike, "btree");
}

/// A hashed feature id (the SplitMix64 finaliser of `i`), the way embedding
/// tables usually key their rows. Unlike sequential ids, which the index's
/// multiplicative hash spreads perfectly evenly, these collide at random.
fn feature_id(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Acceptance: reopening a table with >= 100k records completes via the
/// checkpoint's index-rebuild-by-scan path and serves the data back —
/// including through the index's two rare paths, which 100k hashed ids in
/// 2^14 entries are sure to take: chains that outgrew their bucket into
/// overflow buckets, and keys whose equal tags share one entry (and one
/// record chain).
#[test]
fn reopening_100k_records_rebuilds_index_by_scan() {
    const N: u64 = 100_000;
    let keys: Vec<u64> = (0..N).map(feature_id).collect();
    let dir = temp_dir("rebuild-100k");
    std::fs::remove_dir_all(&dir).ok();
    let config = StoreConfig::on_disk(&dir)
        .with_memory_budget(1 << 20)
        .with_page_size(64 << 10)
        .with_index_buckets(1 << 14);
    {
        let store = FasterKv::open(config.clone()).expect("open");
        for chunk in keys.chunks(1024) {
            let mut batch = WriteBatch::new();
            for &k in chunk {
                batch.put(k, k.to_le_bytes().to_vec());
            }
            store.write_batch(&batch).expect("write batch");
        }
        store.checkpoint().expect("checkpoint");
    }
    let store = FasterKv::open(config).expect("reopen rebuilds index by scan");
    assert_eq!(store.approximate_len(), N as usize);
    let index = store.index();
    assert!(
        index.overflow_buckets() > 0,
        "the rebuild must grow overflow buckets"
    );
    let mut entries: HashMap<(usize, u16), u64> = HashMap::new();
    let tag_mates: Vec<u64> = keys
        .iter()
        .filter_map(|&k| {
            entries
                .insert((index.bucket_of(k), HashIndex::tag_of(k)), k)
                .map(|mate| [mate, k])
        })
        .flatten()
        .collect();
    assert!(!tag_mates.is_empty(), "no two keys share an index entry");
    let n = keys.len();
    let sample = [keys[0], keys[1], keys[n / 2], keys[n - 2], keys[n - 1]];
    for k in sample.into_iter().chain(tag_mates) {
        assert_eq!(
            store.get(k).expect("get"),
            k.to_le_bytes().to_vec(),
            "key {k} after index rebuild"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A log's record chains were linked against the index that wrote it. A
/// reopen given a different `index_buckets` must still rebuild at the
/// checkpoint's size: in a one-bucket index, thousands of these keys would
/// share a tag with a key they never shared a chain with, and half of each
/// such pair would become unreachable.
#[test]
fn reopening_with_another_index_size_rebuilds_at_the_checkpoints() {
    const N: u64 = 5_000;
    let keys: Vec<u64> = (0..N).map(feature_id).collect();
    let dir = temp_dir("rebuild-resized");
    std::fs::remove_dir_all(&dir).ok();
    let config = StoreConfig::on_disk(&dir)
        .with_memory_budget(1 << 20)
        .with_page_size(64 << 10)
        .with_index_buckets(1 << 14);
    let written_buckets = {
        let store = FasterKv::open(config.clone()).expect("open");
        let mut batch = WriteBatch::new();
        for &k in &keys {
            batch.put(k, k.to_le_bytes().to_vec());
        }
        store.write_batch(&batch).expect("write batch");
        store.checkpoint().expect("checkpoint");
        store.index().bucket_count()
    };
    let store = FasterKv::open(config.with_index_buckets(2)).expect("reopen");
    assert_eq!(store.index().bucket_count(), written_buckets);
    for &k in &keys {
        assert_eq!(
            store.get(k).expect("get"),
            k.to_le_bytes().to_vec(),
            "key {k} after a resized reopen"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// Satellite (c): recovery is idempotent — replaying the same WAL/journal a
// second time yields a byte-identical store on every persistent backend.
mod recovery_idempotence {
    use super::*;
    use proptest::prelude::*;

    fn read_state(store: &Arc<dyn KvStore>, key_space: u64) -> Vec<Option<Vec<u8>>> {
        (0..key_space)
            .map(|k| match store.get(k) {
                Ok(v) => Some(v),
                Err(mlkv::StorageError::KeyNotFound) => None,
                Err(e) => panic!("get({k}) failed: {e:?}"),
            })
            .collect()
    }

    fn check_backend(kind: BackendKind, tag: &str, ops: &[(u64, u16)]) {
        let dir = temp_dir(&format!("idem-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let config = StoreConfig::on_disk(&dir)
            .with_memory_budget(8 << 10)
            .with_page_size(1 << 10)
            .with_parallelism(1)
            .with_durability(DurabilityMode::GroupCommit { window: 4 });
        let mut shadow = std::collections::BTreeMap::new();
        {
            let store = open_store(kind, config.clone()).expect("open");
            for &(key, v) in ops {
                if v >= 280 {
                    store.delete(key).expect("delete");
                    shadow.remove(&key);
                } else {
                    let value = vec![v as u8; (v as usize % 24) + 1];
                    store.put(key, &value).expect("put");
                    shadow.insert(key, value);
                }
            }
            // Dropped without flush: recovery must come from the log alone.
        }
        let first = {
            let store = open_store(kind, config.clone()).expect("first replay");
            read_state(&store, 40)
        };
        let second = {
            let store = open_store(kind, config).expect("second replay");
            read_state(&store, 40)
        };
        assert_eq!(
            first,
            second,
            "[{}] replaying the same log twice diverged",
            kind.name()
        );
        for (k, state) in first.iter().enumerate() {
            assert_eq!(
                state.as_ref(),
                shadow.get(&(k as u64)),
                "[{}] key {k} diverged from shadow after recovery",
                kind.name()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn replaying_the_log_twice_is_byte_identical(
            ops in proptest::collection::vec((0u64..40, 0u16..300), 1..60)
        ) {
            check_backend(BackendKind::Mlkv, "faster", &ops);
            check_backend(BackendKind::RocksDbLike, "lsm", &ops);
            check_backend(BackendKind::WiredTigerLike, "btree", &ops);
        }
    }
}
