//! Cold-path fault injection: a device that starts failing mid-batch must
//! surface per-slot errors on every engine's cold path — without hanging any
//! waiter — and the store must be fully readable again once the device
//! recovers.
//!
//! The injection point is [`FailingDevice`]. Each engine's test runs under
//! both completion styles a submission can meet: over the failing device
//! directly, whose submissions complete inline, and under a
//! [`SimLatencyDevice`], whose submissions complete on its virtual clock — so
//! the failing inner read runs when the caller waits, the path every
//! simulated-SSD store takes.

use std::sync::Arc;
use std::time::Duration;

use mlkv_btree::{BufferPool, LeafPage};
use mlkv_faster::{Address, HybridLog, Record};
use mlkv_lsm::memtable::Entry;
use mlkv_lsm::SsTable;
use mlkv_storage::{Device, FailingDevice, IoPlanner, MemDevice, SimLatencyDevice, StorageMetrics};

/// One healthy failing device per completion style: `(style, injection
/// handle, device for the engine)`.
fn failing_devices() -> [(&'static str, Arc<FailingDevice>, Arc<dyn Device>); 2] {
    let fresh = || Arc::new(FailingDevice::new(Arc::new(MemDevice::new()), 0));
    let inline = fresh();
    let under_clock = fresh();
    let clocked = SimLatencyDevice::new(
        Arc::clone(&under_clock) as Arc<dyn Device>,
        Duration::from_micros(20),
    );
    [
        ("inline", Arc::clone(&inline), inline),
        ("clocked", under_clock, Arc::new(clocked)),
    ]
}

fn planner() -> IoPlanner {
    IoPlanner::new(4096)
}

#[test]
fn faster_hlog_surfaces_async_faults_and_recovers() {
    for (style, failing, device) in failing_devices() {
        let log = HybridLog::new(
            device,
            4 << 10, // 4 frames of 1 KiB: most records spill
            1 << 10,
            false,
            planner(),
            Arc::new(StorageMetrics::new()),
        )
        .unwrap();
        let mut addrs = Vec::new();
        for k in 0..200u64 {
            let record = Record::new(k, vec![(k % 251) as u8; 64], Address::INVALID);
            addrs.push((k, log.append(&record.encode()).unwrap()));
        }
        let head = log.head();
        let cold: Vec<Address> = addrs
            .iter()
            .filter(|&&(_, a)| a < head)
            .map(|&(_, a)| a)
            .collect();
        assert!(cold.len() > 20, "{style}: need cold records");
        for result in log.read_records_from_disk(&cold) {
            result.unwrap();
        }

        // Device starts failing: every slot must surface an error — promptly,
        // not by hanging a waiter.
        failing.fail_after(0);
        let results = log.read_records_from_disk(&cold);
        assert_eq!(results.len(), cold.len());
        for result in &results {
            assert!(
                result.is_err(),
                "{style}: every slot must surface the fault"
            );
        }

        // Recovery: the same batch reads clean again and matches per-record
        // ground truth — the store is still fully readable.
        failing.heal();
        for (addr, result) in cold.iter().zip(log.read_records_from_disk(&cold)) {
            let record = result.unwrap();
            let (want, _) = log.read_record(*addr).unwrap();
            assert_eq!(record.key, want.key, "{style}");
            assert_eq!(record.value, want.value, "{style}");
        }
    }
}

#[test]
fn sstable_surfaces_async_faults_and_recovers() {
    for (style, failing, device) in failing_devices() {
        let entries: Vec<(u64, Entry)> = (0..100u64)
            .map(|k| (k, Some(vec![(k % 251) as u8; 32])))
            .collect();
        let metrics = StorageMetrics::new();
        let table = SsTable::build(device, planner(), &entries, 1, &metrics).unwrap();

        // Probe set mixes present keys, absences and duplicates.
        let probes: Vec<u64> = vec![0, 99, 7, 7, 1_000, 42];
        let baseline = table.get_many(&probes, &metrics);
        assert!(baseline.iter().all(|r| r.is_ok()), "{style}");

        failing.fail_after(0);
        let faulted = table.get_many(&probes, &metrics);
        assert_eq!(faulted.len(), probes.len());
        for (key, result) in probes.iter().zip(&faulted) {
            match result {
                // Bloom/index rejects never touch the device, so absent keys
                // still resolve.
                Ok(None) => assert!(*key >= 100, "{style}: key {key} wrongly rejected"),
                Ok(other) => panic!("{style}: key {key}: fault swallowed ({other:?})"),
                Err(_) => assert!(*key < 100, "{style}: key {key} errored without I/O"),
            }
        }

        failing.heal();
        let recovered = table.get_many(&probes, &metrics);
        for ((a, b), key) in baseline.iter().zip(&recovered).zip(&probes) {
            assert_eq!(
                a.as_ref().unwrap(),
                b.as_ref().unwrap(),
                "{style}: key {key}"
            );
        }
    }
}

#[test]
fn buffer_pool_faults_degrade_to_per_leaf_errors_and_recover() {
    for (style, failing, device) in failing_devices() {
        let warm = BufferPool::new(
            Arc::clone(&device),
            8,
            4096,
            1,
            planner(),
            Arc::new(StorageMetrics::new()),
        );
        for id in 0..6u64 {
            let mut leaf = LeafPage::new();
            leaf.insert(id * 10, vec![id as u8; 8]);
            warm.install_new(id, leaf).unwrap();
        }
        warm.flush_all().unwrap();
        // A second, cold pool over the same device forces genuine faults.
        let cold = BufferPool::new(
            device,
            4,
            4096,
            1,
            planner(),
            Arc::new(StorageMetrics::new()),
        );

        failing.fail_after(0);
        // The batch scatter is best-effort: a failing device yields no
        // leaves...
        assert!(cold.fault_batch(&[0, 1, 2, 3]).is_empty(), "{style}");
        // ...and the per-leaf path surfaces the genuine error, without
        // hanging.
        assert!(cold.with_leaf(0, |_| ()).is_err(), "{style}");

        failing.heal();
        let fetched = cold.fault_batch(&[0, 1, 2, 3]);
        assert_eq!(
            fetched.len(),
            4,
            "{style}: recovered scatter fetches every leaf"
        );
        for (&id, leaf) in &fetched {
            assert_eq!(leaf.get(id * 10), Some(vec![id as u8; 8].as_slice()));
        }
        let (value, _) = cold
            .with_leaf(5, |l| l.get(50).map(|v| v.to_vec()))
            .unwrap();
        assert_eq!(value, Some(vec![5u8; 8]), "{style}");
    }
}

/// Injection handles by file name, shared with the factory that made them.
type FailingHandles = Arc<std::sync::Mutex<std::collections::HashMap<String, Arc<FailingDevice>>>>;

/// A [`mlkv_storage::DeviceFactory`] that slides a [`FailingDevice`] under
/// every file the store opens and hands the injection handles back by name.
fn failing_factory() -> (FailingHandles, mlkv_storage::DeviceFactory) {
    let handles: FailingHandles = Arc::default();
    let factory = {
        let handles = Arc::clone(&handles);
        mlkv_storage::DeviceFactory::new(move |name| {
            let failing = Arc::new(FailingDevice::new(Arc::new(MemDevice::new()), 0));
            handles
                .lock()
                .unwrap()
                .insert(name.to_string(), Arc::clone(&failing));
            Ok(failing as Arc<dyn Device>)
        })
    };
    (handles, factory)
}

fn durable_faulty_config() -> (FailingHandles, mlkv_storage::StoreConfig) {
    let (handles, factory) = failing_factory();
    let config = mlkv_storage::StoreConfig::in_memory()
        .with_device_factory(factory)
        .with_memory_budget(1 << 20)
        .with_durability(mlkv_storage::DurabilityMode::GroupCommit { window: 1 << 20 });
    (handles, config)
}

/// Regression for the write-path ack hole: a WAL append that fails mid-batch
/// must leave the store untouched — log-then-apply means a batch is either
/// fully logged before any key lands in the memtable, or not applied at all.
#[test]
fn lsm_failed_wal_append_leaves_batch_unapplied() {
    use mlkv_storage::KvStore;

    let (handles, config) = durable_faulty_config();
    let store = mlkv_lsm::LsmStore::open(config).unwrap();
    store.put(1, b"one").unwrap();
    let wal = Arc::clone(
        handles
            .lock()
            .unwrap()
            .get("wal_0.dat")
            .expect("wal device"),
    );

    wal.set_fail_writes(true);
    let mut batch = mlkv_storage::WriteBatch::new();
    batch.put(2, b"two".to_vec());
    batch.put(3, b"three".to_vec());
    assert!(store.write_batch(&batch).is_err(), "append fault surfaces");
    // Atomicity: no key of the failed batch was applied, prior data is intact.
    assert!(matches!(
        store.get(2),
        Err(mlkv_storage::StorageError::KeyNotFound)
    ));
    assert!(matches!(
        store.get(3),
        Err(mlkv_storage::StorageError::KeyNotFound)
    ));
    assert_eq!(store.get(1).unwrap(), b"one");

    wal.set_fail_writes(false);
    store.write_batch(&batch).unwrap();
    assert_eq!(store.get(2).unwrap(), b"two");
    assert_eq!(store.get(3).unwrap(), b"three");
}

/// Sync faults surface as ack failures and heal without poisoning the store.
#[test]
fn lsm_failed_commit_sync_surfaces_and_recovers() {
    use mlkv_storage::KvStore;

    let (handles, config) = durable_faulty_config();
    let store = mlkv_lsm::LsmStore::open(config).unwrap();
    store.put(1, b"one").unwrap();
    let wal = Arc::clone(
        handles
            .lock()
            .unwrap()
            .get("wal_0.dat")
            .expect("wal device"),
    );

    wal.set_fail_syncs(true);
    // The append lands but the group-commit fsync fails: the ack must not lie.
    assert!(store.put(4, b"four").is_err(), "sync fault fails the ack");

    wal.set_fail_syncs(false);
    store.put(5, b"five").unwrap();
    assert_eq!(store.get(5).unwrap(), b"five");
    assert_eq!(store.get(1).unwrap(), b"one");
}

/// FASTER logs before applying: a failed WAL write rejects the put entirely.
#[test]
fn faster_failed_wal_write_rejects_the_put() {
    use mlkv_storage::KvStore;

    // FASTER scans `dir` for WAL generations, so the config needs one even
    // though every device the factory hands out is memory-backed.
    let dir = std::env::temp_dir().join(format!(
        "mlkv-io-fault-faster-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let (handles, mut config) = durable_faulty_config();
    config.dir = Some(dir.clone());
    let store = mlkv_faster::FasterKv::open(config).unwrap();
    store.put(1, b"one").unwrap();
    let wal = Arc::clone(
        handles
            .lock()
            .unwrap()
            .get("faster_wal_0.dat")
            .expect("wal device"),
    );

    wal.set_fail_writes(true);
    assert!(store.put(2, b"two").is_err(), "write fault surfaces");
    assert!(matches!(
        store.get(2),
        Err(mlkv_storage::StorageError::KeyNotFound)
    ));

    wal.heal();
    store.put(2, b"two").unwrap();
    assert_eq!(store.get(2).unwrap(), b"two");
    assert_eq!(store.get(1).unwrap(), b"one");
}

/// The value [`cold_faulty_faster`] stores under `k`: one key in 32 has a
/// small value that a cold read fetches whole in its speculative first
/// request; every other value is longer than that request, so its record
/// needs a second, exactly-sized read.
fn faulty_value(k: u64) -> Vec<u8> {
    vec![(k % 251) as u8; if k.is_multiple_of(32) { 32 } else { 600 }]
}

/// A FASTER store over one [`FailingDevice`], almost entirely cold. Every
/// cold key resolves in one device round: the speculative scatter (one read
/// operation — the gap threshold merges it into a single run) completes the
/// small values, and a follow-up scatter fetches the
/// rest of the long ones. Failing from the second read operation on thus
/// faults a subset of the round's requests. Returns the injection handle,
/// the store and its cold keys.
fn cold_faulty_faster() -> (Arc<FailingDevice>, mlkv_faster::FasterKv, Vec<u64>) {
    use mlkv_storage::KvStore;

    let (handles, factory) = failing_factory();
    let store = mlkv_faster::FasterKv::open(
        mlkv_storage::StoreConfig::in_memory()
            .apply_env_overrides()
            .with_device_factory(factory)
            .with_memory_budget(8 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(64)
            .with_io_gap_bytes(1 << 20)
            .with_parallelism(1),
    )
    .unwrap();
    for k in 0..1000u64 {
        store.put(k, &faulty_value(k)).unwrap();
    }
    let cold: Vec<u64> = (0..1000u64)
        .filter(|&k| store.get_traced(k).unwrap().source == mlkv_storage::kv::ReadSource::Disk)
        .collect();
    assert!(cold.len() > 900, "the store must be cold");
    let failing = Arc::clone(handles.lock().unwrap().get("hlog.dat").expect("log device"));
    (failing, store, cold)
}

/// A look-ahead hint never fails its batch: a read fault in the middle of a
/// `multi_promote` resolve costs the unresolved keys their hint, and the keys
/// resolved before the fault still promote.
#[test]
fn faster_read_fault_mid_promote_skips_only_the_unresolved_keys() {
    use mlkv_storage::kv::{KvStore, ReadSource};

    let (failing, store, cold) = cold_faulty_faster();
    let before = store.metrics().snapshot();
    // The speculative scatter completes; the follow-up for the long values
    // and every later read fail.
    failing.fail_after(1);
    let promoted = store
        .multi_promote(&cold)
        .expect("a hint never fails its batch");
    failing.heal();
    assert!(
        0 < promoted && promoted < cold.len(),
        "{promoted} of {} promoted: the small values, not the long ones",
        cold.len()
    );
    let after = store.metrics().snapshot();
    assert_eq!(
        after.prefetch_copies - before.prefetch_copies,
        promoted as u64
    );
    assert_eq!(
        after.prefetch_skips - before.prefetch_skips,
        (cold.len() - promoted) as u64,
        "every unresolved key is a skipped hint"
    );
    let resident = cold
        .iter()
        .filter(|&&k| store.get_traced(k).unwrap().source != ReadSource::Disk)
        .count();
    assert_eq!(
        resident, promoted,
        "exactly the promoted keys left the device"
    );
    for &k in &cold {
        assert_eq!(store.get(k).unwrap(), faulty_value(k), "key {k}");
    }
}

/// Resolve precedes mutation: a read fault while a `multi_rmw` range resolves
/// fails the batch with no key of that range modified — not even the keys
/// the range had already resolved.
#[test]
fn faster_read_fault_during_rmw_resolve_modifies_nothing() {
    use mlkv_storage::KvStore;

    let (failing, store, cold) = cold_faulty_faster();
    let len_before = store.approximate_len();
    // The speculative scatter resolves the small values; the follow-up for
    // the long ones faults.
    failing.fail_after(1);
    let result = store.multi_rmw(&cold, &|_, _| vec![0xEE; 32]);
    failing.heal();
    assert!(result.is_err(), "the resolve fault surfaces");
    for (&k, got) in cold.iter().zip(store.multi_get(&cold)) {
        assert_eq!(got.unwrap(), faulty_value(k), "key {k} modified");
    }
    assert_eq!(store.approximate_len(), len_before);
    // The healed store applies the same batch.
    store.multi_rmw(&cold, &|_, _| vec![0xEE; 32]).unwrap();
    assert_eq!(store.get(cold[0]).unwrap(), vec![0xEE; 32]);
}

/// The LSM resolves a `multi_rmw` batch's cold keys through the grouped
/// SSTable probe before it locks or logs anything: a read fault there fails
/// the whole batch with no key modified and nothing written to the WAL.
#[test]
fn lsm_read_fault_during_rmw_resolve_modifies_nothing() {
    use mlkv_storage::KvStore;

    let (handles, factory) = failing_factory();
    let store = mlkv_lsm::LsmStore::open(
        mlkv_storage::StoreConfig::in_memory()
            .apply_env_overrides()
            .with_device_factory(factory)
            .with_memory_budget(1 << 20)
            .with_durability(mlkv_storage::DurabilityMode::GroupCommit { window: 1 << 20 }),
    )
    .unwrap();
    let keys: Vec<u64> = (0..600).collect();
    for &k in &keys {
        store.put(k, &[(k % 251) as u8; 32]).unwrap();
    }
    // Cold batch: every key lives in the one SSTable, nothing is cached.
    store.flush().unwrap();
    let (sst, wal) = {
        let handles = handles.lock().unwrap();
        // The flush wrote `sst_1.dat` and rotated the log to generation 1.
        (
            Arc::clone(&handles["sst_1.dat"]),
            Arc::clone(&handles["wal_1.dat"]),
        )
    };
    let wal_writes = wal.writes();

    sst.fail_after(0);
    let result = store.multi_rmw(&keys, &|_, _| vec![0xEE; 32]);
    sst.heal();
    assert!(result.is_err(), "the probe fault surfaces");
    assert_eq!(wal.writes(), wal_writes, "a failed resolve logs nothing");
    for (&k, got) in keys.iter().zip(store.multi_get(&keys)) {
        assert_eq!(got.unwrap(), vec![(k % 251) as u8; 32], "key {k} modified");
    }
    // The healed store applies the same batch.
    store.multi_rmw(&keys, &|_, _| vec![0xEE; 32]).unwrap();
    assert!(wal.writes() > wal_writes);
    for (&k, got) in keys.iter().zip(store.multi_get(&keys)) {
        assert_eq!(got.unwrap(), vec![0xEE; 32], "key {k}");
    }
}
