//! Correctness of the vectored cold-path I/O stack: `Device::read_scatter`
//! and the coalescing [`IoPlanner`] must be byte-identical to the per-request
//! `read_at` loop on every device type, for every gap threshold, and for
//! arbitrary (duplicate / overlapping / unsorted) request batches — and a cold
//! `multi_get` through the planner must return, on every backend and whether
//! the device completes its submissions inline or on a virtual clock, exactly
//! what per-key `get`s return.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mlkv::{open_store, BackendKind};
use mlkv_storage::{
    BatchExecutor, Device, FailingDevice, FileDevice, IoPlanner, MemDevice, ReadReq,
    SimLatencyDevice, StoreConfig,
};

/// Base configuration of every cold-path equality test, with the CI matrix's
/// `MLKV_PARALLELISM` environment override applied — one test binary covers
/// every `parallelism` cell.
fn matrix_config() -> StoreConfig {
    StoreConfig::in_memory().apply_env_overrides()
}

/// Deterministic content so any slicing mistake shows up as a byte mismatch.
fn patterned(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
}

fn devices(bytes: &[u8], dir: &std::path::Path) -> Vec<(&'static str, Arc<dyn Device>)> {
    let mem = Arc::new(MemDevice::new());
    mem.append(bytes).unwrap();
    let file = Arc::new(FileDevice::create(dir.join("scatter.dat")).unwrap());
    file.append(bytes).unwrap();
    let sim_inner = Arc::new(MemDevice::new());
    sim_inner.append(bytes).unwrap();
    let sim = Arc::new(SimLatencyDevice::with_throughput(
        sim_inner,
        Duration::from_micros(1),
        1 << 30,
    ));
    vec![
        ("MemDevice", mem),
        ("FileDevice", file),
        ("SimLatencyDevice", sim),
    ]
}

/// `(offset, len)` pairs within a `device_len`-byte device, deliberately
/// unsorted with duplicates and overlaps.
fn req_strategy(device_len: usize) -> impl Strategy<Value = Vec<(u64, usize)>> {
    proptest::collection::vec((0u64..(device_len as u64 - 64), 0usize..64), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn read_scatter_matches_per_request_loop_on_every_device(
        reqs in req_strategy(16 << 10),
    ) {
        let bytes = patterned(16 << 10);
        let dir = std::env::temp_dir().join(format!(
            "mlkv-io-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, dev) in devices(&bytes, &dir) {
            // Reference: the plain per-request loop.
            let want: Vec<Vec<u8>> = reqs
                .iter()
                .map(|&(offset, len)| {
                    let mut buf = vec![0u8; len];
                    dev.read_at(offset, &mut buf).unwrap();
                    buf
                })
                .collect();
            // The trait's vectored read.
            let mut batch: Vec<ReadReq> =
                reqs.iter().map(|&(o, l)| ReadReq::new(o, l)).collect();
            dev.read_scatter(&mut batch).unwrap();
            let got: Vec<Vec<u8>> = batch.into_iter().map(ReadReq::into_buf).collect();
            prop_assert_eq!(&want, &got, "{}: read_scatter", name);
            // The coalescing planner at every interesting gap threshold.
            for gap in [0u64, 1, 13, 512, 4096, u64::MAX] {
                let batch: Vec<ReadReq> =
                    reqs.iter().map(|&(o, l)| ReadReq::new(o, l)).collect();
                let filled = IoPlanner::new(gap).submit(dev.as_ref(), batch).wait().unwrap();
                let got: Vec<Vec<u8>> = filled.into_iter().map(ReadReq::into_buf).collect();
                prop_assert_eq!(&want, &got, "{}: planner gap {}", name, gap);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_multi_get_matches_per_key_get(
        probes in proptest::collection::vec(0u64..700, 1..400),
    ) {
        // Tiny memory budgets force most of each store onto the device, so the
        // probes genuinely exercise the scatter paths of every engine; the
        // simulated SSD completes its submissions on its virtual clock, the
        // plain memory device inline.
        for (backend, latency) in BackendKind::ALL
            .into_iter()
            .flat_map(|b| [(b, Duration::ZERO), (b, Duration::from_micros(1))])
        {
            let store = open_store(
                backend,
                matrix_config()
                    .with_memory_budget(16 << 10)
                    .with_page_size(2 << 10)
                    .with_index_buckets(128)
                    .with_io_gap_bytes(256)
                    .with_simulated_read_latency(latency),
            )
            .unwrap();
            for k in 0..600u64 {
                store.put(k, &[(k % 251) as u8; 24]).unwrap();
            }
            store.delete(5).unwrap();
            store.flush().unwrap();
            for (i, x) in store.multi_get(&probes).iter().enumerate() {
                // The per-key read (one record per device request) is the
                // ground truth.
                match store.get(probes[i]) {
                    Ok(v) => prop_assert_eq!(
                        x.as_ref().ok(),
                        Some(&v),
                        "{} ({:?} latency): key {} (pos {})",
                        backend.name(),
                        latency,
                        probes[i],
                        i
                    ),
                    Err(e) => {
                        prop_assert!(e.is_not_found());
                        prop_assert!(x.as_ref().unwrap_err().is_not_found());
                    }
                }
            }
        }
    }
}

/// Disk-backed stores: a store over real files (`FileDevice`, whose
/// submissions complete inline) serves a cold batch exactly as per-key `get`s
/// do, and persists across reopen.
#[test]
fn disk_backed_async_store_matches_sync_and_reopens() {
    let dir = std::env::temp_dir().join(format!(
        "mlkv-io-disk-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    for backend in BackendKind::ALL {
        let open = || {
            open_store(
                backend,
                StoreConfig::on_disk(dir.join(backend.name()))
                    .with_memory_budget(16 << 10)
                    .with_page_size(2 << 10)
                    .with_index_buckets(128),
            )
            .unwrap()
        };
        let store = open();
        for k in 0..400u64 {
            store.put(k, &[(k % 251) as u8; 48]).unwrap();
        }
        store.flush().unwrap();
        let probes: Vec<u64> = (0..1024u64).map(|i| (i * 13) % 500).collect();
        for (key, got) in probes.iter().zip(store.multi_get(&probes)) {
            assert_eq!(
                got.ok(),
                store.get(*key).ok(),
                "{}: key {key}",
                backend.name()
            );
        }
        // Reopen the store's files and read. Only the engines that recover
        // without an explicit checkpoint (LSM via WAL/SSTables, B+tree via
        // its meta page) keep their data across a plain reopen.
        if matches!(
            backend,
            BackendKind::RocksDbLike | BackendKind::WiredTigerLike
        ) {
            drop(store);
            assert_eq!(
                open().get(7).unwrap(),
                vec![7u8; 48],
                "{} reopen",
                backend.name()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The planner's 4 MiB run cap is no longer silently applied: a cold gather
/// whose merged run would exceed the cap surfaces the forced splits as
/// `planner_splits` in the engine metrics.
#[test]
fn planner_run_cap_splits_are_surfaced_in_metrics() {
    let store = open_store(
        BackendKind::Faster,
        matrix_config()
            .with_memory_budget(16 << 10)
            .with_page_size(4 << 10)
            .with_index_buckets(1 << 12)
            // A huge gap threshold merges the whole key space into one run,
            // which must then split at the 4 MiB cap. Serial execution keeps
            // the whole 6 MiB gather in one worker's scatter regardless of
            // the matrix's parallelism cell.
            .with_io_gap_bytes(1 << 20)
            .with_parallelism(1),
    )
    .unwrap();
    let n = 6_000u64; // ~6 MiB of 1 KiB records: beyond one 4 MiB run
    for k in 0..n {
        store.put(k, &[(k % 251) as u8; 1024]).unwrap();
    }
    assert_eq!(store.metrics().snapshot().planner_splits, 0);
    let keys: Vec<u64> = (0..n).collect();
    for (k, got) in keys.iter().zip(store.multi_get(&keys)) {
        assert_eq!(got.unwrap(), vec![(k % 251) as u8; 1024], "key {k}");
    }
    assert!(
        store.metrics().snapshot().planner_splits > 0,
        "a >4 MiB coalesced gather must surface its run-cap splits"
    );
}

/// Non-proptest sanity check: the FASTER cold gather returns the same
/// contents as per-key reads across log spills and values on both sides of
/// the speculative-read boundary.
#[test]
fn faster_cold_batch_results_survive_spills_and_large_values() {
    let store = open_store(
        BackendKind::Faster,
        matrix_config()
            .with_memory_budget(8 << 10)
            .with_page_size(2 << 10)
            .with_index_buckets(64),
    )
    .unwrap();
    for k in 0..400u64 {
        // Values straddling the speculative-read boundary (512 bytes).
        let len = if k % 7 == 0 { 700 } else { 40 };
        store.put(k, &vec![(k % 251) as u8; len]).unwrap();
    }
    let keys: Vec<u64> = (0..1024u64).map(|i| (i * 13) % 450).collect();
    for (key, x) in keys.iter().zip(store.multi_get(&keys)) {
        assert_eq!(x.ok(), store.get(*key).ok(), "key {key}");
    }
}

/// Cold batches cost submissions, not keys: a 1024-key cold `multi_rmw`,
/// `write_batch` and `multi_promote` on FASTER each reach the device a few
/// times per chain depth per planned range — never once per key. "A few" is
/// two: the resolver submits a round's scatter
/// before it harvests the previous one, so a range's cursors travel as two
/// alternating cohorts (chains whose head was already on the device, and
/// chains that left the in-memory window during the first walk), each making
/// one submission per record it hops over.
#[test]
fn faster_cold_write_and_promote_batches_read_per_chain_depth_not_per_key() {
    use mlkv_faster::{FasterKv, HashIndex};
    use mlkv_storage::{DeviceFactory, KvStore, WriteBatch};
    use std::collections::HashMap;

    const KEYS: u64 = 4096;
    const BATCH: u64 = 1024;
    const BUCKETS: usize = 1 << 10;
    const WORKERS: usize = 2;
    // A record chain belongs to one (bucket, tag) index entry: it holds one
    // record per populated key with that bucket and tag, plus one per batch
    // key once the batch's own appends land (a range resolving while its
    // sibling range writes walks over those too). Almost every key has its
    // entry to itself, so the deepest chain is 2 records.
    let index = HashIndex::new(BUCKETS);
    let mut per_entry: HashMap<(usize, u16), u64> = HashMap::new();
    for k in (0..KEYS).chain(0..BATCH) {
        *per_entry
            .entry((index.bucket_of(k), HashIndex::tag_of(k)))
            .or_default() += 1;
    }
    let max_depth = per_entry.into_values().max().unwrap();
    assert!(max_depth >= 2, "batch keys must have an older version");

    let batch_keys: Vec<u64> = (0..BATCH).collect();
    // The executor's plan for the batch, so the bound follows its cutoff.
    let ranges = BatchExecutor::new(WORKERS).planned_workers(BATCH as usize) as u64;
    type Op = fn(&FasterKv, &[u64]);
    let ops: [(&str, u64, Op); 3] = [
        ("multi_rmw", ranges, |store, keys| {
            let bump = |_: usize, cur: Option<&[u8]>| cur.unwrap().iter().map(|b| b + 1).collect();
            store.multi_rmw(keys, &bump).unwrap();
        }),
        ("write_batch", ranges, |store, keys| {
            let mut batch = WriteBatch::new();
            for &k in keys {
                batch.put(k, vec![7u8; 24]);
            }
            store.write_batch(&batch).unwrap();
        }),
        ("multi_promote", 1, |store, keys| {
            assert!(store.multi_promote(keys).unwrap() > 0);
        }),
    ];
    for (name, ranges, op) in &ops {
        // A healthy `FailingDevice` is the call counter: it counts every
        // `read_at`, `read_scatter` and `submit_reads` that reaches it.
        let device = Arc::new(FailingDevice::new(Arc::new(MemDevice::new()), 0));
        let factory = {
            let device = Arc::clone(&device);
            DeviceFactory::new(move |_| Ok(Arc::clone(&device) as Arc<dyn Device>))
        };
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_device_factory(factory)
                .with_memory_budget(16 << 10)
                .with_page_size(2 << 10)
                .with_index_buckets(BUCKETS)
                // Every round's scatter merges into one run, so a round
                // is one device call.
                .with_io_gap_bytes(1 << 20)
                .with_parallelism(WORKERS),
        )
        .unwrap();
        for k in 0..KEYS {
            store.put(k, &[(k % 251) as u8; 24]).unwrap();
        }
        for &k in &batch_keys {
            let source = store.get_traced(k).unwrap().source;
            assert_eq!(
                source,
                mlkv_storage::kv::ReadSource::Disk,
                "key {k} must be cold"
            );
        }

        let before = device.reads();
        op(&store, &batch_keys);
        let reads = device.reads() - before;
        assert!(reads > 0, "{name}: the batch must reach the device");
        assert!(
            reads <= 2 * max_depth * ranges,
            "{name}: {reads} device read calls for {BATCH} cold keys; at most {} (chain \
             depth {max_depth}, {ranges} ranges)",
            2 * max_depth * ranges
        );
    }
}

/// A cold read walks only its own key's versions: of two keys that an index
/// with one untagged head per bucket would chain together, one is rewritten
/// 10,000 times — value lengths alternate, so no rewrite updates in place
/// and each appends a version, nearly all of them long past the in-memory
/// window — and a cold read of the other still reaches the device at most
/// twice (one round, plus its follow-up read should the value outgrow the
/// speculative request).
#[test]
fn faster_cold_read_does_not_walk_a_bucket_mates_versions() {
    use mlkv_faster::{FasterKv, HashIndex};
    use mlkv_storage::kv::ReadSource;
    use mlkv_storage::{DeviceFactory, KvStore};

    const ENTRIES: usize = 1 << 10;
    const REWRITES: usize = 10_000;
    // The bucket an untagged index of `ENTRIES` heads puts `key` in.
    let untagged_bucket =
        |key: u64| (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize & (ENTRIES - 1);
    let hot = 1u64;
    let cold = (2u64..)
        .find(|&k| untagged_bucket(k) == untagged_bucket(hot))
        .unwrap();
    let index = HashIndex::new(ENTRIES);
    assert_eq!(index.bucket_of(hot), index.bucket_of(cold), "one bucket");
    assert_ne!(
        HashIndex::tag_of(hot),
        HashIndex::tag_of(cold),
        "two entries"
    );

    let device = Arc::new(FailingDevice::new(Arc::new(MemDevice::new()), 0));
    let factory = {
        let device = Arc::clone(&device);
        DeviceFactory::new(move |_| Ok(Arc::clone(&device) as Arc<dyn Device>))
    };
    let store = FasterKv::open(
        matrix_config()
            .with_device_factory(factory)
            .with_memory_budget(8 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(ENTRIES),
    )
    .unwrap();
    store.put(cold, &[7u8; 24]).unwrap();
    for i in 0..REWRITES {
        store.put(hot, &vec![i as u8; 24 + 8 * (i % 2)]).unwrap();
    }
    assert!(
        store.log().head().raw() > 50 * (8 << 10),
        "the rewrites must reach far past the in-memory window"
    );

    let before = device.reads();
    let read = store.get_traced(cold).unwrap();
    let reads = device.reads() - before;
    assert_eq!(read.source, ReadSource::Disk);
    assert_eq!(read.value, vec![7u8; 24]);
    assert!(reads <= 2, "{reads} device read calls for one cold key");
}

/// Counts the `read_at` calls that reach it; `read_scatter` and
/// `submit_reads` pass through uncounted.
struct PointReads {
    inner: Arc<dyn Device>,
    count: std::sync::atomic::AtomicU64,
}

impl Device for PointReads {
    fn write_at(&self, offset: u64, data: &[u8]) -> mlkv_storage::StorageResult<()> {
        self.inner.write_at(offset, data)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> mlkv_storage::StorageResult<()> {
        self.count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.read_at(offset, buf)
    }

    fn read_scatter(&self, reqs: &mut [ReadReq]) -> mlkv_storage::StorageResult<()> {
        self.inner.read_scatter(reqs)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> mlkv_storage::StorageResult<()> {
        self.inner.sync()
    }

    fn append(&self, data: &[u8]) -> mlkv_storage::StorageResult<u64> {
        self.inner.append(data)
    }
}

/// Cold LSM writes cost table passes, not keys: a 1024-key cold `multi_rmw`
/// over three SSTables resolves through the grouped probe `multi_get` uses —
/// per planned range, at most one coalesced submission per table, and none
/// for a pass that admits no key. The bound is `tables × ranges`, with the
/// ranges the executor plans for the batch (one: a 1024-key batch runs
/// inline). Measured: 3 submissions and zero `read_at`. The per-key path
/// this replaced made one `read_at` per cold key: 1024. A batch only the
/// oldest table holds costs one submission, not one per table.
#[test]
fn lsm_cold_rmw_batches_read_per_table_pass_not_per_key() {
    use mlkv_storage::{DeviceFactory, KvStore};

    const TABLES: u64 = 3;
    const PER_TABLE: u64 = 1024;
    const WORKERS: usize = 2;
    type Files = Arc<std::sync::Mutex<Vec<(String, Arc<FailingDevice>, Arc<PointReads>)>>>;
    // A healthy `FailingDevice` per file is the call counter (every
    // `read_at`, `read_scatter` and `submit_reads`); the `PointReads`
    // under it counts the `read_at`s alone.
    let files: Files = Arc::default();
    let factory = {
        let files = Arc::clone(&files);
        DeviceFactory::new(move |name| {
            let point = Arc::new(PointReads {
                inner: Arc::new(MemDevice::new()),
                count: Default::default(),
            });
            let calls = Arc::new(FailingDevice::new(Arc::clone(&point) as Arc<dyn Device>, 0));
            files
                .lock()
                .unwrap()
                .push((name.to_string(), Arc::clone(&calls), point));
            Ok(calls as Arc<dyn Device>)
        })
    };
    let store = mlkv_lsm::LsmStore::open(
        StoreConfig::in_memory()
            .with_device_factory(factory)
            // Large enough that neither populating nor the batch flushes
            // on its own, and that the block cache stays cold.
            .with_memory_budget(1 << 20)
            // Every table pass's scatter merges into one run, so a pass
            // is one device call.
            .with_io_gap_bytes(1 << 20)
            .with_parallelism(WORKERS),
    )
    .unwrap();
    for t in 0..TABLES {
        for k in t * PER_TABLE..(t + 1) * PER_TABLE {
            store.put(k, &[(k % 251) as u8; 24]).unwrap();
        }
        store.flush().unwrap();
    }
    assert_eq!(store.table_count() as u64, TABLES);
    // Every third key: 1024 cold keys spread across all three tables.
    let batch: Vec<u64> = (0..PER_TABLE).map(|i| i * TABLES).collect();
    let sst_counts = || {
        files
            .lock()
            .unwrap()
            .iter()
            .filter(|(name, _, _)| name.starts_with("sst_"))
            .fold((0, 0), |(calls, points), (_, c, p)| {
                (
                    calls + c.reads(),
                    points + p.count.load(std::sync::atomic::Ordering::SeqCst),
                )
            })
    };

    let (calls_before, points_before) = sst_counts();
    let bump = |_: usize, cur: Option<&[u8]>| cur.unwrap().iter().map(|b| b + 1).collect();
    store.multi_rmw(&batch, &bump).unwrap();
    let (calls_after, points_after) = sst_counts();
    let (calls, points) = (calls_after - calls_before, points_after - points_before);
    let ranges = BatchExecutor::new(WORKERS).planned_workers(batch.len()) as u64;
    let bound = TABLES * ranges;
    assert_eq!(points, 0, "{points} read_at calls");
    assert!(calls > 0, "the batch must reach the device");
    assert!(
        calls <= bound,
        "{calls} SSTable read calls for {PER_TABLE} cold keys; at most {bound} ({TABLES} \
         tables, {ranges} ranges)"
    );
    // Keys only the oldest table holds: the two newer tables' passes admit
    // none of them, and a pass that admits nothing never reaches the device.
    let oldest: Vec<u64> = (1..PER_TABLE).filter(|k| k % TABLES != 0).take(8).collect();
    let (calls_before, _) = sst_counts();
    for (k, got) in oldest.iter().zip(store.multi_get(&oldest)) {
        assert_eq!(got.unwrap(), vec![(k % 251) as u8; 24], "key {k}");
    }
    let (calls_after, _) = sst_counts();
    assert_eq!(
        calls_after - calls_before,
        1,
        "empty table passes reached the device"
    );
    for (k, got) in batch.iter().zip(store.multi_get(&batch)) {
        assert_eq!(got.unwrap(), vec![(k % 251) as u8 + 1; 24], "key {k}");
    }
}
