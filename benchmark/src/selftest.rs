//! Checks of the benchmark's own instruments, run by `mlkv-benchmark
//! selftest` and by `cargo test`: a wrapper that silently measured something
//! else, or a product change to the device pricing, must fail here instead of
//! shifting every number.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mlkv::EmbeddingTable;
use mlkv_storage::device::device_from_config;
use mlkv_storage::kv::{Key, ReadResult, ReadSource};
use mlkv_storage::wal::WalTap;
use mlkv_storage::{
    BatchRmwFn, KvStore, MemStore, ReadReq, RmwFn, StorageMetrics, StorageResult, StoreConfig,
    WriteBatch,
};

use crate::inputs::{gradient, initial_row, KeySampler, Shadow, DIM, LR};
use crate::model::{priced, DeviceCounters, READ_LATENCY, SYNC_COST};
use crate::report::{driver_line, metric, Json, RunResult};
use crate::trace::{attribute, Layer, Span, Trace};
use crate::traced::{Op, TracedStore};

type Check = fn() -> Result<(), String>;

const CHECKS: [(&str, Check); 8] = [
    (
        "traced_store_forwards_every_method",
        traced_store_forwards_every_method,
    ),
    (
        "traced_store_is_byte_equivalent",
        traced_store_is_byte_equivalent,
    ),
    (
        "device_model_pricing_is_pinned",
        device_model_pricing_is_pinned,
    ),
    (
        "counting_device_counts_by_file_class",
        counting_device_counts_by_file_class,
    ),
    (
        "inputs_repeat_and_shadow_matches_table",
        inputs_repeat_and_shadow_matches_table,
    ),
    (
        "engine_self_time_subtracts_device_time",
        engine_self_time_subtracts_device_time,
    ),
    ("result_lines_parse_back", result_lines_parse_back),
    (
        "spread_uses_pythons_quartiles",
        spread_uses_pythons_quartiles,
    ),
];

pub fn main() -> Result<ExitCode, String> {
    let mut failed = 0;
    for (name, check) in CHECKS {
        match check() {
            Ok(()) => println!("ok      {name}"),
            Err(why) => {
                failed += 1;
                println!("FAILED  {name}: {why}");
            }
        }
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn ensure(condition: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(what())
    }
}

/// A `KvStore` that only counts which of its methods were called. It
/// overrides every method of the trait, defaults included, so a call that
/// reached it through a trait default shows up under another name.
#[derive(Default)]
struct CountingStore {
    calls: Mutex<BTreeMap<&'static str, u64>>,
}

impl CountingStore {
    fn hit(&self, method: &'static str) {
        *self
            .calls
            .lock()
            .expect("no check panics while counting")
            .entry(method)
            .or_insert(0) += 1;
    }
}

impl KvStore for CountingStore {
    fn name(&self) -> &'static str {
        self.hit("name");
        "counting"
    }
    fn get(&self, _: Key) -> StorageResult<Vec<u8>> {
        self.hit("get");
        Ok(Vec::new())
    }
    fn get_traced(&self, _: Key) -> StorageResult<ReadResult> {
        self.hit("get_traced");
        Ok(ReadResult {
            value: Vec::new(),
            source: ReadSource::HotMemory,
        })
    }
    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        self.hit("multi_get");
        keys.iter().map(|_| Ok(Vec::new())).collect()
    }
    fn put(&self, _: Key, _: &[u8]) -> StorageResult<()> {
        self.hit("put");
        Ok(())
    }
    fn rmw(&self, _: Key, _: &RmwFn) -> StorageResult<Vec<u8>> {
        self.hit("rmw");
        Ok(Vec::new())
    }
    fn multi_rmw(&self, keys: &[Key], _: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        self.hit("multi_rmw");
        Ok(vec![Vec::new(); keys.len()])
    }
    fn delete(&self, _: Key) -> StorageResult<()> {
        self.hit("delete");
        Ok(())
    }
    fn exists(&self, _: Key) -> StorageResult<bool> {
        self.hit("exists");
        Ok(true)
    }
    fn contains(&self, _: Key) -> StorageResult<bool> {
        self.hit("contains");
        Ok(true)
    }
    fn write_batch(&self, _: &WriteBatch) -> StorageResult<()> {
        self.hit("write_batch");
        Ok(())
    }
    fn promote_to_memory(&self, _: Key) -> StorageResult<bool> {
        self.hit("promote_to_memory");
        Ok(false)
    }
    fn multi_promote(&self, _: &[Key]) -> StorageResult<usize> {
        self.hit("multi_promote");
        Ok(0)
    }
    fn approximate_len(&self) -> usize {
        self.hit("approximate_len");
        0
    }
    fn metrics(&self) -> Arc<StorageMetrics> {
        self.hit("metrics");
        Arc::new(StorageMetrics::new())
    }
    fn flush(&self) -> StorageResult<()> {
        self.hit("flush");
        Ok(())
    }
    fn replication_tap(&self) -> Option<Arc<WalTap>> {
        self.hit("replication_tap");
        None
    }
    fn apply_replicated_group(&self, _: &[Vec<u8>]) -> StorageResult<()> {
        self.hit("apply_replicated_group");
        Ok(())
    }
    fn replication_snapshot(&self) -> StorageResult<Vec<(Key, Vec<u8>)>> {
        self.hit("replication_snapshot");
        Ok(Vec::new())
    }
}

fn traced_store_forwards_every_method() -> Result<(), String> {
    let inner = Arc::new(CountingStore::default());
    let traced = TracedStore::new(
        Arc::clone(&inner) as Arc<dyn KvStore>,
        Arc::new(Trace::new()),
    );
    let mut batch = WriteBatch::new();
    batch.put(1, vec![1]);
    batch.put(2, vec![2]);
    let keep = |_: Option<&[u8]>| Vec::new();
    let keep_at = |_: usize, _: Option<&[u8]>| Vec::new();

    let _ = traced.name();
    let _ = traced.get(1);
    let _ = traced.get_traced(1);
    let _ = traced.multi_get(&[1, 2, 3]);
    let _ = traced.put(1, &[1]);
    let _ = traced.rmw(1, &keep);
    let _ = traced.multi_rmw(&[1, 2, 3], &keep_at);
    let _ = traced.delete(1);
    let _ = traced.exists(1);
    let _ = traced.contains(1);
    let _ = traced.write_batch(&batch);
    let _ = traced.promote_to_memory(1);
    let _ = traced.multi_promote(&[1, 2, 3]);
    let _ = traced.approximate_len();
    let _ = traced.metrics();
    let _ = traced.flush();
    let _ = traced.replication_tap();
    let _ = traced.apply_replicated_group(&[vec![0]]);
    let _ = traced.replication_snapshot();

    let calls = inner.calls.lock().expect("no check panics while counting");
    let expected = [
        "name",
        "get",
        "get_traced",
        "multi_get",
        "put",
        "rmw",
        "multi_rmw",
        "delete",
        "exists",
        "contains",
        "write_batch",
        "promote_to_memory",
        "multi_promote",
        "approximate_len",
        "metrics",
        "flush",
        "replication_tap",
        "apply_replicated_group",
        "replication_snapshot",
    ];
    for method in expected {
        let n = calls.get(method).copied().unwrap_or(0);
        ensure(n == 1, || {
            format!("inner {method} was called {n} times, not once: {calls:?}")
        })?;
    }
    ensure(calls.len() == expected.len(), || {
        format!("unexpected inner calls: {calls:?}")
    })?;
    let counts = traced.counts();
    ensure(
        counts.calls(Op::MultiGet) == 1
            && counts.keys(Op::MultiGet) == 3
            && counts.keys(Op::WriteBatch) == 2,
        || format!("wrapper counted {counts:?}"),
    )
}

fn traced_store_is_byte_equivalent() -> Result<(), String> {
    let bare: Arc<dyn KvStore> = Arc::new(MemStore::new());
    let traced: Arc<dyn KvStore> = Arc::new(TracedStore::new(
        Arc::new(MemStore::new()),
        Arc::new(Trace::new()),
    ));
    let keys: Vec<u64> = (0..64).map(|i| i * 7 % 40).collect();
    let append = |i: usize, cur: Option<&[u8]>| {
        let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
        v.push(i as u8);
        v
    };
    let mut out = Vec::new();
    for store in [&bare, &traced] {
        let mut batch = WriteBatch::new();
        for k in 0..20u64 {
            batch.put(k, k.to_le_bytes().to_vec());
        }
        store.write_batch(&batch).map_err(|e| e.to_string())?;
        let written = store.multi_rmw(&keys, &append).map_err(|e| e.to_string())?;
        store.delete(3).map_err(|e| e.to_string())?;
        let read: Vec<Option<Vec<u8>>> = store
            .multi_get(&(0..45).collect::<Vec<_>>())
            .into_iter()
            .map(Result::ok)
            .collect();
        out.push((written, read, store.exists(3).ok(), store.approximate_len()));
    }
    ensure(out[0] == out[1], || {
        "the wrapped store answered differently from the bare one".into()
    })
}

/// A device over the model, with its counters.
fn priced_device(
    name: &str,
) -> Result<(Arc<dyn mlkv_storage::Device>, Arc<DeviceCounters>), String> {
    let counters = Arc::new(DeviceCounters::default());
    let config = priced(StoreConfig::in_memory(), &counters, &Arc::new(Trace::new()));
    let device = device_from_config(&config, name).map_err(|e| e.to_string())?;
    device
        .write_at(0, &vec![7u8; 1 << 20])
        .map_err(|e| e.to_string())?;
    Ok((device, counters))
}

fn device_model_pricing_is_pinned() -> Result<(), String> {
    const N: usize = 40;
    let (device, _) = priced_device("hlog.dat")?;
    let fixed = READ_LATENCY * N as u32;

    let mut scatter: Vec<ReadReq> = (0..N as u64)
        .map(|i| ReadReq::new(i * 16_384, 64))
        .collect();
    let start = Instant::now();
    device
        .read_scatter(&mut scatter)
        .map_err(|e| e.to_string())?;
    let scattered = start.elapsed();
    ensure(scattered >= fixed, || {
        format!(
            "a scatter of {N} requests took {scattered:?}, less than {N} fixed costs ({fixed:?})"
        )
    })?;

    let mut merged = vec![0u8; N * 64];
    let start = Instant::now();
    device.read_at(0, &mut merged).map_err(|e| e.to_string())?;
    let one = start.elapsed();
    ensure(one >= READ_LATENCY && one < fixed / 2, || {
        format!("one merged read of the same bytes took {one:?}; expected one fixed cost ({READ_LATENCY:?}), well under {fixed:?}")
    })?;

    let start = Instant::now();
    device.sync().map_err(|e| e.to_string())?;
    let synced = start.elapsed();
    ensure(
        synced >= SYNC_COST && synced < SYNC_COST + Duration::from_millis(5),
        || format!("sync took {synced:?}; the model charges {SYNC_COST:?}"),
    )
}

fn counting_device_counts_by_file_class() -> Result<(), String> {
    let (data, data_counts) = priced_device("sst_3.dat")?;
    let mut reqs = vec![ReadReq::new(0, 100), ReadReq::new(50_000, 28)];
    data.read_scatter(&mut reqs).map_err(|e| e.to_string())?;
    data.read_at(10, &mut [0u8; 72])
        .map_err(|e| e.to_string())?;
    let snap = data_counts.snapshot();
    ensure(
        snap.data.read_reqs == 3
            && snap.data.read_bytes == 200
            && snap.data.write_bytes == 1 << 20
            && snap.data.live_bytes == 1 << 20
            && snap.wal == Default::default(),
        || format!("data file counted as {snap:?}"),
    )?;
    drop(data);
    ensure(data_counts.snapshot().data.live_bytes == 0, || {
        "a dropped file still counts as stored".into()
    })?;

    let (wal, wal_counts) = priced_device("faster_wal_0.dat")?;
    wal.append(&[1, 2, 3]).map_err(|e| e.to_string())?;
    wal.sync().map_err(|e| e.to_string())?;
    let snap = wal_counts.snapshot();
    ensure(
        snap.wal.syncs == 1
            && snap.wal.write_bytes == (1 << 20) + 3
            && snap.data == Default::default(),
        || format!("WAL file counted as {snap:?}"),
    )
}

fn inputs_repeat_and_shadow_matches_table() -> Result<(), String> {
    let (a, b, other) = (KeySampler::new(5), KeySampler::new(5), KeySampler::new(6));
    ensure(a.keys(9, 512) == b.keys(9, 512), || {
        "the same seed drew different keys".into()
    })?;
    ensure(a.keys(9, 512) != other.keys(9, 512), || {
        "another seed drew the same keys".into()
    })?;
    ensure(
        gradient(1, 2, 3) == gradient(1, 2, 3) && gradient(1, 2, 3) != gradient(1, 3, 3),
        || "gradients are not a function of (seed, step, key)".into(),
    )?;

    // The shadow table must do the arithmetic `apply_gradients` does.
    let table = EmbeddingTable::builder(Arc::new(MemStore::new()))
        .dim(DIM)
        .staleness_bound(u32::MAX)
        .build()
        .map_err(|e| e.to_string())?;
    let keys: Vec<u64> = (0..50).collect();
    let rows: Vec<Vec<f32>> = keys.iter().map(|&k| initial_row(k)).collect();
    table.put(&keys, &rows).map_err(|e| e.to_string())?;
    let mut shadow = Shadow::populated();
    for step in 0..20 {
        let grads: Vec<(u64, Vec<f32>)> = keys.iter().map(|&k| (k, gradient(7, step, k))).collect();
        let refs: Vec<(u64, &[f32])> = grads.iter().map(|(k, g)| (*k, g.as_slice())).collect();
        table
            .apply_gradients(&refs, LR)
            .map_err(|e| e.to_string())?;
        for (k, g) in &grads {
            shadow.apply(*k, g);
        }
    }
    let got = table.gather(&keys).map_err(|e| e.to_string())?;
    let bad = shadow.mismatches(&keys, &got);
    ensure(bad == 0 && shadow.touched_keys() == keys, || {
        format!(
            "{bad} of {} rows differ between the shadow table and the table",
            keys.len()
        )
    })?;
    let mut wrong = got;
    wrong[4][0] = f32::from_bits(wrong[4][0].to_bits() ^ 1);
    ensure(shadow.mismatches(&keys, &wrong) == 1, || {
        "a one-bit difference went unseen".into()
    })
}

fn engine_self_time_subtracts_device_time() -> Result<(), String> {
    let span = |layer, thread, start_ns, end_ns, model_ns| Span {
        layer,
        op: "x",
        thread,
        start_ns,
        end_ns,
        items: 1,
        model_ns,
    };
    let spans = vec![
        // A table call, and inside it an engine call of 1000 ns whose two
        // device reads overlap each other…
        span(Layer::Core, 1, 0, 1100, 0),
        span(Layer::Engine, 1, 0, 1000, 0),
        span(Layer::Device, 2, 300, 400, 200),
        span(Layer::Device, 3, 350, 500, 100),
        // …and one of 500 ns with no device time inside it.
        span(Layer::Engine, 1, 2000, 2500, 0),
        span(Layer::Device, 2, 2600, 2700, 0),
    ];
    let a = attribute(&spans);
    ensure(
        a.engine_self == vec![(1, 600), (4, 500)] && a.guessed_device_share == 0.0,
        || {
            format!(
                "self times {:?}, guessed share {}",
                a.engine_self, a.guessed_device_share
            )
        },
    )?;
    let expected = [None, Some(0), Some(1), Some(1), None, None];
    ensure(a.parent == expected, || format!("parents {:?}", a.parent))
}

fn result_lines_parse_back() -> Result<(), String> {
    let result = RunResult {
        workload: "train-warm",
        seed: 3,
        seconds: 1.5,
        traced: false,
        attempted: 10,
        failed: 0,
        mismatched_rows: 0,
        end_to_end: vec![
            metric("setup_s", 0.25, "s"),
            metric("ops_per_s", f64::NAN, "1/s"),
        ],
        printed: Vec::new(),
        per_layer: Vec::new(),
        exact_counts: Vec::new(),
    };
    let parsed = Json::parse(&driver_line(&result))?;
    let keys: Vec<&String> = parsed.as_obj().ok_or("not an object")?.keys().collect();
    ensure(
        keys == ["attempted", "correct", "failed", "metrics"],
        || format!("keys {keys:?}"),
    )?;
    let setup = parsed
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    ensure(
        setup == Some(0.25) && parsed.get("correct") == Some(&Json::Bool(true)),
        || format!("parsed {parsed:?}"),
    )?;
    Json::parse(&crate::report::detail_line(&result, "{\"nproc\": 2}")).map(|_| ())
}

fn spread_uses_pythons_quartiles() -> Result<(), String> {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    let got = crate::compare::spread(&values);
    ensure((got - 1.0).abs() < 1e-12, || {
        format!("spread of 1..=10 is {got}, not 5.5/5.5")
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_passes() {
        for (name, check) in super::CHECKS {
            check().unwrap_or_else(|why| panic!("{name}: {why}"));
        }
    }
}
