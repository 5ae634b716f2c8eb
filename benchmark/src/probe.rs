//! Set-up shared by every workload — open a table over the device model,
//! populate it, flush — and the per-layer table computed from the wrappers'
//! counters, the product's own statistics and the span log.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mlkv::{
    open_store, BackendKind, DurabilityMode, EmbeddingTable, PrefetchStats, StalenessStats,
    StorageResult, StoreConfig, TableStatsSnapshot,
};
use mlkv_storage::{KvStore, MetricsSnapshot};

use crate::inputs::{initial_row, DIM, KEY_SPACE, VALUE_BYTES};
use crate::model::{priced, DeviceCounters, DeviceSnapshot};
use crate::report::{metric, Metric};
use crate::trace::{attribute, write_json, Attribution, Layer, Span, Trace};
use crate::traced::{EngineCounts, Op, TracedStore};

/// Keys per `EmbeddingTable::put` call while populating.
pub const POPULATE_CHUNK: usize = 4096;

/// Hash-index buckets of the FASTER engine: sized to the key count, as the
/// memory budget is sized to the workload (the default, 65,536, would make
/// every lookup walk a three-record chain through the cold log).
pub const INDEX_BUCKETS: usize = 1 << 18;

/// How a workload's table is opened; every knob not named keeps the
/// product's default.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    pub backend: BackendKind,
    pub memory_budget: usize,
    /// `Some(bound)` enforces bounded staleness; `None` switches it off.
    pub staleness_bound: Option<u32>,
    pub durability: DurabilityMode,
}

/// A populated table with the benchmark's wrappers at both seams.
pub struct Probe {
    pub table: Arc<EmbeddingTable>,
    pub store: Arc<TracedStore>,
    pub device: Arc<DeviceCounters>,
    pub trace: Arc<Trace>,
    dir: PathBuf,
}

/// Where the benchmark may write: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

impl Probe {
    /// Open, populate every key in [`POPULATE_CHUNK`]-key `put`s, and flush,
    /// with the device model on. Returns the probe and the seconds it took.
    pub fn set_up(spec: &TableSpec) -> StorageResult<(Probe, f64)> {
        // The directory only gives engines that keep a WAL a place to look
        // for earlier generations; every file lives in a `CountingDevice`.
        let dir = out_dir().join(format!(
            "store-{}-{}",
            std::process::id(),
            NEXT_STORE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let trace = Arc::new(Trace::new());
        let device = Arc::new(DeviceCounters::default());
        let started = Instant::now();
        let config = priced(
            StoreConfig::on_disk(&dir)
                .with_memory_budget(spec.memory_budget)
                .with_index_buckets(INDEX_BUCKETS)
                .with_durability(spec.durability),
            &device,
            &trace,
        );
        let store = Arc::new(TracedStore::new(
            open_store(spec.backend, config)?,
            Arc::clone(&trace),
        ));
        let builder = EmbeddingTable::builder(Arc::clone(&store) as Arc<dyn KvStore>).dim(DIM);
        let table = Arc::new(
            match spec.staleness_bound {
                Some(bound) => builder.staleness_bound(bound),
                None => builder.enforce_staleness(false),
            }
            .build()?,
        );
        let keys: Vec<u64> = (0..KEY_SPACE).collect();
        for chunk in keys.chunks(POPULATE_CHUNK) {
            let rows: Vec<Vec<f32>> = chunk.iter().map(|&k| initial_row(k)).collect();
            table.put(chunk, &rows)?;
        }
        table.flush()?;
        let seconds = started.elapsed().as_secs_f64();
        Ok((
            Probe {
                table,
                store,
                device,
                trace,
                dir,
            },
            seconds,
        ))
    }

    /// Read every counter the per-layer table is computed from.
    pub fn mark(&self) -> Mark {
        Mark {
            device: self.device.snapshot(),
            engine: self.store.counts(),
            storage: self.table.store_metrics(),
            table: self.table.stats(),
            staleness: self.table.staleness_stats(),
            prefetch: self.table.prefetch_stats(),
        }
    }
}

impl Probe {
    /// End a traced run: take the span log, write it to
    /// `out/trace-<workload>.json`, and compute the per-layer table over
    /// `before..after`.
    pub fn traced_table(
        &self,
        workload: &str,
        before: &Mark,
        after: &Mark,
        server: Option<ServerSideFn>,
        ops_per_s: f64,
    ) -> StorageResult<Vec<Metric>> {
        let spans = self.trace.take();
        let attribution = attribute(&spans);
        let path = out_dir().join(format!("trace-{workload}.json"));
        write_json(&spans, &attribution.parent, &path)?;
        let server = server.map(|from_spans| from_spans(&spans));
        Ok(per_layer(
            before,
            after,
            &spans,
            &attribution,
            server.as_ref(),
            ops_per_s,
        ))
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The median of `runs` set-ups of `spec`, and the last one's probe.
pub fn set_up_median(spec: &TableSpec, runs: usize) -> StorageResult<(Probe, f64)> {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs.max(1) {
        // Drop the previous table first: two populated tables at once would
        // double the memory the set-up being timed competes for.
        drop(last.take());
        let (probe, seconds) = Probe::set_up(spec)?;
        times.push(seconds);
        last = Some(probe);
    }
    Ok((
        last.expect("at least one set-up ran"),
        crate::report::median_f64(&times),
    ))
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub device: DeviceSnapshot,
    pub engine: EngineCounts,
    pub storage: MetricsSnapshot,
    pub table: TableStatsSnapshot,
    pub staleness: StalenessStats,
    pub prefetch: PrefetchStats,
}

/// Computes the serving workload's part of the table from the span log.
pub type ServerSideFn<'a> = &'a dyn Fn(&[Span]) -> ServerSide;

/// What the serving workload adds to the per-layer table.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSide {
    pub requests: u64,
    pub self_us: f64,
    pub engine_span_us: f64,
    pub unattributed_us: f64,
    pub rejected: u64,
    pub retries: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer table over the interval `before..after`.
///
/// `ops_per_s` is the traced run's own throughput, so that
/// `trace_overhead` = traced / untraced can be formed. Every name listed
/// under `per_layer` in `BENCHMARK.json` is produced on every workload;
/// layers a workload does not exercise read 0.
fn per_layer(
    before: &Mark,
    after: &Mark,
    spans: &[Span],
    attribution: &Attribution,
    server: Option<&ServerSide>,
    ops_per_s: f64,
) -> Vec<Metric> {
    let dev = after.device.since(&before.device);
    let eng = after.engine.since(&before.engine);
    let sto = after.storage.delta(&before.storage);
    let keys = (eng.keys(Op::MultiGet) + eng.keys(Op::MultiRmw)) as f64;
    let applies = eng.calls(Op::MultiRmw) as f64;
    let user_bytes = ((eng.keys(Op::MultiRmw) + eng.keys(Op::WriteBatch)) * VALUE_BYTES) as f64;

    // Engine time from the span log.
    let mut busy_ns = [0u64; 3];
    let batch_ops = [Op::MultiGet, Op::MultiRmw, Op::MultiPromote];
    let (mut engine_busy_ns, mut engine_spans) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.layer == Layer::Engine) {
        engine_busy_ns += s.dur_ns();
        engine_spans += 1;
        if let Some(i) = batch_ops.iter().position(|op| op.name() == s.op) {
            busy_ns[i] += s.dur_ns();
        }
    }
    let engine_self_total: u64 = attribution.engine_self.iter().map(|(_, ns)| ns).sum();
    let us_per_key = |i: usize| ratio(busy_ns[i] as f64 / 1e3, eng.keys(batch_ops[i]) as f64);

    // Core time from the product's own table statistics: time inside
    // gather/apply calls minus the engine spans those calls made.
    let get_ns = (after.table.get_ns - before.table.get_ns) as f64;
    let put_ns = (after.table.put_ns - before.table.put_ns) as f64;
    let gets = (after.table.gets - before.table.gets) as f64;
    let cache_hits = (after.table.cache_hits - before.table.cache_hits) as f64;
    let prefetch_done = (after.prefetch.completed - before.prefetch.completed) as f64;
    let prefetch_useful = ((after.prefetch.promoted + after.prefetch.cached)
        - (before.prefetch.promoted + before.prefetch.cached)) as f64;

    let server = server.copied().unwrap_or_default();
    let serving_calls = (eng.calls(Op::MultiGet) + eng.calls(Op::MultiRmw)) as f64;
    let on_server = |v: f64| if server.requests == 0 { 0.0 } else { v };

    vec![
        metric(
            "device.read_reqs_per_key",
            ratio(dev.read_reqs() as f64, keys),
            "req/key",
        ),
        metric(
            "device.read_bytes_per_value_byte",
            ratio(dev.read_bytes() as f64, keys * VALUE_BYTES as f64),
            "B/B",
        ),
        metric(
            "device.bytes_per_read_req",
            ratio(dev.read_bytes() as f64, dev.read_reqs() as f64),
            "B/req",
        ),
        metric(
            "device.write_bytes_per_user_byte",
            ratio(dev.write_bytes() as f64, user_bytes),
            "B/B",
        ),
        metric(
            "device.wal_bytes_per_apply",
            ratio(dev.wal.write_bytes as f64, applies),
            "B/apply",
        ),
        metric(
            "device.syncs_per_apply",
            ratio(dev.syncs() as f64, applies),
            "1/apply",
        ),
        metric(
            "device.stored_bytes_per_live_byte",
            ratio(
                dev.live_bytes() as f64,
                (KEY_SPACE * (VALUE_BYTES + 8)) as f64,
            ),
            "B/B",
        ),
        metric("device.busy_ms", dev.busy_ns() as f64 / 1e6, "ms"),
        metric("storage.planner_splits", sto.planner_splits as f64, "count"),
        metric("engine.calls", eng.total_calls() as f64, "count"),
        metric("engine.busy_ms", engine_busy_ns as f64 / 1e6, "ms"),
        metric(
            "engine.self_us",
            ratio(engine_self_total as f64 / 1e3, engine_spans as f64),
            "us/call",
        ),
        metric("engine.multi_get_us_per_key", us_per_key(0), "us/key"),
        metric("engine.multi_rmw_us_per_key", us_per_key(1), "us/key"),
        metric("engine.multi_promote_us_per_key", us_per_key(2), "us/key"),
        metric("engine.mem_hit_ratio", sto.memory_hit_ratio(), "ratio"),
        metric(
            "core.gather_self_us",
            ratio(
                (get_ns - busy_ns[0] as f64).max(0.0) / 1e3,
                eng.calls(Op::MultiGet) as f64,
            ),
            "us/call",
        ),
        metric(
            "core.apply_self_us",
            ratio((put_ns - busy_ns[1] as f64).max(0.0) / 1e3, applies),
            "us/call",
        ),
        metric(
            "core.stall_ms",
            (after.staleness.stall_ns - before.staleness.stall_ns) as f64 / 1e6,
            "ms",
        ),
        metric(
            "core.blocked_gets",
            (after.staleness.blocked_gets - before.staleness.blocked_gets) as f64,
            "count",
        ),
        metric("core.app_cache_hit_ratio", ratio(cache_hits, gets), "ratio"),
        metric(
            "core.prefetch_useful_ratio",
            ratio(prefetch_useful, prefetch_done),
            "ratio",
        ),
        metric("server.self_us", server.self_us, "us"),
        metric("server.engine_span_us", server.engine_span_us, "us"),
        metric("server.unattributed_us", server.unattributed_us, "us"),
        metric(
            "server.keys_per_engine_call",
            on_server(ratio(keys, serving_calls)),
            "key/call",
        ),
        metric(
            "server.engine_calls_per_request",
            on_server(ratio(serving_calls, server.requests as f64)),
            "call/req",
        ),
        metric("server.rejected", server.rejected as f64, "count"),
        metric("server.retries", server.retries as f64, "count"),
        metric("trace.ops_per_s", ops_per_s, "1/s"),
        metric("trace.spans", spans.len() as f64, "count"),
        metric(
            "trace.guessed_device_share",
            attribution.guessed_device_share,
            "ratio",
        ),
    ]
}
