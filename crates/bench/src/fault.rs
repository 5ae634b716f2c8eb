//! Shared setup for the fault-tolerance measurements recorded in
//! `BENCH_fault_recovery.json`, used by the `emit_bench_json` recorder and
//! the CI chaos job.
//!
//! Three questions, one row group each:
//!
//! * **Degraded-mode read throughput** — when a device write fault flips the
//!   server read-only, what fraction of the healthy gather throughput
//!   survives? (`throughput_retained_vs_serving`; the probe that keeps
//!   failing against the broken device is part of the measured cost.)
//! * **Write-recovery time** — once the device heals, how long until a
//!   gather-driven probe flips the server back to `Serving`?
//!   (`recovery_ns`, bounded below by the probe interval.)
//! * **Retry amplification under churn** — with a seeded chaos proxy
//!   severing connections, how many wire attempts does the retrying client
//!   spend per completed operation? (`retry_amplification`; 1.0 means no
//!   fault ever hit an in-flight request.)

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mlkv::{open_store, BackendKind, EmbeddingTable};
use mlkv_server::{
    ChaosProxy, ChaosScript, Client, ClientOptions, HealthState, ServerBuilder, ServerHandle,
};
use mlkv_storage::{Device, DeviceFactory, DurabilityMode, FailingDevice, MemDevice, StoreConfig};

/// Embedding dimension of the fault tables.
pub const DIM: usize = 16;
/// Key space every scenario preloads and gathers over.
pub const KEY_SPACE: u64 = 2_000;
/// Keys per gather while measuring throughput.
pub const GATHER_KEYS: usize = 64;
/// The engines the fault sweep records (one hybrid-log, one LSM).
pub const BACKENDS: [BackendKind; 2] = [BackendKind::Faster, BackendKind::RocksDbLike];
/// Probe cadence of the measured servers: recovery time is bounded below by
/// this, so it is part of the recorded configuration.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(1);

type FailingHandles = Arc<Mutex<HashMap<String, Arc<FailingDevice>>>>;

/// A factory sliding a [`FailingDevice`] over a [`MemDevice`] under every
/// file of the store, all reachable by name so the bench can break and heal
/// the write path at will.
fn failing_factory() -> (FailingHandles, DeviceFactory) {
    let handles: FailingHandles = Arc::new(Mutex::new(HashMap::new()));
    let registry = Arc::clone(&handles);
    let factory = DeviceFactory::new(move |name| {
        let failing = Arc::new(FailingDevice::new(Arc::new(MemDevice::new()), 0));
        registry
            .lock()
            .unwrap()
            .insert(name.to_string(), Arc::clone(&failing));
        Ok(failing as Arc<dyn Device>)
    });
    (handles, factory)
}

fn break_writes(handles: &FailingHandles, broken: bool) {
    for device in handles.lock().unwrap().values() {
        device.set_fail_writes(broken);
        device.set_fail_syncs(broken);
        if !broken {
            device.heal();
        }
    }
}

fn serve_failing(backend: BackendKind) -> (FailingHandles, ServerHandle) {
    let (handles, factory) = failing_factory();
    let dir = std::env::temp_dir().join(format!(
        "mlkv-bench-fault-{}-{}",
        backend.name(),
        std::process::id()
    ));
    let store = open_store(
        backend,
        StoreConfig::on_disk(dir)
            .with_device_factory(factory)
            .with_memory_budget(64 << 20)
            .with_page_size(4 << 10)
            .with_parallelism(1)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 }),
    )
    .expect("open fault store");
    let table = Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .build()
            .expect("build fault table"),
    );
    let keys: Vec<u64> = (0..KEY_SPACE).collect();
    let rows = vec![vec![0.5f32; DIM]; keys.len()];
    table.put(&keys, &rows).expect("preload");
    table.flush().expect("preload flush");
    let handle = ServerBuilder::new(backend, DIM)
        .table(table)
        .probe_interval(PROBE_INTERVAL)
        .unavailable_retry_after_ms(1)
        .serve("127.0.0.1:0")
        .expect("loopback serve");
    (handles, handle)
}

fn gather_keys(round: u64) -> Vec<u64> {
    (0..GATHER_KEYS as u64)
        .map(|k| (round * 17 + k * 31) % KEY_SPACE)
        .collect()
}

/// Mean nanoseconds per gather over `iters` closed-loop requests.
fn measure_gathers(client: &mut Client, iters: u32) -> u128 {
    let start = Instant::now();
    for i in 0..iters {
        client
            .gather(&gather_keys(u64::from(i)), None)
            .expect("bench gather");
    }
    start.elapsed().as_nanos() / u128::from(iters.max(1))
}

/// Degraded-mode read throughput plus recovery time for one engine.
pub struct DegradedMeasurement {
    /// Mean gather latency while `Serving` (nanoseconds).
    pub serving_ns: u128,
    /// Mean gather latency while `Degraded` (read-only, probes failing).
    pub degraded_ns: u128,
    /// `serving_ns / degraded_ns`: the fraction of healthy read throughput
    /// the degraded server retains.
    pub throughput_retained: f64,
    /// Nanoseconds from healing the device to the server reporting
    /// `Serving` again (gather-driven probes, no writes issued).
    pub recovery_ns: u128,
}

/// Break the write path mid-serve, measure reads in both health states, heal,
/// and time the probe-driven recovery.
pub fn run_degraded(backend: BackendKind, iters: u32) -> DegradedMeasurement {
    let (handles, handle) = serve_failing(backend);
    let mut client = Client::connect_with(
        handle.local_addr(),
        ClientOptions {
            session_id: 1,
            ..ClientOptions::default()
        },
    )
    .expect("connect");

    let grad: Vec<(u64, Vec<f32>)> = vec![(1, vec![0.25; DIM])];
    client
        .apply_gradients(&grad, 0.1, None)
        .expect("healthy apply");
    assert_eq!(handle.health(), HealthState::Serving);
    let serving_ns = measure_gathers(&mut client, iters);

    break_writes(&handles, true);
    client
        .apply_gradients(&grad, 0.1, None)
        .expect_err("apply must fail against the broken device");
    assert_eq!(handle.health(), HealthState::Degraded);
    let degraded_ns = measure_gathers(&mut client, iters);

    break_writes(&handles, false);
    let healed = Instant::now();
    while handle.health() != HealthState::Serving {
        client
            .gather(&gather_keys(0), None)
            .expect("recovery gather");
    }
    let recovery_ns = healed.elapsed().as_nanos();
    handle.shutdown().expect("graceful shutdown");

    DegradedMeasurement {
        serving_ns,
        degraded_ns,
        throughput_retained: serving_ns as f64 / degraded_ns.max(1) as f64,
        recovery_ns,
    }
}

/// Retry amplification of one engine under seeded connection churn.
pub struct ChurnMeasurement {
    /// Operations completed (every one of them succeeded).
    pub ops: u64,
    /// Wire attempts spent, including the first try of each op.
    pub attempts: u64,
    /// Reconnects forced by severed connections.
    pub reconnects: u64,
    /// Connections the proxy severed.
    pub severed: u64,
    /// `attempts / ops` — 1.0 when no fault hit an in-flight request.
    pub retry_amplification: f64,
}

/// Drive a retrying client through a chaos proxy that severs the connection
/// at seeded chunk ordinals; every operation must still complete.
pub fn run_churn(backend: BackendKind, ops: u64, chaos_seed: u64) -> ChurnMeasurement {
    let store = open_store(
        backend,
        StoreConfig::in_memory()
            .with_memory_budget(64 << 20)
            .with_page_size(4 << 10)
            .with_parallelism(1),
    )
    .expect("open churn store");
    let table = Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .build()
            .expect("build churn table"),
    );
    let handle = ServerBuilder::new(backend, DIM)
        .table(table)
        .serve("127.0.0.1:0")
        .expect("loopback serve");
    let faults = (ops / 4).max(4) as usize;
    let script = ChaosScript::seeded(chaos_seed, faults, 4, 24);
    let mut proxy = ChaosProxy::spawn(handle.local_addr(), script).expect("chaos proxy");

    let mut client = Client::connect_with(
        proxy.addr(),
        ClientOptions {
            session_id: 1,
            max_retries: 16,
            backoff_initial: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            request_timeout: Some(Duration::from_secs(30)),
            ..ClientOptions::default()
        },
    )
    .expect("connect through proxy");

    for i in 0..ops {
        if i % 3 == 0 {
            let updates: Vec<(u64, Vec<f32>)> = vec![
                (i % KEY_SPACE, vec![0.01; DIM]),
                ((i + 7) % KEY_SPACE, vec![0.02; DIM]),
            ];
            client
                .apply_gradients(&updates, 0.1, None)
                .expect("churn apply");
        } else {
            client.gather(&gather_keys(i), None).expect("churn gather");
        }
    }
    let stats = client.stats();
    let severed = proxy.severed();
    proxy.shutdown();
    handle.shutdown().expect("graceful shutdown");

    ChurnMeasurement {
        ops,
        attempts: stats.attempts,
        reconnects: stats.reconnects,
        severed,
        retry_amplification: stats.attempts as f64 / ops.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_measurement_recovers_and_retains_reads() {
        let m = run_degraded(BackendKind::Faster, 4);
        assert!(m.serving_ns > 0 && m.degraded_ns > 0);
        assert!(m.throughput_retained > 0.0);
        assert!(m.recovery_ns > 0);
    }

    #[test]
    fn churn_measurement_completes_every_op() {
        let m = run_churn(BackendKind::Faster, 24, 0xC0DE);
        assert!(m.attempts >= m.ops);
        assert!(m.retry_amplification >= 1.0);
        assert!(m.severed >= 1, "the seeded script must inject faults");
    }
}
