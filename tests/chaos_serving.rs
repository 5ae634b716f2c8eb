//! End-to-end fault tolerance for the serving path: deterministic chaos
//! sweeps over {connection drops, device write faults, mid-run power loss}
//! with retrying idempotent clients, always verified byte-for-byte against a
//! fault-free serial shadow model.
//!
//! The invariant under test everywhere: **exactly-once mutations**. No
//! retried `apply_gradients` is applied twice, no acknowledged apply is
//! lost, and no client hangs — whatever the fault schedule does to the wire
//! or the device underneath the store.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mlkv::{open_store, BackendKind, EmbeddingTable};
use mlkv_server::{
    ChaosProxy, ChaosScript, Client, ClientOptions, HealthState, ServerBuilder, ServerHandle,
};
use mlkv_storage::{
    CrashClock, CrashDevice, Device, DeviceFactory, DurabilityMode, FailingDevice, FileDevice,
    MemDevice, StorageError, StoreConfig,
};

const DIM: usize = 8;
const SEED: u64 = 42;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mlkv-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn make_table(backend: BackendKind) -> Arc<EmbeddingTable> {
    let store = open_store(
        backend,
        StoreConfig::in_memory()
            .with_memory_budget(32 << 20)
            .with_page_size(4 << 10)
            .with_parallelism(1),
    )
    .unwrap();
    Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .seed(SEED)
            .build()
            .unwrap(),
    )
}

fn serve(table: Arc<EmbeddingTable>) -> ServerHandle {
    ServerBuilder::new(BackendKind::InMemory, DIM)
        .table(table)
        .probe_interval(Duration::ZERO)
        .unavailable_retry_after_ms(1)
        .serve("127.0.0.1:0")
        .unwrap()
}

/// One client's deterministic operation stream over its private key range.
enum Op {
    Gather(Vec<u64>),
    Apply(Vec<(u64, Vec<f32>)>),
}

const LR: f32 = 0.05;

fn client_ops(client: u64, ops: usize, keys_per_op: usize) -> Vec<Op> {
    let base = client * 1000;
    let span = 40u64;
    let mut rng = 0xC0FFEE ^ (client << 32);
    (0..ops)
        .map(|_| {
            let keys: Vec<u64> = (0..keys_per_op)
                .map(|_| base + splitmix(&mut rng) % span)
                .collect();
            if splitmix(&mut rng).is_multiple_of(3) {
                Op::Gather(keys)
            } else {
                let updates = keys
                    .iter()
                    .map(|&k| {
                        let g: Vec<f32> = (0..DIM)
                            .map(|d| ((k as f32) + d as f32).sin() * 0.1)
                            .collect();
                        (k, g)
                    })
                    .collect();
                Op::Apply(updates)
            }
        })
        .collect()
}

/// Serial, fault-free replay of every client's stream; the ground truth.
fn shadow_state(
    backend: BackendKind,
    clients: u64,
    ops: usize,
    keys_per_op: usize,
    all_keys: &[u64],
) -> Vec<Vec<f32>> {
    let shadow = make_table(backend);
    for c in 0..clients {
        for op in client_ops(c, ops, keys_per_op) {
            match op {
                Op::Gather(keys) => {
                    shadow.gather(&keys).unwrap();
                }
                Op::Apply(updates) => {
                    let borrowed: Vec<(u64, &[f32])> =
                        updates.iter().map(|(k, g)| (*k, g.as_slice())).collect();
                    shadow.apply_gradients(&borrowed, LR).unwrap();
                }
            }
        }
    }
    shadow.gather(all_keys).unwrap()
}

/// Scenario 1: retrying clients drive seeded traffic through a chaos proxy
/// that severs connections (including mid-frame) at scripted chunk ordinals.
/// Every operation must eventually succeed, and the served table must end
/// byte-identical to the fault-free serial shadow — retried applies land
/// exactly once.
fn conn_churn_sweep(backend: BackendKind, chaos_seed: u64, mid_frame: bool) {
    const CLIENTS: u64 = 3;
    const OPS: usize = 25;
    const KEYS_PER_OP: usize = 4;

    let served = make_table(backend);
    let handle = serve(Arc::clone(&served));
    let script = ChaosScript::seeded(chaos_seed, 10, 4, 24).mid_frame(mid_frame);
    let mut proxy = ChaosProxy::spawn(handle.local_addr(), script).unwrap();
    let proxy_addr = proxy.addr();

    let mut threads = Vec::new();
    for c in 0..CLIENTS {
        threads.push(std::thread::spawn(move || {
            let opts = ClientOptions {
                session_id: c + 1,
                max_retries: 16,
                backoff_initial: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(20),
                request_timeout: Some(Duration::from_secs(30)),
                ..ClientOptions::default()
            };
            let mut client = Client::connect_with(proxy_addr, opts).unwrap();
            for op in client_ops(c, OPS, KEYS_PER_OP) {
                match op {
                    Op::Gather(keys) => {
                        let rows = client.gather(&keys, None).unwrap();
                        assert_eq!(rows.len(), keys.len());
                    }
                    Op::Apply(updates) => {
                        client.apply_gradients(&updates, LR, None).unwrap();
                    }
                }
            }
            client.stats()
        }));
    }
    let mut retries = 0u64;
    let mut reconnects = 0u64;
    for t in threads {
        let stats = t.join().expect("client thread survived the chaos");
        retries += stats.retries;
        reconnects += stats.reconnects;
    }
    let severed = proxy.severed();
    proxy.shutdown();
    handle.shutdown().unwrap();

    // Parsed by CI into the step summary.
    println!(
        "chaos-sweep backend={} mode=conn-churn fault_points={} retries={} reconnects={}",
        backend.name(),
        severed,
        retries,
        reconnects
    );
    assert!(severed >= 1, "the script must actually inject faults");
    assert!(
        reconnects >= 1,
        "severed connections must force reconnects ({severed} severed)"
    );

    let all_keys: Vec<u64> = (0..CLIENTS)
        .flat_map(|c| (0..40).map(move |k| c * 1000 + k))
        .collect();
    assert_eq!(
        served.gather(&all_keys).unwrap(),
        shadow_state(backend, CLIENTS, OPS, KEYS_PER_OP, &all_keys),
        "[{}] chaos run diverged from the fault-free shadow",
        backend.name()
    );
}

#[test]
fn faster_survives_connection_churn_with_retrying_clients() {
    conn_churn_sweep(BackendKind::Faster, 0xFA57, false);
    conn_churn_sweep(BackendKind::Faster, 0xFA58, true);
}

#[test]
fn lsm_survives_connection_churn_with_retrying_clients() {
    conn_churn_sweep(BackendKind::RocksDbLike, 0x15FA, false);
    conn_churn_sweep(BackendKind::RocksDbLike, 0x15FB, true);
}

#[test]
fn btree_survives_connection_churn_with_retrying_clients() {
    conn_churn_sweep(BackendKind::WiredTigerLike, 0xB7EE, false);
    conn_churn_sweep(BackendKind::WiredTigerLike, 0xB7EF, true);
}

type FailingHandles = Arc<Mutex<HashMap<String, Arc<FailingDevice>>>>;

/// A factory sliding a [`FailingDevice`] under every file of the store, all
/// reachable by name afterwards so the test can break and heal them at will.
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

/// Scenario 2: a device write fault mid-serve flips the server to read-only
/// (`Degraded`): the failing apply surfaces its storage error, subsequent
/// applies get the retryable `Unavailable{retry_after}`, gathers keep
/// working. Healing the device lets a gather-driven probe flip back to
/// `Serving`, and replaying the failed apply under its original id applies
/// it exactly once.
#[test]
fn write_fault_degrades_to_read_only_and_heals() {
    let (handles, factory) = failing_factory();
    let store = open_store(
        BackendKind::RocksDbLike,
        StoreConfig::on_disk(temp_dir("degrade"))
            .with_device_factory(factory)
            .with_memory_budget(32 << 20)
            .with_page_size(4 << 10)
            .with_parallelism(1)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 }),
    )
    .unwrap();
    let table = Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .seed(SEED)
            .build()
            .unwrap(),
    );
    let handle = serve(Arc::clone(&table));
    let opts = ClientOptions {
        session_id: 77,
        ..ClientOptions::default()
    };
    let mut client = Client::connect_with(handle.local_addr(), opts).unwrap();

    let grad = |v: f32| vec![(5u64, vec![v; DIM])];
    let baseline = client.gather(&[5], None).unwrap();

    // Healthy apply.
    client.apply_with_id(1, &grad(1.0), LR, None).unwrap();
    assert_eq!(handle.health(), HealthState::Serving);

    // Break the write path: the in-flight apply fails with the engine's own
    // error and the server degrades.
    break_writes(&handles, true);
    let err = client.apply_with_id(2, &grad(2.0), LR, None).unwrap_err();
    assert!(
        matches!(err, StorageError::Io(_)),
        "want the injected device failure, got {err:?}"
    );
    assert_eq!(handle.health(), HealthState::Degraded);

    // While degraded: writes are refused with the retryable hint...
    let err = client.apply_with_id(3, &grad(3.0), LR, None).unwrap_err();
    assert!(
        matches!(err, StorageError::Unavailable { .. }),
        "want Unavailable while degraded, got {err:?}"
    );
    // ...but reads keep flowing, and still see the pre-fault state (the
    // failed apply left no trace: the LSM logs before it applies).
    let during = client.gather(&[5], None).unwrap();
    for d in 0..DIM {
        assert!((during[0][d] - (baseline[0][d] - LR * 1.0)).abs() < 1e-6);
    }
    assert_eq!(handle.health(), HealthState::Degraded);

    // Heal the device; the next tick's probe flips back to Serving. The
    // gather is what drives the tick — no write needed to recover.
    break_writes(&handles, false);
    client.gather(&[5], None).unwrap();
    assert_eq!(handle.health(), HealthState::Serving);

    // Replay the failed apply under its original id: exactly once.
    client.apply_with_id(2, &grad(2.0), LR, None).unwrap();
    let after = client.gather(&[5], None).unwrap();
    for d in 0..DIM {
        let want = baseline[0][d] - LR * 1.0 - LR * 2.0;
        assert!(
            (after[0][d] - want).abs() < 1e-6,
            "dim {d}: got {}, want {want} (double-applied or lost?)",
            after[0][d]
        );
    }
    // And a retry of the replay is deduplicated, not re-applied.
    client.apply_with_id(2, &grad(2.0), LR, None).unwrap();
    assert_eq!(client.gather(&[5], None).unwrap(), after);

    let snap = handle.metrics().snapshot();
    assert!(snap.health_degraded >= 1);
    assert!(snap.health_recovered >= 1);
    assert!(snap.health_probes >= 1);
    assert!(snap.serve_deduped >= 1);
    handle.shutdown().unwrap();
}

/// Factory that slides a [`CrashDevice`] under every file of the store.
fn crash_factory(dir: &Path, clock: &Arc<CrashClock>) -> DeviceFactory {
    let dir = dir.to_path_buf();
    let clock = Arc::clone(clock);
    DeviceFactory::new(move |name| {
        std::fs::create_dir_all(&dir)?;
        let inner: Arc<dyn Device> = Arc::new(FileDevice::open(dir.join(name))?);
        Ok(Arc::new(CrashDevice::new(inner, Arc::clone(&clock))) as Arc<dyn Device>)
    })
}

fn crash_config(dir: &Path, clock: &Arc<CrashClock>) -> StoreConfig {
    StoreConfig::on_disk(dir)
        .with_device_factory(crash_factory(dir, clock))
        .with_memory_budget(32 << 20)
        .with_page_size(4 << 10)
        .with_parallelism(1)
        .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
        .apply_env_overrides()
}

fn open_served_table(kind: BackendKind, config: StoreConfig) -> Arc<EmbeddingTable> {
    let store = open_store(kind, config).expect("open store");
    Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .enforce_staleness(false)
            .lookahead_workers(0)
            .seed(SEED)
            .build()
            .expect("build table"),
    )
}

const CRASH_OPS: usize = 8;
const CRASH_UNIVERSE: u64 = 48;

fn crash_op(j: usize) -> Vec<(u64, Vec<f32>)> {
    let mut rng = 0xDEAD ^ (j as u64) << 16;
    (0..6)
        .map(|_| {
            let k = splitmix(&mut rng) % CRASH_UNIVERSE;
            let g: Vec<f32> = (0..DIM)
                .map(|d| ((k + d as u64) as f32).cos() * 0.2)
                .collect();
            (k, g)
        })
        .collect()
}

/// Scenario 3: power dies *during a sync* at every possible boundary while a
/// session client streams applies through the server. After each crash the
/// harness reopens the store (recovery), restarts the server (which rebuilds
/// the dedup window from the durable markers), replays the failed apply
/// under its original id, and finishes the stream. The final recovered state
/// must equal the fault-free shadow — every apply exactly once, across the
/// crash.
fn crash_mid_tick_sweep(kind: BackendKind, tag: &str) {
    const SESSION: u64 = 9;
    let universe: Vec<u64> = (0..CRASH_UNIVERSE).collect();

    // Shadow: all ops applied once, serially, no faults.
    let shadow = make_table(BackendKind::InMemory);
    for j in 0..CRASH_OPS {
        let updates = crash_op(j);
        let borrowed: Vec<(u64, &[f32])> =
            updates.iter().map(|(k, g)| (*k, g.as_slice())).collect();
        shadow.apply_gradients(&borrowed, LR).unwrap();
    }
    let want = shadow.gather(&universe).unwrap();

    // Count pass: no kill; learn the sync schedule.
    let dir = temp_dir(&format!("{tag}-count"));
    std::fs::remove_dir_all(&dir).ok();
    let clock = Arc::new(CrashClock::new());
    {
        let table = open_served_table(kind, crash_config(&dir, &clock));
        let handle = serve(Arc::clone(&table));
        let mut client = Client::connect_with(
            handle.local_addr(),
            ClientOptions {
                session_id: SESSION,
                ..ClientOptions::default()
            },
        )
        .unwrap();
        for j in 0..CRASH_OPS {
            client
                .apply_with_id(j as u64 + 1, &crash_op(j), LR, None)
                .unwrap();
        }
        handle.shutdown().unwrap();
        assert_eq!(
            table.gather(&universe).unwrap(),
            want,
            "[{}] un-crashed serving run diverged from shadow",
            kind.name()
        );
    }
    let total_syncs = clock.syncs();
    std::fs::remove_dir_all(&dir).ok();
    assert!(total_syncs >= CRASH_OPS as u64);
    println!(
        "chaos-sweep backend={} mode=crash-mid-tick fault_points={}",
        kind.name(),
        total_syncs
    );

    for kill_at in 1..=total_syncs {
        let dir = temp_dir(&format!("{tag}-k{kill_at}"));
        std::fs::remove_dir_all(&dir).ok();
        let clock = Arc::new(CrashClock::new());
        clock.arm(kill_at);

        // Phase one: serve until the device dies under an op (or the stream
        // finishes; late kill points fire during shutdown's flush).
        let mut failed_at: Option<usize> = None;
        {
            let table = open_served_table(kind, crash_config(&dir, &clock));
            let handle = serve(Arc::clone(&table));
            let mut client = Client::connect_with(
                handle.local_addr(),
                ClientOptions {
                    session_id: SESSION,
                    ..ClientOptions::default()
                },
            )
            .unwrap();
            for j in 0..CRASH_OPS {
                if client
                    .apply_with_id(j as u64 + 1, &crash_op(j), LR, None)
                    .is_err()
                {
                    failed_at = Some(j);
                    break;
                }
            }
            // Power is gone (or the run completed); teardown may fail to
            // flush — that is the point.
            let _ = handle.shutdown();
        }

        // Phase two: power-cycle. Recovery replays the WAL/journal; the new
        // server rebuilds the dedup window from the durable markers.
        let table = open_served_table(kind, crash_config(&dir, &Arc::new(CrashClock::new())));
        let handle = serve(Arc::clone(&table));
        let mut client = Client::connect_with(
            handle.local_addr(),
            ClientOptions {
                session_id: SESSION,
                ..ClientOptions::default()
            },
        )
        .unwrap();
        if let Some(j) = failed_at {
            // Replay the failed op under its ORIGINAL id, then the rest of
            // the stream. If the crashed attempt actually committed before
            // power died, the marker dedups it; otherwise it re-applies.
            for op in j..CRASH_OPS {
                client
                    .apply_with_id(op as u64 + 1, &crash_op(op), LR, None)
                    .unwrap_or_else(|e| {
                        panic!(
                            "[{}] kill {kill_at}/{total_syncs}: replay of op {op} failed: {e:?}",
                            kind.name()
                        )
                    });
            }
        }
        handle.shutdown().unwrap();

        // Phase three: reopen once more and verify against the shadow.
        let table = open_served_table(kind, crash_config(&dir, &Arc::new(CrashClock::new())));
        let got = table.gather(&universe).unwrap();
        assert_eq!(
            got,
            want,
            "[{}] kill {kill_at}/{total_syncs}: recovered state diverged \
             (double-applied or lost a retried gradient)",
            kind.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn faster_applies_exactly_once_across_mid_tick_power_loss() {
    crash_mid_tick_sweep(BackendKind::Mlkv, "faster");
}

#[test]
fn lsm_applies_exactly_once_across_mid_tick_power_loss() {
    crash_mid_tick_sweep(BackendKind::RocksDbLike, "lsm");
}

#[test]
fn btree_applies_exactly_once_across_mid_tick_power_loss() {
    crash_mid_tick_sweep(BackendKind::WiredTigerLike, "btree");
}

// Satellite (c): property test — a retrying client under seeded connection
// churn is byte-identical to a fault-free serial replay, on all three
// persistent backends.
mod churn_properties {
    use super::*;
    use proptest::prelude::*;

    fn check_backend(backend: BackendKind, chaos_seed: u64, ops: usize) {
        let served = make_table(backend);
        let handle = serve(Arc::clone(&served));
        let script =
            ChaosScript::seeded(chaos_seed, 8, 3, 16).mid_frame(chaos_seed.is_multiple_of(2));
        let mut proxy = ChaosProxy::spawn(handle.local_addr(), script).unwrap();

        let opts = ClientOptions {
            session_id: 1,
            max_retries: 16,
            backoff_initial: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            request_timeout: Some(Duration::from_secs(30)),
            ..ClientOptions::default()
        };
        let mut client = Client::connect_with(proxy.addr(), opts).unwrap();
        for op in client_ops(0, ops, 3) {
            match op {
                Op::Gather(keys) => {
                    client.gather(&keys, None).unwrap();
                }
                Op::Apply(updates) => {
                    client.apply_gradients(&updates, LR, None).unwrap();
                }
            }
        }
        proxy.shutdown();
        handle.shutdown().unwrap();

        let all_keys: Vec<u64> = (0..40).collect();
        let want = shadow_state(backend, 1, ops, 3, &all_keys);
        assert_eq!(
            served.gather(&all_keys).unwrap(),
            want,
            "[{}] churn property violated for seed {chaos_seed}",
            backend.name()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn retrying_client_matches_serial_replay_under_churn(
            chaos_seed in 1u64..1_000_000,
            ops in 8usize..20,
        ) {
            check_backend(BackendKind::Faster, chaos_seed, ops);
            check_backend(BackendKind::RocksDbLike, chaos_seed, ops);
            check_backend(BackendKind::WiredTigerLike, chaos_seed, ops);
        }
    }
}
