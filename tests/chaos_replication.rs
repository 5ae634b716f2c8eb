//! Replicated serving tier under primary kill: WAL shipping, semi-sync
//! acknowledgement, failover promotion, and zero acked-mutation loss.
//!
//! The sweep runs a primary + replica pair per engine, kills the primary
//! abruptly at **every** operation boundary of a deterministic client stream
//! (including before the first op and after the last), promotes the replica,
//! and lets the client's endpoint rotation re-resolve mid-retry. The promoted
//! replica must end **byte-identical** to a fault-free serial shadow:
//!
//! * no acked mutation is lost — `SemiSync{1}` means every acknowledgement
//!   implies the replica already held the WAL group, and `kill()` severs the
//!   client sockets before teardown so no post-kill ack can leak out;
//! * no mutation is double-applied — the retry crosses the failover with its
//!   original request id and dedups against the replicated durable session
//!   markers the promotion recovered, exactly as restart recovery would.
//!
//! A second scenario attaches the replica *late* with a tiny tap retention,
//! forcing the snapshot catch-up path before the stream goes live.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mlkv::{open_store, BackendKind, EmbeddingTable};
use mlkv_server::{Client, ClientOptions, ReplicationMode, Role, ServerBuilder, ServerHandle};
use mlkv_storage::{DurabilityMode, ReplicationTuning, StoreConfig};

const DIM: usize = 8;
const SEED: u64 = 42;
const LR: f32 = 0.05;
const OPS: usize = 6;
const UNIVERSE: u64 = 32;
const SESSION: u64 = 9;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mlkv-repl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Deterministic update batch for op `j` (same stream every run).
fn repl_op(j: usize) -> Vec<(u64, Vec<f32>)> {
    let mut rng = 0xBEEF ^ ((j as u64) << 16);
    (0..4)
        .map(|_| {
            let k = splitmix(&mut rng) % UNIVERSE;
            let g: Vec<f32> = (0..DIM)
                .map(|d| ((k + d as u64) as f32).cos() * 0.2)
                .collect();
            (k, g)
        })
        .collect()
}

/// Serial, fault-free replay of ops `0..upto`; the ground truth.
fn shadow_state(upto: usize, universe: &[u64]) -> Vec<Vec<f32>> {
    let store = open_store(BackendKind::InMemory, StoreConfig::default()).unwrap();
    let shadow = EmbeddingTable::builder(store)
        .dim(DIM)
        .staleness_bound(u32::MAX)
        .seed(SEED)
        .build()
        .unwrap();
    for j in 0..upto {
        let updates = repl_op(j);
        let borrowed: Vec<(u64, &[f32])> =
            updates.iter().map(|(k, g)| (*k, g.as_slice())).collect();
        shadow.apply_gradients(&borrowed, LR).unwrap();
    }
    shadow.gather(universe).unwrap()
}

fn tuning() -> ReplicationTuning {
    ReplicationTuning {
        retention_groups: 4096,
        ack_timeout_ms: 5_000,
        heartbeat_ms: 5,
    }
}

fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig::on_disk(dir)
        .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
        .with_parallelism(1)
}

fn primary_builder(kind: BackendKind, dir: &Path) -> ServerBuilder {
    ServerBuilder::new(kind, DIM)
        .staleness_bound(u32::MAX)
        .seed(SEED)
        .store_config(store_config(dir))
        .probe_interval(Duration::ZERO)
        .unavailable_retry_after_ms(1)
        .replication_mode(ReplicationMode::SemiSync { acks: 1 })
        .replication_tuning(tuning())
}

fn replica_builder(kind: BackendKind, dir: &Path, primary: SocketAddr) -> ServerBuilder {
    ServerBuilder::new(kind, DIM)
        .staleness_bound(u32::MAX)
        .seed(SEED)
        .store_config(store_config(dir))
        .probe_interval(Duration::ZERO)
        .unavailable_retry_after_ms(1)
        .replication_tuning(tuning())
        .replicate_from(primary.to_string())
}

fn wait_for_replica(primary: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.replica_count() == 0 {
        assert!(
            Instant::now() < deadline,
            "replica never attached to the primary"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn retrying_client(primary: SocketAddr, replica: SocketAddr) -> Client {
    let opts = ClientOptions {
        session_id: SESSION,
        max_retries: 200,
        backoff_initial: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        request_timeout: Some(Duration::from_secs(60)),
        ..ClientOptions::default()
    };
    Client::connect_with(&[primary, replica][..], opts).unwrap()
}

/// Kill the primary at op boundary `kill_at` (0..=OPS), promote the replica
/// while the client is already retrying, finish the stream against the
/// promoted replica, and compare byte-for-byte with the fault-free shadow.
fn failover_at_boundary(kind: BackendKind, tag: &str, kill_at: usize) -> u64 {
    let pdir = temp_dir(&format!("{tag}-p{kill_at}"));
    let rdir = temp_dir(&format!("{tag}-r{kill_at}"));
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&rdir).ok();

    let primary = primary_builder(kind, &pdir).serve("127.0.0.1:0").unwrap();
    let replica = replica_builder(kind, &rdir, primary.local_addr())
        .serve("127.0.0.1:0")
        .unwrap();
    assert_eq!(primary.role(), Role::Primary);
    assert_eq!(replica.role(), Role::Replica);
    wait_for_replica(&primary);

    let mut client = retrying_client(primary.local_addr(), replica.local_addr());
    std::thread::scope(|s| {
        for j in 0..OPS {
            if j == kill_at {
                primary.kill();
                let replica = &replica;
                // Promote concurrently with the client's retries: the client
                // sees {primary refused, replica Unavailable} until the flip
                // lands, then its rotation re-resolves to the new primary.
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    replica.promote().unwrap();
                });
            }
            client
                .apply_with_id(j as u64 + 1, &repl_op(j), LR, None)
                .unwrap_or_else(|e| {
                    panic!(
                        "[{}] kill {kill_at}: op {j} never landed: {e:?}",
                        kind.name()
                    )
                });
        }
        if kill_at == OPS {
            primary.kill();
            replica.promote().unwrap();
        }
    });
    assert_eq!(
        replica.role(),
        Role::Primary,
        "failover promoted the replica"
    );

    // A retry of the last pre-kill op crosses the failover with its original
    // id: the promoted replica must dedup it via the replicated marker.
    if kill_at > 0 {
        client
            .apply_with_id(kill_at as u64, &repl_op(kill_at - 1), LR, None)
            .unwrap();
    }

    let universe: Vec<u64> = (0..UNIVERSE).collect();
    let want = shadow_state(OPS, &universe);
    let got = replica.table().gather(&universe).unwrap();
    assert_eq!(
        got,
        want,
        "[{}] kill {kill_at}/{OPS}: promoted replica diverged from the \
         fault-free shadow (lost an acked mutation or double-applied a retry)",
        kind.name()
    );

    let retries = client.stats().retries;
    assert!(
        replica.metrics().snapshot().repl_promotions >= 1,
        "promotion must be counted"
    );
    replica.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&rdir).ok();
    retries
}

fn failover_sweep(kind: BackendKind, tag: &str) {
    let mut retries = 0u64;
    for kill_at in 0..=OPS {
        retries += failover_at_boundary(kind, tag, kill_at);
    }
    // Parsed by CI into the step summary.
    println!(
        "replication-sweep backend={} mode=failover kill_points={} failovers={} retries={}",
        kind.name(),
        OPS + 1,
        OPS + 1,
        retries
    );
}

#[test]
fn faster_zero_acked_loss_across_primary_kill() {
    failover_sweep(BackendKind::Faster, "faster");
}

#[test]
fn lsm_zero_acked_loss_across_primary_kill() {
    failover_sweep(BackendKind::RocksDbLike, "lsm");
}

#[test]
fn btree_zero_acked_loss_across_primary_kill() {
    failover_sweep(BackendKind::WiredTigerLike, "btree");
}

/// Late attach: the primary runs the whole stream *before* the replica dials
/// in, with a tap retention smaller than the stream — so the replica can only
/// catch up through the snapshot path. One final semi-sync op proves it is
/// current; killing the primary and promoting must still yield the shadow.
fn snapshot_catchup(kind: BackendKind, tag: &str) {
    let pdir = temp_dir(&format!("{tag}-snap-p"));
    let rdir = temp_dir(&format!("{tag}-snap-r"));
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&rdir).ok();

    let tiny = ReplicationTuning {
        retention_groups: 2,
        ..tuning()
    };
    // Async while alone (no replica yet to satisfy a quorum).
    let primary = ServerBuilder::new(kind, DIM)
        .staleness_bound(u32::MAX)
        .seed(SEED)
        .store_config(store_config(&pdir))
        .unavailable_retry_after_ms(1)
        .replication_mode(ReplicationMode::Async)
        .replication_tuning(tiny)
        .serve("127.0.0.1:0")
        .unwrap();

    let opts = ClientOptions {
        session_id: SESSION,
        max_retries: 50,
        backoff_initial: Duration::from_millis(1),
        request_timeout: Some(Duration::from_secs(60)),
        ..ClientOptions::default()
    };
    let mut client = Client::connect_with(primary.local_addr(), opts).unwrap();
    for j in 0..OPS {
        client
            .apply_with_id(j as u64 + 1, &repl_op(j), LR, None)
            .unwrap();
    }

    // More groups than the tap retains have been published: the replica's
    // genesis handshake lands below `base_offset` and must be snapshot-fed.
    let replica = replica_builder(kind, &rdir, primary.local_addr())
        .replication_tuning(tiny)
        .serve("127.0.0.1:0")
        .unwrap();
    wait_for_replica(&primary);

    // Wait until the replica has acked everything shipped so far: the lag
    // gauge only becomes meaningful after the first ack, so require a
    // snapshot transfer and at least one ack before trusting lag == 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = primary.metrics().snapshot();
        if snap.repl_snapshots >= 1 && snap.repl_acks >= 1 && snap.repl_lag == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica never caught up through the snapshot path \
             (snapshots={}, acks={}, lag={})",
            snap.repl_snapshots,
            snap.repl_acks,
            snap.repl_lag
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    primary.kill();
    replica.promote().unwrap();

    let universe: Vec<u64> = (0..UNIVERSE).collect();
    assert_eq!(
        replica.table().gather(&universe).unwrap(),
        shadow_state(OPS, &universe),
        "[{}] snapshot catch-up diverged from the shadow",
        kind.name()
    );
    println!(
        "replication-sweep backend={} mode=snapshot-catchup kill_points=1 failovers=1 retries={}",
        kind.name(),
        client.stats().retries
    );
    replica.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&rdir).ok();
}

#[test]
fn faster_replica_catches_up_via_snapshot_then_promotes() {
    snapshot_catchup(BackendKind::Faster, "faster");
}

#[test]
fn lsm_replica_catches_up_via_snapshot_then_promotes() {
    snapshot_catchup(BackendKind::RocksDbLike, "lsm");
}

/// A replica serves gathers without writing outside the replication stream:
/// once it has applied every acknowledged op, a gather of written and
/// never-written keys serves the shadow's rows and leaves the replica's
/// length and engine write counters where they were.
#[test]
fn a_replicas_gather_issues_no_engine_write() {
    let kind = BackendKind::Faster;
    let pdir = temp_dir("pure-gather-p");
    let rdir = temp_dir("pure-gather-r");
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&rdir).ok();

    let primary = primary_builder(kind, &pdir).serve("127.0.0.1:0").unwrap();
    let replica = replica_builder(kind, &rdir, primary.local_addr())
        .serve("127.0.0.1:0")
        .unwrap();
    wait_for_replica(&primary);
    let mut client = retrying_client(primary.local_addr(), replica.local_addr());
    for j in 0..OPS {
        client
            .apply_with_id(j as u64 + 1, &repl_op(j), LR, None)
            .unwrap();
    }

    // Semi-sync: every acknowledged op is already applied on the replica.
    let table = replica.table();
    let writes = || {
        let m = table.store_metrics();
        (table.len(), m.upserts, m.rmws, m.wal_appends)
    };
    let before = writes();
    // Keys past the universe were never written anywhere.
    let keys: Vec<u64> = (0..2 * UNIVERSE).collect();
    assert_eq!(table.gather(&keys).unwrap(), shadow_state(OPS, &keys));
    assert_eq!(writes(), before, "a replica's gather wrote to its engine");
    assert_eq!(replica.role(), Role::Replica);

    primary.kill();
    replica.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&rdir).ok();
}
