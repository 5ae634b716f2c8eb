//! Shared setup for the replication measurements recorded in
//! `BENCH_replication.json`, used by the `emit_bench_json` recorder and the
//! CI replication job.
//!
//! Three questions, one row each per engine:
//!
//! * **Replication lag drain** — with an `Async` primary/replica pair, after
//!   a burst of acknowledged applies, how long until the replica has applied
//!   and acknowledged every shipped WAL group (`repl_lag` back to zero)?
//!   (`catchup_ns`; the burst size is part of the row identity.)
//! * **Failover time** — with a `SemiSync{1}` pair, how long from killing the
//!   primary until the promoted replica has acknowledged a client mutation?
//!   (`failover_ns`: kill + promote + the failover-aware client's endpoint
//!   rotation and retry, measured end to end from the client's seat.)
//! * **Replica read throughput** — replicas serve gathers while refusing
//!   applies; what fraction of the primary's gather throughput does the
//!   replica sustain over the same key pattern?
//!   (`read_throughput_vs_primary`; ~1.0 — the replica read path is the same
//!   engine code, the ratio guards against the apply stream degrading it.)

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mlkv::BackendKind;
use mlkv_server::{Client, ClientOptions, ReplicationMode, Role, ServerBuilder, ServerHandle};
use mlkv_storage::{DurabilityMode, ReplicationTuning, StoreConfig};

/// Embedding dimension of the replicated tables.
pub const DIM: usize = 16;
/// Key space the scenarios apply and gather over.
pub const KEY_SPACE: u64 = 2_000;
/// Keys per gather while measuring read throughput.
pub const GATHER_KEYS: usize = 64;
/// Keys per apply in the lag burst and failover streams.
pub const APPLY_KEYS: usize = 8;
/// The engines the replication sweep records (the same pair as the fault
/// bench; both support snapshot catch-up).
pub const BACKENDS: [BackendKind; 2] = [BackendKind::Faster, BackendKind::RocksDbLike];

fn tuning() -> ReplicationTuning {
    ReplicationTuning {
        retention_groups: 1 << 16,
        ack_timeout_ms: 5_000,
        heartbeat_ms: 5,
    }
}

fn temp_dir(backend: BackendKind, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mlkv-bench-repl-{}-{tag}-{}",
        backend.name(),
        std::process::id()
    ))
}

fn pair_builder(backend: BackendKind, dir: &Path) -> ServerBuilder {
    ServerBuilder::new(backend, DIM)
        .store_config(
            StoreConfig::on_disk(dir)
                .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
                .with_parallelism(1),
        )
        .staleness_bound(u32::MAX)
        .replication_tuning(tuning())
        .unavailable_retry_after_ms(1)
}

/// Start a primary/replica pair on loopback and wait for the replica to
/// register on the primary's replication hub.
fn spawn_pair(
    backend: BackendKind,
    tag: &str,
    mode: ReplicationMode,
) -> (ServerHandle, ServerHandle, PathBuf, PathBuf) {
    let primary_dir = temp_dir(backend, &format!("{tag}-primary"));
    let replica_dir = temp_dir(backend, &format!("{tag}-replica"));
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
    let primary = pair_builder(backend, &primary_dir)
        .replication_mode(mode)
        .serve("127.0.0.1:0")
        .expect("serve primary");
    let replica = pair_builder(backend, &replica_dir)
        .replicate_from(primary.local_addr().to_string())
        .serve("127.0.0.1:0")
        .expect("serve replica");
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.replica_count() == 0 {
        assert!(Instant::now() < deadline, "replica never attached");
        std::thread::sleep(Duration::from_millis(1));
    }
    (primary, replica, primary_dir, replica_dir)
}

fn connect(addr: std::net::SocketAddr, session_id: u64) -> Client {
    Client::connect_with(
        addr,
        ClientOptions {
            session_id,
            max_retries: 16,
            backoff_initial: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            request_timeout: Some(Duration::from_secs(30)),
            ..ClientOptions::default()
        },
    )
    .expect("connect")
}

fn apply_op(round: u64) -> Vec<(u64, Vec<f32>)> {
    (0..APPLY_KEYS as u64)
        .map(|k| ((round * 13 + k * 97) % KEY_SPACE, vec![0.01f32; DIM]))
        .collect()
}

fn gather_keys(round: u64) -> Vec<u64> {
    (0..GATHER_KEYS as u64)
        .map(|k| (round * 17 + k * 31) % KEY_SPACE)
        .collect()
}

/// Mean nanoseconds per gather over `iters` closed-loop requests, after an
/// unmeasured warmup pass (the first gathers after the apply burst pay
/// one-off page-cache and lazy-init costs that are not the steady state).
fn measure_gathers(client: &mut Client, iters: u32) -> u128 {
    for i in 0..iters.div_ceil(4).max(2) {
        client
            .gather(&gather_keys(u64::from(i)), None)
            .expect("warmup gather");
    }
    let start = Instant::now();
    for i in 0..iters {
        client
            .gather(&gather_keys(u64::from(i)), None)
            .expect("bench gather");
    }
    start.elapsed().as_nanos() / u128::from(iters.max(1))
}

/// Lag drain plus read-throughput comparison for one engine.
pub struct LagMeasurement {
    /// Applies in the acknowledged burst.
    pub burst: u64,
    /// Nanoseconds from the first apply of the burst until the replica had
    /// applied and acknowledged every shipped WAL group (the primary's
    /// `repl_lag` gauge back to zero) — end-to-end replicated burst time.
    pub catchup_ns: u128,
    /// Mean gather latency against the primary (nanoseconds).
    pub primary_gather_ns: u128,
    /// Mean gather latency against the replica, taken while it is following.
    pub replica_gather_ns: u128,
    /// `primary_gather_ns / replica_gather_ns` — the replica's relative read
    /// throughput while it applies the stream.
    pub read_throughput_vs_primary: f64,
}

/// Async pair: burst acknowledged applies, time the lag drain, then compare
/// gather latency on both ends of the stream.
pub fn run_lag(backend: BackendKind, burst: u64, gather_iters: u32) -> LagMeasurement {
    let (primary, replica, primary_dir, replica_dir) =
        spawn_pair(backend, "lag", ReplicationMode::Async);
    let mut client = connect(primary.local_addr(), 1);
    let start = Instant::now();
    for i in 0..burst {
        let updates = apply_op(i);
        client
            .apply_gradients(&updates, 0.1, None)
            .expect("burst apply");
    }
    // Quiescence: every group the primary shipped has been applied by the
    // replica and the primary's lag gauge (tail minus min acked offset) is
    // back to zero. The burst is fully acknowledged, so the WAL tail is
    // final and the counters converge.
    let deadline = start + Duration::from_secs(30);
    loop {
        let shipped = primary.metrics().snapshot();
        let applied = replica.metrics().snapshot();
        if shipped.repl_groups_shipped >= 1
            && applied.repl_groups_applied >= shipped.repl_groups_shipped
            && shipped.repl_lag == 0
        {
            break;
        }
        assert!(Instant::now() < deadline, "replication lag never drained");
        std::thread::yield_now();
    }
    let catchup_ns = start.elapsed().as_nanos();

    let primary_gather_ns = measure_gathers(&mut client, gather_iters);
    let mut replica_client = connect(replica.local_addr(), 2);
    let replica_gather_ns = measure_gathers(&mut replica_client, gather_iters);

    primary.shutdown().expect("primary shutdown");
    replica.shutdown().expect("replica shutdown");
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();

    LagMeasurement {
        burst,
        catchup_ns,
        primary_gather_ns,
        replica_gather_ns,
        read_throughput_vs_primary: primary_gather_ns as f64 / replica_gather_ns.max(1) as f64,
    }
}

/// Failover time for one engine.
pub struct FailoverMeasurement {
    /// Acknowledged applies before the kill.
    pub warmup_ops: u64,
    /// Median nanoseconds over [`run_failover`]'s rounds from `kill()` on the
    /// primary until the promoted replica acknowledged a client mutation
    /// (promotion + endpoint rotation + retry). Median, not mean: the gap
    /// depends on where the client's retry backoff lands relative to the
    /// promotion, so single rounds scatter widely.
    pub failover_ns: u128,
}

/// SemiSync pair: kill the primary mid-stream, promote the replica, and time
/// the client-observed gap until mutations are acknowledged again. Each
/// round spawns a fresh pair (the killed primary cannot be reused).
pub fn run_failover(backend: BackendKind, warmup_ops: u64, rounds: usize) -> FailoverMeasurement {
    let mut samples: Vec<u128> = (0..rounds.max(1))
        .map(|_| failover_round(backend, warmup_ops))
        .collect();
    samples.sort_unstable();
    FailoverMeasurement {
        warmup_ops,
        failover_ns: samples[samples.len() / 2],
    }
}

/// One kill/promote/re-ack round; nanoseconds of client-observed outage.
fn failover_round(backend: BackendKind, warmup_ops: u64) -> u128 {
    let (primary, replica, primary_dir, replica_dir) =
        spawn_pair(backend, "failover", ReplicationMode::SemiSync { acks: 1 });
    let mut client = Client::connect_with(
        &[primary.local_addr(), replica.local_addr()][..],
        ClientOptions {
            session_id: 3,
            max_retries: 200,
            backoff_initial: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            request_timeout: Some(Duration::from_secs(60)),
            ..ClientOptions::default()
        },
    )
    .expect("connect failover client");
    for i in 0..warmup_ops {
        let updates = apply_op(i);
        client
            .apply_gradients(&updates, 0.1, None)
            .expect("warmup apply");
    }

    let start = Instant::now();
    primary.kill();
    replica.promote().expect("promote replica");
    let updates = apply_op(warmup_ops);
    client
        .apply_gradients(&updates, 0.1, None)
        .expect("post-failover apply");
    let failover_ns = start.elapsed().as_nanos();
    assert_eq!(replica.role(), Role::Primary);

    replica.shutdown().expect("replica shutdown");
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();

    failover_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_measurement_drains_and_replica_serves_reads() {
        let m = run_lag(BackendKind::Faster, 8, 4);
        assert!(m.primary_gather_ns > 0 && m.replica_gather_ns > 0);
        assert!(m.read_throughput_vs_primary > 0.0);
    }

    #[test]
    fn failover_measurement_completes_a_post_kill_apply() {
        let m = run_failover(BackendKind::Faster, 4, 1);
        assert!(m.failover_ns > 0);
    }
}
