//! The TCP front end: listener, connection threads, and graceful shutdown.
//!
//! Thread model:
//!
//! * one **accept** thread owns the listener and, at shutdown, the teardown
//!   sequence (join batcher → unblock and join connection threads);
//! * one **connection** thread per client decodes frames and offers work to
//!   the [`AdmissionQueue`]; replies are written through a per-connection
//!   mutex so batcher scatters and inline rejections never interleave bytes;
//! * one **batcher** thread issues the fused storage calls ([`Batcher`]).
//!
//! Shutdown (from a `Shutdown` frame or [`ServerHandle::shutdown`]) is
//! graceful: admission closes immediately (new work is rejected with
//! `ShuttingDown`), the batcher drains everything already admitted and
//! flushes the table — under a group-commit config that is the WAL/fsync
//! path — and only then are client sockets shut down and joined.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mlkv::{BackendKind, EmbeddingTable};
use mlkv_storage::{
    FaultTuning, KvStore, ReplicationTuning, StorageError, StorageMetrics, StorageResult,
    StoreConfig, WalTap,
};

use crate::batcher::Batcher;
use crate::dedup::{is_reserved_key, DedupWindow};
use crate::health::{Health, HealthState, Role};
use crate::protocol::{encode_error, read_frame, write_frame, ErrorCode, Request, Response};
use crate::queue::{AdmissionQueue, Pending, Work};
use crate::repl::{ReplicationClient, ReplicationHub, ReplicationMode};

/// Default admission-queue capacity (requests).
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Builder for a serving instance: the store it opens is described by one
/// [`StoreConfig`]; the serving knobs cover admission, fault handling and
/// replication. Dispatch has none (see [`crate::batcher`]).
pub struct ServerBuilder {
    backend: BackendKind,
    dim: usize,
    staleness_bound: u32,
    store_config: StoreConfig,
    seed: u64,
    env_overrides: bool,
    queue_capacity: usize,
    table: Option<Arc<EmbeddingTable>>,
    dedup_slots: Option<usize>,
    probe_interval: Option<Duration>,
    unavailable_retry_after_ms: Option<u64>,
    replicate_from: Option<String>,
    replication_mode: Option<ReplicationMode>,
    replication_tuning: Option<ReplicationTuning>,
}

impl ServerBuilder {
    /// Start from a backend and an embedding dimension.
    pub fn new(backend: BackendKind, dim: usize) -> Self {
        Self {
            backend,
            dim,
            staleness_bound: 0,
            store_config: StoreConfig::in_memory(),
            seed: 0x5eed,
            env_overrides: true,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            table: None,
            dedup_slots: None,
            probe_interval: None,
            unavailable_retry_after_ms: None,
            replicate_from: None,
            replication_mode: None,
            replication_tuning: None,
        }
    }

    /// Staleness bound forwarded to the table (0 = strict).
    pub fn staleness_bound(mut self, bound: u32) -> Self {
        self.staleness_bound = bound;
        self
    }

    /// Configuration of the store the server opens (directory, memory
    /// budget, parallelism, I/O backend, durability, …); default
    /// [`StoreConfig::in_memory`]. `MLKV_*` overrides apply on top unless
    /// [`ServerBuilder::env_overrides`] is off.
    pub fn store_config(mut self, config: StoreConfig) -> Self {
        self.store_config = config;
        self
    }

    /// Seed for deterministic embedding initialisation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether `MLKV_*` environment overrides apply (default true).
    pub fn env_overrides(mut self, apply: bool) -> Self {
        self.env_overrides = apply;
        self
    }

    /// Admission-queue capacity; beyond it requests are shed with
    /// [`StorageError::Overloaded`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Serve an existing table instead of building one (tests, embedding the
    /// server in a trainer process). The store config is ignored.
    pub fn table(mut self, table: Arc<EmbeddingTable>) -> Self {
        self.table = Some(table);
        self
    }

    /// Slots in the idempotency dedup window (default from
    /// `MLKV_DEDUP_SLOTS`, else 1024). One durable marker key per slot.
    pub fn dedup_slots(mut self, slots: usize) -> Self {
        self.dedup_slots = Some(slots);
        self
    }

    /// Spacing between recovery probes while degraded (default from
    /// `MLKV_HEALTH_PROBE_MS`; zero probes on every tick).
    pub fn probe_interval(mut self, interval: Duration) -> Self {
        self.probe_interval = Some(interval);
        self
    }

    /// The `retry_after` hint (ms) carried by `Unavailable` rejections while
    /// the server is degraded.
    pub fn unavailable_retry_after_ms(mut self, ms: u64) -> Self {
        self.unavailable_retry_after_ms = Some(ms);
        self
    }

    /// Start as a replica of the server at `addr` (`HOST:PORT`): the server
    /// comes up in [`Role::Replica`], applies the primary's WAL stream, and
    /// refuses client mutations until [`ServerHandle::promote`].
    pub fn replicate_from(mut self, addr: impl Into<String>) -> Self {
        self.replicate_from = Some(addr.into());
        self
    }

    /// Primary-side acknowledgement mode (default [`ReplicationMode::Async`],
    /// overridable by `MLKV_REPLICATION_MODE` when env overrides apply).
    /// Setting any mode also attaches a [`WalTap`] to the store so replicas
    /// can stream from this server.
    pub fn replication_mode(mut self, mode: ReplicationMode) -> Self {
        self.replication_mode = Some(mode);
        self
    }

    /// Replication tuning (tap retention, ack timeout, heartbeat); default
    /// from the `MLKV_REPLICATION_*` environment knobs.
    pub fn replication_tuning(mut self, tuning: ReplicationTuning) -> Self {
        self.replication_tuning = Some(tuning);
        self
    }

    /// Whether this build participates in replication at all (as primary
    /// source, as replica, or because the environment turned it on).
    fn replication_enabled(&self) -> bool {
        self.replicate_from.is_some()
            || self.replication_mode.is_some()
            || (self.env_overrides && ReplicationMode::from_env().is_some())
    }

    fn effective_replication_tuning(&self) -> ReplicationTuning {
        self.replication_tuning.unwrap_or_else(|| {
            if self.env_overrides {
                ReplicationTuning::from_env()
            } else {
                ReplicationTuning::default()
            }
        })
    }

    fn effective_replication_mode(&self) -> ReplicationMode {
        self.replication_mode
            .or_else(|| {
                if self.env_overrides {
                    ReplicationMode::from_env()
                } else {
                    None
                }
            })
            .unwrap_or(ReplicationMode::Async)
    }

    fn build_table(&self) -> StorageResult<Arc<EmbeddingTable>> {
        if let Some(table) = &self.table {
            return Ok(Arc::clone(table));
        }
        let mut config = self.store_config.clone();
        if self.env_overrides {
            config = config.apply_env_overrides();
        }
        if self.replication_enabled() {
            // Attach the tap replicas stream from. A replica gets one too:
            // replicated groups re-logged in its own WAL publish into it, so
            // a promoted replica can in turn serve downstream replicas.
            let retention = self.effective_replication_tuning().retention_groups;
            config = config.with_wal_tap(Arc::new(WalTap::new(retention)));
        }
        let store = mlkv::open_store(self.backend, config)?;
        let table = EmbeddingTable::builder(store)
            .dim(self.dim)
            .staleness_bound(self.staleness_bound)
            .seed(self.seed)
            .build()?;
        Ok(Arc::new(table))
    }

    /// Bind `addr`, spawn the accept and batcher threads, and return the
    /// running server's handle.
    pub fn serve(self, addr: impl std::net::ToSocketAddrs) -> StorageResult<ServerHandle> {
        let table = self.build_table()?;
        let metrics = table.store().metrics();
        let queue = Arc::new(AdmissionQueue::new(self.queue_capacity));
        let listener = TcpListener::bind(addr).map_err(StorageError::Io)?;
        let local_addr = listener.local_addr().map_err(StorageError::Io)?;

        let tuning = if self.env_overrides {
            FaultTuning::from_env()
        } else {
            FaultTuning::default()
        };
        // By default the `retry_after` hint matches the probe spacing: there
        // is no point retrying before the server even tries to heal.
        let health = Arc::new(Health::new(
            self.unavailable_retry_after_ms
                .unwrap_or(tuning.probe_interval_ms),
            self.probe_interval
                .unwrap_or(Duration::from_millis(tuning.probe_interval_ms)),
            Arc::clone(&metrics),
        ));
        let dedup = Arc::new(DedupWindow::new(
            self.dedup_slots.unwrap_or(tuning.dedup_slots),
        ));
        // Rebuild the idempotency window from the durable markers, so retries
        // that land on a restarted server are still deduplicated.
        dedup.recover(table.store().as_ref());

        let repl_tuning = self.effective_replication_tuning();
        let repl_mode = self.effective_replication_mode();
        let repl = Arc::new(ReplicationHub::new(
            table.store().replication_tap(),
            Arc::clone(&metrics),
            repl_tuning,
        ));
        let repl_client = match &self.replicate_from {
            Some(primary) => {
                health.set_role(Role::Replica);
                Some(ReplicationClient::spawn(
                    primary.clone(),
                    Arc::clone(table.store()),
                    Arc::clone(&metrics),
                    repl_tuning,
                ))
            }
            None => None,
        };

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            queue: Arc::clone(&queue),
            metrics: Arc::clone(&metrics),
            conns: Mutex::new(Vec::new()),
            local_addr,
            health: Arc::clone(&health),
            store: Arc::clone(table.store()),
            repl: Arc::clone(&repl),
        });

        let batcher = Batcher::new(
            Arc::clone(&table),
            Arc::clone(&queue),
            Arc::clone(&metrics),
            Arc::clone(&health),
            Arc::clone(&dedup),
        )
        .with_replication(Arc::clone(&repl), repl_mode);
        let batcher_thread = thread::Builder::new()
            .name("mlkv-batcher".into())
            .spawn(move || batcher.run())
            .map_err(StorageError::Io)?;

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("mlkv-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, batcher_thread))
            .map_err(StorageError::Io)?;

        Ok(ServerHandle {
            shared,
            accept: Mutex::new(Some(accept_thread)),
            table,
            dedup,
            repl_client: Mutex::new(repl_client),
        })
    }
}

struct Shared {
    shutdown: AtomicBool,
    queue: Arc<AdmissionQueue>,
    metrics: Arc<StorageMetrics>,
    /// Read halves of live connections keyed by connection id, kept so
    /// teardown can unblock their blocking `read_frame` via
    /// `TcpStream::shutdown`. A connection thread removes its own entry on
    /// exit — the socket then closes as soon as the last reply writer drops,
    /// so departed clients see FIN promptly and dead fds don't accumulate.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    local_addr: SocketAddr,
    health: Arc<Health>,
    /// The served store, handed to replication streams for snapshot
    /// catch-up.
    store: Arc<dyn KvStore>,
    repl: Arc<ReplicationHub>,
}

impl Shared {
    /// Flip the shutdown flag, close admission, and poke the accept loop.
    /// Safe to call from any thread (including connection threads): teardown
    /// itself happens on the accept thread.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.health.set_draining();
        self.queue.close();
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// Handle to a running server: its address, its table, and shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<StorageResult<()>>>>,
    table: Arc<EmbeddingTable>,
    dedup: Arc<DedupWindow>,
    repl_client: Mutex<Option<ReplicationClient>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The table being served.
    pub fn table(&self) -> &Arc<EmbeddingTable> {
        &self.table
    }

    /// Serving metrics (admitted/rejected counters, ticks, fused keys).
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.shared.metrics
    }

    /// Current health state (`Serving`, `Degraded`, or `Draining`).
    pub fn health(&self) -> HealthState {
        self.shared.health.state()
    }

    /// Current replication role (`Primary` or `Replica`).
    pub fn role(&self) -> Role {
        self.shared.health.role()
    }

    /// Number of replica streams currently attached to this server.
    pub fn replica_count(&self) -> usize {
        self.shared.repl.replica_count()
    }

    /// Promote this replica to primary: stop the replication pump, rebuild
    /// the idempotency dedup window from the replicated durable session
    /// markers (exactly as restart recovery does, so in-flight client retries
    /// dedup across the failover), and flip to [`Role::Primary`]. Idempotent;
    /// a no-op on a server that is already primary.
    pub fn promote(&self) -> StorageResult<()> {
        if self.shared.health.role() == Role::Primary {
            return Ok(());
        }
        let client = self
            .repl_client
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(client) = client {
            client.stop();
        }
        self.dedup.recover(self.table.store().as_ref());
        self.shared.health.set_role(Role::Primary);
        self.shared.metrics.record_repl_promotion();
        Ok(())
    }

    /// Abrupt termination for failover tests: sever every client connection
    /// *first* — so no acknowledgement written after this point can reach a
    /// client — then tear the server down. From a client's perspective this
    /// is indistinguishable from the process dying mid-run.
    pub fn kill(&self) {
        let client = self
            .repl_client
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(client) = client {
            client.stop();
        }
        for (_, conn) in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        self.shared.begin_shutdown();
        let handle = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Gracefully stop: close admission, drain in-flight batches, flush the
    /// table, close connections, join every thread. Idempotent; returns the
    /// batcher's flush result.
    pub fn shutdown(&self) -> StorageResult<()> {
        let client = self
            .repl_client
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(client) = client {
            client.stop();
        }
        self.shared.begin_shutdown();
        let handle = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take();
        match handle {
            Some(h) => h.join().unwrap_or_else(|_| {
                Err(StorageError::Io(io::Error::other(
                    "server accept thread panicked",
                )))
            }),
            None => Ok(()),
        }
    }

    /// Block until the server stops on its own (e.g. a client sent a
    /// `Shutdown` frame). Equivalent to `shutdown()` without initiating it.
    pub fn join(&self) -> StorageResult<()> {
        let handle = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take();
        match handle {
            Some(h) => h.join().unwrap_or_else(|_| {
                Err(StorageError::Io(io::Error::other(
                    "server accept thread panicked",
                )))
            }),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Accept loop; owns teardown so joins never run on a connection thread.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    batcher: JoinHandle<Result<(), StorageError>>,
) -> StorageResult<()> {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn_id: u64 = 0;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let read_half = match stream.try_clone() {
            Ok(c) => c,
            Err(_) => continue,
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((conn_id, read_half));
        let conn_shared = Arc::clone(&shared);
        if let Ok(h) = thread::Builder::new()
            .name("mlkv-conn".into())
            .spawn(move || connection_loop(conn_id, stream, conn_shared))
        {
            conn_threads.push(h);
        }
    }
    drop(listener);

    // Drain: the queue is closed, so the batcher finishes everything already
    // admitted, replies, and flushes the table before exiting.
    let flush_result = batcher.join().unwrap_or_else(|_| {
        Err(StorageError::Io(io::Error::other(
            "batcher thread panicked",
        )))
    });

    // Only now unblock readers and join connection threads; replies for
    // drained work have already been written.
    for (_, conn) in shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
    {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    for h in conn_threads {
        let _ = h.join();
    }
    flush_result
}

/// Per-connection thread body: run the frame loop, then retire this
/// connection's teardown handle. Without the removal the clone registered in
/// `Shared::conns` would keep the socket open after the thread exits, so a
/// peer that triggered a malformed-frame close would block forever waiting
/// for FIN (and every dead connection would leak an fd until shutdown).
fn connection_loop(conn_id: u64, stream: TcpStream, shared: Arc<Shared>) {
    connection_frames(stream, &shared);
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|(id, _)| *id != conn_id);
}

/// Per-connection read loop: decode a frame, dispatch, repeat until EOF,
/// error, or shutdown.
fn connection_frames(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    // Writer shared between this thread (inline replies) and the batcher
    // (scattered replies), serialised frame-at-a-time.
    let writer: Arc<Mutex<TcpStream>> = Arc::new(Mutex::new(stream));

    loop {
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) => return, // clean EOF
            Err(_) => return,   // disconnect or oversized frame
        };
        let request = match Request::decode(&body) {
            Ok(r) => r,
            Err(err) => {
                // Malformed payload inside a well-framed message: answer with
                // a typed error, then drop the connection — after a decode
                // failure the stream cannot be trusted to stay aligned.
                send(
                    &writer,
                    &Response::Error {
                        id: 0,
                        code: ErrorCode::Malformed,
                        message: err.to_string(),
                    },
                );
                return;
            }
        };
        match request {
            Request::Ping => {
                if !send(&writer, &Response::Pong) {
                    return;
                }
            }
            Request::Shutdown => {
                send(&writer, &Response::ShutdownStarted);
                shared.begin_shutdown();
                return;
            }
            Request::Gather {
                id,
                deadline_us,
                keys,
            } => {
                dispatch(shared, &writer, id, 0, deadline_us, Work::Gather { keys });
            }
            Request::Apply {
                id,
                session_id,
                deadline_us,
                lr,
                updates,
                ..
            } => {
                dispatch(
                    shared,
                    &writer,
                    id,
                    session_id,
                    deadline_us,
                    Work::Apply { lr, updates },
                );
            }
            Request::ReplHandshake { applied } => {
                // The connection stops being request/response and becomes a
                // replication stream until the replica detaches.
                shared.repl.serve_replica(
                    reader,
                    writer,
                    Arc::clone(&shared.store),
                    applied,
                    &shared.shutdown,
                );
                return;
            }
            Request::ReplAck { .. } => {
                // Acks are only meaningful inside a stream (where the hub's
                // ack reader consumes them); stray ones poison the framing.
                send(
                    &writer,
                    &Response::Error {
                        id: 0,
                        code: ErrorCode::InvalidArgument,
                        message: "replication ack outside a replication stream".into(),
                    },
                );
                return;
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Offer one request to the admission queue; on rejection answer inline with
/// the typed error.
fn dispatch(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    id: u64,
    session_id: u64,
    deadline_us: u64,
    work: Work,
) {
    // The top of the key space belongs to the server (dedup markers, health
    // probes); a client request touching it could forge or clobber an
    // acknowledgement marker, so it is refused outright.
    let touches_reserved = match &work {
        Work::Gather { keys } => keys.iter().copied().any(is_reserved_key),
        Work::Apply { updates, .. } => updates.iter().any(|(k, _)| is_reserved_key(*k)),
    };
    if touches_reserved {
        shared.metrics.record_serve_rejected();
        let err = StorageError::InvalidArgument(format!(
            "keys at or above {:#x} are reserved for server metadata",
            crate::dedup::RESERVED_KEY_BASE
        ));
        let (code, message) = encode_error(&err);
        send(writer, &Response::Error { id, code, message });
        return;
    }
    let deadline = (deadline_us > 0).then(|| Instant::now() + Duration::from_micros(deadline_us));
    let reply_writer = Arc::clone(writer);
    let pending = Pending {
        id,
        session_id,
        deadline_us,
        deadline,
        work,
        reply: Box::new(move |response| {
            send(&reply_writer, &response);
        }),
    };
    match shared.queue.offer(pending) {
        Ok(()) => shared.metrics.record_serve_admitted(),
        Err((rejected, err)) => {
            shared.metrics.record_serve_rejected();
            let (code, message) = encode_error(&err);
            send(
                writer,
                &Response::Error {
                    id: rejected.id,
                    code,
                    message,
                },
            );
        }
    }
}

/// Write one response frame; false when the peer is gone.
fn send(writer: &Arc<Mutex<TcpStream>>, response: &Response) -> bool {
    let body = response.encode();
    let mut guard = writer.lock().unwrap_or_else(|e| e.into_inner());
    write_frame(&mut *guard, &body)
        .and_then(|()| guard.flush())
        .is_ok()
}
