//! End-to-end tests of the TCP serving tier: a real listener on loopback,
//! real client connections, the admission queue and batcher in between.
//!
//! The core correctness test is a shadow run: seeded multi-client traffic
//! (every client owns a disjoint key range) through the server must leave the
//! served table byte-identical to replaying each client's operation stream
//! directly against a plain table. Around it: connect/disconnect churn,
//! malformed and truncated frames, deadline expiry, and graceful shutdown
//! draining already-admitted work.
//!
//! The batcher dispatches whatever is queued the moment its previous tick
//! returns, so tests that need requests to *wait* in the queue hold the
//! batcher inside an engine call with a [`GatedStore`] instead of guessing at
//! timings.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

use mlkv::{open_store, BackendKind, EmbeddingTable};
use mlkv_server::protocol::{read_frame, write_frame, ErrorCode, Request, Response};
use mlkv_server::{Client, ServerBuilder, ServerHandle};
use mlkv_storage::kv::{Key, ReadResult};
use mlkv_storage::{
    BatchRmwFn, DurabilityMode, KvStore, MemStore, StorageError, StorageMetrics, StorageResult,
    StoreConfig, WriteBatch,
};

const DIM: usize = 8;
const SEED: u64 = 42;

fn make_table(backend: BackendKind) -> Arc<EmbeddingTable> {
    table_over(
        open_store(
            backend,
            StoreConfig::in_memory()
                .with_memory_budget(8 << 20)
                .with_page_size(4 << 10),
        )
        .unwrap(),
    )
}

fn table_over(store: Arc<dyn KvStore>) -> Arc<EmbeddingTable> {
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
        .serve("127.0.0.1:0")
        .unwrap()
}

/// An in-memory store whose `multi_get` parks while the gate is closed: a
/// gather caught in it keeps the (single-threaded) batcher provably busy, so
/// everything sent meanwhile waits in the admission queue.
struct GatedStore {
    inner: MemStore,
    gate: Mutex<Gate>,
    changed: Condvar,
}

#[derive(Default)]
struct Gate {
    closed: bool,
    parked: usize,
    /// Key list of every `multi_get` so far, in call order.
    calls: Vec<Vec<Key>>,
}

impl GatedStore {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: MemStore::new(),
            gate: Mutex::new(Gate::default()),
            changed: Condvar::new(),
        })
    }

    fn set_closed(&self, closed: bool) {
        self.gate.lock().unwrap().closed = closed;
        self.changed.notify_all();
    }

    /// Block until a `multi_get` is parked in the closed gate.
    fn wait_until_parked(&self) {
        let mut gate = self.gate.lock().unwrap();
        while gate.parked == 0 {
            gate = self.changed.wait(gate).unwrap();
        }
    }

    fn calls(&self) -> Vec<Vec<Key>> {
        self.gate.lock().unwrap().calls.clone()
    }
}

impl KvStore for GatedStore {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        self.inner.get_traced(key)
    }
    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        let mut gate = self.gate.lock().unwrap();
        gate.calls.push(keys.to_vec());
        gate.parked += 1;
        self.changed.notify_all();
        while gate.closed {
            gate = self.changed.wait(gate).unwrap();
        }
        gate.parked -= 1;
        drop(gate);
        self.inner.multi_get(keys)
    }
    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        self.inner.multi_rmw(keys, f)
    }
    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
        self.inner.write_batch(batch)
    }
    fn approximate_len(&self) -> usize {
        self.inner.approximate_len()
    }
    fn metrics(&self) -> Arc<StorageMetrics> {
        self.inner.metrics()
    }
    fn flush(&self) -> StorageResult<()> {
        self.inner.flush()
    }
}

/// A raw protocol connection: unlike [`Client`] it can pipeline, which is
/// what lets a test put several requests behind a held tick.
struct Wire(TcpStream);

impl Wire {
    fn connect(handle: &ServerHandle) -> Self {
        Self(TcpStream::connect(handle.local_addr()).unwrap())
    }

    fn send(&mut self, request: &Request) {
        write_frame(&mut self.0, &request.encode()).unwrap();
    }

    fn recv(&mut self) -> Response {
        let body = read_frame(&mut self.0).unwrap().expect("a reply frame");
        Response::decode(&body).unwrap()
    }

    /// Send `request` and return once the server has offered it to the
    /// admission queue: a connection's frames are handled in order, so the
    /// pong proves the request ahead of it was dispatched.
    fn send_admitted(&mut self, request: &Request) {
        self.send(request);
        self.send(&Request::Ping);
        assert_eq!(self.recv(), Response::Pong);
    }
}

fn gather_request(id: u64, keys: &[u64]) -> Request {
    Request::Gather {
        id,
        deadline_us: 0,
        keys: keys.to_vec(),
    }
}

/// Serve a table over a fresh [`GatedStore`] with one gather already caught
/// in the closed gate: on return the batcher is mid-tick and the admission
/// queue is empty. The held gather (id 1, key 900) stays pending on the
/// returned connection until the gate opens.
fn serve_with_held_tick(queue_capacity: usize) -> (Arc<GatedStore>, ServerHandle, Wire) {
    let store = GatedStore::new();
    let handle = ServerBuilder::new(BackendKind::InMemory, DIM)
        .table(table_over(Arc::clone(&store) as Arc<dyn KvStore>))
        .queue_capacity(queue_capacity)
        .serve("127.0.0.1:0")
        .unwrap();
    store.set_closed(true);
    let mut held = Wire::connect(&handle);
    held.send(&gather_request(1, &[900]));
    store.wait_until_parked();
    (store, handle, held)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One client's deterministic operation stream over its private key range.
enum Op {
    Gather(Vec<u64>),
    Apply(Vec<(u64, Vec<f32>)>, f32),
}

fn client_ops(client: u64, ops: usize, keys_per_op: usize) -> Vec<Op> {
    let base = client * 1000;
    let span = 50u64;
    let mut rng = 0xC0FFEE ^ (client << 32);
    (0..ops)
        .map(|_| {
            let keys: Vec<u64> = (0..keys_per_op)
                .map(|_| base + splitmix(&mut rng) % span)
                .collect();
            if splitmix(&mut rng).is_multiple_of(2) {
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
                Op::Apply(updates, 0.05)
            }
        })
        .collect()
}

#[test]
fn seeded_multi_client_run_matches_single_caller_shadow() {
    const CLIENTS: u64 = 6;
    const OPS: usize = 30;
    const KEYS_PER_OP: usize = 4;

    let served = make_table(BackendKind::Faster);
    let handle = serve(Arc::clone(&served));
    let addr = handle.local_addr();

    let mut threads = Vec::new();
    for c in 0..CLIENTS {
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for op in client_ops(c, OPS, KEYS_PER_OP) {
                match op {
                    Op::Gather(keys) => {
                        let rows = client.gather(&keys, None).unwrap();
                        assert_eq!(rows.len(), keys.len());
                        for row in rows {
                            assert_eq!(row.len(), DIM);
                        }
                    }
                    Op::Apply(updates, lr) => {
                        client.apply_gradients(&updates, lr, None).unwrap();
                    }
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown().unwrap();

    // Replay every client's stream serially against a fresh shadow table.
    // Ranges are disjoint and the server preserves per-connection order, so
    // interleaving across clients cannot change any row.
    let shadow = make_table(BackendKind::Faster);
    for c in 0..CLIENTS {
        for op in client_ops(c, OPS, KEYS_PER_OP) {
            match op {
                Op::Gather(keys) => {
                    shadow.gather(&keys).unwrap();
                }
                Op::Apply(updates, lr) => {
                    let borrowed: Vec<(u64, &[f32])> =
                        updates.iter().map(|(k, g)| (*k, g.as_slice())).collect();
                    shadow.apply_gradients(&borrowed, lr).unwrap();
                }
            }
        }
    }

    let all_keys: Vec<u64> = (0..CLIENTS)
        .flat_map(|c| (0..50).map(move |k| c * 1000 + k))
        .collect();
    assert_eq!(
        served.gather(&all_keys).unwrap(),
        shadow.gather(&all_keys).unwrap(),
        "served table diverged from the single-caller shadow run"
    );
}

#[test]
fn connect_disconnect_churn_leaves_server_healthy() {
    let handle = serve(make_table(BackendKind::InMemory));
    let addr = handle.local_addr();

    for round in 0..20u64 {
        match round % 3 {
            // Full round trip then clean disconnect.
            0 => {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                let rows = client.gather(&[round, round + 1], None).unwrap();
                assert_eq!(rows.len(), 2);
            }
            // Connect and vanish without a single frame.
            1 => {
                let _ = TcpStream::connect(addr).unwrap();
            }
            // Drop mid-conversation (after one request).
            _ => {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
            }
        }
    }

    let mut survivor = Client::connect(addr).unwrap();
    survivor.ping().unwrap();
    assert_eq!(survivor.gather(&[7], None).unwrap().len(), 1);
    handle.shutdown().unwrap();
}

#[test]
fn malformed_and_truncated_frames_do_not_kill_the_server() {
    let handle = serve(make_table(BackendKind::InMemory));
    let addr = handle.local_addr();

    // Unknown opcode inside a well-formed frame: typed Malformed error, then
    // the server closes that connection.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &[0x7F, 1, 2, 3]).unwrap();
        let body = read_frame(&mut stream).unwrap().expect("error reply");
        match Response::decode(&body).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!(id, 0);
                assert_eq!(code, ErrorCode::Malformed);
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
        assert!(
            read_frame(&mut stream).unwrap().is_none(),
            "connection closes after a malformed frame"
        );
    }

    // Truncated frame: a length prefix promising more bytes than ever arrive.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
        drop(stream); // mid-frame disconnect
    }

    // Garbage length prefix far beyond the frame cap.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // Server rejects without allocating 4 GiB and drops the connection.
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    // A gather frame whose payload lies about its key count.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let good = Request::Gather {
            id: 1,
            deadline_us: 0,
            keys: vec![1, 2, 3],
        }
        .encode();
        write_frame(&mut stream, &good[..good.len() - 4]).unwrap();
        let body = read_frame(&mut stream).unwrap().expect("error reply");
        assert!(matches!(
            Response::decode(&body).unwrap(),
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
    }

    // After all of that abuse, an honest client still gets served.
    let mut survivor = Client::connect(addr).unwrap();
    assert_eq!(survivor.gather(&[1, 2], None).unwrap().len(), 2);
    handle.shutdown().unwrap();
}

#[test]
fn expired_deadline_comes_back_as_typed_error() {
    let (store, handle, mut held) = serve_with_held_tick(64);

    // A 1us budget behind a held tick: the request either expires while it
    // waits in the queue or is already expired at admission — the same typed
    // error and the same counter either way.
    let mut wire = Wire::connect(&handle);
    wire.send(&Request::Gather {
        id: 7,
        deadline_us: 1,
        keys: vec![1, 2, 3],
    });
    wire.send(&Request::Ping);
    // The first reply (the pong, or the admission-time rejection ahead of it)
    // proves the request was dispatched — at least a round trip ago, so its
    // budget is spent before the engine frees up.
    let mut replies = vec![wire.recv()];
    store.set_closed(false);
    replies.push(wire.recv());
    replies.retain(|r| *r != Response::Pong);
    assert!(
        matches!(
            replies.as_slice(),
            [Response::Error {
                id: 7,
                code: ErrorCode::DeadlineExceeded,
                ..
            }]
        ),
        "want one DeadlineExceeded for id 7 beside the pong, got {replies:?}"
    );
    assert!(matches!(held.recv(), Response::Rows { id: 1, .. }));

    // The connection survives a rejected request.
    wire.send(&gather_request(8, &[1]));
    assert!(matches!(wire.recv(), Response::Rows { id: 8, .. }));
    handle.shutdown().unwrap();
    assert_eq!(handle.metrics().snapshot().serve_rejected, 1);
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    let (store, handle, mut held) = serve_with_held_tick(64);
    let addr = handle.local_addr();

    // Four gathers admitted behind the held tick; shutdown must answer them
    // all (drain) rather than drop them.
    let mut waiters: Vec<Wire> = (0..4u64)
        .map(|c| {
            let mut wire = Wire::connect(&handle);
            wire.send_admitted(&gather_request(10 + c, &[c * 10, c * 10 + 1]));
            wire
        })
        .collect();

    let mut admin = Client::connect(addr).unwrap();
    admin.shutdown_server().unwrap();
    store.set_closed(false);
    handle.join().unwrap();

    assert!(matches!(held.recv(), Response::Rows { id: 1, .. }));
    for (c, wire) in waiters.iter_mut().enumerate() {
        match wire.recv() {
            Response::Rows { id, rows, .. } => {
                assert_eq!(id, 10 + c as u64);
                assert_eq!(rows.len(), 2, "queued gather was answered during drain");
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }
    assert_eq!(handle.metrics().snapshot().serve_admitted, 5);

    // New connections are refused once the listener is gone.
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
}

#[test]
fn server_builds_its_own_durable_store_and_flushes_on_shutdown() {
    let dir = std::env::temp_dir().join(format!("mlkv-serving-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let handle = ServerBuilder::new(BackendKind::Faster, DIM)
        .store_config(
            StoreConfig::on_disk(&dir)
                .with_memory_budget(4 << 20)
                .with_durability(DurabilityMode::GroupCommit { window: 1024 }),
        )
        .seed(SEED)
        .serve("127.0.0.1:0")
        .unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let before = client.gather(&[11], None).unwrap();
    client
        .apply_gradients(&[(11, vec![1.0; DIM])], 0.5, None)
        .unwrap();
    let after = client.gather(&[11], None).unwrap();
    for d in 0..DIM {
        assert!((after[0][d] - (before[0][d] - 0.5)).abs() < 1e-6);
    }

    // Graceful shutdown drains and flushes through the group-commit path.
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_typed_error() {
    // Capacity 1 behind a held tick: the first request occupies the queue,
    // the second must be shed at admission.
    let (store, handle, mut held) = serve_with_held_tick(1);

    let mut wire = Wire::connect(&handle);
    wire.send(&gather_request(2, &[2]));
    wire.send(&gather_request(3, &[3]));
    match wire.recv() {
        Response::Error { id, code, message } => {
            assert_eq!((id, code), (3, ErrorCode::Overloaded));
            let err = mlkv_server::decode_error(code, &message);
            assert!(
                matches!(err, StorageError::Overloaded { capacity: 1, .. }),
                "want Overloaded, got {err:?}"
            );
        }
        other => panic!("the shed request is answered first, got {other:?}"),
    }

    store.set_closed(false);
    assert!(matches!(held.recv(), Response::Rows { id: 1, .. }));
    assert!(
        matches!(wire.recv(), Response::Rows { id: 2, .. }),
        "the queued request is served once the engine frees up"
    );
    handle.shutdown().unwrap();
}

#[test]
fn sequential_requests_are_never_held_for_company() {
    const REQUESTS: u64 = 25;
    const KEYS: u64 = 3;
    let handle = serve(make_table(BackendKind::InMemory));
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for r in 0..REQUESTS {
        let keys: Vec<u64> = (0..KEYS).map(|k| r * KEYS + k).collect();
        assert_eq!(client.gather(&keys, None).unwrap().len(), keys.len());
    }
    // Joining the batcher first makes the last tick's counters visible.
    handle.shutdown().unwrap();
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.serve_ticks, REQUESTS, "one tick per lone request");
    assert_eq!(snap.serve_fused_keys, REQUESTS * KEYS);
}

#[test]
fn arrivals_during_a_busy_tick_fuse_into_the_next_one_in_admission_order() {
    let (store, handle, mut held) = serve_with_held_tick(64);

    // Four connections, admitted one after another while the engine is busy.
    let requests = [
        gather_request(11, &[5, 6]),
        gather_request(12, &[7, 5]),
        Request::Apply {
            id: 13,
            session_id: 0,
            deadline_us: 0,
            lr: 1.0,
            dim: DIM as u32,
            updates: vec![(5, vec![1.0; DIM])],
        },
        gather_request(14, &[5]),
    ];
    let mut wires: Vec<Wire> = requests
        .iter()
        .map(|request| {
            let mut wire = Wire::connect(&handle);
            wire.send_admitted(request);
            wire
        })
        .collect();
    store.set_closed(false);
    assert!(matches!(held.recv(), Response::Rows { id: 1, .. }));
    let replies: Vec<Response> = wires.iter_mut().map(Wire::recv).collect();
    handle.shutdown().unwrap();

    // One tick for the held gather, one for everything that queued behind it.
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.serve_ticks, 2);
    assert_eq!(snap.serve_fused_keys, 1 + 2 + 2 + 1 + 1);
    // The two leading gathers shared one engine read (the table hands the
    // store sorted distinct keys); the gather behind the apply got its own.
    assert!(
        store
            .calls()
            .ends_with(&[vec![900], vec![5, 6, 7], vec![5]]),
        "engine reads were {:?}",
        store.calls()
    );
    // Admission order inside the tick: rows scatter back to their own
    // requests, and only the gather admitted after the apply sees it.
    let fresh = make_table(BackendKind::InMemory);
    let initial = |keys: &[u64]| fresh.gather(keys).unwrap();
    let rows = |id, rows| Response::Rows {
        id,
        dim: DIM as u32,
        rows,
    };
    let updated: Vec<f32> = initial(&[5])[0].iter().map(|v| v - 1.0).collect();
    assert_eq!(
        replies,
        [
            rows(11, initial(&[5, 6])),
            rows(12, initial(&[7, 5])),
            Response::Applied { id: 13 },
            rows(14, vec![updated]),
        ]
    );
}

/// Satellite: dedup-window behaviour under a flood of short-lived sessions.
/// The window is a fixed direct-mapped table, so (a) its durable footprint in
/// the reserved key range never exceeds the configured slot count no matter
/// how many sessions churn through, (b) after a restart a session whose
/// marker survived the churn still dedups its retry, and (c) an evicted
/// session degrades to re-apply — never to a false acknowledgement.
#[test]
fn session_churn_bounds_dedup_memory_and_reconciles_through_markers() {
    use mlkv_server::{ClientOptions, RESERVED_KEY_BASE};

    const SLOTS: usize = 4;
    let dir = std::env::temp_dir().join(format!(
        "mlkv-dedup-churn-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let builder = || {
        ServerBuilder::new(BackendKind::RocksDbLike, DIM)
            .staleness_bound(u32::MAX)
            .seed(SEED)
            .store_config(
                StoreConfig::on_disk(&dir)
                    .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
                    .with_parallelism(1),
            )
            .dedup_slots(SLOTS)
    };
    let handle = builder().serve("127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    let apply_once = |session: u64, id: u64, key: u64| {
        let mut client = Client::connect_with(addr, ClientOptions::retrying(session, 0)).unwrap();
        client
            .apply_with_id(id, &[(key, vec![1.0; DIM])], 0.1, None)
            .unwrap();
    };

    // The session whose retry we replay later. Slot = 42 % 4 = 2.
    apply_once(42, 1, 7);
    let after_first = handle
        .table()
        .store()
        .multi_get(&[7])
        .pop()
        .unwrap()
        .unwrap();

    // Flood: 64 short-lived sessions, one mutation each. Sessions 44 and 46
    // collide with nothing we check; sessions ≡ 2 (mod 4) evict session 42.
    for s in 100..164u64 {
        apply_once(s, 1, 1000 + s);
    }

    // (a) Bounded durable footprint: however many sessions churned, only the
    // SLOTS reserved marker keys exist — probing beyond them finds nothing.
    let probe: Vec<u64> = (SLOTS as u64..SLOTS as u64 + 16)
        .map(|i| RESERVED_KEY_BASE + i)
        .collect();
    for result in handle.table().store().multi_get(&probe) {
        assert!(
            result.is_err(),
            "dedup marker leaked beyond the {SLOTS}-slot window"
        );
    }

    handle.shutdown().unwrap();

    // (b) Restart: recovery rebuilds the window from the surviving markers.
    // The last writer of slot 2 was session 162 (162 % 4 == 2): its retry
    // must be acknowledged from the recovered marker without re-applying.
    let handle = builder().serve("127.0.0.1:0").unwrap();
    let addr = handle.local_addr();
    let before = handle
        .table()
        .store()
        .multi_get(&[1000 + 162])
        .pop()
        .unwrap()
        .unwrap();
    {
        let mut client = Client::connect_with(addr, ClientOptions::retrying(162, 0)).unwrap();
        client
            .apply_with_id(1, &[(1000 + 162, vec![1.0; DIM])], 0.1, None)
            .unwrap();
    }
    assert_eq!(
        handle
            .table()
            .store()
            .multi_get(&[1000 + 162])
            .pop()
            .unwrap()
            .unwrap(),
        before,
        "surviving marker must dedup the retry across the restart"
    );
    assert!(handle.metrics().snapshot().serve_deduped >= 1);

    // (c) Session 42 was evicted from its slot by the churn: its retry is
    // *not* falsely acknowledged from thin air — it re-applies (at-least-once
    // degradation, never acknowledgement of lost work).
    {
        let mut client = Client::connect_with(addr, ClientOptions::retrying(42, 0)).unwrap();
        client
            .apply_with_id(1, &[(7, vec![1.0; DIM])], 0.1, None)
            .unwrap();
    }
    assert_ne!(
        handle
            .table()
            .store()
            .multi_get(&[7])
            .pop()
            .unwrap()
            .unwrap(),
        after_first,
        "evicted session must degrade to re-apply, not to a silent ack"
    );

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
