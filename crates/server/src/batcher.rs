//! The batcher: a single thread that turns the admission queue's per-request
//! work into fused storage calls.
//!
//! One dispatch rule: the moment a tick returns, the batcher takes whatever
//! the [`AdmissionQueue`] holds (up to [`MAX_TICK_REQUESTS`]) and runs it. It
//! blocks only while the queue is empty, never on a timer — so a lone request
//! is served at per-request latency, and a batch is exactly the requests that
//! arrived while the engine was busy with the previous tick. Batch size
//! follows load with nothing to tune.
//!
//! Each tick drops work whose deadline expired while queued, fuses the
//! remainder into as few `EmbeddingTable::gather` / `apply_gradients` calls as
//! possible (contiguous runs of the same kind — this preserves per-connection
//! read-your-writes ordering across the batch), and scatters the results back
//! through each request's reply closure.
//!
//! The batcher is also the single authoritative point for the fault-tolerance
//! machinery (it is the only thread that mutates the table, so there are no
//! races to reason about):
//!
//! * **Idempotent retries** — a mutation whose `(session_id, id)` the
//!   [`DedupWindow`] already acknowledged is re-acknowledged without being
//!   re-applied; fresh mutations ride their durable marker in the same fused
//!   batch ([`EmbeddingTable::apply_gradients_tagged`]).
//! * **In-doubt reconciliation** — a NACKed fused apply may already be in
//!   live state, so its sessions are marked in-doubt. Two NACKs leave it
//!   there: a failed apply after the batch was applied (the B+tree journals
//!   only after it applies, and on every engine a failed commit sync comes
//!   after the apply), and a semi-sync NACK, which fails a batch that is
//!   applied and locally durable but unconfirmed by the replica quorum. A
//!   retry from an in-doubt session checks the store-resident marker; if the
//!   failed attempt did land, the current live values are written back
//!   (idempotent) instead of re-applied, so the gradient is never doubled.
//! * **Health-aware degradation** — write faults flip [`Health`] to
//!   `Degraded`; while degraded every tick first runs a recovery probe when
//!   due, gathers keep flowing, and mutations are refused with the retryable
//!   `Unavailable` error.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use mlkv::EmbeddingTable;
use mlkv_storage::{StorageError, StorageMetrics, WriteBatch};

use crate::dedup::{self, DedupWindow};
use crate::health::{Health, HealthState, Role};
use crate::protocol::{encode_error, ErrorCode, Response};
use crate::queue::{AdmissionQueue, Pending, Work};
use crate::repl::{ReplicationHub, ReplicationMode};

/// Most requests one tick takes from the queue; the rest stay queued as the
/// next tick's batch. Bounds a tick's latency (and its reply fan-out) when a
/// burst far larger than any steady-state arrival rate lands at once.
pub const MAX_TICK_REQUESTS: usize = 256;

/// The batcher loop. Runs on its own thread until the queue closes and
/// drains; flushes the table before returning so graceful shutdown reaches
/// the WAL/fsync path.
pub struct Batcher {
    table: Arc<EmbeddingTable>,
    queue: Arc<AdmissionQueue>,
    metrics: Arc<StorageMetrics>,
    health: Arc<Health>,
    dedup: Arc<DedupWindow>,
    /// Sessions whose last fused apply was NACKed: live state may hold their
    /// mutation (a B+tree journal fault, a failed commit sync, a semi-sync
    /// NACK), so a retry must consult the durable marker before re-applying.
    in_doubt: HashSet<u64>,
    /// Replication state for the semi-sync acknowledgement gate (`None`
    /// outside a served replication topology).
    repl: Option<Arc<ReplicationHub>>,
    repl_mode: ReplicationMode,
}

impl Batcher {
    /// Build a batcher over `table`, fed by `queue`, reporting into `metrics`.
    pub fn new(
        table: Arc<EmbeddingTable>,
        queue: Arc<AdmissionQueue>,
        metrics: Arc<StorageMetrics>,
        health: Arc<Health>,
        dedup: Arc<DedupWindow>,
    ) -> Self {
        Self {
            table,
            queue,
            metrics,
            health,
            dedup,
            in_doubt: HashSet::new(),
            repl: None,
            repl_mode: ReplicationMode::Async,
        }
    }

    /// Attach the replication hub and acknowledgement mode. Under
    /// [`ReplicationMode::SemiSync`] every fused apply waits for the quorum
    /// before acknowledging.
    pub fn with_replication(mut self, hub: Arc<ReplicationHub>, mode: ReplicationMode) -> Self {
        self.repl = Some(hub);
        self.repl_mode = mode;
        self
    }

    /// Run until the queue is closed and fully drained, then flush the table.
    /// The flush error (if any) is returned so the server can surface it.
    pub fn run(mut self) -> Result<(), StorageError> {
        while let Some((batch, backlog)) = self.queue.next_batch(MAX_TICK_REQUESTS) {
            self.tick(batch, backlog);
        }
        self.table.flush()
    }

    /// Process one drained batch. Public for deterministic unit tests
    /// (construct a queue, enqueue, call `tick` directly — no threads).
    pub fn tick(&mut self, batch: Vec<Pending>, backlog: usize) {
        // Recovery first: while degraded, any traffic (gathers, retried
        // applies) drives probes, so the server cannot get stuck read-only
        // with no one to heal it.
        if self.health.probe_due() {
            self.health.run_probe(&self.table);
        }
        let now = Instant::now();
        let mut fused_keys = 0u64;

        // Drop work that expired while queued, then fuse contiguous runs of
        // the same kind. Runs (not a global sort) keep each connection's
        // gather-after-apply ordering intact.
        let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
        for p in batch {
            if p.expired(now) {
                self.metrics.record_serve_rejected();
                let deadline_us = p.deadline_us;
                (p.reply)(Response::Error {
                    id: p.id,
                    code: ErrorCode::DeadlineExceeded,
                    message: StorageError::DeadlineExceeded { deadline_us }.to_string(),
                });
            } else {
                live.push(p);
            }
        }

        while !live.is_empty() {
            let end = run_end(&live, 0);
            let run: Vec<Pending> = live.drain(..end).collect();
            fused_keys += self.execute_run(run) as u64;
        }

        self.metrics.record_serve_tick(fused_keys, backlog as u64);
    }

    /// Execute one same-kind run as a single fused storage call and scatter
    /// results back. Returns the number of keys fused.
    fn execute_run(&mut self, run: Vec<Pending>) -> usize {
        if run.is_empty() {
            return 0;
        }
        match &run[0].work {
            Work::Gather { .. } => self.execute_gather_run(run),
            Work::Apply { .. } => self.execute_apply_run(run),
        }
    }

    fn execute_gather_run(&self, run: Vec<Pending>) -> usize {
        let mut all_keys: Vec<u64> = Vec::new();
        let mut spans: Vec<usize> = Vec::with_capacity(run.len());
        for p in &run {
            let Work::Gather { keys } = &p.work else {
                unreachable!("gather run contains only gathers");
            };
            spans.push(keys.len());
            all_keys.extend_from_slice(keys);
        }
        let fused = all_keys.len();
        match self.table.gather(&all_keys) {
            Ok(rows) => {
                let dim = self.table.dim() as u32;
                let mut rows = rows.into_iter();
                for (p, span) in run.into_iter().zip(spans) {
                    (p.reply)(Response::Rows {
                        id: p.id,
                        dim,
                        rows: rows.by_ref().take(span).collect(),
                    });
                }
            }
            Err(err) => self.fail_run(run, &err),
        }
        fused
    }

    fn execute_apply_run(&mut self, run: Vec<Pending>) -> usize {
        let lr = match &run[0].work {
            Work::Apply { lr, .. } => *lr,
            Work::Gather { .. } => unreachable!("apply run contains only applies"),
        };

        // Split the run: already-acknowledged retries are answered from the
        // dedup window; in-run duplicates ride the fused call's outcome
        // without contributing gradients twice; everything else is fresh.
        let mut fresh: Vec<Pending> = Vec::new();
        let mut riders: Vec<Pending> = Vec::new();
        let mut in_run: HashSet<(u64, u64)> = HashSet::new();
        let mut rejected: Vec<Pending> = Vec::new();
        for p in run {
            if p.session_id != 0 && self.dedup.already_acked(p.session_id, p.id) {
                self.metrics.record_serve_deduped();
                (p.reply)(Response::Applied { id: p.id });
            } else if self.health.state() != HealthState::Serving
                || self.health.role() == Role::Replica
            {
                // Degraded (or draining): refuse the mutation with the
                // retryable hint. The probe at the top of the tick is what
                // eventually lets these through. A replica refuses client
                // mutations the same retryable way — its writes arrive over
                // the replication stream — so a client that reached it before
                // promotion just backs off and retries into the promotion.
                rejected.push(p);
            } else if p.session_id != 0 && !in_run.insert((p.session_id, p.id)) {
                riders.push(p);
            } else if p.session_id != 0 && self.in_doubt.contains(&p.session_id) {
                match self.reconcile(&p) {
                    Ok(true) => {
                        // The NACKed attempt did land in live state; it is
                        // now durable too. Acknowledge without re-applying.
                        self.in_doubt.remove(&p.session_id);
                        self.dedup.record(p.session_id, p.id);
                        self.metrics.record_serve_deduped();
                        (p.reply)(Response::Applied { id: p.id });
                    }
                    Ok(false) => {
                        // No trace of the failed attempt: plain re-apply.
                        self.in_doubt.remove(&p.session_id);
                        fresh.push(p);
                    }
                    Err(err) => {
                        self.health.on_write_error(&err);
                        self.fail_run(vec![p], &err);
                    }
                }
            } else {
                fresh.push(p);
            }
        }
        if !rejected.is_empty() {
            let err = match self.health.state() {
                HealthState::Draining => StorageError::Closed,
                _ => self.health.unavailable_error(),
            };
            self.fail_run(rejected, &err);
        }
        if fresh.is_empty() {
            self.fail_run(riders, &StorageError::Unavailable { retry_after_ms: 0 });
            return 0;
        }

        let mut fused: Vec<(u64, &[f32])> = Vec::new();
        for p in &fresh {
            let Work::Apply { updates, .. } = &p.work else {
                unreachable!("apply run contains only applies");
            };
            for (key, grad) in updates {
                fused.push((*key, grad.as_slice()));
            }
        }
        // One durable marker per session, covering its highest id in the run;
        // it rides the same fused batch, so it is durable iff the batch is.
        let mut session_high: Vec<(u64, u64)> = Vec::new();
        for p in &fresh {
            if p.session_id == 0 {
                continue;
            }
            match session_high.iter_mut().find(|(s, _)| *s == p.session_id) {
                Some((_, high)) => *high = (*high).max(p.id),
                None => session_high.push((p.session_id, p.id)),
            }
        }
        let tags: Vec<(u64, Vec<u8>)> = session_high
            .iter()
            .map(|(s, id)| self.dedup.marker_tag(*s, *id))
            .collect();

        let count = fused.len();
        match self.table.apply_gradients_tagged(&fused, lr, &tags) {
            Ok(()) => {
                drop(fused);
                if let Err(err) = self.replication_barrier() {
                    // Locally durable but the replica quorum did not confirm
                    // in time: acknowledging now could lose the mutation to a
                    // failover, so NACK retryably. The marker *is* durable
                    // (and shipped with the batch), so the sessions go
                    // in-doubt and their retries reconcile through it —
                    // exactly once, never doubled — whether they land back
                    // here or on a promoted replica.
                    for p in &fresh {
                        if p.session_id != 0 {
                            self.in_doubt.insert(p.session_id);
                        }
                    }
                    self.fail_run(fresh, &err);
                    self.fail_run(riders, &err);
                    return count;
                }
                for p in fresh {
                    if p.session_id != 0 {
                        self.dedup.record(p.session_id, p.id);
                    }
                    (p.reply)(Response::Applied { id: p.id });
                }
                for p in riders {
                    self.metrics.record_serve_deduped();
                    (p.reply)(Response::Applied { id: p.id });
                }
            }
            Err(err) => {
                drop(fused);
                // Live state may hold this batch even though it failed (the
                // B+tree journals after applying; a failed commit sync comes
                // after the apply on every engine): remember the sessions so
                // their retries reconcile against the durable marker.
                for p in &fresh {
                    if p.session_id != 0 {
                        self.in_doubt.insert(p.session_id);
                    }
                }
                self.health.on_write_error(&err);
                self.fail_run(fresh, &err);
                self.fail_run(riders, &err);
            }
        }
        count
    }

    /// The semi-sync acknowledgement gate: wait until the configured number
    /// of replicas have acked the WAL tail the fused apply just produced.
    /// `Async` mode (or no hub) passes immediately. A quorum timeout is a
    /// retryable refusal, not a health event — the local write path is fine.
    fn replication_barrier(&self) -> Result<(), StorageError> {
        let (Some(hub), ReplicationMode::SemiSync { acks }) = (&self.repl, self.repl_mode) else {
            return Ok(());
        };
        let target = hub.tail();
        if hub.wait_for_acks(target, acks, hub.ack_timeout()) {
            Ok(())
        } else {
            Err(StorageError::Unavailable {
                retry_after_ms: hub.retry_hint_ms(),
            })
        }
    }

    /// Decide whether an in-doubt session's NACKed attempt actually landed in
    /// live state, and if so make durable state match it. Returns `Ok(true)`
    /// when `p` is now safely acknowledgeable without re-applying.
    ///
    /// The durable marker is read from the store (live state): if it covers
    /// `p.id`, the failed fused batch *did* mutate live state before its WAL
    /// append failed. Re-applying would double the gradient, so instead the
    /// touched keys' current live values are written back together with the
    /// marker as one `write_batch` — a log-before-apply, idempotent path —
    /// which makes the durable image equal to live state, exactly once.
    fn reconcile(&self, p: &Pending) -> Result<bool, StorageError> {
        let store = self.table.store();
        let slot_key = self.dedup.slot_key(p.session_id);
        let marker = match store.multi_get(&[slot_key]).pop() {
            Some(Ok(value)) => dedup::decode_marker(&value),
            Some(Err(err)) if err.is_not_found() => None,
            Some(Err(err)) => return Err(err),
            None => None,
        };
        let Some((session, last)) = marker else {
            return Ok(false);
        };
        if session != p.session_id || p.id > last {
            return Ok(false);
        }
        let Work::Apply { updates, .. } = &p.work else {
            return Ok(false);
        };
        let keys: Vec<u64> = updates.iter().map(|(k, _)| *k).collect();
        let mut batch = WriteBatch::new();
        for (key, result) in keys.iter().zip(store.multi_get(&keys)) {
            match result {
                Ok(value) => batch.put(*key, value),
                Err(err) if err.is_not_found() => {}
                Err(err) => return Err(err),
            }
        }
        batch.put(slot_key, dedup::encode_marker(session, last));
        store.write_batch(&batch)?;
        Ok(true)
    }

    /// A storage failure fans out to every request that rode the fused call.
    fn fail_run(&self, run: Vec<Pending>, err: &StorageError) {
        let (code, message) = encode_error(err);
        for p in run {
            self.metrics.record_serve_rejected();
            (p.reply)(Response::Error {
                id: p.id,
                code,
                message: message.clone(),
            });
        }
    }
}

/// End (exclusive) of the maximal fusable run starting at `start`: same work
/// kind, and for applies the same learning-rate bit pattern (one fused
/// `apply_gradients` call carries exactly one `lr`).
fn run_end(live: &[Pending], start: usize) -> usize {
    let mut end = start + 1;
    match &live[start].work {
        Work::Gather { .. } => {
            while end < live.len() && matches!(live[end].work, Work::Gather { .. }) {
                end += 1;
            }
        }
        Work::Apply { lr, .. } => {
            let bits = lr.to_bits();
            while end < live.len() {
                match &live[end].work {
                    Work::Apply { lr, .. } if lr.to_bits() == bits => end += 1,
                    _ => break,
                }
            }
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv_storage::config::StoreConfig;
    use std::sync::mpsc;
    use std::time::Duration;

    fn test_table(dim: usize) -> Arc<EmbeddingTable> {
        let store = mlkv::open_store(mlkv::BackendKind::InMemory, StoreConfig::default()).unwrap();
        Arc::new(
            EmbeddingTable::builder(store)
                .dim(dim)
                .seed(7)
                .build()
                .unwrap(),
        )
    }

    fn batcher(table: &Arc<EmbeddingTable>, queue: &Arc<AdmissionQueue>) -> Batcher {
        let metrics = table.store().metrics();
        Batcher::new(
            Arc::clone(table),
            Arc::clone(queue),
            Arc::clone(&metrics),
            Arc::new(Health::new(25, Duration::ZERO, metrics)),
            Arc::new(DedupWindow::new(64)),
        )
    }

    fn gather_pending(id: u64, keys: Vec<u64>) -> (Pending, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                id,
                session_id: 0,
                deadline_us: 0,
                deadline: None,
                work: Work::Gather { keys },
                reply: Box::new(move |r| {
                    let _ = tx.send(r);
                }),
            },
            rx,
        )
    }

    fn apply_pending(
        id: u64,
        lr: f32,
        updates: Vec<(u64, Vec<f32>)>,
    ) -> (Pending, mpsc::Receiver<Response>) {
        session_apply_pending(0, id, lr, updates)
    }

    fn session_apply_pending(
        session_id: u64,
        id: u64,
        lr: f32,
        updates: Vec<(u64, Vec<f32>)>,
    ) -> (Pending, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                id,
                session_id,
                deadline_us: 0,
                deadline: None,
                work: Work::Apply { lr, updates },
                reply: Box::new(move |r| {
                    let _ = tx.send(r);
                }),
            },
            rx,
        )
    }

    #[test]
    fn eight_clients_fuse_at_least_sixteen_keys_per_tick() {
        // ≥ 8 concurrent clients must fuse ≥ 16 keys per engine tick.
        // Deterministic version: 8 queued gathers × 4 keys = one 32-key tick.
        let table = test_table(8);
        let metrics = table.store().metrics();
        let queue = Arc::new(AdmissionQueue::new(64));
        let mut rxs = Vec::new();
        for client in 0..8u64 {
            let keys: Vec<u64> = (0..4).map(|k| client * 100 + k).collect();
            let (p, rx) = gather_pending(client, keys);
            queue.offer(p).unwrap();
            rxs.push(rx);
        }
        let mut b = batcher(&table, &queue);
        let (batch, backlog) = queue.next_batch(64).unwrap();
        b.tick(batch, backlog);

        let snap = metrics.snapshot();
        assert_eq!(snap.serve_ticks, 1);
        assert!(
            snap.serve_fused_keys >= 16,
            "one tick fused {} keys, want ≥ 16",
            snap.serve_fused_keys
        );
        // Each reply carries its own request's rows, in key order: a twin
        // table with the same seed initialises every key identically.
        let twin = test_table(8);
        for (client, rx) in rxs.into_iter().enumerate() {
            let keys: Vec<u64> = (0..4).map(|k| client as u64 * 100 + k).collect();
            match rx.try_recv().unwrap() {
                Response::Rows { rows, dim, .. } => {
                    assert_eq!(dim, 8);
                    assert_eq!(rows, twin.gather(&keys).unwrap());
                }
                other => panic!("expected rows, got {other:?}"),
            }
        }
    }

    #[test]
    fn tick_takes_at_most_the_cap_and_reports_the_rest_as_backlog() {
        const EXTRA: usize = 44;
        let table = test_table(4);
        let metrics = table.store().metrics();
        let queue = Arc::new(AdmissionQueue::new(MAX_TICK_REQUESTS + EXTRA));
        let mut rxs = Vec::new();
        for id in 0..(MAX_TICK_REQUESTS + EXTRA) as u64 {
            let (p, rx) = gather_pending(id, vec![id]);
            queue.offer(p).unwrap();
            rxs.push(rx);
        }
        let mut b = batcher(&table, &queue);
        let (batch, backlog) = queue.next_batch(MAX_TICK_REQUESTS).unwrap();
        assert_eq!(batch.len(), MAX_TICK_REQUESTS);
        assert_eq!(backlog, EXTRA);
        b.tick(batch, backlog);
        let snap = metrics.snapshot();
        assert_eq!(snap.serve_ticks, 1);
        assert_eq!(snap.serve_fused_keys, MAX_TICK_REQUESTS as u64);
        assert_eq!(snap.serve_queue_depth, EXTRA as u64);
        // Admission order: the first `MAX_TICK_REQUESTS` were answered, the
        // rest are still queued for the next tick.
        let answered = rxs.iter().take_while(|rx| rx.try_recv().is_ok()).count();
        assert_eq!(answered, MAX_TICK_REQUESTS);
        assert_eq!(queue.depth(), EXTRA);
    }

    #[test]
    fn mixed_batch_preserves_order_and_scatters_correct_rows() {
        let table = test_table(4);
        let queue = Arc::new(AdmissionQueue::new(64));
        // apply(k=5, +1) then gather(k=5) in the same batch: the gather must
        // observe the update (runs execute in admission order).
        let (a, arx) = apply_pending(1, 1.0, vec![(5, vec![1.0; 4])]);
        let (g, grx) = gather_pending(2, vec![5]);
        let before = table.get_one(5).unwrap();
        queue.offer(a).unwrap();
        queue.offer(g).unwrap();
        let mut b = batcher(&table, &queue);
        let (batch, backlog) = queue.next_batch(64).unwrap();
        b.tick(batch, backlog);
        assert!(matches!(
            arx.try_recv().unwrap(),
            Response::Applied { id: 1 }
        ));
        match grx.try_recv().unwrap() {
            Response::Rows { rows, .. } => {
                // apply_gradients subtracts lr * grad.
                for (i, v) in rows[0].iter().enumerate() {
                    assert!(
                        (v - (before[i] - 1.0)).abs() < 1e-6,
                        "gather after apply in one batch must see the update"
                    );
                }
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn queued_expiry_rejects_with_typed_error_and_counts_rejection() {
        let table = test_table(4);
        let metrics = table.store().metrics();
        let queue = Arc::new(AdmissionQueue::new(64));
        let (mut p, rx) = gather_pending(9, vec![1]);
        p.deadline_us = 250;
        p.deadline = Some(Instant::now() - Duration::from_millis(1));
        // Admission happened before expiry in this scenario; simulate by
        // ticking directly with an already-expired entry.
        let mut b = batcher(&table, &queue);
        b.tick(vec![p], 0);
        match rx.try_recv().unwrap() {
            Response::Error { id, code, message } => {
                assert_eq!(id, 9);
                assert_eq!(code, ErrorCode::DeadlineExceeded);
                assert!(message.contains("250"), "typed message carries the budget");
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(metrics.snapshot().serve_rejected, 1);
    }

    #[test]
    fn applies_with_different_lr_split_into_separate_runs() {
        let table = test_table(4);
        let queue = Arc::new(AdmissionQueue::new(64));
        let (a1, r1) = apply_pending(1, 0.5, vec![(1, vec![1.0; 4])]);
        let (a2, r2) = apply_pending(2, 0.25, vec![(1, vec![1.0; 4])]);
        let before = table.get_one(1).unwrap();
        for p in [a1, a2] {
            queue.offer(p).unwrap();
        }
        let mut b = batcher(&table, &queue);
        let (batch, backlog) = queue.next_batch(64).unwrap();
        b.tick(batch, backlog);
        assert!(matches!(r1.try_recv().unwrap(), Response::Applied { .. }));
        assert!(matches!(r2.try_recv().unwrap(), Response::Applied { .. }));
        let after = table.get_one(1).unwrap();
        assert!(
            (after[0] - (before[0] - 0.75)).abs() < 1e-6,
            "both updates applied with their own lr"
        );
    }

    #[test]
    fn retried_apply_is_acked_from_the_window_not_reapplied() {
        let table = test_table(4);
        let metrics = table.store().metrics();
        let queue = Arc::new(AdmissionQueue::new(64));
        let mut b = batcher(&table, &queue);
        let before = table.get_one(9).unwrap();

        let (first, r1) = session_apply_pending(7, 1, 1.0, vec![(9, vec![1.0; 4])]);
        b.tick(vec![first], 0);
        assert!(matches!(
            r1.try_recv().unwrap(),
            Response::Applied { id: 1 }
        ));

        // The "ack was lost" retry: same session, same id.
        let (retry, r2) = session_apply_pending(7, 1, 1.0, vec![(9, vec![1.0; 4])]);
        b.tick(vec![retry], 0);
        assert!(matches!(
            r2.try_recv().unwrap(),
            Response::Applied { id: 1 }
        ));

        let after = table.get_one(9).unwrap();
        assert!(
            (after[0] - (before[0] - 1.0)).abs() < 1e-6,
            "gradient applied exactly once across the retry"
        );
        assert_eq!(metrics.snapshot().serve_deduped, 1);
        // The durable marker rode the fused batch.
        let marker = table
            .store()
            .multi_get(&[b.dedup.slot_key(7)])
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(crate::dedup::decode_marker(&marker), Some((7, 1)));
    }

    #[test]
    fn in_run_duplicate_applies_once_but_acks_both() {
        let table = test_table(4);
        let queue = Arc::new(AdmissionQueue::new(64));
        let mut b = batcher(&table, &queue);
        let before = table.get_one(3).unwrap();
        let (a, r1) = session_apply_pending(5, 2, 1.0, vec![(3, vec![1.0; 4])]);
        let (dup, r2) = session_apply_pending(5, 2, 1.0, vec![(3, vec![1.0; 4])]);
        b.tick(vec![a, dup], 0);
        assert!(matches!(
            r1.try_recv().unwrap(),
            Response::Applied { id: 2 }
        ));
        assert!(matches!(
            r2.try_recv().unwrap(),
            Response::Applied { id: 2 }
        ));
        let after = table.get_one(3).unwrap();
        assert!((after[0] - (before[0] - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn degraded_server_rejects_writes_serves_reads_and_recovers_by_probe() {
        let table = test_table(4);
        let queue = Arc::new(AdmissionQueue::new(64));
        let mut b = batcher(&table, &queue);
        b.health
            .on_write_error(&StorageError::Io(std::io::Error::other("injected")));

        // In-memory store: the probe at the next tick heals immediately, so
        // pin the state by checking the rejection path via a direct run (no
        // probe) first.
        let (a, arx) = session_apply_pending(1, 1, 1.0, vec![(2, vec![1.0; 4])]);
        b.execute_apply_run(vec![a]);
        match arx.try_recv().unwrap() {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::Unavailable);
                assert!(message.contains("retry after 25ms"), "{message}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }

        // Gathers keep flowing while degraded.
        let (g, grx) = gather_pending(2, vec![2]);
        b.execute_run(vec![g]);
        assert!(matches!(grx.try_recv().unwrap(), Response::Rows { .. }));

        // A tick probes and (store is healthy) returns to Serving.
        let (a2, a2rx) = session_apply_pending(1, 2, 1.0, vec![(2, vec![1.0; 4])]);
        b.tick(vec![a2], 0);
        assert!(matches!(
            a2rx.try_recv().unwrap(),
            Response::Applied { id: 2 }
        ));
        assert_eq!(b.health.state(), HealthState::Serving);
        let snap = table.store().metrics().snapshot();
        assert_eq!(snap.health_degraded, 1);
        assert_eq!(snap.health_recovered, 1);
    }

    #[test]
    fn replica_role_rejects_applies_but_serves_gathers() {
        let table = test_table(4);
        let queue = Arc::new(AdmissionQueue::new(64));
        let mut b = batcher(&table, &queue);
        b.health.set_role(Role::Replica);

        let (a, arx) = session_apply_pending(3, 1, 1.0, vec![(2, vec![1.0; 4])]);
        b.tick(vec![a], 0);
        match arx.try_recv().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unavailable),
            other => panic!("expected Unavailable, got {other:?}"),
        }

        // Gathers keep flowing (a different key: under BSP a second Get on
        // the same key would wait for a Put that the rejected apply never
        // made).
        let (g, grx) = gather_pending(2, vec![5]);
        b.tick(vec![g], 0);
        assert!(matches!(grx.try_recv().unwrap(), Response::Rows { .. }));

        // Promotion (role flip) lets the retry through, and it is the same
        // (session, id) — applied exactly once, not doubled.
        b.health.set_role(Role::Primary);
        let before = table.get_one(2).unwrap();
        let (retry, rrx) = session_apply_pending(3, 1, 1.0, vec![(2, vec![1.0; 4])]);
        b.tick(vec![retry], 0);
        assert!(matches!(
            rrx.try_recv().unwrap(),
            Response::Applied { id: 1 }
        ));
        let after = table.get_one(2).unwrap();
        assert!((after[0] - (before[0] - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn semisync_without_quorum_nacks_and_retry_reconciles_after_ack() {
        use mlkv_storage::ReplicationTuning;

        let table = test_table(4);
        let queue = Arc::new(AdmissionQueue::new(64));
        let hub = Arc::new(ReplicationHub::new(
            None,
            table.store().metrics(),
            ReplicationTuning {
                retention_groups: 16,
                ack_timeout_ms: 1,
                heartbeat_ms: 1,
            },
        ));
        let mut b = batcher(&table, &queue)
            .with_replication(Arc::clone(&hub), ReplicationMode::SemiSync { acks: 1 });
        let before = table.get_one(8).unwrap();

        // No replica attached: the apply lands locally (marker and all) but
        // the quorum times out, so the client gets a retryable NACK.
        let (a, arx) = session_apply_pending(11, 1, 1.0, vec![(8, vec![1.0; 4])]);
        b.tick(vec![a], 0);
        match arx.try_recv().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unavailable),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let mid = table.get_one(8).unwrap();
        assert!(
            (mid[0] - (before[0] - 1.0)).abs() < 1e-6,
            "mutation is locally applied despite the NACK"
        );

        // A replica attaches and acks: the retry reconciles through the
        // durable marker — acknowledged without re-applying. Compare raw
        // stored bytes (the dedup'd retry makes no Put, so a table Get here
        // would wait on the BSP staleness clock).
        let raw_mid = table.store().multi_get(&[8]).pop().unwrap().unwrap();
        let id = hub.register();
        hub.record_ack(id, u64::MAX);
        let (retry, rrx) = session_apply_pending(11, 1, 1.0, vec![(8, vec![1.0; 4])]);
        b.tick(vec![retry], 0);
        assert!(matches!(
            rrx.try_recv().unwrap(),
            Response::Applied { id: 1 }
        ));
        let raw_after = table.store().multi_get(&[8]).pop().unwrap().unwrap();
        assert_eq!(
            raw_mid, raw_after,
            "gradient applied exactly once across NACK and retry"
        );
    }

    #[test]
    fn run_loop_drains_after_close_and_flushes() {
        let table = test_table(4);
        let queue = Arc::new(AdmissionQueue::new(64));
        let mut rxs = Vec::new();
        for id in 0..5 {
            let (p, rx) = gather_pending(id, vec![id]);
            queue.offer(p).unwrap();
            rxs.push(rx);
        }
        queue.close();
        let b = batcher(&table, &queue);
        b.run().unwrap();
        for rx in rxs {
            assert!(matches!(rx.try_recv().unwrap(), Response::Rows { .. }));
        }
    }
}
