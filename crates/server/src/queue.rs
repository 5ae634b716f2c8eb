//! The admission queue: the bounded, deadline-aware hand-off between
//! connection threads and the batcher.
//!
//! Connection threads decode frames and [`AdmissionQueue::offer`] the work;
//! the batcher thread [`AdmissionQueue::next_batch`]es whatever is queued the
//! moment its previous tick returns. Admission is where load shedding
//! happens: a full queue rejects with [`StorageError::Overloaded`] *without
//! queueing* (bounding queueing delay under overload), an already-expired
//! deadline rejects with [`StorageError::DeadlineExceeded`], and a closed
//! (draining) queue rejects with [`StorageError::Closed`]. Work that passes
//! admission but expires while queued is dropped by the batcher at drain
//! time — either way, expired work never occupies a fused storage batch.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use mlkv_storage::StorageError;

use crate::protocol::Response;

/// The work a request asks the batcher to perform.
#[derive(Debug)]
pub enum Work {
    /// Fetch embeddings for `keys` (order preserved, duplicates allowed).
    Gather {
        /// Keys to fetch.
        keys: Vec<u64>,
    },
    /// Apply gradients with learning rate `lr`.
    Apply {
        /// Learning rate of the fused `apply_gradients` call.
        lr: f32,
        /// `(key, gradient)` pairs, applied cumulatively in order.
        updates: Vec<(u64, Vec<f32>)>,
    },
}

impl Work {
    /// Number of keys this request contributes to a fused batch.
    pub fn key_count(&self) -> usize {
        match self {
            Work::Gather { keys } => keys.len(),
            Work::Apply { updates, .. } => updates.len(),
        }
    }
}

/// How a [`Pending`] request's response travels back to its origin. A boxed
/// closure so the batcher never learns about sockets: the server wraps a
/// locked TCP stream, tests wrap an `mpsc` sender.
pub type Replier = Box<dyn FnOnce(Response) + Send>;

/// One admitted request waiting for (or riding in) a micro-batch.
pub struct Pending {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Idempotency session for mutations (`0` = none; see
    /// [`crate::dedup::DedupWindow`]).
    pub session_id: u64,
    /// The deadline budget from the wire, kept for the typed error.
    pub deadline_us: u64,
    /// Absolute expiry instant (`None` = no deadline).
    pub deadline: Option<Instant>,
    /// The work to fuse.
    pub work: Work,
    /// Response path back to the originating connection.
    pub reply: Replier,
}

impl Pending {
    /// True when the deadline has passed at `now`.
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("id", &self.id)
            .field("deadline_us", &self.deadline_us)
            .field("work", &self.work)
            .finish_non_exhaustive()
    }
}

struct Inner {
    items: VecDeque<Pending>,
    closed: bool,
}

/// Bounded MPSC queue with deadline-aware admission (see module docs).
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// Create a queue admitting at most `capacity` requests (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// True once [`AdmissionQueue::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Admit `pending`, or reject it with the typed error and hand it back so
    /// the caller can answer the originating connection.
    pub fn offer(&self, pending: Pending) -> Result<(), (Pending, StorageError)> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.closed {
            return Err((pending, StorageError::Closed));
        }
        if pending.expired(Instant::now()) {
            let deadline_us = pending.deadline_us;
            return Err((pending, StorageError::DeadlineExceeded { deadline_us }));
        }
        if g.items.len() >= self.capacity {
            let depth = g.items.len();
            return Err((
                pending,
                StorageError::Overloaded {
                    depth,
                    capacity: self.capacity,
                },
            ));
        }
        g.items.push_back(pending);
        drop(g);
        self.cv.notify_all();
        Ok(())
    }

    /// Block while the queue is empty, then drain up to `max` requests in
    /// admission order — no timed wait: a lone request leaves immediately, and
    /// a batch is exactly what arrived while the caller was busy. Returns the
    /// drained batch plus the depth left behind (the backlog), or `None` once
    /// the queue is closed *and* empty — the drain-on-shutdown contract:
    /// closing stops admission immediately but already-admitted work is still
    /// handed out.
    pub fn next_batch(&self, max: usize) -> Option<(Vec<Pending>, usize)> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while g.items.is_empty() {
            if g.closed {
                return None;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let take = g.items.len().min(max.max(1));
        let batch: Vec<Pending> = g.items.drain(..take).collect();
        let left = g.items.len();
        Some((batch, left))
    }

    /// Stop admitting work and wake the batcher; queued requests will still
    /// be drained by subsequent [`AdmissionQueue::next_batch`] calls.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn pending(id: u64, deadline: Option<Instant>) -> (Pending, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                id,
                session_id: 0,
                deadline_us: 1,
                deadline,
                work: Work::Gather { keys: vec![id] },
                reply: Box::new(move |r| {
                    let _ = tx.send(r);
                }),
            },
            rx,
        )
    }

    #[test]
    fn offer_then_drain_preserves_admission_order() {
        let q = AdmissionQueue::new(8);
        for id in 0..5 {
            let (p, _rx) = pending(id, None);
            q.offer(p).unwrap();
        }
        assert_eq!(q.depth(), 5);
        let (batch, left) = q.next_batch(3).unwrap();
        assert_eq!(
            batch.iter().map(|p| p.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(left, 2);
        let (batch, left) = q.next_batch(16).unwrap();
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(left, 0);
    }

    #[test]
    fn full_queue_sheds_with_typed_overload() {
        let q = AdmissionQueue::new(2);
        q.offer(pending(0, None).0).unwrap();
        q.offer(pending(1, None).0).unwrap();
        let (returned, err) = q.offer(pending(2, None).0).unwrap_err();
        assert_eq!(returned.id, 2, "rejected work is handed back for the reply");
        assert!(matches!(
            err,
            StorageError::Overloaded {
                depth: 2,
                capacity: 2
            }
        ));
        assert_eq!(q.depth(), 2, "rejected work was never queued");
    }

    #[test]
    fn expired_deadline_is_rejected_at_admission() {
        let q = AdmissionQueue::new(8);
        let past = Instant::now() - Duration::from_millis(1);
        let (_, err) = q.offer(pending(7, Some(past)).0).unwrap_err();
        assert!(matches!(
            err,
            StorageError::DeadlineExceeded { deadline_us: 1 }
        ));
    }

    #[test]
    fn close_rejects_new_work_but_drains_queued_work() {
        let q = AdmissionQueue::new(8);
        q.offer(pending(1, None).0).unwrap();
        q.close();
        let (_, err) = q.offer(pending(2, None).0).unwrap_err();
        assert!(matches!(err, StorageError::Closed));
        let (batch, _) = q.next_batch(8).unwrap();
        assert_eq!(batch.len(), 1, "admitted work survives close");
        assert!(q.next_batch(8).is_none(), "then the queue ends");
    }

    #[test]
    fn lone_request_is_handed_out_without_waiting_for_company() {
        // Nobody else is coming: with a request queued `next_batch` never
        // waits, so a lone request costs per-request latency, not a window.
        let q = AdmissionQueue::new(8);
        q.offer(pending(3, None).0).unwrap();
        let (batch, left) = q.next_batch(256).unwrap();
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), vec![3]);
        assert_eq!(left, 0);
        assert_eq!(q.depth(), 0);
    }
}
