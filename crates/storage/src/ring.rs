//! Read submissions and their completion handle.
//!
//! Every cold-path batch read leaves the [`crate::IoPlanner`] as **one**
//! [`crate::Device::submit_reads`] call, and the device decides when that
//! submission completes. The returned [`IoBatch`] is the handle the caller
//! finishes it with ([`IoBatch::wait`]), after doing whatever CPU work it can
//! overlap with the device. Two completion styles back it:
//!
//! * **ready** — the result is already there. This is the default
//!   [`crate::Device::submit_reads`] (it wraps `read_scatter`), so
//!   [`crate::FileDevice`], [`crate::MemDevice`] and every decorator that does
//!   not override it complete the reads inline, on the submitting thread.
//! * **clocked** — a virtual-clock completion used by
//!   [`crate::SimLatencyDevice`]: the submission's service time is computed up
//!   front from the simulated device model (its requests overlap up to the
//!   simulated queue depth) and the batch completes when that deadline passes,
//!   so submit-then-work-then-wait only pays the *residual* device time,
//!   without any thread.
//!
//! A device that really completes reads later (a native io_uring backend) is
//! a third [`crate::Device`] implementation, not a change to the callers.

use std::time::Instant;

use crate::error::StorageResult;
use crate::io::ReadReq;

/// Work deferred until a clocked batch's deadline passes.
type DeferredRead = Box<dyn FnOnce() -> StorageResult<Vec<ReadReq>> + Send>;

enum BatchState {
    /// Completed at submission time (the inline default).
    Ready(Option<StorageResult<Vec<ReadReq>>>),
    /// Virtual-clock completion: done once `deadline` passes; the deferred
    /// read materialises the bytes at wait time.
    Clocked {
        deadline: Instant,
        work: Option<DeferredRead>,
    },
}

/// Handle to one read submission ([`crate::Device::submit_reads`]).
///
/// The batch owns its requests while in flight; [`IoBatch::wait`] blocks the
/// caller until completion and hands the filled requests back.
pub struct IoBatch {
    state: BatchState,
}

impl IoBatch {
    /// A batch that completed synchronously at submission time.
    pub fn ready(result: StorageResult<Vec<ReadReq>>) -> Self {
        Self {
            state: BatchState::Ready(Some(result)),
        }
    }

    /// A virtual-clock batch: complete once `deadline` passes, with `work`
    /// producing the bytes at wait time (used by the simulated device, whose
    /// inner reads are instant memory copies).
    pub fn clocked(
        deadline: Instant,
        work: impl FnOnce() -> StorageResult<Vec<ReadReq>> + Send + 'static,
    ) -> Self {
        Self {
            state: BatchState::Clocked {
                deadline,
                work: Some(Box::new(work)),
            },
        }
    }

    /// Block until the submission completes and return the filled requests.
    pub fn wait(self) -> StorageResult<Vec<ReadReq>> {
        match self.state {
            BatchState::Ready(result) => result.expect("ready batch holds its result"),
            BatchState::Clocked { deadline, work } => {
                let now = Instant::now();
                if deadline > now {
                    std::thread::sleep(deadline - now);
                }
                (work.expect("clocked batch holds its work"))()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;

    #[test]
    fn ready_batch_completes_immediately() {
        let batch = IoBatch::ready(Ok(vec![ReadReq::new(0, 4)]));
        assert_eq!(batch.wait().unwrap().len(), 1);
        let failed = IoBatch::ready(Err(StorageError::Closed));
        assert!(failed.wait().is_err());
    }

    #[test]
    fn clocked_batch_completes_at_its_deadline() {
        let delay = std::time::Duration::from_millis(10);
        let deadline = Instant::now() + delay;
        let batch = IoBatch::clocked(deadline, move || Ok(vec![ReadReq::new(0, 1)]));
        let start = Instant::now();
        let reqs = batch.wait().unwrap();
        assert!(start.elapsed() >= delay / 2, "wait must pay the deadline");
        assert_eq!(reqs.len(), 1);
        // A deadline in the past completes without sleeping.
        let batch = IoBatch::clocked(Instant::now(), || Ok(Vec::new()));
        let start = Instant::now();
        batch.wait().unwrap();
        assert!(start.elapsed() < delay, "a passed deadline must not sleep");
    }
}
