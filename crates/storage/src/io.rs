//! Vectored cold-path I/O: batch read requests and a coalescing planner.
//!
//! Every engine's cold read path boils down to "fetch these N byte ranges from
//! the device". Issuing them one [`Device::read_at`] at a time pays one device
//! round trip per record; on real SSDs (and on [`crate::SimLatencyDevice`],
//! which models their fixed per-request cost) the round trips dominate the
//! transfer. [`IoPlanner`] turns a batch of [`ReadReq`]s into few large device
//! reads: it sorts the requests by offset, merges ranges whose gap is at most
//! [`crate::StoreConfig::io_gap_bytes`], reads each merged run with a single
//! `read_at`, and slices the bytes back into the per-request buffers.
//!
//! The planner is pure plumbing: it never looks at the bytes, so duplicate,
//! overlapping and unsorted requests all work, and the result is byte-identical
//! to the per-request loop ([`Device::read_scatter`]'s default implementation)
//! for every gap threshold.
//!
//! Under [`crate::IoBackend::Async`] the planner also drives the submission
//! queue: [`IoPlanner::submit`] plans the same merged runs, hands them to
//! [`Device::submit_reads`] as **one** submission (so the merged reads overlap
//! each other in the device instead of running serially), and returns a
//! [`PendingRead`] the caller finishes with [`PendingRead::wait`] — after
//! doing whatever CPU work it can overlap with the device.

use std::sync::Arc;

use crate::config::IoBackend;
use crate::device::Device;
use crate::error::StorageResult;
use crate::metrics::StorageMetrics;
use crate::ring::IoBatch;

/// One positioned read: fill `buf` from byte offset `offset` of a device.
#[derive(Debug)]
pub struct ReadReq {
    /// Device byte offset the read starts at.
    pub offset: u64,
    /// Destination buffer; its length is the read length.
    pub buf: Vec<u8>,
}

impl ReadReq {
    /// A request for `len` bytes at `offset` (buffer zero-initialised).
    pub fn new(offset: u64, len: usize) -> Self {
        Self {
            offset,
            buf: vec![0; len],
        }
    }

    /// One past the last byte offset this request covers.
    pub fn end(&self) -> u64 {
        self.offset + self.buf.len() as u64
    }

    /// Consume the request, keeping the filled buffer.
    pub fn into_buf(self) -> Vec<u8> {
        self.buf
    }
}

/// Upper bound on one merged read's scratch allocation. Runs that would grow
/// beyond this are split; with the default 4 KiB gap threshold a run only
/// approaches this when a batch genuinely reads megabytes of adjacent data,
/// in which case a handful of 4 MiB reads is still one round trip each.
const MAX_RUN_BYTES: u64 = 4 << 20;

/// One planned merged read: the covering `[start, end)` range and the indices
/// of the member requests it serves.
#[derive(Debug)]
struct Run {
    start: u64,
    end: u64,
    members: Vec<usize>,
}

/// Plans batched device reads: sorts by offset and merges near-adjacent
/// ranges into single large reads (see the module docs).
///
/// Engines embed one (built from their [`crate::StoreConfig`]) and route every
/// cold-path batch read through [`IoPlanner::read`] (blocking) or
/// [`IoPlanner::submit`] (asynchronous under [`IoBackend::Async`]).
#[derive(Debug, Clone)]
pub struct IoPlanner {
    gap_bytes: u64,
    backend: IoBackend,
    metrics: Option<Arc<StorageMetrics>>,
}

impl Default for IoPlanner {
    /// The [`crate::StoreConfig`] default gap threshold and backend.
    fn default() -> Self {
        Self::from_config(&crate::StoreConfig::default())
    }
}

impl IoPlanner {
    /// A planner merging ranges separated by at most `gap_bytes`.
    pub fn new(gap_bytes: u64) -> Self {
        Self {
            gap_bytes,
            backend: IoBackend::Sync,
            metrics: None,
        }
    }

    /// Build a planner from the store configuration knobs.
    pub fn from_config(cfg: &crate::StoreConfig) -> Self {
        Self {
            gap_bytes: cfg.io_gap_bytes as u64,
            backend: cfg.io_backend,
            metrics: None,
        }
    }

    /// Attach the engine's metrics block, so run-cap splits surface as
    /// `planner_splits` instead of being silently applied.
    pub fn with_metrics(mut self, metrics: Arc<StorageMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Force a read backend (used by tests and benches; engines normally
    /// inherit it from [`crate::StoreConfig::io_backend`]).
    pub fn with_backend(mut self, backend: IoBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The read backend this planner drives ([`IoBackend::Sync`] blocks in
    /// [`IoPlanner::read`]-style `pread`s; [`IoBackend::Async`] submits).
    pub fn backend(&self) -> IoBackend {
        self.backend
    }

    /// Fill every request's buffer from `device`, coalescing near-adjacent
    /// ranges into single device reads.
    ///
    /// Byte-identical to [`Device::read_scatter`] for any request batch; the
    /// first failing device read aborts (callers needing per-request error
    /// granularity fall back to per-request reads on error).
    pub fn read(&self, device: &dyn Device, reqs: &mut [ReadReq]) -> StorageResult<()> {
        for run in self.plan(reqs) {
            self.read_run(device, reqs, &run)?;
        }
        Ok(())
    }

    /// Submit the batch and return a handle to finish it with. Under
    /// [`IoBackend::Sync`] this performs the (blocking) [`IoPlanner::read`]
    /// eagerly and the handle is already complete; under
    /// [`IoBackend::Async`] the merged runs go to [`Device::submit_reads`]
    /// as one submission, and [`PendingRead::wait`] slices the completed
    /// bytes back into the per-request buffers.
    pub fn submit(&self, device: &dyn Device, mut reqs: Vec<ReadReq>) -> PendingRead {
        if self.backend == IoBackend::Sync {
            let result = self.read(device, &mut reqs).map(|()| reqs);
            return PendingRead {
                state: PendingState::Done(Some(result)),
            };
        }
        let runs = self.plan(&reqs);
        // Single-member runs cover exactly their request's range: move the
        // request's own buffer into the submission (the sync path reads
        // straight into it for the same reason) instead of allocating a
        // covering buffer and copying back.
        let merged: Vec<ReadReq> = runs
            .iter()
            .map(|run| match run.members.as_slice() {
                [i] => std::mem::replace(&mut reqs[*i], ReadReq::new(0, 0)),
                _ => ReadReq::new(run.start, (run.end - run.start) as usize),
            })
            .collect();
        let batch = device.submit_reads(merged);
        PendingRead {
            state: PendingState::Merged { batch, runs, reqs },
        }
    }

    /// Group the batch into merged runs: sort by offset, extend a run while
    /// the next request starts within `gap_bytes` of its end, and split (one
    /// extra round trip, counted as `planner_splits`) when a run would exceed
    /// [`MAX_RUN_BYTES`].
    fn plan(&self, reqs: &[ReadReq]) -> Vec<Run> {
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_unstable_by_key(|&i| (reqs[i].offset, reqs[i].buf.len()));
        let mut runs: Vec<Run> = Vec::new();
        for &i in &order {
            let (offset, end) = (reqs[i].offset, reqs[i].end());
            if let Some(run) = runs.last_mut() {
                if offset <= run.end.saturating_add(self.gap_bytes) {
                    if end.max(run.end) - run.start <= MAX_RUN_BYTES {
                        run.members.push(i);
                        run.end = run.end.max(end);
                        continue;
                    }
                    // Mergeable by gap but capped by size: surface the split.
                    if let Some(metrics) = &self.metrics {
                        metrics.record_planner_split();
                    }
                }
            }
            runs.push(Run {
                start: offset,
                end,
                members: vec![i],
            });
        }
        runs
    }

    /// Issue one merged read covering the run's range and slice it back into
    /// the member requests' buffers. Single-member runs read straight into
    /// their own buffer (no scratch copy).
    fn read_run(&self, device: &dyn Device, reqs: &mut [ReadReq], run: &Run) -> StorageResult<()> {
        match run.members.as_slice() {
            [] => Ok(()),
            [i] => {
                let req = &mut reqs[*i];
                device.read_at(req.offset, &mut req.buf)
            }
            members => {
                let mut scratch = vec![0u8; (run.end - run.start) as usize];
                device.read_at(run.start, &mut scratch)?;
                for &i in members {
                    let req = &mut reqs[i];
                    let at = (req.offset - run.start) as usize;
                    let len = req.buf.len();
                    req.buf.copy_from_slice(&scratch[at..at + len]);
                }
                Ok(())
            }
        }
    }
}

enum PendingState {
    /// Sync backend: the read already happened at submit time.
    Done(Option<StorageResult<Vec<ReadReq>>>),
    /// Async backend: the merged runs are in flight; completion
    /// slices them back into the original requests.
    Merged {
        batch: IoBatch,
        runs: Vec<Run>,
        reqs: Vec<ReadReq>,
    },
}

/// A batch read in flight ([`IoPlanner::submit`]).
///
/// Callers overlap CPU work between submit and [`PendingRead::wait`]; the
/// wait parks on the device completion (condvar or virtual clock) rather
/// than blocking inside `pread`.
pub struct PendingRead {
    state: PendingState,
}

impl PendingRead {
    /// True once waiting would not park (always true on the sync backend).
    pub fn try_complete(&self) -> bool {
        match &self.state {
            PendingState::Done(_) => true,
            PendingState::Merged { batch, .. } => batch.try_complete(),
        }
    }

    /// Park until the submission completes and return the filled requests
    /// (in their original order). The first failing device read fails the
    /// whole batch, exactly like [`IoPlanner::read`]; callers needing
    /// per-request granularity fall back to per-request reads on error.
    pub fn wait(self) -> StorageResult<Vec<ReadReq>> {
        match self.state {
            PendingState::Done(result) => result.expect("sync submission holds its result"),
            PendingState::Merged {
                batch,
                runs,
                mut reqs,
            } => {
                let merged = batch.wait()?;
                for (run, filled) in runs.iter().zip(merged) {
                    match run.members.as_slice() {
                        // Single-member runs travelled as the request itself:
                        // move it back into its slot.
                        [i] => reqs[*i] = filled,
                        members => {
                            for &i in members {
                                let req = &mut reqs[i];
                                let at = (req.offset - run.start) as usize;
                                let len = req.buf.len();
                                req.buf.copy_from_slice(&filled.buf[at..at + len]);
                            }
                        }
                    }
                }
                Ok(reqs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Device wrapper counting `read_at` calls (merged runs count once).
    struct CountingDevice {
        inner: MemDevice,
        reads: AtomicU64,
    }

    impl CountingDevice {
        fn with_bytes(n: usize) -> Self {
            let inner = MemDevice::new();
            let bytes: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            inner.append(&bytes).unwrap();
            Self {
                inner,
                reads: AtomicU64::new(0),
            }
        }

        fn reads(&self) -> u64 {
            self.reads.load(Ordering::Relaxed)
        }
    }

    impl Device for CountingDevice {
        fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
            self.inner.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read_at(offset, buf)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&self) -> StorageResult<()> {
            self.inner.sync()
        }
        fn append(&self, data: &[u8]) -> StorageResult<u64> {
            self.inner.append(data)
        }
    }

    fn expected(dev: &dyn Device, reqs: &[(u64, usize)]) -> Vec<Vec<u8>> {
        reqs.iter()
            .map(|&(offset, len)| {
                let mut buf = vec![0u8; len];
                dev.read_at(offset, &mut buf).unwrap();
                buf
            })
            .collect()
    }

    fn run_planner(planner: &IoPlanner, dev: &dyn Device, reqs: &[(u64, usize)]) -> Vec<Vec<u8>> {
        let mut batch: Vec<ReadReq> = reqs.iter().map(|&(o, l)| ReadReq::new(o, l)).collect();
        planner.read(dev, &mut batch).unwrap();
        batch.into_iter().map(ReadReq::into_buf).collect()
    }

    #[test]
    fn adjacent_requests_merge_into_one_read() {
        let dev = CountingDevice::with_bytes(4096);
        let reqs = [(0u64, 64usize), (64, 64), (128, 64), (192, 64)];
        let want = expected(&dev, &reqs);
        let base = dev.reads();
        let got = run_planner(&IoPlanner::new(0), &dev, &reqs);
        assert_eq!(got, want);
        assert_eq!(dev.reads() - base, 1, "adjacent ranges must merge");
    }

    #[test]
    fn gap_threshold_controls_merging() {
        let dev = CountingDevice::with_bytes(8192);
        // 64-byte reads separated by 100-byte gaps.
        let reqs: Vec<(u64, usize)> = (0..8u64).map(|i| (i * 164, 64)).collect();
        let want = expected(&dev, &reqs);

        let base = dev.reads();
        assert_eq!(run_planner(&IoPlanner::new(100), &dev, &reqs), want);
        assert_eq!(dev.reads() - base, 1, "gaps within threshold must merge");

        let base = dev.reads();
        assert_eq!(run_planner(&IoPlanner::new(99), &dev, &reqs), want);
        assert_eq!(dev.reads() - base, 8, "gaps above threshold must not");
    }

    #[test]
    fn unsorted_duplicate_and_overlapping_requests_work() {
        let dev = CountingDevice::with_bytes(4096);
        let reqs = [
            (512u64, 128usize),
            (0, 64),
            (512, 128), // duplicate
            (32, 64),   // overlaps the second
            (600, 100), // overlaps the first
            (4000, 96), // tail of the device
        ];
        let want = expected(&dev, &reqs);
        for gap in [0u64, 1, 64, 4096, u64::MAX] {
            assert_eq!(
                run_planner(&IoPlanner::new(gap), &dev, &reqs),
                want,
                "gap {gap}"
            );
        }
    }

    #[test]
    fn oversized_runs_are_split() {
        let chunk = (MAX_RUN_BYTES / 2) as usize + 1;
        let dev = CountingDevice::with_bytes(3 * chunk);
        let reqs = [
            (0u64, chunk),
            (chunk as u64, chunk),
            (2 * chunk as u64, chunk),
        ];
        let want = expected(&dev, &reqs);
        let base = dev.reads();
        assert_eq!(run_planner(&IoPlanner::new(0), &dev, &reqs), want);
        let merged_reads = dev.reads() - base;
        assert!(
            (2..=3).contains(&merged_reads),
            "runs above MAX_RUN_BYTES must split (got {merged_reads} reads)"
        );
    }

    #[test]
    fn zero_length_and_empty_batches_are_fine() {
        let dev = CountingDevice::with_bytes(64);
        let planner = IoPlanner::new(16);
        let mut empty: Vec<ReadReq> = Vec::new();
        planner.read(&dev, &mut empty).unwrap();
        let got = run_planner(&planner, &dev, &[(8, 0), (8, 8)]);
        assert_eq!(got[0], Vec::<u8>::new());
        assert_eq!(got[1].len(), 8);
    }

    #[test]
    fn read_errors_propagate() {
        let dev = CountingDevice::with_bytes(64);
        let planner = IoPlanner::new(u64::MAX);
        let mut reqs = vec![ReadReq::new(0, 32), ReadReq::new(1024, 32)];
        assert!(planner.read(&dev, &mut reqs).is_err(), "read past end");
    }

    #[test]
    fn async_submit_matches_sync_read_for_every_planner_shape() {
        let dev = CountingDevice::with_bytes(4096);
        let reqs = [
            (0u64, 64usize),
            (64, 64),
            (600, 32),
            (0, 16), // duplicate/overlap
            (4000, 96),
        ];
        let want = expected(&dev, &reqs);
        for backend in [IoBackend::Sync, IoBackend::Async] {
            for planner in [
                IoPlanner::new(64).with_backend(backend),
                IoPlanner::new(u64::MAX).with_backend(backend),
            ] {
                assert_eq!(planner.backend(), backend);
                let batch: Vec<ReadReq> = reqs.iter().map(|&(o, l)| ReadReq::new(o, l)).collect();
                let pending = planner.submit(&dev, batch);
                let got: Vec<Vec<u8>> = pending
                    .wait()
                    .unwrap()
                    .into_iter()
                    .map(ReadReq::into_buf)
                    .collect();
                assert_eq!(got, want, "backend {backend}");
            }
        }
        // An empty batch under async completes at once.
        let planner = IoPlanner::new(0).with_backend(IoBackend::Async);
        let pending = planner.submit(&dev, Vec::new());
        assert!(pending.try_complete());
        assert!(pending.wait().unwrap().is_empty());
    }

    #[test]
    fn async_submit_surfaces_read_errors() {
        let dev = CountingDevice::with_bytes(64);
        let planner = IoPlanner::new(u64::MAX).with_backend(IoBackend::Async);
        let pending = planner.submit(&dev, vec![ReadReq::new(0, 32), ReadReq::new(1024, 32)]);
        assert!(pending.wait().is_err(), "read past end must fail the batch");
    }

    #[test]
    fn run_cap_splits_are_counted_in_metrics() {
        let metrics = Arc::new(StorageMetrics::new());
        let chunk = (MAX_RUN_BYTES / 2) as usize + 1;
        let dev = CountingDevice::with_bytes(3 * chunk);
        let planner = IoPlanner::new(0).with_metrics(Arc::clone(&metrics));
        let reqs = [
            (0u64, chunk),
            (chunk as u64, chunk),
            (2 * chunk as u64, chunk),
        ];
        let want = expected(&dev, &reqs);
        assert_eq!(run_planner(&planner, &dev, &reqs), want);
        assert_eq!(
            metrics.snapshot().planner_splits,
            2,
            "each adjacent range beyond the cap is one surfaced split"
        );
        // Gap-separated ranges are distinct runs, not splits.
        let far = [(0u64, 16usize), (1 << 20, 16)];
        let want = expected(&dev, &far);
        assert_eq!(run_planner(&planner, &dev, &far), want);
        assert_eq!(metrics.snapshot().planner_splits, 2, "no new splits");
    }

    #[test]
    fn from_config_honours_the_knobs() {
        let cfg = crate::StoreConfig::in_memory().with_io_gap_bytes(123);
        let planner = IoPlanner::from_config(&cfg);
        assert_eq!(planner.gap_bytes, 123);
        assert_eq!(planner.backend(), IoBackend::Async);
        let cfg = crate::StoreConfig::in_memory().with_io_backend(IoBackend::Sync);
        assert_eq!(IoPlanner::from_config(&cfg).backend(), IoBackend::Sync);
    }
}
