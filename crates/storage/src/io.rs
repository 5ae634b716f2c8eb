//! Vectored cold-path I/O: batch read requests and a coalescing planner.
//!
//! Every engine's cold read path boils down to "fetch these N byte ranges from
//! the device". Issuing them one [`Device::read_at`] at a time pays one device
//! round trip per record; on real SSDs (and on [`crate::SimLatencyDevice`],
//! which models their fixed per-request cost) the round trips dominate the
//! transfer. [`IoPlanner`] turns a batch of [`ReadReq`]s into few large device
//! reads: it sorts the requests by offset, merges ranges whose gap is at most
//! [`crate::StoreConfig::io_gap_bytes`], reads each merged run as one device
//! request, and slices the bytes back into the per-request buffers.
//!
//! The planner is pure plumbing: it never looks at the bytes, so duplicate,
//! overlapping and unsorted requests all work, and the result is byte-identical
//! to the per-request loop ([`Device::read_scatter`]'s default implementation)
//! for every gap threshold.
//!
//! [`IoPlanner::submit`] hands the merged runs to [`Device::submit_reads`] as
//! **one** submission and returns a [`PendingRead`] the caller finishes with
//! [`PendingRead::wait`], after doing whatever CPU work it can overlap with
//! the device. When the reads complete is the device's business: the default
//! completes them inline, [`crate::SimLatencyDevice`] on its virtual clock
//! (see [`crate::ring`]).

use std::sync::Arc;

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
/// cold-path batch read through [`IoPlanner::submit`].
#[derive(Debug, Clone)]
pub struct IoPlanner {
    gap_bytes: u64,
    metrics: Option<Arc<StorageMetrics>>,
}

impl Default for IoPlanner {
    /// The [`crate::StoreConfig`] default gap threshold.
    fn default() -> Self {
        Self::from_config(&crate::StoreConfig::default())
    }
}

impl IoPlanner {
    /// A planner merging ranges separated by at most `gap_bytes`.
    pub fn new(gap_bytes: u64) -> Self {
        Self {
            gap_bytes,
            metrics: None,
        }
    }

    /// Build a planner from the store configuration knobs.
    pub fn from_config(cfg: &crate::StoreConfig) -> Self {
        Self::new(cfg.io_gap_bytes as u64)
    }

    /// Attach the engine's metrics block, so run-cap splits surface as
    /// `planner_splits` instead of being silently applied.
    pub fn with_metrics(mut self, metrics: Arc<StorageMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Submit the batch and return a handle to finish it with: the merged
    /// runs go to [`Device::submit_reads`] as one submission, and
    /// [`PendingRead::wait`] slices the completed bytes back into the
    /// per-request buffers. An empty batch never reaches the device.
    pub fn submit(&self, device: &dyn Device, mut reqs: Vec<ReadReq>) -> PendingRead {
        if reqs.is_empty() {
            return PendingRead {
                batch: IoBatch::ready(Ok(Vec::new())),
                runs: Vec::new(),
                reqs,
            };
        }
        let runs = self.plan(&reqs);
        // Single-member runs cover exactly their request's range: move the
        // request's own buffer into the submission instead of allocating a
        // covering buffer and copying back.
        let merged: Vec<ReadReq> = runs
            .iter()
            .map(|run| match run.members.as_slice() {
                [i] => std::mem::replace(&mut reqs[*i], ReadReq::new(0, 0)),
                _ => ReadReq::new(run.start, (run.end - run.start) as usize),
            })
            .collect();
        PendingRead {
            batch: device.submit_reads(merged),
            runs,
            reqs,
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
}

/// A batch read in flight ([`IoPlanner::submit`]).
///
/// Callers overlap CPU work between submit and [`PendingRead::wait`]; how
/// much device time is left to wait for depends on the device.
pub struct PendingRead {
    /// The merged runs' submission.
    batch: IoBatch,
    /// The plan the submission's requests follow, one request per run.
    runs: Vec<Run>,
    /// The caller's requests; single-member runs' buffers travel in `batch`.
    reqs: Vec<ReadReq>,
}

impl PendingRead {
    /// Wait for the submission and return the filled requests (in their
    /// original order). The first failing device read fails the whole
    /// batch; callers needing per-request granularity fall back to
    /// per-request reads on error.
    pub fn wait(self) -> StorageResult<Vec<ReadReq>> {
        let Self {
            batch,
            runs,
            mut reqs,
        } = self;
        let merged = batch.wait()?;
        for (run, filled) in runs.iter().zip(merged) {
            match run.members.as_slice() {
                // Single-member runs travelled as the request itself: move it
                // back into its slot.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MemDevice, SimLatencyDevice};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Device wrapper counting `read_at` calls (merged runs count once) and
    /// `submit_reads` calls (completed inline, like the trait default).
    struct CountingDevice {
        inner: MemDevice,
        reads: AtomicU64,
        submits: AtomicU64,
    }

    impl CountingDevice {
        fn with_bytes(n: usize) -> Self {
            let inner = MemDevice::new();
            let bytes: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            inner.append(&bytes).unwrap();
            Self {
                inner,
                reads: AtomicU64::new(0),
                submits: AtomicU64::new(0),
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
        fn submit_reads(&self, mut reqs: Vec<ReadReq>) -> IoBatch {
            self.submits.fetch_add(1, Ordering::Relaxed);
            IoBatch::ready(self.read_scatter(&mut reqs).map(|()| reqs))
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

    fn submit(
        planner: &IoPlanner,
        dev: &dyn Device,
        reqs: &[(u64, usize)],
    ) -> StorageResult<Vec<Vec<u8>>> {
        let batch: Vec<ReadReq> = reqs.iter().map(|&(o, l)| ReadReq::new(o, l)).collect();
        let filled = planner.submit(dev, batch).wait()?;
        Ok(filled.into_iter().map(ReadReq::into_buf).collect())
    }

    fn run_planner(planner: &IoPlanner, dev: &dyn Device, reqs: &[(u64, usize)]) -> Vec<Vec<u8>> {
        submit(planner, dev, reqs).unwrap()
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
        assert!(run_planner(&planner, &dev, &[]).is_empty());
        let got = run_planner(&planner, &dev, &[(8, 0), (8, 8)]);
        assert_eq!(got[0], Vec::<u8>::new());
        assert_eq!(got[1].len(), 8);
    }

    #[test]
    fn empty_batches_never_reach_the_device() {
        let dev = CountingDevice::with_bytes(64);
        let pending = IoPlanner::new(0).submit(&dev, Vec::new());
        assert!(pending.wait().unwrap().is_empty());
        assert_eq!(dev.submits.load(Ordering::Relaxed), 0, "no submission");
        assert_eq!(dev.reads(), 0, "no read");
        run_planner(&IoPlanner::new(0), &dev, &[(0, 8), (32, 8)]);
        assert_eq!(dev.submits.load(Ordering::Relaxed), 1, "one per batch");
    }

    #[test]
    fn read_errors_propagate() {
        let dev = CountingDevice::with_bytes(64);
        let planner = IoPlanner::new(u64::MAX);
        assert!(
            submit(&planner, &dev, &[(0, 32), (1024, 32)]).is_err(),
            "read past end"
        );
    }

    /// A clocked device (the simulated SSD) over the same bytes as
    /// [`CountingDevice::with_bytes`].
    fn clocked_device(n: usize) -> SimLatencyDevice {
        let inner = Arc::new(MemDevice::new());
        let bytes: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        inner.append(&bytes).unwrap();
        SimLatencyDevice::new(inner, std::time::Duration::from_micros(1))
    }

    #[test]
    fn async_submit_matches_sync_read_for_every_planner_shape() {
        let inline = CountingDevice::with_bytes(4096);
        let clocked = clocked_device(4096);
        let reqs = [
            (0u64, 64usize),
            (64, 64),
            (600, 32),
            (0, 16), // duplicate/overlap
            (4000, 96),
        ];
        let want = expected(&inline, &reqs);
        for dev in [&inline as &dyn Device, &clocked] {
            for planner in [IoPlanner::new(64), IoPlanner::new(u64::MAX)] {
                assert_eq!(run_planner(&planner, dev, &reqs), want);
            }
        }
    }

    #[test]
    fn async_submit_surfaces_read_errors() {
        let dev = clocked_device(64);
        let planner = IoPlanner::new(u64::MAX);
        assert!(
            submit(&planner, &dev, &[(0, 32), (1024, 32)]).is_err(),
            "read past end must fail the clocked batch"
        );
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
        assert_eq!(IoPlanner::from_config(&cfg).gap_bytes, 123);
    }
}
