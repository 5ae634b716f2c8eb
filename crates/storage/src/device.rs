//! Positioned-I/O device abstraction.
//!
//! Engines spill cold data to a [`Device`]: either a real file ([`FileDevice`],
//! used for the larger-than-memory experiments) or an in-memory byte vector
//! ([`MemDevice`], used in unit tests and for the pure in-memory baselines). The
//! interface is deliberately tiny — append-friendly positioned reads and writes
//! plus a vectored batch read ([`Device::read_scatter`]) — because both the
//! hybrid log and the paged engines only need that.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::io::ReadReq;
use crate::ring::IoBatch;

/// A device supporting positioned reads and writes.
///
/// Implementations must be safe to call from multiple threads concurrently.
pub trait Device: Send + Sync {
    /// Write `data` at byte offset `offset`, extending the device if necessary.
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()>;

    /// Fill `buf` from byte offset `offset`. Returns an error if the range is
    /// not fully populated.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()>;

    /// Fill every request's buffer from its offset (vectored batch read).
    ///
    /// Semantically identical to calling [`Device::read_at`] once per request
    /// — which is exactly the default implementation — but a single trait call
    /// lets implementations batch, reorder or price the requests as one
    /// submission (see [`FileDevice`] and [`SimLatencyDevice`]).
    fn read_scatter(&self, reqs: &mut [ReadReq]) -> StorageResult<()> {
        for req in reqs.iter_mut() {
            self.read_at(req.offset, &mut req.buf)?;
        }
        Ok(())
    }

    /// Submit a batch of reads, taking ownership of the requests until the
    /// returned [`IoBatch`] is waited on. The device decides when they
    /// complete: the default completes them inline (it is
    /// [`Device::read_scatter`] wrapped in an already-complete batch), and
    /// [`SimLatencyDevice`] on its virtual clock. Engines reach it through
    /// [`crate::IoPlanner::submit`], which coalesces near-adjacent ranges
    /// into single large reads first.
    fn submit_reads(&self, mut reqs: Vec<ReadReq>) -> IoBatch {
        IoBatch::ready(self.read_scatter(&mut reqs).map(|()| reqs))
    }

    /// Current logical size in bytes (highest written offset + length).
    fn len(&self) -> u64;

    /// True when nothing has been written yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush buffered data to stable storage.
    fn sync(&self) -> StorageResult<()>;

    /// Append `data` at the end of the device and return the offset it was
    /// written at.
    fn append(&self, data: &[u8]) -> StorageResult<u64>;
}

/// Positioned read without moving any shared cursor (`pread`).
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Positioned write without moving any shared cursor (`pwrite`).
#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ))
            }
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

#[cfg(windows)]
fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_write(buf, offset)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            n => {
                buf = &buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

/// File-backed device built on positioned I/O (`pread`/`pwrite`-style calls
/// that never move a shared cursor), so concurrent reads — the executor's
/// parallel cold gathers — run without any lock between them. Only `append`
/// takes a (tiny) mutex, to make its offset reservation atomic.
pub struct FileDevice {
    file: File,
    len: AtomicU64,
    append_lock: Mutex<()>,
}

impl FileDevice {
    /// Open (or create) a device file at `path`.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            len: AtomicU64::new(len),
            append_lock: Mutex::new(()),
        })
    }

    /// Create a fresh device file at `path`, truncating any existing content.
    pub fn create(path: impl AsRef<Path>) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(Self {
            file,
            len: AtomicU64::new(0),
            append_lock: Mutex::new(()),
        })
    }
}

impl Device for FileDevice {
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
        write_all_at(&self.file, data, offset)?;
        let end = offset + data.len() as u64;
        self.len.fetch_max(end, Ordering::SeqCst);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        read_exact_at(&self.file, buf, offset)?;
        Ok(())
    }

    fn read_scatter(&self, reqs: &mut [ReadReq]) -> StorageResult<()> {
        // Native vectored read: issue the preads in ascending offset order so
        // the kernel/device sees a sequential access pattern, still without
        // taking any lock.
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_unstable_by_key(|&i| reqs[i].offset);
        for i in order {
            let req = &mut reqs[i];
            read_exact_at(&self.file, &mut req.buf, req.offset)?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let _guard = self.append_lock.lock();
        let offset = self.len.load(Ordering::SeqCst);
        write_all_at(&self.file, data, offset)?;
        // fetch_max, not store: a concurrent `write_at` past the old end may
        // have advanced `len` since the load, and it must never regress.
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::SeqCst);
        Ok(offset)
    }
}

/// In-memory device used in tests and for the in-memory baselines. It behaves
/// exactly like [`FileDevice`] but stores bytes in a `Vec<u8>`.
#[derive(Default)]
pub struct MemDevice {
    data: Mutex<Vec<u8>>,
}

impl MemDevice {
    /// Create an empty in-memory device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held by the device (for assertions in tests).
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.lock().clone()
    }

    /// Bounds-checked copy of `[offset, offset + buf.len())` out of the
    /// locked byte store (shared by `read_at` and `read_scatter`).
    fn copy_range(data: &[u8], offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        let end = offset as usize + buf.len();
        if end > data.len() {
            return Err(StorageError::Corruption(format!(
                "read past end of device: {} > {}",
                end,
                data.len()
            )));
        }
        buf.copy_from_slice(&data[offset as usize..end]);
        Ok(())
    }
}

impl Device for MemDevice {
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
        let mut guard = self.data.lock();
        let end = offset as usize + data.len();
        if guard.len() < end {
            guard.resize(end, 0);
        }
        guard[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        let guard = self.data.lock();
        Self::copy_range(&guard, offset, buf)
    }

    fn read_scatter(&self, reqs: &mut [ReadReq]) -> StorageResult<()> {
        // One lock acquisition covers the whole batch.
        let guard = self.data.lock();
        for req in reqs.iter_mut() {
            Self::copy_range(&guard, req.offset, &mut req.buf)?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.lock().len() as u64
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }

    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let mut guard = self.data.lock();
        let offset = guard.len() as u64;
        guard.extend_from_slice(data);
        Ok(offset)
    }
}

/// Decorator injecting SSD-like read costs into an inner device.
///
/// RAM-backed devices answer reads in nanoseconds, which hides every effect
/// the paper attributes to storage: parallel batch reads overlapping device
/// waits, look-ahead prefetching, cold-read stalls — and the round-trip
/// savings of coalesced scatter reads. The model charges every request a
/// **fixed per-request latency** (command overhead / flash read latency) plus
/// a **per-byte transfer cost** derived from a configured throughput, so
/// merging N small reads into one large read genuinely pays 1 fixed cost + N
/// transfers instead of N of each — the same trade a real NVMe queue makes.
/// Sleeps, not spins, so concurrent readers overlap, and a
/// [`Device::submit_reads`] submission overlaps up to [`SIM_QUEUE_DEPTH`] of
/// its requests' fixed costs. Enabled via
/// [`crate::StoreConfig::with_simulated_read_latency`] /
/// [`crate::StoreConfig::with_simulated_read_throughput`]; writes are not
/// delayed (the engines already batch them into page-sized flushes).
pub struct SimLatencyDevice {
    inner: std::sync::Arc<dyn Device>,
    read_latency: std::time::Duration,
    read_bytes_per_sec: u64,
}

/// Requests of one [`SimLatencyDevice`] submission whose fixed costs overlap:
/// a typical NVMe submission-queue slice per submitter.
pub const SIM_QUEUE_DEPTH: usize = 32;

impl SimLatencyDevice {
    /// Wrap `inner`, delaying every `read_at` by `read_latency` (unlimited
    /// transfer throughput — the pure fixed-cost model).
    pub fn new(inner: std::sync::Arc<dyn Device>, read_latency: std::time::Duration) -> Self {
        Self::with_throughput(inner, read_latency, 0)
    }

    /// Wrap `inner` with a fixed `read_latency` per request plus a transfer
    /// cost of `bytes_per_sec` (0 = unlimited).
    pub fn with_throughput(
        inner: std::sync::Arc<dyn Device>,
        read_latency: std::time::Duration,
        bytes_per_sec: u64,
    ) -> Self {
        Self {
            inner,
            read_latency,
            read_bytes_per_sec: bytes_per_sec,
        }
    }

    /// Transfer time for `bytes` at the configured throughput.
    fn transfer_cost(&self, bytes: u64) -> std::time::Duration {
        if self.read_bytes_per_sec == 0 {
            std::time::Duration::ZERO
        } else {
            std::time::Duration::from_nanos(
                (bytes as f64 / self.read_bytes_per_sec as f64 * 1e9) as u64,
            )
        }
    }
}

impl Device for SimLatencyDevice {
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
        self.inner.write_at(offset, data)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        // Sleep before taking any inner lock so concurrent readers wait in
        // parallel, exactly like outstanding requests on a real device queue.
        std::thread::sleep(self.read_latency + self.transfer_cost(buf.len() as u64));
        self.inner.read_at(offset, buf)
    }

    fn read_scatter(&self, reqs: &mut [ReadReq]) -> StorageResult<()> {
        // A scatter of N requests drains a device queue serially: N fixed
        // costs plus the total transfer, paid as one sleep. This is what the
        // coalescing planner beats — merged runs arrive here as a single
        // large `read_at` paying one fixed cost.
        let total_bytes: u64 = reqs.iter().map(|r| r.buf.len() as u64).sum();
        std::thread::sleep(self.read_latency * reqs.len() as u32 + self.transfer_cost(total_bytes));
        self.inner.read_scatter(reqs)
    }

    fn submit_reads(&self, reqs: Vec<ReadReq>) -> IoBatch {
        // Virtual-clock completion: a submission of N requests keeps up to
        // `SIM_QUEUE_DEPTH` of them in flight at once, so it pays
        // ceil(N / depth) fixed costs (not N, the serial `read_scatter`
        // price) plus the full transfer. The deadline is computed up front
        // and the batch completes when it passes, so a submitter that works
        // between submit and wait only pays the residual device time —
        // measurable without real hardware. The inner reads (instant memory
        // copies) run at wait time.
        let total_bytes: u64 = reqs.iter().map(|r| r.buf.len() as u64).sum();
        let rounds = reqs.len().div_ceil(SIM_QUEUE_DEPTH) as u32;
        let service = self.read_latency * rounds + self.transfer_cost(total_bytes);
        let deadline = std::time::Instant::now() + service;
        let inner = std::sync::Arc::clone(&self.inner);
        IoBatch::clocked(deadline, move || {
            let mut reqs = reqs;
            inner.read_scatter(&mut reqs).map(|()| reqs)
        })
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

/// Fault-injection decorator: fails every *batched read submission*
/// ([`Device::read_scatter`] / [`Device::submit_reads`]) and per-request
/// `read_at` from the Nth read operation onward, with an injected I/O error.
///
/// Used by the cold-path fault tests to prove that a submission failing
/// mid-batch surfaces per-slot errors without hanging any completion waiter,
/// and that the store is fully readable again once the device recovers
/// ([`FailingDevice::heal`]). Writes and syncs are never failed *by default*,
/// so the stores under test can be populated through the same wrapped device;
/// [`FailingDevice::set_fail_writes`] / [`FailingDevice::set_fail_syncs`]
/// switch those paths to faulting too, for write-side coverage.
pub struct FailingDevice {
    inner: std::sync::Arc<dyn Device>,
    /// Read-operation number (1-based) from which reads fail; 0 = healthy.
    fail_from: AtomicU64,
    reads: AtomicU64,
    /// When set, every `write_at` / `append` fails.
    fail_writes: AtomicBool,
    /// Write-operation number (1-based) from which writes fail; 0 = healthy.
    /// The scripted analogue of `fail_from` for the write path, so chaos
    /// harnesses can trip a fault at a chosen operation ordinal instead of
    /// toggling `fail_writes` between operations.
    fail_writes_from: AtomicU64,
    /// When set, every `sync` fails.
    fail_syncs: AtomicBool,
    writes: AtomicU64,
    syncs: AtomicU64,
}

impl FailingDevice {
    /// Wrap `inner`; reads fail from the `fail_from`-th read operation
    /// onward (1-based; 0 starts healthy).
    pub fn new(inner: std::sync::Arc<dyn Device>, fail_from: u64) -> Self {
        Self {
            inner,
            fail_from: AtomicU64::new(fail_from),
            reads: AtomicU64::new(0),
            fail_writes: AtomicBool::new(false),
            fail_writes_from: AtomicU64::new(0),
            fail_syncs: AtomicBool::new(false),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// Stop injecting failures on every path (the device "recovers").
    pub fn heal(&self) {
        self.fail_from.store(0, Ordering::SeqCst);
        self.fail_writes.store(false, Ordering::SeqCst);
        self.fail_writes_from.store(0, Ordering::SeqCst);
        self.fail_syncs.store(false, Ordering::SeqCst);
    }

    /// Start (or stop) failing every `write_at` / `append`.
    pub fn set_fail_writes(&self, fail: bool) {
        self.fail_writes.store(fail, Ordering::SeqCst);
    }

    /// Start (or stop) failing every `sync`.
    pub fn set_fail_syncs(&self, fail: bool) {
        self.fail_syncs.store(fail, Ordering::SeqCst);
    }

    /// Start failing writes `after` write operations from now (scripted by
    /// operation ordinal, like [`CrashClock::arm`] for power loss; `heal`
    /// clears it).
    pub fn fail_writes_after(&self, after: u64) {
        self.fail_writes_from.store(
            self.writes.load(Ordering::SeqCst) + after + 1,
            Ordering::SeqCst,
        );
    }

    /// Resume failing, starting `after` read operations from now.
    pub fn fail_after(&self, after: u64) {
        self.fail_from.store(
            self.reads.load(Ordering::SeqCst) + after + 1,
            Ordering::SeqCst,
        );
    }

    /// Total read operations observed so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    /// Total write operations (`write_at` + `append`) observed so far,
    /// including failed ones.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Total sync operations observed so far, including failed ones.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    fn next_read_fails(&self) -> bool {
        let n = self.reads.fetch_add(1, Ordering::SeqCst) + 1;
        let fail_from = self.fail_from.load(Ordering::SeqCst);
        fail_from != 0 && n >= fail_from
    }

    fn next_write_fails(&self) -> bool {
        let n = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if self.fail_writes.load(Ordering::SeqCst) {
            return true;
        }
        let fail_from = self.fail_writes_from.load(Ordering::SeqCst);
        fail_from != 0 && n >= fail_from
    }

    fn injected() -> StorageError {
        StorageError::Io(std::io::Error::other("injected device failure"))
    }
}

impl Device for FailingDevice {
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
        if self.next_write_fails() {
            return Err(Self::injected());
        }
        self.inner.write_at(offset, data)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        if self.next_read_fails() {
            return Err(Self::injected());
        }
        self.inner.read_at(offset, buf)
    }

    fn read_scatter(&self, reqs: &mut [ReadReq]) -> StorageResult<()> {
        if self.next_read_fails() {
            return Err(Self::injected());
        }
        self.inner.read_scatter(reqs)
    }

    fn submit_reads(&self, reqs: Vec<ReadReq>) -> IoBatch {
        if self.next_read_fails() {
            return IoBatch::ready(Err(Self::injected()));
        }
        self.inner.submit_reads(reqs)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> StorageResult<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        if self.fail_syncs.load(Ordering::SeqCst) {
            return Err(Self::injected());
        }
        self.inner.sync()
    }

    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        if self.next_write_fails() {
            return Err(Self::injected());
        }
        self.inner.append(data)
    }
}

/// Shared power-loss script for every [`CrashDevice`] of one store.
///
/// Syncs are the durability boundaries, so the clock counts them *globally*
/// across all of a store's files (WAL, hybrid log, SSTs, journal, meta) and
/// kills the whole "machine" — every attached device at once — when the
/// scripted ordinal is reached, exactly like pulling the plug mid-fsync. The
/// crash-injection harness first runs a workload un-armed to learn how many
/// sync boundaries it has ([`CrashClock::syncs`]), then sweeps `kill_at` over
/// every one of them.
#[derive(Debug, Default)]
pub struct CrashClock {
    syncs: AtomicU64,
    /// Sync ordinal (1-based) at which power dies; 0 = never.
    kill_at: AtomicU64,
    dead: AtomicBool,
}

impl CrashClock {
    /// A new, un-armed clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the script: power dies at the `kill_at`-th sync from now on
    /// (1-based; counts continue across [`CrashClock::arm`] calls).
    pub fn arm(&self, kill_at: u64) {
        self.kill_at.store(kill_at, Ordering::SeqCst);
    }

    /// Total syncs observed across every attached device.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// True once power has been lost.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Lose power immediately (un-scripted kill).
    pub fn kill_now(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Record one sync; returns `true` when this sync is the scripted kill
    /// point (power dies *during* the fsync, before it reaches the platter).
    fn on_sync(&self) -> bool {
        let n = self.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        let kill_at = self.kill_at.load(Ordering::SeqCst);
        if kill_at != 0 && n >= kill_at {
            self.dead.store(true, Ordering::SeqCst);
            true
        } else {
            false
        }
    }
}

/// Un-flushed writes of one [`CrashDevice`], applied to the inner device only
/// on a successful sync.
struct CrashState {
    /// Writes since the last sync, in issue order (later entries win).
    pending: Vec<(u64, Vec<u8>)>,
    /// Visible device length (inner length + un-synced extensions).
    len: u64,
}

/// Power-loss injection device: buffers every write in memory and hardens it
/// to the inner (file) device only on `sync`. When the shared [`CrashClock`]
/// reaches its scripted kill point, all un-synced bytes are gone and every
/// further operation fails until the store is reopened over the inner files —
/// which then contain exactly what a real disk would after `kill -9` + power
/// cycle: the synced prefix, nothing more.
///
/// Sibling of [`FailingDevice`]: that one injects *transient I/O errors*,
/// this one injects *power loss*.
pub struct CrashDevice {
    inner: std::sync::Arc<dyn Device>,
    clock: std::sync::Arc<CrashClock>,
    state: Mutex<CrashState>,
    writes: AtomicU64,
}

impl CrashDevice {
    /// Wrap `inner` (typically a [`FileDevice`]) under `clock`'s script.
    pub fn new(inner: std::sync::Arc<dyn Device>, clock: std::sync::Arc<CrashClock>) -> Self {
        let len = inner.len();
        Self {
            inner,
            clock,
            state: Mutex::new(CrashState {
                pending: Vec::new(),
                len,
            }),
            writes: AtomicU64::new(0),
        }
    }

    /// Total write operations (`write_at` + `append`) observed.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Bytes currently buffered and not yet hardened.
    pub fn unsynced_bytes(&self) -> u64 {
        self.state
            .lock()
            .pending
            .iter()
            .map(|(_, d)| d.len() as u64)
            .sum()
    }

    fn dead_err() -> StorageError {
        StorageError::Io(std::io::Error::other(
            "power lost: device refuses I/O until reopen",
        ))
    }

    fn check_alive(&self) -> StorageResult<()> {
        if self.clock.is_dead() {
            Err(Self::dead_err())
        } else {
            Ok(())
        }
    }
}

impl Device for CrashDevice {
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
        self.check_alive()?;
        self.writes.fetch_add(1, Ordering::SeqCst);
        let mut state = self.state.lock();
        state.len = state.len.max(offset + data.len() as u64);
        state.pending.push((offset, data.to_vec()));
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        self.check_alive()?;
        let state = self.state.lock();
        let end = offset + buf.len() as u64;
        if end > state.len {
            return Err(StorageError::Corruption(format!(
                "read past end of device: {} > {}",
                end, state.len
            )));
        }
        // Base image: whatever the inner device has for the part of the range
        // it covers; bytes that exist only as un-synced writes start zeroed.
        buf.fill(0);
        let inner_len = self.inner.len();
        if offset < inner_len {
            let covered = ((inner_len - offset) as usize).min(buf.len());
            self.inner.read_at(offset, &mut buf[..covered])?;
        }
        // Overlay pending writes in issue order (later writes win).
        for (w_off, data) in &state.pending {
            let w_end = w_off + data.len() as u64;
            if w_end <= offset || *w_off >= end {
                continue;
            }
            let from = offset.max(*w_off);
            let to = end.min(w_end);
            buf[(from - offset) as usize..(to - offset) as usize]
                .copy_from_slice(&data[(from - w_off) as usize..(to - w_off) as usize]);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.state.lock().len
    }

    fn sync(&self) -> StorageResult<()> {
        self.check_alive()?;
        // Hold the state lock across the clock tick and the flush so the
        // kill decision and the hardening of this device are atomic.
        let mut state = self.state.lock();
        if self.clock.on_sync() {
            // Power dies during the fsync: nothing buffered reaches the
            // inner device, and the whole machine is dead from here on.
            return Err(Self::dead_err());
        }
        for (offset, data) in state.pending.drain(..) {
            self.inner.write_at(offset, &data)?;
        }
        self.inner.sync()
    }

    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        self.check_alive()?;
        self.writes.fetch_add(1, Ordering::SeqCst);
        let mut state = self.state.lock();
        let offset = state.len;
        state.len += data.len() as u64;
        state.pending.push((offset, data.to_vec()));
        Ok(offset)
    }
}

/// Construct a device from a [`crate::StoreConfig`]: file-backed when a directory
/// is configured, memory-backed otherwise. `name` distinguishes multiple device
/// files of one engine (e.g. `hlog.dat`, `wal.dat`). A configured
/// `simulated_read_latency` / `simulated_read_bytes_per_sec` wraps the device
/// in a [`SimLatencyDevice`], whose submissions complete on its virtual clock;
/// every other device completes them inline. A configured
/// [`crate::DeviceFactory`] replaces the base (file/memory) construction —
/// the crash- and fault-injection harnesses use it to slide a [`CrashDevice`]
/// or [`FailingDevice`] under every file of a store — and still gets the
/// simulated-latency wrapping applied on top.
pub fn device_from_config(
    cfg: &crate::StoreConfig,
    name: &str,
) -> StorageResult<std::sync::Arc<dyn Device>> {
    let device: std::sync::Arc<dyn Device> = match (&cfg.device_factory, &cfg.dir) {
        (Some(factory), _) => factory.make(name)?,
        (None, Some(dir)) => {
            std::fs::create_dir_all(dir)?;
            std::sync::Arc::new(FileDevice::open(dir.join(name))?)
        }
        (None, None) => std::sync::Arc::new(MemDevice::new()),
    };
    if cfg.simulated_read_latency.is_zero() && cfg.simulated_read_bytes_per_sec == 0 {
        return Ok(device);
    }
    Ok(std::sync::Arc::new(SimLatencyDevice::with_throughput(
        device,
        cfg.simulated_read_latency,
        cfg.simulated_read_bytes_per_sec,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dev: &dyn Device) {
        assert!(dev.is_empty());
        let off = dev.append(b"hello").unwrap();
        assert_eq!(off, 0);
        let off2 = dev.append(b" world").unwrap();
        assert_eq!(off2, 5);
        assert_eq!(dev.len(), 11);

        let mut buf = vec![0u8; 11];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");

        let mut reqs = vec![ReadReq::new(6, 5), ReadReq::new(0, 5)];
        dev.read_scatter(&mut reqs).unwrap();
        assert_eq!(&reqs[0].buf, b"world");
        assert_eq!(&reqs[1].buf, b"hello");

        dev.write_at(0, b"HELLO").unwrap();
        let mut buf = vec![0u8; 5];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"HELLO");
        dev.sync().unwrap();
    }

    #[test]
    fn mem_device_roundtrip() {
        let dev = MemDevice::new();
        roundtrip(&dev);
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mlkv-dev-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.dat");
        {
            let dev = FileDevice::create(&path).unwrap();
            roundtrip(&dev);
        }
        // Re-open and confirm persistence.
        let dev = FileDevice::open(&path).unwrap();
        assert_eq!(dev.len(), 11);
        let mut buf = vec![0u8; 5];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"HELLO");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_device_concurrent_positioned_reads_need_no_lock() {
        let dir = std::env::temp_dir().join(format!("mlkv-dev-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dev = std::sync::Arc::new(FileDevice::create(dir.join("par.dat")).unwrap());
        let bytes: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        dev.append(&bytes).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let dev = std::sync::Arc::clone(&dev);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let offset = (t * 1000 + i * 13) % (64 * 1024 - 32);
                    let mut buf = [0u8; 32];
                    dev.read_at(offset, &mut buf).unwrap();
                    for (j, b) in buf.iter().enumerate() {
                        assert_eq!(*b, ((offset as usize + j) % 251) as u8);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_device_write_past_end_extends() {
        let dev = MemDevice::new();
        dev.write_at(100, b"x").unwrap();
        assert_eq!(dev.len(), 101);
        let mut b = [0u8; 1];
        dev.read_at(100, &mut b).unwrap();
        assert_eq!(&b, b"x");
    }

    #[test]
    fn mem_device_read_past_end_errors() {
        let dev = MemDevice::new();
        dev.append(b"abc").unwrap();
        let mut buf = vec![0u8; 10];
        assert!(dev.read_at(0, &mut buf).is_err());
        let mut reqs = vec![ReadReq::new(0, 10)];
        assert!(dev.read_scatter(&mut reqs).is_err());
    }

    #[test]
    fn device_from_config_picks_backend() {
        let mem = device_from_config(&crate::StoreConfig::in_memory(), "x.dat").unwrap();
        mem.append(b"a").unwrap();
        assert_eq!(mem.len(), 1);

        let dir = std::env::temp_dir().join(format!("mlkv-devcfg-{}", std::process::id()));
        let file = device_from_config(&crate::StoreConfig::on_disk(&dir), "x.dat").unwrap();
        file.append(b"ab").unwrap();
        assert_eq!(file.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_latency_device_delays_reads_and_preserves_data() {
        let latency = std::time::Duration::from_millis(5);
        let cfg = crate::StoreConfig::in_memory().with_simulated_read_latency(latency);
        let dev = device_from_config(&cfg, "x.dat").unwrap();
        dev.append(b"hello").unwrap();
        assert_eq!(dev.len(), 5);
        let start = std::time::Instant::now();
        let mut buf = [0u8; 5];
        dev.read_at(0, &mut buf).unwrap();
        assert!(start.elapsed() >= latency, "read must pay the latency");
        assert_eq!(&buf, b"hello");
        dev.write_at(0, b"HELLO").unwrap();
        dev.sync().unwrap();
    }

    #[test]
    fn sim_submit_reads_overlaps_fixed_costs_up_to_queue_depth() {
        let latency = std::time::Duration::from_millis(4);
        let inner = std::sync::Arc::new(MemDevice::new());
        let n = 2 * SIM_QUEUE_DEPTH as u64;
        inner.append(&vec![3u8; 64 * n as usize]).unwrap();
        let dev = SimLatencyDevice::new(inner, latency);
        // Two queue depths of requests: two rounds of fixed cost, not 64.
        let reqs: Vec<ReadReq> = (0..n).map(|i| ReadReq::new(i * 64, 64)).collect();
        let start = std::time::Instant::now();
        let batch = dev.submit_reads(reqs);
        let submitted_in = start.elapsed();
        let filled = batch.wait().unwrap();
        let total = start.elapsed();
        assert!(total >= latency * 2, "two virtual rounds must be paid");
        assert!(
            total < latency * 32,
            "the fixed costs must overlap (64 serially)"
        );
        assert!(
            submitted_in < latency,
            "submission must not sleep (virtual clock defers the cost)"
        );
        assert!(filled.iter().all(|r| r.buf == vec![3u8; 64]));
    }

    #[test]
    fn failing_device_injects_then_heals() {
        let inner = std::sync::Arc::new(MemDevice::new());
        inner.append(&vec![9u8; 256]).unwrap();
        let dev = FailingDevice::new(inner, 2);
        let mut buf = [0u8; 8];
        dev.read_at(0, &mut buf).unwrap(); // read #1: healthy
        assert!(dev.read_at(0, &mut buf).is_err(), "read #2 fails");
        let mut reqs = vec![ReadReq::new(0, 8)];
        assert!(dev.read_scatter(&mut reqs).is_err());
        assert!(dev.submit_reads(vec![ReadReq::new(0, 8)]).wait().is_err());
        dev.heal();
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, &[9u8; 8]);
        assert!(dev.submit_reads(vec![ReadReq::new(0, 8)]).wait().is_ok());
        dev.fail_after(1);
        dev.read_at(0, &mut buf).unwrap();
        assert!(dev.read_at(0, &mut buf).is_err());
        assert!(dev.reads() >= 8);
        // Writes are never failed.
        dev.write_at(0, b"w").unwrap();
        assert_eq!(dev.append(b"a").unwrap(), 256);
        dev.sync().unwrap();
        assert_eq!(dev.len(), 257);
    }

    #[test]
    fn failing_device_write_and_sync_faults_toggle() {
        let inner = std::sync::Arc::new(MemDevice::new());
        let dev = FailingDevice::new(inner, 0);
        dev.append(b"ok").unwrap();
        dev.sync().unwrap();

        dev.set_fail_writes(true);
        assert!(dev.write_at(0, b"x").is_err());
        assert!(dev.append(b"y").is_err());
        dev.sync().unwrap(); // syncs still healthy

        dev.set_fail_syncs(true);
        assert!(dev.sync().is_err());
        // Reads are untouched by write/sync faults.
        let mut buf = [0u8; 2];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ok");

        dev.heal();
        dev.write_at(0, b"OK").unwrap();
        dev.sync().unwrap();
        assert_eq!(dev.writes(), 4, "failed writes still counted");
        assert_eq!(dev.syncs(), 4, "failed syncs still counted");
    }

    #[test]
    fn failing_device_scripted_write_ordinal() {
        let inner = std::sync::Arc::new(MemDevice::new());
        let dev = FailingDevice::new(inner, 0);
        dev.append(b"one").unwrap();
        dev.fail_writes_after(1);
        dev.append(b"two").unwrap(); // one more healthy write
        assert!(dev.append(b"three").is_err(), "scripted ordinal reached");
        assert!(dev.write_at(0, b"x").is_err(), "stays failed afterwards");
        dev.heal();
        dev.append(b"four").unwrap();
        assert_eq!(dev.writes(), 5, "failed writes still counted");
    }

    #[test]
    fn crash_device_loses_unsynced_bytes_at_the_scripted_sync() {
        let inner = std::sync::Arc::new(MemDevice::new());
        let clock = std::sync::Arc::new(CrashClock::new());
        let dev = CrashDevice::new(
            std::sync::Arc::clone(&inner) as std::sync::Arc<dyn Device>,
            std::sync::Arc::clone(&clock),
        );

        // Writes buffer: visible through the overlay, absent from the inner
        // device until a sync hardens them.
        assert_eq!(dev.append(b"alpha").unwrap(), 0);
        dev.write_at(2, b"XY").unwrap();
        assert_eq!(dev.len(), 5);
        let mut buf = [0u8; 5];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"alXYa", "later write wins in the overlay");
        assert_eq!(inner.len(), 0, "nothing hardened yet");
        assert!(dev.unsynced_bytes() > 0);

        dev.sync().unwrap();
        assert_eq!(clock.syncs(), 1);
        assert_eq!(dev.unsynced_bytes(), 0);
        assert_eq!(&inner.to_vec(), b"alXYa", "sync hardens in issue order");

        // Arm the script: the very next sync is the kill point. The synced
        // prefix survives; the tail written after it does not.
        clock.arm(2);
        dev.append(b"-lost").unwrap();
        assert!(dev.sync().is_err(), "power dies during the fsync");
        assert!(clock.is_dead());
        assert!(dev.read_at(0, &mut buf).is_err(), "dead until reopen");
        assert!(dev.write_at(0, b"z").is_err());
        assert!(dev.append(b"z").is_err());
        assert!(dev.sync().is_err());
        assert_eq!(&inner.to_vec(), b"alXYa", "un-synced tail is gone");
        assert!(dev.writes() >= 3);

        // "Reopen": a fresh device over the same inner bytes, fresh clock.
        let dev = CrashDevice::new(inner, std::sync::Arc::new(CrashClock::new()));
        assert_eq!(dev.len(), 5);
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"alXYa");
    }

    #[test]
    fn crash_clock_is_global_across_devices_and_kill_now_works() {
        let clock = std::sync::Arc::new(CrashClock::new());
        let a = CrashDevice::new(
            std::sync::Arc::new(MemDevice::new()) as std::sync::Arc<dyn Device>,
            std::sync::Arc::clone(&clock),
        );
        let b = CrashDevice::new(
            std::sync::Arc::new(MemDevice::new()) as std::sync::Arc<dyn Device>,
            std::sync::Arc::clone(&clock),
        );
        a.sync().unwrap();
        b.sync().unwrap();
        assert_eq!(clock.syncs(), 2, "one ordinal stream for the machine");
        clock.arm(3);
        assert!(a.sync().is_err(), "third sync anywhere is the kill point");
        assert!(b.append(b"x").is_err(), "whole machine dies together");

        let clock = CrashClock::new();
        assert!(!clock.is_dead());
        clock.kill_now();
        assert!(clock.is_dead());
    }

    #[test]
    fn device_from_config_uses_the_factory() {
        let counted = std::sync::Arc::new(MemDevice::new());
        let handle = std::sync::Arc::clone(&counted);
        let cfg = crate::StoreConfig::in_memory().with_device_factory(
            crate::config::DeviceFactory::new(move |name| {
                assert_eq!(name, "x.dat");
                Ok(std::sync::Arc::clone(&handle) as std::sync::Arc<dyn Device>)
            }),
        );
        let dev = device_from_config(&cfg, "x.dat").unwrap();
        dev.append(b"via factory").unwrap();
        assert_eq!(&counted.to_vec(), b"via factory");
    }

    #[test]
    fn device_from_config_wires_the_async_backend() {
        // Without simulation: submissions complete inline.
        let dev = device_from_config(&crate::StoreConfig::in_memory(), "x.dat").unwrap();
        dev.append(&[1, 2, 3, 4]).unwrap();
        let reqs = dev.submit_reads(vec![ReadReq::new(1, 2)]).wait().unwrap();
        assert_eq!(reqs[0].buf, vec![2, 3]);
        // With simulation: the virtual clock serves submissions, so the
        // submit itself does not sleep and the wait pays the latency.
        let latency = std::time::Duration::from_millis(5);
        let cfg = crate::StoreConfig::in_memory().with_simulated_read_latency(latency);
        let dev = device_from_config(&cfg, "x.dat").unwrap();
        dev.append(&[7; 16]).unwrap();
        let start = std::time::Instant::now();
        let batch = dev.submit_reads(vec![ReadReq::new(0, 4), ReadReq::new(8, 4)]);
        assert!(start.elapsed() < latency, "a clocked submit must not sleep");
        let reqs = batch.wait().unwrap();
        assert!(start.elapsed() >= latency, "its wait pays the latency");
        assert!(reqs.iter().all(|r| r.buf == vec![7; 4]));
    }

    #[test]
    fn sim_latency_scatter_pays_per_request_and_per_byte() {
        let latency = std::time::Duration::from_millis(2);
        let cfg = crate::StoreConfig::in_memory()
            .with_simulated_read_latency(latency)
            .with_simulated_read_throughput(1 << 20); // 1 MiB/s: 1 KiB ≈ 1 ms
        let dev = device_from_config(&cfg, "x.dat").unwrap();
        dev.append(&vec![7u8; 4096]).unwrap();

        // Scatter of 4 requests: ≥ 4 fixed costs.
        let mut reqs: Vec<ReadReq> = (0..4).map(|i| ReadReq::new(i * 64, 64)).collect();
        let start = std::time::Instant::now();
        dev.read_scatter(&mut reqs).unwrap();
        assert!(start.elapsed() >= latency * 4, "scatter pays per request");
        assert!(reqs.iter().all(|r| r.buf == vec![7u8; 64]));

        // One large read: 1 fixed cost + transfer of 2 KiB ≈ 2 ms.
        let start = std::time::Instant::now();
        let mut buf = vec![0u8; 2048];
        dev.read_at(0, &mut buf).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= latency + std::time::Duration::from_millis(1));
    }
}
