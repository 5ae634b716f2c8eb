//! The device model every number of this benchmark is priced by, and the
//! `Device` wrapper that measures the device boundary.
//!
//! Files are RAM-backed ([`MemDevice`]) and priced as an SSD by the product's
//! own [`mlkv_storage::SimLatencyDevice`] (25 µs per read request + 1 GiB/s
//! transfer), which `device_from_config` stacks on top of whatever the
//! [`DeviceFactory`] returns. The factory returns a [`CountingDevice`], so the
//! wrapper sits *beneath* the pricing: it sees exactly the requests that reach
//! the medium, counts them per file class, and charges `sync()` itself.
//! Latencies are this sandbox model's, not a device's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlkv_storage::{Device, DeviceFactory, MemDevice, ReadReq, StorageResult, StoreConfig};

use crate::trace::{Layer, Trace};

/// Fixed cost the model charges per read request.
pub const READ_LATENCY: Duration = Duration::from_micros(25);
/// Transfer rate the model charges read bytes at.
pub const READ_BYTES_PER_SEC: u64 = 1 << 30;
/// What one `sync()` costs (slept by [`CountingDevice`]).
pub const SYNC_COST: Duration = Duration::from_micros(100);

/// What the model charges a read call of `reqs` requests and `bytes` bytes on
/// the product's default (blocking) I/O backend.
pub fn read_cost_ns(reqs: u64, bytes: u64) -> u64 {
    reqs * READ_LATENCY.as_nanos() as u64 + (bytes as f64 / READ_BYTES_PER_SEC as f64 * 1e9) as u64
}

/// Which kind of file a device backs, from the name the engine asked for
/// (`hlog.dat`, `sst_*.dat` are data; `wal_*.dat`, `faster_wal_*.dat` are WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    Data,
    Wal,
}

impl FileClass {
    pub fn of(name: &str) -> Self {
        if name.contains("wal") {
            FileClass::Wal
        } else {
            FileClass::Data
        }
    }
}

/// Traffic of one file class. Monotonic, except `live_bytes`, which drops
/// when the engine lets go of a file (a compacted SST, a rotated WAL).
#[derive(Debug, Default)]
pub struct ClassCounters {
    pub read_reqs: AtomicU64,
    pub read_bytes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub live_bytes: AtomicU64,
}

/// Plain copy of [`ClassCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassSnapshot {
    pub read_reqs: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub syncs: u64,
    pub live_bytes: u64,
}

impl ClassCounters {
    pub fn snapshot(&self) -> ClassSnapshot {
        ClassSnapshot {
            read_reqs: self.read_reqs.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
        }
    }
}

impl ClassSnapshot {
    /// Traffic since `earlier`; `live_bytes` is a level and stays as it is now.
    pub fn since(&self, earlier: &ClassSnapshot) -> ClassSnapshot {
        ClassSnapshot {
            read_reqs: self.read_reqs - earlier.read_reqs,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
            live_bytes: self.live_bytes,
        }
    }
}

/// Counters of every file of one store, by class.
#[derive(Debug, Default)]
pub struct DeviceCounters {
    pub data: ClassCounters,
    pub wal: ClassCounters,
}

/// Plain copy of [`DeviceCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSnapshot {
    pub data: ClassSnapshot,
    pub wal: ClassSnapshot,
}

impl DeviceCounters {
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            data: self.data.snapshot(),
            wal: self.wal.snapshot(),
        }
    }
}

impl DeviceSnapshot {
    pub fn since(&self, earlier: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            data: self.data.since(&earlier.data),
            wal: self.wal.since(&earlier.wal),
        }
    }

    pub fn read_reqs(&self) -> u64 {
        self.data.read_reqs + self.wal.read_reqs
    }

    pub fn read_bytes(&self) -> u64 {
        self.data.read_bytes + self.wal.read_bytes
    }

    pub fn write_bytes(&self) -> u64 {
        self.data.write_bytes + self.wal.write_bytes
    }

    pub fn syncs(&self) -> u64 {
        self.data.syncs + self.wal.syncs
    }

    pub fn live_bytes(&self) -> u64 {
        self.data.live_bytes + self.wal.live_bytes
    }

    /// Service time the model charges for this traffic, in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        read_cost_ns(self.read_reqs(), self.read_bytes())
            + self.syncs() * SYNC_COST.as_nanos() as u64
    }
}

/// RAM-backed file that counts what reaches it.
pub struct CountingDevice {
    inner: MemDevice,
    class: FileClass,
    counters: Arc<DeviceCounters>,
    trace: Arc<Trace>,
    /// File length already added to the class's `live_bytes`.
    accounted_len: AtomicU64,
}

impl CountingDevice {
    pub fn new(name: &str, counters: Arc<DeviceCounters>, trace: Arc<Trace>) -> Self {
        Self {
            inner: MemDevice::new(),
            class: FileClass::of(name),
            counters,
            trace,
            accounted_len: AtomicU64::new(0),
        }
    }

    fn class(&self) -> &ClassCounters {
        match self.class {
            FileClass::Data => &self.counters.data,
            FileClass::Wal => &self.counters.wal,
        }
    }

    fn op(&self, data: &'static str, wal: &'static str) -> &'static str {
        match self.class {
            FileClass::Data => data,
            FileClass::Wal => wal,
        }
    }

    fn count_read(&self, reqs: u64, bytes: u64) {
        let c = self.class();
        c.read_reqs.fetch_add(reqs, Ordering::Relaxed);
        c.read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Forward a write and account for it, growth of the file included.
    fn write<T>(
        &self,
        bytes: u64,
        f: impl FnOnce(&MemDevice) -> StorageResult<T>,
    ) -> StorageResult<T> {
        let start = self.trace.enabled().then(|| self.trace.now_ns());
        let out = f(&self.inner)?;
        let c = self.class();
        c.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        let len = self.inner.len();
        let accounted = self.accounted_len.fetch_max(len, Ordering::Relaxed);
        c.live_bytes
            .fetch_add(len.saturating_sub(accounted), Ordering::Relaxed);
        if let Some(start) = start {
            self.trace.record(
                Layer::Device,
                self.op("data.write", "wal.write"),
                start,
                1,
                0,
            );
        }
        Ok(out)
    }
}

impl Device for CountingDevice {
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
        self.write(data.len() as u64, |d| d.write_at(offset, data))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        let start = self.trace.enabled().then(|| self.trace.now_ns());
        let bytes = buf.len() as u64;
        self.count_read(1, bytes);
        let out = self.inner.read_at(offset, buf);
        if let Some(start) = start {
            let op = self.op("data.read", "wal.read");
            self.trace
                .record(Layer::Device, op, start, 1, read_cost_ns(1, bytes));
        }
        out
    }

    fn read_scatter(&self, reqs: &mut [ReadReq]) -> StorageResult<()> {
        let start = self.trace.enabled().then(|| self.trace.now_ns());
        let n = reqs.len() as u64;
        let bytes: u64 = reqs.iter().map(|r| r.buf.len() as u64).sum();
        self.count_read(n, bytes);
        let out = self.inner.read_scatter(reqs);
        if let Some(start) = start {
            let op = self.op("data.read", "wal.read");
            self.trace
                .record(Layer::Device, op, start, n as u32, read_cost_ns(n, bytes));
        }
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> StorageResult<()> {
        let start = self.trace.enabled().then(|| self.trace.now_ns());
        std::thread::sleep(SYNC_COST);
        self.class().syncs.fetch_add(1, Ordering::Relaxed);
        let out = self.inner.sync();
        if let Some(start) = start {
            self.trace
                .record(Layer::Device, self.op("data.sync", "wal.sync"), start, 1, 0);
        }
        out
    }

    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        self.write(data.len() as u64, |d| d.append(data))
    }
}

impl Drop for CountingDevice {
    fn drop(&mut self) {
        // The engine let go of the file (compaction, WAL rotation): its bytes
        // no longer occupy the device.
        self.class().live_bytes.fetch_sub(
            self.accounted_len.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
}

/// Put the device model under `config`: the product's simulated SSD pricing on
/// top, a [`CountingDevice`] per file beneath it. Every other knob keeps the
/// product's default.
pub fn priced(
    config: StoreConfig,
    counters: &Arc<DeviceCounters>,
    trace: &Arc<Trace>,
) -> StoreConfig {
    let (counters, trace) = (Arc::clone(counters), Arc::clone(trace));
    config
        .with_simulated_read_latency(READ_LATENCY)
        .with_simulated_read_throughput(READ_BYTES_PER_SEC)
        .with_device_factory(DeviceFactory::new(move |name| {
            Ok(Arc::new(CountingDevice::new(
                name,
                Arc::clone(&counters),
                Arc::clone(&trace),
            )) as Arc<dyn Device>)
        }))
}
