//! Common configuration knobs for storage engines.
//!
//! The paper's evaluation sweeps a single knob — the **memory buffer size** — across
//! all engines (Figure 7, 9(b), 10, 11(a)). `StoreConfig` captures that budget plus
//! the handful of structural parameters the engines need.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::device::Device;
use crate::error::StorageResult;

/// When a store's write-ahead log syncs its device — the trade between
/// per-operation fsync cost and the bytes a power loss may take with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Never sync the WAL. A crash may lose everything since the last engine
    /// flush/checkpoint; clean shutdown-and-reopen still replays the log.
    /// Mirrors the paper's non-durable training runs (the default).
    #[default]
    None,
    /// Write the log with every batch and never sync it: a clean reopen
    /// replays it, but against power loss only the engines' own flush and
    /// checkpoint syncs of their data files harden anything, so acknowledged
    /// writes since the last of those may be lost. The classic OS-buffered
    /// posture.
    Buffered,
    /// Group commit: one sync per acknowledged batch (`write_batch` /
    /// `multi_rmw` / single ops), plus a forced sync whenever `window`
    /// records accumulate un-synced inside a batch. Every acknowledged
    /// operation survives a crash; the fsync cost is amortised across the
    /// whole group.
    GroupCommit {
        /// Maximum number of un-synced records before an append forces a
        /// sync (clamped to ≥ 1). `window: 1` is per-record fsync.
        window: usize,
    },
}

impl DurabilityMode {
    /// True when acknowledged individual operations survive a power loss.
    pub fn is_durable(&self) -> bool {
        matches!(self, DurabilityMode::GroupCommit { .. })
    }

    /// Parse the CI-matrix / env-var spelling (case-insensitive):
    /// `"none"`, `"buffered"`, `"group"` (group commit, one sync per
    /// acknowledged batch), or `"group:<window>"` (forced sync every
    /// `<window>` un-synced records; `group:1` is per-record fsync).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "none" => Some(Self::None),
            "buffered" => Some(Self::Buffered),
            "group" | "group_commit" | "group-commit" => Some(Self::GroupCommit {
                window: DEFAULT_GROUP_COMMIT_WINDOW,
            }),
            _ => {
                let window = s
                    .strip_prefix("group:")
                    .or_else(|| s.strip_prefix("group_commit:"))
                    .or_else(|| s.strip_prefix("group-commit:"))?;
                window
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .map(|w| Self::GroupCommit { window: w.max(1) })
            }
        }
    }
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::None => f.write_str("none"),
            Self::Buffered => f.write_str("buffered"),
            Self::GroupCommit { window } => write!(f, "group-commit({window})"),
        }
    }
}

/// Injectable device constructor: maps a file name (e.g. `"wal_3.dat"`) to
/// the [`Device`] a store should use for it. The crash-injection harness uses
/// this to slide a [`crate::CrashDevice`] under every file of a store; when
/// unset, [`crate::device_from_config`] builds file/memory devices as usual.
#[derive(Clone)]
pub struct DeviceFactory(DeviceFactoryFn);

/// The boxed constructor a [`DeviceFactory`] wraps.
type DeviceFactoryFn = Arc<dyn Fn(&str) -> StorageResult<Arc<dyn Device>> + Send + Sync>;

impl DeviceFactory {
    /// Wrap a constructor closure.
    pub fn new(f: impl Fn(&str) -> StorageResult<Arc<dyn Device>> + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Build the device backing `name`.
    pub fn make(&self, name: &str) -> StorageResult<Arc<dyn Device>> {
        (self.0)(name)
    }
}

impl std::fmt::Debug for DeviceFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DeviceFactory(..)")
    }
}

/// Configuration shared by every engine in the workspace.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the engine's on-disk files. `None` means a purely
    /// in-memory device (used in unit tests and the in-memory baselines).
    pub dir: Option<PathBuf>,
    /// Total in-memory buffer budget in bytes (hybrid-log memory region, LSM
    /// memtable + block cache, or B+tree buffer pool, depending on the engine).
    pub memory_budget: usize,
    /// Page size used by paged components.
    pub page_size: usize,
    /// Size of the FASTER hash index in entries, at 8 bytes each (rounded up
    /// to a power of two, packed seven to a 64-byte bucket). A key takes one
    /// entry (the rare keys with equal hash tags share one); buckets with
    /// more keys than entries grow overflow buckets beyond this, so any key
    /// count is correct. This sizes fresh stores only: which keys share an
    /// entry depends on the size, and the log's record chains follow that
    /// sharing, so a store reopened from a checkpoint keeps the size the
    /// checkpoint recorded.
    pub index_buckets: usize,
    /// The one worker knob: threads a single batched operation (`multi_get` /
    /// `multi_read` / `multi_rmw` / `write_batch`) may fan out over, and with
    /// it the number of memtable shards (LSM), leaf-latch lanes and
    /// buffer-pool shards (B+tree) the write path is built with. `0` means
    /// "auto" (size from [`crate::exec::available_parallelism`]); `1` runs
    /// every batch inline on the caller, in order. A batch fans out only when
    /// every worker gets [`crate::exec::MIN_KEYS_PER_WORKER`] keys; see
    /// [`crate::exec::BatchExecutor`].
    pub parallelism: usize,
    /// Extra latency injected into every device read. `Duration::ZERO` (the
    /// default) disables injection. Used by benchmarks to model SSD/NVMe read
    /// latency when the "device" is RAM-backed (CI containers), so that
    /// I/O-overlap effects — parallel batch reads, look-ahead prefetching —
    /// are measurable without real disks.
    pub simulated_read_latency: Duration,
    /// Simulated read transfer throughput in bytes per second (`0` = unlimited,
    /// the default). Combined with [`StoreConfig::simulated_read_latency`] this
    /// models an SSD as "fixed cost per request + per-byte transfer", so that
    /// coalescing many small reads into one large read shows its real trade-off
    /// (fewer round trips, same bytes) in simulation.
    pub simulated_read_bytes_per_sec: u64,
    /// Maximum byte gap between two read requests that the I/O planner
    /// ([`crate::IoPlanner`]) still merges into one device read. Larger values
    /// trade wasted transfer bytes for fewer round trips; the default (4 KiB)
    /// merges anything within a typical flash page.
    pub io_gap_bytes: usize,
    /// When the write-ahead log syncs its device (see [`DurabilityMode`]).
    pub durability: DurabilityMode,
    /// Override how per-file devices are constructed (crash injection, fault
    /// injection). `None` uses the standard file/memory devices.
    pub device_factory: Option<DeviceFactory>,
    /// Replication tap the store's WAL writers publish acknowledged groups
    /// into (see [`crate::wal::WalTap`]). `None` (the default) disables
    /// replication publishing. Shared across log rotations, so shipped frame
    /// offsets stay monotonic for the store's lifetime.
    pub wal_tap: Option<Arc<crate::wal::WalTap>>,
}

/// Default [`StoreConfig::io_gap_bytes`]: one typical flash page.
pub const DEFAULT_IO_GAP_BYTES: usize = 4 << 10;

/// Group-commit window used when `MLKV_DURABILITY=group` gives no explicit
/// window: large enough that in practice every acknowledged batch pays
/// exactly one sync (the forced-sync threshold never triggers mid-batch).
pub const DEFAULT_GROUP_COMMIT_WINDOW: usize = 1 << 20;

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            dir: None,
            memory_budget: 64 << 20,
            page_size: crate::page::PAGE_SIZE,
            index_buckets: 1 << 16,
            parallelism: 0,
            simulated_read_latency: Duration::ZERO,
            simulated_read_bytes_per_sec: 0,
            io_gap_bytes: DEFAULT_IO_GAP_BYTES,
            durability: DurabilityMode::None,
            device_factory: None,
            wal_tap: None,
        }
    }
}

impl StoreConfig {
    /// Configuration for a store persisted under `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Configuration for a purely in-memory store (tests, in-memory baseline).
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            ..Self::default()
        }
    }

    /// Set the in-memory buffer budget in bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Set the hash-index size in entries (see [`StoreConfig::index_buckets`]).
    pub fn with_index_buckets(mut self, buckets: usize) -> Self {
        self.index_buckets = buckets;
        self
    }

    /// Set the page size.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Set the worker count (`0` = auto, `1` = inline; see
    /// [`StoreConfig::parallelism`]).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Inject `latency` into every device read (benchmarking aid; see the
    /// field docs on [`StoreConfig::simulated_read_latency`]).
    pub fn with_simulated_read_latency(mut self, latency: Duration) -> Self {
        self.simulated_read_latency = latency;
        self
    }

    /// Cap the simulated read transfer rate at `bytes_per_sec` (`0` =
    /// unlimited; see the field docs on
    /// [`StoreConfig::simulated_read_bytes_per_sec`]).
    pub fn with_simulated_read_throughput(mut self, bytes_per_sec: u64) -> Self {
        self.simulated_read_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Set the I/O planner's range-merge gap threshold in bytes.
    pub fn with_io_gap_bytes(mut self, bytes: usize) -> Self {
        self.io_gap_bytes = bytes;
        self
    }

    /// Set the WAL durability mode (see [`DurabilityMode`]).
    pub fn with_durability(mut self, mode: DurabilityMode) -> Self {
        self.durability = mode;
        self
    }

    /// Install a custom per-file device constructor (crash/fault injection).
    pub fn with_device_factory(mut self, factory: DeviceFactory) -> Self {
        self.device_factory = Some(factory);
        self
    }

    /// Publish acknowledged WAL groups into `tap` for replication shipping
    /// (see [`crate::wal::WalTap`]).
    pub fn with_wal_tap(mut self, tap: Arc<crate::wal::WalTap>) -> Self {
        self.wal_tap = Some(tap);
        self
    }

    /// Apply the CI test-matrix environment overrides: `MLKV_PARALLELISM`
    /// (worker count) and `MLKV_DURABILITY` (`none` / `buffered` /
    /// `group[:<window>]`, see [`DurabilityMode::parse`]). Unset or
    /// unparsable variables leave the configuration untouched. Tests that
    /// exercise cold-path equality call this so one binary runs under every
    /// `parallelism` cell of the CI matrix.
    pub fn apply_env_overrides(self) -> Self {
        self.apply_overrides(
            std::env::var("MLKV_PARALLELISM").ok().as_deref(),
            std::env::var("MLKV_DURABILITY").ok().as_deref(),
        )
    }

    /// Pure body of [`StoreConfig::apply_env_overrides`] (unit-testable
    /// without mutating process-global environment state).
    fn apply_overrides(mut self, parallelism: Option<&str>, durability: Option<&str>) -> Self {
        if let Some(parallelism) = parallelism.and_then(|s| s.trim().parse::<usize>().ok()) {
            self.parallelism = parallelism;
        }
        if let Some(mode) = durability.and_then(DurabilityMode::parse) {
            self.durability = mode;
        }
        self
    }

    /// Number of whole pages that fit in the memory budget (at least one).
    pub fn pages_in_budget(&self) -> usize {
        (self.memory_budget / self.page_size).max(1)
    }
}

/// Serving-path fault-tolerance tuning, overridable from the environment the
/// same way the CI matrix knobs are: `MLKV_DEDUP_SLOTS` (idempotency-window
/// slots), `MLKV_HEALTH_PROBE_MS` (recovery-probe interval while degraded),
/// `MLKV_RETRY_MAX` (client retry attempts), `MLKV_RETRY_BACKOFF_MS` /
/// `MLKV_RETRY_BACKOFF_CAP_MS` (client backoff ladder). Unset or unparsable
/// variables leave the defaults untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTuning {
    /// Idempotency-window slots the server persists (one per active session;
    /// sessions hash onto slots, collisions evict the older session).
    pub dedup_slots: usize,
    /// How often a degraded server re-probes the write path, in milliseconds
    /// (0 = probe on every batcher tick; useful for deterministic tests).
    pub probe_interval_ms: u64,
    /// Default number of client retry attempts after the first try.
    pub retry_max: u32,
    /// First client backoff step, in milliseconds.
    pub retry_backoff_ms: u64,
    /// Cap on the exponential client backoff, in milliseconds.
    pub retry_backoff_cap_ms: u64,
}

impl Default for FaultTuning {
    fn default() -> Self {
        Self {
            dedup_slots: 1024,
            probe_interval_ms: 200,
            retry_max: 0,
            retry_backoff_ms: 5,
            retry_backoff_cap_ms: 200,
        }
    }
}

impl FaultTuning {
    /// Defaults overridden by the `MLKV_*` fault-tolerance environment knobs.
    pub fn from_env() -> Self {
        Self::default().apply_overrides(
            std::env::var("MLKV_DEDUP_SLOTS").ok().as_deref(),
            std::env::var("MLKV_HEALTH_PROBE_MS").ok().as_deref(),
            std::env::var("MLKV_RETRY_MAX").ok().as_deref(),
            std::env::var("MLKV_RETRY_BACKOFF_MS").ok().as_deref(),
            std::env::var("MLKV_RETRY_BACKOFF_CAP_MS").ok().as_deref(),
        )
    }

    /// Pure body of [`FaultTuning::from_env`] (unit-testable without mutating
    /// process-global environment state).
    fn apply_overrides(
        mut self,
        dedup_slots: Option<&str>,
        probe_interval_ms: Option<&str>,
        retry_max: Option<&str>,
        retry_backoff_ms: Option<&str>,
        retry_backoff_cap_ms: Option<&str>,
    ) -> Self {
        if let Some(slots) = dedup_slots.and_then(|s| s.trim().parse::<usize>().ok()) {
            // Zero slots would make every session collide with nothing:
            // clamp to one so dedup stays on when the knob is present.
            self.dedup_slots = slots.max(1);
        }
        if let Some(ms) = probe_interval_ms.and_then(|s| s.trim().parse::<u64>().ok()) {
            self.probe_interval_ms = ms;
        }
        if let Some(n) = retry_max.and_then(|s| s.trim().parse::<u32>().ok()) {
            self.retry_max = n;
        }
        if let Some(ms) = retry_backoff_ms.and_then(|s| s.trim().parse::<u64>().ok()) {
            self.retry_backoff_ms = ms.max(1);
        }
        if let Some(ms) = retry_backoff_cap_ms.and_then(|s| s.trim().parse::<u64>().ok()) {
            self.retry_backoff_cap_ms = ms.max(1);
        }
        self
    }
}

/// Replication tuning, overridable from the environment like the other
/// `MLKV_*` knobs: `MLKV_REPLICATION_RETENTION` (acknowledged WAL groups the
/// primary retains for streaming before a lagging replica must snapshot),
/// `MLKV_REPLICATION_ACK_MS` (how long a semi-synchronous primary waits for
/// replica acks before treating the apply as failed) and
/// `MLKV_REPLICATION_HEARTBEAT_MS` (the replication stream's idle poll
/// interval). Unset or unparsable variables leave the defaults untouched.
/// The replication *mode* itself (`async` / `semisync:<acks>`,
/// `MLKV_REPLICATION_MODE`) is parsed by the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationTuning {
    /// Acknowledged WAL groups retained by the primary's tap; a replica
    /// lagging further than this observes a gap and must catch up by
    /// snapshot.
    pub retention_groups: usize,
    /// Semi-sync ack wait budget in milliseconds.
    pub ack_timeout_ms: u64,
    /// Idle poll interval of the shipping loop in milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for ReplicationTuning {
    fn default() -> Self {
        Self {
            retention_groups: 4096,
            ack_timeout_ms: 2000,
            heartbeat_ms: 20,
        }
    }
}

impl ReplicationTuning {
    /// Defaults overridden by the `MLKV_REPLICATION_*` environment knobs.
    pub fn from_env() -> Self {
        Self::default().apply_overrides(
            std::env::var("MLKV_REPLICATION_RETENTION").ok().as_deref(),
            std::env::var("MLKV_REPLICATION_ACK_MS").ok().as_deref(),
            std::env::var("MLKV_REPLICATION_HEARTBEAT_MS")
                .ok()
                .as_deref(),
        )
    }

    /// Pure body of [`ReplicationTuning::from_env`] (unit-testable without
    /// mutating process-global environment state).
    fn apply_overrides(
        mut self,
        retention: Option<&str>,
        ack_timeout_ms: Option<&str>,
        heartbeat_ms: Option<&str>,
    ) -> Self {
        if let Some(groups) = retention.and_then(|s| s.trim().parse::<usize>().ok()) {
            self.retention_groups = groups.max(1);
        }
        if let Some(ms) = ack_timeout_ms.and_then(|s| s.trim().parse::<u64>().ok()) {
            self.ack_timeout_ms = ms.max(1);
        }
        if let Some(ms) = heartbeat_ms.and_then(|s| s.trim().parse::<u64>().ok()) {
            self.heartbeat_ms = ms.max(1);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_in_memory() {
        let cfg = StoreConfig::default();
        assert!(cfg.dir.is_none());
        assert!(cfg.memory_budget > 0);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = StoreConfig::on_disk("/tmp/x")
            .with_memory_budget(1 << 20)
            .with_index_buckets(128)
            .with_page_size(4096)
            .with_parallelism(4)
            .with_simulated_read_latency(Duration::from_micros(50))
            .with_simulated_read_throughput(1 << 30)
            .with_io_gap_bytes(128);
        assert_eq!(cfg.dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(cfg.memory_budget, 1 << 20);
        assert_eq!(cfg.index_buckets, 128);
        assert_eq!(cfg.page_size, 4096);
        assert_eq!(cfg.parallelism, 4);
        assert_eq!(cfg.simulated_read_latency, Duration::from_micros(50));
        assert_eq!(cfg.simulated_read_bytes_per_sec, 1 << 30);
        assert_eq!(cfg.io_gap_bytes, 128);
        assert_eq!(cfg.pages_in_budget(), (1 << 20) / 4096);
    }

    #[test]
    fn default_runs_serial_equivalent_auto_parallelism_without_latency() {
        let cfg = StoreConfig::default();
        assert_eq!(cfg.parallelism, 0, "auto-sized by the batch executor");
        assert_eq!(cfg.simulated_read_latency, Duration::ZERO);
        assert_eq!(cfg.simulated_read_bytes_per_sec, 0);
        assert_eq!(cfg.io_gap_bytes, DEFAULT_IO_GAP_BYTES);
    }

    #[test]
    fn env_overrides_apply_only_when_parsable() {
        let cfg = StoreConfig::default().apply_overrides(Some("4"), None);
        assert_eq!(cfg.parallelism, 4);
        let cfg = StoreConfig::default().apply_overrides(Some("not-a-number"), None);
        assert_eq!(cfg.parallelism, 0);
        let cfg = StoreConfig::default()
            .with_parallelism(2)
            .apply_overrides(None, None);
        assert_eq!(cfg.parallelism, 2, "unset vars leave the config untouched");
    }

    #[test]
    fn fault_tuning_env_overrides_apply_only_when_parsable() {
        let t = FaultTuning::default();
        assert_eq!(t.dedup_slots, 1024);
        assert_eq!(t.retry_max, 0, "retries are opt-in");

        let t = FaultTuning::default().apply_overrides(
            Some("64"),
            Some("0"),
            Some("5"),
            Some("2"),
            Some("100"),
        );
        assert_eq!(t.dedup_slots, 64);
        assert_eq!(t.probe_interval_ms, 0, "zero means probe every tick");
        assert_eq!(t.retry_max, 5);
        assert_eq!(t.retry_backoff_ms, 2);
        assert_eq!(t.retry_backoff_cap_ms, 100);

        let t = FaultTuning::default().apply_overrides(
            Some("0"),
            Some("nope"),
            Some("-3"),
            Some("0"),
            None,
        );
        assert_eq!(t.dedup_slots, 1, "zero slots clamps to one");
        assert_eq!(
            t.probe_interval_ms,
            FaultTuning::default().probe_interval_ms
        );
        assert_eq!(t.retry_max, 0, "unparsable values leave the default");
        assert_eq!(t.retry_backoff_ms, 1, "backoff clamps to at least 1ms");
        assert_eq!(
            t.retry_backoff_cap_ms,
            FaultTuning::default().retry_backoff_cap_ms
        );
    }

    #[test]
    fn durability_env_override_parses_all_spellings() {
        assert_eq!(DurabilityMode::parse("none"), Some(DurabilityMode::None));
        assert_eq!(
            DurabilityMode::parse(" Buffered "),
            Some(DurabilityMode::Buffered)
        );
        assert_eq!(
            DurabilityMode::parse("group"),
            Some(DurabilityMode::GroupCommit {
                window: DEFAULT_GROUP_COMMIT_WINDOW
            })
        );
        assert_eq!(
            DurabilityMode::parse("group:16"),
            Some(DurabilityMode::GroupCommit { window: 16 })
        );
        assert_eq!(
            DurabilityMode::parse("group_commit:0"),
            Some(DurabilityMode::GroupCommit { window: 1 }),
            "window clamps to at least one record"
        );
        assert_eq!(DurabilityMode::parse("group:soon"), None);
        assert_eq!(DurabilityMode::parse("fsync"), None);

        let cfg = StoreConfig::default().apply_overrides(None, Some("group:8"));
        assert_eq!(
            cfg.durability,
            DurabilityMode::GroupCommit { window: 8 },
            "MLKV_DURABILITY overrides the configured mode"
        );
        let cfg = StoreConfig::default()
            .with_durability(DurabilityMode::Buffered)
            .apply_overrides(None, Some("bogus"));
        assert_eq!(
            cfg.durability,
            DurabilityMode::Buffered,
            "unparsable MLKV_DURABILITY leaves the config untouched"
        );
    }

    #[test]
    fn durability_defaults_and_composes() {
        let cfg = StoreConfig::default();
        assert_eq!(cfg.durability, DurabilityMode::None);
        assert!(cfg.device_factory.is_none());

        let cfg = cfg.with_durability(DurabilityMode::Buffered);
        assert_eq!(cfg.durability, DurabilityMode::Buffered);

        let cfg = StoreConfig::default().with_durability(DurabilityMode::GroupCommit { window: 8 });
        assert_eq!(cfg.durability, DurabilityMode::GroupCommit { window: 8 });
        assert!(cfg.durability.is_durable());
        assert!(!DurabilityMode::Buffered.is_durable());
        assert_eq!(DurabilityMode::None.to_string(), "none");
        assert_eq!(DurabilityMode::Buffered.to_string(), "buffered");
        assert_eq!(
            DurabilityMode::GroupCommit { window: 8 }.to_string(),
            "group-commit(8)"
        );
    }

    #[test]
    fn device_factory_is_cloneable_and_builds_devices() {
        let factory = DeviceFactory::new(|_name| {
            Ok(Arc::new(crate::device::MemDevice::new()) as Arc<dyn Device>)
        });
        let cfg = StoreConfig::default().with_device_factory(factory.clone());
        assert!(cfg.device_factory.is_some());
        let device = cfg.device_factory.unwrap().make("wal_0.dat").unwrap();
        assert!(device.is_empty());
        assert_eq!(format!("{factory:?}"), "DeviceFactory(..)");
    }

    #[test]
    fn pages_in_budget_is_at_least_one() {
        let cfg = StoreConfig::in_memory()
            .with_memory_budget(10)
            .with_page_size(4096);
        assert_eq!(cfg.pages_in_budget(), 1);
    }

    #[test]
    fn wal_tap_is_off_by_default_and_composes() {
        let cfg = StoreConfig::default();
        assert!(cfg.wal_tap.is_none());
        let tap = Arc::new(crate::wal::WalTap::new(8));
        let cfg = cfg.with_wal_tap(Arc::clone(&tap));
        assert!(cfg.wal_tap.is_some());
        // The tap is shared, not cloned per config copy.
        let copy = cfg.clone();
        assert!(Arc::ptr_eq(copy.wal_tap.as_ref().unwrap(), &tap));
    }

    #[test]
    fn replication_tuning_env_overrides_apply_only_when_parsable() {
        let t = ReplicationTuning::default();
        assert_eq!(t.retention_groups, 4096);
        assert_eq!(t.ack_timeout_ms, 2000);
        assert_eq!(t.heartbeat_ms, 20);

        let t = ReplicationTuning::default().apply_overrides(Some("16"), Some("500"), Some("5"));
        assert_eq!(t.retention_groups, 16);
        assert_eq!(t.ack_timeout_ms, 500);
        assert_eq!(t.heartbeat_ms, 5);

        let t = ReplicationTuning::default().apply_overrides(Some("0"), Some("junk"), None);
        assert_eq!(t.retention_groups, 1, "retention clamps to one group");
        assert_eq!(
            t.ack_timeout_ms,
            ReplicationTuning::default().ack_timeout_ms
        );
        assert_eq!(t.heartbeat_ms, ReplicationTuning::default().heartbeat_ms);
    }
}
