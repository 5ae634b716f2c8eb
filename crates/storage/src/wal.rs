//! Group-commit write-ahead log shared by every persistent engine.
//!
//! The WAL is a stream of length+checksum framed records on a [`Device`]:
//!
//! ```text
//! ┌────────────┬────────────┬───────────────┐
//! │ len: u32LE │ crc: u32LE │ payload bytes │  × N
//! └────────────┴────────────┴───────────────┘
//! ```
//!
//! Durability is amortised exactly like cold reads are: instead of one
//! `fsync` per record, a whole `write_batch` / `multi_rmw` appends its
//! records as **one** device append ([`WalWriter::append_group`]) and pays
//! **one** sync at its acknowledgement point ([`WalWriter::commit`]). The
//! [`DurabilityMode`] knob selects how strong that point is:
//!
//! * [`DurabilityMode::None`] — never sync; a crash may lose everything since
//!   the last engine flush.
//! * [`DurabilityMode::Buffered`] — the log is written with every batch and
//!   never synced; a clean reopen replays it, but against power loss only the
//!   engines' own flush / checkpoint syncs of their data files harden
//!   anything.
//! * [`DurabilityMode::GroupCommit { window }`] — sync at every commit point
//!   and additionally whenever `window` records accumulate un-synced, so an
//!   acknowledged batch is durable and the loss window inside an unacked
//!   batch is bounded.
//!
//! Replay ([`replay_frames`]) validates each frame's CRC and stops at the
//! first torn or corrupt frame — the classic "committed prefix" recovery shape
//! (cf. SNIPPETS §1/§2): everything before the tear is applied, the tear and
//! everything after it is discarded.
//!
//! # One log per store, in generations
//!
//! Every engine keeps its log as a [`GenerationalWal`]: numbered files
//! `{prefix}{gen}.dat` in the store's directory (`faster_wal_`, `wal_` for
//! the LSM, `btree_journal_`). Opening replays every generation still on
//! disk, oldest first, and a store that logs then appends to a fresh
//! generation one past the newest, never behind an old generation's torn
//! tail. Once the engine has hardened everything the log covers (FASTER's
//! checkpoint, an LSM memtable flush, a B+tree flush), it rotates: the next
//! generation is created before the older ones are deleted, so a failed
//! create leaves the current generation in place and deletes nothing.
//!
//! # The commit rule
//!
//! * **FASTER and LSM** log logical post-images ([`encode_op`]). A batch is
//!   resolved first (FASTER's `multi_rmw` also runs its callbacks), then its
//!   whole group is appended, then it is applied, then committed. Nothing a
//!   batch writes is visible before it is logged, and a batch whose append
//!   fails leaves the store as it was.
//! * **B+tree** journals physical post-images of the leaves a batch touched,
//!   so it applies first, under its leaf latches (or the tree lock), and then
//!   journals the images it produced, holding the latches until the commit.
//!   Other writers cannot see the batch before it is journaled; readers can.
//!   A failed journal append returns the error with the batch in live state.
//!
//! Under [`DurabilityMode::None`] only the LSM keeps a log (its memtable has
//! no other copy across a clean reopen). FASTER and the B+tree keep none:
//! a reopen restores their last checkpoint or flush.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use parking_lot::{RwLock, RwLockReadGuard};

use crate::config::{DurabilityMode, StoreConfig};
use crate::device::{device_from_config, Device};
use crate::error::{StorageError, StorageResult};
use crate::kv::KvStore;
use crate::metrics::StorageMetrics;

/// Bytes of framing per record (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single record payload: larger length prefixes are treated
/// as a torn tail during replay (a corrupt length would otherwise ask for an
/// absurd allocation).
const MAX_RECORD_LEN: u32 = 1 << 30;

/// CRC-32 (IEEE) lookup table, built at compile time.
static CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `data` — the per-record checksum of the WAL framing.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append one framed record to `buf`.
fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Group-commit append half of the WAL.
///
/// Thread-safe: appends are single [`Device::append`] calls (atomic on every
/// device) and the un-synced record counter is atomic, so parallel batch
/// workers may append concurrently; each record's frame stays contiguous.
pub struct WalWriter {
    device: Arc<dyn Device>,
    mode: DurabilityMode,
    metrics: Arc<StorageMetrics>,
    /// Records appended since the last sync (drives the group-commit window).
    unsynced: AtomicU64,
    /// Replication tap the writer publishes acknowledged groups into, if any.
    tap: Option<Arc<WalTap>>,
    /// Frames appended but not yet acknowledged (and therefore not yet
    /// published to the tap). Held under a lock *around* the device append so
    /// the tap observes frames in exactly device order.
    pending: Mutex<Vec<Vec<u8>>>,
}

impl WalWriter {
    /// Wrap `device` as a WAL in the given durability mode, publishing
    /// acknowledged frame groups into `tap` (replication) if there is one.
    /// The offsets a tap hands out stay monotonic across log rotations as
    /// long as rotated writers share the same tap.
    pub fn new(
        device: Arc<dyn Device>,
        mode: DurabilityMode,
        metrics: Arc<StorageMetrics>,
        tap: Option<Arc<WalTap>>,
    ) -> Self {
        Self {
            device,
            mode,
            metrics,
            unsynced: AtomicU64::new(0),
            tap,
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Append a whole group of records as **one** device append (the write-side
    /// coalescing trick: one syscall, one contiguous extent, and — together
    /// with [`WalWriter::commit`] — one sync for the whole batch). Under
    /// [`DurabilityMode::GroupCommit`] the append syncs eagerly once `window`
    /// records accumulate un-synced.
    pub fn append_group<'a>(
        &self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> StorageResult<()> {
        let mut buf = Vec::new();
        let mut count = 0u64;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for payload in payloads {
            frame_into(&mut buf, payload);
            if self.tap.is_some() {
                frames.push(payload.to_vec());
            }
            count += 1;
        }
        if count == 0 {
            return Ok(());
        }
        if self.tap.is_some() {
            let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            self.device.append(&buf)?;
            pending.append(&mut frames);
        } else {
            self.device.append(&buf)?;
        }
        self.metrics.record_wal_append(buf.len() as u64);
        self.note_appended(count)
    }

    fn note_appended(&self, records: u64) -> StorageResult<()> {
        if let DurabilityMode::GroupCommit { window } = self.mode {
            let unsynced = self.unsynced.fetch_add(records, Ordering::SeqCst) + records;
            if unsynced >= window.max(1) as u64 {
                self.sync()?;
            }
        }
        Ok(())
    }

    /// Group-commit point: called once at a batch's acknowledgement. Syncs any
    /// un-synced records under [`DurabilityMode::GroupCommit`]; a no-op under
    /// `None` and `Buffered`.
    pub fn commit(&self) -> StorageResult<()> {
        if matches!(self.mode, DurabilityMode::GroupCommit { .. })
            && self.unsynced.load(Ordering::SeqCst) > 0
        {
            self.sync()?;
        } else {
            // No sync due (None/Buffered, or the window already synced the
            // group): the acknowledgement itself still publishes the group to
            // the replication tap.
            self.publish_pending();
        }
        Ok(())
    }

    /// Unconditionally sync the device and reset the group-commit window.
    pub fn sync(&self) -> StorageResult<()> {
        self.device.sync()?;
        self.unsynced.store(0, Ordering::SeqCst);
        self.metrics.record_wal_sync();
        // Publish *after* the sync: a tapped group is only shipped once it is
        // durable on the primary, so a replica can never be ahead of what a
        // primary restart would recover.
        self.publish_pending();
        Ok(())
    }

    /// Flush pending frames to the replication tap as one acknowledged group.
    fn publish_pending(&self) {
        let Some(tap) = &self.tap else { return };
        let frames = std::mem::take(&mut *self.pending.lock().unwrap_or_else(|e| e.into_inner()));
        if !frames.is_empty() {
            tap.publish(frames);
        }
    }
}

/// The replay half of the WAL: every intact framed record of `device`, in
/// append order.
///
/// Stops (without error) at the first torn or corrupt frame — a truncated
/// header, a length past the device end, or a CRC mismatch — so a crash
/// mid-append yields the longest valid committed prefix.
pub fn replay_frames(device: &dyn Device) -> StorageResult<Vec<Vec<u8>>> {
    let len = device.len();
    if len == 0 {
        return Ok(Vec::new());
    }
    let mut data = vec![0u8; len as usize];
    device.read_at(0, &mut data)?;
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_HEADER <= data.len() {
        let rec_len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let rec_crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if rec_len > MAX_RECORD_LEN {
            break;
        }
        let start = pos + FRAME_HEADER;
        let Some(end) = start.checked_add(rec_len as usize) else {
            break;
        };
        if end > data.len() {
            break;
        }
        let payload = &data[start..end];
        if crc32(payload) != rec_crc {
            break;
        }
        out.push(payload.to_vec());
        pos = end;
    }
    Ok(out)
}

/// The numbers `n` of the files `{prefix}{n}.dat` in `dir`, ascending: a
/// log's generations (chronological, since rotation only ever adds a higher
/// one), or the LSM's SSTable sequence numbers.
pub fn generations(dir: &Path, prefix: &str) -> Vec<u64> {
    let mut gens: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            name.to_str()?
                .strip_prefix(prefix)?
                .strip_suffix(".dat")?
                .parse()
                .ok()
        })
        .collect();
    gens.sort_unstable();
    gens
}

/// A store's write-ahead log: numbered generation files `{prefix}{gen}.dat`,
/// replayed oldest first on open and rotated once the engine has hardened
/// what they cover (see the module docs).
///
/// Appenders share the current generation; [`GenerationalWal::rotate`]
/// takes it exclusively, so it waits for every appended group's
/// acknowledgement ([`WalAck`]) to be dropped, and a group is always
/// committed on the generation it was appended to.
pub struct GenerationalWal {
    config: StoreConfig,
    prefix: &'static str,
    metrics: Arc<StorageMetrics>,
    /// The generations on disk at open, ascending: what
    /// [`GenerationalWal::replay`] reads.
    found: Vec<u64>,
    /// The generation appends go to; `None` until
    /// [`GenerationalWal::start`], and for good in a store that keeps no log.
    current: Option<RwLock<Generation>>,
}

/// The generation a [`GenerationalWal`] appends to.
struct Generation {
    writer: WalWriter,
    gen: u64,
}

impl GenerationalWal {
    /// The log named `{prefix}{gen}.dat` of the store `config` describes: its
    /// generations are found in the store's directory (none without one),
    /// and no new one is started yet.
    pub fn open(config: &StoreConfig, prefix: &'static str, metrics: Arc<StorageMetrics>) -> Self {
        let found = config
            .dir
            .as_deref()
            .map_or_else(Vec::new, |dir| generations(dir, prefix));
        Self {
            config: config.clone(),
            prefix,
            metrics,
            found,
            current: None,
        }
    }

    /// Replay every generation found at open, oldest first: `apply` gets
    /// each generation's intact records ([`replay_frames`]) in append
    /// order. Records are full post-images, so replaying one the engine's
    /// hardened state already covers is harmless. Nothing is deleted: until
    /// the next rotation these files are the only durable copy of their
    /// records.
    pub fn replay(
        &self,
        mut apply: impl FnMut(Vec<Vec<u8>>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        for &gen in &self.found {
            let device = device_from_config(&self.config, &self.file_name(gen))?;
            apply(replay_frames(device.as_ref())?)?;
        }
        Ok(())
    }

    /// [`GenerationalWal::replay`] of a log of [`encode_op`] records, each
    /// decoded by [`decode_op`].
    pub fn replay_ops(
        &self,
        mut apply: impl FnMut(Vec<(u64, Option<Vec<u8>>)>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        self.replay(|records| {
            apply(
                records
                    .iter()
                    .map(|r| decode_op(r))
                    .collect::<StorageResult<_>>()?,
            )
        })
    }

    /// Start logging into a new generation, one past the newest found at
    /// open (0 in a fresh directory). Until this runs, appends and commits
    /// are no-ops: a store that keeps no log never calls it.
    pub fn start(&mut self) -> StorageResult<()> {
        let gen = self.found.last().map_or(0, |g| g + 1);
        self.current = Some(RwLock::new(self.generation(gen)?));
        Ok(())
    }

    /// True when the store keeps a log ([`GenerationalWal::start`] ran).
    pub fn is_logging(&self) -> bool {
        self.current.is_some()
    }

    fn file_name(&self, gen: u64) -> String {
        format!("{}{gen}.dat", self.prefix)
    }

    fn generation(&self, gen: u64) -> StorageResult<Generation> {
        let device = device_from_config(&self.config, &self.file_name(gen))?;
        let writer = WalWriter::new(
            device,
            self.config.durability,
            Arc::clone(&self.metrics),
            self.config.wal_tap.clone(),
        );
        Ok(Generation { writer, gen })
    }

    /// Append `records` to the current generation as one group
    /// ([`WalWriter::append_group`]). The returned [`WalAck`] is the group's
    /// acknowledgement: commit it once the batch is applied.
    pub fn append_group<'a>(
        &self,
        records: impl IntoIterator<Item = &'a [u8]>,
    ) -> StorageResult<WalAck<'_>> {
        let Some(current) = &self.current else {
            return Ok(WalAck(None));
        };
        let current = current.read();
        current.writer.append_group(records)?;
        Ok(WalAck(Some(current)))
    }

    /// [`GenerationalWal::append_group`] of a batch of [`encode_op`] records,
    /// in batch order: `Some(value)` puts, `None` deletes. A store that keeps
    /// no log encodes nothing.
    pub fn append_ops<'a>(
        &self,
        ops: impl IntoIterator<Item = (u64, Option<&'a [u8]>)>,
    ) -> StorageResult<WalAck<'_>> {
        if !self.is_logging() {
            return Ok(WalAck(None));
        }
        let records: Vec<Vec<u8>> = ops
            .into_iter()
            .map(|(key, value)| encode_op(key, value))
            .collect();
        self.append_group(records.iter().map(Vec::as_slice))
    }

    /// Supersede every generation: called once the engine's hardened state
    /// covers all they hold. A store that logs creates generation g+1 and
    /// only then deletes generations ≤ g, so a failed create returns the
    /// error with generation g still current and nothing deleted. A store
    /// that keeps no log deletes what an earlier, logging run left behind.
    pub fn rotate(&self) -> StorageResult<()> {
        let keep_from = match &self.current {
            Some(current) => {
                let mut current = current.write();
                *current = self.generation(current.gen + 1)?;
                Some(current.gen)
            }
            None => None,
        };
        if let Some(dir) = &self.config.dir {
            for gen in generations(dir, self.prefix) {
                if keep_from.is_none_or(|keep| gen < keep) {
                    let _ = std::fs::remove_file(dir.join(self.file_name(gen)));
                }
            }
        }
        Ok(())
    }
}

/// An appended group awaiting its acknowledgement. While it lives, the log
/// cannot rotate away the generation that holds the group.
#[must_use = "a group is acknowledged only by `commit`"]
pub struct WalAck<'a>(Option<RwLockReadGuard<'a, Generation>>);

impl WalAck<'_> {
    /// The group's acknowledgement point: [`WalWriter::commit`] on the
    /// generation it was appended to (a no-op when the store keeps no log).
    pub fn commit(self) -> StorageResult<()> {
        match &self.0 {
            Some(current) => current.writer.commit(),
            None => Ok(()),
        }
    }
}

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

/// Encode a logical record — what FASTER and the LSM log (the B+tree
/// journals page images instead): `key` with its full new value (`Some`, not
/// a delta, so replay is idempotent) or its delete (`None`, a tombstone for
/// log-structured engines), as `[tag u8][key u64 LE][value]`.
pub fn encode_op(key: u64, value: Option<&[u8]>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9 + value.map_or(0, <[u8]>::len));
    buf.push(if value.is_some() { OP_PUT } else { OP_DELETE });
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(value.unwrap_or_default());
    buf
}

/// Decode a payload of [`encode_op`] into `(key, Some(value))` for a put and
/// `(key, None)` for a delete.
pub fn decode_op(payload: &[u8]) -> StorageResult<(u64, Option<Vec<u8>>)> {
    if payload.len() < 9 {
        return Err(StorageError::Corruption(format!(
            "WAL op payload of {} bytes is shorter than its header",
            payload.len()
        )));
    }
    let key = u64::from_le_bytes(payload[1..9].try_into().unwrap());
    match payload[0] {
        OP_PUT => Ok((key, Some(payload[9..].to_vec()))),
        OP_DELETE => Ok((key, None)),
        tag => Err(StorageError::Corruption(format!(
            "unknown WAL op tag {tag}"
        ))),
    }
}

/// One acknowledged group of WAL frames, as published to a [`WalTap`].
///
/// `offset` is the global ordinal of the group's first frame — frame offsets
/// are monotonic across log rotations (rotated writers share the tap), so a
/// replica's applied offset unambiguously names a position in the primary's
/// acknowledged history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalGroup {
    /// Ordinal of the first frame of this group.
    pub offset: u64,
    /// The group's frame payloads, in device append order.
    pub frames: Vec<Vec<u8>>,
}

impl WalGroup {
    /// Ordinal one past this group's last frame.
    pub fn end(&self) -> u64 {
        self.offset + self.frames.len() as u64
    }
}

struct TapInner {
    groups: VecDeque<Arc<WalGroup>>,
    /// Ordinal of the first retained frame (frames before it were evicted).
    base: u64,
    /// Ordinal one past the last published frame.
    next: u64,
}

/// Bounded buffer of acknowledged WAL groups: the seam between a primary's
/// WAL writers (which [`WalTap::publish`] into it at their acknowledgement
/// points) and the replication stream ([`WalShipper`] cursors reading from
/// it). Retention is bounded by a group count; a shipper that falls behind
/// the retention window observes a gap and must catch up via snapshot.
pub struct WalTap {
    inner: Mutex<TapInner>,
    changed: Condvar,
    capacity: usize,
}

impl WalTap {
    /// A tap retaining at most `capacity_groups` acknowledged groups
    /// (clamped to ≥ 1).
    pub fn new(capacity_groups: usize) -> Self {
        Self {
            inner: Mutex::new(TapInner {
                groups: VecDeque::new(),
                base: 0,
                next: 0,
            }),
            changed: Condvar::new(),
            capacity: capacity_groups.max(1),
        }
    }

    /// Publish one acknowledged group (called by tapped [`WalWriter`]s).
    pub fn publish(&self, frames: Vec<Vec<u8>>) {
        if frames.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let group = Arc::new(WalGroup {
            offset: inner.next,
            frames,
        });
        inner.next = group.end();
        inner.groups.push_back(group);
        while inner.groups.len() > self.capacity {
            let evicted = inner.groups.pop_front().expect("len > capacity ≥ 1");
            inner.base = evicted.end();
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Ordinal one past the last published frame (the replication tail).
    pub fn next_offset(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).next
    }

    /// Ordinal of the oldest retained frame.
    pub fn base_offset(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).base
    }
}

impl std::fmt::Debug for WalTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("WalTap")
            .field("base", &inner.base)
            .field("next", &inner.next)
            .field("groups", &inner.groups.len())
            .finish()
    }
}

/// What a [`WalShipper`] pull produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shipment {
    /// The next acknowledged group at the cursor.
    Group(Arc<WalGroup>),
    /// The cursor fell behind the tap's retention window: the groups between
    /// the cursor and `resume_from` were evicted. The caller must catch the
    /// replica up out-of-band (snapshot) and resume streaming at
    /// `resume_from`; the shipper has already advanced its cursor there.
    Gap {
        /// Frame ordinal streaming resumes from after the catch-up.
        resume_from: u64,
    },
    /// No new acknowledged group arrived within the timeout.
    Idle,
}

/// A streaming cursor over a [`WalTap`]: each [`WalShipper::next`] hands out
/// the next acknowledged group at or past the cursor, blocking (bounded by a
/// timeout) until one arrives.
pub struct WalShipper {
    tap: Arc<WalTap>,
    cursor: u64,
}

impl WalShipper {
    /// A shipper over `tap` starting at frame ordinal `from` (a replica's
    /// applied offset, from its replication handshake).
    pub fn new(tap: Arc<WalTap>, from: u64) -> Self {
        Self { tap, cursor: from }
    }

    /// The frame ordinal the next shipment starts at.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Pull the next acknowledged group, waiting up to `timeout` for one.
    pub fn next(&mut self, timeout: Duration) -> Shipment {
        let deadline = Instant::now() + timeout;
        let mut inner = self.tap.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.cursor < inner.base {
                // Evicted past the cursor: snapshot catch-up covers the
                // primary's state up to (at least) the current tail, so
                // streaming resumes from there.
                self.cursor = inner.next;
                return Shipment::Gap {
                    resume_from: self.cursor,
                };
            }
            if self.cursor < inner.next {
                // Scan for the group containing the cursor (cursor normally
                // sits on a boundary; an overlapping group is returned whole —
                // replicated frames are idempotent post-images).
                let group = inner
                    .groups
                    .iter()
                    .find(|g| g.end() > self.cursor)
                    .expect("cursor in [base, next) names a retained group");
                let group = Arc::clone(group);
                self.cursor = group.end();
                return Shipment::Group(group);
            }
            let now = Instant::now();
            if now >= deadline {
                return Shipment::Idle;
            }
            let (guard, _) = self
                .tap
                .changed
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }
}

/// Replays shipped [`WalGroup`]s into a standby engine and tracks the applied
/// frame offset (what the replica reports in handshakes and acks).
pub struct ReplicaApplier {
    store: Arc<dyn KvStore>,
    applied: AtomicU64,
}

impl ReplicaApplier {
    /// An applier over `store` whose applied offset starts at `applied`
    /// (zero for a fresh standby).
    pub fn new(store: Arc<dyn KvStore>, applied: u64) -> Self {
        Self {
            store,
            applied: AtomicU64::new(applied),
        }
    }

    /// The store groups are applied into.
    pub fn store(&self) -> &Arc<dyn KvStore> {
        &self.store
    }

    /// Frame ordinal one past the last applied frame.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// Reset the applied offset (snapshot catch-up installed state covering
    /// everything before `offset`).
    pub fn set_applied(&self, offset: u64) {
        self.applied.store(offset, Ordering::SeqCst);
    }

    /// Apply one shipped group. Groups at or before the applied offset are
    /// skipped (duplicate delivery after a reconnect); an overlapping group is
    /// re-applied whole, which is safe because frames carry idempotent
    /// post-images.
    pub fn apply(&self, group: &WalGroup) -> StorageResult<()> {
        if group.end() <= self.applied() {
            return Ok(());
        }
        self.store.apply_replicated_group(&group.frames)?;
        let mut cur = self.applied.load(Ordering::SeqCst);
        while cur < group.end() {
            match self.applied.compare_exchange(
                cur,
                group.end(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn writer(mode: DurabilityMode) -> (Arc<MemDevice>, Arc<StorageMetrics>, WalWriter) {
        let device = Arc::new(MemDevice::new());
        let metrics = Arc::new(StorageMetrics::new());
        let wal = WalWriter::new(
            Arc::clone(&device) as Arc<dyn Device>,
            mode,
            Arc::clone(&metrics),
            None,
        );
        (device, metrics, wal)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let (device, _, wal) = writer(DurabilityMode::None);
        wal.append_group([b"alpha".as_slice()]).unwrap();
        wal.append_group([b"".as_slice()]).unwrap();
        wal.append_group([b"beta".as_slice(), b"gamma".as_slice()])
            .unwrap();
        wal.commit().unwrap();
        let records = replay_frames(device.as_ref()).unwrap();
        assert_eq!(
            records,
            vec![
                b"alpha".to_vec(),
                Vec::new(),
                b"beta".to_vec(),
                b"gamma".to_vec()
            ]
        );
    }

    #[test]
    fn torn_tail_and_corrupt_crc_stop_replay() {
        let (device, _, wal) = writer(DurabilityMode::None);
        wal.append_group([b"intact".as_slice()]).unwrap();
        // Torn tail: header promises more bytes than exist.
        device.append(&20u32.to_le_bytes()).unwrap();
        device.append(&0u32.to_le_bytes()).unwrap();
        device.append(b"shor").unwrap();
        let records = replay_frames(device.as_ref() as &dyn Device).unwrap();
        assert_eq!(records, vec![b"intact".to_vec()]);

        // Corrupt payload: CRC mismatch stops replay at the bad frame.
        let (device, _, wal) = writer(DurabilityMode::None);
        wal.append_group([b"good".as_slice()]).unwrap();
        wal.append_group([b"evil".as_slice()]).unwrap();
        let mut image = device.to_vec();
        let last = image.len() - 1;
        image[last] ^= 0xFF;
        let tampered = MemDevice::new();
        tampered.write_at(0, &image).unwrap();
        let records = replay_frames(&tampered).unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
    }

    #[test]
    fn group_commit_syncs_at_window_and_commit() {
        let (_, metrics, wal) = writer(DurabilityMode::GroupCommit { window: 4 });
        wal.append_group([b"a".as_slice()]).unwrap();
        wal.append_group([b"b".as_slice()]).unwrap();
        assert_eq!(metrics.snapshot().wal_syncs, 0, "window not reached");
        wal.commit().unwrap();
        assert_eq!(metrics.snapshot().wal_syncs, 1, "commit syncs the group");
        wal.commit().unwrap();
        assert_eq!(metrics.snapshot().wal_syncs, 1, "nothing un-synced: no-op");
        wal.append_group([
            b"c".as_slice(),
            b"d".as_slice(),
            b"e".as_slice(),
            b"f".as_slice(),
        ])
        .unwrap();
        assert_eq!(metrics.snapshot().wal_syncs, 2, "window forces a sync");
    }

    #[test]
    fn buffered_and_none_sync_only_at_their_barriers() {
        let (_, metrics, wal) = writer(DurabilityMode::Buffered);
        wal.append_group([b"a".as_slice()]).unwrap();
        wal.commit().unwrap();
        assert_eq!(metrics.snapshot().wal_syncs, 0, "buffered: commit is free");

        let (_, metrics, wal) = writer(DurabilityMode::None);
        wal.append_group([b"a".as_slice()]).unwrap();
        wal.commit().unwrap();
        assert_eq!(metrics.snapshot().wal_syncs, 0, "none: never syncs");
    }

    #[test]
    fn metrics_account_appends() {
        let (device, metrics, wal) = writer(DurabilityMode::None);
        wal.append_group([b"abcd".as_slice()]).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.wal_appends, 1);
        assert_eq!(snap.disk_write_bytes, (FRAME_HEADER + 4) as u64);
        assert_eq!(device.len(), (FRAME_HEADER + 4) as u64);
    }

    #[test]
    fn wal_op_roundtrip_and_rejects_garbage() {
        let put = encode_op(7, Some(&[1, 2, 3]));
        assert_eq!(put, [0, 7, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]);
        assert_eq!(decode_op(&put).unwrap(), (7, Some(vec![1, 2, 3])));
        assert_eq!(decode_op(&encode_op(9, None)).unwrap(), (9, None));
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    fn tapped_writer(
        mode: DurabilityMode,
        capacity: usize,
    ) -> (Arc<WalTap>, Arc<StorageMetrics>, WalWriter) {
        let tap = Arc::new(WalTap::new(capacity));
        let device = Arc::new(MemDevice::new());
        let metrics = Arc::new(StorageMetrics::new());
        let wal = WalWriter::new(device, mode, Arc::clone(&metrics), Some(Arc::clone(&tap)));
        (tap, metrics, wal)
    }

    #[test]
    fn tap_publishes_acked_groups_with_monotonic_offsets() {
        let (tap, metrics, wal) =
            tapped_writer(DurabilityMode::GroupCommit { window: 1 << 20 }, 64);
        wal.append_group([b"a".as_slice(), b"b".as_slice()])
            .unwrap();
        assert_eq!(tap.next_offset(), 0, "unacked frames are not published");
        wal.commit().unwrap();
        assert_eq!(tap.next_offset(), 2, "commit publishes the group");
        wal.append_group([b"c".as_slice()]).unwrap();
        wal.commit().unwrap();
        assert_eq!(tap.next_offset(), 3);
        assert_eq!(tap.base_offset(), 0);

        let mut shipper = WalShipper::new(Arc::clone(&tap), 0);
        let Shipment::Group(g1) = shipper.next(Duration::ZERO) else {
            panic!("first group expected");
        };
        assert_eq!(g1.offset, 0);
        assert_eq!(g1.frames, vec![b"a".to_vec(), b"b".to_vec()]);
        let Shipment::Group(g2) = shipper.next(Duration::ZERO) else {
            panic!("second group expected");
        };
        assert_eq!(g2.offset, 2);
        assert_eq!(g2.end(), 3);
        assert_eq!(shipper.cursor(), 3);
        assert_eq!(shipper.next(Duration::ZERO), Shipment::Idle);

        // Tapping must not change the sync accounting.
        assert_eq!(metrics.snapshot().wal_syncs, 2);
    }

    #[test]
    fn tap_publishes_at_ack_under_all_durability_modes() {
        for mode in [DurabilityMode::None, DurabilityMode::Buffered] {
            let (tap, metrics, wal) = tapped_writer(mode, 64);
            wal.append_group([b"x".as_slice()]).unwrap();
            assert_eq!(tap.next_offset(), 0);
            wal.commit().unwrap();
            assert_eq!(tap.next_offset(), 1, "{mode}: ack publishes");
            assert_eq!(
                metrics.snapshot().wal_syncs,
                0,
                "{mode}: publishing does not add syncs"
            );
        }
    }

    #[test]
    fn window_forced_sync_publishes_mid_batch() {
        let (tap, _, wal) = tapped_writer(DurabilityMode::GroupCommit { window: 2 }, 64);
        wal.append_group([b"a".as_slice(), b"b".as_slice(), b"c".as_slice()])
            .unwrap();
        // The 3-record group crossed the window: already synced & published.
        assert_eq!(tap.next_offset(), 3);
        wal.commit().unwrap();
        assert_eq!(tap.next_offset(), 3, "commit after window sync is a no-op");
    }

    #[test]
    fn shipper_observes_gap_after_retention_eviction() {
        let tap = Arc::new(WalTap::new(2));
        tap.publish(vec![b"a".to_vec()]);
        tap.publish(vec![b"b".to_vec()]);
        tap.publish(vec![b"c".to_vec()]);
        assert_eq!(tap.base_offset(), 1, "oldest group evicted");
        assert_eq!(tap.next_offset(), 3);

        let mut shipper = WalShipper::new(Arc::clone(&tap), 0);
        assert_eq!(
            shipper.next(Duration::ZERO),
            Shipment::Gap { resume_from: 3 },
            "a cursor behind retention must snapshot and resume at the tail"
        );
        assert_eq!(shipper.cursor(), 3);
        tap.publish(vec![b"d".to_vec()]);
        let Shipment::Group(g) = shipper.next(Duration::ZERO) else {
            panic!("group after gap expected");
        };
        assert_eq!(g.offset, 3);
        assert_eq!(g.frames, vec![b"d".to_vec()]);
    }

    #[test]
    fn shipper_wakes_on_publish_from_another_thread() {
        let tap = Arc::new(WalTap::new(8));
        let mut shipper = WalShipper::new(Arc::clone(&tap), 0);
        let publisher = {
            let tap = Arc::clone(&tap);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tap.publish(vec![b"late".to_vec()]);
            })
        };
        let shipment = shipper.next(Duration::from_secs(5));
        publisher.join().unwrap();
        let Shipment::Group(g) = shipment else {
            panic!("expected the published group, got {shipment:?}");
        };
        assert_eq!(g.frames, vec![b"late".to_vec()]);
    }

    #[test]
    fn replica_applier_applies_groups_and_skips_duplicates() {
        let store: Arc<dyn KvStore> = Arc::new(crate::memstore::MemStore::new());
        let applier = ReplicaApplier::new(Arc::clone(&store), 0);
        let group = WalGroup {
            offset: 0,
            frames: vec![encode_op(1, Some(b"one")), encode_op(2, Some(b"two"))],
        };
        applier.apply(&group).unwrap();
        assert_eq!(applier.applied(), 2);
        assert_eq!(store.get(1).unwrap(), b"one");

        // Duplicate delivery after a reconnect: skipped, state unchanged.
        applier.apply(&group).unwrap();
        assert_eq!(applier.applied(), 2);

        let group2 = WalGroup {
            offset: 2,
            frames: vec![encode_op(1, None), encode_op(3, Some(b"three"))],
        };
        applier.apply(&group2).unwrap();
        assert_eq!(applier.applied(), 4);
        assert!(store.get(1).unwrap_err().is_not_found());
        assert_eq!(store.get(3).unwrap(), b"three");

        applier.set_applied(10);
        assert_eq!(applier.applied(), 10);
    }

    #[test]
    fn default_apply_replicated_group_rejects_corrupt_frames() {
        let store: Arc<dyn KvStore> = Arc::new(crate::memstore::MemStore::new());
        let applier = ReplicaApplier::new(store, 0);
        let group = WalGroup {
            offset: 0,
            frames: vec![vec![0xFF, 1, 2]],
        };
        assert!(applier.apply(&group).is_err());
        assert_eq!(applier.applied(), 0, "failed groups do not advance");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable(dir: &Path) -> StoreConfig {
        StoreConfig::on_disk(dir).with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
    }

    /// A started log `t_{gen}.dat` of the store `config` describes.
    fn started(config: &StoreConfig, metrics: &Arc<StorageMetrics>) -> GenerationalWal {
        let mut wal = GenerationalWal::open(config, "t_", Arc::clone(metrics));
        wal.start().unwrap();
        wal
    }

    /// Append `ops` as one group and commit it.
    fn log(wal: &GenerationalWal, ops: &[(u64, Option<&[u8]>)]) {
        wal.append_ops(ops.iter().copied())
            .unwrap()
            .commit()
            .unwrap();
    }

    type Op = (u64, Option<Vec<u8>>);

    fn put(key: u64, value: &[u8]) -> Op {
        (key, Some(value.to_vec()))
    }

    /// Every generation's replayed operations, oldest first.
    fn replayed(config: &StoreConfig) -> Vec<Vec<Op>> {
        let wal = GenerationalWal::open(config, "t_", Arc::new(StorageMetrics::new()));
        let mut gens = Vec::new();
        wal.replay_ops(|ops| {
            gens.push(ops);
            Ok(())
        })
        .unwrap();
        gens
    }

    #[test]
    fn generations_replay_oldest_first_and_logging_starts_a_new_one() {
        let dir = temp_dir("replay");
        let (config, metrics) = (durable(&dir), Arc::new(StorageMetrics::new()));
        // Two runs that never rotated leave generations 0 and 1 behind; each
        // run logged into its own.
        log(&started(&config, &metrics), &[(1, Some(b"one"))]);
        log(&started(&config, &metrics), &[(2, Some(b"two"))]);
        // Generation 10 sorts before 2 by name, but replays after it.
        let device = device_from_config(&config, "t_10.dat").unwrap();
        let writer = WalWriter::new(device, config.durability, Arc::clone(&metrics), None);
        writer
            .append_group([encode_op(3, None).as_slice()])
            .unwrap();
        std::fs::write(dir.join("other_4.dat"), b"not this log").unwrap();
        assert_eq!(generations(&dir, "t_"), vec![0, 1, 10]);
        assert_eq!(
            replayed(&config),
            vec![vec![put(1, b"one")], vec![put(2, b"two")], vec![(3, None)]]
        );
        started(&config, &metrics);
        assert_eq!(generations(&dir, "t_"), vec![0, 1, 10, 11]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_wal_replays_nothing() {
        let dir = temp_dir("empty");
        let mut wal = GenerationalWal::open(&durable(&dir), "t_", Arc::new(StorageMetrics::new()));
        assert!(!wal.is_logging(), "nothing logs before the log starts");
        assert!(replayed(&durable(&dir)).is_empty());
        wal.start().unwrap();
        assert!(wal.is_logging());
        assert_eq!(replayed(&durable(&dir)), vec![Vec::<Op>::new()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_and_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let wal = started(&durable(&dir), &Arc::new(StorageMetrics::new()));
        log(&wal, &[(1, Some(b"one")), (2, None), (3, Some(b""))]);
        assert_eq!(
            replayed(&durable(&dir)),
            vec![vec![put(1, b"one"), (2, None), put(3, b"")]]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_is_one_append() {
        let dir = temp_dir("group");
        let metrics = Arc::new(StorageMetrics::new());
        let wal = started(&durable(&dir), &metrics);
        let ack = wal
            .append_ops((0..50u64).map(|k| (k, Some([7u8; 8].as_slice()))))
            .unwrap();
        assert_eq!(metrics.snapshot().wal_appends, 1, "one device append");
        assert_eq!(metrics.snapshot().wal_syncs, 0, "synced at the commit");
        ack.commit().unwrap();
        assert_eq!(metrics.snapshot().wal_syncs, 1, "one sync per group");
        assert_eq!(replayed(&durable(&dir))[0].len(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each file a factory made, with the generations of `t_` on disk then.
    type Made = Arc<Mutex<Vec<(String, Vec<u64>)>>>;

    /// File devices in `dir` whose factory records what it makes ([`Made`])
    /// and fails to make `fail` (once).
    fn watched(dir: &Path, fail: &'static str) -> (Made, StoreConfig) {
        let made: Made = Arc::default();
        let (root, log) = (dir.to_path_buf(), Arc::clone(&made));
        let factory = crate::DeviceFactory::new(move |name| {
            let mut made = log.lock().unwrap();
            let failed_before = made.iter().any(|(n, _)| n == fail);
            made.push((name.to_string(), generations(&root, "t_")));
            if name == fail && !failed_before {
                return Err(std::io::Error::other("injected create fault").into());
            }
            Ok(Arc::new(crate::FileDevice::open(root.join(name))?) as Arc<dyn Device>)
        });
        (made, durable(dir).with_device_factory(factory))
    }

    #[test]
    fn rotation_creates_the_next_generation_before_deleting_the_old() {
        let dir = temp_dir("rotate");
        let (made, config) = watched(&dir, "none");
        let wal = started(&config, &Arc::new(StorageMetrics::new()));
        log(&wal, &[(1, Some(b"one"))]);
        wal.rotate().unwrap();
        assert_eq!(
            made.lock().unwrap().last(),
            Some(&("t_1.dat".to_string(), vec![0])),
            "generation 1 was created while generation 0 was still on disk"
        );
        assert_eq!(generations(&dir, "t_"), vec![1], "then 0 was deleted");
        log(&wal, &[(2, Some(b"two"))]);
        assert_eq!(replayed(&durable(&dir)), vec![vec![put(2, b"two")]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rotation_keeps_the_current_generation_and_deletes_nothing() {
        let dir = temp_dir("failed-rotate");
        let (_, config) = watched(&dir, "t_1.dat");
        let wal = started(&config, &Arc::new(StorageMetrics::new()));
        log(&wal, &[(1, Some(b"one"))]);
        assert!(wal.rotate().is_err(), "the failed create surfaces");
        assert_eq!(generations(&dir, "t_"), vec![0], "nothing was deleted");
        log(&wal, &[(2, Some(b"two"))]);
        assert_eq!(
            replayed(&durable(&dir)),
            vec![vec![put(1, b"one"), put(2, b"two")]],
            "generation 0 stayed current"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_that_keeps_no_log_writes_none_and_rotates_old_ones_away() {
        let dir = temp_dir("nolog");
        log(
            &started(&durable(&dir), &Arc::new(StorageMetrics::new())),
            &[(1, Some(b"one"))],
        );
        let metrics = Arc::new(StorageMetrics::new());
        let wal = GenerationalWal::open(&StoreConfig::on_disk(&dir), "t_", Arc::clone(&metrics));
        log(&wal, &[(2, None)]);
        assert_eq!(metrics.snapshot().wal_appends, 0);
        assert_eq!(generations(&dir, "t_"), vec![0]);
        wal.rotate().unwrap();
        assert!(
            generations(&dir, "t_").is_empty(),
            "the leftover is superseded"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // ── Satellite: committed-prefix replay under torn/corrupt frames ────────
    //
    // All three engines frame their logs through this module (FASTER's delta
    // WAL and the LSM WAL log `encode_op` records, the B+tree journals page images), so
    // the committed-prefix property proved here at the framing layer is the
    // one their recovery paths inherit.

    use proptest::prelude::*;

    fn groups_strategy() -> impl Strategy<Value = Vec<Vec<Vec<u8>>>> {
        proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..6),
            1..6,
        )
    }

    /// Device image of `groups` appended through the writer's grouped path,
    /// plus the flattened frame payloads in order.
    fn framed_image(groups: &[Vec<Vec<u8>>]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let (device, _, wal) = writer(DurabilityMode::None);
        let mut flat = Vec::new();
        for group in groups {
            wal.append_group(group.iter().map(|p| p.as_slice()))
                .unwrap();
            wal.commit().unwrap();
            flat.extend(group.iter().cloned());
        }
        (device.to_vec(), flat)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A torn tail *inside* a multi-record group: truncating the image at
        /// any byte keeps exactly the frames that are fully on the device —
        /// whole groups before the tear plus the torn group's intact prefix.
        #[test]
        fn torn_tail_inside_group_keeps_committed_prefix(
            groups in groups_strategy(),
            cut_seed in any::<u16>(),
        ) {
            let (image, flat) = framed_image(&groups);
            let cut = cut_seed as usize % (image.len() + 1);
            let device = MemDevice::new();
            device.write_at(0, &image[..cut]).unwrap();
            let replayed = replay_frames(&device).unwrap();

            // Expected: the longest frame prefix whose framing fits in `cut`.
            let mut expect = Vec::new();
            let mut pos = 0usize;
            for payload in &flat {
                let end = pos + FRAME_HEADER + payload.len();
                if end > cut {
                    break;
                }
                expect.push(payload.clone());
                pos = end;
            }
            prop_assert_eq!(replayed, expect);
        }

        /// Corrupting one byte of a *middle* frame stops replay exactly at
        /// that frame, keeping every earlier frame and discarding every later
        /// one (no resynchronisation past a bad CRC).
        #[test]
        fn corrupt_middle_frame_keeps_exactly_earlier_frames(
            groups in groups_strategy(),
            victim_seed in any::<u16>(),
            byte_seed in any::<u16>(),
        ) {
            let (mut image, flat) = framed_image(&groups);
            let victim = victim_seed as usize % flat.len();
            // Byte span of the victim frame (header + payload).
            let mut start = 0usize;
            for payload in flat.iter().take(victim) {
                start += FRAME_HEADER + payload.len();
            }
            let frame_len = FRAME_HEADER + flat[victim].len();
            let flip = start + byte_seed as usize % frame_len;
            image[flip] ^= 0x5A;

            let device = MemDevice::new();
            device.write_at(0, &image).unwrap();
            let replayed = replay_frames(&device).unwrap();

            // Frames before the victim survive byte-identically; the victim
            // and everything after it are discarded. (A flipped length,
            // CRC, or payload byte all fail the victim's CRC check — replay
            // never resynchronises past a bad frame.)
            prop_assert_eq!(&replayed[..], &flat[..victim]);
        }
    }
}
