//! The hybrid log: a single logical, append-only address space whose most recent
//! suffix is kept in memory and whose older pages spill to the device.
//!
//! Region boundaries (all monotonically non-decreasing byte offsets):
//!
//! * `tail` — next allocation offset.
//! * `read_only` — addresses `>= read_only` are **mutable in memory** (in-place
//!   updates allowed); addresses in `[head, read_only)` are **immutable in
//!   memory**.
//! * `head` — addresses `< head` live only on the device.
//!
//! Pages are fixed-size; a record never straddles a page boundary (the allocator
//! pads the remainder of a page instead, and padding is recognisable because real
//! records always carry the VALID flag).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use mlkv_storage::kv::ReadSource;
use mlkv_storage::{
    Device, IoPlanner, PendingRead, ReadReq, StorageError, StorageMetrics, StorageResult,
};

use crate::address::Address;
use crate::record::{Record, RecordRef};

/// Marker for a frame that holds no page yet.
const NO_PAGE: u64 = u64::MAX;

/// Size of the speculative first read of a cold record: enough for the header
/// plus a typical embedding row, so most records arrive in **one** device
/// round trip (the pre-scatter path read the header and the value
/// separately). Values longer than this pay a second, exactly-sized read.
const SPECULATIVE_COLD_READ: usize = 512;

struct Frame {
    /// Log page index currently resident in this frame, or [`NO_PAGE`].
    page_index: u64,
    /// The page's bytes. A boxed slice is never reallocated, so the address
    /// [`HybridLog`] records for it at construction stays the frame's.
    data: Box<[u8]>,
    dirty: bool,
}

/// The hybrid log.
pub struct HybridLog {
    device: Arc<dyn Device>,
    page_size: usize,
    num_frames: usize,
    mutable_bytes: u64,
    frames: Vec<RwLock<Frame>>,
    /// Address of each frame's `data`, taken at construction, so a batch can
    /// prefetch a record's lines without the frame lock
    /// ([`HybridLog::prefetch_record`]).
    frame_bases: Box<[usize]>,
    tail: AtomicU64,
    head: AtomicU64,
    read_only: AtomicU64,
    alloc_lock: Mutex<()>,
    planner: IoPlanner,
    metrics: Arc<StorageMetrics>,
    eager_page_sync: bool,
}

impl HybridLog {
    /// Create a hybrid log backed by `device` with an in-memory window of
    /// `memory_budget` bytes split into pages of `page_size` bytes. Half the
    /// window forms the mutable region, mirroring FASTER's default.
    pub fn new(
        device: Arc<dyn Device>,
        memory_budget: usize,
        page_size: usize,
        eager_page_sync: bool,
        planner: IoPlanner,
        metrics: Arc<StorageMetrics>,
    ) -> StorageResult<Self> {
        if page_size < Record::HEADER_LEN * 2 {
            return Err(StorageError::InvalidArgument(format!(
                "page size {page_size} too small"
            )));
        }
        let num_frames = (memory_budget / page_size).max(2);
        let mutable_bytes = ((num_frames * page_size) / 2).max(page_size) as u64;
        let frames: Vec<RwLock<Frame>> = (0..num_frames)
            .map(|_| {
                RwLock::new(Frame {
                    page_index: NO_PAGE,
                    data: vec![0; page_size].into_boxed_slice(),
                    dirty: false,
                })
            })
            .collect();
        let frame_bases = frames
            .iter()
            .map(|frame| frame.read().data.as_ptr() as usize)
            .collect();
        let log = Self {
            device,
            page_size,
            num_frames,
            mutable_bytes,
            frames,
            frame_bases,
            tail: AtomicU64::new(Address::FIRST_VALID),
            head: AtomicU64::new(0),
            read_only: AtomicU64::new(0),
            alloc_lock: Mutex::new(()),
            planner,
            metrics,
            eager_page_sync,
        };
        // Materialize the first page frame.
        {
            let mut f = log.frames[0].write();
            f.page_index = 0;
        }
        Ok(log)
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of in-memory page frames.
    pub fn num_frames(&self) -> usize {
        self.num_frames
    }

    /// Current tail (next allocation offset).
    pub fn tail(&self) -> Address {
        Address::new(self.tail.load(Ordering::Acquire))
    }

    /// Lowest address still resident in memory.
    pub fn head(&self) -> Address {
        Address::new(self.head.load(Ordering::Acquire))
    }

    /// Boundary between the immutable and mutable in-memory regions.
    pub fn read_only(&self) -> Address {
        Address::new(self.read_only.load(Ordering::Acquire))
    }

    /// Classify an address into the region it currently falls in.
    pub fn region_of(&self, addr: Address) -> ReadSource {
        if addr.raw() >= self.read_only.load(Ordering::Acquire) {
            ReadSource::HotMemory
        } else if addr.raw() >= self.head.load(Ordering::Acquire) {
            ReadSource::ColdMemory
        } else {
            ReadSource::Disk
        }
    }

    fn frame_for(&self, page: u64) -> &RwLock<Frame> {
        &self.frames[(page % self.num_frames as u64) as usize]
    }

    /// Flush a frame's bytes to the device at the page's home offset.
    fn flush_frame(&self, frame: &mut Frame) -> StorageResult<()> {
        if frame.page_index == NO_PAGE || !frame.dirty {
            return Ok(());
        }
        let offset = frame.page_index * self.page_size as u64;
        self.device.write_at(offset, &frame.data)?;
        self.metrics.record_disk_write(self.page_size as u64);
        if self.eager_page_sync {
            self.device.sync()?;
        }
        frame.dirty = false;
        Ok(())
    }

    /// Append an encoded record, returning the address it was placed at.
    ///
    /// The caller provides the already-encoded bytes (header + value); they must
    /// fit within one page.
    pub fn append(&self, bytes: &[u8]) -> StorageResult<Address> {
        if bytes.len() > self.page_size {
            return Err(StorageError::InvalidArgument(format!(
                "record of {} bytes exceeds page size {}",
                bytes.len(),
                self.page_size
            )));
        }
        let _guard = self.alloc_lock.lock();
        let mut tail = self.tail.load(Ordering::Acquire);
        let offset_in_page = (tail % self.page_size as u64) as usize;
        let space_left = self.page_size - offset_in_page;
        if bytes.len() > space_left {
            // Pad the rest of this page (already zero-initialised) and move to the
            // start of the next page.
            tail += space_left as u64;
        }
        let page = tail / self.page_size as u64;
        let offset_in_page = (tail % self.page_size as u64) as usize;
        if offset_in_page == 0 || self.frame_holds(page).is_none() {
            self.install_page(page)?;
        }
        {
            let frame_lock = self.frame_for(page);
            let mut frame = frame_lock.write();
            debug_assert_eq!(frame.page_index, page);
            frame.data[offset_in_page..offset_in_page + bytes.len()].copy_from_slice(bytes);
            frame.dirty = true;
        }
        let addr = Address::new(tail);
        self.tail
            .store(tail + bytes.len() as u64, Ordering::Release);
        self.advance_boundaries(tail + bytes.len() as u64);
        Ok(addr)
    }

    /// True when `page` currently resides in its frame.
    fn frame_holds(&self, page: u64) -> Option<()> {
        let frame = self.frame_for(page).read();
        (frame.page_index == page).then_some(())
    }

    /// Make `page` resident, evicting (flushing) the previous occupant of its
    /// frame if needed. Must be called under the allocation lock.
    fn install_page(&self, page: u64) -> StorageResult<()> {
        let frame_lock = self.frame_for(page);
        let mut frame = frame_lock.write();
        if frame.page_index == page {
            return Ok(());
        }
        self.flush_frame(&mut frame)?;
        frame.page_index = page;
        frame.data.iter_mut().for_each(|b| *b = 0);
        frame.dirty = false;
        Ok(())
    }

    /// Move `head` and `read_only` forward given the new tail.
    fn advance_boundaries(&self, new_tail: u64) {
        // Head: the oldest page that still has a frame is
        // `page(last byte written) - num_frames + 1`. When the tail lands
        // exactly on a page boundary the next page is not installed yet, so
        // the frame it will take still holds an unflushed resident page.
        let tail_page = new_tail.saturating_sub(1) / self.page_size as u64;
        let head_page = tail_page.saturating_sub(self.num_frames as u64 - 1);
        let new_head = head_page * self.page_size as u64;
        self.head.fetch_max(new_head, Ordering::AcqRel);
        let new_ro = new_tail
            .saturating_sub(self.mutable_bytes)
            .max(self.head.load(Ordering::Acquire));
        self.read_only.fetch_max(new_ro, Ordering::AcqRel);
    }

    /// Read the full record at `addr`, returning the decoded record and the
    /// region it was served from.
    pub fn read_record(&self, addr: Address) -> StorageResult<(Record, ReadSource)> {
        match self.read_record_memory(addr)? {
            Some(result) => Ok(result),
            None => self.read_record_from_disk(addr),
        }
    }

    /// Serve `addr` from the in-memory window when resident: `Ok(None)` means
    /// the record lives only on the device. Batch callers collect the `None`
    /// addresses of a whole key range and fetch them with one coalesced
    /// scatter via [`HybridLog::read_records_from_disk`].
    pub fn read_record_memory(&self, addr: Address) -> StorageResult<Option<(Record, ReadSource)>> {
        self.with_record_memory(addr, |record, source| (record.to_record(), source))
    }

    /// [`HybridLog::read_record_memory`] without the copy: when `addr` is
    /// resident, call `f` with the record decoded in place and the region it
    /// was served from, while the page's frame is read-locked — so an
    /// in-place update ([`HybridLog::try_update_in_place`], which takes the
    /// frame's write lock) can never be seen half-written. `f` must not call
    /// back into the log. `Ok(None)` means the record lives only on the
    /// device.
    pub fn with_record_memory<R>(
        &self,
        addr: Address,
        f: impl FnOnce(RecordRef<'_>, ReadSource) -> R,
    ) -> StorageResult<Option<R>> {
        self.check_addr(addr)?;
        if addr.raw() < self.head.load(Ordering::Acquire) {
            return Ok(None);
        }
        let page = addr.page(self.page_size);
        let offset = addr.offset_in_page(self.page_size);
        let frame_lock = self.frame_for(page);
        let frame = frame_lock.read();
        if frame.page_index != page {
            // Evicted between the head check and the frame lock; the caller
            // reads the device.
            return Ok(None);
        }
        if offset + Record::HEADER_LEN > self.page_size {
            return Err(StorageError::Corruption(format!(
                "record header at {addr} crosses page boundary"
            )));
        }
        let (_, _, value_len, _) = Record::decode_header(&frame.data[offset..])?;
        let total = Record::HEADER_LEN + value_len;
        if offset + total > self.page_size {
            return Err(StorageError::Corruption(format!(
                "record at {addr} crosses page boundary"
            )));
        }
        let record = RecordRef::decode(&frame.data[offset..offset + total])?;
        Ok(Some(f(record, self.region_of(addr))))
    }

    /// Start loading the lines [`HybridLog::with_record_memory`] will touch
    /// for `addr`: the frame's lock and the record's first two lines (its
    /// header and the start of its value). A hint only: a frame evicted or
    /// reused meanwhile is still read under its lock and its `page_index`
    /// check, and a line past the frame's end is never read.
    #[inline]
    pub fn prefetch_record(&self, addr: Address) {
        let slot = (addr.page(self.page_size) % self.num_frames as u64) as usize;
        mlkv_storage::prefetch(&self.frames[slot]);
        let at = self.frame_bases[slot] + addr.offset_in_page(self.page_size);
        mlkv_storage::prefetch(at as *const u8);
        mlkv_storage::prefetch((at + 64) as *const u8);
    }

    /// Reject invalid or not-yet-allocated addresses.
    fn check_addr(&self, addr: Address) -> StorageResult<()> {
        if addr.is_invalid() || addr.raw() >= self.tail.load(Ordering::Acquire) {
            return Err(StorageError::Corruption(format!(
                "read of invalid address {addr}"
            )));
        }
        Ok(())
    }

    /// Bytes of the speculative first read at `addr`: header plus as much of
    /// the value as [`SPECULATIVE_COLD_READ`] allows, capped by the record's
    /// page (records never straddle pages, and spilled pages are flushed
    /// whole) and by the device end.
    fn disk_span(&self, addr: Address) -> usize {
        let in_page = self.page_size - addr.offset_in_page(self.page_size);
        let to_end = self.device.len().saturating_sub(addr.raw()) as usize;
        in_page
            .min(SPECULATIVE_COLD_READ)
            .min(to_end)
            .max(Record::HEADER_LEN)
    }

    /// Decode a fully-fetched on-device record and account the read.
    fn finish_disk_record(&self, bytes: &[u8]) -> StorageResult<Record> {
        let record = Record::decode(bytes)?;
        self.metrics.record_background_disk_read(bytes.len() as u64);
        Ok(record)
    }

    fn read_record_from_disk(&self, addr: Address) -> StorageResult<(Record, ReadSource)> {
        // One speculative read covers header + value for typical records; the
        // old path always paid two device round trips (header, then value).
        let mut buf = vec![0u8; self.disk_span(addr)];
        self.device.read_at(addr.raw(), &mut buf)?;
        let (_, _, value_len, _) = Record::decode_header(&buf)?;
        let total = Record::HEADER_LEN + value_len;
        if total > buf.len() {
            buf = vec![0u8; total];
            self.device.read_at(addr.raw(), &mut buf)?;
        }
        Ok((self.finish_disk_record(&buf[..total])?, ReadSource::Disk))
    }

    /// Submit a coalesced scatter for the records at `addrs` — all
    /// device-resident — and return a handle to finish it with. Each record
    /// gets a speculative span (header + typical value in a single request,
    /// see `SPECULATIVE_COLD_READ`); [`PendingRecords::wait`] issues a
    /// second, exactly-sized scatter for the few values that exceed it,
    /// decoding the already-complete records *while* that follow-up round is
    /// in flight. Results are per-address, so one bad address cannot fail
    /// the whole batch.
    pub fn submit_records_from_disk(&self, addrs: Vec<Address>) -> PendingRecords<'_> {
        let mut out: Vec<Option<StorageResult<Record>>> = addrs.iter().map(|_| None).collect();
        let mut slots: Vec<usize> = Vec::with_capacity(addrs.len());
        let mut batch: Vec<ReadReq> = Vec::with_capacity(addrs.len());
        for (i, &addr) in addrs.iter().enumerate() {
            match self.check_addr(addr) {
                Ok(()) => {
                    slots.push(i);
                    batch.push(ReadReq::new(addr.raw(), self.disk_span(addr)));
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        let pending = self.planner.submit(self.device.as_ref(), batch);
        PendingRecords {
            log: self,
            addrs,
            slots,
            out,
            pending,
        }
    }

    /// Fetch the records at `addrs` with one coalesced scatter: [`HybridLog::submit_records_from_disk`]
    /// finished immediately.
    pub fn read_records_from_disk(&self, addrs: &[Address]) -> Vec<StorageResult<Record>> {
        self.submit_records_from_disk(addrs.to_vec()).wait()
    }

    /// Clear the VALID flag of the record at `addr`, turning it into padding that
    /// log scans skip. Used to neutralise records whose index compare-and-swap
    /// lost a race. Best-effort: only possible while the record's page is still
    /// resident in memory.
    pub fn invalidate_record(&self, addr: Address) -> StorageResult<bool> {
        let page = addr.page(self.page_size);
        let offset = addr.offset_in_page(self.page_size);
        let frame_lock = self.frame_for(page);
        let mut frame = frame_lock.write();
        if frame.page_index != page {
            return Ok(false);
        }
        // flags live at byte offset 20 of the header.
        let flags_at = offset + 20;
        frame.data[flags_at..flags_at + 4].copy_from_slice(&0u32.to_le_bytes());
        frame.dirty = true;
        Ok(true)
    }

    /// Overwrite the value of the record at `addr` in place. Returns `false`
    /// when the record is no longer in the mutable region or the new value has a
    /// different length (callers then fall back to an append).
    pub fn try_update_in_place(&self, addr: Address, new_value: &[u8]) -> StorageResult<bool> {
        self.update_in_place_after(addr, new_value, || {})
    }

    /// [`HybridLog::try_update_in_place`], running `between` after the
    /// lock-free region check and before the frame lock: the window in which
    /// `read_only` can cross the record (tests park a writer there).
    ///
    /// The region is checked again under the frame's write lock, FASTER's
    /// fuzzy-region rule: a promotion classifies a record read-only under the
    /// frame's read lock ([`HybridLog::with_record_memory`]) and copies it to
    /// the tail, so a writer that still wrote in place afterwards would update
    /// a record that is no longer its key's newest. Past that lock it either
    /// wrote before the promotion read (which copies the new value) or sees
    /// the record read-only and appends (the index CAS orders it after the
    /// copy).
    fn update_in_place_after(
        &self,
        addr: Address,
        new_value: &[u8],
        between: impl FnOnce(),
    ) -> StorageResult<bool> {
        if addr.raw() < self.read_only.load(Ordering::Acquire) {
            return Ok(false);
        }
        between();
        let page = addr.page(self.page_size);
        let offset = addr.offset_in_page(self.page_size);
        let frame_lock = self.frame_for(page);
        let mut frame = frame_lock.write();
        if frame.page_index != page || addr.raw() < self.read_only.load(Ordering::Acquire) {
            return Ok(false);
        }
        let (_, _, value_len, flags) = Record::decode_header(&frame.data[offset..])?;
        if !flags.is_valid() || flags.is_tombstone() || value_len != new_value.len() {
            return Ok(false);
        }
        let value_start = offset + Record::HEADER_LEN;
        frame.data[value_start..value_start + new_value.len()].copy_from_slice(new_value);
        frame.dirty = true;
        Ok(true)
    }

    /// Flush every dirty resident page to the device without evicting anything.
    pub fn flush_all(&self) -> StorageResult<()> {
        let _guard = self.alloc_lock.lock();
        for frame_lock in &self.frames {
            let mut frame = frame_lock.write();
            self.flush_frame(&mut frame)?;
        }
        if self.eager_page_sync {
            self.device.sync()?;
        }
        Ok(())
    }

    /// Harden the device unconditionally (checkpoints call this after
    /// [`HybridLog::flush_all`] so the manifest never references pages still
    /// sitting in an OS or crash-injection write buffer).
    pub fn sync(&self) -> StorageResult<()> {
        self.device.sync()
    }

    /// Iterate over every valid record in log order, calling `f(address, record)`.
    /// Used by checkpointing, recovery and fold-over scans.
    pub fn scan(&self, mut f: impl FnMut(Address, &Record)) -> StorageResult<()> {
        let tail = self.tail.load(Ordering::Acquire);
        let mut addr = Address::FIRST_VALID;
        while addr < tail {
            let offset_in_page = (addr % self.page_size as u64) as usize;
            if offset_in_page + Record::HEADER_LEN > self.page_size {
                // Not enough room for a header: rest of page is padding.
                addr = (addr / self.page_size as u64 + 1) * self.page_size as u64;
                continue;
            }
            match self.read_record(Address::new(addr)) {
                Ok((record, _)) if record.flags.is_valid() => {
                    f(Address::new(addr), &record);
                    addr += record.serialized_len() as u64;
                }
                Ok((record, _))
                    if record.key != 0 || !record.value.is_empty() || !record.prev.is_invalid() =>
                {
                    // An explicitly invalidated record (lost an index CAS race):
                    // skip just this record.
                    addr += record.serialized_len() as u64;
                }
                _ => {
                    // Zero padding (or an unreadable slot): skip to the next page.
                    addr = (addr / self.page_size as u64 + 1) * self.page_size as u64;
                }
            }
        }
        Ok(())
    }

    /// Restore the region boundaries after recovery.
    pub fn restore_boundaries(&self, tail: u64, head: u64, read_only: u64) {
        self.tail.store(tail, Ordering::Release);
        self.head.store(head, Ordering::Release);
        self.read_only.store(read_only, Ordering::Release);
        let _guard = self.alloc_lock.lock();
        // Drop any frame contents from the fresh-store constructor: after a
        // restore, reads for non-resident pages must go to the (checkpointed)
        // device rather than see zeroed frames.
        for frame_lock in &self.frames {
            let mut frame = frame_lock.write();
            frame.page_index = NO_PAGE;
            frame.dirty = false;
        }
        // Make the tail page resident (with its on-disk contents) so appends can
        // continue where the checkpoint left off.
        let page = tail / self.page_size as u64;
        let _ = self.install_page_for_recovery(page);
    }

    /// Load the tail page's on-disk contents into its frame during recovery so
    /// partially-filled pages keep their existing records.
    fn install_page_for_recovery(&self, page: u64) -> StorageResult<()> {
        let frame_lock = self.frame_for(page);
        let mut frame = frame_lock.write();
        frame.page_index = page;
        frame.dirty = false;
        let offset = page * self.page_size as u64;
        if offset < self.device.len() {
            let readable = ((self.device.len() - offset) as usize).min(self.page_size);
            let mut buf = vec![0u8; readable];
            self.device.read_at(offset, &mut buf)?;
            frame.data[..readable].copy_from_slice(&buf);
            frame.data[readable..].iter_mut().for_each(|b| *b = 0);
        } else {
            frame.data.iter_mut().for_each(|b| *b = 0);
        }
        Ok(())
    }

    /// Total bytes currently allocated in the log.
    pub fn allocated_bytes(&self) -> u64 {
        self.tail.load(Ordering::Acquire) - Address::FIRST_VALID
    }
}

/// A cold-record scatter in flight ([`HybridLog::submit_records_from_disk`]).
///
/// On a device that completes submissions later (the simulated SSD's virtual
/// clock) the merged reads overlap each other, and the caller's walk of
/// memory-resident chains; a device that completes inline has read them by
/// the time [`PendingRecords::wait`] decodes.
pub struct PendingRecords<'a> {
    log: &'a HybridLog,
    /// Requested addresses (taken by value — used by the error fallbacks).
    addrs: Vec<Address>,
    /// Input slots whose speculative request was actually submitted.
    slots: Vec<usize>,
    /// Per-slot results; invalid addresses fail at submit time.
    out: Vec<Option<StorageResult<Record>>>,
    pending: PendingRead,
}

impl PendingRecords<'_> {
    /// Finish the batch: park on the speculative scatter, submit the
    /// follow-up scatter for oversized values, decode the complete records
    /// while it is in flight, then resolve the stragglers.
    pub fn wait(self) -> Vec<StorageResult<Record>> {
        let Self {
            log,
            addrs,
            slots,
            mut out,
            pending,
        } = self;
        match pending.wait() {
            Err(_) => {
                // A merged read failed somewhere in the batch: retry per
                // record so each address surfaces its own (possibly clean)
                // result.
                for &i in &slots {
                    out[i] = Some(
                        log.read_record_from_disk(addrs[i])
                            .map(|(record, _)| record),
                    );
                }
            }
            Ok(reqs) => {
                // First pass: headers only, so the follow-up scatter for
                // values beyond the speculative span is submitted before any
                // value decoding happens.
                let mut complete: Vec<(usize, usize, usize)> = Vec::new(); // (slot, req, total)
                let mut follow_slots: Vec<usize> = Vec::new();
                let mut follow: Vec<ReadReq> = Vec::new();
                for (r, (&i, req)) in slots.iter().zip(&reqs).enumerate() {
                    match Record::decode_header(&req.buf) {
                        Ok((_, _, value_len, _)) => {
                            let total = Record::HEADER_LEN + value_len;
                            if total <= req.buf.len() {
                                complete.push((i, r, total));
                            } else {
                                follow_slots.push(i);
                                follow.push(ReadReq::new(req.offset, total));
                            }
                        }
                        Err(e) => out[i] = Some(Err(e)),
                    }
                }
                let follow_pending =
                    (!follow.is_empty()).then(|| log.planner.submit(log.device.as_ref(), follow));
                // Decode the speculative-complete records while the
                // follow-up round is in flight.
                for (i, r, total) in complete {
                    out[i] = Some(log.finish_disk_record(&reqs[r].buf[..total]));
                }
                if let Some(follow_pending) = follow_pending {
                    match follow_pending.wait() {
                        Ok(follow_reqs) => {
                            for (&i, req) in follow_slots.iter().zip(&follow_reqs) {
                                out[i] = Some(log.finish_disk_record(&req.buf));
                            }
                        }
                        Err(_) => {
                            for &i in &follow_slots {
                                out[i] = Some(
                                    log.read_record_from_disk(addrs[i])
                                        .map(|(record, _)| record),
                                );
                            }
                        }
                    }
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv_storage::MemDevice;

    fn new_log(budget: usize, page: usize) -> HybridLog {
        HybridLog::new(
            Arc::new(MemDevice::new()),
            budget,
            page,
            false,
            IoPlanner::default(),
            Arc::new(StorageMetrics::new()),
        )
        .unwrap()
    }

    fn append_record(log: &HybridLog, key: u64, value: &[u8]) -> Address {
        let rec = Record::new(key, value.to_vec(), Address::INVALID);
        log.append(&rec.encode()).unwrap()
    }

    #[test]
    fn append_and_read_back_from_memory() {
        let log = new_log(4096, 512);
        let a1 = append_record(&log, 1, b"one");
        let a2 = append_record(&log, 2, b"two");
        assert!(a2 > a1);
        let (r1, src1) = log.read_record(a1).unwrap();
        assert_eq!(r1.key, 1);
        assert_eq!(r1.value, b"one");
        assert_eq!(src1, ReadSource::HotMemory);
        let (r2, _) = log.read_record(a2).unwrap();
        assert_eq!(r2.value, b"two");
    }

    #[test]
    fn records_never_straddle_pages() {
        let log = new_log(2048, 256);
        let value = vec![7u8; 100];
        let mut addrs = Vec::new();
        for k in 0..20u64 {
            addrs.push(append_record(&log, k, &value));
        }
        for a in &addrs {
            let page_start = a.raw() / 256 * 256;
            assert!(a.raw() + Record::len_for_value(100) as u64 <= page_start + 256);
        }
    }

    #[test]
    fn old_pages_spill_to_disk_and_remain_readable() {
        // 2 frames of 256 bytes: anything older than ~2 pages must hit the disk.
        let log = new_log(512, 256);
        let value = vec![9u8; 64];
        let mut addrs = Vec::new();
        for k in 0..30u64 {
            addrs.push((k, append_record(&log, k, &value)));
        }
        let head = log.head();
        assert!(head.raw() > 0, "head must have advanced");
        let (k0, a0) = addrs[0];
        assert!(a0 < head);
        let (rec, src) = log.read_record(a0).unwrap();
        assert_eq!(rec.key, k0);
        assert_eq!(rec.value, value);
        assert_eq!(src, ReadSource::Disk);
        // The newest record is still hot.
        let (_, anew) = *addrs.last().unwrap();
        let (_, src) = log.read_record(anew).unwrap();
        assert_eq!(src, ReadSource::HotMemory);
    }

    #[test]
    fn region_boundaries_are_ordered() {
        let log = new_log(1024, 256);
        for k in 0..50u64 {
            append_record(&log, k, &[0u8; 32]);
        }
        assert!(log.head() <= log.read_only());
        assert!(log.read_only() <= log.tail());
    }

    #[test]
    fn in_place_update_only_in_mutable_region() {
        let log = new_log(512, 256);
        let a_old = append_record(&log, 1, &[1u8; 64]);
        for k in 2..20u64 {
            append_record(&log, k, &[0u8; 64]);
        }
        // a_old has fallen out of the mutable region (likely to disk).
        assert!(!log.try_update_in_place(a_old, &[9u8; 64]).unwrap());
        let a_new = append_record(&log, 99, &[1u8; 64]);
        assert!(log.try_update_in_place(a_new, &[9u8; 64]).unwrap());
        let (rec, _) = log.read_record(a_new).unwrap();
        assert_eq!(rec.value, vec![9u8; 64]);
        // Length mismatch is rejected.
        assert!(!log.try_update_in_place(a_new, &[1u8; 5]).unwrap());
    }

    #[test]
    fn in_place_write_refuses_once_read_only_crosses_its_record() {
        // A writer passes the lock-free region check, then `read_only`
        // crosses its record (which a promotion may now copy) before it takes
        // the frame lock: the write must refuse, or it would update a record
        // that is no longer its key's newest.
        let log = new_log(4096, 256);
        let addr = append_record(&log, 1, &[1u8; 64]);
        let (checked_tx, checked_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let log = &log;
            let writer = s.spawn(move || {
                log.update_in_place_after(addr, &[9u8; 64], || {
                    checked_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                })
            });
            checked_rx.recv().unwrap();
            let mut key = 2;
            while log.read_only() <= addr {
                append_record(log, key, &[0u8; 64]);
                key += 1;
            }
            assert_eq!(log.region_of(addr), ReadSource::ColdMemory);
            go_tx.send(()).unwrap();
            assert!(!writer.join().unwrap().unwrap(), "wrote a read-only record");
        });
        assert_eq!(log.read_record(addr).unwrap().0.value, vec![1u8; 64]);
    }

    #[test]
    fn oversized_records_are_rejected() {
        let log = new_log(1024, 256);
        let rec = Record::new(1, vec![0u8; 300], Address::INVALID);
        assert!(log.append(&rec.encode()).is_err());
    }

    #[test]
    fn invalid_reads_are_rejected() {
        let log = new_log(1024, 256);
        assert!(log.read_record(Address::INVALID).is_err());
        assert!(log.read_record(Address::new(1 << 40)).is_err());
    }

    #[test]
    fn scan_visits_all_records_in_order() {
        let log = new_log(512, 256);
        let mut keys = Vec::new();
        for k in 0..40u64 {
            append_record(&log, k, &[k as u8; 48]);
            keys.push(k);
        }
        log.flush_all().unwrap();
        let mut seen = Vec::new();
        log.scan(|_, rec| seen.push(rec.key)).unwrap();
        assert_eq!(seen, keys);
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let device = Arc::new(MemDevice::new());
        let metrics = Arc::new(StorageMetrics::new());
        let log = HybridLog::new(
            device.clone(),
            1024,
            256,
            false,
            IoPlanner::default(),
            metrics,
        )
        .unwrap();
        let rec = Record::new(5, vec![5u8; 32], Address::INVALID);
        log.append(&rec.encode()).unwrap();
        assert_eq!(device.len(), 0);
        log.flush_all().unwrap();
        assert!(device.len() > 0);
    }

    #[test]
    fn batched_disk_reads_match_single_reads() {
        // 2 frames of 2 KiB: most records spill. Values straddle the
        // speculative span boundary (one below, one far above 512 bytes).
        let log = new_log(4096, 2048);
        let mut addrs = Vec::new();
        for k in 0..40u64 {
            let len = if k % 5 == 0 { 1000 } else { 64 };
            addrs.push(append_record(&log, k, &vec![k as u8; len]));
        }
        let head = log.head();
        let cold: Vec<Address> = addrs.iter().copied().filter(|a| *a < head).collect();
        assert!(cold.len() > 10, "need cold records");
        let batch = log.read_records_from_disk(&cold);
        for (addr, got) in cold.iter().zip(batch) {
            let (want, src) = log.read_record(*addr).unwrap();
            assert_eq!(src, ReadSource::Disk);
            let got = got.unwrap();
            assert_eq!(got.key, want.key);
            assert_eq!(got.value, want.value);
        }
        // Invalid addresses fail their own slot, not the batch.
        let mixed = vec![cold[0], Address::new(1 << 40)];
        let results = log.read_records_from_disk(&mixed);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn read_record_memory_reports_disk_residents_as_none() {
        let log = new_log(512, 256);
        let mut addrs = Vec::new();
        for k in 0..30u64 {
            addrs.push(append_record(&log, k, &[9u8; 64]));
        }
        let head = log.head();
        assert!(log.read_record_memory(addrs[0]).unwrap().is_none());
        assert!(addrs[0] < head);
        let hot = *addrs.last().unwrap();
        assert!(log.read_record_memory(hot).unwrap().is_some());
        assert!(log.read_record_memory(Address::INVALID).is_err());
    }

    #[test]
    fn frame_bases_stay_put_through_eviction_and_recovery() {
        let log = new_log(1024, 256);
        let bases_hold = |log: &HybridLog| {
            log.frames
                .iter()
                .zip(log.frame_bases.iter())
                .all(|(frame, &base)| frame.read().data.as_ptr() as usize == base)
        };
        // Append until every frame has been evicted twice: the head is
        // past two frames' worth of pages.
        let mut k = 0;
        while log.head().raw() < 2 * log.num_frames() as u64 * 256 {
            append_record(&log, k, &[k as u8; 64]);
            k += 1;
        }
        assert!(bases_hold(&log), "a frame's data moved on eviction");
        log.flush_all().unwrap();
        let (tail, head, ro) = (log.tail().raw(), log.head().raw(), log.read_only().raw());
        log.restore_boundaries(tail, head, ro);
        assert!(bases_hold(&log), "a frame's data moved on recovery");
        // The recovered tail page still reads through its frame.
        let last = Address::new(tail - Record::len_for_value(64) as u64);
        assert!(log.read_record_memory(last).unwrap().is_some());
    }

    #[test]
    fn concurrent_appends_and_reads() {
        let log = Arc::new(new_log(2048, 256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut addrs = Vec::new();
                for i in 0..100u64 {
                    let key = t * 1000 + i;
                    let rec = Record::new(key, key.to_le_bytes().to_vec(), Address::INVALID);
                    addrs.push((key, log.append(&rec.encode()).unwrap()));
                }
                for (key, addr) in addrs {
                    let (rec, _) = log.read_record(addr).unwrap();
                    assert_eq!(rec.key, key);
                    assert_eq!(rec.value, key.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
