//! Immutable sorted-string tables.
//!
//! Layout of one SSTable on its device:
//!
//! ```text
//! [ data section  : (key u64 | tombstone u8 | vlen u32 | value bytes)* ]
//! [ index section : (key u64 | data offset u64)*                       ]
//! [ bloom section : serialized BloomFilter                             ]
//! [ footer        : data_len | index_len | bloom_len | count | magic   ]
//! ```
//!
//! The index and bloom filter are kept in memory once the table is opened; point
//! reads binary-search the index and issue exactly one device read for the whole
//! entry (its size is known from the next index entry, so header and value never
//! need separate reads). Batched probes go further: one coalesced scatter per
//! table covers every admitted key of the batch ([`SsTable::get_many`]).

use std::sync::Arc;

use mlkv_storage::{
    Device, IoPlanner, PendingRead, ReadReq, StorageError, StorageMetrics, StorageResult,
};

use crate::bloom::BloomFilter;
use crate::memtable::Entry;

const FOOTER_LEN: usize = 40;
const MAGIC: u64 = 0x4D4C_4B56_5353_5442; // "MLKVSSTB"
/// Fixed per-entry prefix: key (8) + tombstone flag (1) + value length (4).
const ENTRY_HEADER_LEN: usize = 13;

/// An opened, immutable SSTable.
pub struct SsTable {
    device: Arc<dyn Device>,
    planner: IoPlanner,
    /// Sorted keys with their offsets into the data section.
    index: Vec<(u64, u64)>,
    bloom: BloomFilter,
    data_len: u64,
    /// Sequence number: higher = newer (used to order reads across tables).
    pub seq: u64,
}

impl SsTable {
    /// Write `entries` (sorted by key, deduplicated) to `device` and return the
    /// opened table. `seq` orders tables from oldest to newest.
    pub fn build(
        device: Arc<dyn Device>,
        planner: IoPlanner,
        entries: &[(u64, Entry)],
        seq: u64,
        metrics: &StorageMetrics,
    ) -> StorageResult<Self> {
        let mut data = Vec::new();
        let mut index = Vec::with_capacity(entries.len());
        let mut bloom = BloomFilter::new(entries.len(), 10);
        for (key, entry) in entries {
            index.push((*key, data.len() as u64));
            bloom.insert(*key);
            data.extend_from_slice(&key.to_le_bytes());
            match entry {
                Some(value) => {
                    data.push(0);
                    data.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    data.extend_from_slice(value);
                }
                None => {
                    data.push(1);
                    data.extend_from_slice(&0u32.to_le_bytes());
                }
            }
        }
        let mut index_bytes = Vec::with_capacity(index.len() * 16);
        for (k, off) in &index {
            index_bytes.extend_from_slice(&k.to_le_bytes());
            index_bytes.extend_from_slice(&off.to_le_bytes());
        }
        let bloom_bytes = bloom.encode();
        let mut file =
            Vec::with_capacity(data.len() + index_bytes.len() + bloom_bytes.len() + FOOTER_LEN);
        file.extend_from_slice(&data);
        file.extend_from_slice(&index_bytes);
        file.extend_from_slice(&bloom_bytes);
        file.extend_from_slice(&(data.len() as u64).to_le_bytes());
        file.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
        file.extend_from_slice(&(bloom_bytes.len() as u64).to_le_bytes());
        file.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        file.extend_from_slice(&MAGIC.to_le_bytes());
        device.write_at(0, &file)?;
        metrics.record_disk_write(file.len() as u64);
        Ok(Self {
            device,
            planner,
            index,
            bloom,
            data_len: data.len() as u64,
            seq,
        })
    }

    /// Open an existing table from `device`.
    pub fn open(device: Arc<dyn Device>, planner: IoPlanner, seq: u64) -> StorageResult<Self> {
        let total = device.len();
        if total < FOOTER_LEN as u64 {
            return Err(StorageError::Corruption("sstable too small".into()));
        }
        let mut footer = [0u8; FOOTER_LEN];
        device.read_at(total - FOOTER_LEN as u64, &mut footer)?;
        let word = |i: usize| u64::from_le_bytes(footer[i * 8..(i + 1) * 8].try_into().unwrap());
        if word(4) != MAGIC {
            return Err(StorageError::Corruption("bad sstable magic".into()));
        }
        let (data_len, index_len, bloom_len, count) = (word(0), word(1), word(2), word(3));
        let mut index_bytes = vec![0u8; index_len as usize];
        device.read_at(data_len, &mut index_bytes)?;
        let mut index = Vec::with_capacity(count as usize);
        for chunk in index_bytes.chunks_exact(16) {
            index.push((
                u64::from_le_bytes(chunk[0..8].try_into().unwrap()),
                u64::from_le_bytes(chunk[8..16].try_into().unwrap()),
            ));
        }
        let mut bloom_bytes = vec![0u8; bloom_len as usize];
        device.read_at(data_len + index_len, &mut bloom_bytes)?;
        let bloom = BloomFilter::decode(&bloom_bytes)
            .ok_or_else(|| StorageError::Corruption("bad bloom filter".into()))?;
        Ok(Self {
            device,
            planner,
            index,
            bloom,
            data_len,
            seq,
        })
    }

    /// Harden the table to stable storage. Called after `build` and *before*
    /// the WAL (or compaction inputs) covering these entries is removed, so a
    /// crash can never leave the entries in neither place.
    pub fn sync(&self) -> StorageResult<()> {
        self.device.sync()
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Smallest and largest key, when non-empty.
    pub fn key_range(&self) -> Option<(u64, u64)> {
        match (self.index.first(), self.index.last()) {
            (Some((lo, _)), Some((hi, _))) => Some((*lo, *hi)),
            _ => None,
        }
    }

    /// True when the bloom filter admits the key.
    pub fn may_contain(&self, key: u64) -> bool {
        self.bloom.may_contain(key)
    }

    /// Membership probe without reading the value: `Ok(None)` when the key is
    /// not in this table, `Ok(Some(true))` when it is live here,
    /// `Ok(Some(false))` when it is tombstoned here. Costs at most one
    /// 13-byte header read (and nothing at all when the bloom filter or the
    /// in-memory index rejects the key).
    pub fn contains(&self, key: u64, metrics: &StorageMetrics) -> StorageResult<Option<bool>> {
        if !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let Ok(pos) = self.index.binary_search_by_key(&key, |(k, _)| *k) else {
            return Ok(None);
        };
        let mut header = [0u8; ENTRY_HEADER_LEN];
        self.device.read_at(self.index[pos].1, &mut header)?;
        metrics.record_background_disk_read(ENTRY_HEADER_LEN as u64);
        Ok(Some(header[8] == 0))
    }

    /// Byte length of the entry at index position `pos`: the distance to the
    /// next entry's offset (or to the end of the data section for the last
    /// entry). Knowing the exact size from the in-memory index lets point
    /// reads fetch header + value in **one** device read.
    fn entry_len(&self, pos: usize) -> usize {
        let end = self
            .index
            .get(pos + 1)
            .map_or(self.data_len, |(_, off)| *off);
        (end - self.index[pos].1) as usize
    }

    /// Index position of `key` if both the bloom filter and the in-memory
    /// index admit it (no device I/O).
    fn probe(&self, key: u64) -> Option<usize> {
        if !self.bloom.may_contain(key) {
            return None;
        }
        self.index.binary_search_by_key(&key, |(k, _)| *k).ok()
    }

    /// Decode the entry bytes at index position `pos`, verifying the key.
    fn decode_entry(&self, pos: usize, key: u64, bytes: &[u8]) -> StorageResult<Entry> {
        if bytes.len() < ENTRY_HEADER_LEN {
            return Err(StorageError::Corruption(format!(
                "sstable entry for {key} truncated: {} bytes",
                bytes.len()
            )));
        }
        let stored_key = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        if stored_key != key {
            return Err(StorageError::Corruption(format!(
                "sstable index points to wrong key: {stored_key} != {key}"
            )));
        }
        let tombstone = bytes[8] == 1;
        let vlen = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
        if ENTRY_HEADER_LEN + vlen > self.entry_len(pos) {
            return Err(StorageError::Corruption(format!(
                "sstable entry for {key} overruns its index slot"
            )));
        }
        if tombstone {
            return Ok(None);
        }
        Ok(Some(
            bytes[ENTRY_HEADER_LEN..ENTRY_HEADER_LEN + vlen].to_vec(),
        ))
    }

    /// Point lookup. `Ok(None)` when the key is not in this table;
    /// `Ok(Some(None))` when the key is tombstoned here. Costs exactly one
    /// device read sized from the index entry (the pre-scatter path read the
    /// 13-byte header and the value separately).
    pub fn get(&self, key: u64, metrics: &StorageMetrics) -> StorageResult<Option<Entry>> {
        let Some(pos) = self.probe(key) else {
            return Ok(None);
        };
        let len = self.entry_len(pos);
        let mut bytes = vec![0u8; len];
        self.device.read_at(self.index[pos].1, &mut bytes)?;
        metrics.record_background_disk_read(len as u64);
        self.decode_entry(pos, key, &bytes).map(Some)
    }

    /// Submit one coalesced scatter for every key of the batch this table
    /// admits (bloom + index reject the rest without I/O) and return a handle
    /// to finish the pass with. On a device that completes submissions later
    /// the scatter's merged reads overlap each other while the caller works —
    /// [`crate::store::LsmStore`] uses the window to finish the *previous*
    /// table pass's bookkeeping, pipelining the passes.
    pub fn submit_get_many(&self, keys: Vec<u64>) -> PendingTableGets<'_> {
        let mut out: Vec<Option<StorageResult<Option<Entry>>>> =
            keys.iter().map(|_| None).collect();
        let mut slots: Vec<(usize, usize)> = Vec::new(); // (input slot, index pos)
        let mut reqs: Vec<ReadReq> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            match self.probe(key) {
                Some(pos) => {
                    slots.push((i, pos));
                    reqs.push(ReadReq::new(self.index[pos].1, self.entry_len(pos)));
                }
                None => out[i] = Some(Ok(None)),
            }
        }
        let pending = self.planner.submit(self.device.as_ref(), reqs);
        PendingTableGets {
            table: self,
            keys,
            slots,
            out,
            pending,
        }
    }

    /// Batched point lookups: one coalesced scatter fetches every key of the
    /// batch this table admits. Result slots mirror [`SsTable::get`].
    pub fn get_many(
        &self,
        keys: &[u64],
        metrics: &StorageMetrics,
    ) -> Vec<StorageResult<Option<Entry>>> {
        self.submit_get_many(keys.to_vec()).wait(metrics)
    }

    /// Read every entry in key order (used by compaction).
    pub fn scan_all(&self, metrics: &StorageMetrics) -> StorageResult<Vec<(u64, Entry)>> {
        let mut data = vec![0u8; self.data_len as usize];
        if self.data_len > 0 {
            self.device.read_at(0, &mut data)?;
            metrics.record_background_disk_read(self.data_len);
        }
        let mut out = Vec::with_capacity(self.index.len());
        let mut pos = 0usize;
        while pos + 13 <= data.len() {
            let key = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
            let tombstone = data[pos + 8] == 1;
            let vlen = u32::from_le_bytes(data[pos + 9..pos + 13].try_into().unwrap()) as usize;
            pos += 13;
            if tombstone {
                out.push((key, None));
            } else {
                out.push((key, Some(data[pos..pos + vlen].to_vec())));
                pos += vlen;
            }
        }
        Ok(out)
    }
}

/// One table pass's coalesced scatter in flight ([`SsTable::submit_get_many`]).
pub struct PendingTableGets<'a> {
    table: &'a SsTable,
    /// Probed keys (taken by value — each pass builds its own probe list).
    keys: Vec<u64>,
    /// `(input slot, index position)` of every admitted key.
    slots: Vec<(usize, usize)>,
    /// Per-slot results; bloom/index rejects resolve at submit time.
    out: Vec<Option<StorageResult<Option<Entry>>>>,
    pending: PendingRead,
}

impl PendingTableGets<'_> {
    /// Finish the pass: park on the scatter, then decode every admitted
    /// key's entry. A failed merged read falls back to per-key point gets so
    /// each slot surfaces its own result.
    pub fn wait(self, metrics: &StorageMetrics) -> Vec<StorageResult<Option<Entry>>> {
        let Self {
            table,
            keys,
            slots,
            mut out,
            pending,
        } = self;
        match pending.wait() {
            Err(_) => {
                for &(i, _) in &slots {
                    out[i] = Some(table.get(keys[i], metrics));
                }
            }
            Ok(reqs) => {
                for ((i, pos), req) in slots.into_iter().zip(&reqs) {
                    metrics.record_background_disk_read(req.buf.len() as u64);
                    out[i] = Some(table.decode_entry(pos, keys[i], &req.buf).map(Some));
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

    fn build_table(entries: &[(u64, Entry)]) -> SsTable {
        let device = Arc::new(MemDevice::new());
        let metrics = StorageMetrics::new();
        SsTable::build(device, IoPlanner::default(), entries, 1, &metrics).unwrap()
    }

    #[test]
    fn build_and_get_roundtrip() {
        let entries: Vec<(u64, Entry)> = (0..100u64)
            .map(|k| (k * 2, Some(vec![k as u8; 16])))
            .collect();
        let table = build_table(&entries);
        let metrics = StorageMetrics::new();
        assert_eq!(table.len(), 100);
        assert_eq!(table.key_range(), Some((0, 198)));
        assert_eq!(table.get(10, &metrics).unwrap(), Some(Some(vec![5u8; 16])));
        // Key absent (odd keys were never inserted).
        assert_eq!(table.get(11, &metrics).unwrap(), None);
    }

    #[test]
    fn tombstones_are_preserved() {
        let entries: Vec<(u64, Entry)> = vec![(1, Some(vec![1])), (2, None), (3, Some(vec![3]))];
        let table = build_table(&entries);
        let metrics = StorageMetrics::new();
        assert_eq!(table.get(2, &metrics).unwrap(), Some(None));
        assert_eq!(table.get(1, &metrics).unwrap(), Some(Some(vec![1])));
    }

    #[test]
    fn contains_distinguishes_live_tombstoned_and_absent() {
        let entries: Vec<(u64, Entry)> = vec![(1, Some(vec![1])), (2, None)];
        let table = build_table(&entries);
        let metrics = StorageMetrics::new();
        assert_eq!(table.contains(1, &metrics).unwrap(), Some(true));
        assert_eq!(table.contains(2, &metrics).unwrap(), Some(false));
        assert_eq!(table.contains(3, &metrics).unwrap(), None);
    }

    #[test]
    fn open_reads_back_a_built_table() {
        let device = Arc::new(MemDevice::new());
        let metrics = StorageMetrics::new();
        let entries: Vec<(u64, Entry)> = (0..50u64).map(|k| (k, Some(vec![k as u8]))).collect();
        SsTable::build(
            Arc::clone(&device) as Arc<dyn Device>,
            IoPlanner::default(),
            &entries,
            7,
            &metrics,
        )
        .unwrap();
        let reopened = SsTable::open(device, IoPlanner::default(), 7).unwrap();
        assert_eq!(reopened.len(), 50);
        assert_eq!(reopened.get(49, &metrics).unwrap(), Some(Some(vec![49])));
        assert_eq!(reopened.seq, 7);
    }

    #[test]
    fn open_rejects_garbage() {
        let device = Arc::new(MemDevice::new());
        device.append(b"not an sstable").unwrap();
        assert!(SsTable::open(device, IoPlanner::default(), 0).is_err());
        let empty = Arc::new(MemDevice::new());
        assert!(SsTable::open(empty, IoPlanner::default(), 0).is_err());
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let entries: Vec<(u64, Entry)> = vec![(1, Some(vec![9; 3])), (5, None), (9, Some(vec![]))];
        let table = build_table(&entries);
        let metrics = StorageMetrics::new();
        assert_eq!(table.scan_all(&metrics).unwrap(), entries);
    }

    #[test]
    fn get_many_matches_get_and_counts_exact_bytes() {
        let entries: Vec<(u64, Entry)> = (0..100u64)
            .map(|k| {
                if k % 7 == 0 {
                    (k * 2, None)
                } else {
                    (k * 2, Some(vec![k as u8; (k % 31) as usize]))
                }
            })
            .collect();
        let table = build_table(&entries);
        // Mixed probe set: present keys, tombstones, absences, duplicates.
        let probes: Vec<u64> = vec![0, 198, 7, 4, 4, 14, 1_000];
        let per_key = StorageMetrics::new();
        let batched = StorageMetrics::new();
        let want: Vec<_> = probes.iter().map(|&k| table.get(k, &per_key)).collect();
        let got = table.get_many(&probes, &batched);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.as_ref().unwrap(), g.as_ref().unwrap());
        }
        // Bytes accounted identically: one entry-sized read per admitted key.
        assert_eq!(
            per_key.snapshot().disk_read_bytes,
            batched.snapshot().disk_read_bytes
        );
        assert_eq!(per_key.snapshot().disk_reads, batched.snapshot().disk_reads);
    }

    #[test]
    fn empty_table_behaves() {
        let table = build_table(&[]);
        let metrics = StorageMetrics::new();
        assert!(table.is_empty());
        assert_eq!(table.key_range(), None);
        assert_eq!(table.get(1, &metrics).unwrap(), None);
        assert!(table.scan_all(&metrics).unwrap().is_empty());
    }
}
