//! On-log record format.
//!
//! Each record is stored contiguously inside one log page:
//!
//! ```text
//! +----------------+----------+-----------+---------+----------------+
//! | prev_address 8 |  key  8  | value_len | flags 4 |  value bytes   |
//! +----------------+----------+-----------+---------+----------------+
//! ```
//!
//! `prev_address` links records that map to the same hash-index bucket, forming
//! the per-bucket chain FASTER traverses on reads. `flags` marks tombstones.

use mlkv_storage::{StorageError, StorageResult};

use crate::address::Address;

/// Record flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFlags(pub u32);

impl RecordFlags {
    /// Bit marking a deleted record.
    const TOMBSTONE_BIT: u32 = 1;
    /// Bit present on every real record; its absence identifies page padding
    /// (zero-filled page tails) during log scans.
    const VALID_BIT: u32 = 2;

    /// A live record.
    pub const NONE: RecordFlags = RecordFlags(Self::VALID_BIT);
    /// A tombstone record (key deleted).
    pub const TOMBSTONE: RecordFlags = RecordFlags(Self::VALID_BIT | Self::TOMBSTONE_BIT);

    /// True when the tombstone bit is set.
    pub fn is_tombstone(&self) -> bool {
        self.0 & Self::TOMBSTONE_BIT != 0
    }

    /// True when this header belongs to a real record (not padding).
    pub fn is_valid(&self) -> bool {
        self.0 & Self::VALID_BIT != 0
    }
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Address of the previous record in the same hash-bucket chain.
    pub prev: Address,
    /// The record's key.
    pub key: u64,
    /// Flags (tombstone).
    pub flags: RecordFlags,
    /// The value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

impl Record {
    /// Size of the fixed header preceding the value bytes.
    pub const HEADER_LEN: usize = 8 + 8 + 4 + 4;

    /// Create a live record.
    pub fn new(key: u64, value: Vec<u8>, prev: Address) -> Self {
        Self {
            prev,
            key,
            flags: RecordFlags::NONE,
            value,
        }
    }

    /// Create a tombstone record for `key`.
    pub fn tombstone(key: u64, prev: Address) -> Self {
        Self {
            prev,
            key,
            flags: RecordFlags::TOMBSTONE,
            value: Vec::new(),
        }
    }

    /// Total serialized length of this record.
    pub fn serialized_len(&self) -> usize {
        Self::HEADER_LEN + self.value.len()
    }

    /// Serialized length for a value of `value_len` bytes.
    pub fn len_for_value(value_len: usize) -> usize {
        Self::HEADER_LEN + value_len
    }

    /// Serialize into `out` (appending).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.prev.raw().to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.flags.0.to_le_bytes());
        out.extend_from_slice(&self.value);
    }

    /// Serialize into a new buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode the fixed header from `bytes`, returning `(prev, key, value_len,
    /// flags)`.
    pub fn decode_header(bytes: &[u8]) -> StorageResult<(Address, u64, usize, RecordFlags)> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(StorageError::Corruption(format!(
                "record header truncated: {} < {}",
                bytes.len(),
                Self::HEADER_LEN
            )));
        }
        let prev = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let value_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let flags = RecordFlags(u32::from_le_bytes(bytes[20..24].try_into().unwrap()));
        Ok((Address::new(prev), key, value_len, flags))
    }

    /// Decode a whole record from `bytes` (which must contain at least the full
    /// record).
    pub fn decode(bytes: &[u8]) -> StorageResult<Record> {
        RecordRef::decode(bytes).map(RecordRef::to_record)
    }

    /// True when this record marks a deletion.
    pub fn is_tombstone(&self) -> bool {
        self.flags.is_tombstone()
    }

    /// Borrow this record as a [`RecordRef`].
    pub fn view(&self) -> RecordRef<'_> {
        RecordRef {
            prev: self.prev,
            key: self.key,
            flags: self.flags,
            value: &self.value,
        }
    }
}

/// A record decoded in place: the header fields, and the value still in the
/// buffer it was read from (a page frame, or a device read's buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Address of the previous record in the same hash-bucket chain.
    pub prev: Address,
    /// The record's key.
    pub key: u64,
    /// Flags (tombstone).
    pub flags: RecordFlags,
    /// The value bytes (empty for tombstones).
    pub value: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// Decode a whole record from `bytes` (which must contain at least the
    /// full record) without copying its value.
    pub fn decode(bytes: &'a [u8]) -> StorageResult<Self> {
        let (prev, key, value_len, flags) = Record::decode_header(bytes)?;
        let value = bytes
            .get(Record::HEADER_LEN..Record::HEADER_LEN + value_len)
            .ok_or_else(|| {
                StorageError::Corruption(format!(
                    "record value truncated: {} < {}",
                    bytes.len(),
                    Record::HEADER_LEN + value_len
                ))
            })?;
        Ok(Self {
            prev,
            key,
            flags,
            value,
        })
    }

    /// Copy the value out into an owned [`Record`].
    pub fn to_record(self) -> Record {
        Record {
            prev: self.prev,
            key: self.key,
            flags: self.flags,
            value: self.value.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let rec = Record::new(42, vec![1, 2, 3, 4, 5], Address::new(777));
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.serialized_len());
        let decoded = Record::decode(&bytes).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn a_borrowed_decode_matches_the_owned_one() {
        let rec = Record::new(42, vec![1, 2, 3], Address::new(777));
        let bytes = rec.encode();
        let view = RecordRef::decode(&bytes).unwrap();
        assert_eq!(view, rec.view());
        assert_eq!(view.value, &bytes[Record::HEADER_LEN..]);
        assert_eq!(view.to_record(), rec);
    }

    #[test]
    fn tombstone_roundtrip() {
        let rec = Record::tombstone(9, Address::INVALID);
        assert!(rec.is_tombstone());
        let decoded = Record::decode(&rec.encode()).unwrap();
        assert!(decoded.is_tombstone());
        assert!(decoded.value.is_empty());
        assert!(decoded.prev.is_invalid());
    }

    #[test]
    fn header_decode_matches_full_decode() {
        let rec = Record::new(1, vec![9; 100], Address::new(64));
        let bytes = rec.encode();
        let (prev, key, value_len, flags) = Record::decode_header(&bytes).unwrap();
        assert_eq!(prev, Address::new(64));
        assert_eq!(key, 1);
        assert_eq!(value_len, 100);
        assert!(!flags.is_tombstone());
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let rec = Record::new(1, vec![7; 10], Address::INVALID);
        let bytes = rec.encode();
        assert!(Record::decode(&bytes[..10]).is_err());
        assert!(Record::decode(&bytes[..Record::HEADER_LEN + 5]).is_err());
        assert!(Record::decode_header(&bytes[..8]).is_err());
    }

    #[test]
    fn zeroed_bytes_are_not_a_valid_record() {
        let zeros = vec![0u8; Record::HEADER_LEN];
        let (_, _, _, flags) = Record::decode_header(&zeros).unwrap();
        assert!(!flags.is_valid());
        let live = Record::new(0, Vec::new(), Address::INVALID);
        let (_, _, _, flags) = Record::decode_header(&live.encode()).unwrap();
        assert!(flags.is_valid());
    }

    #[test]
    fn len_for_value_matches_serialized_len() {
        let rec = Record::new(3, vec![0; 33], Address::INVALID);
        assert_eq!(Record::len_for_value(33), rec.serialized_len());
    }
}
