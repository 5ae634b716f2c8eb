//! Encoding of embedding vectors as key-value store values.
//!
//! Embedding vectors are fixed-dimension `f32` slices; they are stored as
//! little-endian byte strings of length `4 * dim`.

use mlkv_storage::{StorageError, StorageResult};

/// Encode an `f32` vector into its byte representation.
pub fn encode_vector(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a byte string produced by [`encode_vector`], checking that it matches
/// the expected dimension.
pub fn decode_vector(bytes: &[u8], dim: usize) -> StorageResult<Vec<f32>> {
    let mut out = vec![0.0; dim];
    decode_vector_into(bytes, &mut out)?;
    Ok(out)
}

/// Decode a byte string produced by [`encode_vector`] into `out`, checking
/// that it holds exactly `out.len()` values; `out` is untouched on error.
pub fn decode_vector_into(bytes: &[u8], out: &mut [f32]) -> StorageResult<()> {
    if bytes.len() != out.len() * 4 {
        return Err(StorageError::Corruption(format!(
            "embedding value has {} bytes, expected {} (dim {})",
            bytes.len(),
            out.len() * 4,
            out.len()
        )));
    }
    for (x, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *x = f32::from_le_bytes(c.try_into().expect("chunk of 4"));
    }
    Ok(())
}

/// Deterministically initialise an embedding vector for `key`: uniform values in
/// `[-scale, scale)` derived from a per-key splitmix64 stream. Every worker that
/// races to initialise the same key produces identical bytes, so initialisation
/// requires no coordination.
pub fn init_vector(key: u64, dim: usize, scale: f32, seed: u64) -> Vec<f32> {
    let mut state = key ^ seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..dim)
        .map(|_| {
            let r = (next() >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
            (r * 2.0 - 1.0) * scale
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let v = vec![1.0f32, -2.5, 0.0, f32::MAX, f32::MIN_POSITIVE];
        let bytes = encode_vector(&v);
        assert_eq!(bytes.len(), 20);
        assert_eq!(decode_vector(&bytes, 5).unwrap(), v);
    }

    #[test]
    fn decode_rejects_wrong_dimension() {
        let bytes = encode_vector(&[1.0, 2.0]);
        assert!(decode_vector(&bytes, 3).is_err());
        assert!(decode_vector(&bytes[..7], 2).is_err());
        let mut row = [9.0f32; 3];
        assert!(decode_vector_into(&bytes, &mut row).is_err());
        assert_eq!(row, [9.0; 3], "a failed decode leaves the row alone");
        decode_vector_into(&bytes, &mut row[..2]).unwrap();
        assert_eq!(row, [1.0, 2.0, 9.0]);
    }

    #[test]
    fn init_is_deterministic_and_bounded() {
        let a = init_vector(42, 16, 0.1, 7);
        let b = init_vector(42, 16, 0.1, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|x| x.abs() <= 0.1));
        // Different key or seed changes the vector.
        assert_ne!(init_vector(43, 16, 0.1, 7), a);
        assert_ne!(init_vector(42, 16, 0.1, 8), a);
        // Not all elements identical.
        assert!(a.iter().any(|x| (x - a[0]).abs() > 1e-9));
    }

    #[test]
    fn empty_vector_roundtrip() {
        assert_eq!(encode_vector(&[]), Vec::<u8>::new());
        assert_eq!(decode_vector(&[], 0).unwrap(), Vec::<f32>::new());
    }
}
