//! Inputs and the shadow table.
//!
//! Everything the program under test receives — keys, gradients, initial
//! rows — is a pure function of `(seed, position)`, so the shadow table can
//! replay a run after the fact without having recorded it. The generator is
//! the benchmark's own (not `mlkv_workloads`), so a change to the product
//! cannot change the inputs it is measured on.

/// Keys in the table.
pub const KEY_SPACE: u64 = 200_000;
/// Embedding dimension.
pub const DIM: usize = 16;
/// Bytes of one encoded row.
pub const VALUE_BYTES: u64 = (DIM * 4) as u64;
/// Zipf exponent of key popularity.
pub const ZIPF_THETA: f64 = 0.9;
/// Learning rate of every update.
pub const LR: f32 = 0.05;

/// SplitMix64 step: the benchmark's only source of pseudo-randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a position into a stream seed.
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(a) ^ b) ^ c)
}

/// Uniform f64 in `[0, 1)` from a hash.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(θ) ranks over [`KEY_SPACE`], scrambled so popular keys are spread
/// over the key space (and so over the device) instead of sitting together.
pub struct KeySampler {
    /// `cdf[r]` = probability that a draw has rank ≤ r.
    cdf: Vec<f64>,
    /// Per-seed rotation of the rank → key map.
    offset: u64,
}

/// Multiplier of the rank → key map; coprime to [`KEY_SPACE`], so the map is
/// a permutation.
const SCRAMBLE: u64 = 104_729;

impl KeySampler {
    pub fn new(seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(KEY_SPACE as usize);
        let mut sum = 0.0;
        for rank in 1..=KEY_SPACE {
            sum += 1.0 / (rank as f64).powf(ZIPF_THETA);
            cdf.push(sum);
        }
        for p in &mut cdf {
            *p /= sum;
        }
        Self {
            cdf,
            offset: mix(seed) % KEY_SPACE,
        }
    }

    /// The key drawn by hash `h`.
    pub fn key(&self, h: u64) -> u64 {
        let u = unit(h);
        let rank = self.cdf.partition_point(|&p| p <= u) as u64;
        (rank.min(KEY_SPACE - 1) * SCRAMBLE + self.offset) % KEY_SPACE
    }

    /// `n` keys of stream `stream` (duplicates as drawn).
    pub fn keys(&self, stream: u64, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| self.key(mix(stream ^ mix(i))))
            .collect()
    }
}

/// The row every key is populated with before a run.
pub fn initial_row(key: u64) -> Vec<f32> {
    (0..DIM as u64)
        .map(|d| (unit(mix3(0x1417, key, d)) as f32 - 0.5) * 0.1)
        .collect()
}

/// The gradient position `(seed, step)` applies to `key`.
pub fn gradient(seed: u64, step: u64, key: u64) -> Vec<f32> {
    let stream = mix3(seed, step, key);
    (0..DIM as u64)
        .map(|d| (unit(mix(stream ^ d)) as f32 - 0.5) * 0.02)
        .collect()
}

/// Sorted, de-duplicated copy of `keys`: what one step updates (one gradient
/// per unique key, as the trainers do).
pub fn unique(keys: &[u64]) -> Vec<u64> {
    let mut out = keys.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// What the table must hold after a run: every row, plus which were touched.
pub struct Shadow {
    rows: Vec<f32>,
    touched: Vec<bool>,
}

impl Shadow {
    /// The populated table before any update.
    pub fn populated() -> Self {
        let mut rows = Vec::with_capacity(KEY_SPACE as usize * DIM);
        for key in 0..KEY_SPACE {
            rows.extend(initial_row(key));
        }
        Self {
            rows,
            touched: vec![false; KEY_SPACE as usize],
        }
    }

    /// Note that `key` was read or written by the run.
    pub fn touch(&mut self, key: u64) {
        self.touched[key as usize] = true;
    }

    /// Apply one SGD update with the arithmetic `apply_gradients` uses.
    pub fn apply(&mut self, key: u64, grad: &[f32]) {
        self.touch(key);
        let row = &mut self.rows[key as usize * DIM..(key as usize + 1) * DIM];
        for (v, g) in row.iter_mut().zip(grad) {
            *v -= LR * g;
        }
    }

    pub fn touched_keys(&self) -> Vec<u64> {
        (0..KEY_SPACE)
            .filter(|&k| self.touched[k as usize])
            .collect()
    }

    /// Rows of `keys` that differ from `got`, compared bit for bit.
    pub fn mismatches(&self, keys: &[u64], got: &[Vec<f32>]) -> u64 {
        keys.iter()
            .zip(got)
            .filter(|(&key, row)| {
                let want = &self.rows[key as usize * DIM..(key as usize + 1) * DIM];
                row.len() != DIM
                    || want
                        .iter()
                        .zip(row.iter())
                        .any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .count() as u64
    }
}
