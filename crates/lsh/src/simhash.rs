//! SimHash: random-hyperplane signatures (Charikar 2002).
//!
//! Each signature bit is the sign of the dot product with a random Gaussian
//! hyperplane. For two vectors at angle `θ`, each bit differs with
//! probability `θ/π`, so the Hamming distance estimates the angle and hence
//! the cosine similarity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A packed bit signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    bits: Vec<u64>,
    len: usize,
}

impl Signature {
    /// Number of bits in the signature.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the signature has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of bit `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Hamming distance to another signature of the same length.
    pub fn hamming(&self, other: &Signature) -> u32 {
        debug_assert_eq!(self.len, other.len);
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Extracts bits `[start, start+count)` as a `u64` key (count ≤ 64),
    /// used by the banded index.
    pub fn band_key(&self, start: usize, count: usize) -> u64 {
        debug_assert!(count <= 64 && start + count <= self.len);
        let mut key = 0u64;
        for k in 0..count {
            if self.bit(start + k) {
                key |= 1 << k;
            }
        }
        key
    }
}

/// A set of random hyperplanes producing fixed-width signatures.
#[derive(Debug, Clone)]
pub struct SimHasher {
    /// `bits × dim` hyperplane normals, row-major.
    planes: Vec<f32>,
    dim: usize,
    bits: usize,
}

impl SimHasher {
    /// Samples `bits` random Gaussian hyperplanes in `dim` dimensions.
    pub fn new(dim: usize, bits: usize, seed: u64) -> Self {
        assert!(dim > 0 && bits > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let planes = (0..bits * dim).map(|_| gaussian(&mut rng)).collect();
        SimHasher { planes, dim, bits }
    }

    /// Number of signature bits produced.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Signs a vector (must have the hasher's dimensionality).
    pub fn sign(&self, v: &[f32]) -> Signature {
        assert_eq!(v.len(), self.dim, "vector dimensionality mismatch");
        let words = self.bits.div_ceil(64);
        let mut bits = vec![0u64; words];
        for b in 0..self.bits {
            let row = &self.planes[b * self.dim..(b + 1) * self.dim];
            let dot: f32 = row.iter().zip(v).map(|(p, x)| p * x).sum();
            if dot >= 0.0 {
                bits[b / 64] |= 1 << (b % 64);
            }
        }
        Signature {
            bits,
            len: self.bits,
        }
    }

    /// Signs a batch of vectors, fanning the independent per-vector work
    /// across the process-wide worker count.
    ///
    /// `out[i] == self.sign(vectors[i].as_ref())` exactly: signing reads
    /// only the shared hyperplanes, so the result is bit-identical to the
    /// serial loop regardless of thread count.
    pub fn sign_batch<V: AsRef<[f32]> + Sync>(&self, vectors: &[V]) -> Vec<Signature> {
        par_exec::par_map_slice(vectors, |v| self.sign(v.as_ref()))
    }

    /// Estimates cosine similarity from the Hamming distance of two
    /// signatures: `cos(π · h / bits)`.
    pub fn estimate_cosine(&self, a: &Signature, b: &Signature) -> f64 {
        let h = a.hamming(b) as f64;
        (std::f64::consts::PI * h / self.bits as f64).cos()
    }
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            return z as f32; // phocus-lint: allow(cast-bounds) — standard normal, |z| ≪ f32::MAX; precision-only
        }
    }
}

/// Exact cosine similarity of two vectors (0 for zero-norm inputs).
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_identical_signatures() {
        let h = SimHasher::new(8, 64, 1);
        let v = vec![0.3f32, -0.1, 0.8, 0.0, 0.5, -0.9, 0.2, 0.7];
        assert_eq!(h.sign(&v), h.sign(&v));
        assert_eq!(h.sign(&v).hamming(&h.sign(&v)), 0);
    }

    #[test]
    fn opposite_vectors_disagree_everywhere() {
        let h = SimHasher::new(4, 128, 2);
        let v = vec![1.0f32, 2.0, -1.0, 0.5];
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let d = h.sign(&v).hamming(&h.sign(&neg));
        // Every hyperplane separates v from −v (dot products flip sign);
        // ties at exactly 0 are measure-zero.
        assert!(d as usize >= 126, "distance {d}");
    }

    #[test]
    fn hamming_estimates_angle() {
        let h = SimHasher::new(2, 2048, 3);
        // 60° apart → cosine 0.5, expected Hamming ≈ bits/3.
        let a = vec![1.0f32, 0.0];
        let b = vec![0.5f32, 3.0f32.sqrt() / 2.0];
        let est = h.estimate_cosine(&h.sign(&a), &h.sign(&b));
        assert!((est - 0.5).abs() < 0.08, "estimate {est}");
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn band_key_extracts_bits() {
        let h = SimHasher::new(8, 96, 4);
        let v = vec![0.1f32, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8];
        let s = h.sign(&v);
        // Reconstruct a key manually and compare.
        let start = 60;
        let count = 16;
        let key = s.band_key(start, count);
        for k in 0..count {
            assert_eq!(key >> k & 1 == 1, s.bit(start + k));
        }
    }

    #[test]
    fn signatures_are_seed_deterministic() {
        let v = vec![0.4f32, 0.1, -0.3];
        let a = SimHasher::new(3, 32, 9).sign(&v);
        let b = SimHasher::new(3, 32, 9).sign(&v);
        let c = SimHasher::new(3, 32, 10).sign(&v);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed should give a different signature");
    }
}
