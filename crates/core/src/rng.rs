//! Seedable randomness utilities.
//!
//! Every stochastic component in this workspace is driven by an explicit
//! 64-bit seed. A single user-supplied seed is expanded into independent
//! per-component streams with [`SplitMix64`], following the recommendation in
//! Steele et al., "Fast Splittable Pseudorandom Number Generators" (OOPSLA
//! 2014). This keeps runs bit-reproducible while avoiding accidental stream
//! correlation between, say, the operator ensemble and the delay sampler.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny splittable generator used only to derive seeds for other RNGs.
///
/// SplitMix64 passes BigCrush and is the canonical seed-expansion function
/// for xoshiro-family generators. We use it purely for seed derivation; the
/// actual sampling RNG is [`StdRng`] (ChaCha12), which is cryptographically
/// strong and identical across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a seed-splitter from a user seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value in the stream.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives an independent [`StdRng`] for a named component.
    ///
    /// The component tag is folded into the stream so two components split
    /// from the same parent seed never collide even if split in a different
    /// order between versions.
    pub fn derive(&mut self, tag: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in tag.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            let v = self.next_u64() ^ h;
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        StdRng::from_seed(seed)
    }

    /// Derives a raw 64-bit sub-seed (for components that own their RNG).
    pub fn derive_seed(&mut self, tag: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.next_u64() ^ h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values for seed 0 from the public-domain C implementation
        // by Sebastiano Vigna.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn derived_streams_differ_by_tag() {
        let mut s1 = SplitMix64::new(7);
        let mut s2 = SplitMix64::new(7);
        let mut a = s1.derive("operators");
        let mut b = s2.derive("delays");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_same_tag_same_seed_agree() {
        let mut s1 = SplitMix64::new(7);
        let mut s2 = SplitMix64::new(7);
        let mut a = s1.derive("operators");
        let mut b = s2.derive("operators");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }
}
