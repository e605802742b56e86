//! SplitMix64 — the workspace's deterministic, dependency-free PRNG.
//!
//! Used wherever reproducible pseudo-random data is needed (galeri's
//! random matrices/vectors, property-style tests) so the default build
//! carries no external `rand` dependency. Output for a given seed is
//! stable across platforms and releases; tests may bake in expectations.

/// The golden-ratio increment the state advances by per output.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output for state `z`, as a pure function:
/// `SplitMix64::new(z).next_u64()`. For stateless hashing of a seed or an
/// index (seeded fills, fault schedules).
#[inline]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 state. Passes BigCrush; a 64-bit counter mixed through two
/// multiply-xorshift rounds (Steele, Lea & Flood, OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`. Uses the
    /// widening-multiply trick (Lemire) — bias is < 2^-64, negligible for
    /// test-data generation.
    #[inline]
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index: empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_sequence_is_stable() {
        // Reference values from the canonical splitmix64 implementation,
        // seed 1234567.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn the_mixer_keeps_its_outputs() {
        // Pinned from the copies `odin`'s seeded fill and `comm`'s fault
        // plane carried before they called this one: their data and
        // schedules must not move.
        let pins = [
            (0, 16294208416658607535),
            (1, 10451216379200822465),
            (42, 13679457532755275413),
            (0x7ace, 464724358674621282),
            (u64::MAX, 16490336266968443936),
        ];
        for (z, want) in pins {
            assert_eq!(mix64(z), want, "mix64({z})");
            assert_eq!(SplitMix64::new(z).next_u64(), want, "state {z}");
        }
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            let w = rng.gen_range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&w));
        }
    }

    #[test]
    fn index_ranges_cover_and_respect_bounds() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let i = rng.gen_index(10);
            assert!(i < 10);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices should appear");
    }
}
