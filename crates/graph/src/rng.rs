//! A small deterministic PRNG.
//!
//! Every randomised artifact in the repository (edge-cost variance, the
//! synthetic Minneapolis map, random query pairs, property-test inputs that
//! need graph-side randomness) flows through [`SplitMix64`], so a seed fully
//! determines an experiment. We deliberately avoid depending on `rand` in
//! library code; `rand` is used only in dev-dependencies where convenient.

/// The SplitMix64 output function: `x` advanced by the golden-ratio
/// increment, then finalised. Also the workspace's one stateless mixer —
/// fault-injection decision streams, relation tie-break hashes and the
/// chaos harness all hash through it.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 (Steele, Lea, Flood 2014): a tiny, high-quality, seedable
/// 64-bit generator. Not cryptographic; exactly what a benchmark generator
/// needs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform `f64` in `[0, 1)`, using the top 53 bits.
    ///
    /// This is the `U[0,1]` of the paper's 20%-variance cost model
    /// (`1 + 0.2 * U[0,1]`, Section 5.1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire-style rejection-free
    /// multiply-shift (bias is negligible for the bounds used here, all far
    /// below 2^32).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Forks an independent child stream; used so sub-generators (e.g. the
    /// Minneapolis jitter vs. its occupancy assignment) don't perturb each
    /// other when one of them draws a different number of values.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0xA076_1D64_78BD_642F)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(1993);
        let mut b = SplitMix64::new(1993);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v} out of [0,1)");
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = SplitMix64::new(42);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(rng.next_below(13) < 13);
        }
    }

    #[test]
    fn next_below_covers_all_residues() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = SplitMix64::new(5);
        let mut child = parent.fork();
        let a = parent.next_u64();
        let b = child.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = rng.next_range(1.0, 1.2);
            assert!((1.0..1.2).contains(&v));
        }
    }
}
