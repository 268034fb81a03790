//! The harness's own seeded generator (SplitMix64), so workload inputs do not
//! shift if the program's `rand` dependency ever does.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `label` under the run's `seed`; distinct labels give
    /// uncorrelated streams.
    pub fn new(seed: u64, label: u64) -> Self {
        let mut mixed = Self(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        mixed.next_u64();
        mixed
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform on `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the small
    /// `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One hash of `(seed, a, b)`: a stateless draw for "request `b` of phase `a`".
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    SplitMix64::new(seed ^ a.rotate_left(32), b).next_u64()
}
