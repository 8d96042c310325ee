//! Seeded input randomness: the same `--seed` gives the same inputs on
//! every host, independent of any library's generator.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast, passes BigCrush.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Decorrelate the per-purpose streams of one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2⁻⁴⁰ for the
    /// small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of one rank.
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// Due times (ns from schedule start) of a Poisson process at
/// `rate_per_s`, covering `[0, seconds)`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate_per_s * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(42, 1);
        let b: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(a, b);
        let mut other = Rng::new(42, 2);
        assert_ne!(a[0], other.next_u64(), "streams of one seed differ");
        let mut reseeded = Rng::new(43, 1);
        assert_ne!(a[0], reseeded.next_u64());
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = Rng::new(7, 0);
        let mut seen = [false; 9];
        for _ in 0..2000 {
            let v = r.range(4, 12);
            assert!((4..=12).contains(&v));
            seen[(v - 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_mass_matches_harmonic_weights() {
        let z = Zipf::new(2048, 1.0);
        let h: f64 = (1..=2048).map(|k| 1.0 / k as f64).sum();
        assert!((z.mass(0) - 1.0 / h).abs() < 1e-12);
        assert!((z.mass(9) - 0.1 / h).abs() < 1e-12);
        let total: f64 = (0..2048).map(|k| z.mass(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Sampled head mass lands near the analytic one.
        let mut r = Rng::new(1, 0);
        let n = 200_000;
        let head = (0..n).filter(|_| z.sample(&mut r) == 0).count() as f64 / n as f64;
        assert!((head - z.mass(0)).abs() < 0.005, "head mass {head}");
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_rate() {
        let a = poisson_schedule(&mut Rng::new(5, 3), 1500.0, 10.0);
        let b = poisson_schedule(&mut Rng::new(5, 3), 1500.0, 10.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 10_000_000_000);
        let n = a.len() as f64;
        assert!((n - 15_000.0).abs() < 4.0 * 15_000f64.sqrt(), "count {n}");
    }
}
