//! Seeded randomness, the open-loop arrival schedule, and order
//! statistics.

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Stream ids for `derive`: each kind of draw has its own stream, so
// changing one never shifts another.
pub const STREAM_SCHEDULE: u64 = 0;
pub const STREAM_REQ: u64 = 1;
pub const STREAM_HOT: u64 = 2;
pub const STREAM_MIX: u64 = 3;
pub const STREAM_GATE: u64 = 4;

/// A seed for element `index` of stream `stream` under the run seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream.wrapping_add(0x5EED))).wrapping_add(index))
}

/// A solver seed the server's JSON layer carries exactly (it reads
/// numbers as `f64`, so seeds stay far below 2^53).
pub fn solver_seed(seed: u64, stream: u64, index: u64) -> u64 {
    derive(seed, stream, index) >> 32
}

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Due times, in seconds from the window start, of a Poisson process of
/// `rate` arrivals per second over `seconds`, conditioned on its count:
/// exactly `round(rate × seconds)` arrivals, placed as sorted uniform
/// draws. Conditioning keeps the offered load identical across seeds
/// while the gaps stay exponential-like and bursty.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut rng = Rng::new(seed);
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Percentile `q ∈ [0, 1]` of ascending `sorted` samples, interpolating
/// linearly between closest ranks; 0 for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them, so the compare mode agrees with external checks of the same
/// numbers. Fewer than two values: all three are the value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_due_times() {
        let a = poisson_schedule(42, 20.0, 20.0);
        assert_eq!(a, poisson_schedule(42, 20.0, 20.0));
        assert_ne!(a, poisson_schedule(43, 20.0, 20.0));
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
    }

    #[test]
    fn schedule_gaps_look_exponential() {
        // Mean gap 1/rate; for exponential gaps the standard deviation
        // equals the mean (a fixed-rate schedule would have none).
        let due = poisson_schedule(7, 50.0, 200.0);
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.02).abs() < 0.001, "{mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "{}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.1), 1.4);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[9.0], 0.99), 9.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn solver_seeds_fit_the_servers_number_type() {
        for i in 0..1000 {
            assert!(solver_seed(u64::MAX, 3, i) < 1 << 32);
        }
    }
}
