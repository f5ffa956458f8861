//! Random-sampling helpers built on a caller-supplied [`rand::Rng`].
//!
//! The crate deliberately owns its normal sampler (Box–Muller) instead of
//! depending on `rand_distr`; the whole `simpadv` stack only needs uniform
//! and normal draws plus Fisher–Yates shuffles.

use rand::{Rng, RngExt};

/// A Box–Muller normal sampler that caches the spare variate.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use simpadv_tensor::NormalSampler;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut sampler = NormalSampler::new(0.0, 1.0);
/// let x = sampler.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct NormalSampler {
    mean: f32,
    std_dev: f32,
    spare: Option<f32>,
}

impl NormalSampler {
    /// Creates a sampler for `N(mean, std_dev²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn new(mean: f32, std_dev: f32) -> Self {
        assert!(std_dev >= 0.0 && std_dev.is_finite(), "invalid std_dev {std_dev}");
        NormalSampler { mean, std_dev, spare: None }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f32 {
        let unit = if let Some(s) = self.spare.take() {
            s
        } else {
            // Box–Muller on (0, 1] uniforms; 1 - u keeps u1 away from 0.
            let u1: f32 = 1.0 - rng.random::<f32>();
            let u2: f32 = rng.random::<f32>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        };
        self.mean + self.std_dev * unit
    }
}

/// Returns `0..n` shuffled by Fisher–Yates under the given RNG.
///
/// Used to shuffle minibatch order deterministically under a seed.
pub fn shuffled_indices<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sampler_finite_and_deterministic() {
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let mut s1 = NormalSampler::new(0.0, 1.0);
        let mut s2 = NormalSampler::new(0.0, 1.0);
        for _ in 0..100 {
            let a = s1.sample(&mut r1);
            let b = s2.sample(&mut r2);
            assert!(a.is_finite());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = NormalSampler::new(5.0, 0.5);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| s.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    #[should_panic(expected = "std_dev")]
    fn normal_sampler_rejects_negative_std() {
        NormalSampler::new(0.0, -1.0);
    }

    #[test]
    fn zero_std_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = NormalSampler::new(2.0, 0.0);
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 2.0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let v = shuffled_indices(&mut rng, 100);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // with overwhelming probability not identity
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_empty_and_single() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(shuffled_indices(&mut rng, 0).is_empty());
        assert_eq!(shuffled_indices(&mut rng, 1), vec![0]);
    }
}
