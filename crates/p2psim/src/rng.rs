//! Sampling distributions for the simulation, built on plain `rand`.
//!
//! The paper's Table 3 requires a *skewed* lifetime distribution with
//! mean 3 hours and median 60 minutes — a lognormal pins both moments
//! exactly: `median = e^μ`, `mean = e^{μ + σ²/2}`, hence
//! `σ = sqrt(2 ln(mean/median))`. All samplers take any `rand::Rng` so
//! the simulator's seeded generator keeps experiments deterministic.
//! (Query popularity skew lives with the workload, in
//! `summary_p2p::workload::ZipfSampler`.)

use rand::Rng;

/// Standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Lognormal with the given `mu`/`sigma` of the underlying normal.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Lognormal parameterized by its mean and median (`mean > median > 0`),
/// the paper's Table 3 style ("skewed distribution, Mean=3h, Median=1h").
pub fn lognormal_mean_median<R: Rng + ?Sized>(rng: &mut R, mean: f64, median: f64) -> f64 {
    let (mu, sigma) = lognormal_params(mean, median);
    lognormal(rng, mu, sigma)
}

/// `(mu, sigma)` of the lognormal with the given mean and median.
pub fn lognormal_params(mean: f64, median: f64) -> (f64, f64) {
    assert!(median > 0.0 && mean > median, "need mean > median > 0");
    let mu = median.ln();
    let sigma = (2.0 * (mean / median).ln()).sqrt();
    (mu, sigma)
}

/// Exponential with the given mean.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Weibull with shape `k` and scale `lambda` (k < 1 gives the heavy tail
/// often measured for P2P session times).
pub fn weibull<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    scale * (-u.ln()).powf(1.0 / shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    fn sample_stats(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (mean, sorted[xs.len() / 2])
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 10.0, 2.0)).collect();
        let (mean, _) = sample_stats(&xs);
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    /// The Table 3 lifetime distribution: mean 3 h, median 1 h.
    #[test]
    fn lognormal_hits_mean_and_median() {
        let mut r = rng();
        let xs: Vec<f64> = (0..60_000)
            .map(|_| lognormal_mean_median(&mut r, 180.0, 60.0))
            .collect();
        let (mean, median) = sample_stats(&xs);
        assert!((median - 60.0).abs() < 3.0, "median {median} (want 60)");
        assert!((mean - 180.0).abs() < 15.0, "mean {mean} (want 180)");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_params_formulae() {
        let (mu, sigma) = lognormal_params(180.0, 60.0);
        assert!((mu - 60f64.ln()).abs() < 1e-12);
        assert!((sigma - (2.0 * 3f64.ln()).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mean > median")]
    fn lognormal_params_rejects_non_skewed() {
        lognormal_params(60.0, 180.0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let xs: Vec<f64> = (0..40_000).map(|_| exponential(&mut r, 5.0)).collect();
        let (mean, median) = sample_stats(&xs);
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
        assert!(
            (median - 5.0 * 2f64.ln().abs()).abs() < 0.2,
            "median {median}"
        );
    }

    #[test]
    fn weibull_heavy_tail() {
        let mut r = rng();
        // Shape 0.5: mean = scale * Γ(3) = 2·scale.
        let xs: Vec<f64> = (0..60_000).map(|_| weibull(&mut r, 0.5, 1.0)).collect();
        let (mean, _) = sample_stats(&xs);
        assert!((mean - 2.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn determinism_with_same_seed() {
        let a: Vec<f64> = {
            let mut r = rng();
            (0..100).map(|_| lognormal(&mut r, 0.0, 1.0)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng();
            (0..100).map(|_| lognormal(&mut r, 0.0, 1.0)).collect()
        };
        assert_eq!(a, b);
    }
}
