//! Property-based tests of the statistical substrate's invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_stats::dist::{AliasTable, ContinuousDistribution, Normal};
use otr_stats::kde::{Bandwidth, GaussianKde};
use otr_stats::{empirical_quantile, kl_divergence, sym_kl_divergence, Welford};

fn arb_pmf(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 2..=max_n)
        .prop_filter("needs positive total", |v| v.iter().sum::<f64>() > 0.1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KL and symmetrized KL vanish on identical inputs.
    #[test]
    fn divergences_nonnegative_and_zero_on_self(p in arb_pmf(16)) {
        prop_assert!(kl_divergence(&p, &p).unwrap() < 1e-10);
        prop_assert!(sym_kl_divergence(&p, &p).unwrap() < 1e-10);
    }

    /// The symmetrized KL is symmetric and non-negative.
    #[test]
    fn divergence_bounds_and_symmetry(p in arb_pmf(12), q in arb_pmf(12)) {
        prop_assume!(p.len() == q.len());
        let s1 = sym_kl_divergence(&p, &q).unwrap();
        let s2 = sym_kl_divergence(&q, &p).unwrap();
        prop_assert!((s1 - s2).abs() < 1e-10);
        prop_assert!(s1 >= 0.0);
    }

    /// Welford merging is exactly equivalent to sequential accumulation.
    #[test]
    fn welford_merge_equals_sequential(
        a in proptest::collection::vec(-1e3f64..1e3, 0..40),
        b in proptest::collection::vec(-1e3f64..1e3, 0..40),
    ) {
        let mut wa = Welford::new();
        for &x in &a { wa.push(x); }
        let mut wb = Welford::new();
        for &x in &b { wb.push(x); }
        wa.merge(&wb);
        let mut seq = Welford::new();
        for &x in a.iter().chain(&b) { seq.push(x); }
        prop_assert_eq!(wa.count(), seq.count());
        prop_assert!((wa.mean() - seq.mean()).abs() < 1e-9 * (1.0 + seq.mean().abs()));
        prop_assert!(
            (wa.sample_variance() - seq.sample_variance()).abs()
                < 1e-7 * (1.0 + seq.sample_variance())
        );
    }

    /// Empirical quantiles are monotone in p and bounded by the extremes.
    #[test]
    fn empirical_quantiles_monotone(
        sample in proptest::collection::vec(-1e3f64..1e3, 1..50),
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let qlo = empirical_quantile(&sample, lo).unwrap();
        let qhi = empirical_quantile(&sample, hi).unwrap();
        prop_assert!(qlo <= qhi + 1e-12);
        let min = sample.iter().copied().fold(f64::INFINITY, f64::min);
        let max = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(qlo >= min - 1e-12);
        prop_assert!(qhi <= max + 1e-12);
    }

    /// KDE pmfs on grids are valid probability vectors.
    #[test]
    fn kde_pmf_is_probability_vector(
        sample in proptest::collection::vec(-10.0f64..10.0, 3..60),
        grid_n in 8usize..100,
    ) {
        prop_assume!(
            sample.iter().copied().fold(f64::INFINITY, f64::min)
                < sample.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        let kde = match GaussianKde::fit(&sample, Bandwidth::Silverman) {
            Ok(k) => k,
            Err(_) => return Ok(()), // degenerate spread is a legal refusal
        };
        let grid: Vec<f64> = (0..grid_n).map(|i| -12.0 + 24.0 * i as f64 / (grid_n - 1) as f64).collect();
        let pmf = kde.pmf_on_grid(&grid).unwrap();
        prop_assert_eq!(pmf.len(), grid_n);
        prop_assert!(pmf.iter().all(|&p| p >= 0.0));
        prop_assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// Normal CDF/quantile are inverse on random parameterizations.
    #[test]
    fn normal_cdf_quantile_inverse(
        mean in -100.0f64..100.0,
        sd in 0.01f64..50.0,
        p in 0.001f64..0.999,
    ) {
        let n = Normal::new(mean, sd).unwrap();
        let x = n.quantile(p);
        prop_assert!((n.cdf(x) - p).abs() < 1e-9);
    }

    /// An alias table's draws match its row's pmf in expectation.
    #[test]
    fn categorical_mean_index_matches_pmf(weights in arb_pmf(8), seed in 0u64..1_000) {
        let table = AliasTable::new([weights.as_slice()]).unwrap();
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let expected: f64 = probs.iter().enumerate().map(|(i, p)| i as f64 * p).sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| table.sample(0, &mut rng) as f64).sum::<f64>() / n as f64;
        // 5-sigma tolerance on the sample mean of a bounded variable.
        let var: f64 = probs
            .iter()
            .enumerate()
            .map(|(i, p)| (i as f64 - expected).powi(2) * p)
            .sum();
        let tol = 5.0 * (var / n as f64).sqrt() + 1e-9;
        prop_assert!(
            (mean - expected).abs() < tol,
            "mean {} vs expected {} (tol {})", mean, expected, tol
        );
    }
}
