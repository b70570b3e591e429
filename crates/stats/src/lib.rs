//! # otr-stats — statistical substrate for `ot-fair-repair`
//!
//! Everything numerical that the optimal-transport fairness-repair pipeline
//! needs and that the thin Rust statistics ecosystem does not provide:
//!
//! * **Special functions** ([`special`]): `erf`, `erfc`, the standard-normal
//!   CDF and its inverse (Acklam's algorithm refined by Halley iteration).
//! * **Distributions** ([`dist`]): Gaussian (sampling via the Marsaglia polar
//!   method), truncated Gaussian, Bernoulli, multi-row alias tables (an
//!   O(1) categorical draw from any row of a weight matrix), and
//!   multivariate Gaussian (via our own Cholesky factorization).
//! * **Dense linear algebra** ([`linalg`]): the small dense-matrix type and
//!   the Cholesky factorization the multivariate normal samples with.
//! * **Kernel density estimation** ([`kde`], [`kde_nd`]): Gaussian-kernel
//!   KDE with Silverman / Scott bandwidth rules — Equation (11)–(12) of the
//!   paper — and its d-variate product-kernel form for joint repair.
//! * **Histograms & empirical pmfs** ([`histogram`]).
//! * **Quantiles** ([`quantile`]): empirical sample quantiles.
//! * **Divergences** ([`divergence`]): KL and symmetrized KL (the paper's
//!   `E_u`, Definition 2.4).
//! * **Descriptive statistics** ([`describe`]): Welford accumulators.
//! * **Expectation–maximization** ([`em`]): two-component Gaussian-mixture
//!   EM used to estimate missing `s|u` labels of archival data (Section IV
//!   / VI of the paper).
//!
//! All sampling is generic over [`rand::Rng`] so that every experiment in
//! the workspace is reproducible from an explicit seed.
//!
//! ## Example
//!
//! KDE-interpolate a sample onto a grid pmf (the Equation 11 operation
//! behind every repair-plan marginal):
//!
//! ```
//! use otr_stats::{Bandwidth, GaussianKde};
//!
//! let sample = [0.1, 0.4, 0.5, 0.9, 1.2, 1.4];
//! let kde = GaussianKde::fit(&sample, Bandwidth::Silverman).unwrap();
//! let grid: Vec<f64> = (0..50).map(|i| i as f64 * 0.04).collect();
//! let pmf = kde.pmf_on_grid(&grid).unwrap();
//! let total: f64 = pmf.iter().sum();
//! assert!((total - 1.0).abs() < 1e-9, "pmf normalizes on the grid");
//! ```

pub mod describe;
pub mod dist;
pub mod divergence;
pub mod em;
pub mod error;
pub mod histogram;
pub mod kde;
pub mod kde_nd;
pub mod linalg;
pub mod quantile;
pub mod special;

pub use describe::Welford;
pub use dist::{AliasTable, Bernoulli, MultivariateNormal, Normal, TruncatedNormal};
pub use divergence::{kl_divergence, sym_kl_divergence};
pub use em::{GaussianMixtureEm, GmmFit};
pub use error::StatsError;
pub use histogram::Histogram;
pub use kde::{Bandwidth, GaussianKde};
pub use kde_nd::GaussianKdeNd;
pub use linalg::Matrix;
pub use quantile::empirical_quantile;
