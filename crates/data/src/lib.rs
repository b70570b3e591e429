//! # otr-data — data substrate for `ot-fair-repair`
//!
//! In-memory labelled data sets and the generators behind both of the
//! paper's test beds:
//!
//! * [`dataset`] — the row-major [`Dataset`] container of
//!   `(x ∈ ℝᵈ, s, u)` observations (`Z = {X, S, U}`, Equation 1), with
//!   `(u,s)`-group feature columns and research/archive splitting.
//! * [`columnar`] — the same data in column-major (struct-of-arrays)
//!   layout ([`ColumnarDataset`]): one contiguous column per feature and
//!   packed label bytes. The cache-friendly substrate of the batch
//!   repair kernels; conversions both ways are lossless.
//! * [`synth`] — the bivariate-Gaussian simulation of Section V-A
//!   ([`SimulationSpec`]).
//! * [`adult`] — the Adult-income study (Section V-B): a calibrated
//!   synthetic generator ([`adult::AdultSynth`]) standing in for the UCI
//!   file (unavailable offline), plus a loader for the real
//!   `adult.data` CSV when present.
//! * [`csv`] — a dependency-free CSV line parser and reader.
//! * [`labelled_csv`] — the `s,u,x0,…` interchange format, read and
//!   written a block of bytes per thread.
//! * [`drift`] — distribution-shift injectors used to stress the paper's
//!   stationarity assumption (Section V-A2a discussion).
//!
//! ## Example
//!
//! Simulate the paper's Section V-A population and split it into the
//! small research set and the archival torrent:
//!
//! ```
//! use otr_data::SimulationSpec;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let split = SimulationSpec::paper_defaults()
//!     .generate(200, 500, &mut rng)
//!     .unwrap();
//! assert_eq!(split.research.len(), 200);
//! assert_eq!(split.archive.len(), 500);
//! assert_eq!(split.archive.dim(), 2);
//! ```

pub mod adult;
pub mod columnar;
pub mod csv;
pub mod dataset;
pub mod drift;
pub mod error;
pub mod labelled_csv;
pub mod synth;

pub use adult::AdultSynth;
pub use columnar::ColumnarDataset;
pub use dataset::{Dataset, GroupKey, LabelledPoint, SplitData};
pub use drift::Drift;
pub use error::DataError;
pub use labelled_csv::{
    read_labelled_csv, read_labelled_csv_columnar, write_labelled_csv, write_labelled_csv_columnar,
};
pub use synth::SimulationSpec;
