//! Algorithm 1 — on-sample design of the distributional repair plan.
//!
//! For every `(u, k) ∈ U × {1..d}`:
//!
//! 1. **Interpolated support** `Q_{u,k}`: `nQ` uniformly spaced states
//!    spanning the pooled research range of feature `k` in group `u`
//!    (line 4 of Algorithm 1).
//! 2. **Interpolated marginals** `µ_{u,s,k}`: Gaussian-KDE pmfs of the two
//!    `s`-subgroups evaluated on `Q` (Equation 11, Silverman bandwidth).
//! 3. **Repair target** `ν_{u,k}`: the `t`-point of the `W₂` geodesic
//!    between the marginals, on the same support (Equation 7).
//! 4. **OT plans** `π*_{u,s,k}`: optimal couplings `µ_s → ν` under squared
//!    Euclidean cost (Equation 13), via the exact monotone solver or
//!    Sinkhorn.
//!
//! The designed [`RepairPlan`] is the paper's deployable artifact: `4·d`
//! small matrices wholly independent of the archival data size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use otr_data::{ColumnarDataset, Dataset, GroupKey, LabelledPoint};
use otr_ot::{quantile_barycentre, DiscreteDistribution, OtPlan, SinkhornDuals, Solver1d as _};
use otr_par::{par_cols_mut, splitmix_seed, try_par_map_indexed};
use otr_stats::dist::AliasTable;
use otr_stats::kde::GaussianKde;

use crate::config::{MassSplit, RepairConfig};
use crate::error::{RepairError, Result};

/// Row batch of the columnar repair kernel when
/// [`RepairConfig::batch_rows`] is `None`. Sized so one batch's working
/// set — a handful of `f64` column slices, one 32-byte RNG state per
/// row, and the quantization lanes — stays around the L2 cache
/// (~0.5 MiB at `d = 2`) while the per-batch setup (group partitioning,
/// RNG seeding) amortizes over thousands of rows.
const BATCH_ROWS_DEFAULT: usize = 8_192;

/// The designed transport machinery for one `(u, k)` stratum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeaturePlan {
    /// Unprotected group this plan serves.
    pub u: u8,
    /// Feature index this plan serves.
    pub k: usize,
    /// The interpolated support `Q_{u,k}` (uniform, strictly increasing).
    pub support: Vec<f64>,
    /// Interpolated marginal pmfs `µ_{u,s,k}` on `support`, indexed by `s`.
    pub marginals: [DiscreteDistribution; 2],
    /// The `t`-barycentre target `ν_{u,k}` on `support`.
    pub barycentre: DiscreteDistribution,
    /// OT plans `π*_{u,s,k} : µ_s → ν`, indexed by `s`.
    pub plans: [OtPlan; 2],
    /// Converged Sinkhorn dual potentials of the solves that produced
    /// `plans`, indexed by `s` — `None` under exact backends. Persisted
    /// so [`RepairPlanner::redesign`] can warm-start a re-design against
    /// drifted data; absent in plan JSON written before the lifecycle
    /// existed (defaults to `[None, None]`, which re-designs cold).
    #[serde(default)]
    pub duals: [Option<SinkhornDuals>; 2],
    /// Per-`s` alias tables of the rows of `plans` for the draws of
    /// Equation (15), and each row's barycentric projection for the
    /// deterministic mass split (not serialized; rebuilt by
    /// [`FeaturePlan::compile`]).
    #[serde(skip)]
    alias: [AliasTable; 2],
    #[serde(skip)]
    projections: [Vec<f64>; 2],
}

impl PartialEq for FeaturePlan {
    fn eq(&self, other: &Self) -> bool {
        // Alias tables and projections are derived state, and duals are
        // a solver warm-start hint; equality is over the designed plan
        // semantics.
        self.u == other.u
            && self.k == other.k
            && self.support == other.support
            && self.marginals == other.marginals
            && self.barycentre == other.barycentre
            && self.plans == other.plans
    }
}

impl FeaturePlan {
    /// Grid spacing of the uniform support.
    #[inline]
    pub fn step(&self) -> f64 {
        if self.support.len() < 2 {
            return 0.0;
        }
        (self.support[self.support.len() - 1] - self.support[0]) / (self.support.len() - 1) as f64
    }

    /// (Re)build the alias tables and projections from the OT plans.
    /// Must be called after deserialization; `RepairPlanner::design` and
    /// `RepairPlan::from_json` do it automatically.
    ///
    /// # Errors
    /// Fails on an empty or non-finite support (JSON `1e999` parses to
    /// `+inf`; randomized repair outputs support states, so those stay
    /// finite), on plans that are not `n_q × n_q`, on a marginal or
    /// barycentre whose support is not bitwise `support` or whose masses
    /// fail [`DiscreteDistribution::new`]'s checks (Monge repair and the
    /// drift monitor read them), on duals that are not `n_q` finite
    /// potentials per side (a warm re-design starts from them), and on a
    /// plan row with zero mass (a zero marginal state, excluded by KDE
    /// positivity).
    pub fn compile(&mut self) -> Result<()> {
        let (n, u, k) = (self.support.len(), self.u, self.k);
        let ragged = self.plans.iter().any(|p| p.rows() != n || p.cols() != n);
        if n == 0 || ragged || self.support.iter().any(|v| !v.is_finite()) {
            let msg = format!("feature plan (u={u}, k={k}) is mis-shaped or not finite");
            return Err(RepairError::PlanMismatch(msg));
        }
        for (what, dist) in [
            ("s=0 marginal", &self.marginals[0]),
            ("s=1 marginal", &self.marginals[1]),
            ("barycentre", &self.barycentre),
        ] {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            if bits(dist.support()) != bits(&self.support) {
                let msg =
                    format!("feature plan (u={u}, k={k}): {what} support differs from `support`");
                return Err(RepairError::PlanMismatch(msg));
            }
            DiscreteDistribution::new(dist.support().to_vec(), dist.masses().to_vec()).map_err(
                |e| RepairError::PlanMismatch(format!("feature plan (u={u}, k={k}): {what}: {e}")),
            )?;
        }
        for (s, duals) in self.duals.iter().enumerate() {
            let bad = |v: &[f64]| v.len() != n || v.iter().any(|x| !x.is_finite());
            if duals.as_ref().is_some_and(|d| bad(&d.f) || bad(&d.g)) {
                let msg =
                    format!("feature plan (u={u}, k={k}): s={s} duals are not {n} finite values");
                return Err(RepairError::PlanMismatch(msg));
            }
        }
        let table = |s: usize| {
            alias_table(
                &self.plans[s],
                "plan row",
                &format!("(u={u}, s={s}, k={k})"),
            )
        };
        self.alias = [table(0)?, table(1)?];
        // The alias tables refused massless rows, so every row has a
        // projection; the cell's own state only keeps this total.
        let projection = |s: usize| -> Vec<f64> {
            let (plan, support) = (&self.plans[s], &self.support);
            (0..n)
                .map(|q| {
                    plan.barycentric_projection(q, support)
                        .unwrap_or(support[q])
                })
                .collect()
        };
        self.projections = [projection(0), projection(1)];
        Ok(())
    }

    /// True if [`FeaturePlan::compile`] has been run.
    pub fn is_compiled(&self) -> bool {
        self.alias
            .iter()
            .zip(&self.plans)
            .all(|(t, p)| t.rows() == p.rows())
    }

    /// The refusal of every repair of an uncompiled plan.
    fn check_compiled(&self) -> Result<()> {
        if self.is_compiled() {
            return Ok(());
        }
        Err(RepairError::PlanMismatch(
            "feature plan is not compiled; call compile() after deserialization".into(),
        ))
    }

    /// The boundary clamp shared by every quantization mode: `Some(0)` /
    /// `Some(n_q − 1)` for values at or beyond the research range
    /// (Section V-A2a), `None` for values strictly inside the grid.
    fn boundary_cell(&self, x: f64) -> Option<usize> {
        let n_q = self.support.len();
        if x <= self.support[0] || self.step() == 0.0 {
            Some(0)
        } else if x >= self.support[n_q - 1] {
            Some(n_q - 1)
        } else {
            None
        }
    }

    /// Repair one feature value via Algorithm 2 (lines 5–9): quantize to
    /// the grid with the Bernoulli fractional trial of Equation (14), then
    /// draw the repaired state from the normalized plan row
    /// (Equation 15).
    ///
    /// Values outside the research range are clamped to the boundary
    /// states, as discussed in Section V-A2a.
    ///
    /// # Errors
    /// Requires a compiled plan and `s ∈ {0,1}`.
    pub fn repair_value<R: Rng + ?Sized>(&self, s: u8, x: f64, rng: &mut R) -> Result<f64> {
        if s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "label s={s} outside {{0,1}}"
            )));
        }
        self.check_compiled()?;
        let n_q = self.support.len();

        // Quantization with the fractional Bernoulli (Equation 14).
        let q = self.boundary_cell(x).unwrap_or_else(|| {
            let pos = (x - self.support[0]) / self.step();
            let base = pos.floor();
            let tau = pos - base;
            let mut q = base as usize;
            // a ~ B(tau) selects the upper neighbour with probability tau.
            if rng.gen::<f64>() < tau {
                q += 1;
            }
            q.min(n_q - 1)
        });

        // Multinomial draw from the selected plan row (Equation 15).
        let j = self.alias[s as usize].sample(q, rng);
        Ok(self.support[j])
    }

    /// Deterministic mass-split variant of [`Self::repair_value`]
    /// ([`MassSplit::Deterministic`]): nearest grid cell (no Bernoulli),
    /// then the row's barycentric projection (conditional mean, no
    /// multinomial). Equal inputs repair equally.
    ///
    /// # Errors
    /// Requires a compiled plan and `s ∈ {0,1}`.
    pub fn repair_value_deterministic(&self, s: u8, x: f64) -> Result<f64> {
        if s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "label s={s} outside {{0,1}}"
            )));
        }
        self.check_compiled()?;
        let n_q = self.support.len();
        let q = self.boundary_cell(x).unwrap_or_else(|| {
            ((((x - self.support[0]) / self.step()) + 0.5).floor() as usize).min(n_q - 1)
        });
        Ok(self.projections[s as usize][q])
    }

    /// Columnar randomized repair of one `(u, s)` row group within a
    /// batch. `col_in`/`col_out` are batch-local column slices, `rows`
    /// the batch-local indices of this group's rows, `rngs` the
    /// batch-local per-row streams. Returns the group's out-of-range
    /// count.
    ///
    /// Two passes per lane: an RNG-free quantization sweep (`base`/`tau`
    /// scratch lanes; tight float loop, autovectorizes) and then the
    /// per-row draws of Equations 14–15. Per row, RNG consumption is
    /// exactly [`Self::repair_value`]: one uniform for the Bernoulli
    /// when the value is strictly inside the grid (none on the boundary
    /// clamp, flagged here as `tau = -1`), then the alias-table draw.
    fn repair_rows_randomized(
        &self,
        s: usize,
        col_in: &[f64],
        col_out: &mut [f64],
        rows: &[u32],
        rngs: &mut [StdRng],
        scratch: &mut QuantScratch,
    ) -> u64 {
        let QuantScratch { base, tau } = scratch;
        let n_q = self.support.len();
        let lo = self.support[0];
        let hi = self.support[n_q - 1];
        let step = self.step();
        let mut oob = 0u64;
        base.clear();
        tau.clear();
        base.reserve(rows.len());
        tau.reserve(rows.len());
        for &li in rows {
            let x = col_in[li as usize];
            oob += u64::from(x < lo || x > hi);
            if x <= lo || step == 0.0 {
                base.push(0);
                tau.push(-1.0);
            } else if x >= hi {
                base.push((n_q - 1) as u32);
                tau.push(-1.0);
            } else {
                // Same arithmetic as `repair_value`: divide by `step`
                // (a reciprocal-multiply rounds differently and would
                // break byte-identity with it).
                let pos = (x - lo) / step;
                let b = pos.floor();
                base.push(b as u32);
                tau.push(pos - b);
            }
        }
        let alias = &self.alias[s];
        for (j, &li) in rows.iter().enumerate() {
            let rng = &mut rngs[li as usize];
            let mut q = base[j] as usize;
            let t = tau[j];
            if t >= 0.0 {
                // a ~ B(tau); the draw is consumed even when tau == 0,
                // exactly as in `repair_value`.
                if rng.gen::<f64>() < t {
                    q += 1;
                }
                q = q.min(n_q - 1);
            }
            let target = alias.sample(q, rng);
            col_out[li as usize] = self.support[target];
        }
        oob
    }

    /// Columnar deterministic repair of one `(u, s)` row group: nearest
    /// grid cell, then a gather through the projections compiled with
    /// the plan. RNG-free; single vectorizable pass. Returns the group's
    /// out-of-range count.
    fn repair_rows_deterministic(
        &self,
        s: usize,
        col_in: &[f64],
        col_out: &mut [f64],
        rows: &[u32],
    ) -> u64 {
        let proj = &self.projections[s];
        let n_q = self.support.len();
        let lo = self.support[0];
        let hi = self.support[n_q - 1];
        let step = self.step();
        let mut oob = 0u64;
        for &li in rows {
            let x = col_in[li as usize];
            oob += u64::from(x < lo || x > hi);
            let q = if x <= lo || step == 0.0 {
                0
            } else if x >= hi {
                n_q - 1
            } else {
                ((((x - lo) / step) + 0.5).floor() as usize).min(n_q - 1)
            };
            col_out[li as usize] = proj[q];
        }
        oob
    }
}

/// Reusable quantization scratch lanes for the columnar randomized
/// kernel: the per-row base cell and interpolation weight (`-1` marks a
/// boundary clamp that consumes no RNG draws). Batch-local; cleared and
/// refilled per `(u, s)` group.
#[derive(Debug, Default)]
struct QuantScratch {
    base: Vec<u32>,
    tau: Vec<f64>,
}

/// A complete repair plan: one [`FeaturePlan`] per `(u, k)` stratum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairPlan {
    /// The configuration the plan was designed under.
    pub config: RepairConfig,
    /// Feature dimension `d` of the data this plan repairs.
    pub dim: usize,
    /// Plans indexed `[u * dim + k]`.
    features: Vec<FeaturePlan>,
}

impl RepairPlan {
    /// The plan for stratum `(u, k)`.
    ///
    /// # Errors
    /// Rejects labels/indices outside the design.
    pub fn feature_plan(&self, u: u8, k: usize) -> Result<&FeaturePlan> {
        if u > 1 || k >= self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "no plan for (u={u}, k={k}) in a dim-{} design",
                self.dim
            )));
        }
        Ok(&self.features[u as usize * self.dim + k])
    }

    /// All feature plans (ordered `u`-major).
    pub fn feature_plans(&self) -> &[FeaturePlan] {
        &self.features
    }

    /// Repair one feature value of a labelled observation (Algorithm 2
    /// inner loop), splitting row mass per the design-time
    /// [`MassSplit`] mode (`rng` is untouched in deterministic mode).
    ///
    /// # Errors
    /// Same domain requirements as [`Self::feature_plan`].
    pub fn repair_value<R: Rng + ?Sized>(
        &self,
        u: u8,
        s: u8,
        k: usize,
        x: f64,
        rng: &mut R,
    ) -> Result<f64> {
        let fp = self.feature_plan(u, k)?;
        match self.config.mass_split {
            MassSplit::Randomized => fp.repair_value(s, x, rng),
            MassSplit::Deterministic => fp.repair_value_deterministic(s, x),
        }
    }

    /// Repair a full labelled point (all features) — Algorithm 2 for one
    /// row, drawing from `rng` in feature order. The reference the
    /// columnar kernel is tested against.
    ///
    /// # Errors
    /// Rejects dimension/label mismatches.
    pub fn repair_point<R: Rng + ?Sized>(
        &self,
        point: &LabelledPoint,
        rng: &mut R,
    ) -> Result<LabelledPoint> {
        if point.x.len() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "point dimension {} vs plan dimension {}",
                point.x.len(),
                self.dim
            )));
        }
        let mut x = Vec::with_capacity(self.dim);
        for (k, &v) in point.x.iter().enumerate() {
            x.push(self.repair_value(point.u, point.s, k, v, rng)?);
        }
        Ok(LabelledPoint {
            x,
            s: point.s,
            u: point.u,
        })
    }

    /// Repair an entire labelled data set (Algorithm 2), preserving
    /// cardinality and labels: draws **one** `u64` seed from `rng` and
    /// runs [`Self::repair_columnar_par`] under it, so `rng` advances by
    /// exactly one `u64` per call.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset<R: Rng + ?Sized>(&self, data: &Dataset, rng: &mut R) -> Result<Dataset> {
        let cols = ColumnarDataset::from_dataset(data);
        Ok(self
            .repair_columnar_par(&cols, rng.next_u64())?
            .to_dataset())
    }

    /// Partial repair: geodesic interpolation **in feature space** between
    /// the original and its repaired value, `x' = (1−λ)x + λ·repair(x)`.
    /// `λ = 1` is the full Algorithm 2 repair; smaller `λ` trades residual
    /// unfairness for reduced data damage (Section VI). One seed from
    /// `rng`, as in [`Self::repair_dataset`], then
    /// [`Self::repair_columnar_partial`].
    ///
    /// # Errors
    /// Requires `λ ∈ [0,1]`.
    pub fn repair_dataset_partial<R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        lambda: f64,
        rng: &mut R,
    ) -> Result<Dataset> {
        let cols = ColumnarDataset::from_dataset(data);
        Ok(self
            .repair_columnar_partial(&cols, lambda, rng.next_u64())?
            .to_dataset())
    }

    /// Columnar batch repair: Algorithm 2 over column slices instead of
    /// rows. Repairs a [`ColumnarDataset`] feature by feature — quantize
    /// a whole column lane against the plan grid, draw (or gather, in
    /// deterministic mode) the repaired states, scatter back — in tight
    /// `f64`-slice loops that autovectorize, chunked over rows on
    /// `config.threads` threads with `config.batch_rows`-row batches
    /// (`None` = 8 192 rows).
    ///
    /// Row `i` draws from `StdRng::seed_from_u64(splitmix_seed(seed, i))`
    /// in feature order, exactly as [`Self::repair_point`] would under
    /// that stream, so the output is **byte-identical for any thread
    /// count and any batch size**.
    ///
    /// # Errors
    /// Rejects dimension mismatches and uncompiled plans.
    pub fn repair_columnar_par(
        &self,
        data: &ColumnarDataset,
        seed: u64,
    ) -> Result<ColumnarDataset> {
        let mut out: Vec<Vec<f64>> = (0..data.dim()).map(|_| vec![0.0; data.len()]).collect();
        self.repair_columnar_into(data, 0..data.len(), seed, 0, &mut out)?;
        Ok(data.with_feature_columns(out)?)
    }

    /// The in-place kernel under every columnar entry point: repairs rows
    /// `rows` of `data`, read in place, straight into `out` (one slice
    /// per feature, `rows.len()` long — e.g. one shard's range of a
    /// response buffer), row `i` drawing from
    /// `StdRng::seed_from_u64(splitmix_seed(seed, row_offset + i))`,
    /// exactly the stream absolute row `row_offset + i` owns in a
    /// whole-archive [`Self::repair_columnar_par`] call. So contiguous
    /// shards repaired at their start rows and concatenated in index
    /// order are **byte-identical** to one whole-archive call, for any
    /// shard layout, thread count or batch size. Chunked over
    /// `config.threads`; returns the out-of-range feature count (the
    /// strict `x < lo || x > hi` test of the streaming counters).
    /// Outputs are support states or their projections, which
    /// [`Self::from_json`] proves finite, so nothing rescans them.
    ///
    /// # Errors
    /// Rejects dimension, row-range and `out` shape mismatches, and
    /// uncompiled plans.
    pub fn repair_columnar_into<C: AsMut<[f64]>>(
        &self,
        data: &ColumnarDataset,
        rows: std::ops::Range<usize>,
        seed: u64,
        row_offset: u64,
        out: &mut [C],
    ) -> Result<u64> {
        if data.dim() != self.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                data.dim(),
                self.dim
            )));
        }
        check_out_fits(data, &rows, out)?;
        // All fallibility up front: the chunk workers below are
        // infallible.
        for fp in &self.features {
            fp.check_compiled()?;
        }
        let row0 = rows.start;
        Ok(par_cols_mut(out, self.config.threads, |start, chunks| {
            self.repair_columnar_chunk(data, seed, row_offset, row0 + start, chunks)
        })
        .into_iter()
        .sum())
    }

    /// Repair one contiguous row chunk (`row0 ..`) of the columnar data
    /// into `cols_out`, in `batch_rows`-row batches so the working set —
    /// column lanes, scratch lanes, one RNG per row — stays cache-sized.
    /// Returns the chunk's out-of-range count.
    fn repair_columnar_chunk(
        &self,
        data: &ColumnarDataset,
        seed: u64,
        row_offset: u64,
        row0: usize,
        cols_out: &mut [&mut [f64]],
    ) -> u64 {
        let d = self.dim;
        let randomized = self.config.mass_split == MassSplit::Randomized;
        let chunk_rows = cols_out.first().map_or(0, |c| c.len());
        let batch = self
            .config
            .batch_rows
            .map_or(BATCH_ROWS_DEFAULT, |rows| rows.max(1));
        let (s_col, u_col) = (data.s(), data.u());
        let cols_in = data.feature_columns();
        let mut groups: [Vec<u32>; 4] = Default::default();
        let mut rngs: Vec<StdRng> = Vec::new();
        let mut scratch = QuantScratch::default();
        let mut oob = 0u64;
        let mut start = 0usize;
        while start < chunk_rows {
            let end = (start + batch).min(chunk_rows);
            // Partition the batch's rows by (u, s) group once; every
            // feature lane then reuses the partition.
            for g in &mut groups {
                g.clear();
            }
            for li in 0..end - start {
                let i = row0 + start + li;
                let slot = usize::from(u_col[i]) * 2 + usize::from(s_col[i]);
                groups[slot].push(li as u32);
            }
            if randomized {
                // The per-row SplitMix64 streams of the determinism
                // contract, seeded by absolute row index (shard offset
                // plus position within this shard).
                rngs.clear();
                rngs.extend((start..end).map(|li| {
                    StdRng::seed_from_u64(splitmix_seed(seed, row_offset + (row0 + li) as u64))
                }));
            }
            for k in 0..d {
                let col_in = &cols_in[k][row0 + start..row0 + end];
                let col_out = &mut cols_out[k][start..end];
                for u in 0..2usize {
                    let fp = &self.features[u * d + k];
                    for s in 0..2usize {
                        let rows = &groups[u * 2 + s];
                        if rows.is_empty() {
                            continue;
                        }
                        oob += if randomized {
                            fp.repair_rows_randomized(
                                s,
                                col_in,
                                col_out,
                                rows,
                                &mut rngs,
                                &mut scratch,
                            )
                        } else {
                            fp.repair_rows_deterministic(s, col_in, col_out, rows)
                        };
                    }
                }
            }
            start = end;
        }
        oob
    }

    /// Seeded partial repair: the kernel of [`Self::repair_columnar_par`],
    /// then one columnwise pass moving each repaired value back along the
    /// feature-space geodesic, `x' = (1−λ)x + λ·r` (see
    /// [`Self::repair_dataset_partial`]). Byte-identical for any thread
    /// count and batch size, like the kernel.
    ///
    /// # Errors
    /// Requires `λ ∈ [0,1]`; rejects dimension mismatches and uncompiled
    /// plans.
    pub fn repair_columnar_partial(
        &self,
        data: &ColumnarDataset,
        lambda: f64,
        seed: u64,
    ) -> Result<ColumnarDataset> {
        if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
            return Err(RepairError::InvalidParameter {
                name: "lambda",
                reason: format!("must be in [0,1], got {lambda}"),
            });
        }
        let mut out: Vec<Vec<f64>> = (0..data.dim()).map(|_| vec![0.0; data.len()]).collect();
        self.repair_columnar_into(data, 0..data.len(), seed, 0, &mut out)?;
        for (col, orig) in out.iter_mut().zip(data.feature_columns()) {
            for (r, &x) in col.iter_mut().zip(orig) {
                *r = (1.0 - lambda) * x + lambda * *r;
            }
        }
        Ok(data.with_feature_columns(out)?)
    }

    /// Serialize the plan to JSON (the deployable artifact).
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| RepairError::Persistence(e.to_string()))
    }

    /// Load a plan from JSON and recompile its alias tables and
    /// projections.
    ///
    /// # Errors
    /// Propagates deserialization and recompilation failures, rejects
    /// plans whose `features` are not the `2 · dim` strata `(u, k)` at
    /// slots `u · dim + k` (the repair kernels and the drift monitor
    /// index them that way), and rejects deterministic plans whose
    /// barycentric projections (their outputs) are not all finite.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut plan: RepairPlan =
            serde_json::from_str(json).map_err(|e| RepairError::Persistence(e.to_string()))?;
        let d = plan.dim;
        if d == 0 || d.checked_mul(2) != Some(plan.features.len()) {
            return Err(RepairError::PlanMismatch(format!(
                "a dim-{d} plan needs 2·dim ≥ 2 feature plans, got {}",
                plan.features.len()
            )));
        }
        for (slot, fp) in plan.features.iter().enumerate() {
            let (u, k) = (slot / d, slot % d);
            if usize::from(fp.u) != u || fp.k != k {
                return Err(RepairError::PlanMismatch(format!(
                    "feature plan at slot {slot} is labelled (u={}, k={}), expected (u={u}, k={k})",
                    fp.u, fp.k
                )));
            }
        }
        for fp in &mut plan.features {
            fp.compile()?;
            let finite = fp.projections.iter().flatten().all(|v| v.is_finite());
            if plan.config.mass_split == MassSplit::Deterministic && !finite {
                return Err(RepairError::PlanMismatch(format!(
                    "feature plan (u={}, k={}) has non-finite projections",
                    fp.u, fp.k
                )));
            }
        }
        Ok(plan)
    }
}

/// The alias table of a plan's rows (both plan kinds). A bad row is a
/// `name` error led by `at`, the plan's label.
pub(crate) fn alias_table(plan: &OtPlan, name: &'static str, at: &str) -> Result<AliasTable> {
    AliasTable::new((0..plan.rows()).map(|i| plan.row(i))).map_err(|(i, e)| {
        let reason = format!("{at} row {i}: {e}");
        RepairError::InvalidParameter { name, reason }
    })
}

/// The shape contract of the in-place kernels (scalar and joint):
/// `rows` lies inside `data`, and `out` holds `data.dim()` columns of
/// `rows.len()` values.
pub(crate) fn check_out_fits<C: AsMut<[f64]>>(
    data: &ColumnarDataset,
    rows: &std::ops::Range<usize>,
    out: &mut [C],
) -> Result<()> {
    let n = rows.len();
    if rows.end > data.len()
        || out.len() != data.dim()
        || out.iter_mut().any(|c| c.as_mut().len() != n)
    {
        return Err(RepairError::PlanMismatch(format!(
            "out does not fit rows {rows:?}"
        )));
    }
    Ok(())
}

/// Algorithm 1: designs [`RepairPlan`]s from `s|u`-labelled research data.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairPlanner {
    config: RepairConfig,
}

impl RepairPlanner {
    /// Create a planner with the given configuration.
    pub fn new(config: RepairConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RepairConfig {
        &self.config
    }

    /// Design the full repair plan from the research data set `X_R`
    /// (Algorithm 1). Deterministic: no randomness is involved at design
    /// time, and the independent `(u, k)` strata are designed
    /// concurrently (`config.threads`; `0` = auto / `OTR_THREADS`)
    /// with identical output for any thread count.
    ///
    /// # Errors
    /// * [`RepairError::InsufficientResearchData`] when an `(u, s)` group
    ///   has fewer than `min_group_size` points.
    /// * Degenerate-feature errors when a group's feature has zero spread
    ///   (no KDE bandwidth / zero-width support).
    ///
    /// With several invalid strata, the reported error is the one a
    /// sequential `u`-major sweep would hit first.
    pub fn design(&self, research: &Dataset) -> Result<RepairPlan> {
        self.config.validate()?;
        let d = research.dim();
        let features = try_par_map_indexed(2 * d, self.config.threads, |idx| {
            self.design_feature(research, (idx / d) as u8, idx % d, [None, None])
        })?;
        Ok(RepairPlan {
            config: self.config,
            dim: d,
            features,
        })
    }

    /// Re-design the full repair plan against (typically drifted)
    /// research data, warm-starting every stratum's OT solves from the
    /// dual potentials stored in `previous` — the continuous-re-planning
    /// path of the drift-aware lifecycle.
    ///
    /// Entropic backends seed their iteration from the previous plan's
    /// [`FeaturePlan::duals`] and skip any configured ε-schedule (the
    /// warm duals already are the schedule's product), cutting the
    /// re-design cost to a fraction of a cold [`Self::design`]; the
    /// result agrees with a cold design of the same data at the final ε
    /// within the solver tolerance. Exact backends carry no duals, so
    /// for them this *is* a cold design. Deterministic: the output is a
    /// pure function of `(config, research, previous duals)` and
    /// bit-identical for any thread count.
    ///
    /// # Errors
    /// As [`Self::design`].
    pub fn redesign(&self, research: &Dataset, previous: &RepairPlan) -> Result<RepairPlan> {
        self.config.validate()?;
        let d = research.dim();
        let features = try_par_map_indexed(2 * d, self.config.threads, |idx| {
            let (u, k) = ((idx / d) as u8, idx % d);
            let warm = previous
                .feature_plan(u, k)
                .map(|fp| [fp.duals[0].as_ref(), fp.duals[1].as_ref()])
                .unwrap_or([None, None]);
            self.design_feature(research, u, k, warm)
        })?;
        Ok(RepairPlan {
            config: self.config,
            dim: d,
            features,
        })
    }

    /// Design the `(u, k)` stratum (lines 3–11 of Algorithm 1), seeding
    /// entropic solves from per-`s` warm-start duals when given (see
    /// [`Self::redesign`] for the contract).
    fn design_feature(
        &self,
        research: &Dataset,
        u: u8,
        k: usize,
        warm: [Option<&SinkhornDuals>; 2],
    ) -> Result<FeaturePlan> {
        let xs: [Vec<f64>; 2] = [
            research.feature_column(GroupKey { u, s: 0 }, k)?,
            research.feature_column(GroupKey { u, s: 1 }, k)?,
        ];
        for (s, col) in xs.iter().enumerate() {
            if col.len() < self.config.min_group_size {
                return Err(RepairError::InsufficientResearchData {
                    u,
                    s: s as u8,
                    found: col.len(),
                    needed: self.config.min_group_size,
                });
            }
        }

        // Line 4: uniform support across the pooled research range.
        let lo = xs.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        let hi = xs
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if !(lo < hi) {
            return Err(RepairError::InvalidParameter {
                name: "research data",
                reason: format!("feature {k} of group u={u} has zero spread (all values = {lo})"),
            });
        }
        let n_q = self.config.n_q;
        let support: Vec<f64> = (0..n_q)
            .map(|i| lo + (hi - lo) * i as f64 / (n_q - 1) as f64)
            .collect();

        // Line 8 / Equation 11: KDE-interpolated marginal pmfs. The
        // Gaussian kernel is strictly positive analytically, but underflows
        // to exact zero beyond ~38 bandwidths; floor each state at a tiny
        // fraction of the peak so every OT-plan row keeps samplable mass.
        let mut marginals: Vec<DiscreteDistribution> = Vec::with_capacity(2);
        for col in &xs {
            let kde = GaussianKde::fit(col, self.config.bandwidth)?;
            let mut pmf = kde.pmf_on_grid(&support)?;
            let floor = pmf.iter().copied().fold(0.0, f64::max) * 1e-12;
            for p in &mut pmf {
                *p = p.max(floor);
            }
            marginals.push(DiscreteDistribution::new(support.clone(), pmf)?);
        }
        let marginals: [DiscreteDistribution; 2] = [marginals.remove(0), marginals.remove(0)];

        // Line 9 / Equation 7: the t-barycentre target on the same support.
        let barycentre = quantile_barycentre(
            &marginals[0],
            &marginals[1],
            self.config.t,
            &support,
            self.config.barycentre_resolution,
        )?;

        // Line 11 / Equation 13: OT plans µ_s -> ν, through the unified
        // solver seam (which owns the Sinkhorn→simplex fallback policy).
        // The thread setting reaches the backend's in-kernel scaling
        // loops; small 1-D grids stay sequential under the kernel-cells
        // threshold, so the per-stratum parallelism of `design` is not
        // oversubscribed.
        let mut plans: Vec<OtPlan> = Vec::with_capacity(2);
        let mut duals: Vec<Option<SinkhornDuals>> = Vec::with_capacity(2);
        for (s, m) in marginals.iter().enumerate() {
            let (plan, d) =
                self.config
                    .solver
                    .solve_1d_warm(m, &barycentre, self.config.threads, warm[s])?;
            plans.push(plan);
            duals.push(d);
        }
        let plans: [OtPlan; 2] = [plans.remove(0), plans.remove(0)];
        let duals: [Option<SinkhornDuals>; 2] = [duals.remove(0), duals.remove(0)];

        let mut fp = FeaturePlan {
            u,
            k,
            support,
            marginals,
            barycentre,
            plans,
            duals,
            alias: Default::default(),
            projections: Default::default(),
        };
        fp.compile()?;
        Ok(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverBackend;
    use otr_data::SimulationSpec;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn research(seed: u64, n: usize) -> Dataset {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        spec.sample_dataset(n, &mut rng).unwrap()
    }

    #[test]
    fn design_produces_all_strata() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&research(1, 400))
            .unwrap();
        assert_eq!(plan.dim, 2);
        assert_eq!(plan.feature_plans().len(), 4);
        for u in 0..2u8 {
            for k in 0..2usize {
                let fp = plan.feature_plan(u, k).unwrap();
                assert_eq!(fp.u, u);
                assert_eq!(fp.k, k);
                assert_eq!(fp.support.len(), 30);
                assert!(fp.is_compiled());
            }
        }
        assert!(plan.feature_plan(2, 0).is_err());
        assert!(plan.feature_plan(0, 9).is_err());
    }

    #[test]
    fn support_spans_pooled_range() {
        let data = research(2, 500);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(20))
            .design(&data)
            .unwrap();
        for u in 0..2u8 {
            let fp = plan.feature_plan(u, 0).unwrap();
            let col0 = data.feature_column(GroupKey { u, s: 0 }, 0).unwrap();
            let col1 = data.feature_column(GroupKey { u, s: 1 }, 0).unwrap();
            let lo = col0
                .iter()
                .chain(&col1)
                .copied()
                .fold(f64::INFINITY, f64::min);
            let hi = col0
                .iter()
                .chain(&col1)
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((fp.support[0] - lo).abs() < 1e-12);
            assert!((fp.support[fp.support.len() - 1] - hi).abs() < 1e-12);
        }
    }

    #[test]
    fn plans_couple_marginal_to_barycentre() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(40))
            .design(&research(3, 600))
            .unwrap();
        for fp in plan.feature_plans() {
            for s in 0..2usize {
                fp.plans[s]
                    .validate_marginals(fp.marginals[s].masses(), fp.barycentre.masses())
                    .unwrap();
            }
        }
    }

    #[test]
    fn insufficient_group_detected() {
        // u=1, s=0 has Pr = 0.05; a tiny sample will miss the threshold.
        let mut cfg = RepairConfig::with_n_q(10);
        cfg.min_group_size = 50;
        let err = RepairPlanner::new(cfg).design(&research(4, 120));
        assert!(matches!(
            err,
            Err(RepairError::InsufficientResearchData { .. })
        ));
    }

    #[test]
    fn repair_preserves_cardinality_and_labels() {
        let data = research(5, 500);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
            .design(&data)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let archive = research(6, 2_000);
        let repaired = plan.repair_dataset(&archive, &mut rng).unwrap();
        assert_eq!(repaired.len(), archive.len());
        for (a, b) in repaired.points().iter().zip(archive.points()) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
        }
    }

    #[test]
    fn repaired_values_live_on_support() {
        let data = research(7, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(25))
            .design(&data)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let archive = research(8, 500);
        let repaired = plan.repair_dataset(&archive, &mut rng).unwrap();
        for p in repaired.points() {
            for (k, &v) in p.x.iter().enumerate() {
                let fp = plan.feature_plan(p.u, k).unwrap();
                assert!(
                    fp.support.iter().any(|&q| (q - v).abs() < 1e-9),
                    "repaired value {v} is not a support state"
                );
            }
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_boundary_states() {
        let data = research(9, 300);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(15))
            .design(&data)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // A value far below/above any research observation.
        let lo_val = plan.repair_value(0, 0, 0, -1e6, &mut rng).unwrap();
        let hi_val = plan.repair_value(0, 0, 0, 1e6, &mut rng).unwrap();
        let fp = plan.feature_plan(0, 0).unwrap();
        assert!(fp.support.contains(&lo_val));
        assert!(fp.support.contains(&hi_val));
    }

    #[test]
    fn repair_rejects_mismatches() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(10))
            .design(&research(10, 300))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(plan.repair_value(0, 7, 0, 0.0, &mut rng).is_err());
        let bad = LabelledPoint {
            x: vec![0.0],
            s: 0,
            u: 0,
        };
        assert!(plan.repair_point(&bad, &mut rng).is_err());
    }

    #[test]
    fn partial_repair_interpolates() {
        let data = research(11, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&data)
            .unwrap();
        let archive = research(12, 300);
        let zero = plan
            .repair_dataset_partial(&archive, 0.0, &mut StdRng::seed_from_u64(4))
            .unwrap();
        // lambda = 0 returns the original features exactly.
        for (a, b) in zero.points().iter().zip(archive.points()) {
            assert_eq!(a.x, b.x);
        }
        assert!(plan
            .repair_dataset_partial(&archive, 1.5, &mut StdRng::seed_from_u64(5))
            .is_err());
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let data = research(13, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(20))
            .design(&data)
            .unwrap();
        let json = plan.to_json().unwrap();
        let back = RepairPlan::from_json(&json).unwrap();
        // Structural agreement up to the last JSON ulp.
        assert_eq!(back.dim, plan.dim);
        assert_eq!(back.feature_plans().len(), plan.feature_plans().len());
        for (a, b) in plan.feature_plans().iter().zip(back.feature_plans()) {
            assert_eq!(a.u, b.u);
            assert_eq!(a.k, b.k);
            for (x, y) in a.support.iter().zip(&b.support) {
                assert!((x - y).abs() < 1e-12);
            }
            for s in 0..2 {
                for (x, y) in a.marginals[s].masses().iter().zip(b.marginals[s].masses()) {
                    assert!((x - y).abs() < 1e-12);
                }
            }
            assert!(b.is_compiled());
        }
        // Behavioural agreement: identical repair draws under the same RNG.
        let vals_a: Vec<f64> = (0..50)
            .map(|i| {
                plan.repair_value(0, 1, 0, 0.1 * i as f64 - 2.0, &mut StdRng::seed_from_u64(i))
                    .unwrap()
            })
            .collect();
        let vals_b: Vec<f64> = (0..50)
            .map(|i| {
                back.repair_value(0, 1, 0, 0.1 * i as f64 - 2.0, &mut StdRng::seed_from_u64(i))
                    .unwrap()
            })
            .collect();
        for (a, b) in vals_a.iter().zip(&vals_b) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// Algorithm 2 row by row through [`RepairPlan::repair_point`], row
    /// `i` drawing from `splitmix_seed(seed, i)`: the reference the
    /// columnar kernel must reproduce.
    fn per_row_reference(plan: &RepairPlan, data: &Dataset, seed: u64) -> Vec<LabelledPoint> {
        let rng = |i: usize| StdRng::seed_from_u64(splitmix_seed(seed, i as u64));
        let rows = data.points().iter().enumerate();
        rows.map(|(i, p)| plan.repair_point(p, &mut rng(i)).unwrap())
            .collect()
    }

    #[test]
    fn columnar_repair_matches_per_row_reference() {
        let data = research(30, 400);
        let archive = research(31, 1_500);
        let cols = ColumnarDataset::from_dataset(&archive);
        for mass_split in [MassSplit::Randomized, MassSplit::Deterministic] {
            let mut cfg = RepairConfig::with_n_q(30);
            cfg.mass_split = mass_split;
            let mut plan = RepairPlanner::new(cfg).design(&data).unwrap();
            let reference = per_row_reference(&plan, &archive, 99);
            for threads in [1usize, 2, 7] {
                // Batch boundaries are pure blocking policy: tiny, prime,
                // and bigger-than-the-data batches all give the same bytes.
                for batch_rows in [None, Some(1), Some(37), Some(100_000)] {
                    plan.config.threads = threads;
                    plan.config.batch_rows = batch_rows;
                    let col = plan.repair_columnar_par(&cols, 99).unwrap();
                    assert_eq!(
                        col.to_dataset().points(),
                        &reference[..],
                        "{mass_split:?}, threads = {threads}, batch_rows = {batch_rows:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rng_entry_points_draw_one_seed_from_the_callers_rng() {
        let data = research(38, 400);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&data)
            .unwrap();
        let archive = research(39, 500);
        let cols = ColumnarDataset::from_dataset(&archive);
        let start = StdRng::seed_from_u64(77);
        let mut advanced = start.clone();
        let seed = advanced.next_u64();

        let mut rng = start.clone();
        let full = plan.repair_dataset(&archive, &mut rng).unwrap();
        let kernel = plan.repair_columnar_par(&cols, seed).unwrap();
        assert_eq!(full.points(), kernel.to_dataset().points());
        assert_eq!(rng, advanced, "repair_dataset must draw exactly one u64");

        let mut rng = start;
        let partial = plan
            .repair_dataset_partial(&archive, 0.4, &mut rng)
            .unwrap();
        let kernel = plan.repair_columnar_partial(&cols, 0.4, seed).unwrap();
        assert_eq!(partial.points(), kernel.to_dataset().points());
        assert_eq!(
            rng, advanced,
            "repair_dataset_partial must draw exactly one u64"
        );
    }

    #[test]
    fn sharded_columnar_repair_matches_whole_archive() {
        let data = research(36, 400);
        let archive = research(37, 1_000);
        let cols = ColumnarDataset::from_dataset(&archive);
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&data)
            .unwrap();
        let whole = plan.repair_columnar_par(&cols, 99).unwrap();
        let columns = |rows: usize| vec![vec![0.0; rows]; cols.dim()];
        let whole_oob = plan
            .repair_columnar_into(&cols, 0..cols.len(), 99, 0, &mut columns(cols.len()))
            .unwrap();
        // Any contiguous shard layout, reassembled in index order,
        // reproduces the whole-archive bytes — the serving contract.
        for shards in [1usize, 2, 7] {
            let mut rebuilt: Vec<Vec<f64>> = vec![Vec::new(); cols.dim()];
            let mut oob_total = 0u64;
            let base = cols.len() / shards;
            let rem = cols.len() % shards;
            let mut start = 0usize;
            for sh in 0..shards {
                let len = base + usize::from(sh < rem);
                let slice = cols.slice_rows(start..start + len).unwrap();
                let mut out = columns(len);
                oob_total += plan
                    .repair_columnar_into(&slice, 0..len, 99, start as u64, &mut out)
                    .unwrap();
                for (col, part) in rebuilt.iter_mut().zip(&out) {
                    col.extend_from_slice(part);
                }
                start += len;
            }
            let rebuilt = cols.with_feature_columns(rebuilt).unwrap();
            assert_eq!(rebuilt, whole, "shards = {shards}");
            assert_eq!(oob_total, whole_oob, "shards = {shards}");
        }
    }

    #[test]
    fn columnar_repair_rejects_mismatch_and_uncompiled() {
        let plan = RepairPlanner::new(RepairConfig::with_n_q(10))
            .design(&research(34, 300))
            .unwrap();
        let wrong_dim =
            ColumnarDataset::from_columns(vec![vec![0.0, 1.0]], vec![0, 1], vec![0, 1]).unwrap();
        assert!(plan.repair_columnar_par(&wrong_dim, 1).is_err());
        // A freshly deserialized (uncompiled) plan is rejected in either
        // mass-split mode, same as repair_value.
        let mut raw: RepairPlan = serde_json::from_str(&plan.to_json().unwrap()).unwrap();
        let cols = ColumnarDataset::from_dataset(&research(35, 50));
        assert!(raw.repair_columnar_par(&cols, 1).is_err());
        raw.config.mass_split = MassSplit::Deterministic;
        assert!(raw.repair_columnar_par(&cols, 1).is_err());
        assert!(plan.repair_columnar_par(&cols, 1).is_ok());
    }

    #[test]
    fn parallel_design_matches_sequential_design() {
        let data = research(22, 500);
        let mut seq_cfg = RepairConfig::with_n_q(40);
        seq_cfg.threads = 1;
        let mut par_cfg = seq_cfg;
        par_cfg.threads = 5;
        let a = RepairPlanner::new(seq_cfg).design(&data).unwrap();
        let b = RepairPlanner::new(par_cfg).design(&data).unwrap();
        // Feature plans are identical; only the threads knob differs.
        assert_eq!(a.feature_plans(), b.feature_plans());
    }

    #[test]
    fn deterministic_mass_split_is_rng_independent() {
        let data = research(23, 400);
        let mut cfg = RepairConfig::with_n_q(30);
        cfg.mass_split = MassSplit::Deterministic;
        let plan = RepairPlanner::new(cfg).design(&data).unwrap();
        let archive = research(24, 500);
        let a = plan
            .repair_dataset(&archive, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let b = plan
            .repair_dataset(&archive, &mut StdRng::seed_from_u64(2))
            .unwrap();
        assert_eq!(a.points(), b.points(), "deterministic split used the RNG");
        // The seeded kernel agrees whatever the seed.
        let cols = ColumnarDataset::from_dataset(&archive);
        let seeded = plan.repair_columnar_par(&cols, 7).unwrap();
        assert_eq!(seeded.to_dataset().points(), a.points());
        // Equal inputs repair equally (individual-fairness property).
        let mut rng = StdRng::seed_from_u64(3);
        let x = plan.repair_value(0, 1, 0, 0.25, &mut rng).unwrap();
        let y = plan.repair_value(0, 1, 0, 0.25, &mut rng).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn columnar_partial_is_the_geodesic_of_the_per_row_reference() {
        let data = research(25, 400);
        let archive = research(26, 300);
        let cols = ColumnarDataset::from_dataset(&archive);
        for mass_split in [MassSplit::Randomized, MassSplit::Deterministic] {
            let mut cfg = RepairConfig::with_n_q(30);
            cfg.mass_split = mass_split;
            cfg.threads = 3;
            cfg.batch_rows = Some(101);
            let plan = RepairPlanner::new(cfg).design(&data).unwrap();
            let reference = per_row_reference(&plan, &archive, 9);
            for lambda in [0.0, 0.4, 0.73, 1.0] {
                let got = plan.repair_columnar_partial(&cols, lambda, 9).unwrap();
                for (i, (o, r)) in archive.points().iter().zip(&reference).enumerate() {
                    let want: Vec<u64> = (o.x.iter().zip(&r.x))
                        .map(|(x, r)| ((1.0 - lambda) * x + lambda * r).to_bits())
                        .collect();
                    let row: Vec<u64> = got.row(i).x.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(row, want, "{mass_split:?}, lambda = {lambda}, row {i}");
                }
            }
            assert!(plan.repair_columnar_partial(&cols, -0.1, 9).is_err());
        }
    }

    #[test]
    fn sinkhorn_backend_designs_valid_plans() {
        let mut cfg = RepairConfig::with_n_q(25);
        cfg.solver = SolverBackend::sinkhorn(0.05);
        let plan = RepairPlanner::new(cfg).design(&research(14, 400)).unwrap();
        for fp in plan.feature_plans() {
            for s in 0..2usize {
                // Sinkhorn plans are rounded to exact feasibility.
                fp.plans[s]
                    .validate_marginals(fp.marginals[s].masses(), fp.barycentre.masses())
                    .unwrap();
            }
        }
    }

    #[test]
    fn warm_redesign_agrees_with_cold_design_at_final_epsilon() {
        use otr_data::Drift;
        use otr_ot::{CostMatrix, EpsSchedule};

        let mut cfg = RepairConfig::with_n_q(25);
        cfg.solver = SolverBackend::sinkhorn_scaled(0.05, EpsSchedule::geometric(1.0, 0.25));
        let planner = RepairPlanner::new(cfg);

        let original = research(31, 500);
        let previous = planner.design(&original).unwrap();
        // The entropic design must have banked duals for every solve.
        for fp in previous.feature_plans() {
            assert!(fp.duals[0].is_some() && fp.duals[1].is_some());
        }

        let drifted = Drift::MeanShift(vec![0.6, -0.4]).apply(&original).unwrap();
        let cold = planner.design(&drifted).unwrap();
        let warm = planner.redesign(&drifted, &previous).unwrap();

        // Warm and cold solve the identical (µ, ν, cost) problems to the
        // same final ε, so the converged plans must agree: identical
        // supports/marginals (design-path, not solver-path) and
        // transport costs within solver tolerance.
        for (c, w) in cold.feature_plans().iter().zip(warm.feature_plans()) {
            assert_eq!(c.support, w.support);
            assert_eq!(c.marginals, w.marginals);
            assert_eq!(c.barycentre, w.barycentre);
            let cost = CostMatrix::squared_euclidean(&c.support, &c.support).unwrap();
            for s in 0..2usize {
                let cc = c.plans[s].transport_cost(&cost).unwrap();
                let wc = w.plans[s].transport_cost(&cost).unwrap();
                assert!(
                    (cc - wc).abs() <= 1e-6 * cc.abs().max(1.0),
                    "(u={}, k={}, s={s}): cold cost {cc} vs warm cost {wc}",
                    c.u,
                    c.k
                );
                assert!(w.duals[s].is_some(), "warm redesign dropped duals");
            }
        }
    }

    #[test]
    fn redesign_under_exact_backend_is_a_cold_design() {
        let planner = RepairPlanner::new(RepairConfig::with_n_q(20));
        let original = research(33, 400);
        let previous = planner.design(&original).unwrap();
        let again = research(34, 400);
        let re = planner.redesign(&again, &previous).unwrap();
        let cold = planner.design(&again).unwrap();
        // Exact monotone carries no duals: redesign == design, exactly.
        assert_eq!(re, cold);
    }

    #[test]
    fn degenerate_feature_rejected() {
        // A dataset whose feature 0 is constant within u=0.
        let mut pts = Vec::new();
        for s in 0..2u8 {
            for i in 0..20 {
                pts.push(LabelledPoint {
                    x: vec![1.0, i as f64],
                    s,
                    u: 0,
                });
                pts.push(LabelledPoint {
                    x: vec![i as f64, i as f64],
                    s,
                    u: 1,
                });
            }
        }
        let data = Dataset::from_points(pts).unwrap();
        let err = RepairPlanner::new(RepairConfig::with_n_q(10)).design(&data);
        assert!(err.is_err());
    }
}
