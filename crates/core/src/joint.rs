//! Joint (multivariate) distributional repair — the extension the
//! paper's Section VI anticipates for intra-feature correlation
//! structure.
//!
//! Algorithm 1's per-feature stratification cannot repair dependence that
//! lives in the correlation between features: if the `s`-conditionals
//! share all marginals but differ in correlation sign, every per-feature
//! plan is (near) the identity. This module lifts Algorithm 1 to the
//! `d`-axis product support (`d ≥ 2`; the paper's bivariate setting is
//! the `d = 2` special case and its designs are byte-for-byte
//! unchanged):
//!
//! 1. product grid `Q^d = Q_1 × … × Q_d` over the pooled research range;
//! 2. `d`-variate-KDE pmfs `µ_{u,s}` on `Q^d` (Equation 11 in `d`
//!    dimensions);
//! 3. entropic fixed-support `W₂` barycentre `ν` on `Q^d`
//!    (iterative Bregman projections — the quantile construction has no
//!    multivariate analogue);
//! 4. Sinkhorn plans `π*_{u,s} : µ_{u,s} → ν` under squared Euclidean
//!    cost on `ℝ^d`, rounded to exact feasibility;
//! 5. repair by nearest-cell lookup + the same multinomial row draw as
//!    Algorithm 2 (Equation 15), now over joint grid states.
//!
//! Cost: the support grows from `nQ` to `nQ^d` states, so a **dense**
//! design would be practical only at coarse resolutions — exactly the
//! curse-of-dimension trade-off the paper cites for its per-feature
//! design. The squared-Euclidean cost on a product grid factorizes,
//! though, so every entropic matvec runs as `d` axis passes —
//! `O(nQ^d · d·nQ)` work against a dense `O(nQ^{2d})` — which is what
//! makes a 3-feature `nQ = 16` design (a 16.8M-cell dense kernel)
//! tractable. The artifact follows suit: a
//! stratum whose two plans both converged in that factored domain
//! stores the `7 · nQ^d` numbers that fix them (its marginals, the
//! barycentre and each plan's final Sinkhorn scalings) instead of
//! `2 · nQ^{2d}` plan cells, and loading rebuilds the plans bit for bit
//! through the solver's own code. The `ablation_joint` experiment
//! measures both sides of the marginal-vs-joint trade.

use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use otr_data::{ColumnarDataset, Dataset, GroupKey, LabelledPoint};
use otr_ot::{
    entropic_barycentre_grid_nd, plan_from_scalings, BarycentreConfig, BarycentreDiagnostics,
    CostMatrix, EpsSchedule, FactoredScalings, KernelChoice, OtPlan, Solver1d as _, SolverBackend,
};
use otr_par::{par_cols_mut, par_map_indexed, splitmix_seed, try_par_map_indexed};
use otr_stats::dist::AliasTable;
use otr_stats::GaussianKdeNd;

use crate::error::{RepairError, Result};
use crate::plan::{alias_table, check_out_fits};

/// Configuration of the joint repair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointRepairConfig {
    /// Grid points **per dimension** (total support = `n_q^d` states
    /// for `d`-feature data).
    pub n_q: usize,
    /// Entropic regularization of the fixed-support barycentre (the
    /// iterative-Bregman construction is inherently entropic, whatever
    /// solver designs the plans).
    pub epsilon: f64,
    /// Geodesic position of the repair target.
    pub t: f64,
    /// Minimum research observations per `(u, s)` group.
    pub min_group_size: usize,
    /// OT solver backend for the plans `π*_{u,s} : µ_{u,s} → ν`.
    /// `None` (the default) means entropic Sinkhorn at this config's
    /// [`epsilon`](Self::epsilon) (annealed along
    /// [`eps_scaling`](Self::eps_scaling)), so tuning `epsilon` alone
    /// keeps governing both barycentre and plans as it always did.
    /// [`SolverBackend::ExactMonotone`] is rejected at design time: the
    /// product support has no 1-D order.
    #[serde(default)]
    pub solver: Option<SolverBackend>,
    /// ε-annealing schedule for the design's `nQ^{2d}`-cell kernels: drives
    /// the entropic barycentre *and* (when [`solver`](Self::solver) is
    /// `None`) the Sinkhorn plans, warm-starting duals across stages.
    /// **On by default** — at the paper's `ε = 0.05` it cuts joint
    /// design time severalfold; set `None` for the cold single-ε solve.
    /// The schedule is a pure function of this config, so it never
    /// affects the thread-count byte-identity of the design.
    #[serde(default)]
    pub eps_scaling: Option<EpsSchedule>,
    /// Gibbs-kernel representation of the design's entropic solves
    /// (barycentre + Sinkhorn plans). The joint cost is squared
    /// Euclidean on the `d`-axis self-product grid, so it always
    /// factorizes as `K₁ ⊗ … ⊗ K_d`, and every kernel matvec runs as `d`
    /// `O(nQ^d · nQ)` axis passes instead of an `O(nQ^{2d})` dense
    /// sweep. `Auto` (the default) and `Separable` design alike, and a
    /// designed plan records `Auto` for both; a design asking for
    /// `Dense` is refused before any work. Loading a plan never reads
    /// this field.
    #[serde(default)]
    pub kernel: KernelChoice,
    /// Worker threads for stratum design and parallel dataset repair
    /// (`0` = auto: `OTR_THREADS` env or available parallelism).
    #[serde(skip)]
    pub threads: usize,
}

impl Default for JointRepairConfig {
    fn default() -> Self {
        Self {
            n_q: 16,
            epsilon: 0.05,
            t: 0.5,
            min_group_size: 10,
            solver: None,
            eps_scaling: Some(EpsSchedule::default()),
            kernel: KernelChoice::Auto,
            threads: 0,
        }
    }
}

impl JointRepairConfig {
    /// The backend that will design the plans: the explicit override, or
    /// Sinkhorn at [`epsilon`](Self::epsilon) annealed along
    /// [`eps_scaling`](Self::eps_scaling).
    pub fn plan_solver(&self) -> SolverBackend {
        self.solver.unwrap_or(SolverBackend::Sinkhorn {
            epsilon: self.epsilon,
            eps_scaling: self.eps_scaling,
        })
    }
}

/// The most cells a joint plan may have: `n²` on an `n`-state product
/// grid. A factored stratum's `7n` numbers rebuild two `n²`-cell plans
/// and their tables (8 and 12 bytes a cell), so this cap, not the
/// artifact's size, bounds what loading one allocates: a stratum at the
/// cap compiles into 768 MiB of tables. It admits `nQ ≤ 76` at `d = 2`,
/// `nQ ≤ 17` at `d = 3` and `nQ ≤ 8` at `d = 4`.
const MAX_PLAN_CELLS: usize = 1 << 25;

/// Whether plans on `n` product states fit under [`MAX_PLAN_CELLS`].
fn plan_fits(n: usize) -> bool {
    n.checked_mul(n)
        .is_some_and(|cells| cells <= MAX_PLAN_CELLS)
}

/// One `u`-stratum of the joint plan. Its two plans are stored in one of
/// two forms, exactly one per stratum: `factored` when both are Sinkhorn
/// solves that converged in the factored domain, dense `plans` otherwise
/// (a log-domain fallback, the simplex backend, a filtered support) and
/// in every artifact written before the factored form existed.
#[derive(Debug, Clone, Deserialize)]
struct JointStratum {
    /// Axis grids, one per feature (`d ≥ 2` entries). The product
    /// support is their Cartesian product, flattened row-major with the
    /// **last axis fastest**. Defaulted on load so that a plan without
    /// them (the 2-feature `gx`/`gy` artifacts that predate `d`-axis
    /// plans) fails [`JointStratum::compile`] with its own reason.
    #[serde(default)]
    axes: Vec<Vec<f64>>,
    /// Per-`s` dense plans onto the barycentre.
    #[serde(default)]
    plans: Option<[OtPlan; 2]>,
    /// What produced the per-`s` plans, when both are factored solves.
    #[serde(default)]
    factored: Option<FactoredPlans>,
    /// Flattened grid-point coordinates, `d` per state, in row-major
    /// state order (derived from the axis grids; rebuilt by
    /// [`JointStratum::compile`]).
    #[serde(skip)]
    points: Vec<f64>,
    /// Per-`s` alias tables of the plans' rows (derived; rebuilt by
    /// [`JointStratum::compile`]).
    #[serde(skip)]
    alias: [AliasTable; 2],
}

/// The two factored Sinkhorn solves of a stratum on an `n`-state grid:
/// `7n` numbers where its dense plans hold `2n²`. With the stratum's axes
/// and the plan solver's ε they fix both plans bit for bit
/// ([`plan_from_scalings`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FactoredPlans {
    /// The `s = 0` and `s = 1` pmfs the plans transport.
    marginals: [Vec<f64>; 2],
    /// The barycentre both plans transport onto.
    barycentre: Vec<f64>,
    /// Each plan's final Sinkhorn scalings.
    scalings: [FactoredScalings; 2],
}

/// The axes, then the one form the stratum holds, so a dense stratum
/// writes the keys dense artifacts have always held.
impl Serialize for JointStratum {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![("axes".to_string(), self.axes.to_value())];
        if let Some(plans) = &self.plans {
            entries.push(("plans".into(), plans.to_value()));
        }
        if let Some(factored) = &self.factored {
            entries.push(("factored".into(), factored.to_value()));
        }
        serde::Value::Obj(entries)
    }
}

impl JointStratum {
    /// (Re)build the derived state — the flattened product support and
    /// the plans' alias tables — from the stored plans, validating the
    /// stratum first (deserialized plans are user-supplied files: a
    /// malformed stratum must be a clean error here, never an
    /// out-of-bounds panic at repair time). A factored stratum's plans
    /// are rebuilt one at a time, each freed once its table is built,
    /// unless `solved` holds them: a design passes the plans its solves
    /// returned, which the rebuild would reproduce bit for bit. Must run
    /// after deserialization; `JointRepairPlan::design` and
    /// [`JointRepairPlan::from_json`] do it automatically.
    fn compile(
        &mut self,
        u: u8,
        config: &JointRepairConfig,
        solved: Option<[OtPlan; 2]>,
    ) -> Result<()> {
        if self.axes.len() < 2 {
            return Err(RepairError::PlanMismatch(format!(
                "joint stratum u={u}: needs at least 2 feature `axes`, got {}; \
                 re-design the plan with `otrepair design --joint`",
                self.axes.len()
            )));
        }
        // Repaired points are axis states: finite axes, finite output.
        let bad_axis = |g: &Vec<f64>| g.len() < 2 || g.iter().any(|v| !v.is_finite());
        if let Some((k, g)) = self.axes.iter().enumerate().find(|(_, g)| bad_axis(g)) {
            return Err(RepairError::PlanMismatch(format!(
                "joint stratum u={u}: axis {k} needs at least 2 finite states, got {g:?}"
            )));
        }
        let table = |s: usize, solved: Option<OtPlan>| {
            let plan = match solved {
                Some(plan) => Cow::Owned(plan),
                None => self.plan(u, s, config)?,
            };
            alias_table(&plan, "joint plan row", &format!("(u={u}, s={s})"))
        };
        let [solved0, solved1] = solved.map_or([None, None], |[p0, p1]| [Some(p0), Some(p1)]);
        self.alias = [table(0, solved0)?, table(1, solved1)?];
        let d = self.axes.len();
        let n: usize = self.axes.iter().map(Vec::len).product();
        self.points = Vec::with_capacity(n * d);
        let mut idx = vec![0usize; d];
        for _ in 0..n {
            for (a, &i) in idx.iter().enumerate() {
                self.points.push(self.axes[a][i]);
            }
            for a in (0..d).rev() {
                idx[a] += 1;
                if idx[a] < self.axes[a].len() {
                    break;
                }
                idx[a] = 0;
            }
        }
        Ok(())
    }

    /// The `s` plan: the stored dense one, or the factored solve's plan
    /// rebuilt at the plan solver's ε, either checked against the
    /// stratum's product grid first.
    fn plan(&self, u: u8, s: usize, config: &JointRepairConfig) -> Result<Cow<'_, OtPlan>> {
        let mismatch = |why: String| {
            Err(RepairError::PlanMismatch(format!(
                "joint stratum u={u}{why}"
            )))
        };
        let Some(n) = self
            .axes
            .iter()
            .try_fold(1usize, |n, g| n.checked_mul(g.len()))
        else {
            return mismatch(": the product grid has more states than a usize counts".into());
        };
        match (&self.plans, &self.factored) {
            (Some(plans), None) => {
                let plan = &plans[s];
                if plan.rows() != n || plan.cols() != n {
                    return mismatch(format!(
                        ", s={s}: plan is {}×{} but the product grid has {n} states",
                        plan.rows(),
                        plan.cols()
                    ));
                }
                Ok(Cow::Borrowed(plan))
            }
            (None, Some(factored)) => {
                // Checked before anything else: here `n` comes from the
                // axes alone, and the rebuild allocates `n²` cells.
                if !plan_fits(n) {
                    return mismatch(format!(
                        ": `factored` plans on the {n}-state product grid would rebuild {n}² \
                         cells each, more than the {MAX_PLAN_CELLS} a joint plan may hold"
                    ));
                }
                let SolverBackend::Sinkhorn { epsilon, .. } = config.plan_solver() else {
                    return mismatch(format!(
                        ": `factored` plans need a Sinkhorn plan solver, the config names `{}`",
                        config.plan_solver()
                    ));
                };
                let scalings = &factored.scalings[s];
                let fields = [
                    (format!("marginals[{s}]"), &factored.marginals[s]),
                    ("barycentre".into(), &factored.barycentre),
                    (format!("scalings[{s}].u"), &scalings.u),
                    (format!("scalings[{s}].v"), &scalings.v),
                ];
                for (field, values) in fields {
                    if values.len() != n {
                        return mismatch(format!(
                            ": `factored.{field}` holds {} values but the product grid has {n} \
                             states",
                            values.len()
                        ));
                    }
                    if let Some((i, x)) = values
                        .iter()
                        .enumerate()
                        .find(|(_, x)| !(x.is_finite() && **x > 0.0))
                    {
                        return mismatch(format!(
                            ": `factored.{field}[{i}]` = {x} is not a positive finite number"
                        ));
                    }
                }
                let axes: Vec<&[f64]> = self.axes.iter().map(Vec::as_slice).collect();
                let (a, b) = (&factored.marginals[s], &factored.barycentre);
                plan_from_scalings(a, b, &axes, epsilon, scalings, config.threads)
                    .map(Cow::Owned)
                    .or_else(|e| mismatch(format!(", s={s}: `factored` plan: {e}")))
            }
            (Some(_), Some(_)) => {
                mismatch(": holds both dense `plans` and `factored` plans".into())
            }
            (None, None) => mismatch(": holds neither dense `plans` nor `factored` plans".into()),
        }
    }
}

/// Convergence record of one stage of the entropic-barycentre
/// ε-schedule, as surfaced in a [`JointDesignReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BarycentreStageStat {
    /// Regularization of this annealing stage.
    pub eps: f64,
    /// Bregman iterations the stage ran.
    pub iterations: usize,
}

/// Design-time diagnostics of one `u`-stratum of a joint plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JointStratumReport {
    /// The stratum's unprotected-group label.
    pub u: u8,
    /// Total Bregman iterations the entropic barycentre ran (across all
    /// ε-schedule stages).
    pub barycentre_iterations: usize,
    /// L1 change of the barycentre over its final iteration.
    pub barycentre_final_delta: f64,
    /// Per-stage convergence of the barycentre's ε-schedule (a single
    /// entry when no schedule is configured).
    pub barycentre_stages: Vec<BarycentreStageStat>,
    /// Expected squared-Euclidean transport cost of the `s = 0` / `s = 1`
    /// plans — how far each subgroup's mass moves.
    pub plan_transport_cost: [f64; 2],
}

/// What `JointRepairPlan::design` measured while designing — the
/// convergence headroom that used to be swallowed (ROADMAP: "surface
/// `BarycentreDiagnostics` end-to-end"). Printed by
/// `otrepair design --joint --verbose` and archived by the perf-smoke
/// job as a workflow artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JointDesignReport {
    /// Grid points per dimension (`n_q^dims` product states).
    pub n_q: usize,
    /// Number of features repaired jointly (product-support axes).
    pub dims: usize,
    /// The design's entropic regularization.
    pub epsilon: f64,
    /// The ε-annealing schedule in effect (barycentre + default solver).
    pub eps_scaling: Option<EpsSchedule>,
    /// CLI spelling of the backend that designed the plans.
    pub solver: String,
    /// The Gibbs-kernel representation the design's entropic solves ran
    /// on: always `"separable"`, since product grids always factorize.
    pub kernel: String,
    /// Wall-clock seconds the design took (KDE + barycentres + plans).
    pub design_secs: f64,
    /// Per-`u`-stratum convergence diagnostics.
    pub strata: Vec<JointStratumReport>,
}

/// A designed joint repair for `d ≥ 2`-feature data. Serializable like
/// the per-feature [`crate::RepairPlan`] (`to_json` / `from_json`), so a
/// joint design is a deployable artifact too.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JointRepairPlan {
    config: JointRepairConfig,
    strata: Vec<JointStratum>, // indexed by u
}

impl JointRepairPlan {
    /// Design the joint plan from research data (`d`-dimensional
    /// Algorithm 1 over all of the data's features).
    ///
    /// # Errors
    /// Requires `dim ≥ 2`, valid config (a `Dense` kernel choice is
    /// refused before any work), adequately sized groups, and
    /// non-degenerate feature spreads.
    pub fn design(research: &Dataset, config: JointRepairConfig) -> Result<Self> {
        Self::design_with_report(research, config).map(|(plan, _)| plan)
    }

    /// [`JointRepairPlan::design`] returning the designed plan **and**
    /// its [`JointDesignReport`] (barycentre convergence per stratum,
    /// ε-schedule stage stats, plan transport costs, wall time).
    ///
    /// # Errors
    /// As [`JointRepairPlan::design`].
    pub fn design_with_report(
        research: &Dataset,
        config: JointRepairConfig,
    ) -> Result<(Self, JointDesignReport)> {
        if research.dim() < 2 {
            return Err(RepairError::PlanMismatch(format!(
                "joint repair needs d ≥ 2, got d = {}",
                research.dim()
            )));
        }
        if config.n_q < 4 {
            return Err(RepairError::InvalidParameter {
                name: "n_q",
                reason: format!("must be at least 4, got {}", config.n_q),
            });
        }
        let states = u32::try_from(research.dim())
            .ok()
            .and_then(|d| config.n_q.checked_pow(d));
        if !states.is_some_and(plan_fits) {
            return Err(RepairError::InvalidParameter {
                name: "n_q",
                reason: format!(
                    "{} states per axis on {} axes make plans of more than the \
                     {MAX_PLAN_CELLS} cells a joint plan may hold",
                    config.n_q,
                    research.dim()
                ),
            });
        }
        if !(config.epsilon > 0.0) {
            return Err(RepairError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be positive, got {}", config.epsilon),
            });
        }
        if !(0.0..=1.0).contains(&config.t) {
            return Err(RepairError::InvalidParameter {
                name: "t",
                reason: format!("must be in [0,1], got {}", config.t),
            });
        }
        let solver = config.plan_solver();
        solver.validate()?;
        // Reject 1-D-only backends before the expensive KDE and
        // barycentre stages run, not at the final solve.
        if solver == SolverBackend::ExactMonotone {
            return Err(RepairError::InvalidParameter {
                name: "solver",
                reason: "the exact monotone backend requires 1-D ordered supports; \
                         joint repair needs `Simplex` or `Sinkhorn`"
                    .into(),
            });
        }
        config.kernel.validate()?;
        // `Auto` and `Separable` design alike, so the plan records one
        // spelling and both write the same bytes.
        let config = JointRepairConfig {
            kernel: KernelChoice::Auto,
            ..config
        };

        // The two u-strata are independent (separate KDEs, barycentres,
        // and Sinkhorn solves — the expensive part of joint design);
        // design them concurrently with a deterministic error order.
        let start = Instant::now();
        let designed = try_par_map_indexed(2, config.threads, |u| {
            Self::design_stratum(research, u as u8, &config)
        })?;
        let design_secs = start.elapsed().as_secs_f64();
        let mut strata = Vec::with_capacity(2);
        let mut stratum_reports = Vec::with_capacity(2);
        for (stratum, report) in designed {
            strata.push(stratum);
            stratum_reports.push(report);
        }
        let report = JointDesignReport {
            n_q: config.n_q,
            dims: research.dim(),
            epsilon: config.epsilon,
            eps_scaling: config.eps_scaling,
            solver: config.plan_solver().to_string(),
            kernel: "separable".into(),
            design_secs,
            strata: stratum_reports,
        };
        Ok((Self { config, strata }, report))
    }

    fn design_stratum(
        research: &Dataset,
        u: u8,
        config: &JointRepairConfig,
    ) -> Result<(JointStratum, JointStratumReport)> {
        let d = research.dim();
        let mut cols: [Vec<Vec<f64>>; 2] = Default::default();
        for s in 0..2u8 {
            for k in 0..d {
                cols[s as usize].push(research.feature_column(GroupKey { u, s }, k)?);
            }
            if cols[s as usize][0].len() < config.min_group_size {
                return Err(RepairError::InsufficientResearchData {
                    u,
                    s,
                    found: cols[s as usize][0].len(),
                    needed: config.min_group_size,
                });
            }
        }
        let axis = |k: usize| -> Result<Vec<f64>> {
            let lo = cols[0][k]
                .iter()
                .chain(&cols[1][k])
                .copied()
                .fold(f64::INFINITY, f64::min);
            let hi = cols[0][k]
                .iter()
                .chain(&cols[1][k])
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            if !(lo < hi) {
                return Err(RepairError::InvalidParameter {
                    name: "research data",
                    reason: format!("feature {k} of group u={u} has zero spread"),
                });
            }
            Ok((0..config.n_q)
                .map(|i| lo + (hi - lo) * i as f64 / (config.n_q - 1) as f64)
                .collect())
        };
        let axes = (0..d).map(axis).collect::<Result<Vec<Vec<f64>>>>()?;
        let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();

        // d-variate KDE pmfs with a positivity floor (cf. plan.rs).
        let pmf = |s: usize| -> Result<Vec<f64>> {
            let col_refs: Vec<&[f64]> = cols[s].iter().map(Vec::as_slice).collect();
            let kde = GaussianKdeNd::fit(&col_refs)?;
            let mut pmf = kde.pmf_on_grid(&axis_refs)?;
            let floor = pmf.iter().copied().fold(0.0, f64::max) * 1e-12;
            for p in &mut pmf {
                *p = p.max(floor);
            }
            let total: f64 = pmf.iter().sum();
            for p in &mut pmf {
                *p /= total;
            }
            Ok(pmf)
        };
        let pmfs = [pmf(0)?, pmf(1)?];

        // Entropic W2 barycentre on the fixed product support (iterative
        // Bregman projections, annealed along the configured ε-schedule
        // — see otr_ot::barycentre). The grid_nd entry point factorizes
        // the Gibbs matvecs as d O(nQ^d·nQ) axis passes, chunked over
        // config.threads.
        let (bary, diagnostics) = entropic_barycentre_grid_nd(
            &[&pmfs[0], &pmfs[1]],
            &[1.0 - config.t, config.t],
            &axis_refs,
            &BarycentreConfig {
                eps: config.epsilon,
                max_iters: 5_000,
                tol: 1e-9,
                eps_scaling: config.eps_scaling,
                threads: config.threads,
                parallel_min_cells: None,
                kernel: config.kernel,
            },
        )?;

        // Plans µ_s -> ν under squared Euclidean cost on R^d, through the
        // configured backend (the seam rejects backends that need 1-D
        // structure and owns the Sinkhorn fallback policy); the solver's
        // in-kernel scaling updates ride the same thread setting, and
        // the product-grid cost constructor records the axis grids so
        // the entropic backend can factorize its kernel too. The dense
        // cost lives only as long as the solves and the report's
        // transport costs need it.
        let cost = CostMatrix::squared_euclidean_grid_nd(&axis_refs)?;
        let mut plan_transport_cost = [0.0f64; 2];
        let mut solve = |s: usize| -> Result<(OtPlan, Option<FactoredScalings>)> {
            let (plan, duals) = config.plan_solver().solve_with_cost_warm(
                &pmfs[s],
                &bary,
                &cost,
                config.threads,
                config.kernel,
                None,
            )?;
            plan_transport_cost[s] = plan.transport_cost(&cost)?;
            Ok((plan, duals.and_then(|d| d.scalings)))
        };
        let [(plan0, scalings0), (plan1, scalings1)] = [solve(0)?, solve(1)?];
        drop(cost);

        let (plans, factored, solved) = match (scalings0, scalings1) {
            (Some(s0), Some(s1)) => {
                let factored = FactoredPlans {
                    marginals: pmfs,
                    barycentre: bary,
                    scalings: [s0, s1],
                };
                (None, Some(factored), Some([plan0, plan1]))
            }
            _ => (Some([plan0, plan1]), None, None),
        };
        let mut stratum = JointStratum {
            axes,
            plans,
            factored,
            points: Vec::new(), // derived; compile() rebuilds it
            alias: Default::default(),
        };
        stratum.compile(u, config, solved)?;
        let report = Self::stratum_report(u, &diagnostics, plan_transport_cost);
        Ok((stratum, report))
    }

    /// Fold a stratum's barycentre diagnostics and plan costs into its
    /// design-report entry.
    fn stratum_report(
        u: u8,
        diagnostics: &BarycentreDiagnostics,
        plan_transport_cost: [f64; 2],
    ) -> JointStratumReport {
        JointStratumReport {
            u,
            barycentre_iterations: diagnostics.iterations,
            barycentre_final_delta: diagnostics.final_delta,
            barycentre_stages: diagnostics
                .stages
                .iter()
                .map(|&(eps, iterations)| BarycentreStageStat { eps, iterations })
                .collect(),
            plan_transport_cost,
        }
    }

    /// The per-dimension grid size.
    pub fn n_q(&self) -> usize {
        self.config.n_q
    }

    /// Number of features the plan repairs jointly (product-support
    /// axes per stratum).
    pub fn dims(&self) -> usize {
        self.strata[0].axes.len()
    }

    /// The configuration the plan was designed under.
    pub fn config(&self) -> &JointRepairConfig {
        &self.config
    }

    /// Serialize the joint plan to JSON (the deployable artifact; the
    /// derived alias tables and product support are rebuilt on load).
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| RepairError::Persistence(e.to_string()))
    }

    /// Load a joint plan from JSON and recompile its derived state.
    ///
    /// # Errors
    /// Propagates deserialization and recompilation failures, and
    /// rejects strata that disagree on the feature count `d`.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut plan: JointRepairPlan =
            serde_json::from_str(json).map_err(|e| RepairError::Persistence(e.to_string()))?;
        if plan.strata.len() != 2 {
            return Err(RepairError::Persistence(format!(
                "joint plan must carry exactly 2 u-strata, got {}",
                plan.strata.len()
            )));
        }
        for (u, stratum) in plan.strata.iter_mut().enumerate() {
            stratum.compile(u as u8, &plan.config, None)?;
        }
        let (d0, d1) = (plan.strata[0].axes.len(), plan.strata[1].axes.len());
        if d0 != d1 {
            return Err(RepairError::PlanMismatch(format!(
                "joint strata disagree on the feature count: u=0 has d = {d0}, u=1 has d = {d1}"
            )));
        }
        Ok(plan)
    }

    /// Retune the worker-thread count of a designed plan (deployment
    /// knob; `0` = auto). Has no effect on repair output, only on
    /// wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// Expected squared-Euclidean transport cost of the `(u, s)` plan —
    /// the design-time estimate of how far that subgroup's mass moves
    /// (a joint-repair damage diagnostic). A factored stratum rebuilds
    /// the plan for the call, and every stratum builds the dense grid
    /// cost: both are `nQ^{2d}` cells, freed on return.
    ///
    /// # Errors
    /// Rejects labels outside `{0, 1}`.
    pub fn expected_transport_cost(&self, u: u8, s: u8) -> Result<f64> {
        if u > 1 || s > 1 {
            return Err(RepairError::PlanMismatch(format!(
                "no joint plan for (u={u}, s={s})"
            )));
        }
        let stratum = &self.strata[u as usize];
        let plan = stratum.plan(u, s as usize, &self.config)?;
        let axis_refs: Vec<&[f64]> = stratum.axes.iter().map(Vec::as_slice).collect();
        let cost = CostMatrix::squared_euclidean_grid_nd(&axis_refs)?;
        Ok(plan.transport_cost(&cost)?)
    }

    /// Repair an entire data set jointly: draws **one** `u64` seed from
    /// `rng` and runs [`Self::repair_dataset_par`] under it, the same
    /// contract as [`crate::RepairPlan::repair_dataset`].
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset<R: Rng + ?Sized>(&self, data: &Dataset, rng: &mut R) -> Result<Dataset> {
        self.repair_dataset_par(data, rng.next_u64())
    }

    /// Repair an entire data set jointly, in parallel over its rows, row
    /// `i` drawing from `splitmix_seed(seed, i)`: the same bytes as
    /// [`Self::repair_columnar_par`] on the same rows, bit-identical for
    /// any `config.threads` setting.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_dataset_par(&self, data: &Dataset, seed: u64) -> Result<Dataset> {
        self.check_dim(data.dim())?;
        let pts = data.points();
        let points = par_map_indexed(pts.len(), self.config.threads, |i| {
            let p = &pts[i];
            let row_seed = splitmix_seed(seed, i as u64);
            let x = self.repair_row(p.s, p.u, p.x.iter().copied(), row_seed);
            LabelledPoint {
                x: x.to_vec(),
                s: p.s,
                u: p.u,
            }
        });
        Ok(Dataset::from_points(points)?)
    }

    /// Columnar joint repair of every row of `data`, row `i` drawing from
    /// `splitmix_seed(seed, i)` — the joint analogue of
    /// [`crate::RepairPlan::repair_columnar_par`] (`otrepair apply`),
    /// bit-identical for any `config.threads` setting.
    ///
    /// # Errors
    /// Rejects dimension mismatches.
    pub fn repair_columnar_par(
        &self,
        data: &ColumnarDataset,
        seed: u64,
    ) -> Result<ColumnarDataset> {
        let mut out: Vec<Vec<f64>> = (0..data.dim()).map(|_| vec![0.0; data.len()]).collect();
        self.repair_columnar_into(data, 0..data.len(), seed, 0, &mut out)?;
        Ok(data.with_feature_columns(out)?)
    }

    /// The in-place joint kernel, twin of
    /// [`crate::RepairPlan::repair_columnar_into`]: repairs rows `rows` of
    /// `data`, read in place, straight into `out` (one slice per feature,
    /// `rows.len()` long — e.g. one shard's range of a response buffer),
    /// row `i` drawing `splitmix_seed(seed, row_offset + i)`. Contiguous
    /// shards repaired into their ranges of one buffer are therefore
    /// byte-identical to one whole-archive call. Chunked over
    /// `config.threads`.
    ///
    /// # Errors
    /// Rejects dimension, row-range and `out` shape mismatches.
    pub fn repair_columnar_into<C: AsMut<[f64]>>(
        &self,
        data: &ColumnarDataset,
        rows: Range<usize>,
        seed: u64,
        row_offset: u64,
        out: &mut [C],
    ) -> Result<()> {
        self.check_dim(data.dim())?;
        check_out_fits(data, &rows, out)?;
        let (row0, s, u, cols) = (rows.start, data.s(), data.u(), data.feature_columns());
        par_cols_mut(out, self.config.threads, |start, chunk| {
            for li in 0..chunk.first().map_or(0, |c| c.len()) {
                let i = row0 + start + li;
                let row_seed = splitmix_seed(seed, row_offset + i as u64);
                let state = self.repair_row(s[i], u[i], cols.iter().map(|c| c[i]), row_seed);
                for (col, &v) in chunk.iter_mut().zip(state) {
                    col[li] = v;
                }
            }
        });
        Ok(())
    }

    fn check_dim(&self, dim: usize) -> Result<()> {
        let d = self.dims();
        if dim != d {
            return Err(RepairError::PlanMismatch(format!(
                "joint repair needs d = {d}, got d = {dim}"
            )));
        }
        Ok(())
    }

    /// Algorithm 2 on the product grid, the per-row step of both the row
    /// driver and the in-place kernel: the grid state nearest `x` in
    /// stratum `u`, then one alias draw from that state's row of the `s`
    /// plan under an RNG seeded with `row_seed`. Returns the drawn
    /// state's `d` coordinates.
    fn repair_row(&self, s: u8, u: u8, x: impl Iterator<Item = f64>, row_seed: u64) -> &[f64] {
        let stratum = &self.strata[usize::from(u)];
        let cell = |grid: &[f64], v: f64| -> usize {
            let n = grid.len();
            if v <= grid[0] {
                return 0;
            }
            if v >= grid[n - 1] {
                return n - 1;
            }
            let step = (grid[n - 1] - grid[0]) / (n - 1) as f64;
            (((v - grid[0]) / step) + 0.5).floor() as usize % n
        };
        let mut row = 0usize;
        for (g, v) in stratum.axes.iter().zip(x) {
            row = row * g.len() + cell(g, v);
        }
        let mut rng = StdRng::seed_from_u64(row_seed);
        let target = stratum.alias[usize::from(s)].sample(row, &mut rng);
        let d = stratum.axes.len();
        &stratum.points[target * d..(target + 1) * d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::SimulationSpec;
    use otr_fairness::JointDependence;
    use otr_stats::linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn correlation_spec() -> SimulationSpec {
        let cov = |rho: f64| Matrix::from_rows(2, 2, vec![1.0, rho, rho, 1.0]).unwrap();
        SimulationSpec {
            means: [
                [vec![0.0, 0.0], vec![0.0, 0.0]],
                [vec![0.0, 0.0], vec![0.0, 0.0]],
            ],
            sigma: 1.0,
            covs: Some([[cov(0.8), cov(-0.8)], [cov(0.8), cov(-0.8)]]),
            pr_u0: 0.5,
            pr_s0_given_u: [0.4, 0.4],
        }
    }

    #[test]
    fn joint_repair_quenches_correlation_dependence() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(1);
        let split = spec.generate(1_500, 3_000, &mut rng).unwrap();
        let plan = JointRepairPlan::design(&split.research, JointRepairConfig::default()).unwrap();
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();

        let jd = JointDependence::default();
        let before = jd.evaluate(&split.archive).unwrap();
        let after = jd.evaluate(&repaired).unwrap();
        assert!(
            after < before * 0.5,
            "joint repair must reduce joint E: {before} -> {after}"
        );
    }

    #[test]
    fn per_feature_repair_misses_correlation_dependence() {
        use crate::{RepairConfig, RepairPlanner};
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(2);
        let split = spec.generate(1_500, 3_000, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
            .design(&split.research)
            .unwrap();
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
        let jd = JointDependence::default();
        let before = jd.evaluate(&split.archive).unwrap();
        let after = jd.evaluate(&repaired).unwrap();
        // The marginal repair cannot remove correlation-borne dependence.
        assert!(
            after > before * 0.4,
            "per-feature repair unexpectedly removed joint dependence: {before} -> {after}"
        );
    }

    #[test]
    fn repaired_points_live_on_product_grid() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(3);
        let split = spec.generate(800, 500, &mut rng).unwrap();
        let plan = JointRepairPlan::design(&split.research, JointRepairConfig::default()).unwrap();
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
        assert_eq!(repaired.len(), split.archive.len());
        for p in repaired.points().iter().take(100) {
            let stratum = &plan.strata[p.u as usize];
            for (g, &v) in stratum.axes.iter().zip(&p.x) {
                assert!(g.iter().any(|&q| (q - v).abs() < 1e-9));
            }
        }
    }

    #[test]
    fn expected_transport_cost_positive_and_bounded() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(5);
        let research = spec.sample_dataset(900, &mut rng).unwrap();
        let plan = JointRepairPlan::design(&research, JointRepairConfig::default()).unwrap();
        for u in 0..2u8 {
            for s in 0..2u8 {
                let c = plan.expected_transport_cost(u, s).unwrap();
                // Rotating correlation by 90 degrees moves mass about one
                // unit on average; the cost must be positive but far below
                // the grid diameter squared.
                assert!(c > 0.0, "(u={u}, s={s}): {c}");
                assert!(c < 20.0, "(u={u}, s={s}): {c}");
            }
        }
        assert!(plan.expected_transport_cost(2, 0).is_err());
    }

    #[test]
    fn respects_configured_backend() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(6);
        let research = spec.sample_dataset(600, &mut rng).unwrap();

        // Without an override, the plans follow the config's epsilon
        // and its ε-schedule (on by default for joint design).
        let cfg = JointRepairConfig::default();
        assert!(cfg.eps_scaling.is_some());
        assert_eq!(
            cfg.plan_solver(),
            SolverBackend::Sinkhorn {
                epsilon: cfg.epsilon,
                eps_scaling: cfg.eps_scaling,
            }
        );

        // The exact simplex is a valid joint backend (coarse grid: the
        // simplex is O(n³)-class on n_q² states).
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 6;
        cfg.solver = Some(SolverBackend::Simplex);
        let plan = JointRepairPlan::design(&research, cfg).unwrap();
        let repaired = plan.repair_dataset(&research, &mut rng).unwrap();
        assert_eq!(repaired.len(), research.len());

        // A backend needing 1-D structure is rejected, not ignored.
        let mut cfg = JointRepairConfig::default();
        cfg.solver = Some(SolverBackend::ExactMonotone);
        assert!(JointRepairPlan::design(&research, cfg).is_err());

        // Invalid Sinkhorn epsilon is caught by the seam's validation.
        let mut cfg = JointRepairConfig::default();
        cfg.solver = Some(SolverBackend::sinkhorn(-0.5));
        assert!(JointRepairPlan::design(&research, cfg).is_err());
    }

    #[test]
    fn design_report_surfaces_barycentre_convergence() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(9);
        let research = spec.sample_dataset(700, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8;
        let (_plan, report) = JointRepairPlan::design_with_report(&research, cfg).unwrap();
        assert_eq!(report.n_q, 8);
        assert_eq!(report.epsilon, cfg.epsilon);
        assert_eq!(report.eps_scaling, cfg.eps_scaling);
        assert_eq!(report.solver, cfg.plan_solver().to_string());
        // The report names the resolved representation: the joint cost
        // is grid-separable, so the default resolves to separable.
        assert_eq!(report.kernel, "separable");
        assert!(report.design_secs > 0.0);
        assert_eq!(report.strata.len(), 2);
        let expected_stages = cfg.eps_scaling.unwrap().stages(cfg.epsilon).len();
        for (u, stratum) in report.strata.iter().enumerate() {
            assert_eq!(stratum.u, u as u8);
            assert!(stratum.barycentre_iterations > 0);
            assert!(stratum.barycentre_final_delta.is_finite());
            assert_eq!(stratum.barycentre_stages.len(), expected_stages);
            assert_eq!(
                stratum.barycentre_iterations,
                stratum
                    .barycentre_stages
                    .iter()
                    .map(|s| s.iterations)
                    .sum::<usize>()
            );
            for cost in stratum.plan_transport_cost {
                assert!(cost > 0.0 && cost.is_finite());
            }
        }
        // The report is the perf-smoke artifact: it must serialize.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("barycentre_stages"));
    }

    #[test]
    fn malformed_joint_plan_json_is_an_error_not_a_panic() {
        // A joint plan JSON is a user-supplied file: missing strata,
        // degenerate grids, and grid/plan shape mismatches must all be
        // clean errors from from_json, never index panics at repair
        // time.
        let no_strata = r#"{"config":{"n_q":8,"epsilon":0.05,"t":0.5,"min_group_size":10,
            "solver":null,"eps_scaling":null},"strata":[]}"#;
        assert!(JointRepairPlan::from_json(no_strata).is_err());

        // Shape mismatch straight at the compile layer: a 2×2 product
        // grid (4 states) fed plans of the wrong dimension.
        let plan3 = OtPlan::from_dense(3, 3, vec![1.0 / 9.0; 9]).unwrap();
        let config = JointRepairConfig::default();
        let mut stratum = JointStratum {
            axes: vec![vec![0.0, 1.0]; 2],
            points: Vec::new(),
            plans: Some([plan3.clone(), plan3]),
            factored: None,
            alias: Default::default(),
        };
        assert!(matches!(
            stratum.compile(0, &config, None),
            Err(RepairError::PlanMismatch(_))
        ));
        // Degenerate single-state axis grid.
        let plan2 = OtPlan::from_dense(2, 2, vec![0.25; 4]).unwrap();
        let mut stratum = JointStratum {
            axes: vec![vec![0.0], vec![0.0, 1.0]],
            points: Vec::new(),
            plans: Some([plan2.clone(), plan2]),
            factored: None,
            alias: Default::default(),
        };
        assert!(matches!(
            stratum.compile(1, &config, None),
            Err(RepairError::PlanMismatch(_))
        ));
        // Each stratum is well formed on its own, but u = 0 repairs
        // d = 2 rows and u = 1 d = 3 rows.
        let stratum = |d: usize| {
            let n = 1 << d;
            let plan = OtPlan::from_dense(n, n, vec![1.0 / (n * n) as f64; n * n]).unwrap();
            JointStratum {
                axes: vec![vec![0.0, 1.0]; d],
                points: Vec::new(),
                plans: Some([plan.clone(), plan]),
                factored: None,
                alias: Default::default(),
            }
        };
        let mixed = JointRepairPlan {
            config: JointRepairConfig::default(),
            strata: vec![stratum(2), stratum(3)],
        };
        assert!(matches!(
            JointRepairPlan::from_json(&mixed.to_json().unwrap()),
            Err(RepairError::PlanMismatch(_))
        ));
    }

    #[test]
    fn joint_plan_json_round_trip_preserves_repair() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(10);
        let split = spec.generate(500, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8; // keep the n_q² solves cheap
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let json = plan.to_json().unwrap();
        let back = JointRepairPlan::from_json(&json).unwrap();
        assert_eq!(back.n_q(), plan.n_q());
        assert_eq!(back.config().epsilon, plan.config().epsilon);
        // Threads are machine-local runtime policy: never persisted.
        assert_eq!(back.config().threads, 0);
        // Identical repairs under the same seed (JSON costs one f64
        // round trip, so compare repaired values, not raw plan bits).
        let a = plan.repair_dataset_par(&split.archive, 33).unwrap();
        let b = back.repair_dataset_par(&split.archive, 33).unwrap();
        for (x, y) in a.points().iter().zip(b.points()) {
            for (xa, xb) in x.x.iter().zip(&y.x) {
                assert!((xa - xb).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parallel_joint_repair_identical_across_thread_counts() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(7);
        let split = spec.generate(400, 600, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8; // keep the n_q² Sinkhorn solves cheap
        let mut plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let mut reference: Option<Dataset> = None;
        for threads in [1usize, 2, 7] {
            plan.set_threads(threads);
            let out = plan.repair_dataset_par(&split.archive, 11).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(out.points(), r.points(), "threads = {threads}"),
            }
        }
        // The `&mut rng` entry point is the seeded path under one draw.
        let start = StdRng::seed_from_u64(11);
        let mut advanced = start.clone();
        let seeded = plan
            .repair_dataset_par(&split.archive, advanced.next_u64())
            .unwrap();
        let mut rng = start;
        let out = plan.repair_dataset(&split.archive, &mut rng).unwrap();
        assert_eq!(out.points(), seeded.points());
        assert_eq!(rng, advanced, "repair_dataset must draw exactly one u64");
    }

    #[test]
    fn sharded_joint_repair_matches_whole_archive() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(12);
        let split = spec.generate(400, 500, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 8; // keep the n_q² Sinkhorn solves cheap
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        // The row driver and the in-place kernel draw the same bytes.
        let whole =
            ColumnarDataset::from_dataset(&plan.repair_dataset_par(&split.archive, 21).unwrap());
        let archive = ColumnarDataset::from_dataset(&split.archive);
        assert_eq!(plan.repair_columnar_par(&archive, 21).unwrap(), whole);
        let n = archive.len();
        for shards in [2usize, 7] {
            // Each shard repaired in place into its range of one buffer:
            // once reading the archive itself (`row_offset = 0`), once
            // reading a sliced copy keyed by the shard's start row.
            let mut out = vec![vec![0.0; n]; plan.dims()];
            let mut offset_out = vec![vec![0.0; n]; plan.dims()];
            let (base, rem) = (n / shards, n % shards);
            let mut start = 0usize;
            for sh in 0..shards {
                let rows = start..start + base + usize::from(sh < rem);
                let mut range: Vec<&mut [f64]> =
                    out.iter_mut().map(|c| &mut c[rows.clone()]).collect();
                plan.repair_columnar_into(&archive, rows.clone(), 21, 0, &mut range)
                    .unwrap();
                let shard = archive.slice_rows(rows.clone()).unwrap();
                let mut range: Vec<&mut [f64]> = offset_out
                    .iter_mut()
                    .map(|c| &mut c[rows.clone()])
                    .collect();
                plan.repair_columnar_into(
                    &shard,
                    0..shard.len(),
                    21,
                    rows.start as u64,
                    &mut range,
                )
                .unwrap();
                start = rows.end;
            }
            assert_eq!(out, whole.feature_columns(), "shards = {shards}");
            assert_eq!(offset_out, whole.feature_columns(), "shards = {shards}");
        }
        // Ranges past the archive and misshapen outputs are errors.
        let mut short = vec![vec![0.0; 2]; plan.dims()];
        assert!(plan
            .repair_columnar_into(&archive, n - 1..n + 1, 21, 0, &mut short)
            .is_err());
        assert!(plan
            .repair_columnar_into(&archive, 0..3, 21, 0, &mut short)
            .is_err());
    }

    /// Three features whose pairwise correlation on the first two axes
    /// flips sign with `s` — invisible to per-feature repair, and now
    /// representable by the d-axis joint design.
    fn correlation_spec_3d() -> SimulationSpec {
        let cov = |rho: f64| {
            Matrix::from_rows(3, 3, vec![1.0, rho, 0.0, rho, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap()
        };
        SimulationSpec {
            means: [[vec![0.0; 3], vec![0.0; 3]], [vec![0.0; 3], vec![0.0; 3]]],
            sigma: 1.0,
            covs: Some([[cov(0.8), cov(-0.8)], [cov(0.8), cov(-0.8)]]),
            pr_u0: 0.5,
            pr_s0_given_u: [0.4, 0.4],
        }
    }

    #[test]
    fn three_feature_joint_design_repairs_onto_product_grid() {
        let spec = correlation_spec_3d();
        let mut rng = StdRng::seed_from_u64(21);
        let split = spec.generate(900, 400, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 5; // 125 product states keeps the n_q³ solves cheap
        let (plan, report) = JointRepairPlan::design_with_report(&split.research, cfg).unwrap();
        assert_eq!(plan.dims(), 3);
        assert_eq!(report.dims, 3);
        assert_eq!(report.n_q, 5);
        let repaired = plan.repair_dataset_par(&split.archive, 17).unwrap();
        assert_eq!(repaired.len(), split.archive.len());
        for p in repaired.points() {
            let stratum = &plan.strata[p.u as usize];
            assert_eq!(stratum.axes.len(), 3);
            for (g, &v) in stratum.axes.iter().zip(&p.x) {
                assert!(g.iter().any(|&q| (q - v).abs() < 1e-9));
            }
        }
        for u in 0..2u8 {
            for s in 0..2u8 {
                let c = plan.expected_transport_cost(u, s).unwrap();
                assert!(c > 0.0 && c.is_finite(), "(u={u}, s={s}): {c}");
            }
        }
        // 2-feature data is rejected against a 3-feature plan, by both
        // drivers.
        let flat = correlation_spec().sample_dataset(50, &mut rng).unwrap();
        assert!(matches!(
            plan.repair_dataset_par(&flat, 17),
            Err(RepairError::PlanMismatch(_))
        ));
        assert!(matches!(
            plan.repair_columnar_par(&ColumnarDataset::from_dataset(&flat), 17),
            Err(RepairError::PlanMismatch(_))
        ));
    }

    #[test]
    fn three_feature_repair_identical_across_thread_counts() {
        let spec = correlation_spec_3d();
        let mut rng = StdRng::seed_from_u64(22);
        let split = spec.generate(700, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 4; // 64 product states keep the n_q³ solves cheap
        let mut plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let mut reference: Option<Dataset> = None;
        for threads in [1usize, 2, 7] {
            plan.set_threads(threads);
            let out = plan.repair_dataset_par(&split.archive, 19).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(out.points(), r.points(), "threads = {threads}"),
            }
        }
    }

    #[test]
    fn three_feature_plan_json_round_trip_preserves_repair() {
        let spec = correlation_spec_3d();
        let mut rng = StdRng::seed_from_u64(23);
        let split = spec.generate(700, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 4;
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let json = plan.to_json().unwrap();
        let back = JointRepairPlan::from_json(&json).unwrap();
        assert_eq!(back.dims(), 3);
        assert_eq!(back.n_q(), plan.n_q());
        let a = plan.repair_dataset_par(&split.archive, 33).unwrap();
        let b = back.repair_dataset_par(&split.archive, 33).unwrap();
        for (x, y) in a.points().iter().zip(b.points()) {
            for (xa, xb) in x.x.iter().zip(&y.x) {
                assert!((xa - xb).abs() < 1e-9);
            }
        }
    }

    /// `json` (a joint plan) with every stratum object edited by `edit`.
    fn edit_strata(
        json: &str,
        mut edit: impl FnMut(&mut Vec<(String, serde_json::Value)>),
    ) -> String {
        let mut v: serde_json::Value = serde_json::from_str(json).unwrap();
        let serde_json::Value::Obj(entries) = &mut v else {
            panic!("plan JSON must be an object");
        };
        let strata = &mut entries.iter_mut().find(|(k, _)| k == "strata").unwrap().1;
        let serde_json::Value::Arr(items) = strata else {
            panic!("strata must be an array");
        };
        for stratum in items {
            let serde_json::Value::Obj(fields) = stratum else {
                panic!("stratum must be an object");
            };
            edit(fields);
        }
        serde_json::to_string(&v).unwrap()
    }

    #[test]
    fn joint_plans_load_by_their_axes_alone() {
        // Plans written before `gx`/`gy`/`duals` and the schedule's
        // stage budget were dropped carry them next to `axes`: they load
        // and repair byte-identically. Plans
        // older still carry `gx`/`gy` without `axes`: they fail, naming
        // the command that writes a loadable plan.
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(24);
        let split = spec.generate(500, 300, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 6;
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let json = plan.to_json().unwrap();
        let axis = |fields: &[(String, serde_json::Value)], a: usize| {
            let (_, axes) = fields.iter().find(|(k, _)| k == "axes").unwrap();
            axes.as_arr().unwrap()[a].clone()
        };
        let duals = serde_json::Value::Obj(vec![
            (
                "f".into(),
                serde_json::Value::Arr(vec![serde_json::Value::Num(0.5); 36]),
            ),
            (
                "g".into(),
                serde_json::Value::Arr(vec![serde_json::Value::Num(-0.5); 36]),
            ),
        ]);
        let budget = r#""factor":0.25,"stage_iters":0,"stage_tol":0.0}"#;
        assert!(json.contains(r#""factor":0.25}"#));
        let parent = json.replacen(r#""factor":0.25}"#, budget, 1);
        let parent = edit_strata(&parent, |fields| {
            let (gx, gy) = (axis(fields, 0), axis(fields, 1));
            fields.insert(0, ("gy".into(), gy));
            fields.insert(0, ("gx".into(), gx));
            fields.push((
                "duals".into(),
                serde_json::Value::Arr(vec![duals.clone(); 2]),
            ));
        });
        let back = JointRepairPlan::from_json(&parent).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        let a = plan.repair_dataset_par(&split.archive, 41).unwrap();
        let b = back.repair_dataset_par(&split.archive, 41).unwrap();
        assert_eq!(a.points(), b.points());

        let legacy = edit_strata(&parent, |fields| fields.retain(|(k, _)| k != "axes"));
        let err = JointRepairPlan::from_json(&legacy).unwrap_err();
        assert!(matches!(err, RepairError::PlanMismatch(_)), "{err}");
        assert!(err.to_string().contains("design --joint"), "{err}");
    }

    /// The bits of every repaired coordinate.
    fn repaired_bits(plan: &JointRepairPlan, archive: &Dataset) -> Vec<u64> {
        let out = plan.repair_dataset_par(archive, 37).unwrap();
        out.points()
            .iter()
            .flat_map(|p| p.x.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn factored_strata_reload_to_the_designed_bits() {
        // Both strata of these designs end in the factored domain, so the
        // artifact holds scalings, not plans. Reloaded, each plan is
        // rebuilt to the designed bits: its transport cost is the
        // report's, bit for bit, and it repairs to the same bytes at any
        // thread count.
        for (spec, n_q) in [(correlation_spec(), 8), (correlation_spec_3d(), 6)] {
            let mut rng = StdRng::seed_from_u64(25);
            let split = spec.generate(600, 300, &mut rng).unwrap();
            let config = JointRepairConfig {
                n_q,
                epsilon: 0.1,
                ..JointRepairConfig::default()
            };
            let (mut plan, report) =
                JointRepairPlan::design_with_report(&split.research, config).unwrap();
            let json = plan.to_json().unwrap();
            assert!(!json.contains("\"plans\""), "d = {}", plan.dims());
            let mut back = JointRepairPlan::from_json(&json).unwrap();
            assert_eq!(back.to_json().unwrap(), json);
            for (u, stratum) in report.strata.iter().enumerate() {
                for s in 0..2 {
                    let cost = back.expected_transport_cost(u as u8, s as u8).unwrap();
                    assert_eq!(cost.to_bits(), stratum.plan_transport_cost[s].to_bits());
                }
            }
            for threads in [1usize, 2, 7] {
                plan.set_threads(threads);
                back.set_threads(threads);
                assert!(
                    repaired_bits(&back, &split.archive) == repaired_bits(&plan, &split.archive),
                    "d = {}, threads = {threads}",
                    plan.dims()
                );
            }
        }
    }

    #[test]
    fn factored_artifacts_grow_with_the_states_not_the_cells() {
        // From nQ = 6 to 12 at d = 2 the states grow 4× and the cells
        // 16×: a dense artifact grows about 16×, a factored one about 4×.
        let mut rng = StdRng::seed_from_u64(23);
        let research = correlation_spec()
            .generate(600, 300, &mut rng)
            .unwrap()
            .research;
        let bytes = |n_q: usize| {
            let config = JointRepairConfig {
                n_q,
                epsilon: 0.1,
                ..JointRepairConfig::default()
            };
            let plan = JointRepairPlan::design(&research, config).unwrap();
            plan.to_json().unwrap().len()
        };
        let (coarse, fine) = (bytes(6), bytes(12));
        assert!(fine < 8 * coarse, "{coarse} -> {fine} bytes");
    }

    #[test]
    fn factored_strata_are_checked_before_any_rebuild() {
        // What a factored stratum holds is user-supplied too: a bad
        // scaling, mass or length, both forms or neither, and a plan
        // solver with no ε to rebuild at are clean errors naming the
        // stratum and the field.
        let mut rng = StdRng::seed_from_u64(10);
        let research = correlation_spec()
            .generate(600, 300, &mut rng)
            .unwrap()
            .research;
        let config = JointRepairConfig {
            n_q: 6,
            epsilon: 0.1,
            ..JointRepairConfig::default()
        };
        let plan = JointRepairPlan::design(&research, config).unwrap();
        let stratum = &plan.strata[1];
        assert!(stratum.factored.is_some() && stratum.plans.is_none());
        let compile = |edit: &dyn Fn(&mut JointStratum), config: &JointRepairConfig| {
            let mut bad = stratum.clone();
            edit(&mut bad);
            bad.compile(1, config, None).unwrap_err().to_string()
        };
        let scaling = |x: f64| {
            move |st: &mut JointStratum| st.factored.as_mut().unwrap().scalings[0].u[4] = x
        };
        for x in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = compile(&scaling(x), &config);
            let want = format!("u=1: `factored.scalings[0].u[4]` = {x} is not a positive finite");
            assert!(err.contains(&want), "{err}");
        }
        let err = compile(
            &|st| {
                st.factored.as_mut().unwrap().scalings[1].v.pop();
            },
            &config,
        );
        assert!(
            err.contains("u=1: `factored.scalings[1].v` holds 35 values"),
            "{err}"
        );
        let err = compile(
            &|st| st.factored.as_mut().unwrap().barycentre[2] = -1e-3,
            &config,
        );
        assert!(
            err.contains("u=1: `factored.barycentre[2]` = -0.001"),
            "{err}"
        );
        let err = compile(
            &|st| st.factored.as_mut().unwrap().marginals[1][0] = f64::NAN,
            &config,
        );
        assert!(
            err.contains("u=1: `factored.marginals[1][0]` = NaN"),
            "{err}"
        );
        let dense = OtPlan::from_dense(36, 36, vec![1.0; 36 * 36]).unwrap();
        let err = compile(
            &|st| st.plans = Some([dense.clone(), dense.clone()]),
            &config,
        );
        assert!(err.contains("u=1: holds both"), "{err}");
        let err = compile(&|st| st.factored = None, &config);
        assert!(err.contains("u=1: holds neither"), "{err}");
        // Axes of 77 points make 5929² cells, over the cap, refused before
        // anything is rebuilt; 76 points (5776² cells) are under it and
        // reach the length checks.
        let axes = |k: usize| move |st: &mut JointStratum| st.axes = vec![vec![0.0; k]; 2];
        let err = compile(&axes(77), &config);
        assert!(
            err.contains("u=1: `factored` plans on the 5929-state product grid would rebuild"),
            "{err}"
        );
        let err = compile(&axes(76), &config);
        assert!(err.contains("has 5776 states"), "{err}");
        let simplex = JointRepairConfig {
            solver: Some(SolverBackend::Simplex),
            ..config
        };
        let err = compile(&|_| {}, &simplex);
        assert!(
            err.contains("u=1: `factored` plans need a Sinkhorn plan solver"),
            "{err}"
        );
        // Untouched, the rebuilt plans compile to the tables design built
        // from the plans its solves returned.
        let mut same = stratum.clone();
        same.compile(1, &config, None).unwrap();
        assert_eq!(same.alias, stratum.alias);
        assert_eq!(same.points, stratum.points);
    }

    #[test]
    fn rejects_bad_inputs() {
        let spec = correlation_spec();
        let mut rng = StdRng::seed_from_u64(4);
        let research = spec.sample_dataset(800, &mut rng).unwrap();
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 2;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
        let mut cfg = JointRepairConfig::default();
        cfg.epsilon = 0.0;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
        let mut cfg = JointRepairConfig::default();
        cfg.t = 2.0;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
        let mut cfg = JointRepairConfig::default();
        cfg.min_group_size = 10_000;
        assert!(JointRepairPlan::design(&research, cfg).is_err());
        // A grid whose plans no load may rebuild is refused before any
        // work: 77² states at d = 2, 18³ at d = 3.
        let mut cfg = JointRepairConfig::default();
        cfg.n_q = 77;
        let err = JointRepairPlan::design(&research, cfg).unwrap_err();
        assert!(
            err.to_string().contains("77 states per axis on 2 axes"),
            "{err}"
        );
        let research = correlation_spec_3d().sample_dataset(300, &mut rng).unwrap();
        cfg.n_q = 18;
        let err = JointRepairPlan::design(&research, cfg).unwrap_err();
        assert!(
            err.to_string().contains("18 states per axis on 3 axes"),
            "{err}"
        );
    }
}
