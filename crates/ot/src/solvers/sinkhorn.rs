//! Entropic-regularized optimal transport: the Sinkhorn–Knopp algorithm
//! (Cuturi 2013, the paper's reference \[35\]), built around three
//! coordinated performance ideas:
//!
//! * one **standard-domain scaling loop** — `u = a / (K v)`,
//!   `v = b / (Kᵀ u)` — over the Gibbs kernel in one of two
//!   representations: the dense *absorbed* kernel
//!   `K̃ = exp((φ_i + ψ_j − C_ij)/ε)`, whose drifting scalings are
//!   absorbed into the dual potentials `φ, ψ` and the kernel rebuilt
//!   (Schmitzer 2019's stabilization), so it serves *any* `ε` instead of
//!   only `max(C)/ε ≤ 500`; or, on a product-grid cost, the factorized
//!   `K₁ ⊗ … ⊗ K_d`, applied one axis at a time, which cannot absorb and
//!   gives up past a fixed scaling range;
//! * a **log-domain fallback** — dual potentials updated through
//!   log-sum-exp against the dense cost — entered only if the standard
//!   loop turns non-finite, stalls or gives up (a pure function of the
//!   iterates, so the switch is deterministic);
//! * an optional **ε-scaling schedule with warm-started duals**
//!   ([`EpsSchedule`]): anneal geometrically from `ε₀` down to the
//!   target `ε`, carrying the converged potentials of each stage into
//!   the next ([`sinkhorn_warm`]). Warm duals cut the iteration count
//!   at the final (expensive) `ε` by an order of magnitude; the stage
//!   list is a pure function of the config, so scheduling never breaks
//!   the determinism contract below.
//!
//! A dense domain holds **one `np × mp` buffer**, built from the cost —
//! the absorbed kernel or the log domain's exponents `−C/ε` — and
//! turns it into the plan in place. The hot loops chunk their row and
//! column passes over [`otr_par::par_chunks_mut`] once the kernel
//! crosses the [`otr_par::kernel_threads`] size threshold, and a
//! **column pass walks the rows**: each thread owns a range of columns
//! and adds every row's contiguous segment to them, rows ascending, so
//! no transposed copy is needed. Every output element is written by
//! exactly one thread and accumulated in a fixed order, and all
//! cross-row reductions (marginal residuals, absorption drift, rounding
//! mass totals) are summed sequentially on the calling thread: the
//! returned plan is **bit-identical for any thread count**.
//!
//! Section IV-A1 of the paper contrasts unregularized OT's
//! `O(nQ³ log nQ)` with Sinkhorn's `O(nQ²/ε²)`; the `ablation_sinkhorn`
//! experiment in `otr-bench` measures the repair-quality/runtime trade-off
//! this buys.

use serde::{Deserialize, Serialize};

use otr_par::{par_chunks_mut, par_cols_mut, par_rows_mut};

use crate::cost::{fold_grid_row, CostMatrix};
use crate::coupling::OtPlan;
use crate::discrete::normalized_mass;
use crate::error::{OtError, Result};
use crate::kernel::{KernelRep, SCALING_FLOOR};

/// Iterations between convergence / absorption checks: the `O(n²)`
/// residual amortizes to noise at this cadence.
const CHECK_CADENCE: usize = 10;

/// Largest `max(|ln u|, |ln v|)` scaling drift the standard-domain
/// iteration tolerates before absorbing the scalings into the dual
/// potentials and rebuilding the kernel. Products `u_i K̃_ij v_j` stay
/// below `exp(2 · 250) = e⁵⁰⁰`, comfortably inside f64 range.
const ABSORB_DRIFT: f64 = 250.0;

/// Consecutive non-improving residual checks before the standard
/// iteration is declared stalled and the log-domain fallback takes
/// over (30 checks × cadence 10 = 300 iterations of grace).
const STALL_CHECKS: usize = 30;

/// Largest `max(|ln U|, |ln V|)` total-scaling drift the **separable**
/// standard domain tolerates. Its factored kernel cannot be rebuilt
/// around the dual potentials (that would break the `K₁ ⊗ … ⊗ K_d`
/// structure), so the scaling vectors carry the *full* duals; past this
/// bound the products `U_i · K_ij · V_j` risk leaving f64 range and
/// the stage bails to the log domain instead
/// (`2 · 340 < ln f64::MAX ≈ 709`).
const SEPARABLE_SCALING_MAX: f64 = 340.0;

/// Hard cap on ε-schedule stages (a floor-bound geometric schedule with
/// a factor very close to 1 would otherwise explode); past the cap the
/// schedule jumps straight to the final ε.
const MAX_STAGES: usize = 64;

/// A deterministic geometric ε-annealing schedule: solve at
/// `ε₀, ε₀·factor, ε₀·factor², …` (each stage warm-starting the next's
/// dual potentials) until the sequence crosses the target ε, which is
/// always the final stage. A pure function of the config — the stage
/// list never depends on data, threads, or timing — so scheduled solves
/// keep the bit-identical-for-any-thread-count contract.
///
/// Intermediate stages only need to *warm the duals*, so they run under
/// a loose tolerance and a small iteration cap
/// ([`STAGE_TOL`](Self::STAGE_TOL), [`STAGE_ITERS`](Self::STAGE_ITERS));
/// only the final stage enforces the caller's `tol`/`max_iters`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsSchedule {
    /// Starting regularization `ε₀` (> the target ε for the schedule to
    /// have any effect; a start at or below the target collapses to the
    /// single final stage).
    pub eps0: f64,
    /// Geometric decay factor per stage, strictly inside `(0, 1)`.
    pub factor: f64,
}

impl Default for EpsSchedule {
    /// `ε₀ = 1.0`, factor `0.25`: for the paper's joint `ε = 0.05` this
    /// anneals through `1.0 → 0.25 → 0.0625 → 0.05`.
    fn default() -> Self {
        Self::geometric(1.0, 0.25)
    }
}

impl EpsSchedule {
    /// Iteration cap of every intermediate stage.
    pub const STAGE_ITERS: usize = 200;
    /// Convergence tolerance of every intermediate stage.
    pub const STAGE_TOL: f64 = 1e-4;

    /// Schedule with the given start and decay.
    pub fn geometric(eps0: f64, factor: f64) -> Self {
        Self { eps0, factor }
    }

    /// Validate the schedule parameters.
    ///
    /// # Errors
    /// [`OtError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !(self.eps0 > 0.0) || !self.eps0.is_finite() {
            return Err(OtError::InvalidParameter {
                name: "eps_scaling.eps0",
                reason: format!("must be positive and finite, got {}", self.eps0),
            });
        }
        if !(self.factor > 0.0 && self.factor < 1.0) {
            return Err(OtError::InvalidParameter {
                name: "eps_scaling.factor",
                reason: format!("must lie strictly in (0, 1), got {}", self.factor),
            });
        }
        Ok(())
    }

    /// The stage ε sequence down to (and always ending exactly at)
    /// `eps_final`: strictly decreasing, geometric, capped at 64
    /// stages (past the cap the schedule jumps straight to the final
    /// ε).
    pub fn stages(&self, eps_final: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut eps = self.eps0;
        while eps > eps_final && out.len() < MAX_STAGES {
            out.push(eps);
            eps *= self.factor;
        }
        out.push(eps_final);
        out
    }
}

/// Configuration for [`sinkhorn`] / [`sinkhorn_warm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinkhornConfig {
    /// Entropic regularization strength `ε > 0` (in cost units; it is NOT
    /// rescaled by the maximum cost internally).
    pub epsilon: f64,
    /// Maximum Sinkhorn iterations (of the final stage, when an
    /// ε-schedule is set).
    pub max_iters: usize,
    /// Convergence threshold on the L1 marginal violation.
    pub tol: f64,
    /// Optional ε-annealing schedule ending at [`epsilon`](Self::epsilon).
    /// Part of the solve's mathematical definition (a scheduled solve
    /// converges to the same fixed point but along a different iterate
    /// path), so — unlike the runtime knobs below — it serializes
    /// (absent in pre-schedule JSON, defaulting to `None`).
    #[serde(default)]
    pub eps_scaling: Option<EpsSchedule>,
    /// Worker threads for the in-kernel scaling updates (`0` = auto:
    /// `OTR_THREADS` env or available parallelism). Runtime policy —
    /// never serialized, and never affects the returned plan's bytes.
    #[serde(skip)]
    pub threads: usize,
    /// Minimum kernel size (rows × cols) before the scaling updates
    /// chunk across threads; `None` = [`otr_par::KERNEL_CELLS_DEFAULT`].
    /// Runtime policy, not serialized.
    #[serde(skip)]
    pub parallel_min_cells: Option<usize>,
}

impl Default for SinkhornConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-2,
            max_iters: 20_000,
            tol: 1e-6,
            eps_scaling: None,
            threads: 0,
            parallel_min_cells: None,
        }
    }
}

impl SinkhornConfig {
    /// Convenience constructor fixing `ε` and keeping default budget.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }
}

/// Dual potentials `(f, g)` of a Sinkhorn solve in **cost units**
/// (`π_ij ∝ exp((f_i + g_j − C_ij)/ε)`), on the caller's full support
/// (zero at zero-mass atoms). Returned by [`sinkhorn_warm`] so a later
/// solve of a *nearby* problem — the next stage of an ε-schedule, the
/// next outer iteration of an alternating scheme, a slightly perturbed
/// marginal — can start from them instead of from uniform.
///
/// Because the potentials are stored ε-free, warm-starting across a
/// *change of ε* is exact: the solver just divides by its own ε.
///
/// Serializable so repair plans can persist the duals of the solve that
/// designed them and warm-start a later *re-design* against drifted
/// data (`RepairPlanner::redesign` in `otr-core`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkhornDuals {
    /// Row potential `f`, one entry per source atom.
    pub f: Vec<f64>,
    /// Column potential `g`, one entry per target atom.
    pub g: Vec<f64>,
    /// The same duals as the final scalings of a solve whose last stage
    /// converged in the factored domain, from which [`plan_from_scalings`]
    /// rebuilds the plan bit for bit; `None` after any other solve.
    /// Never serialized, and ignored as a warm start.
    #[serde(skip)]
    pub scalings: Option<FactoredScalings>,
}

/// The final scalings `u`, `v` of a Sinkhorn solve on a self-product grid
/// whose last stage converged in the factored `K₁ ⊗ … ⊗ K_d` domain: its
/// plan is `round(diag(u) · (K₁ ⊗ … ⊗ K_d) · diag(v))`, so these, the
/// solve's two marginals, the grid and the final ε fix it
/// ([`plan_from_scalings`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactoredScalings {
    /// Row scaling, one entry per product-grid state.
    pub u: Vec<f64>,
    /// Column scaling, one entry per product-grid state.
    pub v: Vec<f64>,
}

/// Solve entropic OT `min ⟨π, C⟩ − ε H(π)` subject to the coupling
/// constraints, via (optionally ε-scheduled) Sinkhorn scaling
/// iterations — see the module docs for the iteration domains.
///
/// Returns an ε-approximate plan whose marginals match `a`/`b` within
/// `config.tol` in L1. The plan is bit-identical for any
/// `config.threads` setting.
///
/// # Errors
/// * Validation errors for invalid inputs or non-positive `ε`.
/// * [`OtError::NoConvergence`] if the iteration budget is exhausted
///   before the marginal residual falls below `tol`.
pub fn sinkhorn(a: &[f64], b: &[f64], cost: &CostMatrix, config: SinkhornConfig) -> Result<OtPlan> {
    sinkhorn_warm(a, b, cost, config, None).map(|(plan, _)| plan)
}

/// [`sinkhorn`] with an explicit dual warm start, returning the plan
/// **and** the converged duals (for chaining into the next nearby
/// solve). `warm = None` is the cold start from zero potentials.
///
/// # Errors
/// As [`sinkhorn`]; additionally rejects warm duals whose lengths do
/// not match the marginals.
pub fn sinkhorn_warm(
    a: &[f64],
    b: &[f64],
    cost: &CostMatrix,
    config: SinkhornConfig,
    warm: Option<&SinkhornDuals>,
) -> Result<(OtPlan, SinkhornDuals)> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Err(OtError::EmptyInput("sinkhorn marginals"));
    }
    if cost.rows() != n || cost.cols() != m {
        return Err(OtError::LengthMismatch {
            what: "marginals vs cost matrix",
            left: n * m,
            right: cost.rows() * cost.cols(),
        });
    }
    if !(config.epsilon > 0.0) || !config.epsilon.is_finite() {
        return Err(OtError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be positive and finite, got {}", config.epsilon),
        });
    }
    if let Some(schedule) = &config.eps_scaling {
        schedule.validate()?;
    }
    if let Some(duals) = warm {
        if duals.f.len() != n || duals.g.len() != m {
            return Err(OtError::LengthMismatch {
                what: "warm duals vs marginals",
                left: duals.f.len() + duals.g.len(),
                right: n + m,
            });
        }
    }

    let a = normalized_mass(a, "a")?;
    let b = normalized_mass(b, "b")?;

    // Zero-mass atoms break the scaling updates; since a zero-mass row
    // or column carries no transport anyway, solve on the positive
    // sub-problem and re-embed.
    let rows_pos: Vec<usize> = (0..n).filter(|&i| a[i] > 0.0).collect();
    let cols_pos: Vec<usize> = (0..m).filter(|&j| b[j] > 0.0).collect();
    let np = rows_pos.len();
    let mp = cols_pos.len();

    let kernel_threads =
        |cells| otr_par::kernel_threads(config.threads, cells, config.parallel_min_cells);
    let threads = kernel_threads(np * mp);

    // The factored (Kronecker) standard domain engages whenever the
    // cost is grid-separable and no zero-mass filtering narrowed the
    // support (filtering breaks the product structure). Its per-matvec
    // work is `n·Σnᵢ` cells, so it resolves its own threshold.
    let separable = cost.grid_nd().filter(|axes| {
        np == n && mp == m && n == m && axes.iter().map(|g| g.len()).product::<usize>() == n
    });
    let sep_threads = separable.map_or(1, |axes| {
        kernel_threads(np * axes.iter().map(|g| g.len()).sum::<usize>())
    });

    // Dual potentials in cost units on the sub-support, warm or zero.
    let mut phi = vec![0.0f64; np];
    let mut psi = vec![0.0f64; mp];
    if let Some(duals) = warm {
        for (slot, &i) in phi.iter_mut().zip(&rows_pos) {
            *slot = duals.f[i];
        }
        for (slot, &j) in psi.iter_mut().zip(&cols_pos) {
            *slot = duals.g[j];
        }
    }

    let sub = SubProblem {
        np,
        mp,
        cost,
        a_pos: rows_pos.iter().map(|&i| a[i]).collect(),
        b_pos: cols_pos.iter().map(|&j| b[j]).collect(),
        rows_pos,
        cols_pos,
        threads,
        separable,
        sep_threads,
    };

    let stages = match &config.eps_scaling {
        Some(schedule) => schedule.stages(config.epsilon),
        None => vec![config.epsilon],
    };
    let mut solved = StagePlan::default();
    for (si, &eps) in stages.iter().enumerate() {
        let last = si + 1 == stages.len();
        let (cap, tol) = if last {
            (config.max_iters, config.tol)
        } else {
            (EpsSchedule::STAGE_ITERS, EpsSchedule::STAGE_TOL)
        };
        if let Some(plan) = sub.run_stage(eps, cap, tol, &mut phi, &mut psi, last)? {
            solved = plan;
        }
    }
    let rounded = round_to_feasible(solved.cells, &sub.a_pos, &sub.b_pos, sub.threads);
    let (rows_pos, cols_pos) = (&sub.rows_pos, &sub.cols_pos);

    // Embed the plan and the duals into the full support. An unfiltered
    // sub-plan already is the plan.
    let mass = if np == n && mp == m {
        rounded
    } else {
        let mut mass = vec![0.0f64; n * m];
        for (pi, &i) in rows_pos.iter().enumerate() {
            for (pj, &j) in cols_pos.iter().enumerate() {
                mass[i * m + j] = rounded[pi * mp + pj];
            }
        }
        mass
    };
    let mut duals = SinkhornDuals {
        f: vec![0.0f64; n],
        g: vec![0.0f64; m],
        scalings: solved.scalings,
    };
    for (pi, &i) in rows_pos.iter().enumerate() {
        duals.f[i] = phi[pi];
    }
    for (pj, &j) in cols_pos.iter().enumerate() {
        duals.g[j] = psi[pj];
    }
    Ok((OtPlan::from_dense(n, m, mass)?, duals))
}

/// Rebuild the plan [`sinkhorn_warm`] returned for marginals `a`, `b` on
/// the self-product grid `axes` (flattened row-major, last axis fastest)
/// when its final stage, at `epsilon`, converged in the factored domain
/// with [`SinkhornDuals::scalings`] `scalings`. It runs the solver's own
/// materialization and feasibility rounding, so the plan has the same
/// bits, at any `threads`.
///
/// # Errors
/// * [`OtError::InvalidParameter`] for an `epsilon` that is not positive
///   and finite, a scaling that is not a positive finite number, or a
///   grid whose plan has more cells than a `usize` counts;
/// * [`OtError::EmptyInput`] for an empty grid;
/// * [`OtError::LengthMismatch`] for a marginal or scaling that is not
///   one entry per grid state;
/// * [`OtError::InvalidMass`] for a marginal with a negative or NaN mass
///   or no positive finite total.
pub fn plan_from_scalings(
    a: &[f64],
    b: &[f64],
    axes: &[&[f64]],
    epsilon: f64,
    scalings: &FactoredScalings,
    threads: usize,
) -> Result<OtPlan> {
    if !(epsilon > 0.0) || !epsilon.is_finite() {
        return Err(OtError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be positive and finite, got {epsilon}"),
        });
    }
    let states = axes
        .iter()
        .try_fold(1usize, |n, axis| n.checked_mul(axis.len()));
    if axes.is_empty() || states == Some(0) {
        return Err(OtError::EmptyInput("product grid"));
    }
    let Some((n, cells)) = states.and_then(|n| Some((n, n.checked_mul(n)?))) else {
        return Err(OtError::InvalidParameter {
            name: "axes",
            reason: "the product grid's plan has more cells than a usize counts".into(),
        });
    };
    let FactoredScalings { u, v } = scalings;
    for (what, len) in [
        ("row marginal vs product grid", a.len()),
        ("column marginal vs product grid", b.len()),
        ("row scaling vs product grid", u.len()),
        ("column scaling vs product grid", v.len()),
    ] {
        if len != n {
            return Err(OtError::LengthMismatch {
                what,
                left: len,
                right: n,
            });
        }
    }
    let a = normalized_mass(a, "a")?;
    let b = normalized_mass(b, "b")?;
    if let Some(x) = u.iter().chain(v).find(|x| !(x.is_finite() && **x > 0.0)) {
        return Err(OtError::InvalidParameter {
            name: "scalings",
            reason: format!("must be positive and finite, got {x}"),
        });
    }
    let kernel = KernelRep::separable_grid_nd(axes, epsilon);
    let threads = otr_par::kernel_threads(threads, cells, None);
    let plan = materialize_separable(&kernel, u, v, threads);
    OtPlan::from_dense(n, n, round_to_feasible(plan, &a, &b, threads))
}

/// A final stage's plan on the positive sub-support, before rounding:
/// its cells, and its scalings when the factored kernel made it.
#[derive(Default)]
struct StagePlan {
    cells: Vec<f64>,
    scalings: Option<FactoredScalings>,
}

/// Outcome of a standard-domain stage attempt.
enum StandardOutcome {
    /// Residual fell below the stage tolerance (plan present when the
    /// stage was asked to materialize).
    Converged(Option<StagePlan>),
    /// Iteration cap exhausted with finite iterates; the duals hold the
    /// absorbed final scalings (fine for an intermediate stage).
    Exhausted,
    /// Non-finite iterates, a stalled residual, or factored scalings
    /// past their drift bound; the duals hold the warm start or the last
    /// healthy absorption. The caller should fall back to the log
    /// domain.
    Unstable,
}

/// The Gibbs kernel a standard-domain stage scales against, in one of
/// two representations.
enum ScalingKernel {
    /// The dense absorbed kernel `K̃_ij = exp((φ_i + ψ_j − C_ij)/ε)`,
    /// row-major `np × mp`; the buffer becomes the stage's plan.
    Absorbed { k: Vec<f64> },
    /// The factorized kernel `K₁ ⊗ … ⊗ K_d` of a grid-separable cost,
    /// `d` axis passes of `O(n·nᵢ)` per matvec. Rebuilding it around the
    /// duals would destroy the product structure, so the scalings
    /// `U = exp((φ − shift)/ε)`, `V = exp((ψ + shift)/ε)` carry the full
    /// duals, less the free dual constant `shift`.
    Factored {
        kernel: KernelRep,
        scratch: Vec<f64>,
        shift: f64,
    },
}

impl ScalingKernel {
    /// The stage's kernel and its first scalings `(u, v)`, warm-started
    /// from the cost-unit duals; `None` when the duals overflow the
    /// factored domain's scalings.
    fn warm_start(
        sub: &SubProblem,
        eps: f64,
        phi: &[f64],
        psi: &[f64],
    ) -> Option<(Self, Vec<f64>, Vec<f64>)> {
        let Some(axes) = sub.separable else {
            let mut k = vec![0.0f64; sub.np * sub.mp];
            sub.build_absorbed_kernel(eps, phi, psi, &mut k);
            let (u, v) = (vec![1.0; sub.np], vec![1.0; sub.mp]);
            return Some((Self::Absorbed { k }, u, v));
        };
        let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
        let kernel = KernelRep::separable_grid_nd(&axis_refs, eps);
        // Spend the free dual constant (φ ↦ φ − s, ψ ↦ ψ + s leaves every
        // π_ij = exp((φ_i + ψ_j − C_ij)/ε) unchanged) on centring the two
        // exponent ranges around a common mean.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let shift = (mean(phi) - mean(psi)) / 2.0;
        let u: Vec<f64> = phi.iter().map(|p| ((p - shift) / eps).exp()).collect();
        let v: Vec<f64> = psi.iter().map(|p| ((p + shift) / eps).exp()).collect();
        if u.iter().chain(&v).any(|x| !x.is_finite() || *x <= 0.0) {
            return None;
        }
        let scratch = vec![0.0f64; sub.np];
        let factored = Self::Factored {
            kernel,
            scratch,
            shift,
        };
        Some((factored, u, v))
    }

    /// `out = K x`, or `Kᵀ x` when `transpose`. Each output element is
    /// written by one thread and accumulated in a fixed order, so the
    /// bytes never depend on the chunking.
    fn apply(&mut self, sub: &SubProblem, x: &[f64], out: &mut [f64], transpose: bool) {
        match self {
            Self::Absorbed { k } if transpose => dense_matvec_t(k, sub.mp, x, out, sub.threads),
            Self::Absorbed { k } => dense_matvec(k, sub.mp, x, out, sub.threads),
            // The kernel of a self-grid cost is symmetric, so the same
            // axis passes serve the transpose.
            Self::Factored {
                kernel, scratch, ..
            } => kernel.matvec(x, out, scratch, sub.sep_threads),
        }
    }

    /// Largest scaling drift `max(|ln u|, |ln v|)` this kernel iterates
    /// at.
    fn drift_bound(&self) -> f64 {
        match self {
            Self::Absorbed { .. } => ABSORB_DRIFT,
            Self::Factored { .. } => SEPARABLE_SCALING_MAX,
        }
    }

    /// Past the drift bound: absorb the scalings into the duals, rebuild
    /// the kernel around them and restart from unit scalings. `false`
    /// when the kernel cannot absorb (the factored one), and the stage
    /// gives up.
    fn absorb(
        &mut self,
        sub: &SubProblem,
        eps: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        u: &mut [f64],
        v: &mut [f64],
    ) -> bool {
        let Self::Absorbed { k } = self else {
            return false;
        };
        absorb_scalings(eps, phi, psi, u, v);
        sub.build_absorbed_kernel(eps, phi, psi, k);
        u.fill(1.0);
        v.fill(1.0);
        true
    }

    /// Fold the stage's final scalings into the cost-unit duals.
    fn write_duals(&self, eps: f64, phi: &mut [f64], psi: &mut [f64], u: &[f64], v: &[f64]) {
        match self {
            Self::Absorbed { .. } => absorb_scalings(eps, phi, psi, u, v),
            Self::Factored { shift, .. } => {
                for (p, ui) in phi.iter_mut().zip(u) {
                    *p = eps * ui.max(SCALING_FLOOR).ln() + shift;
                }
                for (p, vj) in psi.iter_mut().zip(v) {
                    *p = eps * vj.max(SCALING_FLOOR).ln() - shift;
                }
            }
        }
    }

    /// The stage's plan `π_ij = u_i K_ij v_j` on the positive
    /// sub-support, keeping the scalings when they fix it. The absorbed
    /// kernel's buffer becomes the plan in place.
    fn materialize(self, sub: &SubProblem, u: Vec<f64>, v: Vec<f64>) -> StagePlan {
        match self {
            Self::Absorbed { mut k } => {
                par_rows_mut(&mut k, sub.mp, sub.threads, |pi, row| {
                    for (slot, vj) in row.iter_mut().zip(&v) {
                        *slot = u[pi] * *slot * vj;
                    }
                });
                StagePlan {
                    cells: k,
                    scalings: None,
                }
            }
            Self::Factored { kernel, .. } => StagePlan {
                cells: materialize_separable(&kernel, &u, &v, sub.threads),
                scalings: Some(FactoredScalings { u, v }),
            },
        }
    }
}

/// Absorb the scalings into the cost-unit duals: `φ += ε ln u`,
/// `ψ += ε ln v`.
fn absorb_scalings(eps: f64, phi: &mut [f64], psi: &mut [f64], u: &[f64], v: &[f64]) {
    for (p, ui) in phi.iter_mut().zip(u) {
        *p += eps * ui.ln();
    }
    for (p, vj) in psi.iter_mut().zip(v) {
        *p += eps * vj.ln();
    }
}

/// The strictly-positive sub-problem a [`sinkhorn`] call reduces to,
/// plus the resolved in-kernel execution policy. All schedule stages,
/// both iteration domains, and the feasibility rounding operate on this.
struct SubProblem<'a> {
    np: usize,
    mp: usize,
    /// The full-support cost this sub-problem was cut from.
    cost: &'a CostMatrix,
    /// Positive-mass rows / columns of `cost`, ascending (`np` / `mp`
    /// of them).
    rows_pos: Vec<usize>,
    cols_pos: Vec<usize>,
    a_pos: Vec<f64>,
    b_pos: Vec<f64>,
    /// Effective worker threads of the `np × mp` passes (1 = stay
    /// sequential; the size threshold has already been applied).
    threads: usize,
    /// Axis grids when the standard domain runs against the factorized
    /// kernel `K₁ ⊗ … ⊗ K_d` (grid-separable cost, unfiltered support);
    /// `None` = dense.
    separable: Option<&'a [Vec<f64>]>,
    /// Effective worker threads of the separable matvecs (thresholded
    /// on their own `n·Σnᵢ` work measure; 1 when `separable` is `None`).
    sep_threads: usize,
}

impl SubProblem<'_> {
    /// Fill the row-major `np × mp` buffer `out` with `cell(pi, pj, C_ij)`
    /// over the positive sub-support, row-parallel.
    fn fill_from_cost(&self, out: &mut [f64], cell: impl Fn(usize, usize, f64) -> f64 + Sync) {
        par_rows_mut(out, self.mp, self.threads, |pi, row| {
            let costs = self.cost.row(self.rows_pos[pi]);
            for ((pj, slot), &j) in row.iter_mut().enumerate().zip(&self.cols_pos) {
                *slot = cell(pi, pj, costs[j]);
            }
        });
    }

    /// One ε-stage: try the standard domain, fall back to the log domain
    /// if it turns non-finite, stalls or gives up. `phi` / `psi`
    /// (cost-unit duals) are the warm-start input and the stage's
    /// output. Only the final stage (`last`) materializes a plan and
    /// treats an exhausted budget as [`OtError::NoConvergence`];
    /// intermediate stages exist solely to warm the duals.
    fn run_stage(
        &self,
        eps: f64,
        max_iters: usize,
        tol: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        last: bool,
    ) -> Result<Option<StagePlan>> {
        match self.iterate_standard(eps, max_iters, tol, phi, psi, last) {
            StandardOutcome::Converged(plan) => Ok(plan),
            StandardOutcome::Exhausted if !last => Ok(None),
            // Final-stage exhaustion or instability: the log-sum-exp
            // domain is unconditionally stable, so retry there before
            // reporting failure. The fallback decision is a pure
            // function of the iterates, so determinism is unaffected.
            StandardOutcome::Exhausted | StandardOutcome::Unstable => {
                let plan = self.iterate_log(eps, max_iters, tol, phi, psi, last)?;
                Ok(plan.map(|cells| StagePlan {
                    cells,
                    scalings: None,
                }))
            }
        }
    }

    /// Build the absorbed Gibbs kernel `K̃_ij = exp((φ_i + ψ_j − C_ij)/ε)`
    /// into `kernel`, row-parallel.
    fn build_absorbed_kernel(&self, eps: f64, phi: &[f64], psi: &[f64], kernel: &mut [f64]) {
        self.fill_from_cost(kernel, |pi, pj, c| ((phi[pi] + psi[pj] - c) / eps).exp());
    }

    /// Standard-domain Sinkhorn: scaling vectors `u, v` against a
    /// [`ScalingKernel`], which keeps them inside f64 range its own way.
    /// Each iteration sets `u = a / (K v)` (row marginals exact), then
    /// `v = b / (Kᵀ u)`; every [`CHECK_CADENCE`] iterations the row
    /// residual is measured (columns are exact), a run of
    /// [`STALL_CHECKS`] non-improving checks is a stall, and the kernel
    /// judges the scaling drift. Every cross-row reduction (residual sum,
    /// drift max) is folded in row order on the calling thread, so the
    /// outcome is thread-count-free. The update order matches the log
    /// domain's, so both converge on the same cadence.
    fn iterate_standard(
        &self,
        eps: f64,
        max_iters: usize,
        tol: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        materialize: bool,
    ) -> StandardOutcome {
        let Some((mut kernel, mut u, mut v)) = ScalingKernel::warm_start(self, eps, phi, psi)
        else {
            // The warm duals themselves exceed the factored domain's
            // range; let the log domain handle this stage.
            return StandardOutcome::Unstable;
        };
        let mut kv = vec![0.0f64; self.np];
        let mut ktu = vec![0.0f64; self.mp];
        let mut best_residual = f64::INFINITY;
        let mut stalled_checks = 0;
        for iterations in 1..=max_iters {
            kernel.apply(self, &v, &mut kv, false);
            for ((ui, ai), kvi) in u.iter_mut().zip(&self.a_pos).zip(&kv) {
                *ui = ai / kvi.max(SCALING_FLOOR);
            }
            kernel.apply(self, &u, &mut ktu, true);
            for ((vj, bj), ktuj) in v.iter_mut().zip(&self.b_pos).zip(&ktu) {
                *vj = bj / ktuj.max(SCALING_FLOOR);
            }
            if iterations % CHECK_CADENCE != 0 && iterations != max_iters {
                continue;
            }

            kernel.apply(self, &v, &mut kv, false);
            let mut residual = 0.0;
            for ((ui, kvi), ai) in u.iter().zip(&kv).zip(&self.a_pos) {
                residual += (ui * kvi - ai).abs();
            }
            if !residual.is_finite() {
                return StandardOutcome::Unstable;
            }
            if residual < tol {
                kernel.write_duals(eps, phi, psi, &u, &v);
                return StandardOutcome::Converged(
                    materialize.then(|| kernel.materialize(self, u, v)),
                );
            }
            if residual >= best_residual * 0.999 {
                stalled_checks += 1;
                if stalled_checks >= STALL_CHECKS {
                    return StandardOutcome::Unstable;
                }
            } else {
                stalled_checks = 0;
            }
            best_residual = best_residual.min(residual);

            let drift = u
                .iter()
                .chain(&v)
                .map(|x| x.ln().abs())
                .fold(0.0f64, f64::max);
            if !drift.is_finite()
                || (drift > kernel.drift_bound()
                    && !kernel.absorb(self, eps, phi, psi, &mut u, &mut v))
            {
                return StandardOutcome::Unstable;
            }
        }
        kernel.write_duals(eps, phi, psi, &u, &v);
        StandardOutcome::Exhausted
    }

    /// Log-domain Sinkhorn: dual potentials via log-sum-exp. Stable for
    /// any `ε > 0`; roughly 3–5× the per-cell cost of the standard path.
    /// Entered only as the fallback when [`Self::iterate_standard`]
    /// turns non-finite or stalls.
    fn iterate_log(
        &self,
        eps: f64,
        max_iters: usize,
        tol: f64,
        phi: &mut [f64],
        psi: &mut [f64],
        last: bool,
    ) -> Result<Option<Vec<f64>>> {
        let (np, mp) = (self.np, self.mp);
        let log_a: Vec<f64> = self.a_pos.iter().map(|x| x.ln()).collect();
        let log_b: Vec<f64> = self.b_pos.iter().map(|x| x.ln()).collect();
        // Kernel exponents -C/ε for this stage, row-major; the final
        // stage turns them into the plan in place.
        let mut neg_c_eps = vec![0.0f64; np * mp];
        self.fill_from_cost(&mut neg_c_eps, |_, _, c| -c / eps);

        // Log-domain dual potentials (stored as dual/ε so updates are
        // additive), warm-started from the cost-unit duals.
        let mut f: Vec<f64> = phi.iter().map(|x| x / eps).collect();
        let mut g: Vec<f64> = psi.iter().map(|x| x / eps).collect();

        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        let mut row_res = vec![0.0f64; np];
        let mut col_sum = vec![0.0f64; mp];
        while iterations < max_iters {
            iterations += 1;
            // f update: f_i = log a_i - LSE_j(-C_ij/eps + g_j). Each
            // chunk owns its rows.
            par_chunks_mut(&mut f, self.threads, |start, chunk| {
                for (off, fi) in chunk.iter_mut().enumerate() {
                    let pi = start + off;
                    let row = &neg_c_eps[pi * mp..(pi + 1) * mp];
                    *fi = log_a[pi] - log_sum_exp(row.iter().zip(&g).map(|(nc, gj)| nc + gj));
                }
            });
            // g update: g_j = log b_j - LSE_i(-C_ij/eps + f_i), a column
            // pass that walks the rows.
            col_log_sum_exp(&neg_c_eps, &f, &mut g, &mut col_sum, self.threads);
            for (gj, lb) in g.iter_mut().zip(&log_b) {
                *gj = lb - *gj;
            }

            // Residual cadence as in the standard path; after the g
            // update column marginals are exact, so measure rows.
            if iterations % CHECK_CADENCE == 0 || iterations == max_iters {
                par_chunks_mut(&mut row_res, self.threads, |start, chunk| {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        let pi = start + off;
                        let mut row_sum = 0.0;
                        for pj in 0..mp {
                            row_sum += (neg_c_eps[pi * mp + pj] + f[pi] + g[pj]).exp();
                        }
                        *slot = (row_sum - self.a_pos[pi]).abs();
                    }
                });
                residual = row_res.iter().sum();
                if residual < tol {
                    break;
                }
            }
        }
        if !(residual < tol) && iterations >= max_iters && last {
            return Err(OtError::NoConvergence {
                solver: "sinkhorn",
                iterations,
                residual,
            });
        }

        // Write the duals back in cost units for the next stage/caller.
        for (p, fi) in phi.iter_mut().zip(&f) {
            *p = fi * eps;
        }
        for (p, gj) in psi.iter_mut().zip(&g) {
            *p = gj * eps;
        }
        if !last {
            return Ok(None);
        }
        // Materialize the plan on the positive sub-support, in place.
        par_rows_mut(&mut neg_c_eps, mp, self.threads, |pi, row| {
            for (slot, gj) in row.iter_mut().zip(&g) {
                *slot = (*slot + f[pi] + gj).exp();
            }
        });
        Ok(Some(neg_c_eps))
    }
}

/// `log Σ exp(x)` over `terms`, shifted by their maximum. The second
/// pass recomputes each term rather than reading it back from a buffer,
/// so the log-domain updates allocate nothing; the operands and their
/// order are the same either way, so are the bits.
fn log_sum_exp(terms: impl Iterator<Item = f64> + Clone) -> f64 {
    let mx = terms.clone().fold(f64::NEG_INFINITY, f64::max);
    if mx == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = terms.map(|x| (x - mx).exp()).sum();
    mx + s.ln()
}

/// `out_j = LSE_i(x_ij + f_i)` over the columns of the row-major
/// `f.len() × out.len()` matrix `x`, as [`log_sum_exp`] takes it: a max
/// pass, then a sum of shifted exponentials. The columns are chunked over
/// `threads`, and both passes walk the rows in ascending order over the
/// chunk's columns, so each column sees `log_sum_exp`'s terms in its
/// order whatever the chunking. `sums` is scratch of `out.len()` slots.
fn col_log_sum_exp(x: &[f64], f: &[f64], out: &mut [f64], sums: &mut [f64], threads: usize) {
    let cols = out.len();
    par_cols_mut(&mut [out, sums], threads, |start, chunks| {
        let [mx, sum] = chunks else { unreachable!() };
        mx.fill(f64::NEG_INFINITY);
        for (row, fi) in x.chunks_exact(cols).zip(f) {
            for (m, xij) in mx.iter_mut().zip(&row[start..]) {
                *m = m.max(xij + fi);
            }
        }
        sum.fill(0.0);
        for (row, fi) in x.chunks_exact(cols).zip(f) {
            for ((s, m), xij) in sum.iter_mut().zip(mx.iter()).zip(&row[start..]) {
                *s += (xij + fi - m).exp();
            }
        }
        for (m, s) in mx.iter_mut().zip(sum.iter()) {
            if *m != f64::NEG_INFINITY {
                *m += s.ln();
            }
        }
    });
}

/// Materialize `π_rc = ((U_r · K₁[r₁, c₁]) · … · K_d[r_d, c_d]) · V_c`
/// from the factorized kernel (the plan itself is dense — `O(n²)` cells
/// once, vs the per-iteration savings of the axis-pass matvecs). Rows are
/// built contiguously from prefix products ([`fold_grid_row`]) and
/// chunked over `threads`; every cell multiplies left to right, so the
/// bits do not depend on the row walk or the thread count.
fn materialize_separable(kernel: &KernelRep, u: &[f64], v: &[f64], threads: usize) -> Vec<f64> {
    let n = u.len();
    let tables: Vec<(&[f64], usize)> = kernel
        .axes
        .iter()
        .map(|ax| (ax.k.as_slice(), ax.n))
        .collect();
    let mut plan = vec![0.0f64; n * n];
    par_rows_mut(&mut plan, n, threads, |r, row| {
        fold_grid_row(&tables, r, u[r], |acc, k| acc * k, row);
        for (slot, vc) in row.iter_mut().zip(v) {
            *slot *= vc;
        }
    });
    plan
}

/// Round the row-major `a_pos.len() × b_pos.len()` plan `sub` to the
/// exact feasible polytope of marginals `a_pos`, `b_pos`
/// (Altschuler–Weed–Rigollet,
/// NeurIPS 2017): scale down over-full rows, then over-full columns,
/// then restore the tiny missing mass with a rank-one correction. The
/// result satisfies the coupling constraints to machine precision, so a
/// Sinkhorn plan is a drop-in replacement for an exact plan downstream.
/// Row/column passes are chunk-parallel over `threads` (each output
/// owned by one thread, accumulated in fixed order); the scalar mass
/// totals are summed sequentially — thread-count-independent throughout.
fn round_to_feasible(mut sub: Vec<f64>, a_pos: &[f64], b_pos: &[f64], threads: usize) -> Vec<f64> {
    let (np, mp) = (a_pos.len(), b_pos.len());
    // Over-full rows: whole rows are chunk units, so each thread
    // computes its rows' sums and rescales them locally.
    par_rows_mut(&mut sub, mp, threads, |pi, row| {
        let r: f64 = row.iter().sum();
        if r > a_pos[pi] && r > 0.0 {
            let scale = a_pos[pi] / r;
            for v in row {
                *v *= scale;
            }
        }
    });
    // Over-full columns; a column sum is the transposed product with
    // the ones vector.
    let ones = vec![1.0f64; np];
    let mut col_sum = vec![0.0f64; mp];
    dense_matvec_t(&sub, mp, &ones, &mut col_sum, threads);
    let col_scale: Vec<f64> = col_sum
        .iter()
        .zip(b_pos)
        .map(|(&c, &b)| if c > b && c > 0.0 { b / c } else { 1.0 })
        .collect();
    par_rows_mut(&mut sub, mp, threads, |_, row| {
        for (v, s) in row.iter_mut().zip(&col_scale) {
            *v *= s;
        }
    });
    // Missing row/column mass after the down-scaling.
    let mut err_a = vec![0.0f64; np];
    par_chunks_mut(&mut err_a, threads, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let pi = start + off;
            let r: f64 = sub[pi * mp..(pi + 1) * mp].iter().sum();
            *slot = (a_pos[pi] - r).max(0.0);
        }
    });
    dense_matvec_t(&sub, mp, &ones, &mut col_sum, threads);
    let err_b: Vec<f64> = col_sum.iter().zip(b_pos).map(|(c, b)| b - c).collect();
    let err_total: f64 = err_a.iter().sum();
    if err_total > 0.0 {
        par_rows_mut(&mut sub, mp, threads, |pi, row| {
            if err_a[pi] == 0.0 {
                return;
            }
            for (v, eb) in row.iter_mut().zip(&err_b) {
                *v += err_a[pi] * eb.max(0.0) / err_total;
            }
        });
    }
    sub
}

/// `out_i = Σ_j k[i·cols + j] · x_j` for the row-major `out.len() × cols`
/// matrix `k`, chunked over rows. Each output is accumulated from zero in
/// column order by one thread, so the bytes never depend on `threads`.
fn dense_matvec(k: &[f64], cols: usize, x: &[f64], out: &mut [f64], threads: usize) {
    par_chunks_mut(out, threads, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let row = &k[(start + off) * cols..(start + off + 1) * cols];
            let mut acc = 0.0;
            for (kij, xj) in row.iter().zip(x) {
                acc += kij * xj;
            }
            *slot = acc;
        }
    });
}

/// `out_j = Σ_i k[i·cols + j] · x_i`, the transposed product of the
/// row-major `x.len() × cols` matrix `k`. The columns are chunked over
/// `threads`; each chunk walks the rows in ascending order and adds the
/// row's contiguous segment, so every output is accumulated from zero
/// over the rows ascending, as a row dot product over a transposed copy
/// would be, whatever the chunking.
fn dense_matvec_t(k: &[f64], cols: usize, x: &[f64], out: &mut [f64], threads: usize) {
    par_chunks_mut(out, threads, |start, chunk| {
        chunk.fill(0.0);
        for (row, xi) in k.chunks_exact(cols).zip(x) {
            for (slot, kij) in chunk.iter_mut().zip(&row[start..]) {
                *slot += kij * xi;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteDistribution;
    use crate::solvers::monotone::solve_monotone_1d;

    /// The unfiltered dense sub-problem of `cost` with marginals `a`, `b`
    /// taken as given.
    fn full_sub<'a>(cost: &'a CostMatrix, a: &[f64], b: &[f64], threads: usize) -> SubProblem<'a> {
        SubProblem {
            np: a.len(),
            mp: b.len(),
            cost,
            rows_pos: (0..a.len()).collect(),
            cols_pos: (0..b.len()).collect(),
            a_pos: a.to_vec(),
            b_pos: b.to_vec(),
            threads,
            separable: None,
            sep_threads: 1,
        }
    }

    #[test]
    fn marginals_match_within_tolerance() {
        let support_a = [0.0, 1.0, 2.0];
        let support_b = [0.5, 1.5];
        let a = [0.3, 0.4, 0.3];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        let plan = sinkhorn(&a, &b, &cost, SinkhornConfig::default()).unwrap();
        for (have, want) in plan.row_marginal().iter().zip(&a) {
            assert!((have - want).abs() < 1e-6);
        }
        for (have, want) in plan.col_marginal().iter().zip(&b) {
            assert!((have - want).abs() < 1e-6);
        }
    }

    #[test]
    fn cost_approaches_exact_as_epsilon_shrinks() {
        let mu = DiscreteDistribution::new(vec![-1.0, 0.0, 1.0, 2.0], vec![0.25, 0.25, 0.25, 0.25])
            .unwrap();
        let nu = DiscreteDistribution::new(vec![0.0, 1.0, 3.0], vec![0.5, 0.3, 0.2]).unwrap();
        let cost = CostMatrix::squared_euclidean(mu.support(), nu.support()).unwrap();
        let exact = solve_monotone_1d(&mu, &nu)
            .unwrap()
            .transport_cost(&cost)
            .unwrap();

        let mut prev_gap = f64::INFINITY;
        for eps in [1.0, 0.3, 0.1] {
            let plan = sinkhorn(
                mu.masses(),
                nu.masses(),
                &cost,
                SinkhornConfig {
                    epsilon: eps,
                    max_iters: 200_000,
                    tol: 1e-6,
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            let c = plan.transport_cost(&cost).unwrap();
            let gap = (c - exact).abs();
            assert!(
                gap <= prev_gap + 1e-9,
                "gap should shrink with eps: eps={eps}, gap={gap}, prev={prev_gap}"
            );
            prev_gap = gap;
        }
        assert!(prev_gap < 0.05, "final gap {prev_gap}");
    }

    #[test]
    fn small_epsilon_is_stable() {
        // eps = 1e-3 with costs up to 9 would overflow a naive raw
        // exp(-C/eps) iteration; the absorption-stabilized standard
        // domain (or its log fallback) must survive and stay close to
        // exact.
        let a = [0.5, 0.5];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&[0.0, 3.0], &[0.0, 3.0]).unwrap();
        let plan = sinkhorn(
            &a,
            &b,
            &cost,
            SinkhornConfig {
                epsilon: 1e-3,
                max_iters: 20_000,
                tol: 1e-10,
                ..SinkhornConfig::default()
            },
        )
        .unwrap();
        // Optimal plan is the identity pairing.
        assert!((plan.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((plan.get(1, 1) - 0.5).abs() < 1e-6);
        assert!(plan.get(0, 1) < 1e-6);
    }

    #[test]
    fn zero_mass_atoms_are_ignored() {
        let a = [0.5, 0.0, 0.5];
        let b = [1.0, 0.0];
        let cost = CostMatrix::squared_euclidean(&[0.0, 1.0, 2.0], &[1.0, 5.0]).unwrap();
        let plan = sinkhorn(&a, &b, &cost, SinkhornConfig::default()).unwrap();
        assert!(plan.row_marginal()[1].abs() < 1e-12);
        assert!(plan.col_marginal()[1].abs() < 1e-12);
        assert!((plan.total_mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_invalid_config_and_inputs() {
        let cost = CostMatrix::squared_euclidean(&[0.0], &[0.0]).unwrap();
        assert!(sinkhorn(&[1.0], &[1.0], &cost, SinkhornConfig::with_epsilon(0.0)).is_err());
        assert!(sinkhorn(&[], &[1.0], &cost, SinkhornConfig::default()).is_err());
        assert!(sinkhorn(&[1.0], &[-1.0], &cost, SinkhornConfig::default()).is_err());
        let cost2 = CostMatrix::squared_euclidean(&[0.0, 1.0], &[0.0]).unwrap();
        assert!(sinkhorn(&[1.0], &[1.0], &cost2, SinkhornConfig::default()).is_err());
        // Malformed schedules and warm duals are rejected up front.
        let mut cfg = SinkhornConfig::with_epsilon(0.1);
        cfg.eps_scaling = Some(EpsSchedule::geometric(1.0, 1.5));
        assert!(sinkhorn(&[1.0], &[1.0], &cost, cfg).is_err());
        let mut cfg = SinkhornConfig::with_epsilon(0.1);
        cfg.eps_scaling = Some(EpsSchedule::geometric(-1.0, 0.5));
        assert!(sinkhorn(&[1.0], &[1.0], &cost, cfg).is_err());
        let bad_duals = SinkhornDuals {
            f: vec![0.0; 3],
            g: vec![0.0; 1],
            scalings: None,
        };
        assert!(sinkhorn_warm(
            &[1.0],
            &[1.0],
            &cost,
            SinkhornConfig::default(),
            Some(&bad_duals)
        )
        .is_err());
    }

    #[test]
    fn eps_schedule_stage_lists_are_geometric_and_floored() {
        let s = EpsSchedule::geometric(1.0, 0.25);
        assert_eq!(s.stages(0.05), vec![1.0, 0.25, 0.0625, 0.05]);
        assert_eq!(s.stages(1.0), vec![1.0]);
        // A start at or below the target collapses to the single stage.
        assert_eq!(s.stages(2.0), vec![2.0]);
        // The stage count is capped even for absurd factors.
        let slow = EpsSchedule::geometric(1.0, 0.999_999);
        assert!(slow.stages(1e-9).len() <= MAX_STAGES + 1);
        assert_eq!(*slow.stages(1e-9).last().unwrap(), 1e-9);
    }

    #[test]
    fn scheduled_solve_agrees_with_cold_start_at_final_epsilon() {
        // The ε-schedule changes the route, not the destination: at the
        // same final ε and tolerance, the scheduled plan must match the
        // cold-start plan within solver tolerance, cell by cell.
        let support_a: Vec<f64> = (0..23).map(|i| i as f64 * 0.31).collect();
        let support_b: Vec<f64> = (0..19).map(|i| 0.05 + i as f64 * 0.37).collect();
        let a: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..19).map(|i| 1.0 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        let cold_cfg = SinkhornConfig {
            epsilon: 0.05,
            tol: 1e-8,
            ..SinkhornConfig::default()
        };
        let cold = sinkhorn(&a, &b, &cost, cold_cfg).unwrap();
        let scheduled_cfg = SinkhornConfig {
            eps_scaling: Some(EpsSchedule::default()),
            ..cold_cfg
        };
        let scheduled = sinkhorn(&a, &b, &cost, scheduled_cfg).unwrap();
        for i in 0..a.len() {
            for j in 0..b.len() {
                assert!(
                    (cold.get(i, j) - scheduled.get(i, j)).abs() < 1e-5,
                    "cell ({i}, {j}): cold {} vs scheduled {}",
                    cold.get(i, j),
                    scheduled.get(i, j)
                );
            }
        }
    }

    #[test]
    fn warm_started_resolve_converges_fast_and_agrees() {
        // Solving, then re-solving the same problem from the returned
        // duals, must reproduce the same plan (within tolerance) — the
        // warm-start contract an ε-schedule stage relies on.
        let support: Vec<f64> = (0..17).map(|i| i as f64 * 0.4).collect();
        let a: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 5) % 7) as f64).collect();
        let b: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 11) % 6) as f64).collect();
        let cost = CostMatrix::squared_euclidean(&support, &support).unwrap();
        let cfg = SinkhornConfig {
            epsilon: 0.1,
            tol: 1e-8,
            ..SinkhornConfig::default()
        };
        let (first, duals) = sinkhorn_warm(&a, &b, &cost, cfg, None).unwrap();
        let (second, _) = sinkhorn_warm(&a, &b, &cost, cfg, Some(&duals)).unwrap();
        for i in 0..17 {
            for j in 0..17 {
                assert!(
                    (first.get(i, j) - second.get(i, j)).abs() < 1e-6,
                    "cell ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn parallel_kernels_bit_identical_to_sequential() {
        // The in-kernel determinism contract: chunking the scaling
        // updates across any thread count returns the *exact same
        // bytes* as the sequential solve. `parallel_min_cells = 1`
        // forces the chunked path even on this small problem; the two
        // epsilons pin both a no-absorption regime and one that
        // absorbs repeatedly.
        let support_a: Vec<f64> = (0..23).map(|i| i as f64 * 0.031).collect();
        let support_b: Vec<f64> = (0..17).map(|i| 0.01 + i as f64 * 0.04).collect();
        let a: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        assert_parallel_matches_sequential(&a, &b, &cost, 0.05, None);

        // Deep-ε leg on a shared support with equal marginals; also run
        // it scheduled so every stage of the annealing is pinned.
        let support: Vec<f64> = (0..23).map(|i| i as f64 * 0.31).collect();
        let cost_sq = CostMatrix::squared_euclidean(&support, &support).unwrap();
        let m: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 5) % 7) as f64).collect();
        assert_parallel_matches_sequential(&m, &m, &cost_sq, 1e-4, None);
        assert_parallel_matches_sequential(&m, &m, &cost_sq, 1e-4, Some(EpsSchedule::default()));
    }

    /// Chunked (2/3/7 threads, threshold forced to 1 cell) vs
    /// sequential solve of the same problem: the plans' bytes must
    /// match exactly.
    fn assert_parallel_matches_sequential(
        a: &[f64],
        b: &[f64],
        cost: &CostMatrix,
        eps: f64,
        eps_scaling: Option<EpsSchedule>,
    ) {
        let sequential = sinkhorn(
            a,
            b,
            cost,
            SinkhornConfig {
                epsilon: eps,
                eps_scaling,
                threads: 1,
                parallel_min_cells: Some(1),
                ..SinkhornConfig::default()
            },
        )
        .unwrap();
        for threads in [2usize, 3, 7] {
            let parallel = sinkhorn(
                a,
                b,
                cost,
                SinkhornConfig {
                    epsilon: eps,
                    eps_scaling,
                    threads,
                    parallel_min_cells: Some(1),
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            for i in 0..a.len() {
                for j in 0..b.len() {
                    assert_eq!(
                        parallel.get(i, j).to_bits(),
                        sequential.get(i, j).to_bits(),
                        "eps = {eps}, threads = {threads}, cell ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn standard_domain_agrees_with_log_domain() {
        // Both iteration domains share one fixed point; drive them on
        // the same sub-problem directly and compare the unrounded plans
        // within the convergence tolerance.
        let mu_support = [0.0, 1.0, 2.0, 3.0];
        let nu_support = [0.5, 1.5, 2.5];
        let a = [0.3, 0.2, 0.3, 0.2];
        let b = [0.4, 0.3, 0.3];
        let cost = CostMatrix::squared_euclidean(&mu_support, &nu_support).unwrap();
        let eps = 0.05;
        let (np, mp) = (a.len(), b.len());
        let sub = full_sub(&cost, &a, &b, 1);
        let mut phi = vec![0.0f64; np];
        let mut psi = vec![0.0f64; mp];
        let standard = match sub.iterate_standard(eps, 200_000, 1e-9, &mut phi, &mut psi, true) {
            StandardOutcome::Converged(Some(plan)) => plan.cells,
            other => panic!(
                "standard domain should converge on stable inputs, got {}",
                match other {
                    StandardOutcome::Converged(None) => "no plan",
                    StandardOutcome::Exhausted => "exhausted",
                    StandardOutcome::Unstable => "unstable",
                    StandardOutcome::Converged(Some(_)) => unreachable!(),
                }
            ),
        };
        let mut phi = vec![0.0f64; np];
        let mut psi = vec![0.0f64; mp];
        let log = sub
            .iterate_log(eps, 200_000, 1e-9, &mut phi, &mut psi, true)
            .unwrap()
            .expect("final stage materializes");
        for (idx, (s, l)) in standard.iter().zip(&log).enumerate() {
            assert!((s - l).abs() < 1e-6, "cell {idx}: standard {s} vs log {l}");
        }
    }

    #[test]
    fn chunked_iteration_domains_bit_identical_to_sequential() {
        // Both iteration domains driven directly, so the log domain runs
        // chunked too: no solve under test falls back to it past the
        // size threshold. On the rectangular 23×17 problem, at a
        // moderate and a small ε, every thread count must return the
        // sequential plans and duals bit for bit.
        let support_a: Vec<f64> = (0..23).map(|i| i as f64 * 0.031).collect();
        let support_b: Vec<f64> = (0..17).map(|i| 0.01 + i as f64 * 0.04).collect();
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        let normalized = |v: Vec<f64>| {
            let total: f64 = v.iter().sum();
            v.iter().map(|x| x / total).collect::<Vec<f64>>()
        };
        let a = normalized((0..23).map(|i| 1.0 + ((i * 7) % 5) as f64).collect());
        let b = normalized((0..17).map(|i| 1.0 + ((i * 3) % 4) as f64).collect());
        let (np, mp) = (a.len(), b.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let run = |threads: usize, eps: f64| {
            let sub = full_sub(&cost, &a, &b, threads);
            let (mut phi, mut psi) = (vec![0.0f64; np], vec![0.0f64; mp]);
            let standard = match sub.iterate_standard(eps, 50_000, 1e-9, &mut phi, &mut psi, true) {
                StandardOutcome::Converged(Some(plan)) => plan.cells,
                _ => panic!("standard domain did not converge at eps = {eps}"),
            };
            let (mut f, mut g) = (vec![0.0f64; np], vec![0.0f64; mp]);
            let log = sub
                .iterate_log(eps, 50_000, 1e-9, &mut f, &mut g, true)
                .unwrap()
                .expect("final stage materializes");
            [standard, phi, psi, log, f, g].map(|v| bits(&v))
        };
        for eps in [0.05, 2e-3] {
            let sequential = run(1, eps);
            for threads in [2usize, 3, 7] {
                assert!(
                    run(threads, eps) == sequential,
                    "eps = {eps}, threads = {threads}"
                );
            }
        }
    }

    /// A grid-separable product-grid problem: pmfs on the `gx × gy`
    /// self-product support (strictly positive so no filtering breaks
    /// the structure).
    fn product_grid_problem() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, CostMatrix) {
        let gx: Vec<f64> = (0..6).map(|i| -1.0 + 0.4 * i as f64).collect();
        let gy: Vec<f64> = (0..5).map(|i| 0.1 + 0.35 * i as f64).collect();
        let n = gx.len() * gy.len();
        let a: Vec<f64> = (0..n).map(|i| 0.2 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 0.3 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean_grid_nd(&[&gx, &gy]).unwrap();
        (gx, gy, a, b, cost)
    }

    /// The same cost cells without the grid metadata, so a solve over
    /// them takes the dense domain: the reference for the factored one.
    fn without_grid(cost: &CostMatrix) -> CostMatrix {
        let (rows, cols): (Vec<usize>, Vec<usize>) =
            ((0..cost.rows()).collect(), (0..cost.cols()).collect());
        CostMatrix::from_fn(&rows, &cols, |&i, &j| cost.get(i, j)).unwrap()
    }

    #[test]
    fn separable_kernel_agrees_with_dense_on_product_grids() {
        // Same fixed point, different sum grouping: the factorized and
        // dense solves of one problem must agree within the solver
        // tolerance, cell by cell — cold and ε-scheduled.
        let (_, _, a, b, cost) = product_grid_problem();
        for eps_scaling in [None, Some(EpsSchedule::default())] {
            let base = SinkhornConfig {
                epsilon: 0.1,
                tol: 1e-9,
                eps_scaling,
                ..SinkhornConfig::default()
            };
            let dense = sinkhorn(&a, &b, &without_grid(&cost), base).unwrap();
            let sep = sinkhorn(&a, &b, &cost, base).unwrap();
            sep.validate_marginals(
                &a.iter()
                    .map(|x| x / a.iter().sum::<f64>())
                    .collect::<Vec<_>>(),
                &b.iter()
                    .map(|x| x / b.iter().sum::<f64>())
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            for i in 0..dense.rows() {
                for j in 0..dense.cols() {
                    assert!(
                        (dense.get(i, j) - sep.get(i, j)).abs() < 1e-7,
                        "scheduled = {}, cell ({i}, {j}): dense {} vs separable {}",
                        eps_scaling.is_some(),
                        dense.get(i, j),
                        sep.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn separable_kernel_bit_identical_across_thread_counts() {
        let (_, _, a, b, cost) = product_grid_problem();
        for eps_scaling in [None, Some(EpsSchedule::default())] {
            let sequential = sinkhorn(
                &a,
                &b,
                &cost,
                SinkhornConfig {
                    epsilon: 0.08,
                    eps_scaling,
                    threads: 1,
                    parallel_min_cells: Some(1),
                    ..SinkhornConfig::default()
                },
            )
            .unwrap();
            for threads in [2usize, 3, 7] {
                let parallel = sinkhorn(
                    &a,
                    &b,
                    &cost,
                    SinkhornConfig {
                        epsilon: 0.08,
                        eps_scaling,
                        threads,
                        parallel_min_cells: Some(1),
                        ..SinkhornConfig::default()
                    },
                )
                .unwrap();
                for i in 0..a.len() {
                    for j in 0..b.len() {
                        assert_eq!(
                            parallel.get(i, j).to_bits(),
                            sequential.get(i, j).to_bits(),
                            "scheduled = {}, threads = {threads}, cell ({i}, {j})",
                            eps_scaling.is_some()
                        );
                    }
                }
            }
        }
    }

    /// A 3-axis grid-separable problem: pmfs on the `g1 × g2 × g3`
    /// self-product support (strictly positive, unfiltered).
    fn product_grid_problem_3d() -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, CostMatrix) {
        let g1: Vec<f64> = (0..5).map(|i| -1.0 + 0.4 * i as f64).collect();
        let g2: Vec<f64> = (0..4).map(|i| 0.1 + 0.35 * i as f64).collect();
        let g3: Vec<f64> = (0..3).map(|i| -0.2 + 0.5 * i as f64).collect();
        let n = g1.len() * g2.len() * g3.len();
        let a: Vec<f64> = (0..n).map(|i| 0.2 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 0.3 + ((i * 3) % 4) as f64).collect();
        let cost = CostMatrix::squared_euclidean_grid_nd(&[&g1, &g2, &g3]).unwrap();
        (vec![g1, g2, g3], a, b, cost)
    }

    #[test]
    fn separable_kernel_agrees_with_dense_on_3d_product_grids() {
        let (_, a, b, cost) = product_grid_problem_3d();
        let base = SinkhornConfig {
            epsilon: 0.1,
            tol: 1e-9,
            eps_scaling: Some(EpsSchedule::default()),
            ..SinkhornConfig::default()
        };
        let dense = sinkhorn(&a, &b, &without_grid(&cost), base).unwrap();
        let sep = sinkhorn(&a, &b, &cost, base).unwrap();
        for i in 0..dense.rows() {
            for j in 0..dense.cols() {
                assert!(
                    (dense.get(i, j) - sep.get(i, j)).abs() < 1e-7,
                    "cell ({i}, {j}): dense {} vs separable {}",
                    dense.get(i, j),
                    sep.get(i, j)
                );
            }
        }
    }

    #[test]
    fn separable_kernel_3d_bit_identical_across_thread_counts() {
        let (_, a, b, cost) = product_grid_problem_3d();
        let cfg = |threads| SinkhornConfig {
            epsilon: 0.08,
            eps_scaling: Some(EpsSchedule::default()),
            threads,
            parallel_min_cells: Some(1),
            ..SinkhornConfig::default()
        };
        let sequential = sinkhorn(&a, &b, &cost, cfg(1)).unwrap();
        for threads in [2usize, 7] {
            let parallel = sinkhorn(&a, &b, &cost, cfg(threads)).unwrap();
            for i in 0..a.len() {
                for j in 0..b.len() {
                    assert_eq!(
                        parallel.get(i, j).to_bits(),
                        sequential.get(i, j).to_bits(),
                        "threads = {threads}, cell ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn materialize_separable_bitwise_matches_per_cell_definition() {
        // The row walk must reproduce the per-cell definition
        // `u_r · Π_a K_a[r_a, c_a] · v_c`, multiplied left to right, bit
        // for bit; the oracle decodes both multi-indices of every cell.
        let (gx, gy, _, _, _) = product_grid_problem();
        let (axes_3d, _, _, _) = product_grid_problem_3d();
        for axes in [vec![gx, gy], axes_3d] {
            let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
            let cost = CostMatrix::squared_euclidean_grid_nd(&axis_refs).unwrap();
            let kernel = KernelRep::separable_grid_nd(&axis_refs, 0.3);
            let ks = &kernel.axes;
            let n = cost.rows();
            let u: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7) % 11) as f64 / 3.0).collect();
            let v: Vec<f64> = (0..n).map(|i| 0.2 + ((i * 5) % 13) as f64 / 7.0).collect();
            let d = ks.len();
            let mut suffix = vec![1usize; d + 1];
            for a in (0..d).rev() {
                suffix[a] = suffix[a + 1] * ks[a].n;
            }
            let oracle: Vec<f64> = (0..n * n)
                .map(|idx| {
                    let (r, c) = (idx / n, idx % n);
                    let mut acc = u[r];
                    for (a, ax) in ks.iter().enumerate() {
                        let ia = (r / suffix[a + 1]) % ax.n;
                        let ja = (c / suffix[a + 1]) % ax.n;
                        acc *= ax.k[ia * ax.n + ja];
                    }
                    acc * v[c]
                })
                .collect();
            for threads in [1usize, 2, 7] {
                let got = materialize_separable(&kernel, &u, &v, threads);
                let first_diff = got
                    .iter()
                    .zip(&oracle)
                    .position(|(x, y)| x.to_bits() != y.to_bits());
                assert_eq!(first_diff, None, "d = {d}, threads = {threads}");
            }
        }
    }

    /// A factored solve's plan, rebuilt by [`plan_from_scalings`] from the
    /// solve's marginals, grid, final ε and final scalings, has the bits
    /// `sinkhorn_warm` returned, at 1, 2, 3 and 7 threads: on
    /// [`product_grid_problem`] at ε = 0.08, and on
    /// [`product_grid_problem_3d`] with the default schedule.
    #[test]
    fn plan_from_scalings_rebuilds_the_factored_plan_bitwise() {
        let (gx, gy, a, b, cost) = product_grid_problem();
        let (axes_3d, a3, b3, cost_3d) = product_grid_problem_3d();
        let cases = [
            (vec![gx, gy], a, b, cost, None),
            (axes_3d, a3, b3, cost_3d, Some(EpsSchedule::default())),
        ];
        let bits = |plan: &OtPlan| {
            let cells = (0..plan.rows()).flat_map(|i| plan.row(i).iter());
            cells.map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        for (axes, a, b, cost, eps_scaling) in &cases {
            let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
            for threads in [1usize, 2, 3, 7] {
                let config = SinkhornConfig {
                    epsilon: 0.08,
                    eps_scaling: *eps_scaling,
                    threads,
                    parallel_min_cells: Some(1),
                    ..SinkhornConfig::default()
                };
                let (plan, duals) = sinkhorn_warm(a, b, cost, config, None).unwrap();
                let scalings = duals.scalings.expect("the factored domain converged");
                let rebuilt = plan_from_scalings(a, b, &axis_refs, 0.08, &scalings, threads);
                assert!(
                    bits(&rebuilt.unwrap()) == bits(&plan),
                    "d = {}, threads = {threads}",
                    axes.len()
                );
            }
        }
        // A dense or log-domain plan leaves no scalings to rebuild it from.
        let (_, _, a, b, cost) = product_grid_problem();
        let config = SinkhornConfig::with_epsilon(0.08);
        let (_, duals) = sinkhorn_warm(&a, &b, &without_grid(&cost), config, None).unwrap();
        assert_eq!(duals.scalings, None);
    }

    /// Every input `plan_from_scalings` cannot rebuild from is an error,
    /// never a panic.
    #[test]
    fn plan_from_scalings_rejects_what_it_cannot_rebuild() {
        let (gx, gy, a, b, cost) = product_grid_problem();
        let config = SinkhornConfig::with_epsilon(0.08);
        let (plan, duals) = sinkhorn_warm(&a, &b, &cost, config, None).unwrap();
        let scalings = duals.scalings.unwrap();
        let axes = [gx.as_slice(), gy.as_slice()];
        let rebuild = |a: &[f64], b: &[f64], s: &FactoredScalings| {
            plan_from_scalings(a, b, &axes, 0.08, s, 1)
        };
        assert_eq!(rebuild(&a, &b, &scalings).unwrap(), plan);
        let short = |v: &[f64]| v[1..].to_vec();
        let short_u = FactoredScalings {
            u: short(&scalings.u),
            ..scalings.clone()
        };
        let short_v = FactoredScalings {
            v: short(&scalings.v),
            ..scalings.clone()
        };
        for err in [
            rebuild(&short(&a), &b, &scalings),
            rebuild(&a, &short(&b), &scalings),
            rebuild(&a, &b, &short_u),
            rebuild(&a, &b, &short_v),
        ] {
            assert!(
                matches!(err, Err(OtError::LengthMismatch { .. })),
                "{err:?}"
            );
        }
        for bad in [-0.1, f64::NAN] {
            let mut worse = a.clone();
            worse[4] = bad;
            let err = rebuild(&worse, &b, &scalings);
            assert!(matches!(err, Err(OtError::InvalidMass(_))), "{err:?}");
            let err = rebuild(&a, &worse, &scalings);
            assert!(matches!(err, Err(OtError::InvalidMass(_))), "{err:?}");
        }
        let err = rebuild(&vec![0.0; a.len()], &b, &scalings);
        assert!(matches!(err, Err(OtError::InvalidMass(_))), "{err:?}");
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut worse = scalings.clone();
            worse.v[7] = bad;
            let err = rebuild(&a, &b, &worse);
            assert!(
                matches!(err, Err(OtError::InvalidParameter { .. })),
                "{err:?}"
            );
        }
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = plan_from_scalings(&a, &b, &axes, eps, &scalings, 1);
            assert!(
                matches!(err, Err(OtError::InvalidParameter { .. })),
                "{err:?}"
            );
        }
        for grid in [&[][..], &[gx.as_slice(), &[]][..]] {
            let err = plan_from_scalings(&a, &b, grid, 0.08, &scalings, 1);
            assert!(matches!(err, Err(OtError::EmptyInput(_))), "{err:?}");
        }
    }

    /// The column passes walk the rows, and give the bits of a row pass
    /// over an explicitly transposed copy at 1, 2, 3 and 7 threads:
    /// [`dense_matvec_t`] those of [`dense_matvec`] (against weights,
    /// and against ones, which is how the rounding sums columns), and
    /// [`col_log_sum_exp`] those of [`log_sum_exp`].
    #[test]
    fn column_passes_bitwise_match_row_passes_over_a_transposed_copy() {
        // Mixed magnitudes and signs make the summation order visible in
        // the bits; one column of -inf exercises the empty LSE.
        let (rows, cols) = (13, 9);
        let mut k: Vec<f64> = (0..rows * cols)
            .map(|i| ((i * 37) % 101) as f64 * 10f64.powi((i % 7) as i32 - 3) - 20.0)
            .collect();
        let x: Vec<f64> = (0..rows)
            .map(|i| 0.5 - ((i * 5) % 11) as f64 / 3.0)
            .collect();
        let mut kt = vec![0.0f64; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                kt[j * rows + i] = k[i * cols + j];
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for weights in [x.clone(), vec![1.0; rows]] {
            let mut want = vec![0.0f64; cols];
            dense_matvec(&kt, rows, &weights, &mut want, 1);
            for threads in [1usize, 2, 3, 7] {
                let mut got = vec![f64::NAN; cols];
                dense_matvec_t(&k, cols, &weights, &mut got, threads);
                assert_eq!(bits(&got), bits(&want), "matvec, threads = {threads}");
            }
        }

        for i in 0..rows {
            k[i * cols + 4] = f64::NEG_INFINITY;
            kt[4 * rows + i] = f64::NEG_INFINITY;
        }
        let want: Vec<f64> = kt
            .chunks_exact(rows)
            .map(|col| log_sum_exp(col.iter().zip(&x).map(|(c, xi)| c + xi)))
            .collect();
        assert_eq!(want[4], f64::NEG_INFINITY);
        for threads in [1usize, 2, 3, 7] {
            let (mut got, mut sums) = (vec![f64::NAN; cols], vec![f64::NAN; cols]);
            col_log_sum_exp(&k, &x, &mut got, &mut sums, threads);
            assert_eq!(bits(&got), bits(&want), "log-sum-exp, threads = {threads}");
        }
    }

    /// `v` scaled to unit mass, as `sinkhorn_warm` normalizes its
    /// marginals.
    fn normalized(v: &[f64]) -> Vec<f64> {
        let total: f64 = v.iter().sum();
        v.iter().map(|x| x / total).collect()
    }

    /// `sinkhorn_warm` solves `(a, b, cost)` at `eps` within the default
    /// `tol` (the final stage errs otherwise) and returns the same plan
    /// and dual bits at 1, 2, 3 and 7 threads, every kernel chunked.
    fn assert_converges_bitwise_at_any_thread_count(
        a: &[f64],
        b: &[f64],
        cost: &CostMatrix,
        eps: f64,
    ) {
        let solve = |threads: usize| {
            let config = SinkhornConfig {
                epsilon: eps,
                threads,
                parallel_min_cells: Some(1),
                ..SinkhornConfig::default()
            };
            let (plan, duals) = sinkhorn_warm(a, b, cost, config, None).unwrap();
            plan.validate_marginals(a, b).unwrap();
            let mass = (0..a.len()).flat_map(|i| (0..b.len()).map(move |j| (i, j)));
            let mass: Vec<f64> = mass.map(|(i, j)| plan.get(i, j)).collect();
            [mass, duals.f, duals.g].map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
        };
        let one = solve(1);
        for threads in [2usize, 3, 7] {
            assert!(solve(threads) == one, "eps = {eps}, threads = {threads}");
        }
    }

    /// The separable standard domain carries the full duals in its
    /// scalings. Give [`product_grid_problem`] two cells of mass 1e-200,
    /// as a KDE marginal has far out in its tails, and at ε = 0.05 those
    /// scalings pass `SEPARABLE_SCALING_MAX` at the first check: the
    /// domain returns `Unstable`, and the solve falls back to the log
    /// domain, which still converges, with the same bytes at every thread
    /// count.
    #[test]
    fn separable_fallback_converges_bitwise_at_any_thread_count() {
        let (_, _, mut a, b, cost) = product_grid_problem();
        let last = a.len() - 1;
        (a[0], a[last]) = (1e-200, 1e-200);
        let (a, b) = (normalized(&a), normalized(&b));
        let sub = SubProblem {
            separable: cost.grid_nd(),
            ..full_sub(&cost, &a, &b, 1)
        };
        let (mut phi, mut psi) = (vec![0.0f64; a.len()], vec![0.0f64; b.len()]);
        let outcome = sub.iterate_standard(0.05, 20_000, 1e-6, &mut phi, &mut psi, true);
        assert!(matches!(outcome, StandardOutcome::Unstable));
        assert_converges_bitwise_at_any_thread_count(&a, &b, &cost, 0.05);
    }

    /// The dense standard domain absorbs drifting scalings into its
    /// kernel, but on two bumps over a 20-point support at ε = 0.003 its
    /// residual stalls: it returns `Unstable`, and the solve falls back
    /// to the log domain, which still converges, with the same bytes at
    /// every thread count.
    #[test]
    fn dense_fallback_converges_bitwise_at_any_thread_count() {
        let support: Vec<f64> = (0..20).map(|i| -3.0 + 6.0 * i as f64 / 19.0).collect();
        let bump = |m: f64| {
            let pmf: Vec<f64> = support
                .iter()
                .map(|x| (-(x - m) * (x - m) / 0.5).exp())
                .collect();
            normalized(&pmf.iter().map(|p| p + 1e-6).collect::<Vec<f64>>())
        };
        let (a, b) = (bump(-1.0), bump(1.0));
        let cost = CostMatrix::squared_euclidean(&support, &support).unwrap();
        let sub = full_sub(&cost, &a, &b, 1);
        let (mut phi, mut psi) = (vec![0.0f64; a.len()], vec![0.0f64; b.len()]);
        let outcome = sub.iterate_standard(0.003, 20_000, 1e-6, &mut phi, &mut psi, true);
        assert!(matches!(outcome, StandardOutcome::Unstable));
        assert_converges_bitwise_at_any_thread_count(&a, &b, &cost, 0.003);
    }

    #[test]
    fn log_domain_reports_a_nan_residual_as_no_convergence() {
        // A NaN warm dual turns every iterate NaN. NaN compares false
        // both ways, so the final check must still fail it rather than
        // return a NaN plan as converged.
        let cost = CostMatrix::squared_euclidean(&[0.0, 1.0, 2.0], &[0.5, 1.5]).unwrap();
        let sub = full_sub(&cost, &[0.3, 0.4, 0.3], &[0.5, 0.5], 1);
        let mut phi = vec![0.0f64; 3];
        let mut psi = vec![0.0, f64::NAN];
        match sub.iterate_log(0.1, 50, 1e-6, &mut phi, &mut psi, true) {
            Err(OtError::NoConvergence { residual, .. }) => assert!(residual.is_nan()),
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn costs_off_product_grids_solve_dense() {
        // A non-separable cost must solve dense (and correctly), never
        // error; and zero-mass filtering on a product-grid cost also
        // falls back cleanly.
        let support_a = [0.0, 1.0, 2.0];
        let support_b = [0.5, 1.5];
        let a = [0.3, 0.4, 0.3];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&support_a, &support_b).unwrap();
        let plan = sinkhorn(&a, &b, &cost, SinkhornConfig::default()).unwrap();
        plan.validate_marginals(&a, &b).unwrap();

        let (gx, gy, mut a2, b2, cost2) = product_grid_problem();
        a2[3] = 0.0; // filtering narrows the support → product structure gone
        let _ = (gx, gy);
        let plan2 = sinkhorn(
            &a2,
            &b2,
            &cost2,
            SinkhornConfig {
                epsilon: 0.1,
                ..SinkhornConfig::default()
            },
        )
        .unwrap();
        assert!(plan2.row_marginal()[3].abs() < 1e-12);
    }

    #[test]
    fn larger_epsilon_spreads_mass() {
        // Entropy regularization blurs the plan: off-diagonal mass grows
        // with eps.
        let a = [0.5, 0.5];
        let b = [0.5, 0.5];
        let cost = CostMatrix::squared_euclidean(&[0.0, 1.0], &[0.0, 1.0]).unwrap();
        let sharp = sinkhorn(&a, &b, &cost, SinkhornConfig::with_epsilon(0.01)).unwrap();
        let blurry = sinkhorn(&a, &b, &cost, SinkhornConfig::with_epsilon(10.0)).unwrap();
        assert!(blurry.get(0, 1) > sharp.get(0, 1));
        // At huge eps the plan approaches the independent coupling 0.25.
        assert!((blurry.get(0, 1) - 0.25).abs() < 0.05);
    }

    #[test]
    fn schedule_json_ignores_the_retired_stage_budget_keys() {
        // Plans written before the stage budget became a constant carry
        // `stage_iters`/`stage_tol`; they load as the same schedule.
        let s: EpsSchedule =
            serde_json::from_str(r#"{"eps0":0.5,"factor":0.5,"stage_iters":0,"stage_tol":0.0}"#)
                .unwrap();
        assert_eq!(s, EpsSchedule::geometric(0.5, 0.5));
        let round: EpsSchedule =
            serde_json::from_str(&serde_json::to_string(&EpsSchedule::default()).unwrap()).unwrap();
        assert_eq!(round, EpsSchedule::default());
    }
}
