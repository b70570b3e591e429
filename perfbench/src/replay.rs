//! Stage replays for the traced run.
//!
//! A design call is one opaque call from outside its crate. To split its
//! time by layer, the traced run calls the same public stage functions
//! the designer calls, in the same order and on the same inputs, each in
//! its own span — then checks that the replay reproduced the real
//! result bit for bit, so the per-stage times describe the same work.

use otr_core::{JointRepairConfig, JointRepairPlan, RepairPlan};
use otr_data::{Dataset, GroupKey};
use otr_ot::{
    entropic_barycentre_grid_nd, quantile_barycentre, BarycentreConfig, CostMatrix,
    DiscreteDistribution, KernelRep, OtPlan, Solver1d as _,
};
use otr_stats::{GaussianKde, GaussianKdeNd};

use crate::common::{Ctx, Outcome};

fn same_plan(a: &OtPlan, b: &OtPlan) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|i| {
            a.row(i)
                .iter()
                .zip(b.row(i))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// The uniform support over the pooled range of two columns (Algorithm 1
/// line 4), as the designers build it.
fn pooled_grid(cols: [&[f64]; 2], n_q: usize) -> Vec<f64> {
    let lo = cols
        .iter()
        .flat_map(|c| c.iter())
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = cols
        .iter()
        .flat_map(|c| c.iter())
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    (0..n_q)
        .map(|i| lo + (hi - lo) * i as f64 / (n_q - 1) as f64)
        .collect()
}

/// KDE pmf on a grid with the designers' positivity floor.
fn floored(mut pmf: Vec<f64>, normalise: bool) -> Vec<f64> {
    let floor = pmf.iter().copied().fold(0.0, f64::max) * 1e-12;
    for p in &mut pmf {
        *p = p.max(floor);
    }
    if normalise {
        let total: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p /= total;
        }
    }
    pmf
}

/// Replay `RepairPlanner::design` stratum by stratum: KDE marginals
/// (otr-stats), quantile barycentre and plan solves (otr-ot). Checks the
/// replayed plans against `plan` bit for bit.
pub fn scalar_design(
    ctx: &Ctx,
    out: &mut Outcome,
    research: &Dataset,
    plan: &RepairPlan,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let cfg = plan.config;
    let mut identical = true;
    for fp in plan.feature_plans() {
        let mut cols = Vec::with_capacity(2);
        for s in 0..2u8 {
            let col = tr
                .span("data", "feature_column", || {
                    research.feature_column(GroupKey { u: fp.u, s }, fp.k)
                })
                .map_err(|e| e.to_string())?;
            cols.push(col);
        }
        let support = pooled_grid([&cols[0], &cols[1]], cfg.n_q);
        let mut marginals = Vec::with_capacity(2);
        for col in &cols {
            let pmf = tr
                .span("stats", "kde", || {
                    GaussianKde::fit(col, cfg.bandwidth).and_then(|k| k.pmf_on_grid(&support))
                })
                .map_err(|e| e.to_string())?;
            tr.count("stats.kde_cells", (col.len() * support.len()) as u64);
            marginals.push(
                DiscreteDistribution::new(support.clone(), floored(pmf, false))
                    .map_err(|e| e.to_string())?,
            );
        }
        let bary = tr
            .span("ot", "barycentre", || {
                quantile_barycentre(
                    &marginals[0],
                    &marginals[1],
                    cfg.t,
                    &support,
                    cfg.barycentre_resolution,
                )
            })
            .map_err(|e| e.to_string())?;
        for (marginal, designed) in marginals.iter().zip(&fp.plans) {
            let (replayed, _) = tr
                .span("ot", "plan_solve", || {
                    cfg.solver.solve_1d_warm(marginal, &bary, cfg.threads, None)
                })
                .map_err(|e| e.to_string())?;
            tr.count("ot.plan_solves", 1);
            identical &= same_plan(&replayed, designed);
        }
    }
    out.check("replayed scalar design == designed plans", identical);
    Ok(())
}

/// Replay `JointRepairPlan::design` per `u`-stratum: d-variate KDE
/// (otr-stats), entropic barycentre on the product grid and the plan
/// solves (otr-ot). Checks that every replayed plan's transport cost
/// equals `plan.expected_transport_cost(u, s)` bit for bit.
pub fn joint_design(
    ctx: &Ctx,
    out: &mut Outcome,
    research: &Dataset,
    plan: &JointRepairPlan,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let cfg: JointRepairConfig = *plan.config();
    let d = research.dim();
    let mut identical = true;
    for u in 0..2u8 {
        let mut cols: [Vec<Vec<f64>>; 2] = Default::default();
        for s in 0..2u8 {
            for k in 0..d {
                let col = tr
                    .span("data", "feature_column", || {
                        research.feature_column(GroupKey { u, s }, k)
                    })
                    .map_err(|e| e.to_string())?;
                cols[s as usize].push(col);
            }
        }
        let axes: Vec<Vec<f64>> = (0..d)
            .map(|k| pooled_grid([&cols[0][k], &cols[1][k]], cfg.n_q))
            .collect();
        let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
        let cells: usize = axes.iter().map(Vec::len).product();
        let mut pmfs = Vec::with_capacity(2);
        for col in &cols {
            let col_refs: Vec<&[f64]> = col.iter().map(Vec::as_slice).collect();
            let pmf = tr
                .span("stats", "kde_nd", || {
                    GaussianKdeNd::fit(&col_refs).and_then(|k| k.pmf_on_grid(&axis_refs))
                })
                .map_err(|e| e.to_string())?;
            tr.count("stats.kde_cells", (col[0].len() * cells) as u64);
            pmfs.push(floored(pmf, true));
        }
        let (bary, diagnostics) = tr
            .span("ot", "barycentre", || {
                entropic_barycentre_grid_nd(
                    &[&pmfs[0], &pmfs[1]],
                    &[1.0 - cfg.t, cfg.t],
                    &axis_refs,
                    &BarycentreConfig {
                        eps: cfg.epsilon,
                        max_iters: 5_000,
                        tol: 1e-9,
                        eps_scaling: cfg.eps_scaling,
                        threads: cfg.threads,
                        parallel_min_cells: None,
                        kernel: cfg.kernel,
                    },
                )
            })
            .map_err(|e| e.to_string())?;
        tr.count("ot.barycentre_iters", diagnostics.iterations as u64);
        tr.count(
            "ot.final_stage_iters",
            diagnostics.stages.last().map_or(0, |&(_, n)| n) as u64,
        );
        tr.count(
            "ot.kernel_work_cells",
            KernelRep::separable_grid_nd(&axis_refs, cfg.epsilon).work_cells() as u64,
        );
        let cost = CostMatrix::squared_euclidean_grid_nd(&axis_refs).map_err(|e| e.to_string())?;
        for (s, pmf) in pmfs.iter().enumerate() {
            let (replayed, _) = tr
                .span("ot", "plan_solve", || {
                    cfg.plan_solver().solve_with_cost_warm(
                        pmf,
                        &bary,
                        &cost,
                        cfg.threads,
                        cfg.kernel,
                        None,
                    )
                })
                .map_err(|e| e.to_string())?;
            tr.count("ot.plan_solves", 1);
            let replayed_cost = replayed.transport_cost(&cost).map_err(|e| e.to_string())?;
            let designed = plan
                .expected_transport_cost(u, s as u8)
                .map_err(|e| e.to_string())?;
            identical &= replayed_cost.to_bits() == designed.to_bits();
        }
    }
    out.check(
        "replayed joint solves == expected_transport_cost",
        identical,
    );
    Ok(())
}
