//! The unified solver seam: one type that owns backend selection,
//! epsilon handling, and failure-fallback policy for every OT solve in
//! the workspace.
//!
//! Downstream crates (`otr-core`'s planners, the CLI's `--solver` flag,
//! the bench ablations) never match on solver variants: they hold a
//! [`SolverBackend`] and call [`Solver1d::solve_1d_warm`] /
//! [`Solver1d::solve_with_cost_warm`]. Adding a backend (a parallel
//! design, a new regularizer) means adding a variant *here* and nowhere
//! else.
//!
//! Policy centralized here:
//! * **Backend selection** — the `match` over variants lives only in this
//!   module.
//! * **Epsilon handling** — Sinkhorn's regularization strength is carried
//!   by the variant and validated by [`SolverBackend::validate`].
//! * **Sinkhorn fallback** — a pathologically small `ε` on a wide support
//!   may exhaust the iteration budget; the exact transportation simplex
//!   is the documented fallback (same optimum, no regularization). That
//!   policy used to be inlined in `otr-core`'s per-feature planner and
//!   silently absent from the joint planner; it now applies uniformly.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::cost::CostMatrix;
use crate::coupling::OtPlan;
use crate::discrete::DiscreteDistribution;
use crate::error::{OtError, Result};
use crate::kernel::KernelChoice;
use crate::solvers::monotone::solve_monotone_1d;
use crate::solvers::simplex::solve_transportation_simplex;
use crate::solvers::sinkhorn::{sinkhorn_warm, EpsSchedule, SinkhornConfig, SinkhornDuals};

/// Which OT solver designs coupling plans.
///
/// Serialized with serde's external tagging (`"ExactMonotone"`,
/// `{"Sinkhorn":{"epsilon":0.05}}`), so persisted repair plans record the
/// backend that designed them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum SolverBackend {
    /// Exact 1-D monotone coupling (north-west-corner on sorted supports)
    /// — optimal for convex translation-invariant costs, `O(n + m)` per
    /// plan; the Algorithm 1 hot path. Requires 1-D geometry: it cannot
    /// serve [`Solver1d::solve_with_cost_warm`] on arbitrary cost
    /// matrices.
    #[default]
    ExactMonotone,
    /// Exact transportation simplex (MODI) — any cost matrix, any
    /// dimension, `O(n³ log n)`-class. Ground truth and the fallback
    /// target for a non-converging Sinkhorn.
    Simplex,
    /// Entropic Sinkhorn–Knopp with the given regularization `ε` — the
    /// `O(n²/ε²)` alternative of Section IV-A1; plans are blurred by the
    /// entropy term, which the randomization of Algorithm 2 inherits.
    Sinkhorn {
        /// Regularization strength (in squared-feature units).
        epsilon: f64,
        /// Optional ε-annealing schedule with warm-started duals,
        /// ending at `epsilon` (see [`EpsSchedule`]). Absent in plan
        /// JSON written before the schedule existed, so it defaults to
        /// `None` on deserialization.
        #[serde(default)]
        eps_scaling: Option<EpsSchedule>,
    },
}

impl SolverBackend {
    /// Entropic Sinkhorn backend at the given `ε`, no annealing — the
    /// common spelling (the struct variant exists for serde and for the
    /// scheduled form).
    pub fn sinkhorn(epsilon: f64) -> Self {
        SolverBackend::Sinkhorn {
            epsilon,
            eps_scaling: None,
        }
    }

    /// Entropic Sinkhorn backend annealed along `schedule` down to
    /// `epsilon` ([`SolverBackend::sinkhorn`] with warm-started
    /// ε-scaling).
    pub fn sinkhorn_scaled(epsilon: f64, schedule: EpsSchedule) -> Self {
        SolverBackend::Sinkhorn {
            epsilon,
            eps_scaling: Some(schedule),
        }
    }

    /// Validate the backend's parameters (currently: Sinkhorn's `ε` must
    /// be positive and finite, and its optional ε-schedule well-formed).
    ///
    /// # Errors
    /// [`OtError::InvalidParameter`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if let SolverBackend::Sinkhorn {
            epsilon,
            eps_scaling,
        } = self
        {
            if !(*epsilon > 0.0) || !epsilon.is_finite() {
                return Err(OtError::InvalidParameter {
                    name: "solver.epsilon",
                    reason: format!("must be positive and finite, got {epsilon}"),
                });
            }
            if let Some(schedule) = eps_scaling {
                schedule.validate()?;
            }
        }
        Ok(())
    }
}

/// Largest plan size (rows × cols) the Sinkhorn failure path will hand
/// to the exact simplex. Covers every 1-D design the workspace runs
/// (`n_q ≤ 512`) while keeping huge product-support problems from
/// silently entering an `O(n³)`-class rescue.
pub const SIMPLEX_FALLBACK_MAX_CELLS: usize = 512 * 512;

/// The one interface through which every layer of the workspace solves
/// optimal transport. Object-safe, so callers may also hold
/// `&dyn Solver1d`.
///
/// Both methods take a worker-thread request for the backend's
/// in-kernel parallelism (`0` = auto; the plan's bytes never depend on
/// it, only wall-clock time does) and optional entropic dual potentials
/// for warm-started re-solves. Entropic backends seed their iteration
/// from `warm` when the potentials match the problem shape (a mismatch
/// degrades to a cold solve — never an error, so callers may pass duals
/// recorded under a different grid resolution) and return the converged
/// duals of the plan they produce. A caller-provided warm start
/// **replaces** any configured ε-schedule: the schedule exists only to
/// warm the duals, which the caller has already done, so the solve runs
/// directly at the final ε. Exact backends ignore `warm` and return
/// `None` duals.
pub trait Solver1d {
    /// Solve OT between two mass vectors under an explicit cost matrix
    /// (the joint/2-D setting, or any non-Euclidean geometry). An
    /// entropic backend factorizes its Gibbs kernel whenever the cost
    /// carries a product grid, whatever `kernel` says; a `Dense` choice
    /// is refused before any work ([`KernelChoice::validate`]).
    ///
    /// # Errors
    /// Propagates validation failures, and
    /// [`OtError::InvalidParameter`] for a `Dense` kernel choice and for
    /// backends that require 1-D structure
    /// ([`SolverBackend::ExactMonotone`]). Up to
    /// [`SIMPLEX_FALLBACK_MAX_CELLS`] the entropic backend does not fail
    /// for non-convergence — it falls back to the exact simplex (which
    /// can itself report [`OtError::NoConvergence`] on pathologically
    /// degenerate instances that exhaust its pivot budget).
    fn solve_with_cost_warm(
        &self,
        mu: &[f64],
        nu: &[f64],
        cost: &CostMatrix,
        threads: usize,
        kernel: KernelChoice,
        warm: Option<&SinkhornDuals>,
    ) -> Result<(OtPlan, Option<SinkhornDuals>)>;

    /// Solve 1-D OT between two distributions on ordered supports under
    /// squared-Euclidean cost (the Algorithm 1 setting).
    ///
    /// # Errors
    /// As [`Solver1d::solve_with_cost_warm`], except that every backend
    /// serves this 1-D form.
    fn solve_1d_warm(
        &self,
        mu: &DiscreteDistribution,
        nu: &DiscreteDistribution,
        threads: usize,
        warm: Option<&SinkhornDuals>,
    ) -> Result<(OtPlan, Option<SinkhornDuals>)>;
}

impl Solver1d for SolverBackend {
    fn solve_with_cost_warm(
        &self,
        mu: &[f64],
        nu: &[f64],
        cost: &CostMatrix,
        threads: usize,
        kernel: KernelChoice,
        warm: Option<&SinkhornDuals>,
    ) -> Result<(OtPlan, Option<SinkhornDuals>)> {
        kernel.validate()?;
        self.validate()?;
        match self {
            SolverBackend::ExactMonotone => Err(OtError::InvalidParameter {
                name: "solver",
                reason: "the exact monotone backend requires 1-D ordered supports; \
                         use `Simplex` or `Sinkhorn` for general cost matrices"
                    .into(),
            }),
            SolverBackend::Simplex => Ok((solve_transportation_simplex(mu, nu, cost)?, None)),
            SolverBackend::Sinkhorn {
                epsilon,
                eps_scaling,
            } => {
                // A shape-compatible warm start replaces the ε-schedule
                // (the schedule's only job is warming the duals); a
                // mismatch — duals recorded under a different grid —
                // degrades to the configured cold solve.
                let warm = warm.filter(|d| d.f.len() == mu.len() && d.g.len() == nu.len());
                let config = SinkhornConfig {
                    threads,
                    eps_scaling: if warm.is_some() { None } else { *eps_scaling },
                    ..SinkhornConfig::with_epsilon(*epsilon)
                };
                match sinkhorn_warm(mu, nu, cost, config, warm) {
                    Ok((plan, duals)) => Ok((plan, Some(duals))),
                    // The single home of the Sinkhorn-failure policy: fall
                    // back to the exact simplex rather than surfacing a
                    // convergence error for a solvable problem — but only
                    // where the simplex is affordable. Beyond the cell cap
                    // (joint/product supports can reach n_q⁴ cells) an
                    // O(n³)-class rescue would hang for hours, so the
                    // convergence error surfaces instead.
                    Err(OtError::NoConvergence { .. })
                        if mu.len() * nu.len() <= SIMPLEX_FALLBACK_MAX_CELLS =>
                    {
                        Ok((solve_transportation_simplex(mu, nu, cost)?, None))
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    fn solve_1d_warm(
        &self,
        mu: &DiscreteDistribution,
        nu: &DiscreteDistribution,
        threads: usize,
        warm: Option<&SinkhornDuals>,
    ) -> Result<(OtPlan, Option<SinkhornDuals>)> {
        self.validate()?;
        match self {
            SolverBackend::ExactMonotone => Ok((solve_monotone_1d(mu, nu)?, None)),
            SolverBackend::Simplex | SolverBackend::Sinkhorn { .. } => {
                let cost = CostMatrix::squared_euclidean(mu.support(), nu.support())?;
                self.solve_with_cost_warm(
                    mu.masses(),
                    nu.masses(),
                    &cost,
                    threads,
                    KernelChoice::Auto,
                    warm,
                )
            }
        }
    }
}

impl fmt::Display for SolverBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverBackend::ExactMonotone => write!(f, "exact"),
            SolverBackend::Simplex => write!(f, "simplex"),
            SolverBackend::Sinkhorn {
                epsilon,
                eps_scaling: None,
            } => write!(f, "sinkhorn:{epsilon}"),
            SolverBackend::Sinkhorn {
                epsilon,
                eps_scaling: Some(s),
            } => {
                if *s == EpsSchedule::default() {
                    write!(f, "sinkhorn:{epsilon}:scaled")
                } else {
                    write!(f, "sinkhorn:{epsilon}:scaled:{}:{}", s.eps0, s.factor)
                }
            }
        }
    }
}

impl FromStr for SolverBackend {
    type Err = OtError;

    /// Parse the CLI spelling: `exact`, `simplex`,
    /// `sinkhorn:<eps>`, or the ε-scaled forms
    /// `sinkhorn:<eps>:scaled` (default schedule) and
    /// `sinkhorn:<eps>:scaled:<eps0>:<factor>`.
    fn from_str(s: &str) -> Result<Self> {
        let parse_f64 = |what: &str, v: &str| -> Result<f64> {
            v.parse::<f64>().map_err(|_| OtError::InvalidParameter {
                name: "solver",
                reason: format!("cannot parse Sinkhorn {what} from `{v}`"),
            })
        };
        let backend = match s {
            "exact" => SolverBackend::ExactMonotone,
            "simplex" => SolverBackend::Simplex,
            _ => match s.strip_prefix("sinkhorn:") {
                Some(rest) => {
                    let mut parts = rest.split(':');
                    let epsilon = parse_f64("epsilon", parts.next().unwrap_or(""))?;
                    let eps_scaling = match parts.next() {
                        None => None,
                        Some("scaled") => {
                            let tail: Vec<&str> = parts.collect();
                            match tail.as_slice() {
                                [] => Some(EpsSchedule::default()),
                                [eps0, factor] => Some(EpsSchedule::geometric(
                                    parse_f64("eps0", eps0)?,
                                    parse_f64("factor", factor)?,
                                )),
                                _ => {
                                    return Err(OtError::InvalidParameter {
                                        name: "solver",
                                        reason: format!(
                                            "expected `sinkhorn:<eps>:scaled` or \
                                             `sinkhorn:<eps>:scaled:<eps0>:<factor>`, got `{s}`"
                                        ),
                                    })
                                }
                            }
                        }
                        Some(other) => {
                            return Err(OtError::InvalidParameter {
                                name: "solver",
                                reason: format!(
                                    "unknown Sinkhorn option `{other}` (expected `scaled`)"
                                ),
                            })
                        }
                    };
                    SolverBackend::Sinkhorn {
                        epsilon,
                        eps_scaling,
                    }
                }
                None => {
                    return Err(OtError::InvalidParameter {
                        name: "solver",
                        reason: format!(
                            "unknown solver `{s}` (expected `exact`, `simplex`, \
                             `sinkhorn:<eps>`, or `sinkhorn:<eps>:scaled[:<eps0>:<factor>]`)"
                        ),
                    })
                }
            },
        };
        backend.validate()?;
        Ok(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dd(support: &[f64], masses: &[f64]) -> DiscreteDistribution {
        DiscreteDistribution::new(support.to_vec(), masses.to_vec()).unwrap()
    }

    fn all_backends() -> [SolverBackend; 3] {
        [
            SolverBackend::ExactMonotone,
            SolverBackend::Simplex,
            SolverBackend::sinkhorn(0.05),
        ]
    }

    #[test]
    fn all_backends_produce_valid_couplings_via_unified_interface() {
        let mu = dd(&[-1.0, 0.0, 1.0, 2.0], &[0.1, 0.4, 0.3, 0.2]);
        let nu = dd(&[-0.5, 0.5, 1.5], &[0.3, 0.4, 0.3]);
        for backend in all_backends() {
            let (plan, _) = backend.solve_1d_warm(&mu, &nu, 0, None).unwrap();
            plan.validate_marginals(mu.masses(), nu.masses())
                .unwrap_or_else(|e| panic!("{backend}: {e}"));
        }
    }

    #[test]
    fn exact_backends_agree_on_transport_cost() {
        let mu = dd(&[0.0, 1.0, 2.0, 3.5], &[0.25, 0.25, 0.25, 0.25]);
        let nu = dd(&[0.5, 2.5, 4.0], &[0.5, 0.3, 0.2]);
        let cost = CostMatrix::squared_euclidean(mu.support(), nu.support()).unwrap();
        let mono = SolverBackend::ExactMonotone
            .solve_1d_warm(&mu, &nu, 0, None)
            .unwrap()
            .0
            .transport_cost(&cost)
            .unwrap();
        let simp = SolverBackend::Simplex
            .solve_1d_warm(&mu, &nu, 0, None)
            .unwrap()
            .0
            .transport_cost(&cost)
            .unwrap();
        assert!(
            (mono - simp).abs() < 1e-9 * (1.0 + mono),
            "{mono} vs {simp}"
        );
        // Entropic cost upper-bounds the exact optimum and converges to it.
        let entropic = SolverBackend::sinkhorn(0.01)
            .solve_1d_warm(&mu, &nu, 0, None)
            .unwrap()
            .0
            .transport_cost(&cost)
            .unwrap();
        assert!(entropic >= mono - 1e-9);
        assert!((entropic - mono).abs() < 0.05, "{entropic} vs {mono}");
    }

    #[test]
    fn sinkhorn_no_convergence_falls_back_to_simplex() {
        // eps = 1e-12 over a cost range of ~36 cannot converge in the
        // default iteration budget; the unified seam must silently hand
        // the problem to the exact simplex and return its optimum.
        let mu = dd(&[0.0, 3.0, 6.0], &[0.5, 0.25, 0.25]);
        let nu = dd(&[1.0, 4.0], &[0.6, 0.4]);
        let backend = SolverBackend::sinkhorn(1e-12);
        let (plan, _) = backend.solve_1d_warm(&mu, &nu, 0, None).unwrap();
        plan.validate_marginals(mu.masses(), nu.masses()).unwrap();
        let cost = CostMatrix::squared_euclidean(mu.support(), nu.support()).unwrap();
        let exact = SolverBackend::ExactMonotone
            .solve_1d_warm(&mu, &nu, 0, None)
            .unwrap()
            .0
            .transport_cost(&cost)
            .unwrap();
        let got = plan.transport_cost(&cost).unwrap();
        assert!(
            (got - exact).abs() < 1e-9 * (1.0 + exact),
            "fallback must hit the exact optimum: {got} vs {exact}"
        );
        // The same Sinkhorn failure with every kernel chunked (a short
        // budget fails the same way), and the same simplex plan at every
        // thread count.
        let bits = |plan: &OtPlan| {
            let cells = (0..mu.len()).flat_map(|i| (0..nu.len()).map(move |j| (i, j)));
            cells
                .map(|(i, j)| plan.get(i, j).to_bits())
                .collect::<Vec<u64>>()
        };
        let failure = |threads: usize| {
            let config = SinkhornConfig {
                epsilon: 1e-12,
                max_iters: 400,
                threads,
                parallel_min_cells: Some(1),
                ..SinkhornConfig::default()
            };
            match sinkhorn_warm(mu.masses(), nu.masses(), &cost, config, None) {
                Err(OtError::NoConvergence { residual, .. }) => residual.to_bits(),
                other => panic!("threads = {threads}: expected NoConvergence, got {other:?}"),
            }
        };
        for threads in [2usize, 3, 7] {
            assert_eq!(failure(threads), failure(1), "threads = {threads}");
            let (again, _) = backend.solve_1d_warm(&mu, &nu, threads, None).unwrap();
            assert_eq!(bits(&again), bits(&plan), "threads = {threads}");
        }
    }

    #[test]
    fn general_cost_matrices_dispatch_correctly() {
        // A 2-D-style problem: cost has no 1-D structure.
        let mu = [0.5, 0.5];
        let nu = [0.25, 0.75];
        let cost =
            CostMatrix::from_fn(&[0, 1], &[0, 1], |a, b| if a == b { 0.0 } else { 2.0 }).unwrap();
        for backend in [SolverBackend::Simplex, SolverBackend::sinkhorn(0.1)] {
            let (plan, _) = backend
                .solve_with_cost_warm(&mu, &nu, &cost, 0, KernelChoice::Auto, None)
                .unwrap();
            plan.validate_marginals(&mu, &nu).unwrap();
        }
        // The monotone backend must refuse rather than silently mis-solve.
        let err = SolverBackend::ExactMonotone.solve_with_cost_warm(
            &mu,
            &nu,
            &cost,
            0,
            KernelChoice::Auto,
            None,
        );
        assert!(matches!(err, Err(OtError::InvalidParameter { .. })));
    }

    #[test]
    fn validate_rejects_bad_epsilon() {
        assert!(SolverBackend::sinkhorn(0.0).validate().is_err());
        assert!(SolverBackend::sinkhorn(-1.0).validate().is_err());
        assert!(SolverBackend::sinkhorn(f64::NAN).validate().is_err());
        assert!(SolverBackend::sinkhorn(f64::INFINITY).validate().is_err());
        assert!(SolverBackend::ExactMonotone.validate().is_ok());
        assert!(SolverBackend::Simplex.validate().is_ok());
        // Invalid parameters surface through the solve path too.
        let mu = dd(&[0.0, 1.0], &[0.5, 0.5]);
        assert!(SolverBackend::sinkhorn(-1.0)
            .solve_1d_warm(&mu, &mu, 0, None)
            .is_err());
    }

    #[test]
    fn parses_and_displays_cli_spellings() {
        assert_eq!(
            "exact".parse::<SolverBackend>().unwrap(),
            SolverBackend::ExactMonotone
        );
        assert_eq!(
            "simplex".parse::<SolverBackend>().unwrap(),
            SolverBackend::Simplex
        );
        assert_eq!(
            "sinkhorn:0.05".parse::<SolverBackend>().unwrap(),
            SolverBackend::sinkhorn(0.05)
        );
        assert!("sinkhorn:".parse::<SolverBackend>().is_err());
        assert!("sinkhorn:-3".parse::<SolverBackend>().is_err());
        assert!("sinkhorn:abc".parse::<SolverBackend>().is_err());
        assert!("gurobi".parse::<SolverBackend>().is_err());
        // Display round-trips through FromStr.
        for backend in all_backends() {
            let back: SolverBackend = backend.to_string().parse().unwrap();
            assert_eq!(back, backend);
        }
    }

    #[test]
    fn serde_round_trips_all_variants() {
        for backend in all_backends() {
            let json = serde_json::to_string(&backend).unwrap();
            let back: SolverBackend = serde_json::from_str(&json).unwrap();
            assert_eq!(back, backend);
        }
        assert_eq!(
            serde_json::to_string(&SolverBackend::ExactMonotone).unwrap(),
            "\"ExactMonotone\""
        );
    }
}
