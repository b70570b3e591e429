//! Exact optimal transport for arbitrary cost matrices: the classical
//! transportation-simplex with MODI (u–v potential) pricing.
//!
//! This is the `O(nQ³ log nQ)`-class exact solver the paper cites for
//! unregularized OT (Section IV-A1, refs \[13\], \[32\]). In this workspace it
//! serves as (i) the ground-truth oracle against which the 1-D monotone
//! solver and Sinkhorn are property-tested, and (ii) the solver for
//! multi-dimensional cost structures where the monotone shortcut does not
//! apply (e.g. the joint-feature ablation).
//!
//! Implementation notes:
//! * The basis is maintained as a spanning tree of the bipartite
//!   row/column graph (`n + m − 1` cells, including degenerate zero-flow
//!   cells), initialized by the north-west-corner rule.
//! * Potentials are recomputed each iteration by a BFS over the basis
//!   tree; the entering cell is the most negative reduced cost (Dantzig
//!   pricing with first-index tie-breaking).
//! * The pivot cycle is the unique tree path between the entering cell's
//!   row and column nodes.

use crate::cost::CostMatrix;
use crate::coupling::OtPlan;
use crate::discrete::normalized_mass;
use crate::error::{OtError, Result};

/// Reduced-cost optimality tolerance, scaled by the largest cost entry.
const OPT_TOL: f64 = 1e-10;

/// Solve the transportation problem
/// `min Σ C[i][j] π[i][j]` s.t. row sums `= a`, column sums `= b`,
/// `π ≥ 0`, for arbitrary non-negative cost `C`.
///
/// `a` and `b` must be non-negative with equal totals (they are normalized
/// internally, so probability vectors are the expected input).
///
/// # Errors
/// * Validation errors for empty/mismatched/invalid inputs.
/// * [`OtError::NoConvergence`] if the pivot budget is exhausted (cycling
///   on a pathological degenerate instance).
pub fn solve_transportation_simplex(a: &[f64], b: &[f64], cost: &CostMatrix) -> Result<OtPlan> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Err(OtError::EmptyInput("transportation marginals"));
    }
    if cost.rows() != n || cost.cols() != m {
        return Err(OtError::LengthMismatch {
            what: "marginals vs cost matrix",
            left: n * m,
            right: cost.rows() * cost.cols(),
        });
    }
    let mut a = normalized_mass(a, "a")?;
    let mut b = normalized_mass(b, "b")?;

    // --- Phase 0: north-west-corner initial basic feasible solution with
    // exactly n + m − 1 basis cells (degenerate zeros included).
    let mut flow = vec![0.0f64; n * m];
    let mut in_basis = vec![false; n * m];
    // Bipartite adjacency: node k in 0..n are rows, n..n+m are columns.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n + m];

    let add_basis = |cell: usize, in_basis: &mut Vec<bool>, adj: &mut Vec<Vec<(usize, usize)>>| {
        let (i, j) = (cell / m, cell % m);
        in_basis[cell] = true;
        adj[i].push((n + j, cell));
        adj[n + j].push((i, cell));
    };

    {
        let (mut i, mut j) = (0usize, 0usize);
        for step in 0..(n + m - 1) {
            let cell = i * m + j;
            let moved = if step == n + m - 2 {
                // Final cell absorbs accumulated round-off.
                a[i].max(b[j])
            } else {
                a[i].min(b[j])
            };
            flow[cell] = moved;
            add_basis(cell, &mut in_basis, &mut adj);
            a[i] -= moved;
            b[j] -= moved;
            // Advance exactly one index per step so the walk visits
            // n + m − 1 cells: forced along the last row/column, otherwise
            // toward the side with less remaining mass.
            if i == n - 1 || (j != m - 1 && a[i] > b[j]) {
                j += 1;
            } else {
                i += 1;
            }
            if i >= n || j >= m {
                break;
            }
        }
    }

    let tol = OPT_TOL * cost.max().max(1.0);
    let max_pivots = 50 * (n + m) * (n + m) + 1000;

    let mut u = vec![0.0f64; n];
    let mut v = vec![0.0f64; m];
    let mut seen = vec![false; n + m];
    let mut queue: Vec<usize> = Vec::with_capacity(n + m);
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n + m];

    for _pivot in 0..max_pivots {
        // --- MODI potentials via BFS over the basis tree.
        seen.iter_mut().for_each(|s| *s = false);
        queue.clear();
        queue.push(0);
        seen[0] = true;
        u[0] = 0.0;
        let mut head = 0;
        while head < queue.len() {
            let node = queue[head];
            head += 1;
            for &(next, cell) in &adj[node] {
                if seen[next] {
                    continue;
                }
                seen[next] = true;
                let (i, j) = (cell / m, cell % m);
                if next >= n {
                    v[next - n] = cost.get(i, j) - u[i];
                } else {
                    u[next] = cost.get(i, j) - v[j];
                }
                queue.push(next);
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(OtError::SolverInternal(
                "basis graph is not connected (lost tree invariant)".into(),
            ));
        }

        // --- Pricing: most negative reduced cost among non-basis cells.
        let mut best_cell = None;
        let mut best_red = -tol;
        for i in 0..n {
            let ui = u[i];
            for j in 0..m {
                let cell = i * m + j;
                if in_basis[cell] {
                    continue;
                }
                let red = cost.get(i, j) - ui - v[j];
                if red < best_red {
                    best_red = red;
                    best_cell = Some(cell);
                }
            }
        }
        let Some(entering) = best_cell else {
            // Optimal.
            let plan = OtPlan::from_dense(n, m, flow.clone())?;
            return Ok(plan);
        };
        let (ei, ej) = (entering / m, entering % m);

        // --- Cycle: tree path from row node ei to column node n + ej.
        parent.iter_mut().for_each(|p| *p = None);
        seen.iter_mut().for_each(|s| *s = false);
        queue.clear();
        queue.push(ei);
        seen[ei] = true;
        let target = n + ej;
        let mut head = 0;
        while head < queue.len() && !seen[target] {
            let node = queue[head];
            head += 1;
            for &(next, cell) in &adj[node] {
                if seen[next] {
                    continue;
                }
                seen[next] = true;
                parent[next] = Some((node, cell));
                queue.push(next);
            }
        }
        if !seen[target] {
            return Err(OtError::SolverInternal(
                "entering cell's endpoints are disconnected in the basis tree".into(),
            ));
        }
        // Walk back from the column node to the row node collecting cells.
        let mut path_cells: Vec<usize> = Vec::new();
        let mut node = target;
        while node != ei {
            let (prev, cell) = parent[node].expect("path exists");
            path_cells.push(cell);
            node = prev;
        }
        // Cycle = entering (+) followed by path cells with alternating
        // signs. path_cells is ordered column-end first; the cell adjacent
        // to the target column node shares column ej with the entering
        // cell, so it takes sign −, the next +, etc.
        let mut theta = f64::INFINITY;
        let mut leaving = None;
        for (k, &cell) in path_cells.iter().enumerate() {
            if k % 2 == 0 {
                // minus position
                if flow[cell] < theta {
                    theta = flow[cell];
                    leaving = Some(cell);
                }
            }
        }
        let Some(leaving) = leaving else {
            return Err(OtError::SolverInternal(
                "cycle had no minus positions".into(),
            ));
        };

        // --- Pivot.
        flow[entering] += theta;
        for (k, &cell) in path_cells.iter().enumerate() {
            if k % 2 == 0 {
                flow[cell] -= theta;
            } else {
                flow[cell] += theta;
            }
        }
        flow[leaving] = 0.0; // exact, avoids negative round-off residue
        in_basis[leaving] = false;
        in_basis[entering] = true;
        // Update adjacency: remove leaving edge, add entering edge.
        let (li, lj) = (leaving / m, leaving % m);
        adj[li].retain(|&(_, c)| c != leaving);
        adj[n + lj].retain(|&(_, c)| c != leaving);
        adj[ei].push((n + ej, entering));
        adj[n + ej].push((ei, entering));
    }

    Err(OtError::NoConvergence {
        solver: "transportation simplex",
        iterations: max_pivots,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteDistribution;
    use crate::solvers::monotone::solve_monotone_1d;

    #[test]
    fn trivial_1x1() {
        let c = CostMatrix::squared_euclidean(&[0.0], &[5.0]).unwrap();
        let plan = solve_transportation_simplex(&[1.0], &[1.0], &c).unwrap();
        assert!((plan.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classic_textbook_instance() {
        // 3 sources x 4 sinks; optimum 920 for the raw supplies/demands
        // (probabilities scale the optimal cost by 1/150).
        let costs = vec![
            4.0, 6.0, 8.0, 8.0, //
            6.0, 8.0, 6.0, 7.0, //
            5.0, 7.0, 6.0, 8.0,
        ];
        let cost =
            CostMatrix::from_fn(&[0, 1, 2], &[0, 1, 2, 3], |&i, &j| costs[i * 4 + j]).unwrap();
        let a = [40.0, 60.0, 50.0];
        let b = [20.0, 30.0, 50.0, 50.0];
        let plan = solve_transportation_simplex(&a, &b, &cost).unwrap();
        let total: f64 = a.iter().sum();
        let got = plan.transport_cost(&cost).unwrap() * total;
        // Optimum computed independently (e.g. by hand or scipy): 920.
        assert!((got - 920.0).abs() < 1e-6, "got {got}");
    }

    #[test]
    fn marginals_respected() {
        let c = CostMatrix::squared_euclidean(&[0.0, 1.0, 2.0], &[0.5, 1.5]).unwrap();
        let a = [0.2, 0.5, 0.3];
        let b = [0.6, 0.4];
        let plan = solve_transportation_simplex(&a, &b, &c).unwrap();
        plan.validate_marginals(&a, &b).unwrap();
    }

    #[test]
    fn agrees_with_monotone_solver_1d() {
        // On 1-D convex costs the monotone coupling is optimal; the simplex
        // must find the same optimal cost.
        let mu = DiscreteDistribution::new(
            vec![-2.0, -0.5, 0.7, 1.3, 4.0],
            vec![0.1, 0.3, 0.2, 0.25, 0.15],
        )
        .unwrap();
        let nu =
            DiscreteDistribution::new(vec![-1.0, 0.0, 2.0, 3.0], vec![0.3, 0.3, 0.2, 0.2]).unwrap();
        let cost = CostMatrix::squared_euclidean(mu.support(), nu.support()).unwrap();
        let mono = solve_monotone_1d(&mu, &nu).unwrap();
        let simp = solve_transportation_simplex(mu.masses(), nu.masses(), &cost).unwrap();
        let cm = mono.transport_cost(&cost).unwrap();
        let cs = simp.transport_cost(&cost).unwrap();
        assert!((cm - cs).abs() < 1e-9, "monotone {cm} vs simplex {cs}");
    }

    #[test]
    fn degenerate_marginals_with_zeros() {
        let c = CostMatrix::squared_euclidean(&[0.0, 1.0, 2.0], &[0.0, 2.0]).unwrap();
        let a = [0.5, 0.0, 0.5];
        let b = [0.5, 0.5];
        let plan = solve_transportation_simplex(&a, &b, &c).unwrap();
        plan.validate_marginals(&a, &b).unwrap();
        // Optimal: 0 -> 0 and 2 -> 2, zero cost.
        assert!(plan.transport_cost(&c).unwrap() < 1e-10);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let c = CostMatrix::squared_euclidean(&[0.0], &[0.0]).unwrap();
        assert!(solve_transportation_simplex(&[], &[1.0], &c).is_err());
        assert!(solve_transportation_simplex(&[1.0], &[-1.0, 2.0], &c).is_err());
        assert!(solve_transportation_simplex(&[1.0, 1.0], &[1.0], &c).is_err());
        assert!(solve_transportation_simplex(&[0.0], &[1.0], &c).is_err());
    }

    #[test]
    fn anti_monotone_cost_reverses_matching() {
        // Cost rewarding crossings: c(i,j) = -(i*j) shifted positive. The
        // optimal plan pairs low with high.
        let cost = CostMatrix::from_fn(&[0.0, 1.0], &[0.0, 1.0], |x, y| 1.0 - x * y).unwrap();
        let plan = solve_transportation_simplex(&[0.5, 0.5], &[0.5, 0.5], &cost).unwrap();
        // Diagonal (1,1) carries mass to exploit the -xy term.
        assert!(plan.get(1, 1) > 0.49);
    }
}
