//! Cross-kernel equivalence: the factorized (`K₁ ⊗ … ⊗ K_d`) Gibbs
//! kernel, the only one the library builds on a product grid, must agree
//! with a dense reference written here in test code — same math,
//! different sum grouping — and must honour the workspace's
//! byte-identity-across-thread-counts determinism contract on its own.
//!
//! Four layers of pinning:
//!
//! 1. **Matvec level** (proptest): agreement with a plain dense matrix
//!    and matvec within `1e-9` relative on random `d ∈ {2, 3, 4}` product
//!    grids and ε, and byte identity across thread counts at the same
//!    `d`.
//! 2. **Barycentre level**: `entropic_barycentre_grid_nd` on a 2-axis
//!    grid agrees with a short dense Bregman loop within `1e-9` (L1 over
//!    the whole pmf, which sums to 1).
//! 3. **Design level**: `d = 2` and `d = 3` joint designs place the
//!    transport cost of the dense reference (the dense barycentre of the
//!    plan's own marginals, then Sinkhorn on the same cost cells without
//!    grid metadata, which takes the dense domain) on every `(u, s)`
//!    plan; `Auto` and `Separable` write the same plan JSON and repair
//!    the same bytes; and `Dense` is refused before any work.
//! 4. **End to end**: an `nQ = 24` joint design + repair is
//!    byte-identical across `OTR_THREADS ∈ {1, 2, 7}`, and so is a
//!    3-feature `nQ = 12` (1 728 product states) joint design + repair.

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::ot::{
    entropic_barycentre_grid_nd, BarycentreConfig, CostMatrix, KernelRep, OtError, Solver1d as _,
    SolverBackend,
};
use ot_fair_repair::prelude::*;
use ot_fair_repair::repair::RepairError;

/// Serializes the tests that mutate the shared `OTR_THREADS` process
/// environment (cf. `tests/parallel_determinism.rs`).
static OTR_THREADS_ENV_LOCK: Mutex<()> = Mutex::new(());

/// The points of a flattened `d`-axis product grid (row-major, last
/// axis fastest).
fn grid_points(axes: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let d = axes.len();
    let n: usize = axes.iter().map(Vec::len).product();
    (0..n)
        .map(|mut r| {
            let mut c = vec![0.0; d];
            for a in (0..d).rev() {
                let na = axes[a].len();
                c[a] = axes[a][r % na];
                r /= na;
            }
            c
        })
        .collect()
}

/// The squared-Euclidean cost of a product grid's points, built cell by
/// cell with no grid metadata: an entropic solve over it takes the dense
/// domain.
fn dense_cost(axes: &[Vec<f64>]) -> CostMatrix {
    let points = grid_points(axes);
    CostMatrix::from_fn(&points, &points, |x, y| {
        x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
    })
    .unwrap()
}

/// The dense `n × n` Gibbs matrix `exp(−C/ε)` of `cost`, row-major.
fn dense_gibbs(cost: &CostMatrix, eps: f64) -> Vec<f64> {
    let n = cost.rows();
    (0..n * n)
        .map(|idx| (-cost.get(idx / n, idx % n) / eps).exp())
        .collect()
}

/// `k x` for the row-major `n × n` matrix `k`.
fn dense_matvec(k: &[f64], x: &[f64]) -> Vec<f64> {
    k.chunks_exact(x.len())
        .map(|row| row.iter().zip(x).map(|(kij, xj)| kij * xj).sum())
        .collect()
}

/// The entropic barycentre of two pmfs with weights `lambda` against the
/// dense Gibbs matrix `k`: the textbook iterative-Bregman loop (Benamou
/// et al. 2015), run until the L1 change falls below `tol`.
fn dense_barycentre(marginals: [&[f64]; 2], lambda: [f64; 2], k: &[f64], tol: f64) -> Vec<f64> {
    let n = marginals[0].len();
    let mut u = [vec![1.0; n], vec![1.0; n]];
    let mut bary = vec![1.0 / n as f64; n];
    for _ in 0..100_000 {
        let kv: Vec<Vec<f64>> = (0..2)
            .map(|s| {
                let ktu = dense_matvec(k, &u[s]);
                let v: Vec<f64> = marginals[s].iter().zip(&ktu).map(|(m, x)| m / x).collect();
                dense_matvec(k, &v)
            })
            .collect();
        let mut next: Vec<f64> = (0..n)
            .map(|i| {
                let log = |s: usize| lambda[s] * (u[s][i] * kv[s][i]).ln();
                (log(0) + log(1)).exp()
            })
            .collect();
        let total: f64 = next.iter().sum();
        next.iter_mut().for_each(|b| *b /= total);
        for s in 0..2 {
            u[s] = next.iter().zip(&kv[s]).map(|(b, x)| b / x).collect();
        }
        let delta: f64 = next.iter().zip(&bary).map(|(a, b)| (a - b).abs()).sum();
        bary = next;
        if delta < tol {
            return bary;
        }
    }
    panic!("the dense reference barycentre did not converge");
}

/// Random strictly increasing axis grid of `n` points in a bounded
/// range (monotonicity is not required by the kernel math, but mirrors
/// the grids the joint design builds).
fn arb_grid(n: core::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    (n, -3.0f64..3.0, 0.1f64..4.0).prop_map(|(len, lo, span)| {
        (0..len)
            .map(|i| lo + span * i as f64 / len.max(2) as f64)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// d-axis factorized-vs-dense matvec agreement within 1e-9 relative
    /// on random `d ∈ {2, 3, 4}` product grids, ε, and input vectors.
    #[test]
    fn separable_nd_matvec_matches_dense_within_1e9(
        axes in proptest::collection::vec(arb_grid(2usize..6), 2usize..5),
        eps in 0.02f64..2.0,
        seed in 0u64..1_000,
    ) {
        let n: usize = axes.iter().map(Vec::len).product();
        let v: Vec<f64> = (0..n)
            .map(|i| {
                let z = otr_zig(seed, i as u64);
                0.05 + (z % 1_000) as f64 / 1_000.0
            })
            .collect();
        let a = dense_matvec(&dense_gibbs(&dense_cost(&axes), eps), &v);
        let refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
        let sep = KernelRep::separable_grid_nd(&refs, eps);
        let mut b = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        sep.matvec(&v, &mut b, &mut scratch, 1);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-300),
                "d = {}, cell {}: dense {} vs separable {}", axes.len(), i, x, y
            );
        }
    }

    /// The separable matvec's bytes never depend on the thread count,
    /// at any `d ∈ {2, 3, 4}`.
    #[test]
    fn separable_nd_matvec_byte_identical_across_threads(
        axes in proptest::collection::vec(arb_grid(2usize..6), 2usize..5),
        eps in 0.02f64..2.0,
    ) {
        let n: usize = axes.iter().map(Vec::len).product();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13) % 31) as f64 / 31.0).collect();
        let refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
        let kernel = KernelRep::separable_grid_nd(&refs, eps);
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 7] {
            let mut out = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            kernel.matvec(&v, &mut out, &mut scratch, threads);
            let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => prop_assert!(&bits == r, "bytes differ at threads = {}", threads),
            }
        }
    }
}

/// SplitMix64-style mixing for the proptest input vectors (local copy;
/// the contract here is only determinism, not stream quality).
fn otr_zig(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Factorized-vs-dense **barycentre** agreement within 1e-9 (L1 over a
/// pmf of total mass 1), through the full Bregman iteration.
#[test]
fn separable_vs_dense_barycentre_within_1e9() {
    let gx: Vec<f64> = (0..12).map(|i| -1.5 + 0.27 * i as f64).collect();
    let gy: Vec<f64> = (0..10).map(|i| -1.2 + 0.31 * i as f64).collect();
    let pmf = |mx: f64, my: f64, sd: f64| -> Vec<f64> {
        let mut p: Vec<f64> = gx
            .iter()
            .flat_map(|&x| {
                gy.iter().map(move |&y| {
                    (-0.5 * (((x - mx) / sd).powi(2) + ((y - my) / sd).powi(2))).exp()
                })
            })
            .collect();
        let total: f64 = p.iter().sum();
        for v in &mut p {
            *v = (*v / total).max(1e-14);
        }
        p
    };
    let a = pmf(-0.4, -0.1, 0.5);
    let b = pmf(0.5, 0.8, 0.6);
    // A tight tolerance parks both iterate sequences well inside 1e-9
    // of the shared fixed point before they stop.
    let config = BarycentreConfig {
        tol: 1e-12,
        ..BarycentreConfig::new(0.12, 50_000)
    };
    let k = dense_gibbs(&dense_cost(&[gx.clone(), gy.clone()]), config.eps);
    let dense = dense_barycentre([&a, &b], [0.5, 0.5], &k, config.tol);
    let (sep, _) =
        entropic_barycentre_grid_nd(&[&a, &b], &[0.5, 0.5], &[&gx, &gy], &config).unwrap();
    let l1: f64 = dense.iter().zip(&sep).map(|(x, y)| (x - y).abs()).sum();
    assert!(l1 < 1e-9, "separable vs dense barycentre L1 = {l1:e}");
}

/// The rows of a JSON array of number arrays.
fn rows(value: Option<&serde_json::Value>) -> Vec<Vec<f64>> {
    let row = |v: &serde_json::Value| -> Vec<f64> {
        let items = v.as_arr().expect("an array of numbers");
        items
            .iter()
            .map(|x| x.as_f64().expect("a number"))
            .collect()
    };
    let items = value.and_then(|v| v.as_arr()).expect("an array of rows");
    items.iter().map(row).collect()
}

/// Design `research` under `cfg` with the default `Auto` kernel and with
/// `Separable`: the two write the same plan JSON and repair the same
/// bytes. Then, for each stratum, the dense reference — the dense
/// barycentre of the stratum's own marginals, then the config's plan
/// solver on the same cost cells without grid metadata (the dense
/// domain) — must put the design's transport cost on every `(u, s)` plan
/// to within solver tolerance.
fn check_joint_design_against_dense_reference(research: &Dataset, cfg: JointRepairConfig) {
    let auto = JointRepairPlan::design(research, cfg).unwrap();
    let separable = JointRepairConfig {
        kernel: KernelChoice::Separable,
        ..cfg
    };
    let sep = JointRepairPlan::design(research, separable).unwrap();
    let json = auto.to_json().unwrap();
    assert!(
        json == sep.to_json().unwrap(),
        "Auto and Separable plan JSON differ"
    );
    assert!(repaired_bits(&auto, research) == repaired_bits(&sep, research));

    let plan: serde_json::Value = serde_json::from_str(&json).unwrap();
    let strata = plan.get("strata").and_then(|s| s.as_arr()).unwrap();
    for (u, stratum) in strata.iter().enumerate() {
        let axes = rows(stratum.get("axes"));
        let factored = stratum
            .get("factored")
            .expect("a stratum of factored solves");
        let marginals = rows(factored.get("marginals"));
        let cost = dense_cost(&axes);
        let k = dense_gibbs(&cost, cfg.epsilon);
        let bary = dense_barycentre(
            [&marginals[0], &marginals[1]],
            [1.0 - cfg.t, cfg.t],
            &k,
            1e-12,
        );
        for (s, marginal) in marginals.iter().enumerate() {
            let (plan, duals) = cfg
                .plan_solver()
                .solve_with_cost_warm(marginal, &bary, &cost, 0, KernelChoice::Auto, None)
                .unwrap();
            assert!(
                duals.unwrap().scalings.is_none(),
                "the reference ran in the dense domain"
            );
            let cd = plan.transport_cost(&cost).unwrap();
            let cs = auto.expected_transport_cost(u as u8, s as u8).unwrap();
            assert!(
                (cd - cs).abs() < 1e-6 * (1.0 + cd.abs()),
                "(u={u}, s={s}): dense {cd} vs factorized {cs}"
            );
        }
    }
}

/// End-to-end joint factorized-vs-dense agreement at design level, at
/// `d = 2` (see [`check_joint_design_against_dense_reference`]).
#[test]
fn joint_design_transport_costs_agree_across_kernels() {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(23);
    let research = spec.sample_dataset(400, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 8,
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        ..JointRepairConfig::default()
    };
    check_joint_design_against_dense_reference(&research, cfg);
}

/// The removed dense product-grid kernel is refused, as
/// `InvalidParameter` naming `kernel`, before any work: by a joint
/// design whose research groups are too small to design (the refusal
/// comes before the KDE), by a barycentre whose marginals are malformed,
/// and by a solve through the exact monotone backend, which would
/// otherwise refuse the cost matrix.
#[test]
fn dense_kernel_choice_is_refused_before_any_work() {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(23);
    let tiny = spec.sample_dataset(12, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        kernel: KernelChoice::Dense,
        ..JointRepairConfig::default()
    };
    let design = JointRepairPlan::design(&tiny, cfg);
    assert!(
        matches!(
            design,
            Err(RepairError::Ot(OtError::InvalidParameter {
                name: "kernel",
                ..
            }))
        ),
        "{design:?}"
    );
    let config = BarycentreConfig {
        kernel: KernelChoice::Dense,
        ..BarycentreConfig::default()
    };
    let bary = entropic_barycentre_grid_nd(&[&[1.0]], &[1.0], &[&[0.0, 1.0]], &config);
    assert!(
        matches!(bary, Err(OtError::InvalidParameter { name: "kernel", .. })),
        "{bary:?}"
    );
    let cost = dense_cost(&[vec![0.0, 1.0]]);
    let solve = SolverBackend::ExactMonotone.solve_with_cost_warm(
        &[0.5, 0.5],
        &[0.5, 0.5],
        &cost,
        0,
        KernelChoice::Dense,
        None,
    );
    assert!(
        matches!(solve, Err(OtError::InvalidParameter { name: "kernel", .. })),
        "{solve:?}"
    );
}

/// The bits of every coordinate `plan` repairs `archive` to, at seed 29.
fn repaired_bits(plan: &JointRepairPlan, archive: &Dataset) -> Vec<u64> {
    let out = plan.repair_dataset_par(archive, 29).unwrap();
    out.points()
        .iter()
        .flat_map(|p| p.x.iter().map(|v| v.to_bits()))
        .collect()
}

/// The acceptance pin: an `nQ = 24` joint design + repair —
/// `24⁴ = 331 776` logical kernel cells, every matvec running as two
/// axis passes — is **byte-identical**
/// across `OTR_THREADS ∈ {1, 2, 7}`, and so is the repair through the
/// plan reloaded from its JSON under the same `OTR_THREADS`, whose
/// factored strata rebuild their plans at that thread count.
#[test]
fn separable_joint_repair_byte_identical_across_otr_threads_env() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(41);
    let split = spec.generate(300, 400, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 24,
        // Modest max-cost/eps keeps the debug-build iteration count
        // test-friendly; byte identity is eps-independent.
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        threads: 0, // auto: defer to OTR_THREADS
        ..JointRepairConfig::default()
    };
    let mut reference: Option<Vec<u64>> = None;
    for threads in ["1", "2", "7"] {
        std::env::set_var("OTR_THREADS", threads);
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let bytes = repaired_bits(&plan, &split.archive);
        let json = plan.to_json().unwrap();
        assert!(
            !json.contains("\"plans\""),
            "both strata store factored plans"
        );
        let reloaded = JointRepairPlan::from_json(&json).unwrap();
        assert!(
            repaired_bits(&reloaded, &split.archive) == bytes,
            "reloaded, OTR_THREADS = {threads}"
        );
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(&bytes, r, "OTR_THREADS = {threads}"),
        }
    }
    std::env::remove_var("OTR_THREADS");
}

/// Three-feature paper-style spec: the `d = 2` defaults extended with a
/// third feature whose `(u, s)`-conditional means follow the same
/// pattern.
fn spec_3features() -> SimulationSpec {
    SimulationSpec {
        means: [
            [vec![-1.0, -1.0, -0.5], vec![0.0, 0.0, 0.0]],
            [vec![1.0, 1.0, 0.5], vec![0.0, 0.0, 0.0]],
        ],
        sigma: 1.0,
        covs: None,
        pr_u0: 0.5,
        pr_s0_given_u: [0.3, 0.1],
    }
}

/// The n-d acceptance pin: a **3-feature** `nQ = 12` joint design
/// (1 728 product states — past the 32 768-cell in-kernel chunking
/// threshold at `1 728 × 36` factorized work cells), plus the repair of
/// the archive through it, is **byte-identical** across
/// `OTR_THREADS ∈ {1, 2, 7}`.
#[test]
fn separable_nd_3feature_joint_repair_byte_identical_across_otr_threads_env() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(43);
    let split = spec_3features().generate(400, 400, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 12,
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        threads: 0, // auto: defer to OTR_THREADS
        ..JointRepairConfig::default()
    };
    let mut reference: Option<Vec<u64>> = None;
    for threads in ["1", "2", "7"] {
        std::env::set_var("OTR_THREADS", threads);
        let (plan, report) = JointRepairPlan::design_with_report(&split.research, cfg).unwrap();
        assert_eq!(report.dims, 3);
        assert_eq!(report.kernel, "separable");
        let bytes = repaired_bits(&plan, &split.archive);
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(&bytes, r, "OTR_THREADS = {threads}"),
        }
    }
    std::env::remove_var("OTR_THREADS");
}

/// The `d = 3` analogue of the 2-feature design test above, small
/// enough — 216 states — for the dense reference to stay cheap.
#[test]
fn joint_3feature_design_transport_costs_agree_across_kernels() {
    let mut rng = StdRng::seed_from_u64(47);
    let research = spec_3features().sample_dataset(500, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 6,
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        ..JointRepairConfig::default()
    };
    check_joint_design_against_dense_reference(&research, cfg);
}
