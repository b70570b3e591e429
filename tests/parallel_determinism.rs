//! The parallel-execution determinism contract, end to end through the
//! facade: seeded repair output is **byte-identical** (compared at the
//! f64 bit level) across `OTR_THREADS` ∈ {1, 2, 7} and explicit thread
//! counts — the scalar columnar kernel (full and partial repair, both
//! mass-split configurations) and the joint plans.

use std::sync::Mutex;

use ot_fair_repair::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Serializes the tests that mutate the shared `OTR_THREADS` process
/// environment, so each one observes exactly the thread counts it set
/// (a concurrent writer pinning one value would make the cross-leg
/// comparisons vacuous). Poisoning is ignored: a panicked holder has
/// already failed its own assertions.
static OTR_THREADS_ENV_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> (Dataset, Dataset) {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(5);
    let split = spec.generate(400, 1_200, &mut rng).unwrap();
    (split.research, split.archive)
}

/// Exact byte image of a dataset's feature values (f64 `==` would also
/// accept `-0.0 == 0.0`; the contract is stronger).
fn byte_image(data: &Dataset) -> Vec<u64> {
    data.points()
        .iter()
        .flat_map(|p| p.x.iter().map(|v| v.to_bits()))
        .collect()
}

/// In-kernel determinism at joint scale: an `nQ = 24` joint design,
/// whose factorized kernel crosses the in-kernel threshold. The
/// entropic-barycentre matvecs and the Sinkhorn scaling updates run
/// chunked — with the **ε-scaling schedule on** (an explicit
/// multi-stage geometric schedule, so every warm-started stage is
/// exercised) — and the designed plan plus the repaired archive must
/// still be **byte-identical** across `OTR_THREADS ∈ {1, 2, 7}`.
///
/// Serialized on [`OTR_THREADS_ENV_LOCK`] with the other env-mutating
/// test: `OTR_THREADS` cannot change output bytes, but a concurrent
/// writer pinning one value would make this test's cross-leg
/// comparison vacuous.
#[test]
fn joint_repair_byte_identical_across_otr_threads_env() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(17);
    let split = spec.generate(300, 400, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 24,
        // Keeps max-cost/eps modest so the test converges at a
        // debug-build-friendly iteration count (byte identity is
        // eps-independent).
        epsilon: 0.25,
        // Three warm-started stages: 1.0 → 0.5 → 0.25.
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        threads: 0, // auto: defer to OTR_THREADS
        ..JointRepairConfig::default()
    };
    let mut reference: Option<Vec<u64>> = None;
    for threads in ["1", "2", "7"] {
        std::env::set_var("OTR_THREADS", threads);
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let out = byte_image(&plan.repair_dataset_par(&split.archive, 29).unwrap());
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "OTR_THREADS = {threads}"),
        }
    }
    std::env::remove_var("OTR_THREADS");
}

/// The joint contract at `d = 3`: a 3-feature `nQ = 8` joint design
/// (512 product states) — the repaired archive must be byte-identical
/// across `OTR_THREADS ∈ {1, 2, 7}`. Env-mutating, so serialized on
/// [`OTR_THREADS_ENV_LOCK`].
#[test]
fn joint_3feature_repair_byte_identical_across_otr_threads_env() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let spec = SimulationSpec {
        means: [
            [vec![-1.0, -1.0, -0.5], vec![0.0, 0.0, 0.0]],
            [vec![1.0, 1.0, 0.5], vec![0.0, 0.0, 0.0]],
        ],
        sigma: 1.0,
        covs: None,
        pr_u0: 0.5,
        pr_s0_given_u: [0.3, 0.1],
    };
    let mut rng = StdRng::seed_from_u64(19);
    let split = spec.generate(300, 400, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 8,
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        threads: 0, // auto: defer to OTR_THREADS
        ..JointRepairConfig::default()
    };
    let mut reference: Option<Vec<u64>> = None;
    for threads in ["1", "2", "7"] {
        std::env::set_var("OTR_THREADS", threads);
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let out = byte_image(&plan.repair_dataset_par(&split.archive, 31).unwrap());
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "OTR_THREADS = {threads}"),
        }
    }
    std::env::remove_var("OTR_THREADS");
}

/// The scalar contract through the `Dataset` entry point: for every
/// `OTR_THREADS` setting (auto mode), `repair_dataset(&mut rng)` is
/// byte-identical to the columnar kernel under the one seed it draws,
/// and to every other setting, for both mass-split configurations.
/// Env-mutating tests serialize on [`OTR_THREADS_ENV_LOCK`]; the
/// explicit-thread siblings cannot race.
#[test]
fn byte_identical_across_otr_threads_env_for_both_mass_splits() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let (research, archive) = setup();
    let columnar = ColumnarDataset::from_dataset(&archive);
    for mass_split in [MassSplit::Randomized, MassSplit::Deterministic] {
        let mut cfg = RepairConfig::with_n_q(40);
        cfg.mass_split = mass_split;
        cfg.threads = 0; // auto: defer to OTR_THREADS
        let mut reference: Option<Vec<u64>> = None;
        for threads in ["1", "2", "7"] {
            std::env::set_var("OTR_THREADS", threads);
            let plan = RepairPlanner::new(cfg).design(&research).unwrap();
            let mut rng = StdRng::seed_from_u64(42);
            let seed = rng.clone().next_u64();
            let out = byte_image(&plan.repair_dataset(&archive, &mut rng).unwrap());
            let kernel = plan.repair_columnar_par(&columnar, seed).unwrap();
            assert_eq!(
                out,
                byte_image(&kernel.to_dataset()),
                "repair_dataset != kernel ({mass_split:?}, OTR_THREADS={threads})"
            );
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(
                    &out, r,
                    "thread-count-dependent output ({mass_split:?}, OTR_THREADS={threads})"
                ),
            }
        }
        std::env::remove_var("OTR_THREADS");
    }
}

/// Same contract driven through `RepairConfig::threads` (the CLI's
/// `--threads` path) instead of the environment.
#[test]
fn byte_identical_across_explicit_thread_counts() {
    let (research, archive) = setup();
    let columnar = ColumnarDataset::from_dataset(&archive);
    for mass_split in [MassSplit::Randomized, MassSplit::Deterministic] {
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 7] {
            let mut cfg = RepairConfig::with_n_q(40);
            cfg.mass_split = mass_split;
            cfg.threads = threads;
            let plan = RepairPlanner::new(cfg).design(&research).unwrap();
            let out = byte_image(&plan.repair_columnar_par(&columnar, 7).unwrap().to_dataset());
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "({mass_split:?}, threads={threads})"),
            }
        }
    }
}

/// The columnar kernel under every `OTR_THREADS` setting (auto mode):
/// full repair and the partial repair built on it produce the same
/// bytes and keep the labels, for both mass-split configurations.
/// Env-mutating, so serialized on [`OTR_THREADS_ENV_LOCK`].
#[test]
fn columnar_repair_byte_identical_across_otr_threads_env() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let (research, archive) = setup();
    let columnar = ColumnarDataset::from_dataset(&archive);
    for mass_split in [MassSplit::Randomized, MassSplit::Deterministic] {
        let mut cfg = RepairConfig::with_n_q(40);
        cfg.mass_split = mass_split;
        cfg.threads = 0; // auto: defer to OTR_THREADS
        let mut reference: Option<[Vec<u64>; 2]> = None;
        for threads in ["1", "2", "7"] {
            std::env::set_var("OTR_THREADS", threads);
            let plan = RepairPlanner::new(cfg).design(&research).unwrap();
            let full = plan.repair_columnar_par(&columnar, 42).unwrap();
            let partial = plan.repair_columnar_partial(&columnar, 0.4, 42).unwrap();
            assert_eq!(full.s(), columnar.s());
            assert_eq!(full.u(), columnar.u());
            let bytes = [
                byte_image(&full.to_dataset()),
                byte_image(&partial.to_dataset()),
            ];
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(
                    &bytes, r,
                    "thread-count-dependent output ({mass_split:?}, OTR_THREADS={threads})"
                ),
            }
        }
        std::env::remove_var("OTR_THREADS");
    }
}

/// The partial-repair geodesic rides the same per-row streams, so the
/// same invariance holds along λ under explicit thread counts.
#[test]
fn partial_repair_byte_identical_across_thread_counts() {
    let (research, archive) = setup();
    let columnar = ColumnarDataset::from_dataset(&archive);
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 7] {
        let mut cfg = RepairConfig::with_n_q(30);
        cfg.threads = threads;
        let plan = RepairPlanner::new(cfg).design(&research).unwrap();
        let partial = plan.repair_columnar_partial(&columnar, 0.4, 13).unwrap();
        let out = byte_image(&partial.to_dataset());
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "threads={threads}"),
        }
    }
}
