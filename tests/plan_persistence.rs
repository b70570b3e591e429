//! Persistence of the paper's deployable artifact: a designed
//! [`RepairPlan`] must survive JSON serialization — structurally, through
//! sampler recompilation, and distributionally (the repaired output of a
//! deserialized plan is the same distribution the original plan induces).

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::prelude::*;
use ot_fair_repair::repair::FeaturePlan;

fn designed_plan(seed: u64, n_research: usize) -> (RepairPlan, SplitData) {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(seed);
    let split = spec.generate(n_research, 20_000, &mut rng).unwrap();
    let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
        .design(&split.research)
        .unwrap();
    (plan, split)
}

/// Empirical pmf of repaired feature `k` over the stratum's support
/// states, for points of group `(u, s)`, pooled over several datasets.
fn repaired_pmf(datasets: &[Dataset], plan: &RepairPlan, u: u8, s: u8, k: usize) -> Vec<f64> {
    let fp = plan.feature_plan(u, k).unwrap();
    let mut counts = vec![0usize; fp.support.len()];
    let mut total = 0usize;
    for p in datasets.iter().flat_map(|d| d.points()) {
        if p.u != u || p.s != s {
            continue;
        }
        let v = p.x[k];
        let j = fp
            .support
            .iter()
            .position(|&q| (q - v).abs() < 1e-9)
            .unwrap_or_else(|| panic!("repaired value {v} not on support"));
        counts[j] += 1;
        total += 1;
    }
    assert!(total > 1_000, "stratum (u={u}, s={s}) too small: {total}");
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

#[test]
fn deserialized_plan_repairs_to_the_same_distribution() {
    let (plan, split) = designed_plan(11, 400);
    let json = plan.to_json().unwrap();
    let restored = RepairPlan::from_json(&json).unwrap();

    // Independent RNG streams on both sides: the agreement we demand is
    // distributional, not draw-by-draw. Pool several repair passes so the
    // smallest stratum (`Pr[s=0|u=1]` is 0.05 under paper defaults) has
    // enough mass for a tight total-variation bound.
    let repaired_a: Vec<Dataset> = (0..5)
        .map(|i| {
            plan.repair_dataset(&split.archive, &mut StdRng::seed_from_u64(100 + i))
                .unwrap()
        })
        .collect();
    let repaired_b: Vec<Dataset> = (0..5)
        .map(|i| {
            restored
                .repair_dataset(&split.archive, &mut StdRng::seed_from_u64(200 + i))
                .unwrap()
        })
        .collect();

    for u in 0..2u8 {
        for s in 0..2u8 {
            for k in 0..2usize {
                let pa = repaired_pmf(&repaired_a, &plan, u, s, k);
                let pb = repaired_pmf(&repaired_b, &restored, u, s, k);
                // Total-variation distance between the two empirical
                // output pmfs; Monte-Carlo noise at these stratum sizes
                // stays well under this bound.
                let tv: f64 = pa.iter().zip(&pb).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
                assert!(
                    tv < 0.05,
                    "(u={u}, s={s}, k={k}): TV distance {tv} between original and \
                     deserialized plan outputs"
                );
            }
        }
    }
}

#[test]
fn feature_plan_requires_explicit_recompilation_after_raw_deserialize() {
    let (plan, _) = designed_plan(12, 300);
    let fp = plan.feature_plan(0, 0).unwrap();
    let json = serde_json::to_string(fp).unwrap();

    // Raw serde deserialization skips the derived alias tables...
    let mut raw: FeaturePlan = serde_json::from_str(&json).unwrap();
    assert!(!raw.is_compiled());
    let mut rng = StdRng::seed_from_u64(3);
    assert!(
        raw.repair_value(0, 0.0, &mut rng).is_err(),
        "an uncompiled plan must refuse to repair"
    );
    assert!(raw.repair_value_deterministic(0, 0.0).is_err());

    // ...and compile() restores full function.
    raw.compile().unwrap();
    assert!(raw.is_compiled());
    let v = raw.repair_value(0, 0.0, &mut rng).unwrap();
    assert!(raw.support.iter().any(|&q| (q - v).abs() < 1e-9));
}

#[test]
fn json_artifact_is_stable_under_a_second_round_trip() {
    let (plan, _) = designed_plan(13, 300);
    let json1 = plan.to_json().unwrap();
    let restored = RepairPlan::from_json(&json1).unwrap();
    let json2 = restored.to_json().unwrap();
    // One round trip is the fixed point: floats re-render identically.
    assert_eq!(json1, json2);
    assert_eq!(&restored, &RepairPlan::from_json(&json2).unwrap());
}

#[test]
fn solver_backend_survives_persistence() {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(14);
    let split = spec.generate(300, 500, &mut rng).unwrap();
    let mut cfg = RepairConfig::with_n_q(20);
    cfg.solver = SolverBackend::sinkhorn(0.1);
    let plan = RepairPlanner::new(cfg).design(&split.research).unwrap();
    let restored = RepairPlan::from_json(&plan.to_json().unwrap()).unwrap();
    assert_eq!(restored.config.solver, SolverBackend::sinkhorn(0.1));
    assert_eq!(restored.config, plan.config);
}

/// Scalar plans written while the ε-schedule still serialized its
/// intermediate-stage budget carry `stage_iters`/`stage_tol`: they load
/// as the same plan.
#[test]
fn scaled_plan_with_the_retired_stage_budget_keys_loads_unchanged() {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(15);
    let research = spec.sample_dataset(300, &mut rng).unwrap();
    let mut cfg = RepairConfig::with_n_q(20);
    cfg.solver = SolverBackend::sinkhorn_scaled(0.05, EpsSchedule::default());
    let plan = RepairPlanner::new(cfg).design(&research).unwrap();
    let json = plan.to_json().unwrap();
    let budget = r#""factor":0.25,"stage_iters":0,"stage_tol":0.0}"#;
    let old = json.replacen(r#""factor":0.25}"#, budget, 1);
    assert_ne!(old, json);
    let restored = RepairPlan::from_json(&old).unwrap();
    assert_eq!(restored.to_json().unwrap(), json);
}
