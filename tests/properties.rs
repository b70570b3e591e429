//! Cross-crate property-based tests (proptest): invariants of the repair
//! pipeline under randomized populations and configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::prelude::*;
use ot_fair_repair::serve::{ErrorCode, PlanKind, PlanRegistry, RegisteredPlan};

/// Random but well-posed simulation specs (components separated enough to
/// avoid degenerate groups, probabilities bounded away from 0/1).
fn arb_spec() -> impl Strategy<Value = SimulationSpec> {
    (
        -2.0f64..2.0,
        -2.0f64..2.0,
        0.3f64..3.0,
        0.2f64..0.8,
        0.15f64..0.5,
        0.15f64..0.5,
    )
        .prop_map(|(m0, m1, sigma, pr_u0, p0, p1)| SimulationSpec {
            means: [
                [vec![m0, -m0], vec![m1, m1]],
                [vec![-m1, m0], vec![0.0, 0.0]],
            ],
            sigma,
            covs: None,
            pr_u0,
            pr_s0_given_u: [p0, p1],
        })
}

/// Arbitrary well-formed datasets: any dimension, any mix of group
/// labels, finite feature values (including negatives and zeros).
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..4).prop_flat_map(|dim| {
        proptest::collection::vec(
            (proptest::collection::vec(-1e6f64..1e6, dim), 0u8..2, 0u8..2),
            1..60,
        )
        .prop_map(|rows| {
            let points = rows
                .into_iter()
                .map(|(x, s, u)| LabelledPoint { x, s, u })
                .collect();
            Dataset::from_points(points).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The columnar (SoA) transpose is lossless: `Dataset ⇄
    /// ColumnarDataset` round-trips to a bit-equal dataset, and the label
    /// columns carry every row's `(s, u)`.
    #[test]
    fn columnar_round_trip_is_lossless(data in arb_dataset()) {
        let cols = ColumnarDataset::from_dataset(&data);
        prop_assert_eq!(cols.len(), data.len());
        prop_assert_eq!(cols.dim(), data.dim());
        let back = cols.to_dataset();
        prop_assert_eq!(back.points(), data.points());
        for (i, p) in data.points().iter().enumerate() {
            for (k, &v) in p.x.iter().enumerate() {
                prop_assert_eq!(
                    cols.feature_column(k).unwrap()[i].to_bits(),
                    v.to_bits()
                );
            }
        }
        for (i, p) in data.points().iter().enumerate() {
            prop_assert_eq!((cols.s()[i], cols.u()[i]), (p.s, p.u));
        }
    }

    /// Streaming CSV → columnar ingest is equivalent to the row path:
    /// write any dataset out, read it back both ways, and the two
    /// layouts must hold the same rows (CSV round-trips f64 exactly).
    #[test]
    fn csv_columnar_ingest_matches_row_path(data in arb_dataset()) {
        let mut csv = Vec::new();
        ot_fair_repair::data::write_labelled_csv(&mut csv, &data).unwrap();
        let rows = ot_fair_repair::data::read_labelled_csv(&csv[..]).unwrap();
        let cols = ot_fair_repair::data::read_labelled_csv_columnar(&csv[..]).unwrap();
        let cols_as_rows = cols.to_dataset();
        prop_assert_eq!(cols_as_rows.points(), rows.points());
        // The columnar writer produces the identical byte stream.
        let mut csv_cols = Vec::new();
        ot_fair_repair::data::write_labelled_csv_columnar(&mut csv_cols, &cols).unwrap();
        prop_assert_eq!(csv_cols, csv);
    }

    #[test]
    fn repair_always_preserves_cardinality_labels_and_support(
        spec in arb_spec(),
        seed in 0u64..10_000,
        n_q in 5usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(split) = spec.generate(300, 600, &mut rng) else { return Ok(()); };
        let Ok(plan) = RepairPlanner::new(RepairConfig::with_n_q(n_q)).design(&split.research)
        else { return Ok(()); }; // undersized groups are a legal refusal
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();

        prop_assert_eq!(repaired.len(), split.archive.len());
        for (a, b) in repaired.points().iter().zip(split.archive.points()) {
            prop_assert_eq!(a.s, b.s);
            prop_assert_eq!(a.u, b.u);
            for (k, &v) in a.x.iter().enumerate() {
                let fp = plan.feature_plan(a.u, k).unwrap();
                prop_assert!(
                    fp.support.iter().any(|&q| (q - v).abs() < 1e-9),
                    "value {} not on the (u={}, k={}) support", v, a.u, k
                );
            }
        }
    }

    #[test]
    fn repaired_values_stay_within_research_range(
        seed in 0u64..10_000,
    ) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(200, 400, &mut rng).unwrap();
        let Ok(plan) = RepairPlanner::new(RepairConfig::with_n_q(30)).design(&split.research)
        else { return Ok(()); };
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
        for p in repaired.points() {
            for (k, &v) in p.x.iter().enumerate() {
                let fp = plan.feature_plan(p.u, k).unwrap();
                prop_assert!(v >= fp.support[0] - 1e-9);
                prop_assert!(v <= fp.support[fp.support.len() - 1] + 1e-9);
            }
        }
    }

    #[test]
    fn group_proportions_invariant_under_repair(
        spec in arb_spec(),
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(split) = spec.generate(300, 800, &mut rng) else { return Ok(()); };
        let Ok(plan) = RepairPlanner::new(RepairConfig::with_n_q(25)).design(&split.research)
        else { return Ok(()); };
        let repaired = plan.repair_dataset(&split.archive, &mut rng).unwrap();
        prop_assert!((repaired.prob_u1() - split.archive.prob_u1()).abs() < 1e-12);
        for u in 0..2u8 {
            prop_assert!(
                (repaired.prob_s0_given_u(u) - split.archive.prob_s0_given_u(u)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn geometric_repair_is_idempotent_on_labels(
        seed in 0u64..10_000,
        t in 0.0f64..1.0,
    ) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = spec.sample_dataset(200, &mut rng).unwrap();
        let repaired = GeometricRepair { t }.repair(&data).unwrap();
        prop_assert_eq!(repaired.len(), data.len());
        for (a, b) in repaired.points().iter().zip(data.points()) {
            prop_assert_eq!(a.s, b.s);
            prop_assert_eq!(a.u, b.u);
            for &v in &a.x {
                prop_assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn plan_json_round_trip_repairs_identically(
        seed in 0u64..5_000,
    ) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(250, 250, &mut rng).unwrap();
        let Ok(plan) = RepairPlanner::new(RepairConfig::with_n_q(20)).design(&split.research)
        else { return Ok(()); };
        let back = ot_fair_repair::repair::RepairPlan::from_json(&plan.to_json().unwrap())
            .unwrap();
        // Same RNG stream => same draws (support values identical through
        // JSON via ryu round-trip).
        let a = plan
            .repair_dataset(&split.archive, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let b = back
            .repair_dataset(&split.archive, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        for (pa, pb) in a.points().iter().zip(b.points()) {
            for (va, vb) in pa.x.iter().zip(&pb.x) {
                prop_assert!((va - vb).abs() < 1e-9);
            }
        }
    }
}

/// A small scalar plan, a small joint plan (`nQ = 6`, `d = 2`) whose
/// strata store factored plans, both designed once, and the joint plan
/// with dense plans in `tests/fixtures/joint_plan_dense.json`, as their
/// JSON artifacts.
fn base_artifacts() -> &'static [String; 3] {
    static ARTIFACTS: std::sync::OnceLock<[String; 3]> = std::sync::OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(23);
        let research = SimulationSpec::paper_defaults()
            .sample_dataset(300, &mut rng)
            .unwrap();
        let scalar = RepairPlanner::new(RepairConfig::with_n_q(6))
            .design(&research)
            .unwrap();
        let config = JointRepairConfig {
            n_q: 6,
            epsilon: 0.1,
            ..JointRepairConfig::default()
        };
        let joint = JointRepairPlan::design(&research, config)
            .unwrap()
            .to_json()
            .unwrap();
        assert!(
            !joint.contains("\"plans\""),
            "both strata store factored plans"
        );
        let dense = include_str!("fixtures/joint_plan_dense.json").to_string();
        [scalar.to_json().unwrap(), joint, dense]
    })
}

/// The `n`-th node of `value` (preorder) that `pick` accepts, counting
/// down `n`.
fn nth_node<'a>(
    value: &'a mut serde_json::Value,
    pick: &dyn Fn(&serde_json::Value) -> bool,
    n: &mut usize,
) -> Option<&'a mut serde_json::Value> {
    if pick(value) {
        if *n == 0 {
            return Some(value);
        }
        *n -= 1;
    }
    match value {
        serde_json::Value::Arr(items) => items.iter_mut().find_map(|v| nth_node(v, pick, n)),
        serde_json::Value::Obj(fields) => fields.iter_mut().find_map(|(_, v)| nth_node(v, pick, n)),
        _ => None,
    }
}

/// How many nodes of `value` `pick` accepts.
fn count_nodes(value: &serde_json::Value, pick: &dyn Fn(&serde_json::Value) -> bool) -> usize {
    let below = match value {
        serde_json::Value::Arr(items) => items.iter().map(|v| count_nodes(v, pick)).sum(),
        serde_json::Value::Obj(fields) => fields.iter().map(|(_, v)| count_nodes(v, pick)).sum(),
        _ => 0,
    };
    usize::from(pick(value)) + below
}

/// `json` with one mutation: `what` 0 replaces a number with `1e999`,
/// `-1e999`, `-1` or `0` (by `how`), 1 drops an array element, 2 drops a
/// key and 3 renames one; `at` and `how` pick the node and the element,
/// modulo what there is.
fn mutate(json: &str, what: u8, at: usize, how: usize) -> String {
    use serde_json::Value;
    let mut plan: Value = serde_json::from_str(json).unwrap();
    let pick: &dyn Fn(&Value) -> bool = match what {
        0 => &|v| matches!(v, Value::Num(_)),
        1 => &|v| matches!(v, Value::Arr(items) if !items.is_empty()),
        _ => &|v| matches!(v, Value::Obj(fields) if !fields.is_empty()),
    };
    let mut n = at % count_nodes(&plan, pick);
    // A number no artifact holds, swapped for the replacement's text
    // after writing, since the writer has no spelling for ±∞.
    const MARK: f64 = 7.77e-77;
    match nth_node(&mut plan, pick, &mut n).unwrap() {
        Value::Num(x) => *x = MARK,
        Value::Arr(items) => {
            items.remove(how % items.len());
        }
        Value::Obj(fields) if what == 2 => {
            fields.remove(how % fields.len());
        }
        Value::Obj(fields) => {
            let at = how % fields.len();
            fields[at].0.push_str("_renamed");
        }
        _ => unreachable!("picked a number, an array or an object"),
    }
    let replacement = ["1e999", "-1e999", "-1", "0"][how % 4];
    serde_json::to_string(&plan)
        .unwrap()
        .replace(&format!("{MARK:?}"), replacement)
}

/// Load `json` through the one kind decision and through the registry
/// under both declared kinds; whatever loads must repair a 3-row archive.
/// Any of these may fail, a load only as `PlanInvalid`, and none may
/// panic.
fn load_and_repair(json: &str) {
    let archive = ColumnarDataset::from_columns(
        vec![vec![-2.0, 0.3, 5.0], vec![1.0, -0.7, 0.0]],
        vec![0, 1, 1],
        vec![0, 0, 1],
    )
    .unwrap();
    let registry = PlanRegistry::new(1, None);
    for kind in [PlanKind::Scalar, PlanKind::Joint] {
        if let Err(e) = registry.load("p", 1, kind, json) {
            assert_eq!(e.code(), ErrorCode::PlanInvalid, "{e}");
        }
    }
    let loaded = registry.get("p", 1).ok();
    let direct = RegisteredPlan::from_json(json).ok();
    assert_eq!(
        loaded.is_some(),
        direct.is_some(),
        "the registry and the loader disagree"
    );
    if let Some(plan) = direct {
        let _ = plan.repair_shard(&archive, 7, 0);
        if let RegisteredPlan::Scalar(plan) = &plan {
            let _ = MongeRepair::from_plan(plan).repair_columnar(&archive);
            let _ = plan.repair_columnar_partial(&archive, 0.5, 7);
        }
    }
}

/// A joint artifact whose `strata` key is dropped or renamed reads as a
/// scalar artifact, and fails as one.
#[test]
fn joint_artifacts_without_their_strata_key_are_refused() {
    let joint = &base_artifacts()[1];
    let Ok(serde_json::Value::Obj(fields)) = serde_json::from_str(joint) else {
        panic!("a plan artifact is an object")
    };
    let at = fields.iter().position(|(k, _)| k == "strata").unwrap();
    // Drop the key, then rename it; the top-level object is node 0.
    for what in [2, 3] {
        let json = mutate(joint, what, 0, at);
        assert!(!json.contains("\"strata\""));
        assert!(RegisteredPlan::from_json(&json).is_err());
        load_and_repair(&json);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One random mutation of a valid plan artifact of either kind, and
    /// of either joint form, loads or fails as `PlanInvalid`, never
    /// panics, and whatever loads repairs without panicking.
    #[test]
    fn mutated_plan_artifacts_load_or_fail_but_never_panic(
        base in 0usize..3,
        what in 0u8..4,
        at in 0usize..1_000_000,
        how in 0usize..1_000_000,
    ) {
        load_and_repair(&mutate(&base_artifacts()[base], what, at, how));
    }
}
