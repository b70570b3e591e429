//! Golden-file schema test for [`JointDesignReport`] — the JSON the
//! perf-smoke job archives as `BENCH_joint_report.json` and operators
//! read for convergence headroom. The CI artifact format must not
//! drift silently: any field rename, removal, reorder, or type change
//! shows up here as a diff against the checked-in fixture, and the
//! fixture update becomes an explicit, reviewable part of the change.

use ot_fair_repair::prelude::*;
use ot_fair_repair::repair::{BarycentreStageStat, JointStratumReport};

/// Axis grids of the checked-in 3-feature plan fixture, keyed by `u`
/// (must match `tests/fixtures/joint_plan_3feature.json`).
const FIXTURE_AXES: [[[f64; 2]; 3]; 2] = [
    [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]],
    [[-1.0, 0.0], [-1.0, 1.0], [-1.0, 2.0]],
];

/// A fully populated report with stable, hand-picked values — every
/// field and nesting level of the artifact schema exercised.
fn reference_report() -> JointDesignReport {
    JointDesignReport {
        n_q: 24,
        dims: 3,
        epsilon: 0.05,
        eps_scaling: Some(EpsSchedule {
            eps0: 1.0,
            factor: 0.25,
        }),
        solver: "sinkhorn:0.05:scaled".to_string(),
        kernel: "separable".to_string(),
        design_secs: 1.5,
        strata: vec![
            JointStratumReport {
                u: 0,
                barycentre_iterations: 120,
                barycentre_final_delta: 5e-10,
                barycentre_stages: vec![
                    BarycentreStageStat {
                        eps: 1.0,
                        iterations: 40,
                    },
                    BarycentreStageStat {
                        eps: 0.25,
                        iterations: 50,
                    },
                    BarycentreStageStat {
                        eps: 0.05,
                        iterations: 30,
                    },
                ],
                plan_transport_cost: [0.75, 1.25],
            },
            JointStratumReport {
                u: 1,
                barycentre_iterations: 90,
                barycentre_final_delta: 2.5e-10,
                barycentre_stages: vec![BarycentreStageStat {
                    eps: 0.05,
                    iterations: 90,
                }],
                plan_transport_cost: [0.5, 2.0],
            },
        ],
    }
}

#[test]
fn joint_design_report_schema_matches_checked_in_fixture() {
    let fixture_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/joint_design_report.json"
    );
    let fixture = std::fs::read_to_string(fixture_path)
        .unwrap_or_else(|e| panic!("cannot read fixture {fixture_path}: {e}"));
    // Compare as parsed JSON values: whitespace-insensitive, but field
    // names, order, nesting, and numeric payloads all pinned (the
    // vendored Value keeps object entries in serialization order).
    let want: serde_json::Value = serde_json::from_str(&fixture)
        .unwrap_or_else(|e| panic!("malformed fixture {fixture_path}: {e}"));
    let got: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&reference_report()).unwrap()).unwrap();
    assert!(
        want == got,
        "JointDesignReport schema drifted from tests/fixtures/joint_design_report.json.\n\
         If the change is intentional, re-record the fixture from this test's \
         reference_report() and review the diff.\n\
         fixture: {want:?}\n\
         current: {got:?}"
    );
}

/// Golden-file schema test for the `d = 3` joint-plan artifact — the
/// JSON `otrepair design --joint --out` writes and `apply` /
/// `otrepaird` read back. The hand-written fixture (2×2×2 product grid,
/// uniform 8×8 plans) pins the on-disk schema in both directions:
/// `from_json` must keep accepting it, and re-serialization must
/// reproduce it field-for-field (the `axes` grids and the per-`s`
/// plans, nothing else). A loaded fixture plan must
/// also actually repair: seed-deterministically, onto its stratum's
/// product grid.
#[test]
fn three_feature_joint_plan_fixture_round_trips_and_repairs() {
    let fixture_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/joint_plan_3feature.json"
    );
    let fixture = std::fs::read_to_string(fixture_path)
        .unwrap_or_else(|e| panic!("cannot read fixture {fixture_path}: {e}"));
    let plan = JointRepairPlan::from_json(&fixture)
        .unwrap_or_else(|e| panic!("fixture plan no longer loads: {e}"));
    assert_eq!(plan.dims(), 3);
    assert_eq!(plan.config().n_q, 2);

    let want: serde_json::Value = serde_json::from_str(&fixture)
        .unwrap_or_else(|e| panic!("malformed fixture {fixture_path}: {e}"));
    let got: serde_json::Value = serde_json::from_str(&plan.to_json().unwrap()).unwrap();
    assert!(
        want == got,
        "JointRepairPlan schema drifted from tests/fixtures/joint_plan_3feature.json.\n\
         If the change is intentional, re-record the fixture from to_json() and \
         review the diff.\n\
         fixture: {want:?}\n\
         current: {got:?}"
    );

    let archive = Dataset::from_points(vec![
        LabelledPoint {
            x: vec![0.3, 1.9, 2.2],
            s: 0,
            u: 0,
        },
        LabelledPoint {
            x: vec![0.9, 0.1, 2.9],
            s: 1,
            u: 0,
        },
        LabelledPoint {
            x: vec![-0.4, 0.6, 1.5],
            s: 0,
            u: 1,
        },
        LabelledPoint {
            x: vec![-0.9, -0.2, 0.3],
            s: 1,
            u: 1,
        },
    ])
    .unwrap();
    let repaired = plan.repair_dataset_par(&archive, 11).unwrap();
    let again = plan.repair_dataset_par(&archive, 11).unwrap();
    for (p, q) in repaired.points().iter().zip(again.points()) {
        assert_eq!(p.x, q.x, "same seed, different repair");
    }
    for p in repaired.points() {
        let axes = &FIXTURE_AXES[p.u as usize];
        for (k, v) in p.x.iter().enumerate() {
            assert!(
                axes[k].contains(v),
                "repaired coordinate {v} is off axis {k} of stratum u = {}",
                p.u
            );
        }
    }
}
