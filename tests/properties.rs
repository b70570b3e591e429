//! Cross-crate property-based tests (proptest): invariants of the repair
//! pipeline under randomized populations and configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::prelude::*;

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
        let repaired = GeometricRepair { t, min_group_size: 2 }.repair(&data).unwrap();
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
