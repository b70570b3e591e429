//! Integration tests of the repair service: a real `otrepaird` server
//! on a loopback socket, exercised through the library client and raw
//! sockets.
//!
//! The load-bearing assertions pin the **serving determinism
//! contract** (docs/determinism.md): served output is byte-identical —
//! at the `f64` bit level — to offline repair, for shard counts
//! {1, 2, 7}, any thread policy, and concurrent interleaved clients.

use std::io::{Read, Write};
use std::net::TcpStream;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::data::{ColumnarDataset, Dataset, SimulationSpec};
use ot_fair_repair::prelude::EpsSchedule;
use ot_fair_repair::repair::{
    JointRepairConfig, JointRepairPlan, MassSplit, RepairConfig, RepairPlan, RepairPlanner,
};
use ot_fair_repair::serve::protocol::{self, request_type};
use ot_fair_repair::serve::{
    Client, ClientError, ErrorCode, PlanKind, ServeConfig, Server, ServerHandle,
};

/// A running server on an OS-assigned loopback port.
struct TestServer {
    addr: String,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(mut config: ServeConfig) -> Self {
        config.bind = "127.0.0.1:0".into();
        let server = Server::bind(&config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle().unwrap();
        let thread = std::thread::spawn(move || server.run().unwrap());
        Self {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).unwrap()
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn split_data(seed: u64, n_research: usize, n_archive: usize) -> (Dataset, ColumnarDataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let split = SimulationSpec::paper_defaults()
        .generate(n_research, n_archive, &mut rng)
        .unwrap();
    let archive = ColumnarDataset::from_dataset(&split.archive);
    (split.research, archive)
}

fn scalar_plan(research: &Dataset, n_q: usize) -> RepairPlan {
    RepairPlanner::new(RepairConfig::with_n_q(n_q))
        .design(research)
        .unwrap()
}

fn joint_plan(research: &Dataset) -> JointRepairPlan {
    let config = JointRepairConfig {
        n_q: 8,
        ..JointRepairConfig::default()
    };
    JointRepairPlan::design(research, config).unwrap()
}

/// Bit-level equality of feature columns (`==` would conflate 0.0 and
/// -0.0 and choke on any NaN).
fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
    columns
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn served_repair_is_byte_identical_to_offline_across_shard_counts() {
    let (research, archive) = split_data(11, 400, 1_200);
    let plan = scalar_plan(&research, 30);
    let json = plan.to_json().unwrap();
    let seed = 7u64;
    let offline = bits(
        plan.repair_columnar_par(&archive, seed)
            .unwrap()
            .feature_columns(),
    );
    let mut columns = vec![vec![0.0; archive.len()]; archive.dim()];
    let oob = plan
        .repair_columnar_into(&archive, 0..archive.len(), seed, 0, &mut columns)
        .unwrap();

    for shards in [1usize, 2, 7] {
        let server = TestServer::start(ServeConfig {
            shards,
            ..ServeConfig::default()
        });
        let mut client = server.client();
        client
            .load_plan(PlanKind::Scalar, "census", 1, &json)
            .unwrap();
        let served = client.repair("census", 1, seed, &archive).unwrap();
        assert_eq!(
            bits(&served.columns),
            offline,
            "served bytes differ from offline at {shards} shards"
        );
        // The out-of-range count is part of the contract too: it must
        // not depend on the shard layout.
        assert_eq!(served.out_of_range, oob, "oob drifted at {shards} shards");
    }
}

#[test]
fn served_joint_repair_matches_offline() {
    let (research, archive) = split_data(12, 500, 600);
    let plan = joint_plan(&research);
    let json = plan.to_json().unwrap();
    let seed = 3u64;
    let offline = ColumnarDataset::from_dataset(
        &plan
            .repair_dataset_par(&archive.to_dataset(), seed)
            .unwrap(),
    );

    let server = TestServer::start(ServeConfig {
        shards: 5,
        ..ServeConfig::default()
    });
    let mut client = server.client();
    client
        .load_plan(PlanKind::Joint, "joint", 1, &json)
        .unwrap();
    let served = client.repair_archive("joint", 0, seed, &archive).unwrap();
    assert_eq!(
        bits(served.feature_columns()),
        bits(offline.feature_columns())
    );
    // Labels pass through repair untouched.
    assert_eq!(served.s(), archive.s());
    assert_eq!(served.u(), archive.u());

    // A 1-feature archive with no rows still fails the plan's dimension
    // check, and a joint artifact declared scalar is refused by kind.
    let empty = ColumnarDataset::from_columns(vec![vec![]], vec![], vec![]).unwrap();
    let err = client.repair_archive("joint", 0, seed, &empty).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::RepairFailed), "{err}");
    let err = client
        .load_plan(PlanKind::Scalar, "joint", 2, &json)
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::PlanInvalid), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("declared a scalar plan, but the artifact is a joint plan"));
    assert!(!msg.contains("missing field"), "{msg}");
}

/// The `d = 3` joint path through the service, end to end: a 3-feature
/// joint plan is (a) preloaded from a `plans_dir` — exercising the
/// registry's kind-sniffing loader (a `strata` key picks the joint
/// schema) on the n-d plan schema — and (b) loaded over the wire,
/// and both must serve bytes byte-identical to offline
/// `repair_dataset_par` (the `apply` path of a joint plan). The registry
/// listing must report the plan's true dimensionality, not assume
/// joint means 2.
#[test]
fn served_3feature_joint_repair_matches_offline_and_sniffs_kind() {
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
    let mut rng = StdRng::seed_from_u64(21);
    let split = spec.generate(300, 250, &mut rng).unwrap();
    let archive = ColumnarDataset::from_dataset(&split.archive);
    let config = JointRepairConfig {
        n_q: 6,
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        ..JointRepairConfig::default()
    };
    let plan = JointRepairPlan::design(&split.research, config).unwrap();
    let json = plan.to_json().unwrap();
    let seed = 5u64;
    let offline = ColumnarDataset::from_dataset(
        &plan
            .repair_dataset_par(&archive.to_dataset(), seed)
            .unwrap(),
    );

    // (a) plans_dir preload: the loader must sniff the n-d artifact as
    // a joint plan without being told its kind.
    let dir = std::env::temp_dir().join(format!("otrepaird-joint3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("joint3.json"), &json).unwrap();
    let server = TestServer::start(ServeConfig {
        shards: 3,
        plans_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = server.client();
    let plans = client.list_plans().unwrap();
    assert_eq!(plans.len(), 1);
    assert_eq!(
        (
            plans[0].name.as_str(),
            plans[0].kind,
            plans[0].dim,
            plans[0].n_q
        ),
        ("joint3", PlanKind::Joint, 3, 6),
        "kind sniffing or dim reporting broke on the d = 3 schema"
    );
    let served = client.repair_archive("joint3", 0, seed, &archive).unwrap();
    assert_eq!(
        bits(served.feature_columns()),
        bits(offline.feature_columns()),
        "preloaded d = 3 joint plan served different bytes than offline repair"
    );
    assert_eq!(served.s(), archive.s());
    assert_eq!(served.u(), archive.u());

    // (b) the same artifact loaded over the wire serves the same bytes.
    client
        .load_plan(PlanKind::Joint, "wire3", 1, &json)
        .unwrap();
    let served = client.repair_archive("wire3", 1, seed, &archive).unwrap();
    assert_eq!(
        bits(served.feature_columns()),
        bits(offline.feature_columns()),
        "wire-loaded d = 3 joint plan served different bytes than offline repair"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_each_get_their_own_deterministic_bytes() {
    let (research, archive) = split_data(13, 400, 800);
    let plan = scalar_plan(&research, 24);
    let json = plan.to_json().unwrap();

    let server = TestServer::start(ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    });
    server
        .client()
        .load_plan(PlanKind::Scalar, "p", 1, &json)
        .unwrap();

    // Four clients interleave repairs with distinct seeds; each stream
    // of responses must match that client's own offline reference —
    // cross-request interleaving must be unobservable.
    let addr = server.addr.clone();
    let results: Vec<_> = std::thread::scope(|scope| {
        (0u64..4)
            .map(|client_id| {
                let addr = addr.clone();
                let archive = &archive;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    (0u64..3)
                        .map(|round| {
                            let seed = client_id * 100 + round;
                            (
                                seed,
                                bits(&client.repair("p", 0, seed, archive).unwrap().columns),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for per_client in results {
        for (seed, served) in per_client {
            let offline = bits(
                plan.repair_columnar_par(&archive, seed)
                    .unwrap()
                    .feature_columns(),
            );
            assert_eq!(served, offline, "seed {seed} drifted under concurrency");
        }
    }
    assert_eq!(server.handle.rows_repaired(), 4 * 3 * archive.len() as u64);
}

#[test]
fn plan_lifecycle_and_registry_errors_over_the_wire() {
    let (research, archive) = split_data(14, 350, 200);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();

    client.ping().unwrap();
    assert!(client.list_plans().unwrap().is_empty());

    // Load two versions; listing is name-then-version ordered.
    client
        .load_plan(PlanKind::Scalar, "census", 1, &json)
        .unwrap();
    client
        .load_plan(PlanKind::Scalar, "census", 3, &json)
        .unwrap();
    let plans = client.list_plans().unwrap();
    assert_eq!(
        plans
            .iter()
            .map(|p| (p.name.as_str(), p.version))
            .collect::<Vec<_>>(),
        vec![("census", 1), ("census", 3)]
    );
    assert_eq!(
        (plans[0].kind, plans[0].dim, plans[0].n_q),
        (PlanKind::Scalar, 2, 16)
    );

    // Malformed JSON → PlanInvalid.
    let err = client
        .load_plan(PlanKind::Scalar, "bad", 1, "{not json")
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::PlanInvalid), "{err}");

    // Occupied name@version → VersionCollision (immutable versions).
    let err = client
        .load_plan(PlanKind::Scalar, "census", 3, &json)
        .unwrap_err();
    assert_eq!(
        err.server_code(),
        Some(ErrorCode::VersionCollision),
        "{err}"
    );

    // Repair against an unknown plan → UnknownPlan.
    let err = client.repair("nope", 0, 1, &archive).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownPlan), "{err}");

    // Dimension mismatch → RepairFailed (the joint kind needs d = 2...
    // here we submit a 1-column archive against a d = 2 scalar plan).
    let skinny =
        ColumnarDataset::from_columns(vec![vec![0.5; 4]], vec![0, 1, 0, 1], vec![0, 0, 1, 1])
            .unwrap();
    let err = client.repair("census", 0, 1, &skinny).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::RepairFailed), "{err}");
    // So is a mismatched archive with no rows: no shard holds a row, and
    // the plan still checks it.
    let empty = ColumnarDataset::from_columns(vec![vec![]], vec![], vec![]).unwrap();
    let err = client.repair("census", 0, 1, &empty).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::RepairFailed), "{err}");

    // A declared kind the artifact contradicts → PlanInvalid naming both
    // kinds, not the schema error of the other kind's parser.
    let err = client
        .load_plan(PlanKind::Joint, "census", 9, &json)
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::PlanInvalid), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("declared a joint plan, but the artifact is a scalar plan"));
    assert!(!msg.contains("missing field"), "{msg}");

    // Evict; the evicted version is gone, the other remains, and
    // version 0 now resolves to it.
    client.evict_plan("census", 3).unwrap();
    let err = client.evict_plan("census", 3).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownPlan), "{err}");
    assert_eq!(client.list_plans().unwrap().len(), 1);
    client.repair("census", 0, 1, &archive).unwrap();

    // The info snapshot reflects the session.
    let info = client.info().unwrap();
    assert_eq!(info.protocol_version, protocol::PROTOCOL_VERSION);
    assert_eq!(info.plans, 1);
    assert_eq!(info.rows_repaired, archive.len() as u64);
    assert!(info.requests >= 10);
}

#[test]
fn version_zero_selects_latest_and_pins_bytes_to_versions() {
    let (research, archive) = split_data(15, 350, 300);
    // Two genuinely different plans under the same name: different nQ
    // resolutions produce different repaired bytes.
    let v1 = scalar_plan(&research, 12);
    let v2 = scalar_plan(&research, 40);
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();
    client
        .load_plan(PlanKind::Scalar, "p", 1, &v1.to_json().unwrap())
        .unwrap();
    client
        .load_plan(PlanKind::Scalar, "p", 2, &v2.to_json().unwrap())
        .unwrap();

    let latest = client.repair("p", 0, 9, &archive).unwrap();
    let pinned1 = client.repair("p", 1, 9, &archive).unwrap();
    let pinned2 = client.repair("p", 2, 9, &archive).unwrap();
    assert_eq!(
        bits(&latest.columns),
        bits(&pinned2.columns),
        "0 must mean latest"
    );
    assert_ne!(
        bits(&pinned1.columns),
        bits(&pinned2.columns),
        "different plan versions must actually differ for this test to bite"
    );
    assert_eq!(
        bits(&pinned1.columns),
        bits(
            v1.repair_columnar_par(&archive, 9)
                .unwrap()
                .feature_columns()
        ),
        "pinned version must serve exactly its artifact"
    );
}

#[test]
fn plans_dir_preloads_named_versions() {
    let (research, archive) = split_data(16, 350, 150);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let dir = std::env::temp_dir().join(format!("otrepaird-preload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("census.json"), &json).unwrap();
    std::fs::write(dir.join("census@2.json"), &json).unwrap();

    let server = TestServer::start(ServeConfig {
        plans_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = server.client();
    let plans = client.list_plans().unwrap();
    assert_eq!(
        plans
            .iter()
            .map(|p| (p.name.as_str(), p.version))
            .collect::<Vec<_>>(),
        vec![("census", 1), ("census", 2)]
    );
    client.repair("census", 2, 1, &archive).unwrap();

    // A broken artifact in the directory fails startup loudly instead
    // of serving a partial registry.
    std::fs::write(dir.join("broken.json"), "{oops").unwrap();
    let err = Server::bind(&ServeConfig {
        bind: "127.0.0.1:0".into(),
        plans_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap_err();
    assert!(err.to_string().contains("broken"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shards repair in place into disjoint row ranges of one response
/// buffer; the knob grid pins that split at its edges too: every kernel
/// (the scalar randomized draw and deterministic projection table, and
/// the joint product-grid draw), an archive with no rows, and one with
/// fewer rows than shards.
#[test]
fn execution_knobs_never_change_served_bytes() {
    let (research, archive) = split_data(17, 400, 700);
    let randomized = scalar_plan(&research, 20);
    let mut config = RepairConfig::with_n_q(20);
    config.mass_split = MassSplit::Deterministic;
    let deterministic = RepairPlanner::new(config).design(&research).unwrap();
    let joint = joint_plan(&research);
    let archives = [
        archive.clone(),
        archive.slice_rows(0..0).unwrap(),
        archive.slice_rows(0..3).unwrap(),
    ];
    // Each plan's artifact and its offline bytes for every archive.
    let offline = |repair: &dyn Fn(&ColumnarDataset) -> ColumnarDataset| {
        archives
            .iter()
            .map(|input| bits(repair(input).feature_columns()))
            .collect::<Vec<_>>()
    };
    let plans = [
        (
            "randomized",
            PlanKind::Scalar,
            randomized.to_json().unwrap(),
            offline(&|a| randomized.repair_columnar_par(a, 42).unwrap()),
        ),
        (
            "deterministic",
            PlanKind::Scalar,
            deterministic.to_json().unwrap(),
            offline(&|a| deterministic.repair_columnar_par(a, 42).unwrap()),
        ),
        (
            "joint",
            PlanKind::Joint,
            joint.to_json().unwrap(),
            offline(&|a| joint.repair_columnar_par(a, 42).unwrap()),
        ),
    ];

    for (label, kind, json, expected) in &plans {
        for (threads, shards) in [(1, 1), (2, 7), (4, 3), (0, 0)] {
            let server = TestServer::start(ServeConfig {
                threads,
                shards,
                ..ServeConfig::default()
            });
            let mut client = server.client();
            client.load_plan(*kind, "p", 1, json).unwrap();
            for (input, offline) in archives.iter().zip(expected) {
                let served = client.repair("p", 1, 42, input).unwrap();
                assert_eq!(
                    &bits(&served.columns),
                    offline,
                    "{label} plan, {} rows: threads={threads} shards={shards} changed bytes",
                    input.len()
                );
            }
        }
    }
}

/// Replace the first number after `"key":[` (at any nesting depth) in a
/// plan artifact with `1e999`, which the JSON parser reads as `+inf`.
fn poison_first(json: &str, key: &str) -> String {
    let at = json.find(&format!("\"{key}\":[")).unwrap() + key.len() + 3;
    let at = at
        + json[at..]
            .find(|c: char| c == '-' || c.is_ascii_digit())
            .unwrap();
    let end = at + json[at..].find([',', ']']).unwrap();
    format!("{}1e999{}", &json[..at], &json[end..])
}

/// `json` (a plan) with the array at `path` edited by `edit`; `path`
/// steps through object keys and array indices, e.g. `["features", "0",
/// "barycentre", "support"]`.
fn edit_array(json: &str, path: &[&str], edit: impl FnOnce(&mut Vec<serde_json::Value>)) -> String {
    let mut plan: serde_json::Value = serde_json::from_str(json).unwrap();
    let target = path.iter().fold(&mut plan, |v, key| match v {
        serde_json::Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
        serde_json::Value::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
        _ => panic!("plan JSON has no {path:?}"),
    });
    let serde_json::Value::Arr(array) = target else {
        panic!("plan JSON {path:?} is not an array")
    };
    edit(array);
    serde_json::to_string(&plan).unwrap()
}

/// A non-finite support (scalar) or axis (joint), a scalar plan whose
/// `features` are not the `2 · dim` strata in slot order, a scalar plan
/// whose marginal or barycentre has a negative mass or a support other
/// than its stratum's or whose duals are not finite, a plan of either
/// kind with a row no draw can come from (a negative or infinite mass,
/// or none at all), a joint plan whose two strata disagree on `d`, a
/// joint plan with `gx`/`gy` but no `axes`, a factored joint stratum
/// with a scaling that is infinite, zero, negative or one entry short,
/// with a negative barycentre mass or whose axes declare more plan cells
/// than a load may rebuild, and a joint stratum with both dense and
/// factored plans or with neither, are rejected once, at load, as
/// `PlanInvalid` — over the wire and from a `plans_dir`, each with its
/// own reason, the daemon still answering afterwards — so no request can
/// ever be served from them. `otrepair
/// apply` refuses them with the same reason. The dense-row cases edit
/// `tests/fixtures/joint_plan_dense.json`, since a fresh joint design
/// stores factored plans.
#[test]
fn non_finite_plan_supports_are_rejected_at_load() {
    let (research, _) = split_data(18, 400, 10);
    let scalar_json = scalar_plan(&research, 12).to_json().unwrap();
    let scalar = poison_first(&scalar_json, "support");
    let joint_json = joint_plan(&research).to_json().unwrap();
    let joint = poison_first(&joint_json, "axes");
    assert!(scalar.contains("1e999") && joint.contains("1e999"));
    let cut = edit_array(&scalar_json, &["features"], |features| features.truncate(1));
    let relabelled = edit_array(&scalar_json, &["features"], |features| {
        let serde_json::Value::Obj(fields) = &mut features[1] else {
            panic!("feature plan is not an object")
        };
        let k = fields.iter_mut().find(|(key, _)| key == "k").unwrap();
        k.1 = serde_json::Value::Num(9.0);
    });
    // The d = 2 plan with the u = 1 stratum of a d = 3 design.
    let mut d3_stratum = None;
    edit_array(
        include_str!("fixtures/joint_plan_3feature.json"),
        &["strata"],
        |strata| d3_stratum = strata.pop(),
    );
    let mixed = edit_array(&joint_json, &["strata"], |strata| {
        strata[1] = d3_stratum.unwrap();
    });
    let masses = ["features", "0", "marginals", "1", "masses"];
    let negative = edit_array(&scalar_json, &masses, |m| {
        m[1] = serde_json::Value::Num(-1e-3)
    });
    let support = ["features", "0", "marginals", "1", "support"];
    let swapped = edit_array(&scalar_json, &support, |s| s.swap(0, 1));
    let support = ["features", "2", "barycentre", "support"];
    let truncated = edit_array(&scalar_json, &support, |s| s.truncate(s.len() - 1));
    let mut config = RepairConfig::with_n_q(12);
    config.solver = "sinkhorn:0.05".parse().unwrap();
    let sinkhorn = RepairPlanner::new(config).design(&research).unwrap();
    let duals = poison_first(&sinkhorn.to_json().unwrap(), "duals");
    // The 2-feature joint format from before `d`-axis plans.
    let legacy = edit_array(&joint_json, &["strata"], |strata| {
        for stratum in strata {
            let serde_json::Value::Obj(fields) = stratum else {
                panic!("stratum is not an object")
            };
            let axes = fields.iter().position(|(k, _)| k == "axes").unwrap();
            let (_, serde_json::Value::Arr(axes)) = fields.remove(axes) else {
                panic!("axes is not an array")
            };
            fields.insert(0, ("gy".into(), axes[1].clone()));
            fields.insert(0, ("gx".into(), axes[0].clone()));
        }
    });
    let (num, zero) = (serde_json::Value::Num, serde_json::Value::Num(0.0));
    let mass = ["features", "1", "plans", "1", "mass"];
    let negative_row = edit_array(&scalar_json, &mass, |m| m[5] = num(-1.0));
    let infinite_row = poison_first(&scalar_json, "mass");
    let empty_row = edit_array(&scalar_json, &mass, |m| m[12..24].fill(zero.clone()));
    let dense_json = include_str!("fixtures/joint_plan_dense.json");
    let mass = ["strata", "1", "plans", "0", "mass"];
    let joint_negative_row = edit_array(dense_json, &mass, |m| m[29] = num(-1.0));
    let joint_empty_row = edit_array(dense_json, &mass, |m| m[25..50].fill(zero.clone()));
    // Stratum u = 1 of this design stores factored plans.
    assert!(joint_json.find("\"plans\"") < joint_json.find("\"factored\""));
    let u_0 = ["strata", "1", "factored", "scalings", "0", "u"];
    let infinite_scaling = poison_first(&joint_json, "u");
    let zero_scaling = edit_array(&joint_json, &u_0, |u| u[3] = zero.clone());
    let negative_scaling = edit_array(&joint_json, &u_0, |u| u[3] = num(-1.0));
    let v_1 = ["strata", "1", "factored", "scalings", "1", "v"];
    let short_scaling = edit_array(&joint_json, &v_1, |v| {
        v.pop();
    });
    let barycentre = ["strata", "1", "factored", "barycentre"];
    let negative_barycentre = edit_array(&joint_json, &barycentre, |b| b[5] = num(-1e-3));
    // Two 1000-point axes: a 10¹²-cell plan declared in a few kilobytes.
    let huge_grid = edit_array(&joint_json, &["strata", "1", "axes"], |axes| {
        let axis = serde_json::Value::Arr((0..1000).map(|i| num(f64::from(i))).collect());
        *axes = vec![axis.clone(), axis];
    });
    // Stratum u = 1 of the dense fixture with the factored plans of a
    // fresh design's u = 1 too, then with neither.
    let parsed: serde_json::Value = serde_json::from_str(&joint_json).unwrap();
    let factored = parsed.get("strata").unwrap().as_arr().unwrap()[1]
        .get("factored")
        .unwrap()
        .clone();
    let both_forms = edit_array(dense_json, &["strata"], |strata| {
        let serde_json::Value::Obj(fields) = &mut strata[1] else {
            panic!("stratum is not an object")
        };
        fields.push(("factored".into(), factored));
    });
    let neither_form = edit_array(dense_json, &["strata"], |strata| {
        let serde_json::Value::Obj(fields) = &mut strata[1] else {
            panic!("stratum is not an object")
        };
        fields.retain(|(k, _)| k != "plans");
    });
    let bad_row = |at: &str, why: &str| format!("{at}: invalid probabilities: {why}");
    let differs = "support differs from `support`";
    let cases = [
        ("scalar", PlanKind::Scalar, &scalar, "finite"),
        ("joint", PlanKind::Joint, &joint, "finite"),
        ("cut", PlanKind::Scalar, &cut, "feature plans, got 1"),
        (
            "relabelled",
            PlanKind::Scalar,
            &relabelled,
            "labelled (u=0, k=9)",
        ),
        (
            "mixed",
            PlanKind::Joint,
            &mixed,
            "u=0 has d = 2, u=1 has d = 3",
        ),
        (
            "negative",
            PlanKind::Scalar,
            &negative,
            "-0.001 is negative",
        ),
        ("swapped", PlanKind::Scalar, &swapped, differs),
        ("truncated", PlanKind::Scalar, &truncated, differs),
        ("duals", PlanKind::Scalar, &duals, "duals are not 12 finite"),
        (
            "negative-row",
            PlanKind::Scalar,
            &negative_row,
            &bad_row("(u=0, s=1, k=1) row 0", "weight[5] = -1 is negative"),
        ),
        (
            "infinite-row",
            PlanKind::Scalar,
            &infinite_row,
            &bad_row("(u=0, s=0, k=0) row 0", "weight[0] = inf is negative"),
        ),
        (
            "empty-row",
            PlanKind::Scalar,
            &empty_row,
            &bad_row("(u=0, s=1, k=1) row 1", "total weight 0 is not positive"),
        ),
        (
            "joint-negative-row",
            PlanKind::Joint,
            &joint_negative_row,
            &bad_row("(u=1, s=0) row 1", "weight[4] = -1 is negative"),
        ),
        (
            "joint-empty-row",
            PlanKind::Joint,
            &joint_empty_row,
            &bad_row("(u=1, s=0) row 1", "total weight 0 is not positive"),
        ),
        ("legacy", PlanKind::Joint, &legacy, "design --joint"),
        (
            "infinite-scaling",
            PlanKind::Joint,
            &infinite_scaling,
            "joint stratum u=1: `factored.scalings[0].u[0]` = inf is not a positive finite number",
        ),
        (
            "zero-scaling",
            PlanKind::Joint,
            &zero_scaling,
            "joint stratum u=1: `factored.scalings[0].u[3]` = 0 is not a positive finite number",
        ),
        (
            "negative-scaling",
            PlanKind::Joint,
            &negative_scaling,
            "joint stratum u=1: `factored.scalings[0].u[3]` = -1 is not a positive finite number",
        ),
        (
            "short-scaling",
            PlanKind::Joint,
            &short_scaling,
            "joint stratum u=1: `factored.scalings[1].v` holds 63 values but the product grid \
             has 64 states",
        ),
        (
            "negative-barycentre",
            PlanKind::Joint,
            &negative_barycentre,
            "joint stratum u=1: `factored.barycentre[5]` = -0.001 is not a positive finite \
             number",
        ),
        (
            "huge-grid",
            PlanKind::Joint,
            &huge_grid,
            "joint stratum u=1: `factored` plans on the 1000000-state product grid would \
             rebuild 1000000² cells each, more than the 33554432 a joint plan may hold",
        ),
        (
            "both-forms",
            PlanKind::Joint,
            &both_forms,
            "joint stratum u=1: holds both dense `plans` and `factored` plans",
        ),
        (
            "neither-form",
            PlanKind::Joint,
            &neither_form,
            "joint stratum u=1: holds neither dense `plans` nor `factored` plans",
        ),
    ];

    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();
    for (name, kind, json, reason) in cases {
        let err = client.load_plan(kind, "bad", 1, json).unwrap_err();
        assert_eq!(
            err.server_code(),
            Some(ErrorCode::PlanInvalid),
            "{name}: {err}"
        );
        assert!(err.to_string().contains(reason), "{name}: {err}");
    }
    client.ping().unwrap();
    assert!(client.list_plans().unwrap().is_empty());

    let archive = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/fixtures/archive.csv");
    for (name, kind, json, reason) in cases {
        let dir = std::env::temp_dir().join(format!("otrepaird-inf-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, json).unwrap();
        let out = dir.join("out.csv");
        let modes: &[&[&str]] = match kind {
            PlanKind::Scalar => &[&[], &["--monge"]],
            PlanKind::Joint => &[&[]],
        };
        for mode in modes {
            let run = std::process::Command::new(env!("CARGO_BIN_EXE_otrepair"))
                .args(["apply", "--data", archive])
                .args(*mode)
                .arg("--plan")
                .arg(&path)
                .arg("--out")
                .arg(&out)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(!run.status.success(), "{name} {mode:?}: apply succeeded");
            assert!(stderr.contains(reason), "{name} {mode:?}: {stderr}");
            assert!(
                !out.exists(),
                "{name} {mode:?}: apply wrote {}",
                out.display()
            );
        }
        let err = Server::bind(&ServeConfig {
            bind: "127.0.0.1:0".into(),
            plans_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        let msg = err.to_string();
        assert!(msg.contains(&format!("{name}.json")), "{msg}");
        assert!(msg.contains(reason), "{name}: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Raw-socket protocol conformance: framing errors and version skew
/// behave exactly as docs/protocol.md specifies.
#[test]
fn wire_level_framing_errors() {
    let server = TestServer::start(ServeConfig::default());

    // A frame with bad magic gets an Error(BadFrame) answer and then
    // the connection is closed (framing is unrecoverable).
    let mut raw = TcpStream::connect(&server.addr).unwrap();
    raw.write_all(b"HTTP/1.1 GET ").unwrap(); // 13 bytes, none of them OTRP
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadFrame));
    // Closed cleanly (EOF) or hard (RST, if unread bytes remained) —
    // either way the connection must be dead.
    let mut probe = [0u8; 1];
    let closed = matches!(raw.read(&mut probe), Ok(0) | Err(_));
    assert!(closed, "server must close the connection after BadFrame");

    // A well-framed future protocol version gets Error(UnsupportedVersion)
    // but the connection survives: a Ping right after still pongs.
    let mut raw = TcpStream::connect(&server.addr).unwrap();
    let mut frame = protocol::encode_header(request_type::PING, 4).to_vec();
    frame[4] = 9; // future version
    frame.extend_from_slice(&[1, 2, 3, 4]); // payload the server must skip
    raw.write_all(&frame).unwrap();
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(
        ErrorCode::from_u16(code),
        Some(ErrorCode::UnsupportedVersion)
    );
    raw.write_all(&protocol::encode_header(request_type::PING, 0))
        .unwrap();
    let mut header = [0u8; protocol::HEADER_LEN];
    raw.read_exact(&mut header).unwrap();
    assert_eq!(header[5], protocol::response_type::PONG);

    // An unknown request type is answered (UnknownType) without killing
    // the connection; a truncated payload is BadPayload.
    let mut client = server.client();
    let mut raw = TcpStream::connect(&server.addr).unwrap();
    raw.write_all(&protocol::encode_header(0x6F, 0)).unwrap();
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::UnknownType));
    raw.write_all(&protocol::encode_header(request_type::EVICT_PLAN, 2))
        .unwrap();
    raw.write_all(&[0, 5]).unwrap(); // claims a 5-byte name, sends none
    let (code, _) = read_error_frame(&mut raw);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadPayload));
    client.ping().unwrap(); // other connections were never disturbed
}

/// Read one frame off a raw socket and require it to be an Error,
/// returning `(code, message)`.
fn read_error_frame(stream: &mut TcpStream) -> (u16, String) {
    let mut header = [0u8; protocol::HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(&header[..4], b"OTRP");
    assert_eq!(header[5], protocol::response_type::ERROR);
    let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    let code = u16::from_be_bytes([payload[0], payload[1]]);
    (code, String::from_utf8_lossy(&payload[2..]).into_owned())
}

/// Raw-socket abuse: slow loris, adversarial length prefixes, and a
/// zero-length frame. Each must cost exactly its own connection — a
/// healthy client working the same server throughout must never notice.
#[test]
fn raw_socket_abuse_is_contained_to_its_own_connection() {
    let (research, archive) = split_data(18, 350, 200);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let server = TestServer::start(ServeConfig {
        deadline_ms: 300,
        ..ServeConfig::default()
    });
    let mut healthy = server.client();
    healthy.load_plan(PlanKind::Scalar, "p", 1, &json).unwrap();
    let reference = bits(&healthy.repair("p", 1, 4, &archive).unwrap().columns);

    // 1. Slow loris: a complete header announcing a payload, then
    // silence. The frame deadline must kill the connection with
    // DeadlineExceeded instead of pinning a worker forever.
    let mut loris = TcpStream::connect(&server.addr).unwrap();
    loris
        .write_all(&protocol::encode_header(request_type::PING, 64))
        .unwrap();
    let (code, msg) = read_error_frame(&mut loris);
    assert_eq!(
        ErrorCode::from_u16(code),
        Some(ErrorCode::DeadlineExceeded),
        "{msg}"
    );
    let mut probe = [0u8; 1];
    assert!(
        matches!(loris.read(&mut probe), Ok(0) | Err(_)),
        "deadline-killed connection must be closed"
    );

    // 2. Length prefix just OVER MAX_PAYLOAD: unframeable, BadFrame,
    // closed — and the server must not have tried to allocate it.
    let mut oversized = TcpStream::connect(&server.addr).unwrap();
    let mut header = protocol::encode_header(request_type::PING, 0);
    header[8..].copy_from_slice(&((protocol::MAX_PAYLOAD as u32) + 1).to_be_bytes());
    oversized.write_all(&header).unwrap();
    let (code, _) = read_error_frame(&mut oversized);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadFrame));

    // 3. Length prefix just UNDER the cap (exactly MAX_PAYLOAD), then
    // silence: a legal header, so the server must wait — but
    // progressively, allocating only as bytes arrive, until the
    // deadline kills it. (If the server pre-allocated the announced
    // size this test would cost 1 GiB.)
    let mut huge = TcpStream::connect(&server.addr).unwrap();
    let mut header = protocol::encode_header(request_type::PING, 0);
    header[8..].copy_from_slice(&(protocol::MAX_PAYLOAD as u32).to_be_bytes());
    huge.write_all(&header).unwrap();
    let (code, _) = read_error_frame(&mut huge);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::DeadlineExceeded));

    // 4. Zero-length REPAIR frame: structurally valid framing with an
    // impossible payload → BadPayload, and the connection survives.
    let mut empty = TcpStream::connect(&server.addr).unwrap();
    empty
        .write_all(&protocol::encode_header(request_type::REPAIR, 0))
        .unwrap();
    let (code, _) = read_error_frame(&mut empty);
    assert_eq!(ErrorCode::from_u16(code), Some(ErrorCode::BadPayload));
    empty
        .write_all(&protocol::encode_header(request_type::PING, 0))
        .unwrap();
    let mut pong = [0u8; protocol::HEADER_LEN];
    empty.read_exact(&mut pong).unwrap();
    assert_eq!(pong[5], protocol::response_type::PONG);

    // The healthy client never noticed any of it, and the served bytes
    // still match.
    assert_eq!(
        bits(&healthy.repair("p", 1, 4, &archive).unwrap().columns),
        reference,
        "abuse on other connections changed a healthy client's bytes"
    );
    let info = healthy.info().unwrap();
    assert!(
        info.deadline_kills >= 2,
        "loris + under-cap silence must both be counted, got {}",
        info.deadline_kills
    );
}

/// The connection governor: connections past `--max-conns` get an
/// immediate polite `Overloaded` error frame; once a slot frees, new
/// connections are served again.
#[test]
fn governor_rejects_past_max_conns_and_recovers() {
    let server = TestServer::start(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });
    // Two idle connections pin both slots (connections hold their slot
    // until closed, not just while a request is in flight).
    let hold_a = TcpStream::connect(&server.addr).unwrap();
    let hold_b = TcpStream::connect(&server.addr).unwrap();
    // The governor decision happens at accept; wait until both holds
    // are accounted for before probing.
    let mut rejected = None;
    for _ in 0..50 {
        let mut probe = TcpStream::connect(&server.addr).unwrap();
        probe
            .write_all(&protocol::encode_header(request_type::PING, 0))
            .unwrap();
        let mut header = [0u8; protocol::HEADER_LEN];
        probe.read_exact(&mut header).unwrap();
        if header[5] == protocol::response_type::ERROR {
            let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize;
            let mut payload = vec![0u8; len];
            probe.read_exact(&mut payload).unwrap();
            rejected = Some(u16::from_be_bytes([payload[0], payload[1]]));
            break;
        }
        // The holds' accept may still be racing ours; give it a beat.
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(
        rejected.map(ErrorCode::from_u16),
        Some(Some(ErrorCode::Overloaded)),
        "third concurrent connection was never rejected"
    );
    assert!(server.handle.rejected_overload() >= 1);

    // Release a slot; the next connection must be served normally.
    drop(hold_a);
    let mut ok = false;
    for _ in 0..50 {
        let mut client = server.client();
        if client.ping().is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(ok, "governor never recovered after a slot freed");
    drop(hold_b);
}

/// A request that panics must cost its own connection an `Internal`
/// error and nothing else: the daemon keeps serving and the registry
/// keeps its plans.
#[test]
fn panicking_request_is_isolated_to_its_connection() {
    let (research, archive) = split_data(19, 350, 200);
    let json = scalar_plan(&research, 16).to_json().unwrap();
    let server = TestServer::start(ServeConfig {
        chaos_panic_plan: Some("poison".into()),
        ..ServeConfig::default()
    });
    let mut client = server.client();
    client.load_plan(PlanKind::Scalar, "p", 1, &json).unwrap();

    let mut victim = server.client();
    let err = victim.repair("poison", 0, 1, &archive).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Internal), "{err}");
    // That connection is dead...
    assert!(victim.ping().is_err());
    // ...but the daemon, the registry, and other connections are fine.
    assert_eq!(client.list_plans().unwrap().len(), 1);
    client.repair("p", 1, 1, &archive).unwrap();
    assert_eq!(server.handle.panics_caught(), 1);
}

/// Satellite fix: the daemon removes its `--port-file` on clean
/// shutdown, so scripts can't discover a dead port from a stale file.
#[test]
fn daemon_removes_port_file_on_clean_shutdown() {
    use ot_fair_repair::serve::daemon::{self, DaemonArgs};

    let dir = std::env::temp_dir().join(format!("otrepaird-portfile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let args = DaemonArgs {
        config: ServeConfig {
            bind: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
        port_file: Some(port_file.clone()),
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = {
        let args = args.clone();
        std::thread::spawn(move || daemon::run_with_handle(&args, move |h| tx.send(h).unwrap()))
    };
    let handle = rx.recv().unwrap();
    // While serving, the file holds a connectable address.
    let addr = std::fs::read_to_string(&port_file).unwrap();
    Client::connect(&addr).unwrap().ping().unwrap();

    handle.shutdown();
    thread.join().unwrap().unwrap();
    assert!(
        !port_file.exists(),
        "clean shutdown must remove the port file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_surfaces_transport_and_server_errors_distinctly() {
    let server = TestServer::start(ServeConfig::default());
    let mut client = server.client();
    let err = client.evict_plan("ghost", 1).unwrap_err();
    match &err {
        ClientError::Server { .. } => assert_eq!(err.server_code(), Some(ErrorCode::UnknownPlan)),
        other => panic!("expected a server error, got {other}"),
    }
    // Invalid names are rejected server-side with PlanInvalid.
    let err = client
        .load_plan(PlanKind::Scalar, "no spaces allowed", 1, "{}")
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::PlanInvalid), "{err}");
}
