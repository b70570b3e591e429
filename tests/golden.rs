//! Golden output digests: the bytes of the `otrepair` CLI on a fixed
//! corpus, pinned by a checked-in manifest.
//!
//! The corpus runs Algorithm 1 (`design`), Algorithm 2 (`apply`) and the
//! `E` audit (`evaluate`) on `ci/fixtures`, plus a small `d = 3` joint
//! design and repair on a CSV this test writes from a fixed-seed
//! [`SimulationSpec`]. `evaluate` prints `E` to six decimals, so the
//! audit's `f64` bits are pinned too, computed in process. The corpus's
//! Sinkhorn solves all finish in the standard domains, so more in-process
//! entries pin the plan and dual bits of every other entropic path: the
//! absorbing dense domain, both log-domain fallbacks, the factored kernel,
//! a rectangular dense problem and the barycentre. Every output
//! file, every `evaluate` stdout and each bit string is hashed with
//! 64-bit FNV-1a and listed as a `name bytes digest` line;
//! the lines must equal `tests/fixtures/golden_digests.txt`, whose header
//! names the platform the digests were recorded on (`exp`, `ln` and
//! `powf` come from the platform libm).
//!
//! On a mismatch the test prints the whole recomputed manifest. A change
//! that moves bytes on purpose commits that manifest and names each moved
//! entry, with its reason, in CHANGES.md (see `docs/determinism.md`,
//! "Golden digests"). Nothing rewrites the manifest automatically.

use std::path::Path;
use std::process::Command;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::data::{read_labelled_csv, write_labelled_csv, SimulationSpec};
use ot_fair_repair::fairness::{ConditionalDependence, JointDependence};
use ot_fair_repair::ot::{
    entropic_barycentre_grid_nd, sinkhorn_warm, BarycentreConfig, CostMatrix, EpsSchedule,
    SinkhornConfig,
};

/// The corpus, in manifest order after [`D3_INPUT`]: an entry's name
/// and its `otrepair` arguments. `{fix}` is `ci/fixtures`, `{pinned}`
/// is `tests/fixtures`, `{dir}` the test's temporary directory holding
/// earlier entries' outputs, and `{out}` the entry's own output file; an
/// entry without `{out}` is digested by its stdout.
///
/// `apply_joint_dense.csv` repairs through `tests/fixtures/joint_plan_dense.json`,
/// a `d = 2`, `nQ = 5` joint plan whose strata store dense plans:
/// `otrepair design --joint --research ci/fixtures/research.csv --nq 5` as
/// written before strata stored Sinkhorn scalings. It pins that artifacts
/// of that form still load and repair to the same bytes.
const CORPUS: &[(&str, &str)] = &[
    (
        "design_exact.json",
        "design --research {fix}/research.csv --out {out} --solver exact --nq 40",
    ),
    (
        "design_simplex.json",
        "design --research {fix}/research.csv --out {out} --solver simplex --nq 30",
    ),
    (
        "design_sinkhorn.json",
        "design --research {fix}/research.csv --out {out} --solver sinkhorn:0.05 --nq 30",
    ),
    (
        "design_sinkhorn_scaled.json",
        "design --research {fix}/research.csv --out {out} --solver sinkhorn:0.01:scaled --nq 60",
    ),
    (
        "apply_exact.csv",
        "apply --plan {dir}/design_exact.json --data {fix}/archive.csv --out {out} --seed 7",
    ),
    (
        "apply_sinkhorn_scaled.csv",
        "apply --plan {dir}/design_sinkhorn_scaled.json --data {fix}/archive.csv --out {out} \
         --seed 7",
    ),
    (
        "apply_partial.csv",
        "apply --plan {dir}/design_exact.json --data {fix}/archive.csv --out {out} --seed 7 \
         --partial 0.5",
    ),
    (
        "apply_monge.csv",
        "apply --plan {dir}/design_exact.json --data {fix}/archive.csv --out {out} --seed 7 \
         --monge",
    ),
    (
        "apply_deterministic.csv",
        "apply --plan {dir}/design_deterministic.json --data {fix}/archive.csv --out {out} \
         --seed 7",
    ),
    ("evaluate.txt", "evaluate --data {fix}/archive.csv"),
    (
        "design_joint.json",
        "design --joint --research {fix}/research.csv --out {out}",
    ),
    (
        "apply_joint.csv",
        "apply --plan {dir}/design_joint.json --data {fix}/archive.csv --out {out} --seed 7",
    ),
    (
        "evaluate_joint.txt",
        "evaluate --data {fix}/archive.csv --joint --joint-grid 16",
    ),
    (
        "d3_design_joint.json",
        "design --joint --research {dir}/d3_input.csv --out {out} --nq 6 --eps 0.1",
    ),
    (
        "d3_apply_joint.csv",
        "apply --plan {dir}/d3_design_joint.json --data {dir}/d3_input.csv --out {out} --seed 7",
    ),
    (
        "apply_joint_dense.csv",
        "apply --plan {pinned}/joint_plan_dense.json --data {fix}/archive.csv --out {out} --seed 7",
    ),
];

/// The CSV the `d = 3` entries read; the test writes it, so it is an
/// entry too (listed before the entries that read it).
const D3_INPUT: &str = "d3_input.csv";

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `arch-os-env` of the build, e.g. `x86_64-linux-gnu`.
fn platform() -> String {
    let env = if cfg!(target_env = "gnu") {
        "gnu"
    } else if cfg!(target_env = "musl") {
        "musl"
    } else if cfg!(target_env = "msvc") {
        "msvc"
    } else {
        "none"
    };
    format!("{}-{}-{env}", std::env::consts::ARCH, std::env::consts::OS)
}

fn line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:016x}", bytes.len(), fnv1a64(bytes))
}

/// Three paper-style Gaussian components in three features.
fn write_d3_input(path: &Path) {
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
    let data = spec
        .sample_dataset(400, &mut StdRng::seed_from_u64(2024))
        .unwrap();
    let file = std::fs::File::create(path).unwrap();
    write_labelled_csv(std::io::BufWriter::new(file), &data).unwrap();
}

/// `design` has no flag for the deterministic mass split, so its entry
/// repairs through a copy of the exact plan with the mode rewritten.
fn write_deterministic_plan(exact: &Path, path: &Path) {
    let json = std::fs::read_to_string(exact).unwrap();
    let randomized = r#""mass_split":"Randomized""#;
    assert!(json.contains(randomized));
    let json = json.replacen(randomized, r#""mass_split":"Deterministic""#, 1);
    std::fs::write(path, json).unwrap();
}

/// The little-endian `f64` bits of the `E` audit on `ci/fixtures/archive.csv`:
/// every `e_uk` then every `e_per_feature` of `ConditionalDependence::default()`,
/// and the joint `E` at 16 points per axis (what `evaluate --joint-grid 16`
/// prints).
fn e_bits(fixtures: &Path) -> [(&'static str, Vec<u8>); 2] {
    let file = std::fs::File::open(fixtures.join("archive.csv")).unwrap();
    let data = read_labelled_csv(std::io::BufReader::new(file)).unwrap();
    let report = ConditionalDependence::default().evaluate(&data).unwrap();
    let joint = JointDependence { grid_size: 16 }.evaluate(&data).unwrap();
    let values = report.e_uk.iter().flatten().chain(&report.e_per_feature);
    [
        (
            "e_bits.f64",
            values.flat_map(|v| v.to_bits().to_le_bytes()).collect(),
        ),
        ("joint_e_bits.f64", joint.to_bits().to_le_bytes().to_vec()),
    ]
}

fn le_bytes<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u8> {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

fn normalized(v: &[f64]) -> Vec<f64> {
    let total: f64 = v.iter().sum();
    v.iter().map(|x| x / total).collect()
}

/// One cold `sinkhorn_warm` solve at the default budget: marginals,
/// cost, ε and ε-schedule.
type Solve<'a> = (
    &'a [f64],
    &'a [f64],
    &'a CostMatrix,
    f64,
    Option<EpsSchedule>,
);

/// The plan cells (row-major), then the duals `f` and `g`, of each solve
/// in turn.
fn sinkhorn_bits(solves: &[Solve]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &(a, b, cost, epsilon, eps_scaling) in solves {
        let config = SinkhornConfig {
            epsilon,
            eps_scaling,
            ..SinkhornConfig::default()
        };
        let (plan, duals) = sinkhorn_warm(a, b, cost, config, None).unwrap();
        let cells = (0..plan.rows()).flat_map(|i| plan.row(i));
        bytes.extend(le_bytes(cells.chain(&duals.f).chain(&duals.g)));
    }
    bytes
}

/// `n` grid points `lo + step · i`.
fn axis(n: usize, lo: f64, step: f64) -> Vec<f64> {
    (0..n).map(|i| lo + step * i as f64).collect()
}

fn grid_cost(axes: &[&[f64]]) -> CostMatrix {
    CostMatrix::squared_euclidean_grid_nd(axes).unwrap()
}

/// In-process bit strings of the entropic paths the CLI corpus never
/// takes, one entry per path, each solve's bits concatenated in order:
/// * the dense standard domain against its absorbed kernel: a 23-point
///   self-support at ε = 1e-4, cold, then with the default ε-schedule
///   (whose stages rebuild the kernel around their warm duals, and two of
///   which exhaust their budget), then two bumps at ε = 0.01, whose
///   drifting scalings are absorbed three times before convergence;
/// * the same two bumps at ε = 0.003, where the dense domain absorbs,
///   stalls and falls back to the log domain;
/// * the factored `K₁ ⊗ … ⊗ K_d` domain: a `6 × 5` grid at ε = 0.08, then
///   a `5 × 4 × 3` grid with the default schedule;
/// * the factored domain outgrowing its scaling range into the log
///   domain: the `6 × 5` grid with two cells at 1e-200, at ε = 0.05;
/// * a rectangular `23 × 17` dense problem at ε = 0.05, then 2e-3;
/// * the barycentre masses on the `6 × 5` grid, weights ½/½, ε = 0.05,
///   cold, then with the default schedule.
fn solver_path_bits() -> [(&'static str, Vec<u8>); 6] {
    let scheduled = Some(EpsSchedule::default());
    let support = axis(23, 0.0, 0.31);
    let masses: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 5) % 7) as f64).collect();
    let self_cost = CostMatrix::squared_euclidean(&support, &support).unwrap();
    let support: Vec<f64> = (0..20).map(|i| -3.0 + 6.0 * i as f64 / 19.0).collect();
    let bump = |m: f64| {
        let pmf = support.iter().map(|x| (-(x - m) * (x - m) / 0.5).exp());
        normalized(&pmf.map(|p| p + 1e-6).collect::<Vec<f64>>())
    };
    let (left, right) = (bump(-1.0), bump(1.0));
    let bumps_cost = CostMatrix::squared_euclidean(&support, &support).unwrap();
    let absorbing = sinkhorn_bits(&[
        (&masses, &masses, &self_cost, 1e-4, None),
        (&masses, &masses, &self_cost, 1e-4, scheduled),
        (&left, &right, &bumps_cost, 0.01, None),
    ]);
    let dense_to_log = sinkhorn_bits(&[(&left, &right, &bumps_cost, 0.003, None)]);

    let (gx, gy) = (axis(6, -1.0, 0.4), axis(5, 0.1, 0.35));
    let a: Vec<f64> = (0..30).map(|i| 0.2 + ((i * 7) % 5) as f64).collect();
    let b: Vec<f64> = (0..30).map(|i| 0.3 + ((i * 3) % 4) as f64).collect();
    let cost_2d = grid_cost(&[&gx, &gy]);
    let (g1, g2, g3) = (axis(5, -1.0, 0.4), axis(4, 0.1, 0.35), axis(3, -0.2, 0.5));
    let a3: Vec<f64> = (0..60).map(|i| 0.2 + ((i * 7) % 5) as f64).collect();
    let b3: Vec<f64> = (0..60).map(|i| 0.3 + ((i * 3) % 4) as f64).collect();
    let factored = sinkhorn_bits(&[
        (&a, &b, &cost_2d, 0.08, None),
        (&a3, &b3, &grid_cost(&[&g1, &g2, &g3]), 0.08, scheduled),
    ]);
    let mut tails = a.clone();
    (tails[0], tails[29]) = (1e-200, 1e-200);
    let (tails, b_unit) = (normalized(&tails), normalized(&b));
    let factored_to_log = sinkhorn_bits(&[(&tails, &b_unit, &cost_2d, 0.05, None)]);

    let a_rect: Vec<f64> = (0..23).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
    let b_rect: Vec<f64> = (0..17).map(|i| 1.0 + ((i * 3) % 4) as f64).collect();
    let cost_rect =
        CostMatrix::squared_euclidean(&axis(23, 0.0, 0.031), &axis(17, 0.01, 0.04)).unwrap();
    let rectangular = sinkhorn_bits(&[
        (&a_rect, &b_rect, &cost_rect, 0.05, None),
        (&a_rect, &b_rect, &cost_rect, 2e-3, None),
    ]);

    let a_unit = normalized(&a);
    let mut barycentre = Vec::new();
    for eps_scaling in [None, scheduled] {
        let config = BarycentreConfig {
            eps_scaling,
            ..BarycentreConfig::new(0.05, 5_000)
        };
        let marginals = [a_unit.as_slice(), b_unit.as_slice()];
        let (masses, _) =
            entropic_barycentre_grid_nd(&marginals, &[0.5, 0.5], &[&gx, &gy], &config).unwrap();
        barycentre.extend(le_bytes(&masses));
    }
    [
        ("sinkhorn_absorbing.f64", absorbing),
        ("sinkhorn_dense_to_log.f64", dense_to_log),
        ("sinkhorn_factored.f64", factored),
        ("sinkhorn_factored_to_log.f64", factored_to_log),
        ("sinkhorn_rectangular.f64", rectangular),
        ("barycentre.f64", barycentre),
    ]
}

/// Run the corpus in `dir` and return the manifest it produces.
fn recompute(dir: &Path) -> String {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci/fixtures");
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let d3_input = dir.join(D3_INPUT);
    write_d3_input(&d3_input);
    let mut manifest = format!(
        "# otrepair golden digests: name bytes fnv1a64\n# platform: {}\n{}\n",
        platform(),
        line(D3_INPUT, &std::fs::read(&d3_input).unwrap())
    );
    for (name, template) in CORPUS {
        let out = dir.join(name);
        let args: Vec<String> = template
            .split_whitespace()
            .map(|a| {
                a.replace("{fix}", &fixtures.to_string_lossy())
                    .replace("{pinned}", &pinned.to_string_lossy())
                    .replace("{dir}", &dir.to_string_lossy())
                    .replace("{out}", &out.to_string_lossy())
            })
            .collect();
        let run = Command::new(env!("CARGO_BIN_EXE_otrepair"))
            .args(&args)
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{name}: otrepair {template} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let bytes = if template.contains("{out}") {
            std::fs::read(&out).unwrap()
        } else {
            run.stdout
        };
        manifest += &line(name, &bytes);
        manifest.push('\n');
        if *name == "design_exact.json" {
            write_deterministic_plan(&out, &dir.join("design_deterministic.json"));
        }
    }
    for (name, bytes) in e_bits(&fixtures).into_iter().chain(solver_path_bits()) {
        manifest += &line(name, &bytes);
        manifest.push('\n');
    }
    manifest
}

#[test]
fn cli_outputs_match_the_golden_manifest() {
    let dir = std::env::temp_dir().join(format!("otrepair-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let got = recompute(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_digests.txt");
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let moved: Vec<&str> = got
            .lines()
            .filter(|l| !want.lines().any(|w| w == *l))
            .collect();
        panic!(
            "{} differs from this build's output in {} line(s):\n{}\n\nrecomputed manifest:\n{got}",
            path.display(),
            moved.len(),
            moved.join("\n")
        );
    }
}
