//! Integration tests of the `otrepair` CLI binary: the design → apply →
//! evaluate loop over real files in a temp directory.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::data::{read_labelled_csv, write_labelled_csv, Dataset, SimulationSpec};
use ot_fair_repair::repair::{JointRepairPlan, MongeRepair, RepairPlan};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_otrepair")
}

/// A test's scratch directory, removed when the test ends, whether it
/// passes or fails.
struct TmpDir(std::path::PathBuf);

impl std::ops::Deref for TmpDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmp_dir(tag: &str) -> TmpDir {
    let dir = std::env::temp_dir().join(format!("otrepair-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TmpDir(dir)
}

/// Run `cmd` to its end, or kill it after 20 s: a command that wrongly
/// accepts its flags may start a daemon that never exits.
fn output_within_20s(cmd: &mut Command) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().unwrap()
}

/// Boot `otrepaird` on an OS-assigned loopback port with `args`, and
/// return it with the address it wrote to `port_file`.
fn boot_daemon(port_file: &std::path::Path, args: &[&str]) -> (std::process::Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_otrepaird"))
        .args([
            "--bind",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
        ])
        .args(args)
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        match std::fs::read_to_string(port_file) {
            Ok(addr) => break addr,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("otrepaird never wrote its port file");
            }
        }
    };
    (child, addr)
}

/// Run `otrepair client <args[0]> --addr <addr> <args[1..]>`, requiring
/// success, and return its stdout.
fn client(addr: &str, args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(["client", args[0], "--addr", addr])
        .args(&args[1..])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "client {} failed: {}",
        args[0],
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn read_csv(path: &str) -> Dataset {
    read_labelled_csv(std::io::BufReader::new(std::fs::File::open(path).unwrap())).unwrap()
}

fn write_csvs(dir: &std::path::Path, seed: u64) -> (String, String) {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(seed);
    let split = spec.generate(400, 1_500, &mut rng).unwrap();
    let research = dir.join("research.csv");
    let archive = dir.join("archive.csv");
    write_labelled_csv(
        std::io::BufWriter::new(std::fs::File::create(&research).unwrap()),
        &split.research,
    )
    .unwrap();
    write_labelled_csv(
        std::io::BufWriter::new(std::fs::File::create(&archive).unwrap()),
        &split.archive,
    )
    .unwrap();
    (
        research.to_string_lossy().into_owned(),
        archive.to_string_lossy().into_owned(),
    )
}

#[test]
fn design_apply_evaluate_loop() {
    let dir = tmp_dir("loop");
    let (research, archive) = write_csvs(&dir, 1);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let out = dir.join("repaired.csv").to_string_lossy().into_owned();

    let status = Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "40",
        ])
        .status()
        .unwrap();
    assert!(status.success(), "design failed");
    assert!(std::fs::metadata(&plan).unwrap().len() > 1_000);

    let status = Command::new(bin())
        .args([
            "apply", "--plan", &plan, "--data", &archive, "--out", &out, "--seed", "3",
        ])
        .status()
        .unwrap();
    assert!(status.success(), "apply failed");

    let before = Command::new(bin())
        .args(["evaluate", "--data", &archive])
        .output()
        .unwrap();
    let after = Command::new(bin())
        .args(["evaluate", "--data", &out])
        .output()
        .unwrap();
    assert!(before.status.success() && after.status.success());
    let grab_e = |stdout: &[u8]| -> f64 {
        String::from_utf8_lossy(stdout)
            .lines()
            .find_map(|l| {
                l.trim()
                    .strip_prefix("aggregate E = ")
                    .and_then(|v| v.parse().ok())
            })
            .expect("aggregate E line")
    };
    let e_before = grab_e(&before.stdout);
    let e_after = grab_e(&after.stdout);
    assert!(
        e_after < e_before / 2.0,
        "CLI repair must reduce E: {e_before} -> {e_after}"
    );
}

#[test]
fn apply_monge_mode_and_partial_conflict() {
    let dir = tmp_dir("monge");
    let (research, archive) = write_csvs(&dir, 2);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let out = dir.join("repaired.csv").to_string_lossy().into_owned();

    assert!(Command::new(bin())
        .args(["design", "--research", &research, "--out", &plan])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(bin())
        .args(["apply", "--plan", &plan, "--data", &archive, "--out", &out, "--monge"])
        .status()
        .unwrap()
        .success());
    // The output is the Monge map of the input, cell by cell and bit for
    // bit, with labels and row order unchanged.
    let monge = MongeRepair::from_plan(
        &RepairPlan::from_json(&std::fs::read_to_string(&plan).unwrap()).unwrap(),
    );
    let (input, output) = (read_csv(&archive), read_csv(&out));
    assert_eq!(input.len(), output.len());
    for (i, (a, b)) in input.points().iter().zip(output.points()).enumerate() {
        assert_eq!((a.s, a.u), (b.s, b.u), "row {i} labels");
        for (k, (&x, &r)) in a.x.iter().zip(&b.x).enumerate() {
            let want = monge.repair_value(a.u, a.s, k, x).unwrap();
            assert_eq!(r.to_bits(), want.to_bits(), "row {i}, x{k}");
        }
    }
    // --monge + --partial must be rejected.
    let conflicted = Command::new(bin())
        .args([
            "apply",
            "--plan",
            &plan,
            "--data",
            &archive,
            "--out",
            &out,
            "--monge",
            "--partial",
            "0.5",
        ])
        .output()
        .unwrap();
    assert!(!conflicted.status.success());
    let stderr = String::from_utf8_lossy(&conflicted.stderr);
    assert!(stderr.contains("mutually exclusive"), "stderr: {stderr}");
    // The conflict is a usage error, caught before the archive is read.
    assert!(!stderr.contains("repairing"), "stderr: {stderr}");
}

/// The removed `apply --batch-rows` (every mode), `design --joint
/// --kernel`, and `apply --joint` and `client load --joint` (the artifact
/// says which kind it is) are usage errors naming the removal, caught
/// before any file is touched: the files named here do not exist, so any
/// read would fail with "cannot", and no daemon listens at the address.
#[test]
fn removed_flags_are_usage_errors() {
    let dir = tmp_dir("removed-flags");
    let missing = dir.join("missing.csv").to_string_lossy().into_owned();
    let out = dir.join("out");
    let out_s = out.to_string_lossy().into_owned();
    let apply = [
        "apply", "--plan", &missing, "--data", &missing, "--out", &out_s,
    ];
    let design = ["design", "--joint", "--research", &missing, "--out", &out_s];
    let load = [
        "client",
        "load",
        "--addr",
        "127.0.0.1:1",
        "--plan",
        &missing,
        "--name",
        "p",
    ];
    let runs: [(&[&str], &[&str]); 7] = [
        (&apply, &["--batch-rows", "64"]),
        (&apply, &["--batch-rows", "64", "--partial", "0.4"]),
        (&apply, &["--batch-rows", "64", "--monge"]),
        (&apply, &["--batch-rows", "64", "--joint"]),
        (&apply, &["--joint"]),
        (&design, &["--kernel", "dense"]),
        (&load, &["--joint"]),
    ];
    for (cmd, extra) in runs {
        let run = Command::new(bin()).args(cmd).args(extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{extra:?}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{} was removed", extra[0])),
            "{extra:?}: stderr: {stderr}"
        );
        assert!(!stderr.contains("missing field"), "{extra:?}: {stderr}");
        assert!(!stderr.contains("cannot"), "{extra:?}: stderr: {stderr}");
        assert!(!out.exists(), "{extra:?}: wrote {}", out.display());
    }
}

/// Every subcommand rejects a misspelled flag and a repeated `--seed`
/// (unknown where the subcommand reads no seed) with a one-line usage
/// error naming the flag, before it reads or writes a file. The inputs
/// are real, so a parser that skipped the flag would run and write. The
/// daemon, as `otrepair serve` and as `otrepaird`, rejects a repeated
/// flag it reads before it binds.
#[test]
fn misspelled_and_repeated_flags_are_usage_errors() {
    let dir = tmp_dir("strict-flags");
    let (research, archive) = write_csvs(&dir, 9);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "20"
        ])
        .status()
        .unwrap()
        .success());
    let out = dir.join("out.csv");
    let out_s = out.to_string_lossy().into_owned();
    let design = ["design", "--research", &research, "--out", &out_s];
    let joint = [
        "design",
        "--joint",
        "--research",
        &research,
        "--out",
        &out_s,
    ];
    let apply = [
        "apply", "--plan", &plan, "--data", &archive, "--out", &out_s,
    ];
    let evaluate = ["evaluate", "--data", &archive];
    let drift = ["drift", "--data", &archive, "--out", &out_s];
    let serve = ["serve", "--bind", "127.0.0.1:0"];
    let repair = [
        "client",
        "repair",
        "--addr",
        "127.0.0.1:1",
        "--name",
        "p",
        "--data",
        &archive,
        "--out",
        &out_s,
    ];
    let seed_twice: &[&str] = &["--seed", "1", "--seed", "2"];
    let (pf1, pf2) = (dir.join("pf1.txt"), dir.join("pf2.txt"));
    let (pf1_s, pf2_s) = (pf1.to_string_lossy(), pf2.to_string_lossy());
    let port_file_twice: &[&str] = &["--port-file", &pf1_s, "--port-file", &pf2_s];
    let runs: [(&[&str], &[&str], &str); 18] = [
        (&design, &["--nq", "20", "--bogus"], "--bogus"),
        (&design, seed_twice, "--seed"),
        (&design, &["--eps", "0.1"], "--eps"),
        (&joint, &["--nq", "8", "--epsilon", "0.1"], "--epsilon"),
        (&joint, seed_twice, "--seed"),
        (&apply, &["--sed", "9"], "--sed"),
        (&apply, seed_twice, "--seed"),
        (&apply, &["--seed"], "--seed"),
        (&apply, &["stray.csv"], "stray.csv"),
        (&evaluate, &["--jiont"], "--jiont"),
        (&evaluate, seed_twice, "--seed"),
        (&drift, &["--mean-shfit", "1,1"], "--mean-shfit"),
        (&drift, seed_twice, "--seed"),
        (&serve, &["--bnid", "127.0.0.1:0"], "--bnid"),
        (&serve, seed_twice, "--seed"),
        (&serve, port_file_twice, "--port-file"),
        (&repair, &["--sed", "9"], "--sed"),
        (&repair, seed_twice, "--seed"),
    ];
    let daemon = env!("CARGO_BIN_EXE_otrepaird");
    let runs = runs
        .iter()
        .map(|&(cmd, extra, flag)| (bin(), cmd, extra, flag));
    let daemon_run = (
        daemon,
        &["--bind", "127.0.0.1:0"][..],
        port_file_twice,
        "--port-file",
    );
    for (bin, cmd, extra, flag) in runs.chain([daemon_run]) {
        let run = output_within_20s(Command::new(bin).args(cmd).args(extra));
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{extra:?}: stderr: {stderr}");
        assert!(stderr.contains(flag), "{extra:?}: stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{extra:?}: stderr: {stderr}");
        assert!(run.stdout.is_empty(), "{extra:?}: printed output");
        assert!(!out.exists(), "{cmd:?} {extra:?}: wrote {out_s}");
        assert!(
            !pf1.exists() && !pf2.exists(),
            "{cmd:?} {extra:?}: wrote a port file"
        );
    }
}

#[test]
fn apply_output_identical_for_any_thread_count() {
    let dir = tmp_dir("threads");
    let (research, archive) = write_csvs(&dir, 3);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();

    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "30"
        ])
        .status()
        .unwrap()
        .success());

    // Full repair, partial repair (the kernel plus the geodesic pass) and
    // the Monge map. `--threads` sets the kernel's threads; `OTR_THREADS`
    // also reaches the CSV reader and writer.
    for mode in [&[][..], &["--partial", "0.4"][..], &["--monge"][..]] {
        let mut outputs = Vec::new();
        for threads in ["1", "2", "7"] {
            let out = dir
                .join(format!("repaired-t{threads}.csv"))
                .to_string_lossy()
                .into_owned();
            assert!(Command::new(bin())
                .args([
                    "apply",
                    "--plan",
                    &plan,
                    "--data",
                    &archive,
                    "--out",
                    &out,
                    "--seed",
                    "11",
                    "--threads",
                    threads,
                ])
                .args(mode)
                .env("OTR_THREADS", threads)
                .status()
                .unwrap()
                .success());
            outputs.push(std::fs::read(&out).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "{mode:?}: 1 vs 2 threads");
        assert_eq!(outputs[0], outputs[2], "{mode:?}: 1 vs 7 threads");
    }
}

/// A write that fails is an error, not "wrote …" over a truncated file:
/// an output smaller than the writer's buffer reaches the disk only when
/// it is flushed, so the flush must report.
#[test]
#[cfg(target_os = "linux")]
fn apply_reports_write_errors() {
    let dir = tmp_dir("full");
    let (research, _) = write_csvs(&dir, 5);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let small = dir.join("small.csv");
    let mut rng = StdRng::seed_from_u64(5);
    let rows = SimulationSpec::paper_defaults()
        .sample_dataset(29, &mut rng)
        .unwrap();
    write_labelled_csv(std::fs::File::create(&small).unwrap(), &rows).unwrap();
    let small = small.to_string_lossy().into_owned();
    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "20"
        ])
        .status()
        .unwrap()
        .success());
    // The columnar writer, after the kernel, the partial pass and the
    // Monge map.
    for mode in [&[][..], &["--partial", "0.4"][..], &["--monge"][..]] {
        let full = Command::new(bin())
            .args([
                "apply",
                "--plan",
                &plan,
                "--data",
                &small,
                "--out",
                "/dev/full",
            ])
            .args(mode)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&full.stderr);
        assert!(!full.status.success(), "{mode:?}: stderr: {stderr}");
        assert!(
            stderr.contains("No space left"),
            "{mode:?}: stderr: {stderr}"
        );
        assert!(!stderr.contains("wrote"), "{mode:?}: stderr: {stderr}");
    }
}

#[test]
fn joint_design_apply_loop_with_verbose_report() {
    let dir = tmp_dir("joint");
    let (research, archive) = write_csvs(&dir, 4);
    let plan = dir.join("joint-plan.json").to_string_lossy().into_owned();
    let out = dir
        .join("joint-repaired.csv")
        .to_string_lossy()
        .into_owned();

    // A coarse grid keeps the n_q² product-support solves test-friendly.
    let design = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "8",
            "--eps",
            "0.05",
            "--eps-scaling",
            "0.8:0.25",
            "--verbose",
        ])
        .output()
        .unwrap();
    assert!(design.status.success(), "joint design failed");
    let stderr = String::from_utf8_lossy(&design.stderr);
    // The --verbose design report surfaces the barycentre convergence
    // diagnostics and the ε-schedule stage stats.
    assert!(stderr.contains("joint design report"), "report: {stderr}");
    assert!(stderr.contains("barycentre"), "report: {stderr}");
    assert!(stderr.contains("per-stage eps:iters"), "report: {stderr}");
    // The intermediate-stage budget is a constant; the report names it.
    assert!(
        stderr.contains("200 iters / tol 1e-4 per stage"),
        "report: {stderr}"
    );
    assert!(stderr.contains("plan transport cost"), "report: {stderr}");
    assert!(std::fs::metadata(&plan).unwrap().len() > 1_000);

    // The same bytes at any OTR_THREADS (reader, kernel and writer).
    let mut outputs = Vec::new();
    for threads in ["1", "2", "7"] {
        assert!(Command::new(bin())
            .args(["apply", "--plan", &plan, "--data", &archive, "--out", &out, "--seed", "5",])
            .env("OTR_THREADS", threads)
            .status()
            .unwrap()
            .success());
        outputs.push(std::fs::read(&out).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 7 threads");
    // The output is the library's joint repair of the input, cell by
    // cell and bit for bit, with labels and row order unchanged.
    let joint = JointRepairPlan::from_json(&std::fs::read_to_string(&plan).unwrap()).unwrap();
    let (input, output) = (read_csv(&archive), read_csv(&out));
    let want = joint.repair_dataset_par(&input, 5).unwrap();
    assert_eq!(input.len(), output.len());
    for (i, ((a, b), w)) in input
        .points()
        .iter()
        .zip(output.points())
        .zip(want.points())
        .enumerate()
    {
        assert_eq!((a.s, a.u), (b.s, b.u), "row {i} labels");
        for (k, (&r, &x)) in b.x.iter().zip(&w.x).enumerate() {
            assert_eq!(r.to_bits(), x.to_bits(), "row {i}, x{k}");
        }
    }

    // A joint plan rejects the 1-D-only modes, before the archive is
    // read.
    for mode in [&["--monge"][..], &["--partial", "0.5"]] {
        let conflicted = Command::new(bin())
            .args(["apply", "--plan", &plan, "--data", &archive, "--out", &out])
            .args(mode)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&conflicted.stderr);
        assert!(!conflicted.status.success(), "{mode:?}: {stderr}");
        assert!(stderr.contains("a joint plan supports neither"), "{stderr}");
        assert!(!stderr.contains("repairing"), "{mode:?}: {stderr}");
    }
    // An invalid --eps-scaling spelling is a parse error, not a design.
    let bad = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--eps-scaling",
            "fast",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("eps-scaling"));
}

#[test]
fn joint_verbose_report_names_kernel_and_single_stage() {
    let dir = tmp_dir("joint-verbose");
    let (research, _archive) = write_csvs(&dir, 6);
    let plan = dir.join("joint-plan.json").to_string_lossy().into_owned();

    // ε-scaling off: the per-stratum stage breakdown says so instead of
    // echoing a one-entry stage list; the factorized kernel is named.
    let design = Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "8",
            "--eps",
            "0.25",
            "--eps-scaling",
            "off",
            "--verbose",
        ])
        .output()
        .unwrap();
    assert!(design.status.success(), "joint design failed");
    let stderr = String::from_utf8_lossy(&design.stderr);
    assert!(
        stderr.contains("single stage (eps-scaling off)"),
        "report: {stderr}"
    );
    assert!(stderr.contains("kernel = separable"), "report: {stderr}");
    assert!(std::fs::metadata(&plan).unwrap().len() > 1_000);
}

/// `evaluate --joint --joint-grid N` sets the joint E's grid points per
/// dimension (it changes the estimate); fewer than 8 is an error.
#[test]
fn evaluate_joint_grid_sets_the_joint_product_grid() {
    let dir = tmp_dir("joint-grid");
    let (_research, archive) = write_csvs(&dir, 8);
    let run = |grid: &str| {
        Command::new(bin())
            .args([
                "evaluate",
                "--data",
                &archive,
                "--joint",
                "--joint-grid",
                grid,
            ])
            .output()
            .unwrap()
    };
    let joint_line = |grid: &str| {
        let out = run(grid);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "--joint-grid {grid}: {stdout}");
        stdout
            .lines()
            .find(|l| l.contains("joint 2-D E = "))
            .unwrap_or_else(|| panic!("--joint-grid {grid}: no joint E line in {stdout}"))
            .to_string()
    };
    assert_ne!(joint_line("8"), joint_line("16"));
    let bad = run("4");
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("at least 8"), "stderr: {stderr}");
}

#[test]
fn helpful_errors_for_bad_inputs() {
    let unknown = Command::new(bin()).args(["frobnicate"]).output().unwrap();
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown command"));

    let missing = Command::new(bin()).args(["design"]).output().unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--research"));

    let dir = tmp_dir("badcsv");
    let bad = dir.join("bad.csv");
    writeln!(std::fs::File::create(&bad).unwrap(), "a,b,c\n1,2,3").unwrap();
    let parse = Command::new(bin())
        .args(["evaluate", "--data", &bad.to_string_lossy()])
        .output()
        .unwrap();
    assert!(!parse.status.success());
    assert!(String::from_utf8_lossy(&parse.stderr).contains("header"));
}

/// Full service round trip through the binaries: boot `otrepaird` on a
/// loopback port, load a plan through `otrepair client`, repair an
/// archive over the wire, and require the CSV to be **byte-identical**
/// to an offline `otrepair apply` with the same plan and seed — the
/// serving determinism contract, end to end through real processes.
#[test]
fn served_repair_matches_offline_apply_byte_for_byte() {
    let dir = tmp_dir("serve");
    let (research, archive) = write_csvs(&dir, 7);
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let offline = dir.join("offline.csv").to_string_lossy().into_owned();
    let served = dir.join("served.csv").to_string_lossy().into_owned();
    let port_file = dir.join("port");

    assert!(Command::new(bin())
        .args([
            "design",
            "--research",
            &research,
            "--out",
            &plan,
            "--nq",
            "24"
        ])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(bin())
        .args(["apply", "--plan", &plan, "--data", &archive, "--out", &offline, "--seed", "13"])
        .status()
        .unwrap()
        .success());

    // Port 0 + --port-file: the daemon picks a free port and tells us.
    let (mut child, addr) = boot_daemon(&port_file, &["--shards", "7"]);
    let run = |args: &[&str]| client(&addr, args);

    assert!(run(&["ping"]).contains("pong"));
    run(&[
        "load",
        "--plan",
        &plan,
        "--name",
        "cli-plan",
        "--version",
        "2",
    ]);
    assert!(run(&["plans"]).contains("cli-plan@2"));
    run(&[
        "repair", "--name", "cli-plan", "--data", &archive, "--out", &served, "--seed", "13",
    ]);
    assert!(run(&["info"]).contains("1 plans"));
    run(&["evict", "--name", "cli-plan", "--version", "2"]);
    assert!(run(&["plans"]).contains("no plans registered"));

    // A joint plan loads with no kind flag (its artifact says which),
    // lists as joint, and serves the bytes of an offline apply.
    let joint = dir.join("joint.json").to_string_lossy().into_owned();
    let joint_offline = dir.join("joint-offline.csv").to_string_lossy().into_owned();
    let joint_served = dir.join("joint-served.csv").to_string_lossy().into_owned();
    assert!(Command::new(bin())
        .args([
            "design",
            "--joint",
            "--research",
            &research,
            "--out",
            &joint
        ])
        .args(["--nq", "10", "--eps", "0.1"])
        .status()
        .unwrap()
        .success());
    let apply = [
        "apply",
        "--plan",
        &joint,
        "--data",
        &archive,
        "--out",
        &joint_offline,
    ];
    assert!(Command::new(bin())
        .args(apply)
        .args(["--seed", "13"])
        .status()
        .unwrap()
        .success());
    assert!(run(&["load", "--plan", &joint, "--name", "cli-joint"]).contains("(joint)"));
    assert!(run(&["plans"]).contains("cli-joint@1  joint  dim=2"));
    run(&[
        "repair",
        "--name",
        "cli-joint",
        "--data",
        &archive,
        "--out",
        &joint_served,
        "--seed",
        "13",
    ]);
    assert_eq!(
        std::fs::read(&joint_offline).unwrap(),
        std::fs::read(&joint_served).unwrap(),
        "served joint CSV must be byte-identical to offline apply"
    );

    // A client error is an exit failure with the server's code named.
    let missing = Command::new(bin())
        .args([
            "client",
            "repair",
            "--addr",
            &addr,
            "--name",
            "ghost",
            "--data",
            &archive,
            "--out",
            "/dev/null",
        ])
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("UnknownPlan"));

    child.kill().unwrap();
    child.wait().unwrap();

    assert_eq!(
        std::fs::read(&offline).unwrap(),
        std::fs::read(&served).unwrap(),
        "served CSV must be byte-identical to offline apply"
    );
}

/// A joint plan's `"kernel"` key is never read when it loads: the
/// dense-plan fixture, rewritten to name `Dense` and then `Separable`,
/// loads through `otrepair apply`, through an `otrepaird --plans`
/// preload and through `client load`, and every route repairs to the
/// golden `apply_joint_dense.csv` bytes.
#[test]
fn joint_plan_kernel_spellings_all_load_and_repair_alike() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dir = tmp_dir("kernel-spellings");
    let plans = dir.join("plans");
    std::fs::create_dir_all(&plans).unwrap();
    let archive = format!("{root}/ci/fixtures/archive.csv");
    let fixture = std::fs::read_to_string(format!("{root}/tests/fixtures/joint_plan_dense.json"));
    let golden = std::fs::read_to_string(format!("{root}/tests/fixtures/golden_digests.txt"));
    let want = golden
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("apply_joint_dense.csv ").map(str::to_string));
    // `length fnv1a64`, as the golden manifest writes it.
    let digest = |path: &std::path::Path| {
        let bytes = std::fs::read(path).unwrap();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Some(format!("{} {hash:016x}", bytes.len()))
    };
    let fixture = fixture.unwrap();
    let spellings = ["Dense", "Separable"];
    for kernel in spellings {
        let json = fixture.replacen(
            "\"kernel\":\"Auto\"",
            &format!("\"kernel\":\"{kernel}\""),
            1,
        );
        assert!(json.contains(&format!("\"kernel\":\"{kernel}\"")));
        let plan = plans.join(format!("{kernel}@1.json"));
        std::fs::write(&plan, json).unwrap();
        let out = dir.join(format!("apply-{kernel}.csv"));
        let status = Command::new(bin())
            .args([
                "apply",
                "--plan",
                &plan.to_string_lossy(),
                "--data",
                &archive,
            ])
            .args(["--out", &out.to_string_lossy(), "--seed", "7"])
            .status();
        assert!(status.unwrap().success(), "apply, kernel {kernel}");
        assert_eq!(digest(&out), want, "apply, kernel {kernel}");
    }

    let (mut child, addr) = boot_daemon(&dir.join("port"), &["--plans", &plans.to_string_lossy()]);
    let served = dir.join("served.csv");
    let served_path = served.to_string_lossy();
    for kernel in spellings {
        let plan = plans.join(format!("{kernel}@1.json"));
        let wire = format!("{kernel}-wire");
        assert!(client(
            &addr,
            &["load", "--plan", &plan.to_string_lossy(), "--name", &wire]
        )
        .contains("(joint)"));
        for name in [kernel, &wire] {
            client(
                &addr,
                &[
                    "repair",
                    "--name",
                    name,
                    "--data",
                    &archive,
                    "--out",
                    &served_path,
                    "--seed",
                    "7",
                ],
            );
            assert_eq!(digest(&served), want, "served {name}");
        }
    }
    child.kill().unwrap();
    child.wait().unwrap();
}

#[test]
fn help_prints_usage() {
    let out = Command::new(bin()).args(["--help"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for word in [
        "design",
        "apply",
        "evaluate",
        "--plan",
        "--monge",
        "--threads",
        "--joint",
        "--eps-scaling",
        "OTR_THREADS",
        "--joint-grid",
        "serve",
        "client",
        "--max-conns",
        "--deadline-ms",
        "--retries",
        "--timeout",
        "docs/operations.md",
    ] {
        assert!(text.contains(word), "usage missing {word}");
    }
    // Execution policy comes from code or the plan's recorded config:
    // neither usage text offers a removed knob.
    let serve = Command::new(bin())
        .args(["serve", "--help"])
        .output()
        .unwrap();
    let serve = String::from_utf8_lossy(&serve.stdout);
    assert!(serve.contains("--shards"), "serve usage: {serve}");
    for gone in ["OTR_KERNEL", "OTR_BATCH_ROWS", "--kernel", "--batch-rows"] {
        assert!(!text.contains(gone), "usage offers {gone}");
        assert!(!serve.contains(gone), "serve usage offers {gone}");
    }
}

/// `--help` and `-h` print the usage and exit 0 after every subcommand
/// and every `client` action, wherever they stand and whatever else is
/// on the line: the files named here do not exist, so any read would
/// fail with "cannot".
#[test]
fn help_works_on_every_subcommand_before_any_file_io() {
    let dir = tmp_dir("help");
    let missing = dir.join("missing.csv").to_string_lossy().into_owned();
    let out = dir.join("out");
    let out_s = out.to_string_lossy().into_owned();
    let mut runs: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["design", "--research", &missing, "--out", &out_s],
            "USAGE",
        ),
        (vec!["design", "--joint", "--research", &missing], "USAGE"),
        (
            vec!["apply", "--plan", &missing, "--data", &missing],
            "USAGE",
        ),
        (vec!["apply", "--joint", "--monge"], "USAGE"),
        (vec!["evaluate", "--data", &missing], "USAGE"),
        (vec!["drift", "--data", &missing], "USAGE"),
        (vec!["serve", "--bind", "127.0.0.1:0"], "--port-file"),
    ];
    for action in [
        "ping", "info", "plans", "load", "evict", "repair", "watch", "drift", "audit",
    ] {
        runs.push((vec!["client", action, "--addr", "127.0.0.1:1"], "USAGE"));
    }
    for (cmd, want) in runs {
        for help in ["--help", "-h"] {
            let run = output_within_20s(Command::new(bin()).args(&cmd).arg(help));
            let (stdout, stderr) = (
                String::from_utf8_lossy(&run.stdout),
                String::from_utf8_lossy(&run.stderr),
            );
            assert!(run.status.success(), "{cmd:?} {help}: stderr: {stderr}");
            assert!(stdout.contains(want), "{cmd:?} {help}: stdout: {stdout}");
            assert!(stderr.is_empty(), "{cmd:?} {help}: stderr: {stderr}");
            assert!(!out.exists(), "{cmd:?} {help}: wrote {out_s}");
        }
    }
    // Before the subcommand's own flags too.
    let run = Command::new(bin())
        .args(["apply", "-h", "--plan", &missing])
        .output()
        .unwrap();
    assert!(run.status.success() && run.stderr.is_empty());
}
