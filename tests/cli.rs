//! End-to-end tests of the `distenc` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_distenc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("distenc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_complete_evaluate_predict_pipeline() {
    let data = tmp("pipe.coo");
    let model = tmp("pipe.kruskal");

    let out = bin()
        .args(["generate", "--kind", "error", "--dims", "20,20,20", "--nnz", "3000"])
        .args(["--out", data.to_str().unwrap(), "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists());
    let sim0 = format!("{}.sim0", data.display());
    assert!(std::path::Path::new(&sim0).exists(), "similarities emitted");

    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "5"])
        .args(["--out", model.to_str().unwrap()])
        .args(["--similarity", &format!("{sim0}@0"), "--alpha", "2", "--iters", "25"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("train RMSE"), "progress reported: {stderr}");

    let out = bin()
        .args(["evaluate", "--model", model.to_str().unwrap()])
        .args(["--test", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rmse:"));
    let rmse: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("rmse: "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(rmse < 0.2, "training fit should be decent, rmse {rmse}");

    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap(), "--at", "1,2,3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!(v.is_finite());
}

#[test]
fn non_finite_input_exits_nonzero_and_writes_no_model() {
    for (name, bad) in [("nan", "nan"), ("inf", "-inf")] {
        let data = tmp(&format!("nonfinite-{name}.tns"));
        let model = tmp(&format!("nonfinite-{name}.kruskal"));
        let _ = std::fs::remove_file(&model);
        let text = format!("# shape: 3 3 2\n0 0 0 1.0\n1 2 1 {bad}\n2 1 0 0.5\n");
        std::fs::write(&data, text).unwrap();
        let out = bin()
            .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
            .args(["--out", model.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(!out.status.success(), "a {bad} entry must fail the run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("non-finite value"), "typed error expected, got: {stderr}");
        assert!(!model.exists(), "no model may be written for {bad} input");
    }
}

#[test]
fn mistyped_env_knobs_exit_nonzero_naming_the_variable() {
    // These used to fall back silently: `sketchd` ran the exact tier and
    // `four` ran sequentially.
    let data = tmp("envknob.tns");
    std::fs::write(&data, "# shape: 3 3 2\n0 0 0 1.0\n1 2 1 0.5\n2 1 0 0.25\n").unwrap();
    for (var, value) in [("DISTENC_TIER", "sketchd"), ("DISTENC_THREADS", "four")] {
        for cmd in ["complete", "stream"] {
            let model = tmp(&format!("envknob-{cmd}-{var}.kruskal"));
            let _ = std::fs::remove_file(&model);
            let mut run = bin();
            run.args([cmd, "--input", data.to_str().unwrap(), "--rank", "2"])
                .args(["--out", model.to_str().unwrap()])
                .env(var, value);
            if cmd == "stream" {
                run.args(["--delta", data.to_str().unwrap()]);
            }
            let out = run.output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{cmd} with {var}={value} must fail");
            assert!(
                stderr.contains(var) && stderr.contains(value),
                "{cmd}: the error must name {var}, got: {stderr}"
            );
            assert!(!model.exists(), "{cmd}: no model may be written");
        }
    }
}

#[test]
fn helpful_errors() {
    // No command.
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required option.
    let out = bin().args(["complete", "--rank", "3"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --input"));

    // Bad similarity spec.
    let data = tmp("err.coo");
    let out = bin()
        .args(["generate", "--kind", "scalability", "--dims", "8,8", "--nnz", "20"])
        .args(["--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
        .args(["--out", tmp("err.kruskal").to_str().unwrap()])
        .args(["--similarity", "nofile"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("FILE@MODE"));

    // Out-of-range prediction index.
    let model = tmp("oob.kruskal");
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
        .args(["--out", model.to_str().unwrap(), "--iters", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap(), "--at", "99,0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of bounds"));
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("distenc complete"));
}

#[test]
fn predict_top_k_and_at_file() {
    let data = tmp("serve.coo");
    let model = tmp("serve.kruskal");
    let out = bin()
        .args(["generate", "--kind", "skewed", "--dims", "30,20,6", "--nnz", "2000"])
        .args(["--out", data.to_str().unwrap(), "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "3"])
        .args(["--out", model.to_str().unwrap(), "--iters", "8"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // --top-k ranks the free mode; rows are "index score", best first.
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--top-k", "5", "--mode", "1", "--at", "2,_,3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<(usize, f64)> = stdout
        .lines()
        .map(|l| {
            let (i, s) = l.split_once(' ').unwrap();
            (i.parse().unwrap(), s.parse().unwrap())
        })
        .collect();
    assert_eq!(rows.len(), 5);
    for w in rows.windows(2) {
        assert!(w[0].1 >= w[1].1, "not sorted: {stdout}");
    }
    // The top hit must agree with a point prediction at the same index.
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--at", &format!("2,{},3", rows[0].0)])
        .output()
        .unwrap();
    assert!(out.status.success());
    let point: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert_eq!(point, rows[0].1, "top-K score must equal the point prediction");

    // --at-file scores every listed index through the batch path.
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--at-file", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 4, "3 indices + score: {line}");
        let v: f64 = fields[3].parse().unwrap();
        assert!(v.is_finite());
    }
}

#[test]
fn serve_bench_replays_and_reports() {
    let out = bin()
        .args(["serve-bench", "--dims", "200,100,10", "--rank", "4"])
        .args(["--queries", "2000", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replayed 2000 requests"), "{stdout}");
    assert!(stdout.contains("cache hit rate"), "{stdout}");
    assert!(stdout.contains("latency"), "{stdout}");

    // Queued mode exercises the worker/batching path end to end.
    let out = bin()
        .args(["serve-bench", "--dims", "200,100,10", "--rank", "4"])
        .args(["--queries", "1000", "--workers", "2", "--capacity", "64"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replayed 1000 requests"), "{stdout}");
    assert!(stdout.contains("batches executed"), "{stdout}");
}

#[test]
fn serve_bench_open_loop_reports_json() {
    let out = bin()
        .args(["serve-bench", "--dims", "200,100,10", "--rank", "4"])
        .args(["--queries", "3000", "--qps", "60000", "--workers", "2"])
        .args(["--tenants", "2", "--tenant-zipf", "1.2", "--shed-watermark", "32"])
        .args(["--capacity", "64", "--deadline-ms", "25"])
        .args(["--approx-coverage", "0.95", "--recall-every", "8", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Machine-readable report: every field BENCH_serve_slo.json needs is
    // reproducible from the CLI alone.
    for key in [
        "\"offered_qps\"",
        "\"achieved_qps\"",
        "\"shed_rate\"",
        "\"e2e_us\"",
        "\"recall_at_k\"",
        "\"queued_peak\"",
        "\"tenant-0\"",
        "\"tenant-1\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }

    // Open-loop mode refuses a worker-less (manual-drain) queue.
    let out = bin()
        .args(["serve-bench", "--dims", "20,10,5", "--rank", "2"])
        .args(["--queries", "10", "--qps", "1000", "--workers", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workers >= 1"), "{stderr}");
}
