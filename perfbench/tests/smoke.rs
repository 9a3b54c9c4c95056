//! Smoke test: every workload the benchmark runs, at `--size smoke`,
//! untraced and traced, prints every metric `BENCHMARK.json` names and
//! passes its checks against the committed smoke digests.

use std::process::Command;

/// The `"name"` values of one list in `BENCHMARK.json`.
fn names(spec: &str, list: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{list}\"")).expect("list present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.2"])
        .args(["--trace", trace, "--size", "smoke", "--trace-dir", dir])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_and_checks_out() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    // `ns_churn` stays runnable and checked although BENCHMARK.json does
    // not list it (README.md says why).
    let workloads = ["vm_insitu", "ns_churn", "native_stream"];
    for listed in names(&spec, "workloads") {
        assert!(
            workloads.contains(&listed.as_str()),
            "unknown workload {listed}"
        );
    }
    for workload in workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true,"),
                "{workload}: {last}"
            );
            assert!(stdout.contains("check golden: ") && stdout.contains(" matches"));
            assert!(stdout.starts_with("host nproc="), "host facts come first");
            for name in names(&spec, list) {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} does not report {name}: {last}"
                );
            }
        }
    }
}
