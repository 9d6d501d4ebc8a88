//! Smoke test: every workload, at a tiny size, prints every metric that
//! `BENCHMARK.json` names, each with its unit and a finite value, and
//! finishes with no failed operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build of the simulator is slow).

use ccnuma_obs::JsonValue;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

#[test]
fn every_workload_prints_every_named_metric() {
    let bench = benchmark_json();
    let workloads = bench
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    for w in workloads {
        let name = w
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("workload name");
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let result = run(name, trace);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{name}"
            );
            assert_eq!(
                result.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{name}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
                    >= 1
            );
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::members)
                .expect("metrics");
            let named = bench
                .get(section)
                .and_then(JsonValue::as_array)
                .expect(section);
            assert_eq!(
                metrics.len(),
                named.len(),
                "{name} --trace {trace}: metric count"
            );
            for m in named {
                let metric = m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .expect("metric name");
                let unit = m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("metric unit");
                let got = result
                    .get("metrics")
                    .and_then(|ms| ms.get(metric))
                    .unwrap_or_else(|| panic!("{name} --trace {trace}: {metric} missing"));
                assert_eq!(
                    got.get("unit").and_then(JsonValue::as_str),
                    Some(unit),
                    "{metric}"
                );
                let value = got
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if metric == "error_rate" {
                    assert_eq!(value, 0.0, "{name}: error_rate");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
