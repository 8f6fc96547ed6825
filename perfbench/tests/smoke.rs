//! Smoke-sized runs of every workload: the checks pass and the emitted
//! metric names and units are exactly the ones BENCHMARK.json lists.

use std::process::Command;

use ohm_core::json::{parse_json, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one BENCHMARK.json list.
fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

fn smoke(workload: &str, trace: &str) {
    smoke_seed(workload, trace, "7");
}

fn smoke_seed(workload: &str, trace: &str, seed: &str) {
    let doc = benchmark_json();
    let out = run(&[
        "--smoke",
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("last line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{workload} trace {trace}:\n{stdout}"
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));

    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics object");
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name} has a numeric value"
            );
            (name.clone(), unit.to_string())
        })
        .collect();
    let key = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut want = listed(&doc, key);
    let mut got = emitted;
    want.sort();
    got.sort();
    assert_eq!(got, want, "{workload} trace {trace}");
    if trace == "0" {
        for (name, m) in metrics {
            let v = m.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
            assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
        }
    }
}

#[test]
fn planar_table2_smoke() {
    smoke("planar-table2", "0");
    smoke("planar-table2", "1");
}

#[test]
fn llm_twolevel_16g_smoke() {
    smoke("llm-twolevel-16g", "0");
    smoke("llm-twolevel-16g", "1");
}

#[test]
fn serve_mixed_smoke() {
    smoke("serve-mixed", "0");
    smoke("serve-mixed", "1");
}

#[test]
fn serve_mixed_accepts_the_largest_seed() {
    // Job bodies carry seeds as JSON numbers, exact only below 2^53.
    smoke_seed("serve-mixed", "0", &u64::MAX.to_string());
}

#[test]
fn workloads_match_benchmark_json() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["planar-table2", "llm-twolevel-16g", "serve-mixed"]);
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
