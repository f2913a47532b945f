//! Self-test of the benchmark: tiny runs of every workload print exactly
//! the declared metrics, a flipped expected bit fails the oracle, and the
//! README's prediction table covers every per-layer metric.

use prio_bench::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn metrics(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its exit code and parsed last line.
fn run(args: &[&str]) -> (Option<i32>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_prio-perfbench"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {stdout}"));
    (out.status.code(), result)
}

#[test]
fn tiny_runs_print_every_declared_metric() {
    let doc = declared();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = metrics(&doc, key);
        for w in &workloads {
            let (code, result) = run(&[
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--tiny",
            ]);
            assert_eq!(code, Some(0), "{w} trace {trace}");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{w} trace {trace}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_num)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let got: BTreeMap<String, String> = match result.get("metrics") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(name, m)| {
                        assert!(
                            m.get("value").and_then(Json::as_num).is_some(),
                            "{w}: {name} has no value"
                        );
                        (
                            name.clone(),
                            m.get("unit")
                                .and_then(Json::as_str)
                                .unwrap_or_default()
                                .to_string(),
                        )
                    })
                    .collect(),
                other => panic!("{w}: metrics is not an object: {other:?}"),
            };
            assert_eq!(got, want, "{w} trace {trace}");
        }
    }
}

#[test]
fn flipped_expected_bit_fails_the_run() {
    let (code, result) = run(&[
        "--workload",
        "wan-adversarial-s3",
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        "0",
        "--tiny",
        "--flip-expected-bit",
    ]);
    assert_eq!(code, Some(1));
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn readme_predicts_for_every_layer_metric() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).expect("README");
    let table: String = readme
        .lines()
        .skip_while(|l| !l.starts_with("| layer"))
        .take_while(|l| l.starts_with('|'))
        .collect();
    for name in metrics(&declared(), "per_layer").keys() {
        assert!(
            table.contains(&format!("`{name}`")),
            "prediction table lacks {name}"
        );
    }
}
