//! The benchmark's own tests: seeded inputs, names against
//! `BENCHMARK.json`, and every workload (worker role included) at a tiny
//! size with nothing failed.

use cgp_obs::Json;
use cgp_perfbench::workload::{digest, reference, Size, Spec, Workload};
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny(workload: Workload, seed: u64) -> Spec {
    Spec {
        workload,
        size: Size::Tiny,
        seed,
    }
}

/// Run the binary on a tiny workload; return its stdout lines and the
/// parsed result line.
fn run(workload: Workload, trace: u8, dir: &PathBuf) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "0",
        ])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .current_dir(dir)
        .output()
        .expect("spawn perfbench");
    assert!(
        out.status.success(),
        "{} trace {trace}: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    let result = Json::parse(lines.last().expect("a result line")).expect("result is JSON");
    (lines, result)
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(j: &Json, key: &str) -> Vec<String> {
    j.get(key)
        .and_then(Json::as_arr)
        .expect("array")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn a_seed_fixes_the_dataset_and_the_output() {
    let dir = scratch("seeded");
    for w in Workload::ALL {
        let (a, b, c) = (tiny(w, 1), tiny(w, 1), tiny(w, 2));
        let (da, db, dc) = (a.dataset(), b.dataset(), c.dataset());
        assert_eq!(digest(&da), digest(&db), "{}", w.name());
        assert_ne!(digest(&da), digest(&dc), "{}", w.name());
        let ra = reference(&a, &da, &dir.join("a")).expect("reference");
        let rb = reference(&b, &db, &dir.join("b")).expect("reference");
        let rc = reference(&c, &dc, &dir.join("c")).expect("reference");
        assert_eq!(ra, rb, "{}", w.name());
        assert_ne!(ra, rc, "{}: another seed must change the output", w.name());
        // The cached reference reads back identically.
        assert_eq!(reference(&a, &da, &dir.join("a")).expect("cached"), ra);
    }
}

#[test]
fn every_workload_runs_tiny_with_nothing_failed() {
    let spec = benchmark_json();
    let e2e = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    for w in Workload::ALL {
        let dir = scratch(&format!("run-{}", w.name()));
        for (trace, want) in [(0, &e2e), (1, &per_layer)] {
            let (lines, result) = run(w, trace, &dir);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{lines:?}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{lines:?}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let mut got = metric_names(&result);
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{} trace {trace}", w.name());
        }
        // Workers clean up their shared-memory rings and reports.
        let run_dir = dir.join(".perfbench/run");
        let left: Vec<_> = std::fs::read_dir(&run_dir)
            .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.path()).collect())
            .unwrap_or_default();
        assert!(left.is_empty(), "left behind: {left:?}");
    }
}

#[test]
fn benchmark_json_names_match_the_workloads_and_allowed_characters() {
    let spec = benchmark_json();
    let workloads = names(&spec, "workloads");
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    let mut all: Vec<String> = workloads;
    all.extend(names(&spec, "end_to_end"));
    all.extend(names(&spec, "per_layer"));
    for n in &all {
        assert!(n.len() <= 64, "{n}");
        assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    assert!(names(&spec, "end_to_end").contains(&"setup_s".to_string()));
}
