//! The benchmark's own tests: every named metric is printed with its unit
//! (and matches `BENCHMARK.json`), and a corrupted answer trips the oracle.
//!
//! The end-to-end checks run in one test function on purpose: runs name
//! their directories after the process id, and two in parallel would also
//! disturb each other's timings.

use std::path::PathBuf;

use servebench::workload::{Scale, Workload};
use servebench::{run, Options, Report, END_TO_END, PER_LAYER};

fn opts(workload: Workload, seconds: f64, trace: bool, corrupt: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds,
        trace,
        scale: Scale::Tiny,
        corrupt,
        // Relative, so socket paths stay short wherever the crate lives.
        work_dir: PathBuf::from("target/servebench-test"),
    }
}

fn assert_metrics(report: &Report, expected: &[(&str, &str)], what: &str) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected, "{what}: metric names and units");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    let json = report.json();
    for (name, unit) in expected {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert!(json.contains(&entry), "{what}: {name} missing from {json}");
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{what}: unit {unit}");
    }
}

#[test]
fn tiny_runs_print_every_metric_and_a_corrupted_answer_fails() {
    for w in Workload::ALL {
        let name = w.name();
        let report = run(&opts(w, 10.0, false, false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.correct && report.failed == 0, "{name}: {:?}", report.notes);
        assert!(report.attempted > 0);
        assert_metrics(&report, END_TO_END, name);

        let traced = run(&opts(w, 4.0, true, false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(traced.correct, "{name} traced: {:?}", traced.notes);
        assert_metrics(&traced, PER_LAYER, &format!("{name} traced"));
    }

    let report =
        run(&opts(Workload::WriteHeavy, 4.0, true, true)).expect("corrupted run completes");
    assert!(!report.correct, "the oracle missed a corrupted answer");
    assert!(report.failed >= 1);
    assert!(report.json().starts_with("{\"correct\": false"));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let (e2e, layers) = text.split_once("\"per_layer\"").expect("a per_layer section");
    let e2e = e2e.split_once("\"end_to_end\"").expect("an end_to_end section").1;
    for (section, metrics) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
        assert_eq!(section.matches("\"name\"").count(), metrics.len());
        for (name, unit) in metrics {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    for w in ["read_heavy", "write_heavy"] {
        assert!(Workload::parse(w).is_some());
        assert!(text.contains(&format!("{{\"name\": \"{w}\"")), "workload {w}");
    }
}
