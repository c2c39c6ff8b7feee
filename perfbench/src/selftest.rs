//! Benchmark self-test: every workload at tiny scale, untraced and traced.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::report::{Report, Run, END_TO_END, PER_LAYER};
use crate::{run_workload, WORKLOADS};

/// The end-to-end figures each workload prints under its own names.
const NAMED: [(&str, &[&str]); 3] = [
    (
        "face-parasitic",
        &["recall_per_s", "sim_accuracy", "sim_energy_pj"],
    ),
    (
        "serve",
        &[
            "p50_ms",
            "p99_ms",
            "serve_qps",
            "http_p50_ms",
            "http_p90_ms",
            "scrape_ms",
        ],
    ),
    ("tiled-churn", &["topk_per_s", "write_ms"]),
];

fn tiny(trace: bool, corrupt: bool) -> Run {
    Run {
        seed: 3,
        seconds: 0.5,
        trace,
        tiny: true,
        corrupt,
    }
}

fn once(report: &Report, name: &str) -> usize {
    report.metrics.iter().filter(|m| m.name == name).count()
}

#[test]
fn every_metric_appears_once_with_its_unit_and_nothing_fails() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = run_workload(workload, &tiny(trace, false)).expect("tiny run");
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(
                report.metrics.len(),
                expected.len(),
                "{workload} trace {trace}"
            );
            for (name, unit) in expected {
                assert_eq!(once(&report, name), 1, "{workload} trace {trace}: {name}");
                let m = report
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("present");
                assert_eq!(m.unit, *unit, "{workload}: {name}");
                assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
            }
            assert!(report.attempted > 0);
            assert_eq!(report.failed, 0, "{workload} trace {trace}");
            let failed_share = report.detail.iter().filter(|m| m.name == "failed_share");
            assert_eq!(failed_share.map(|m| m.value).collect::<Vec<_>>(), [0.0]);
            assert!(report.result_json().starts_with("{\"correct\": true,"));
            if !trace {
                let named = NAMED
                    .iter()
                    .find(|(w, _)| *w == workload)
                    .expect("listed")
                    .1;
                for name in named.iter().chain(&["setup_s", "peak_rss_mb"]) {
                    let hits = report.detail.iter().filter(|m| m.name == *name).count();
                    assert_eq!(hits, 1, "{workload}: {name}");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_response_is_caught_by_the_oracle() {
    for workload in WORKLOADS {
        let report = run_workload(workload, &tiny(false, true)).expect("tiny run");
        assert!(report.failed >= 1, "{workload}: corruption went unnoticed");
        assert!(report.result_json().starts_with("{\"correct\": false,"));
    }
}
