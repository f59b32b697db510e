//! The benchmark's own tests, on the `dac2001-small` shape: every
//! workload runs in seconds and emits exactly the metrics
//! `BENCHMARK.json` names; digests ignore engine counters; a panicking
//! scenario counts as failed.

use incdes_explore::{run_campaign, ScriptStep};
use perfbench::digest::{self, DigestTable};
use perfbench::workload::{run_pass, Shape, Workload};
use perfbench::{run, Options, RunResult};
use std::path::PathBuf;

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

fn small(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        shape: Shape::small(),
        instances: vec![5, 17],
        seed: 3,
        seconds: 0.01,
        trace,
        work_dir: work_dir(&format!("{}-{}", workload.name(), trace)),
    }
}

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn names(result: &RunResult) -> Vec<String> {
    result.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let want = declared("end_to_end");
    assert!(want.contains(&"setup_s".to_string()));
    for workload in Workload::ALL {
        let result = run(&small(workload, false));
        assert!(result.correct, "{}: {:?}", workload.name(), result.problems);
        assert_eq!(names(&result), want, "{}", workload.name());
        assert_eq!(result.failed, 0);
        assert!(result.attempted > 0);
        for m in &result.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let line = result.to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let want = declared("per_layer");
    for workload in Workload::ALL {
        let result = run(&small(workload, true));
        assert!(result.correct, "{}: {:?}", workload.name(), result.problems);
        assert_eq!(names(&result), want, "{}", workload.name());
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        assert!(value("mapping.evaluate_us") > 0.0);
        assert!(value("core.add_ms") > 0.0);
        if workload == Workload::LifecycleChurn {
            assert!(value("store.put_ms") > 0.0);
            assert!(value("core.decommission_ms") > 0.0);
        }
        if workload == Workload::PaperSearch {
            assert!(value("mapping.par_speedup") > 0.0);
        }
    }
}

#[test]
fn digest_ignores_engine_counters_but_not_designs() {
    let shape = Shape::small();
    let spec = shape.spec(Workload::PaperSearch, &[5], 0);
    let mut reports = run_campaign(&spec, 1)
        .expect("valid spec")
        .report()
        .scenarios;
    let before = digest::digest(&reports);
    for step in reports.iter_mut().flat_map(|r| r.steps.iter_mut()) {
        step.delta_schedules += 7;
        step.spliced_steps += 11;
    }
    assert_eq!(digest::digest(&reports), before);
    reports.reverse();
    assert_eq!(digest::digest(&reports), before, "order-independent");
    let cost = reports[0].steps[shape.existing_apps]
        .cost
        .as_mut()
        .expect("the commit has a cost");
    cost.total += 1.0;
    assert_ne!(digest::digest(&reports), before);
}

#[test]
fn run_seed_reorders_scenarios_without_changing_designs() {
    let shape = Shape::small();
    let digests = |seed| {
        let spec = shape.spec(Workload::PaperSearch, &[5, 17], seed);
        let report = run_campaign(&spec, 1).expect("valid spec").report();
        digest::group_digests("search", &report.scenarios)
    };
    assert_eq!(digests(1), digests(2));
}

#[test]
fn digest_mismatch_is_reported() {
    let table = DigestTable::parse("dac2001-small 5 search/AH 00\n").expect("parses");
    let shape = Shape::small();
    let spec = shape.spec(Workload::PaperSearch, &[5], 0);
    let pass = run_pass(&shape, Workload::PaperSearch, &spec, &table, None);
    assert!(pass
        .problems
        .iter()
        .any(|p| p.contains("design digest mismatch")));
    assert!(pass
        .problems
        .iter()
        .any(|p| p.contains("no recorded design digest")));
}

#[test]
fn injected_panic_counts_as_failed() {
    let shape = Shape::small();
    let mut spec = shape.spec(Workload::LifecycleChurn, &[5], 0);
    spec.script.push(ScriptStep::InjectPanic {
        fail_attempts: usize::MAX,
        only_seed: None,
    });
    let pass = run_pass(
        &shape,
        Workload::LifecycleChurn,
        &spec,
        &DigestTable::recorded(),
        None,
    );
    assert!(pass.attempted > 0);
    let failed_frac = pass.failed as f64 / pass.attempted as f64;
    assert!(
        failed_frac > 0.0,
        "failed {} of {}",
        pass.failed,
        pass.attempted
    );
    assert!(pass.problems.iter().any(|p| p.contains("quarantined")));
}
