//! Observability determinism guard: the out-of-band diagnostics planes
//! (deterministic counters, wall-clock phase scopes) must never leak
//! into campaign results.
//!
//! * The `CampaignReport` JSON is **byte-identical** with phase
//!   profiling armed vs. disarmed, and across worker counts 1 and 8.
//! * The per-scenario counter snapshots are identical across worker
//!   counts — the counter plane is deterministic, not just the report.

use incdes::explore::{run_campaign, CampaignSpec};
use incdes::mapping::Strategy;
use incdes::obs::counters::Counter;
use incdes::obs::phase::{self, Phase};
use std::sync::{Mutex, MutexGuard};

/// `phase::set_enabled` is a process-global switch; tests that toggle
/// it must not interleave, or one test's disarm could clip another's
/// armed window.
static PHASE_SWITCH: Mutex<()> = Mutex::new(());

fn lock_phase_switch() -> MutexGuard<'static, ()> {
    PHASE_SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

/// Four scenarios — small enough to stay fast, enough to give an
/// 8-worker pool real partitioning choices.
fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::small_demo();
    spec.sizes = vec![5, 8];
    spec.seeds = vec![3, 4];
    spec.strategies = vec![Strategy::AdHoc];
    spec
}

fn report_bytes(spec: &CampaignSpec, workers: usize) -> String {
    run_campaign(spec, workers)
        .expect("demo spec is valid")
        .report()
        .to_json_pretty()
        .expect("report serializes")
}

#[test]
fn campaign_report_bytes_survive_profiling_and_worker_counts() {
    let _switch = lock_phase_switch();
    let spec = spec();
    let baseline = report_bytes(&spec, 1);

    // Worker-count invariance, profiling off.
    assert_eq!(baseline, report_bytes(&spec, 8));

    // Arm the wall-clock plane: report bytes must not move.
    phase::set_enabled(true);
    let profiled_seq = report_bytes(&spec, 1);
    let profiled_par = report_bytes(&spec, 8);
    phase::set_enabled(false);
    assert_eq!(baseline, profiled_seq);
    assert_eq!(baseline, profiled_par);
}

#[test]
fn scenario_counters_are_identical_across_worker_counts() {
    let spec = spec();
    let seq = run_campaign(&spec, 1).expect("demo spec is valid");
    let par = run_campaign(&spec, 8).expect("demo spec is valid");

    assert_eq!(seq.outcomes.len(), 4);
    assert_eq!(seq.outcomes.len(), par.outcomes.len());
    for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
        let (a, b) = (a.expect_completed(), b.expect_completed());
        assert_eq!(a.key.index, b.key.index);
        assert_eq!(
            a.counters, b.counters,
            "scenario {} counters drifted between 1 and 8 workers",
            a.key.index
        );
        // The scenarios actually exercise the instrumented engine:
        // a campaign that bumped nothing would make the equality
        // assertions vacuous.
        assert!(a.counters.get(Counter::BaseBakes) > 0);
        assert!(a.counters.get(Counter::HeapPops) > 0);
    }
}

#[test]
fn armed_phase_scopes_record_without_perturbing_counters() {
    let _switch = lock_phase_switch();
    let spec = spec();
    let plain = run_campaign(&spec, 1).expect("demo spec is valid");

    phase::set_enabled(true);
    let profiled = run_campaign(&spec, 1).expect("demo spec is valid");
    phase::set_enabled(false);

    for (a, b) in plain.outcomes.iter().zip(&profiled.outcomes) {
        let (a, b) = (a.expect_completed(), b.expect_completed());
        assert_eq!(a.counters, b.counters);
        // With the plane armed the scenario must have recorded real
        // phase activity.
        assert!(b.phases.get(Phase::Splice).count > 0);
        assert!(b.phases.get(Phase::Objective).count > 0);
    }
}
