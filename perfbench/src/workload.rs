//! The two workloads, their campaign specs and the untraced passes
//! that produce the end-to-end metrics.

use crate::digest::{self, DigestTable};
use incdes_core::System;
use incdes_explore::{
    run_campaign, run_campaign_store, BaseSpec, CampaignSpec, CompletedScenario, Count,
    ScenarioReport, ScriptStep, StepAction, StoreOptions,
};
use incdes_mapping::{MhConfig, SaConfig, SearchParallelism, Strategy};
use incdes_metrics::Weights;
use incdes_model::{FutureProfile, Time};
use incdes_store::Store;
use incdes_synth::{future_profile_for, generate_application, generate_architecture};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

/// Search threads of the parallel MH pass (the host needs as many CPUs).
pub const PAR_THREADS: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 1/2 at paper scale: AH / MH / SA, sequential search. Its
    /// traced run adds an MH pass on two search threads.
    PaperSearch,
    /// A long AH add / probe / decommission trace, cold then warm
    /// through a persistent store.
    LifecycleChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperSearch, Workload::LifecycleChurn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSearch => "paper-search",
            Workload::LifecycleChurn => "lifecycle-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest family: `search` (also the parallel MH pass) or `churn`.
    pub fn family(self) -> &'static str {
        match self {
            Workload::PaperSearch => "search",
            Workload::LifecycleChurn => "churn",
        }
    }

    /// Search threads a run uses: the traced `paper-search` run has a
    /// parallel MH pass on [`PAR_THREADS`]; everything else is sequential.
    pub fn threads(self, trace: bool) -> usize {
        match (self, trace) {
            (Workload::PaperSearch, true) => PAR_THREADS,
            _ => 1,
        }
    }

    /// Whether an untraced run starts with an untimed warm-up pass. Only
    /// where a pass is short: a `paper-search` pass is a third of a run.
    pub fn warm_up(self) -> bool {
        self == Workload::LifecycleChurn
    }
}

/// Problem sizes of one benchmark scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Generator preset (`dac2001` or `dac2001-small`).
    pub preset: &'static str,
    /// Existing applications committed with AH before anything is measured.
    pub existing_apps: usize,
    /// Processes per existing application.
    pub existing_app_size: usize,
    /// Current-application sizes of the search workloads.
    pub search_sizes: Vec<usize>,
    /// Current-application sizes the churn cycles rotate through.
    pub churn_sizes: Vec<usize>,
    /// Processes per future application (objective profile and probes).
    pub future_processes: usize,
    /// Future probes after each commit (search) or per cycle (churn).
    pub probes: usize,
    /// Churn cycles.
    pub cycles: usize,
    /// SA evaluation budget.
    pub sa_evaluations: usize,
    /// Demand factor on the future profile.
    pub demand_factor: f64,
}

impl Shape {
    /// Paper scale: 400 frozen processes as 8 AH apps of 50.
    pub fn paper() -> Shape {
        Shape {
            preset: "dac2001",
            existing_apps: 8,
            existing_app_size: 50,
            search_sizes: vec![160, 320],
            churn_sizes: vec![40, 80, 160],
            future_processes: 80,
            probes: 8,
            cycles: 16,
            sa_evaluations: 4000,
            demand_factor: 4.0,
        }
    }

    /// The `dac2001-small` shape the benchmark's own tests use.
    pub fn small() -> Shape {
        Shape {
            preset: "dac2001-small",
            existing_apps: 4,
            existing_app_size: 40,
            search_sizes: vec![10, 20],
            churn_sizes: vec![10, 20, 40],
            future_processes: 25,
            probes: 4,
            cycles: 4,
            sa_evaluations: 400,
            demand_factor: 4.0,
        }
    }

    /// The strategies a workload runs, in canonical order.
    pub fn strategies(&self, workload: Workload) -> Vec<Strategy> {
        match workload {
            Workload::PaperSearch => vec![
                Strategy::AdHoc,
                Strategy::MappingHeuristic(MhConfig::default()),
                Strategy::SimulatedAnnealing(SaConfig {
                    max_evaluations: self.sa_evaluations,
                    ..SaConfig::default()
                }),
            ],
            Workload::LifecycleChurn => vec![Strategy::AdHoc],
        }
    }

    fn probe_step(&self) -> ScriptStep {
        ScriptStep::Probe {
            processes: Count::Fixed(self.future_processes),
            strategy: Some(Strategy::AdHoc),
            future: true,
        }
    }

    /// The lifecycle script of a workload. Its first `existing_apps`
    /// steps are the base build-up; the rest are measured.
    pub fn script(&self, workload: Workload) -> Vec<ScriptStep> {
        let mut script: Vec<ScriptStep> = (0..self.existing_apps)
            .map(|_| ScriptStep::Add {
                processes: Count::Fixed(self.existing_app_size),
                strategy: Some(Strategy::AdHoc),
                future: false,
            })
            .collect();
        match workload {
            Workload::PaperSearch => {
                script.push(ScriptStep::Add {
                    processes: Count::Size,
                    strategy: None,
                    future: false,
                });
                script.extend((0..self.probes).map(|_| self.probe_step()));
            }
            Workload::LifecycleChurn => {
                for cycle in 0..self.cycles {
                    script.push(ScriptStep::Add {
                        processes: Count::Fixed(self.churn_sizes[cycle % self.churn_sizes.len()]),
                        strategy: None,
                        future: false,
                    });
                    script.extend((0..self.probes).map(|_| self.probe_step()));
                    if cycle > 0 {
                        // Ids are dense commit indices: the previous
                        // cycle's current application.
                        let app = (self.existing_apps + cycle - 1) as u32;
                        script.push(ScriptStep::Decommission { app });
                    }
                }
            }
        }
        script
    }

    /// The campaign spec of `workload` over the instance seeds. The
    /// run seed shuffles the grid axes, so it picks the order in which
    /// scenarios execute; the designs (and digests) do not depend on it.
    pub fn spec(&self, workload: Workload, instances: &[u64], run_seed: u64) -> CampaignSpec {
        let mut rng = ChaCha8Rng::seed_from_u64(run_seed);
        let mut sizes = match workload {
            Workload::LifecycleChurn => Vec::new(),
            _ => self.search_sizes.clone(),
        };
        let mut strategies = self.strategies(workload);
        let mut seeds = instances.to_vec();
        sizes.shuffle(&mut rng);
        strategies.shuffle(&mut rng);
        seeds.shuffle(&mut rng);
        CampaignSpec {
            name: format!("perfbench-{}", workload.name()),
            base: BaseSpec::Preset(self.preset.to_string()),
            future_processes: self.future_processes,
            demand_factor: self.demand_factor,
            sizes,
            strategies,
            seeds,
            weight_settings: Vec::new(),
            script: self.script(workload),
            check_invariants: false,
            parallelism: SearchParallelism::Sequential,
        }
    }

    /// The parallel MH variant of a `paper-search` spec: MH only, on
    /// [`PAR_THREADS`] search threads (default cutover, 1 SA chain).
    pub fn par_mh_spec(&self, spec: &CampaignSpec) -> CampaignSpec {
        let mut par = spec.clone();
        par.strategies
            .retain(|s| matches!(s, Strategy::MappingHeuristic(_)));
        par.parallelism = SearchParallelism::threads(PAR_THREADS);
        par
    }

    /// The demand-scaled future profile campaigns use for this shape.
    pub fn future_profile(&self, spec: &CampaignSpec) -> FutureProfile {
        let cfg = spec.resolve_config().expect("presets resolve");
        let mut future = future_profile_for(&cfg, self.future_processes);
        future.t_need = Time::new((future.t_need.as_f64() * self.demand_factor).round() as u64);
        future.b_need = Time::new((future.b_need.as_f64() * self.demand_factor).round() as u64);
        future
    }
}

/// One set-up: spec and input generation plus the AH base build-up of
/// every instance, through the same public calls the campaign's
/// build-up steps make. Returns its wall-clock in seconds.
pub fn setup_once(shape: &Shape, workload: Workload, instances: &[u64]) -> f64 {
    let start = Instant::now();
    let spec = shape.spec(workload, instances, 0);
    spec.validate().expect("benchmark specs are valid");
    let cfg = spec.resolve_config().expect("presets resolve");
    let arch = generate_architecture(&cfg).expect("preset architecture is valid");
    let future = shape.future_profile(&spec);
    for &seed in instances {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut system = System::new(arch.clone());
        for i in 0..shape.existing_apps {
            let app =
                generate_application(&cfg, &format!("s{i}"), shape.existing_app_size, &mut rng)
                    .expect("preset generates valid applications");
            system
                .add_application(app, &future, &Weights::default(), &Strategy::AdHoc)
                .expect("the base build-up fits");
        }
        std::hint::black_box(system.table().jobs().len());
    }
    start.elapsed().as_secs_f64()
}

/// What one untraced pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall-clock of the pass in seconds.
    pub wall_s: f64,
    /// Scenario reports of the timed run, completed scenarios only.
    pub reports: Vec<ScenarioReport>,
    /// Latency of every measured add step, ms.
    pub commit_ms: Vec<f64>,
    /// Latency of every probe step, ms.
    pub probe_ms: Vec<f64>,
    /// Summed wall-clock of measured MH / SA adds, s.
    pub mh_s: f64,
    /// See `mh_s`.
    pub sa_s: f64,
    /// Strategy evaluations of measured add/probe steps.
    pub evals: usize,
    /// Wall-clock of those steps, s.
    pub eval_s: f64,
    /// Probes run and probes found feasible.
    pub probes: usize,
    /// See `probes`.
    pub feasible_probes: usize,
    /// Steps attempted (quarantined scenarios count every script step).
    pub attempted: usize,
    /// Errored steps plus every step of a quarantined scenario.
    pub failed: usize,
    /// Per completed scenario: (wall-clock, summed step wall-clock), ms.
    pub scenario_ms: Vec<(f64, f64)>,
    /// Wall-clock of the cold and warm store runs (churn), s.
    pub store_s: f64,
    /// Correctness problems found (empty on a good pass).
    pub problems: Vec<String>,
}

impl Pass {
    fn absorb(&mut self, shape: &Shape, done: &CompletedScenario) {
        let step_ms: f64 = done.steps.iter().map(|s| ms(s.elapsed)).sum();
        self.scenario_ms.push((ms(done.elapsed), step_ms));
        for s in &done.steps {
            self.attempted += 1;
            if s.error.is_some() {
                self.failed += 1;
            }
            if s.step < shape.existing_apps {
                continue;
            }
            let latency = ms(s.elapsed);
            match s.action {
                StepAction::Add => {
                    self.commit_ms.push(latency);
                    match done.key.strategy {
                        Strategy::MappingHeuristic(_) => self.mh_s += latency / 1e3,
                        Strategy::SimulatedAnnealing(_) => self.sa_s += latency / 1e3,
                        Strategy::AdHoc => {}
                    }
                }
                StepAction::Probe => {
                    self.probe_ms.push(latency);
                    self.probes += 1;
                    self.feasible_probes += usize::from(s.feasible);
                }
                _ => continue,
            }
            self.evals += s.evaluations;
            self.eval_s += latency / 1e3;
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the campaign once and checks every design against the recorded
/// digests. With `store_dir`, churn also runs cold into a fresh store
/// there and warm from it.
pub fn run_pass(
    shape: &Shape,
    workload: Workload,
    spec: &CampaignSpec,
    digests: &DigestTable,
    store_dir: Option<&Path>,
) -> Pass {
    let start = Instant::now();
    let run = run_campaign(spec, 1).expect("benchmark specs are valid");
    let mut pass = Pass::default();
    for outcome in &run.outcomes {
        match outcome.completed() {
            Some(done) => pass.absorb(shape, done),
            None => {
                pass.attempted += spec.script.len();
                pass.failed += spec.script.len();
            }
        }
    }
    for f in run.failures() {
        pass.problems
            .push(format!("scenario quarantined: {}", f.panic_message));
    }
    let report = run.report();
    if let (Workload::LifecycleChurn, Some(dir)) = (workload, store_dir) {
        let store_start = Instant::now();
        pass.problems
            .extend(cold_warm_check(spec, &report.scenarios, dir));
        pass.store_s = store_start.elapsed().as_secs_f64();
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    if report.totals.invariant_violations > 0 {
        pass.problems.push(format!(
            "{} invariant violations",
            report.totals.invariant_violations
        ));
    }
    let actual = digest::group_digests(workload.family(), &report.scenarios);
    pass.problems.extend(digests.check(shape.preset, &actual));
    pass.reports = report.scenarios;
    pass
}

/// Runs `spec` cold into a fresh store, then warm from it: the warm run
/// must execute nothing and both must equal the timed run's reports.
fn cold_warm_check(spec: &CampaignSpec, timed: &[ScenarioReport], work_dir: &Path) -> Vec<String> {
    let dir = work_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("the work directory is writable");
    let opts = StoreOptions {
        workers: 1,
        store: Some(&store),
        shard: None,
    };
    let cold = run_campaign_store(spec, &opts).expect("benchmark specs are valid");
    let warm = run_campaign_store(spec, &opts).expect("benchmark specs are valid");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let mut problems = Vec::new();
    if cold.report.scenarios != timed {
        problems.push("cold store run differs from the timed run".to_string());
    }
    if warm.stats.executed != 0 {
        problems.push(format!(
            "warm store run executed {} scenarios (expected 0)",
            warm.stats.executed
        ));
    }
    if warm.report != cold.report {
        problems.push("warm store run differs from the cold run".to_string());
    }
    problems
}

/// Percentile of `samples` interpolated linearly between the two
/// closest ranks (0 for no samples). Unlike the nearest rank, it does
/// not jump between neighbouring values when two of them swap places.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let x = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = x.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (x - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Fig. 1: mean % deviation of the MH current-commit cost from SA's on
/// the same `(size, seed)` instance; `None` without MH/SA pairs.
pub fn mh_dev_pct(shape: &Shape, reports: &[ScenarioReport]) -> Option<f64> {
    let commit = shape.existing_apps;
    let cost = |r: &ScenarioReport| r.steps.get(commit).and_then(|s| s.cost).map(|c| c.total);
    let mut devs = Vec::new();
    for mh in reports.iter().filter(|r| r.strategy == "MH") {
        let sa = reports
            .iter()
            .find(|r| r.strategy == "SA" && r.size == mh.size && r.seed == mh.seed);
        if let (Some(m), Some(s)) = (cost(mh), sa.and_then(cost)) {
            devs.push(100.0 * (m - s) / s.max(1.0));
        }
    }
    (!devs.is_empty()).then(|| devs.iter().sum::<f64>() / devs.len() as f64)
}
