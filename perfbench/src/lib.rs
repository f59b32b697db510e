//! Paper-scale end-to-end benchmark of the incremental-design engine,
//! with per-layer attribution from a separate traced run.
//!
//! [`run`] executes one workload: with `trace == false` it repeats
//! untraced campaign passes for the requested time and reports the
//! end-to-end metrics; with `trace == true` it alternates untraced
//! reference passes with traced mirror passes, then runs the parallel
//! MH pass (`paper-search`), the `sched`/`metrics` replay, the
//! invariant pass and (churn) the store timing, and reports the
//! per-layer metrics. Both check every design against the recorded
//! digests. See `README.md` for the metric definitions.

#![forbid(unsafe_code)]

pub mod digest;
pub mod spans;
pub mod traced;
pub mod workload;

use digest::DigestTable;
use incdes_explore::run_campaign;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{median, percentile, Pass, Shape, Workload};

/// Set-ups a run aims to spread over its passes (short passes get one
/// each); `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 21;
/// Set-ups before the first pass, and at most between two passes.
pub const SETUP_BATCH: usize = 7;
/// Neighbour-stream entries per replay instance in the traced run.
pub const REPLAY_ENTRIES: usize = 300;

/// One run's options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Problem sizes.
    pub shape: Shape,
    /// Instance seeds (one frozen base each).
    pub instances: Vec<u64>,
    /// Run seed: scenario order and the replay stream.
    pub seed: u64,
    /// Measuring time of an untraced run, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for stores and the span dump.
    pub work_dir: PathBuf,
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Script steps attempted.
    pub attempted: usize,
    /// Errored steps plus every step of a quarantined scenario.
    pub failed: usize,
    /// The metrics `BENCHMARK.json` lists (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further figures printed on stderr only (not applicable to every
    /// workload, so `BENCHMARK.json` does not list them).
    pub extras: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Every correctness problem found.
    pub problems: Vec<String>,
    /// Design digests of the first pass, as `digests.txt` lines.
    pub digest_lines: String,
}

impl RunResult {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload as `opts` say.
pub fn run(opts: &Options) -> RunResult {
    std::fs::create_dir_all(&opts.work_dir).expect("the work directory can be created");
    if opts.trace {
        run_traced(opts)
    } else {
        run_end_to_end(opts)
    }
}

fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

// The host's speed drifts by tens of percent over tens of seconds, so
// an untraced run averages over its whole length: set-ups are spread
// between the passes, timings are means over passes or percentiles
// over all their steps, and the run ends within half a pass of
// `--seconds` instead of overrunning by up to a whole pass.
fn run_end_to_end(opts: &Options) -> RunResult {
    let digests = DigestTable::recorded();
    let spec = opts.shape.spec(opts.workload, &opts.instances, opts.seed);
    let pass = || {
        workload::run_pass(
            &opts.shape,
            opts.workload,
            &spec,
            &digests,
            Some(&opts.work_dir),
        )
    };
    let mut problems: Vec<String> = Vec::new();
    if opts.workload.warm_up() {
        problems.extend(pass().problems);
    }
    let mut setups: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    // Read after the first pass: a fixed amount of work, so the figure
    // does not grow with the number of interleaved set-ups and passes
    // (heap fragmentation) that a run happens to fit.
    let mut rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let mean_pass_s = mean(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let elapsed = start.elapsed().as_secs_f64();
        if !passes.is_empty() && elapsed + mean_pass_s / 2.0 >= opts.seconds {
            break;
        }
        let reps = if passes.is_empty() {
            SETUP_BATCH
        } else {
            ((SETUP_REPS as f64 * mean_pass_s / opts.seconds).ceil() as usize).clamp(1, SETUP_BATCH)
        };
        setups.extend(
            (0..reps).map(|_| workload::setup_once(&opts.shape, opts.workload, &opts.instances)),
        );
        passes.push(pass());
        if passes.len() == 1 {
            rss_mb = rss_peak_mb();
        }
    }
    let first = &passes[0];
    // Each measured step's mean latency over the passes (every pass runs
    // the same steps in the same order). A `paper-search` pass has only
    // 12 commits of very different lengths: a percentile over all
    // passes' commits pooled would jump between scenarios as they swap
    // ranks, where one over per-step means moves only with the host.
    let step_means = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        let steps = passes.iter().map(|p| f(p).len()).min().unwrap_or(0);
        (0..steps)
            .map(|i| mean(&passes.iter().map(|p| f(p)[i]).collect::<Vec<_>>()))
            .collect()
    };
    let per_pass = |f: fn(&Pass) -> f64| -> f64 { mean(&passes.iter().map(f).collect::<Vec<_>>()) };
    let total = |f: fn(&Pass) -> f64| -> f64 { passes.iter().map(f).sum() };
    let commits = step_means(|p| &p.commit_ms);
    let probes = step_means(|p| &p.probe_ms);
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}/{:.3}", p.wall_s, p.store_s))
        .collect();
    eprintln!(
        "perfbench: pass wall-clock / store part (s): {}",
        walls.join(" ")
    );
    problems.extend(passes.iter().flat_map(|p| p.problems.clone()));
    problems.sort();
    problems.dedup();
    let metrics = vec![
        m("wall_s", per_pass(|p| p.wall_s), "s"),
        m("setup_s", median(&setups), "s"),
        m(
            "evals_per_s",
            ratio(total(|p| p.evals as f64), total(|p| p.eval_s)),
            "1/s",
        ),
        m("commit_ms.p50", percentile(&commits, 50.0), "ms"),
        m("commit_ms.p90", percentile(&commits, 90.0), "ms"),
        m("probe_ms.p50", percentile(&probes, 50.0), "ms"),
        m("probe_ms.p90", percentile(&probes, 90.0), "ms"),
        m("rss_peak_mb", rss_mb, "MB"),
        m(
            "future_mapped_pct",
            100.0 * ratio(first.feasible_probes as f64, first.probes as f64),
            "%",
        ),
    ];
    let search = opts.workload == Workload::PaperSearch;
    let extras = vec![
        ("passes", Some(passes.len() as f64), "count"),
        ("setups", Some(setups.len() as f64), "count"),
        ("commit_steps", Some(commits.len() as f64), "count"),
        ("probe_steps", Some(probes.len() as f64), "count"),
        ("mh_s", search.then(|| per_pass(|p| p.mh_s)), "s"),
        ("sa_s", search.then(|| per_pass(|p| p.sa_s)), "s"),
        (
            "mh_dev_pct",
            workload::mh_dev_pct(&opts.shape, &first.reports),
            "%",
        ),
        (
            "failed_frac",
            Some(ratio(first.failed as f64, first.attempted as f64)),
            "frac",
        ),
    ];
    RunResult {
        correct: problems.is_empty() && first.failed == 0,
        attempted: first.attempted,
        failed: first.failed,
        metrics,
        extras,
        problems,
        digest_lines: DigestTable::render(
            opts.shape.preset,
            &digest::group_digests(opts.workload.family(), &first.reports),
        ),
    }
}

fn run_traced(opts: &Options) -> RunResult {
    let digests = DigestTable::recorded();
    let shape = &opts.shape;
    let family = opts.workload.family();
    let spec = shape.spec(opts.workload, &opts.instances, opts.seed);

    // Untraced reference passes alternate with traced mirror passes (at
    // least one pair, more while half the run time remains), so warm-up
    // hits both sides; the overhead is a ratio of their medians. The
    // first pair's spans and counts give the per-layer figures.
    let start = Instant::now();
    let mut pairs: Vec<(Pass, traced::Mirror, Recorder)> = Vec::new();
    while pairs.is_empty() || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let reference = workload::run_pass(shape, opts.workload, &spec, &digests, None);
        let mut rec = Recorder::default();
        let mirror = traced::mirror_pass(shape, &spec, &mut rec);
        pairs.push((reference, mirror, rec));
    }
    let walls = |f: fn(&(Pass, traced::Mirror, Recorder)) -> f64| {
        median(&pairs.iter().map(f).collect::<Vec<_>>())
    };
    let (untraced_s, traced_s) = (walls(|p| p.0.wall_s), walls(|p| p.1.wall_s));
    let want = digest::group_digests(family, &pairs[0].0.reports);
    let mut problems = Vec::new();
    for (reference, mirror, _) in &pairs {
        problems.extend(reference.problems.iter().cloned());
        if digest::group_digests(family, &mirror.reports) != want {
            problems.push("traced mirror designs differ from the campaign's".to_string());
        }
    }
    let trace_pairs = pairs.len();
    let (reference, mirror, mut rec) = pairs.swap_remove(0);

    // MH on parallel search threads over the same instances: the
    // parallel speed-up over the reference pass's sequential MH, and a
    // direct check that the designs do not depend on the search mode.
    let mut par_speedup = 0.0;
    if opts.workload == Workload::PaperSearch {
        let par = shape.par_mh_spec(&spec);
        let par_pass = workload::run_pass(shape, opts.workload, &par, &digests, None);
        problems.extend(par_pass.problems.iter().cloned());
        let mut seq_mh = want.clone();
        seq_mh.retain(|(_, group), _| group.ends_with("/MH"));
        if digest::group_digests(family, &par_pass.reports) != seq_mh {
            problems.push("parallel MH designs differ from sequential MH".to_string());
        }
        par_speedup = ratio(reference.mh_s, par_pass.mh_s);
    }

    let replay = traced::replay(
        shape,
        &spec,
        &traced::replay_sizes(shape, opts.workload),
        &opts.instances,
        REPLAY_ENTRIES,
        opts.seed,
    );
    problems.extend(replay.problems.iter().cloned());

    // Untimed invariant pass.
    let mut checked = spec.clone();
    checked.check_invariants = true;
    let run = run_campaign(&checked, 1).expect("benchmark specs are valid");
    let report = run.report();
    if report.totals.invariant_violations != 0 {
        problems.push(format!(
            "{} invariant violations",
            report.totals.invariant_violations
        ));
    }
    if digest::group_digests(family, &report.scenarios) != want {
        problems.push("invariant-checked pass designs differ".to_string());
    }

    let store = if opts.workload == Workload::LifecycleChurn {
        let s = traced::store_timing(&spec, &opts.work_dir, &mut rec);
        problems.extend(s.problems.iter().cloned());
        s
    } else {
        traced::StoreTiming::default()
    };

    let dump = opts.work_dir.join(format!(
        "spans-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    if let Err(e) = std::fs::write(&dump, rec.to_json_lines()) {
        eprintln!("warning: could not write {}: {e}", dump.display());
    }

    let overhead = ratio(traced_s, untraced_s) - 1.0;
    let metrics = layer_metrics(
        opts,
        &reference,
        &mirror,
        &rec,
        &replay,
        &store,
        par_speedup,
        overhead,
    );
    RunResult {
        correct: problems.is_empty() && reference.failed == 0,
        attempted: reference.attempted,
        failed: reference.failed,
        metrics,
        extras: vec![
            ("untraced_wall_s", Some(untraced_s), "s"),
            ("traced_wall_s", Some(traced_s), "s"),
            ("trace_pairs", Some(trace_pairs as f64), "count"),
            ("oracle_checks", Some(replay.oracle_checks as f64), "count"),
        ],
        problems,
        digest_lines: DigestTable::render(shape.preset, &want),
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    opts: &Options,
    reference: &Pass,
    mirror: &traced::Mirror,
    rec: &Recorder,
    replay: &traced::Replay,
    store: &traced::StoreTiming,
    par_speedup: f64,
    overhead: f64,
) -> Vec<Metric> {
    let c = &mirror.counts;
    let us = traced::Replay::mean_us;
    let evaluate_per_raw_us = ratio(replay.evaluate.1 as f64 / 1e3, replay.evaluate_raw as f64);
    let search_ms = rec.total_ms("mapping.ah", true)
        + rec.total_ms("mapping.mh", true)
        + rec.total_ms("mapping.sa", true);
    let search_other = ratio(
        search_ms - c.raw as f64 * evaluate_per_raw_us / 1e3,
        search_ms,
    );
    let scenarios = reference.scenario_ms.len() as f64;
    let scenario_ms = ratio(reference.scenario_ms.iter().map(|s| s.0).sum(), scenarios);
    let overhead_ms = ratio(
        reference.scenario_ms.iter().map(|s| s.0 - s.1).sum(),
        scenarios,
    );
    // Time the layer spans directly under each scenario cover.
    let spans = rec.spans();
    let layer_ns: u64 = spans
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| spans[p].name == "explore.scenario")
        })
        .map(|s| s.duration())
        .sum();
    vec![
        m("metrics.c1_us", us(replay.c1), "us"),
        m("metrics.c2_us", us(replay.c2), "us"),
        m("metrics.objective_us", us(replay.objective), "us"),
        m(
            "metrics.c1_patched_per_eval",
            ratio(replay.c1_patched as f64, replay.c1.0 as f64),
            "count",
        ),
        m(
            "metrics.c2_windows_per_eval",
            ratio(replay.c2_windows as f64, replay.c2.0 as f64),
            "count",
        ),
        m("sched.schedule_full_us", us(replay.full), "us"),
        m("sched.schedule_delta_us", us(replay.delta), "us"),
        m("sched.naive_us", us(replay.naive), "us"),
        m("sched.slack_us", us(replay.slack), "us"),
        m(
            "sched.rebase_frac",
            ratio(c.rebases as f64, c.delta as f64),
            "frac",
        ),
        m(
            "sched.splice_frac",
            ratio(c.spliced as f64, (c.spliced + c.heap_pops) as f64),
            "frac",
        ),
        m(
            "sched.heap_pops_per_raw",
            ratio(c.heap_pops as f64, c.raw as f64),
            "count",
        ),
        m("mapping.evaluate_us", us(replay.evaluate), "us"),
        m(
            "mapping.memo_hit_rate",
            ratio(c.memo_hits as f64, c.evaluations as f64),
            "frac",
        ),
        m(
            "mapping.raw_per_eval",
            ratio(c.raw as f64, c.evaluations as f64),
            "frac",
        ),
        m("mapping.ah_ms", rec.total_ms("mapping.ah", true), "ms"),
        m("mapping.mh_ms", rec.total_ms("mapping.mh", true), "ms"),
        m("mapping.sa_ms", rec.total_ms("mapping.sa", true), "ms"),
        m("mapping.im_ms", us(replay.im) / 1e3, "ms"),
        m("mapping.search_other_frac", search_other, "frac"),
        m("mapping.par_speedup", par_speedup, "x"),
        m(
            "mapping.mh_dev_pct",
            workload::mh_dev_pct(&opts.shape, &reference.reports).unwrap_or(0.0),
            "%",
        ),
        m("core.add_ms", rec.mean_ms("core.add", true), "ms"),
        m("core.probe_ms", rec.mean_ms("core.probe", true), "ms"),
        m(
            "core.decommission_ms",
            rec.mean_ms("core.decommission", true),
            "ms",
        ),
        m(
            "core.replicate_ms",
            rec.mean_ms("core.replicate", false),
            "ms",
        ),
        m("core.bake_ms", rec.mean_ms("core.bake", false), "ms"),
        m(
            "core.base_reuse_frac",
            ratio(c.base_reuses as f64, (c.base_reuses + c.bakes) as f64),
            "frac",
        ),
        m("synth.gen_ms", rec.mean_ms("synth.gen", false), "ms"),
        m("store.put_ms", store.put_ms, "ms"),
        m("store.get_ms", store.get_ms, "ms"),
        m("store.blob_kb", store.blob_kb, "KiB"),
        m("store.warm_ms", store.warm_ms, "ms"),
        m("explore.scenario_ms", scenario_ms, "ms"),
        m("explore.overhead_ms", overhead_ms, "ms"),
        m("trace.overhead_frac", overhead, "frac"),
        m(
            "trace.span_coverage",
            ratio(layer_ns as f64 / 1e9, reference.wall_s),
            "frac",
        ),
    ]
}

/// The default scratch directory, relative to the checkout root.
pub fn default_work_dir() -> PathBuf {
    Path::new("perfbench").join(".work")
}
