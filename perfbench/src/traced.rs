//! The traced run: per-layer timings from spans the benchmark records
//! around calls into each layer's public functions.
//!
//! Three parts:
//!
//! * the **mirror** replays each campaign scenario through the public
//!   calls `System::add_application` / `probe_application` /
//!   `decommission` are made of (`generate_application`,
//!   `ScheduleTable::replicate_to`, `FrozenBase::new`,
//!   `run_strategy`, `ScheduleTable::without_apps`), with a span around
//!   each; its design digests must equal the campaign's;
//! * the **replay** runs a deterministic single-move neighbour stream
//!   on each paper-scale instance and times the `sched` / `metrics` /
//!   `mapping` entry points one by one, cross-checking the engine
//!   against the naive pipeline on a sample;
//! * the **store** timing (churn only) times `Store::put` / `get` and
//!   a warm `run_campaign_store`.

use crate::spans::Recorder;
use crate::workload::{Shape, Workload};
use incdes_explore::{
    run_campaign_store, scenario_store_key, CampaignSpec, CostReport, ScenarioKey, ScenarioReport,
    ScheduleReport, ScriptStep, StepReport, StoreOptions,
};
use incdes_mapping::{
    initial_mapping, run_strategy, MapError, MappingContext, Move, SaConfig, Solution, Strategy,
};
use incdes_metrics::{C1Cache, C2Cache, Weights};
use incdes_model::time::hyperperiod;
use incdes_model::{
    validate, AppId, Application, Architecture, FutureProfile, PeId, ProcRef, Time,
};
use incdes_obs::counters::{self, Counter};
use incdes_sched::engine::ChangedVar;
use incdes_sched::{AppSpec, FrozenBase, MsgRef, ScheduleTable, Scheduler, SlackProfile};
use incdes_store::Store;
use incdes_synth::{future_wcet_range, generate_application, generate_architecture, SynthConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Counts gathered from the mirror's mapping contexts on measured steps.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchCounts {
    /// `evaluation_count()` summed.
    pub evaluations: usize,
    /// `raw_schedule_count()` summed.
    pub raw: usize,
    /// `memo_hit_count()` summed.
    pub memo_hits: usize,
    /// `delta_schedule_count()` summed.
    pub delta: usize,
    /// Ready-heap pops (this thread's counter).
    pub heap_pops: u64,
    /// Placement steps spliced from run records (this thread's counter).
    pub spliced: u64,
    /// Delta runs that rebased from the baked base (this thread's counter).
    pub rebases: u64,
    /// Frozen-base bakes and reuses of a cached bake.
    pub bakes: usize,
    /// See `bakes`.
    pub base_reuses: usize,
}

/// Output of the mirror pass.
#[derive(Debug, Default)]
pub struct Mirror {
    /// Scenario reports, shaped like the campaign's.
    pub reports: Vec<ScenarioReport>,
    /// Context and engine counts over measured steps.
    pub counts: SearchCounts,
    /// Wall-clock of the pass in seconds.
    pub wall_s: f64,
}

/// The mirror's session state: what `incdes_core::System` keeps.
struct Session<'a> {
    arch: &'a Architecture,
    table: ScheduleTable,
    /// Per committed application (ids are indices): retired yet?
    retired: Vec<bool>,
    base_cache: Option<(Time, Arc<FrozenBase>)>,
}

impl<'a> Session<'a> {
    /// The context set-up and search shared by adds and probes, as
    /// `System::add_application` / `probe_application` do it. `Err(None)`
    /// is plain infeasibility; `Err(Some(_))` an error.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        rec: &mut Recorder,
        counts: &mut SearchCounts,
        app: &Application,
        future: &FutureProfile,
        weights: &Weights,
        strategy: &Strategy,
        spec: &CampaignSpec,
    ) -> Result<incdes_mapping::Outcome, Option<String>> {
        fn text(e: impl std::fmt::Display) -> Option<String> {
            Some(e.to_string())
        }
        validate::check_application(app, self.arch).map_err(text)?;
        let mut periods = vec![self.table.horizon()];
        periods.extend(app.graphs.iter().map(|g| g.period));
        let horizon = hyperperiod(periods).map_err(text)?;
        let frozen = rec
            .time("core.replicate", || {
                self.table.replicate_to(self.arch, horizon)
            })
            .map_err(text)?;
        let id = AppId(self.retired.len() as u32);
        let base = match &self.base_cache {
            Some((h, base)) if *h == horizon => {
                counts.base_reuses += 1;
                Some(Arc::clone(base))
            }
            _ => {
                counts.bakes += 1;
                rec.time("core.bake", || {
                    FrozenBase::new(self.arch, Some(&frozen), horizon).ok()
                })
                .map(|b| {
                    let b = Arc::new(b);
                    self.base_cache = Some((horizon, Arc::clone(&b)));
                    b
                })
            }
        };
        let mut ctx =
            MappingContext::new(self.arch, id, app, Some(&frozen), horizon, future, weights);
        if let Some(base) = base {
            ctx = ctx.with_frozen_base(base);
        }
        ctx = ctx.with_parallelism(spec.parallelism);
        let before = counters::snapshot();
        let span = match strategy {
            Strategy::AdHoc => "mapping.ah",
            Strategy::MappingHeuristic(_) => "mapping.mh",
            Strategy::SimulatedAnnealing(_) => "mapping.sa",
        };
        let outcome = rec.time(span, || run_strategy(&ctx, strategy));
        if rec.measured {
            let delta = counters::snapshot().delta_since(&before);
            counts.evaluations += ctx.evaluation_count();
            counts.raw += ctx.raw_schedule_count();
            counts.memo_hits += ctx.memo_hit_count();
            counts.delta += ctx.delta_schedule_count();
            counts.heap_pops += delta.get(Counter::HeapPops);
            counts.spliced += delta.get(Counter::SpliceStepsSpliced);
            counts.rebases += delta.get(Counter::DeltaRebases);
        }
        outcome.map_err(|e| match e {
            MapError::Infeasible { .. } => None,
            e => text(e),
        })
    }

    fn schedule_report(&self) -> ScheduleReport {
        ScheduleReport {
            horizon: self.table.horizon().ticks(),
            jobs: self.table.jobs().len(),
            messages: self.table.messages().len(),
            committed_apps: self.retired.len(),
            active_apps: self.retired.iter().filter(|r| !**r).count(),
            pe_busy: self
                .arch
                .pe_ids()
                .map(|pe| self.table.busy_time_on(pe).ticks())
                .collect(),
            bus_used: self
                .table
                .messages()
                .iter()
                .map(|m| m.reservation.duration().ticks())
                .sum(),
        }
    }
}

/// The campaign's scenario strategy with SA reseeded per scenario seed,
/// exactly as the campaign runner derives it.
fn effective_strategy(base: &Strategy, scenario_seed: u64) -> Strategy {
    match base {
        Strategy::SimulatedAnnealing(cfg) => Strategy::SimulatedAnnealing(SaConfig {
            seed: cfg.seed ^ scenario_seed.rotate_left(17),
            ..*cfg
        }),
        other => *other,
    }
}

/// Generator configuration for future-family applications.
fn future_cfg(cfg: &SynthConfig) -> SynthConfig {
    SynthConfig {
        wcet: future_wcet_range(cfg),
        ..cfg.clone()
    }
}

/// Replays every scenario of `spec` through the public layer calls,
/// with spans. Steps before `shape.existing_apps` are build-up and
/// recorded as unmeasured.
pub fn mirror_pass(shape: &Shape, spec: &CampaignSpec, rec: &mut Recorder) -> Mirror {
    let start = Instant::now();
    let cfg = spec.resolve_config().expect("presets resolve");
    let fcfg = future_cfg(&cfg);
    let arch = generate_architecture(&cfg).expect("preset architecture is valid");
    let future = shape.future_profile(spec);
    let mut out = Mirror::default();
    for key in spec.scenarios() {
        rec.measured = false;
        rec.enter("explore.scenario");
        let report = mirror_scenario(
            shape,
            spec,
            &key,
            &cfg,
            &fcfg,
            &arch,
            &future,
            rec,
            &mut out.counts,
        );
        rec.measured = false;
        rec.exit();
        out.reports.push(report);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

#[allow(clippy::too_many_arguments)]
fn mirror_scenario(
    shape: &Shape,
    spec: &CampaignSpec,
    key: &ScenarioKey,
    cfg: &SynthConfig,
    fcfg: &SynthConfig,
    arch: &Architecture,
    future: &FutureProfile,
    rec: &mut Recorder,
    counts: &mut SearchCounts,
) -> ScenarioReport {
    let mut rng = ChaCha8Rng::seed_from_u64(key.seed);
    let weights = key.weights.weights;
    let mut session = Session {
        arch,
        table: ScheduleTable::empty(arch.bus().cycle_length()),
        retired: Vec::new(),
        base_cache: None,
    };
    let mut steps = Vec::with_capacity(spec.script.len());
    for (index, step) in spec.script.iter().enumerate() {
        rec.measured = index >= shape.existing_apps;
        let mut report = StepReport {
            step: index,
            action: String::new(),
            feasible: false,
            app_id: None,
            cost: None,
            evaluations: 0,
            iterations: 0,
            delta_schedules: 0,
            spliced_steps: 0,
            horizon: 0,
            error: None,
        };
        match step {
            ScriptStep::Add {
                processes,
                strategy,
                future: from_future,
            }
            | ScriptStep::Probe {
                processes,
                strategy,
                future: from_future,
            } => {
                let is_add = matches!(step, ScriptStep::Add { .. });
                report.action = if is_add { "add" } else { "probe" }.to_string();
                let n = match processes {
                    incdes_explore::Count::Fixed(n) => *n,
                    incdes_explore::Count::Size => key.size,
                };
                let gen_cfg = if *from_future { fcfg } else { cfg };
                let app = rec.time("synth.gen", || {
                    generate_application(gen_cfg, &format!("s{index}"), n, &mut rng)
                });
                let strategy =
                    effective_strategy(strategy.as_ref().unwrap_or(&key.strategy), key.seed);
                match app {
                    Err(e) => report.error = Some(e.to_string()),
                    Ok(app) => {
                        rec.enter(if is_add { "core.add" } else { "core.probe" });
                        let searched =
                            session.search(rec, counts, &app, future, &weights, &strategy, spec);
                        match searched {
                            Err(e) => report.error = e,
                            Ok(o) => {
                                report.feasible = true;
                                report.cost = Some(CostReport::from(o.evaluation.cost));
                                report.evaluations = o.stats.evaluations;
                                report.iterations = o.stats.iterations;
                                if is_add {
                                    report.app_id = Some(session.retired.len() as u32);
                                    session.table = o.evaluation.table;
                                    session.base_cache = None;
                                    session.retired.push(false);
                                }
                            }
                        }
                        rec.exit();
                    }
                }
            }
            ScriptStep::Decommission { app } => {
                report.action = "decommission".to_string();
                rec.enter("core.decommission");
                match session.retired.get_mut(*app as usize) {
                    Some(retired) if !*retired => {
                        *retired = true;
                        session.table = session.table.without_apps(arch, &[AppId(*app)]);
                        session.base_cache = None;
                        report.feasible = true;
                    }
                    _ => report.error = Some(format!("unknown application {app}")),
                }
                rec.exit();
            }
            ScriptStep::InjectPanic { .. } => {
                report.action = "inject_panic".to_string();
                report.feasible = true;
            }
        }
        report.horizon = session.table.horizon().ticks();
        steps.push(report);
    }
    let invariant_violations = Vec::new();
    ScenarioReport {
        index: key.index,
        size: key.size,
        strategy: key.strategy.name().to_string(),
        seed: key.seed,
        weights: key.weights.label.clone(),
        steps,
        schedule: session.schedule_report(),
        invariant_violations,
    }
}

/// Per-entry-point timings of the replay stream, summed over instances.
#[derive(Debug, Default)]
pub struct Replay {
    /// `(calls, total ns)` per entry point.
    pub evaluate: (usize, u64),
    /// `Scheduler::schedule_with_slack`.
    pub full: (usize, u64),
    /// `Scheduler::schedule_delta_hinted_with_slack`.
    pub delta: (usize, u64),
    /// `incdes_sched::schedule`.
    pub naive: (usize, u64),
    /// `SlackProfile::from_table`.
    pub slack: (usize, u64),
    /// `metrics::evaluate`.
    pub objective: (usize, u64),
    /// `C1Cache::c1_terms`.
    pub c1: (usize, u64),
    /// `C2Cache` per-PE and bus terms.
    pub c2: (usize, u64),
    /// `initial_mapping`.
    pub im: (usize, u64),
    /// Raw schedules behind the `evaluate` calls.
    pub evaluate_raw: usize,
    /// C1 containers patched and C2 windows recomputed.
    pub c1_patched: usize,
    /// See `c1_patched`.
    pub c2_windows: usize,
    /// Oracle comparisons made.
    pub oracle_checks: usize,
    /// Oracle mismatches (each a message).
    pub problems: Vec<String>,
}

impl Replay {
    /// Mean µs per call of an entry point's `(calls, ns)`.
    pub fn mean_us(cell: (usize, u64)) -> f64 {
        if cell.0 == 0 {
            0.0
        } else {
            cell.1 as f64 / cell.0 as f64 / 1e3
        }
    }
}

/// One replay instance: the base build-up plus the current application
/// the campaign would draw at `size`, as a mapping context's inputs.
struct Instance {
    arch: Architecture,
    app: Application,
    frozen: ScheduleTable,
    horizon: Time,
    id: AppId,
    future: FutureProfile,
}

fn build_instance(shape: &Shape, spec: &CampaignSpec, seed: u64, size: usize) -> Instance {
    let cfg = spec.resolve_config().expect("presets resolve");
    let arch = generate_architecture(&cfg).expect("preset architecture is valid");
    let future = shape.future_profile(spec);
    let mut system = incdes_core::System::new(arch.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..shape.existing_apps {
        let app = generate_application(&cfg, &format!("s{i}"), shape.existing_app_size, &mut rng)
            .expect("preset generates valid applications");
        system
            .add_application(app, &future, &Weights::default(), &Strategy::AdHoc)
            .expect("the base build-up fits");
    }
    let app = generate_application(&cfg, &format!("s{}", shape.existing_apps), size, &mut rng)
        .expect("preset generates valid applications");
    let mut periods = vec![system.horizon()];
    periods.extend(app.graphs.iter().map(|g| g.period));
    let horizon = hyperperiod(periods).expect("preset periods are harmonic");
    let frozen = system
        .table()
        .replicate_to(&arch, horizon)
        .expect("horizon is a multiple of the committed horizon");
    Instance {
        id: AppId(system.app_count() as u32),
        arch,
        app,
        frozen,
        horizon,
        future,
    }
}

/// A deterministic random walk of single remap / slack moves from the
/// initial mapping, with about a quarter of the entries revisiting an
/// earlier state. A move whose design is infeasible is not taken, so
/// every entry is a schedulable design, as in a search.
fn neighbour_stream(
    inst: &Instance,
    ctx: &MappingContext<'_>,
    initial: Solution,
    count: usize,
    seed: u64,
) -> Vec<Solution> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let procs: Vec<(ProcRef, Vec<PeId>)> = inst
        .app
        .processes()
        .map(|(r, p)| {
            let pes = p
                .wcets
                .iter()
                .map(|(pe, _)| pe)
                .filter(|pe| pe.index() < inst.arch.pe_count())
                .collect();
            (r, pes)
        })
        .collect();
    let msgs: Vec<MsgRef> = inst
        .app
        .graphs
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.dag().edge_ids().map(move |e| MsgRef::new(gi, e)))
        .collect();
    let mut stream = vec![initial.clone()];
    let mut current = initial;
    // Bounded, so a design whose every neighbour is infeasible ends the
    // stream short instead of spinning.
    let mut attempts = 0;
    while stream.len() < count && attempts < 100 * count {
        attempts += 1;
        if stream.len() > 4 && rng.gen_range(0u32..100) < 25 {
            let back = rng.gen_range(0..stream.len());
            stream.push(stream[back].clone());
            continue;
        }
        let dice = rng.gen_range(0u32..100);
        let mv = if dice < 60 {
            let (pr, pes) = &procs[rng.gen_range(0..procs.len())];
            let others: Vec<PeId> = pes
                .iter()
                .copied()
                .filter(|&pe| current.mapping.pe_of(*pr) != Some(pe))
                .collect();
            match others.choose(&mut rng) {
                Some(&to) => Move::Remap { proc_ref: *pr, to },
                None => continue,
            }
        } else if dice < 85 || msgs.is_empty() {
            let (pr, _) = &procs[rng.gen_range(0..procs.len())];
            let h = current.hints.proc_gap(*pr);
            let gap = if h > 0 && rng.gen_bool(0.5) {
                h - 1
            } else {
                h + 1
            };
            Move::ProcSlack { proc_ref: *pr, gap }
        } else {
            let mr = msgs[rng.gen_range(0..msgs.len())];
            let h = current.hints.msg_slot(mr);
            let slot = if h > 0 && rng.gen_bool(0.5) {
                h - 1
            } else {
                h + 1
            };
            Move::MsgSlack { msg: mr, slot }
        };
        let next = current.with_move(&mv);
        if ctx.evaluate(&next).is_ok() {
            current = next;
            stream.push(current.clone());
        }
    }
    stream
}

/// Every design variable that differs between two solutions of `app`,
/// sorted, as the hinted delta entry point wants them.
fn changed_vars(app: &Application, prev: &Solution, cur: &Solution) -> Vec<ChangedVar> {
    let mut vars = Vec::new();
    for (r, _) in app.processes() {
        if prev.mapping.pe_of(r) != cur.mapping.pe_of(r)
            || prev.hints.proc_gap(r) != cur.hints.proc_gap(r)
        {
            vars.push(ChangedVar::Proc {
                spec: 0,
                graph: r.graph,
                node: r.node,
            });
        }
    }
    for (gi, g) in app.graphs.iter().enumerate() {
        for e in g.dag().edge_ids() {
            let m = MsgRef::new(gi, e);
            if prev.hints.msg_slot(m) != cur.hints.msg_slot(m) {
                vars.push(ChangedVar::Msg {
                    spec: 0,
                    graph: gi,
                    edge: e,
                });
            }
        }
    }
    vars.sort_unstable();
    vars
}

fn spec_of<'a>(inst: &'a Instance, s: &'a Solution) -> AppSpec<'a> {
    AppSpec::new(inst.id, &inst.app, &s.mapping, &s.hints)
}

fn timed<T>(cell: &mut (usize, u64), f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    cell.0 += 1;
    cell.1 += start.elapsed().as_nanos() as u64;
    out
}

/// Every this many stream entries, the naive pipeline runs and the
/// oracle compares it with the engine.
const ORACLE_EVERY: usize = 4;

/// Replays a `count`-entry neighbour stream on every `(size, seed)`
/// instance and times each entry point over it.
pub fn replay(
    shape: &Shape,
    spec: &CampaignSpec,
    sizes: &[usize],
    instances: &[u64],
    count: usize,
    run_seed: u64,
) -> Replay {
    let mut out = Replay::default();
    let weights = Weights::default();
    for &seed in instances {
        for &size in sizes {
            let inst = build_instance(shape, spec, seed, size);
            let base = Arc::new(
                FrozenBase::new(&inst.arch, Some(&inst.frozen), inst.horizon)
                    .expect("the frozen schedule bakes"),
            );
            let context = || {
                MappingContext::new(
                    &inst.arch,
                    inst.id,
                    &inst.app,
                    Some(&inst.frozen),
                    inst.horizon,
                    &inst.future,
                    &weights,
                )
                .with_frozen_base(Arc::clone(&base))
            };
            let initial = timed(&mut out.im, || initial_mapping(&context()))
                .expect("replay instances are feasible");
            let stream = neighbour_stream(
                &inst,
                &context(),
                initial,
                count,
                run_seed ^ seed ^ size as u64,
            );

            let ctx = context();
            let mut evals = Vec::new();
            for (i, s) in stream.iter().enumerate() {
                let e = timed(&mut out.evaluate, || ctx.evaluate(s));
                if i % ORACLE_EVERY == 0 {
                    evals.push(e);
                }
            }
            out.evaluate_raw += ctx.raw_schedule_count();

            let mut full = Scheduler::new();
            let mut full_tables = Vec::new();
            for (i, s) in stream.iter().enumerate() {
                let r = timed(&mut out.full, || {
                    full.schedule_with_slack(&inst.arch, &[spec_of(&inst, s)], &base)
                });
                if i % ORACLE_EVERY == 0 {
                    full_tables.push(r.map(|(t, _)| t));
                }
            }

            let mut delta = Scheduler::new();
            let mut slacks = Vec::with_capacity(stream.len());
            let mut delta_tables = Vec::new();
            for (i, s) in stream.iter().enumerate() {
                let changed = if i == 0 {
                    Vec::new()
                } else {
                    changed_vars(&inst.app, &stream[i - 1], s)
                };
                let r = timed(&mut out.delta, || {
                    delta.schedule_delta_hinted_with_slack(
                        &inst.arch,
                        &[spec_of(&inst, s)],
                        &base,
                        &changed,
                    )
                });
                match r {
                    Ok((table, slack)) => {
                        if i % ORACLE_EVERY == 0 {
                            delta_tables.push(Some(table));
                        }
                        slacks.push(slack);
                    }
                    Err(_) if i % ORACLE_EVERY == 0 => delta_tables.push(None),
                    Err(_) => {}
                }
            }

            let mut c1 = C1Cache::new();
            let mut c2 = C2Cache::new();
            let t_min = inst.future.t_min;
            for slack in &slacks {
                timed(&mut out.c1, || {
                    c1.c1_terms(&inst.arch, slack, &inst.future, weights.fit_policy)
                });
                timed(&mut out.c2, || {
                    c2.set_pe_count(slack.pe_count());
                    let mut total = Time::ZERO;
                    for pe in 0..slack.pe_count() {
                        total +=
                            c2.pe_term(pe, slack.gaps_shared(PeId(pe as u32)), inst.horizon, t_min);
                    }
                    total + c2.bus_term(slack.bus_windows_shared(), inst.horizon, t_min)
                });
            }
            out.c1_patched += c1.patched_resource_count();
            out.c2_windows += c2.windows_recomputed();

            for (k, s) in stream.iter().step_by(ORACLE_EVERY).enumerate() {
                let naive = timed(&mut out.naive, || {
                    incdes_sched::schedule(
                        &inst.arch,
                        &[spec_of(&inst, s)],
                        Some(&inst.frozen),
                        inst.horizon,
                    )
                });
                let Ok(table) = naive else {
                    if evals[k].is_ok() {
                        out.problems
                            .push(format!("oracle: naive schedule failed where evaluate succeeded (seed {seed}, size {size}, entry {})", k * ORACLE_EVERY));
                    }
                    continue;
                };
                let slack = timed(&mut out.slack, || {
                    SlackProfile::from_table(&inst.arch, &table)
                });
                let cost = timed(&mut out.objective, || {
                    incdes_metrics::evaluate(&inst.arch, &slack, &inst.future, &weights)
                });
                out.oracle_checks += 1;
                let entry = k * ORACLE_EVERY;
                let where_ = format!("seed {seed}, size {size}, entry {entry}");
                match &evals[k] {
                    Ok(e) if e.cost == cost && e.table == table => {}
                    Ok(_) => out.problems.push(format!(
                        "oracle: MappingContext::evaluate differs from schedule + from_table + evaluate ({where_})"
                    )),
                    Err(_) => out
                        .problems
                        .push(format!("oracle: evaluate failed where the naive pipeline succeeded ({where_})")),
                }
                if full_tables[k].as_ref().ok() != Some(&table) {
                    out.problems.push(format!(
                        "oracle: schedule_with_slack table differs from the naive one ({where_})"
                    ));
                }
                if delta_tables[k].as_ref() != Some(&table) {
                    out.problems.push(format!(
                        "oracle: hinted delta table differs from the naive one ({where_})"
                    ));
                }
            }
        }
    }
    out
}

/// Store-layer timings of the churn workload.
#[derive(Debug, Default)]
pub struct StoreTiming {
    /// Mean `Store::put` / `Store::get` per scenario blob, ms.
    pub put_ms: f64,
    /// See `put_ms`.
    pub get_ms: f64,
    /// Mean blob size in KiB.
    pub blob_kb: f64,
    /// Wall-clock of the warm `run_campaign_store`, ms.
    pub warm_ms: f64,
    /// Problems found (warm executed scenarios, mismatches).
    pub problems: Vec<String>,
}

/// Cold-runs `spec` into a fresh store, times a warm rerun, then times
/// `put` / `get` of every scenario blob into a second fresh store.
pub fn store_timing(spec: &CampaignSpec, work_dir: &Path, rec: &mut Recorder) -> StoreTiming {
    let mut out = StoreTiming::default();
    let dir = work_dir.join(format!("trace-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(dir.join("a")).expect("the work directory is writable");
    let opts = StoreOptions {
        workers: 1,
        store: Some(&store),
        shard: None,
    };
    let cold = run_campaign_store(spec, &opts).expect("benchmark specs are valid");
    let start = Instant::now();
    let warm = rec
        .time("store.warm", || run_campaign_store(spec, &opts))
        .expect("valid spec");
    out.warm_ms = start.elapsed().as_secs_f64() * 1e3;
    if warm.stats.executed != 0 || warm.report != cold.report {
        out.problems
            .push("warm store run did not return the cold report from cache".to_string());
    }
    let fresh = Store::open(dir.join("b")).expect("the work directory is writable");
    let keys = spec.scenarios();
    let (mut put, mut get, mut bytes) = ((0usize, 0u64), (0usize, 0u64), 0usize);
    for (key, report) in keys.iter().zip(&cold.report.scenarios) {
        let store_key = scenario_store_key(spec, key).expect("valid spec");
        let payload = serde_json::to_string(report).expect("reports serialize");
        bytes += payload.len();
        rec.time("store.put", || {
            timed(&mut put, || fresh.put(&store_key, &payload))
        })
        .expect("the work directory is writable");
        let back = rec.time("store.get", || timed(&mut get, || fresh.get(&store_key)));
        if back.as_deref() != Some(payload.as_str()) {
            out.problems
                .push("store get returned a different blob".to_string());
        }
    }
    drop((store, fresh));
    let _ = std::fs::remove_dir_all(&dir);
    out.put_ms = Replay::mean_us(put) / 1e3;
    out.get_ms = Replay::mean_us(get) / 1e3;
    out.blob_kb = if keys.is_empty() {
        0.0
    } else {
        bytes as f64 / keys.len() as f64 / 1024.0
    };
    out
}

/// Whether a workload's traced run replays the stream on its search
/// sizes (search workloads) or its churn sizes.
pub fn replay_sizes(shape: &Shape, workload: Workload) -> Vec<usize> {
    match workload {
        Workload::LifecycleChurn => shape.churn_sizes.clone(),
        _ => shape.search_sizes.clone(),
    }
}
