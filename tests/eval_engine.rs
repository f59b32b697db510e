//! Facade-level regression suite for the incremental evaluation engine:
//! the `DesignCost` leg of the three-tier pipeline equivalence — naive
//! (`schedule()` from scratch) vs. full engine
//! (`with_full_evaluation()`, the PR 4 reset-and-replace path) vs. the
//! default **delta-scheduling** path — (the table and slack legs live in
//! `crates/sched/tests/engine_equivalence.rs` and
//! `crates/sched/tests/delta_equivalence.rs`), the `evaluation_count` /
//! `raw_schedule_count` / memo semantics the paper tables and the
//! `figures bench-eval` guard rely on, and the SA best-snapshot
//! bookkeeping.

use incdes::mapping::{
    initial_mapping, run_strategy, MappingContext, MhConfig, Move, SaConfig, Solution, Strategy,
};
use incdes::model::prelude::*;
use incdes::model::AppId;
use incdes::sched::MsgRef;
use incdes::synth::{generate_application, generate_architecture, SynthConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn cfg() -> SynthConfig {
    SynthConfig {
        pe_count: 3,
        slot_length: Time::new(8),
        rounds: 1,
        bytes_per_tick: 8,
        periods: vec![Time::new(240), Time::new(480)],
        graph_size: (4, 9),
        depth: (2, 3),
        wcet: (2, 8),
        pe_allow_prob: 0.7,
        wcet_spread: 0.3,
        msg_bytes: (2, 8),
        edge_extra_prob: 0.1,
    }
}

/// Builds a frozen system of `existing` processes plus a current app.
struct Fixture {
    arch: Architecture,
    app: Application,
    frozen: incdes::sched::ScheduleTable,
    horizon: Time,
    future: FutureProfile,
    weights: incdes::metrics::Weights,
}

impl Fixture {
    fn build(seed: u64, existing: usize, current: usize) -> Fixture {
        Fixture::build_with_demand(seed, existing, current, 10)
    }

    /// Like [`Fixture::build`] with an explicit future-application
    /// demand: a large `demand` keeps the objective above zero, so the
    /// search strategies explore instead of stopping on the first
    /// perfect solution.
    fn build_with_demand(seed: u64, existing: usize, current: usize, demand: usize) -> Fixture {
        let cfg = cfg();
        let arch = generate_architecture(&cfg).unwrap();
        let future = incdes::synth::future_profile_for(&cfg, demand);
        let weights = incdes::metrics::Weights::default();
        let mut system = incdes::core::System::new(arch.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut committed = 0usize;
        let mut i = 0usize;
        while committed < existing {
            let n = 20.min(existing - committed).max(1);
            let app = generate_application(&cfg, &format!("e{i}"), n, &mut rng).unwrap();
            system
                .add_application(app, &future, &weights, &Strategy::AdHoc)
                .expect("fixture existing apps fit");
            committed += n;
            i += 1;
        }
        let app = generate_application(&cfg, "current", current, &mut rng).unwrap();
        let mut periods = vec![system.horizon()];
        periods.extend(app.graphs.iter().map(|g| g.period));
        let horizon = incdes::model::time::hyperperiod(periods).unwrap();
        let frozen = system.table().replicate_to(&arch, horizon).unwrap();
        Fixture {
            arch,
            app,
            frozen,
            horizon,
            future,
            weights,
        }
    }

    fn context(&self) -> MappingContext<'_> {
        MappingContext::new(
            &self.arch,
            AppId(9),
            &self.app,
            Some(&self.frozen),
            self.horizon,
            &self.future,
            &self.weights,
        )
    }
}

/// A deterministic random walk of design alternatives.
fn walk(fixture: &Fixture, count: usize, seed: u64) -> Vec<Solution> {
    let scratch = fixture.context();
    let mut current = initial_mapping(&scratch).expect("fixture current app fits");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let procs: Vec<(ProcRef, Vec<PeId>)> = fixture
        .app
        .processes()
        .map(|(r, p)| (r, p.wcets.iter().map(|(pe, _)| pe).collect()))
        .collect();
    let msgs: Vec<MsgRef> = fixture
        .app
        .graphs
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.dag().edge_ids().map(move |e| MsgRef::new(gi, e)))
        .collect();
    let mut out = vec![current.clone()];
    while out.len() < count {
        let mv = match rng.gen_range(0u32..3) {
            0 => {
                let (pr, pes) = &procs[rng.gen_range(0..procs.len())];
                Move::Remap {
                    proc_ref: *pr,
                    to: pes[rng.gen_range(0..pes.len())],
                }
            }
            1 => {
                let (pr, _) = &procs[rng.gen_range(0..procs.len())];
                Move::ProcSlack {
                    proc_ref: *pr,
                    gap: rng.gen_range(0u32..3),
                }
            }
            _ if !msgs.is_empty() => Move::MsgSlack {
                msg: msgs[rng.gen_range(0..msgs.len())],
                slot: rng.gen_range(0u32..3),
            },
            _ => continue,
        };
        current.apply(&mv);
        out.push(current.clone());
    }
    out
}

/// All three pipelines agree on every alternative of a random walk —
/// table, slack and cost — over a non-trivial frozen base. The walk's
/// consecutive solutions differ by one move, so the default context
/// actually exercises the delta path (pinned by the counter).
#[test]
fn engine_and_naive_agree_on_cost() {
    let fixture = Fixture::build(7, 40, 12);
    let naive = fixture.context().with_naive_evaluation();
    let full = fixture.context().with_full_evaluation();
    let delta = fixture.context();
    let mut feasible = 0usize;
    for sol in walk(&fixture, 60, 11) {
        match (
            naive.evaluate(&sol),
            full.evaluate(&sol),
            delta.evaluate(&sol),
        ) {
            (Ok(a), Ok(b), Ok(c)) => {
                assert_eq!(a.table, b.table);
                assert_eq!(a.slack, b.slack);
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.table, c.table);
                assert_eq!(a.slack, c.slack);
                assert_eq!(a.cost, c.cost);
                feasible += 1;
            }
            (Err(a), Err(b), Err(c)) => {
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
            (a, b, c) => panic!(
                "feasibility diverged: naive {:?} full {:?} delta {:?}",
                a.is_ok(),
                b.is_ok(),
                c.is_ok()
            ),
        }
    }
    assert!(feasible > 0, "walk must contain feasible alternatives");
    assert_eq!(
        naive.delta_schedule_count(),
        0,
        "naive path never delta-schedules"
    );
    assert_eq!(
        full.delta_schedule_count(),
        0,
        "full-engine path never delta-schedules"
    );
    assert!(
        delta.delta_schedule_count() > 0,
        "single-move walk must engage the delta path"
    );
    assert!(
        delta.spliced_step_count() > 0,
        "delta runs must splice recorded prefixes"
    );
}

/// `evaluation_count` keeps its historical meaning (every call counts)
/// while the memo keeps `raw_schedule_count` strictly smaller on a
/// stream with revisits.
#[test]
fn memo_counts_requested_vs_raw_schedules() {
    let fixture = Fixture::build(3, 20, 8);
    let ctx = fixture.context();
    let solutions = walk(&fixture, 10, 5);
    // Evaluate the stream twice: the second pass is pure memo hits.
    for sol in solutions.iter().chain(solutions.iter()) {
        let _ = ctx.evaluate(sol);
    }
    assert_eq!(ctx.evaluation_count(), 20);
    assert!(ctx.raw_schedule_count() <= 10);
    assert!(
        ctx.memo_hit_count() >= 10,
        "second pass must be served from the memo (hits: {})",
        ctx.memo_hit_count()
    );
    // Memoized results are equal to fresh ones.
    let fresh = fixture.context();
    for sol in &solutions {
        match (ctx.evaluate(sol), fresh.evaluate(sol)) {
            (Ok(a), Ok(b)) => assert_eq!(a.cost, b.cost),
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("memoized feasibility diverged"),
        }
    }
}

/// Strategy identity across the three pipelines on a grid of sizes ×
/// seeds: AH, MH and SA produce identical solutions, costs,
/// `evaluation_count()`s and tables whether evaluations run naively,
/// on the full engine, or on the default delta path.
#[test]
fn strategies_identical_across_pipelines() {
    // (seed, frozen system size, current-app size, future demand) grid.
    // The first cells converge in a handful of evaluations (cost hits
    // zero immediately); the demanding last cell keeps the objective
    // positive so MH/SA explore long rejection chains, which is where
    // the delta path must engage.
    let grid = [
        (13u64, 30usize, 10usize, 10usize),
        (21, 20, 6, 10),
        (5, 45, 12, 60),
    ];
    let mut delta_engaged = 0usize;
    for (seed, existing, current, demand) in grid {
        let fixture = Fixture::build_with_demand(seed, existing, current, demand);
        for strategy in [
            Strategy::AdHoc,
            Strategy::MappingHeuristic(MhConfig {
                max_iterations: 6,
                ..MhConfig::default()
            }),
            Strategy::SimulatedAnnealing(SaConfig {
                max_evaluations: 120,
                ..SaConfig::quick()
            }),
        ] {
            let tag = format!("{} (seed {seed}, {existing}+{current})", strategy.name());
            let naive_ctx = fixture.context().with_naive_evaluation();
            let full_ctx = fixture.context().with_full_evaluation();
            let delta_ctx = fixture.context();
            let a = run_strategy(&naive_ctx, &strategy).expect("fixture is feasible");
            let b = run_strategy(&full_ctx, &strategy).expect("fixture is feasible");
            let c = run_strategy(&delta_ctx, &strategy).expect("fixture is feasible");
            assert_eq!(a.solution, b.solution, "{tag} full solution");
            assert_eq!(a.solution, c.solution, "{tag} delta solution");
            assert_eq!(a.evaluation.cost, b.evaluation.cost, "{tag} full cost");
            assert_eq!(a.evaluation.cost, c.evaluation.cost, "{tag} delta cost");
            assert_eq!(a.evaluation.table, b.evaluation.table);
            assert_eq!(a.evaluation.table, c.evaluation.table);
            assert_eq!(a.evaluation.slack, c.evaluation.slack, "{tag} delta slack");
            assert_eq!(
                a.stats.evaluations, b.stats.evaluations,
                "{tag} full evaluation count"
            );
            assert_eq!(
                a.stats.evaluations, c.stats.evaluations,
                "{tag} delta evaluation count"
            );
            assert!(
                delta_ctx.raw_schedule_count() <= delta_ctx.evaluation_count(),
                "raw schedules never exceed requested evaluations"
            );
            assert_eq!(full_ctx.delta_schedule_count(), 0);
            delta_engaged += delta_ctx.delta_schedule_count();
        }
    }
    assert!(
        delta_engaged > 0,
        "MH/SA neighborhoods must engage the delta path somewhere on the grid"
    );
}

/// SA's lightweight best tracking: the returned evaluation really is the
/// evaluation of the returned solution, and the final snapshot
/// re-derivation does not inflate `evaluation_count` beyond the initial
/// evaluation plus the proposed trials — on the default delta path and
/// on the full-engine oracle alike, with identical snapshots.
#[test]
fn sa_best_snapshot_is_consistent() {
    let fixture = Fixture::build(17, 20, 9);
    let cfg = SaConfig {
        max_evaluations: 150,
        ..SaConfig::quick()
    };
    let ctx = fixture.context();
    let before = ctx.evaluation_count();
    let out = run_strategy(&ctx, &Strategy::SimulatedAnnealing(cfg)).expect("feasible");
    // initial_mapping evaluations + 1 initial SA evaluation + at most
    // max_evaluations trials; the final snapshot must not count.
    assert!(ctx.evaluation_count() <= before + out.stats.evaluations);
    let check = fixture.context();
    let fresh = check.evaluate(&out.solution).expect("best is feasible");
    assert_eq!(fresh.cost, out.evaluation.cost);
    assert_eq!(fresh.table, out.evaluation.table);

    // The full-engine pipeline lands on the same best snapshot.
    let full_ctx = fixture.context().with_full_evaluation();
    let full_out = run_strategy(&full_ctx, &Strategy::SimulatedAnnealing(cfg)).expect("feasible");
    assert_eq!(full_out.solution, out.solution);
    assert_eq!(full_out.evaluation.cost, out.evaluation.cost);
    assert_eq!(full_out.evaluation.table, out.evaluation.table);
    assert_eq!(full_out.stats.evaluations, out.stats.evaluations);
}

/// The satellite contract of the differential fuzz suite, lifted to the
/// cost level: along random single-move chains, the delta path's C1/C2
/// terms and final cost are bit-equal to the naive oracle at every
/// step (the incremental C1 multiset and the identity-keyed C2 caches
/// sit only on the delta context).
#[test]
fn delta_costs_bit_equal_along_single_move_chains() {
    for (seed, existing, current) in [(2u64, 25usize, 8usize), (11, 35, 11)] {
        let fixture = Fixture::build(seed, existing, current);
        let naive = fixture.context().with_naive_evaluation();
        let delta = fixture.context();
        let mut feasible = 0usize;
        for sol in walk(&fixture, 40, seed ^ 0xC0FFEE) {
            match (naive.evaluate(&sol), delta.evaluate(&sol)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.cost.c1_processes, b.cost.c1_processes, "C1P diverged");
                    assert_eq!(a.cost.c1_messages, b.cost.c1_messages, "C1m diverged");
                    assert_eq!(a.cost.c2_processes, b.cost.c2_processes, "C2P diverged");
                    assert_eq!(a.cost.c2_messages, b.cost.c2_messages, "C2m diverged");
                    assert_eq!(a.cost, b.cost, "final cost diverged");
                    assert_eq!(a.table, b.table);
                    assert_eq!(a.slack, b.slack);
                    feasible += 1;
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!(
                    "feasibility diverged: naive {:?} delta {:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
        assert!(feasible > 0);
        assert!(delta.delta_schedule_count() > 0, "chain must splice");
    }
}
