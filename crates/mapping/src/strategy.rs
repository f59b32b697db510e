//! Strategy dispatch: AH, MH and SA behind one entry point.

use crate::context::{Evaluation, MapError, MappingContext};
use crate::im::initial_mapping;
use crate::mh::{mapping_heuristic, MhConfig};
use crate::sa::{simulated_annealing, SaConfig};
use crate::solution::Solution;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which mapping strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// AH: the initial mapping taken as-is (good for the current
    /// application, blind to the future).
    AdHoc,
    /// MH: the paper's iterative-improvement mapping heuristic.
    MappingHeuristic(MhConfig),
    /// SA: simulated annealing, the near-optimal reference.
    SimulatedAnnealing(SaConfig),
}

impl Strategy {
    /// MH with default configuration.
    pub fn mh() -> Self {
        Strategy::MappingHeuristic(MhConfig::default())
    }

    /// SA with default (generous) configuration.
    pub fn sa() -> Self {
        Strategy::SimulatedAnnealing(SaConfig::default())
    }

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::AdHoc => "AH",
            Strategy::MappingHeuristic(_) => "MH",
            Strategy::SimulatedAnnealing(_) => "SA",
        }
    }
}

/// Bookkeeping of one strategy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Schedule evaluations performed.
    pub evaluations: usize,
    /// Strategy-specific iteration count (MH improvement steps, SA
    /// accepted moves; 0 for AH).
    pub iterations: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Raw engine schedules behind the evaluations (memo misses).
    #[serde(default)]
    pub raw_schedules: usize,
    /// Raw schedules that took the delta path (record splicing) rather
    /// than a full reset — zero on the naive and full-engine tiers.
    #[serde(default)]
    pub delta_schedules: usize,
    /// Placement steps spliced from a run record instead of re-placed.
    #[serde(default)]
    pub spliced_steps: usize,
}

/// The result of running a strategy.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The chosen design alternative.
    pub solution: Solution,
    /// Its full evaluation (schedule, slack, cost).
    pub evaluation: Evaluation,
    /// Run statistics.
    pub stats: RunStats,
}

/// Runs `strategy` on `ctx`: builds the initial mapping, improves it
/// according to the strategy, and returns the final design alternative.
///
/// # Errors
///
/// [`MapError`]; in particular [`MapError::Infeasible`] when requirement
/// (a) cannot be met on the current system state.
pub fn run_strategy(ctx: &MappingContext<'_>, strategy: &Strategy) -> Result<Outcome, MapError> {
    let start = Instant::now();
    let evals_before = ctx.evaluation_count();
    let raw_before = ctx.raw_schedule_count();
    let delta_before = ctx.delta_schedule_count();
    let spliced_before = ctx.spliced_step_count();
    let initial = initial_mapping(ctx)?;
    let (solution, evaluation, iterations) = match strategy {
        Strategy::AdHoc => {
            let eval = ctx.evaluate(&initial).map_err(|e| {
                if e.is_infeasible() {
                    MapError::Infeasible { last: e }
                } else {
                    MapError::InvalidInput(e)
                }
            })?;
            (initial, eval, 0)
        }
        Strategy::MappingHeuristic(cfg) => {
            let out = mapping_heuristic(ctx, initial, cfg)?;
            (out.solution, out.evaluation, out.iterations)
        }
        Strategy::SimulatedAnnealing(cfg) => {
            let out = simulated_annealing(ctx, initial, cfg)?;
            (out.solution, out.evaluation, out.accepted)
        }
    };
    Ok(Outcome {
        solution,
        evaluation,
        stats: RunStats {
            evaluations: ctx.evaluation_count() - evals_before,
            iterations,
            elapsed: start.elapsed(),
            raw_schedules: ctx.raw_schedule_count() - raw_before,
            delta_schedules: ctx.delta_schedule_count() - delta_before,
            spliced_steps: ctx.spliced_step_count() - spliced_before,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_metrics::Weights;
    use incdes_model::prelude::*;
    use incdes_model::AppId;

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn app() -> Application {
        let mut g = ProcessGraph::new("g", Time::new(240), Time::new(240));
        let a = g.add_process(
            Process::new("a")
                .wcet(PeId(0), Time::new(15))
                .wcet(PeId(1), Time::new(18)),
        );
        let b = g.add_process(
            Process::new("b")
                .wcet(PeId(0), Time::new(12))
                .wcet(PeId(1), Time::new(12)),
        );
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        Application::new("app", vec![g])
    }

    #[test]
    fn all_strategies_produce_feasible_outcomes() {
        let arch = arch2();
        let app = app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(240),
            &future,
            &weights,
        );
        for strategy in [
            Strategy::AdHoc,
            Strategy::mh(),
            Strategy::SimulatedAnnealing(SaConfig::quick()),
        ] {
            let out = run_strategy(&ctx, &strategy).unwrap();
            assert!(
                out.evaluation.cost.is_feasible(),
                "{} failed",
                strategy.name()
            );
            assert!(out.evaluation.table.is_deadline_clean());
            assert!(out.stats.evaluations > 0);
        }
    }

    #[test]
    fn mh_and_sa_no_worse_than_ah() {
        let arch = arch2();
        let app = app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(240),
            &future,
            &weights,
        );
        let ah = run_strategy(&ctx, &Strategy::AdHoc).unwrap();
        let mh = run_strategy(&ctx, &Strategy::mh()).unwrap();
        let sa = run_strategy(&ctx, &Strategy::SimulatedAnnealing(SaConfig::quick())).unwrap();
        assert!(mh.evaluation.cost.total <= ah.evaluation.cost.total + 1e-9);
        assert!(sa.evaluation.cost.total <= ah.evaluation.cost.total + 1e-9);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::AdHoc.name(), "AH");
        assert_eq!(Strategy::mh().name(), "MH");
        assert_eq!(Strategy::sa().name(), "SA");
    }
}
