//! Differential fuzz suite for delta scheduling.
//!
//! The delta path (`Scheduler::schedule_delta_with_slack`) splices
//! recorded placement prefixes and undoes/redoes only the suffix — an
//! aggressive reuse scheme whose correctness rests entirely on the
//! divergence analysis. These properties drive thousands of random
//! single- and multi-move chains (the workload the MH/SA strategies
//! produce) over random architectures, applications and frozen
//! tables, asserting the delta scheduler's output — tables *and* slack profiles — is
//! bit-equal to the one-shot [`incdes_sched::schedule`] oracle and to
//! the full-engine path at **every** step. Failures shrink to a minimal
//! failing move chain via the proptest harness.
//!
//! The `Arc`-sharing properties pin the other half of the contract:
//! profiles alias the frozen base's (and each other's) storage, and
//! mutating a returned profile is copy-on-write — never observable
//! through the base or a sibling profile.

use incdes_graph::NodeId;
use incdes_model::{
    AppId, Application, Architecture, BusConfig, Message, PeId, Process, ProcessGraph, Time,
};
use incdes_obs::counters::{self, Counter};
use incdes_sched::engine::{ChangedVar, FrozenBase, Scheduler};
use incdes_sched::slack::GapList;
use incdes_sched::{schedule, AppSpec, Hints, Mapping, MsgRef, ScheduleTable, SlackProfile};
use proptest::prelude::*;
use std::sync::Arc;

/// 3 PEs, 10-tick slots, cycle 30.
fn arch3() -> Architecture {
    Architecture::builder()
        .pe("N0")
        .pe("N1")
        .pe("N2")
        .bus(BusConfig::uniform_round(3, Time::new(10), 1).unwrap())
        .build()
        .unwrap()
}

/// Deterministically builds a layered graph from proptest-driven choices
/// (every process is allowed on all three PEs, so remap moves are always
/// structurally valid).
fn build_graph(
    layers: &[usize],
    wcets: &[u64],
    parents: &[usize],
    msg_bytes: &[u32],
    period: Time,
) -> ProcessGraph {
    let mut g = ProcessGraph::new("rg", period, period);
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut layer_of: Vec<usize> = Vec::new();
    let mut idx = 0usize;
    for (li, &count) in layers.iter().enumerate() {
        for _ in 0..count.max(1) {
            let w = 1 + wcets[idx % wcets.len()] % 8;
            let mut p = Process::new(format!("p{idx}"));
            for pe in 0..3u32 {
                p = p.wcet(PeId(pe), Time::new(w + (pe as u64 + idx as u64) % 3));
            }
            nodes.push(g.add_process(p));
            layer_of.push(li);
            idx += 1;
        }
    }
    let mut e = 0usize;
    for i in 0..nodes.len() {
        if layer_of[i] == 0 {
            continue;
        }
        let earlier: Vec<usize> = (0..nodes.len())
            .filter(|&j| layer_of[j] < layer_of[i])
            .collect();
        let parent = earlier[parents[i % parents.len()] % earlier.len()];
        let bytes = 1 + msg_bytes[e % msg_bytes.len()] % 8;
        g.add_message(
            nodes[parent],
            nodes[i],
            Message::new(format!("m{e}"), bytes),
        )
        .unwrap();
        e += 1;
    }
    g
}

/// One single-variable design move of a fuzzed chain, decoded from raw
/// proptest choices against the application's actual shape.
#[derive(Debug, Clone, Copy)]
enum ChainMove {
    /// Remap process `node` of graph 0 to PE `to` (hint reset to 0, as
    /// `incdes_mapping::Solution::apply` does for remaps).
    Remap { node: usize, to: u32 },
    /// Set the gap hint of process `node`.
    GapHint { node: usize, hint: u32 },
    /// Set the slot hint of message `edge`.
    SlotHint { edge: usize, hint: u32 },
}

fn apply_move(
    app: &Application,
    mapping: &mut Mapping,
    hints: &mut Hints,
    mv: (u8, usize, u32),
) -> ChainMove {
    let g = &app.graphs[0];
    let nodes = g.process_count();
    let edges = g.dag().edge_ids().count();
    let (kind, raw_target, raw_value) = mv;
    match kind % 3 {
        0 => {
            let node = raw_target % nodes;
            let to = raw_value % 3;
            mapping.assign(ProcRef::new(0, NodeId(node as u32)), PeId(to));
            hints.set_proc_gap(ProcRef::new(0, NodeId(node as u32)), 0);
            ChainMove::Remap { node, to }
        }
        1 => {
            let node = raw_target % nodes;
            let hint = raw_value % 3;
            hints.set_proc_gap(ProcRef::new(0, NodeId(node as u32)), hint);
            ChainMove::GapHint { node, hint }
        }
        _ if edges > 0 => {
            let edge = raw_target % edges;
            let hint = raw_value % 3;
            hints.set_msg_slot(MsgRef::new(0, incdes_graph::EdgeId(edge as u32)), hint);
            ChainMove::SlotHint { edge, hint }
        }
        _ => {
            let node = raw_target % nodes;
            let hint = raw_value % 3;
            hints.set_proc_gap(ProcRef::new(0, NodeId(node as u32)), hint);
            ChainMove::GapHint { node, hint }
        }
    }
}

use incdes_model::ProcRef;

/// The engine's changed-variable entry for one decoded move (a remap's
/// hint reset names the same process — one entry).
fn changed_var(mv: ChainMove) -> ChangedVar {
    match mv {
        ChainMove::Remap { node, .. } | ChainMove::GapHint { node, .. } => ChangedVar::Proc {
            spec: 0,
            graph: 0,
            node: NodeId(node as u32),
        },
        ChainMove::SlotHint { edge, .. } => ChangedVar::Msg {
            spec: 0,
            graph: 0,
            edge: incdes_graph::EdgeId(edge as u32),
        },
    }
}

/// A fuzzed chain's starting point on [`arch3`] at horizon 480: a
/// random frozen table (none when `frozen_layers` is empty, or when it
/// does not schedule) and the current application with its initial
/// mapping.
fn random_scene(
    layers: &[usize],
    wcets: &[u64],
    parents: &[usize],
    msg_bytes: &[u32],
    frozen_layers: &[usize],
    initial_pes: &[u32],
) -> (Option<ScheduleTable>, Application, Mapping) {
    let frozen = if frozen_layers.is_empty() {
        None
    } else {
        let fg = build_graph(frozen_layers, wcets, parents, msg_bytes, Time::new(480));
        let fapp = Application::new("frozen", vec![fg]);
        let mut fmap = Mapping::new();
        for (i, (pr, _)) in fapp.processes().enumerate() {
            fmap.assign(pr, PeId(initial_pes[i % initial_pes.len()]));
        }
        let fhints = Hints::empty();
        let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &fhints);
        schedule(&arch3(), &[fspec], None, Time::new(480)).ok()
    };
    let g = build_graph(layers, wcets, parents, msg_bytes, Time::new(240));
    let app = Application::new("current", vec![g]);
    let mut mapping = Mapping::new();
    for (i, (pr, _)) in app.processes().enumerate() {
        mapping.assign(pr, PeId(initial_pes[(i + 3) % initial_pes.len()]));
    }
    (frozen, app, mapping)
}

/// Case count of the differential properties: 48 in an ordinary test
/// run, overridable through `PROPTEST_CASES` — CI runs a dedicated
/// high-case job on this suite.
fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// The heart of the suite: a persistent delta scheduler walking a
    /// random single-move chain over a random frozen base agrees with
    /// the one-shot `schedule()` oracle *and* the full-engine path on
    /// every step — tables, slack profiles and errors alike.
    #[test]
    fn delta_chain_matches_oracle_at_every_step(
        layers in proptest::collection::vec(1usize..4, 1..4),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        frozen_layers in proptest::collection::vec(1usize..3, 0..3),
        initial_pes in proptest::collection::vec(0u32..3, 16),
        moves in proptest::collection::vec((0u8..3, 0usize..64, 0u32..8), 1..24),
    ) {
        let arch = arch3();
        let horizon = Time::new(480);
        let (frozen, app, mut mapping) =
            random_scene(&layers, &wcets, &parents, &msg_bytes, &frozen_layers, &initial_pes);
        let mut hints = Hints::empty();

        let base = FrozenBase::new(&arch, frozen.as_ref(), horizon).unwrap();
        let mut delta = Scheduler::new();
        let mut hinted = Scheduler::new();
        let mut full = Scheduler::new();

        // Step 0: the initial solution, then one single move per step.
        for step in 0..=moves.len() {
            let decoded = if step == 0 {
                None
            } else {
                Some(apply_move(&app, &mut mapping, &mut hints, moves[step - 1]))
            };
            // The hinted path gets the changed-variable list of the move.
            let changed: Vec<ChangedVar> = decoded.into_iter().map(changed_var).collect();
            let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
            let oracle = schedule(&arch, &[spec], frozen.as_ref(), horizon);
            let full_run = full.schedule_with_slack(&arch, &[spec], &base);
            let delta_run = delta.schedule_delta_with_slack(&arch, &[spec], &base);
            let hinted_run = if step == 0 {
                hinted.schedule_delta_with_slack(&arch, &[spec], &base)
            } else {
                hinted.schedule_delta_hinted_with_slack(&arch, &[spec], &base, &changed)
            };
            match (oracle, full_run, delta_run, hinted_run) {
                (Ok(reference), Ok((ft, fs)), Ok((dt, ds)), Ok((ht, hs))) => {
                    prop_assert_eq!(&dt, &reference,
                        "delta table diverged at step {} ({:?})", step, decoded);
                    prop_assert_eq!(&ft, &reference,
                        "full-engine table diverged at step {} ({:?})", step, decoded);
                    prop_assert_eq!(&ht, &reference,
                        "hinted table diverged at step {} ({:?})", step, decoded);
                    let reference_slack = SlackProfile::from_table(&arch, &reference);
                    prop_assert_eq!(&ds, &reference_slack,
                        "delta slack diverged at step {} ({:?})", step, decoded);
                    prop_assert_eq!(&fs, &reference_slack,
                        "full-engine slack diverged at step {} ({:?})", step, decoded);
                    prop_assert_eq!(&hs, &reference_slack,
                        "hinted slack diverged at step {} ({:?})", step, decoded);
                }
                (Err(a), Err(b), Err(c), Err(d)) => {
                    prop_assert_eq!(&a, &b, "full-engine error diverged at step {}", step);
                    prop_assert_eq!(&a, &c, "delta error diverged at step {}", step);
                    prop_assert_eq!(&a, &d, "hinted error diverged at step {}", step);
                }
                (a, b, c, d) => prop_assert!(
                    false,
                    "feasibility diverged at step {} ({:?}): oracle {:?} full {:?} delta {:?} hinted {:?}",
                    step, decoded, a.is_ok(), b.is_ok(), c.is_ok(), d.is_ok()
                ),
            }
        }
        // The chain must actually exercise the splice machinery: the
        // base, app structure and record survive every step (failed
        // runs roll back and keep a partial record), so every raw
        // schedule after the first must take the delta path.
        prop_assert_eq!(
            delta.delta_schedule_count(),
            delta.raw_schedule_count() - 1,
            "delta path disengaged over {} raw schedules",
            delta.raw_schedule_count()
        );
    }

    /// Multi-variable hinted diffs: every step applies 1..=8 random
    /// moves at once (an MH trial right after an acceptance, an SA
    /// jump) and hands the engine the sorted, deduplicated union of
    /// the touched variables, starting from a fresh scheduler with an
    /// empty list. Tables, slack profiles and errors must equal the
    /// `schedule()` oracle at every step.
    #[test]
    fn multi_variable_hinted_chain_matches_oracle(
        layers in proptest::collection::vec(1usize..4, 1..4),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        frozen_layers in proptest::collection::vec(1usize..3, 0..3),
        initial_pes in proptest::collection::vec(0u32..3, 16),
        steps in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0usize..64, 0u32..8), 1..=8),
            1..12,
        ),
    ) {
        let arch = arch3();
        let horizon = Time::new(480);
        let (frozen, app, mut mapping) =
            random_scene(&layers, &wcets, &parents, &msg_bytes, &frozen_layers, &initial_pes);
        let mut hints = Hints::empty();

        let base = FrozenBase::new(&arch, frozen.as_ref(), horizon).unwrap();
        let mut hinted = Scheduler::new();

        for step in 0..=steps.len() {
            let mut changed: Vec<ChangedVar> = Vec::new();
            let mut decoded = Vec::new();
            if step > 0 {
                for &mv in &steps[step - 1] {
                    let m = apply_move(&app, &mut mapping, &mut hints, mv);
                    changed.push(changed_var(m));
                    decoded.push(m);
                }
            }
            changed.sort_unstable();
            changed.dedup();
            let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
            let oracle = schedule(&arch, &[spec], frozen.as_ref(), horizon);
            let hinted_run = hinted.schedule_delta_hinted_with_slack(&arch, &[spec], &base, &changed);
            match (oracle, hinted_run) {
                (Ok(reference), Ok((ht, hs))) => {
                    prop_assert_eq!(&ht, &reference,
                        "hinted table diverged at step {} ({:?})", step, decoded);
                    let reference_slack = SlackProfile::from_table(&arch, &reference);
                    prop_assert_eq!(&hs, &reference_slack,
                        "hinted slack diverged at step {} ({:?})", step, decoded);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(&a, &b, "hinted error diverged at step {} ({:?})", step, decoded);
                }
                (a, b) => prop_assert!(
                    false,
                    "feasibility diverged at step {} ({:?}): oracle {:?} hinted {:?}",
                    step, decoded, a.is_ok(), b.is_ok()
                ),
            }
        }
    }

    /// Revisit-chain fuzz: a chain hopping among a small palette of
    /// solutions in random order (A→B→A revisits, jumps of several
    /// remaps at once) always splices from the live record of the run
    /// just before it, and stays bit-equal to the one-shot oracle and
    /// the full-engine path at every step.
    #[test]
    fn revisit_chain_matches_oracle(
        pes in proptest::collection::vec(0u32..3, 24),
        visits in proptest::collection::vec(0usize..4, 2..16),
    ) {
        let arch = arch3();
        let horizon = Time::new(240);
        let mut g = ProcessGraph::new("wide", horizon, horizon);
        for i in 0..6 {
            let mut p = Process::new(format!("p{i}"));
            for pe in 0..3u32 {
                p = p.wcet(PeId(pe), Time::new(5 + (i % 4) as u64));
            }
            g.add_process(p);
        }
        let app = Application::new("palette", vec![g]);
        // Palette of four candidate solutions over the same six nodes.
        let palette: Vec<Mapping> = (0..4)
            .map(|s| {
                let mut m = Mapping::new();
                for (i, (pr, _)) in app.processes().enumerate() {
                    m.assign(pr, PeId(pes[s * 6 + i]));
                }
                m
            })
            .collect();

        let hints = Hints::empty();
        let base = FrozenBase::new(&arch, None, horizon).unwrap();
        let mut engine = Scheduler::new();
        let mut full = Scheduler::new();

        for (step, &sol) in visits.iter().enumerate() {
            let spec = AppSpec::new(AppId(0), &app, &palette[sol], &hints);
            let reference = schedule(&arch, &[spec], None, horizon).unwrap();
            let (dt, ds) = engine.schedule_delta_with_slack(&arch, &[spec], &base).unwrap();
            let (ft, fs) = full.schedule_with_slack(&arch, &[spec], &base).unwrap();
            prop_assert_eq!(&dt, &reference, "delta table diverged at step {}", step);
            prop_assert_eq!(&ft, &reference, "full table diverged at step {}", step);
            let reference_slack = SlackProfile::from_table(&arch, &reference);
            prop_assert_eq!(&ds, &reference_slack, "delta slack diverged at step {}", step);
            prop_assert_eq!(&fs, &reference_slack, "full slack diverged at step {}", step);
        }
        prop_assert_eq!(
            engine.delta_schedule_count(),
            engine.raw_schedule_count() - 1,
            "revisit chain disengaged the delta path"
        );
    }

    /// Shared-storage aliasing property: however a chain of evaluations
    /// shares gap-list storage, deriving a *modified* profile from one
    /// of them (copying the storage out, editing it, rebuilding via
    /// `from_shared` — the only way to "mutate" the immutable
    /// `Arc<[..]>` lists) is never observable through the frozen base
    /// or a sibling profile.
    #[test]
    fn mutating_a_profile_never_leaks_into_base_or_siblings(
        layers in proptest::collection::vec(1usize..3, 1..3),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        initial_pes in proptest::collection::vec(0u32..3, 8),
        moves in proptest::collection::vec((0u8..3, 0usize..64, 0u32..8), 1..6),
        poison_pe in 0u32..3,
    ) {
        let arch = arch3();
        let horizon = Time::new(240);
        let g = build_graph(&layers, &wcets, &parents, &msg_bytes, Time::new(240));
        let app = Application::new("current", vec![g]);
        let mut mapping = Mapping::new();
        for (i, (pr, _)) in app.processes().enumerate() {
            mapping.assign(pr, PeId(initial_pes[i % initial_pes.len()]));
        }
        let mut hints = Hints::empty();
        let base = FrozenBase::empty(&arch, horizon).unwrap();
        let mut engine = Scheduler::new();

        let mut profiles: Vec<SlackProfile> = Vec::new();
        for step in 0..=moves.len() {
            if step > 0 {
                apply_move(&app, &mut mapping, &mut hints, moves[step - 1]);
            }
            let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
            if let Ok((_, slack)) = engine.schedule_delta_with_slack(&arch, &[spec], &base) {
                profiles.push(slack);
            }
        }
        prop_assert!(!profiles.is_empty(), "some step should be feasible");

        // Snapshot everything, then poison the *last* profile in place.
        let base_snapshot: Vec<Vec<(Time, Time)>> =
            (0..3).map(|i| base.gaps_of(PeId(i)).to_vec()).collect();
        let base_bus_snapshot = base.bus_windows().to_vec();
        let sibling_snapshots: Vec<SlackProfile> = profiles.clone();

        let last = profiles.last().unwrap();
        let mut poisoned_gaps: Vec<GapList> = (0..3)
            .map(|i| Arc::clone(last.gaps_shared(PeId(i))))
            .collect();
        let mut edited = poisoned_gaps[poison_pe as usize].to_vec();
        edited.push((Time::new(7), Time::new(9)));
        poisoned_gaps[poison_pe as usize] = edited.into();
        let poisoned = SlackProfile::from_shared(last.horizon(), poisoned_gaps.into(), Vec::new().into());
        *profiles.last_mut().unwrap() = poisoned;

        for i in 0..3u32 {
            prop_assert_eq!(
                base.gaps_of(PeId(i)),
                &base_snapshot[i as usize][..],
                "base gap list of PE{} changed through a profile mutation", i
            );
        }
        prop_assert_eq!(base.bus_windows(), &base_bus_snapshot[..]);
        for (k, (sib, snap)) in profiles[..profiles.len() - 1]
            .iter()
            .zip(&sibling_snapshots)
            .enumerate()
        {
            prop_assert_eq!(sib, snap, "sibling profile {} changed", k);
        }
        // And the poisoned profile itself really changed (CoW happened,
        // not a silent no-op).
        prop_assert!(profiles.last().unwrap().bus_windows().is_empty());
    }
}

/// Deterministic splice regression: a long chain of hint toggles on one
/// node of a wide graph must splice most steps (the untouched siblings'
/// placements are reused), and still match the oracle bit-for-bit.
#[test]
fn hint_toggle_chain_splices_most_steps() {
    use incdes_sched::{JobId, ScheduledJob};
    let arch = arch3();
    let horizon = Time::new(240);
    let mut g = ProcessGraph::new("wide", Time::new(240), Time::new(240));
    for i in 0..10 {
        let mut p = Process::new(format!("p{i}"));
        for pe in 0..3u32 {
            p = p.wcet(PeId(pe), Time::new(5 + (i % 4) as u64));
        }
        g.add_process(p);
    }
    let app = Application::new("wide", vec![g]);
    let mut mapping = Mapping::new();
    for (pr, _) in app.processes() {
        mapping.assign(pr, PeId(pr.node.index() as u32 % 3));
    }
    let mut hints = Hints::empty();
    // A frozen blocker mid-horizon on every PE keeps two feasible gaps
    // around, so both hint values (0 and 1) stay schedulable.
    let frozen = ScheduleTable::new(
        horizon,
        (0..3u32)
            .map(|pe| ScheduledJob {
                job: JobId::new(AppId(9), 0, 0, NodeId(pe)),
                pe: PeId(pe),
                start: Time::new(100),
                end: Time::new(120),
                release: Time::ZERO,
                deadline: horizon,
            })
            .collect(),
        vec![],
    );
    let base = FrozenBase::new(&arch, Some(&frozen), horizon).unwrap();
    let mut engine = Scheduler::new();
    let mut materialized = 0;

    for round in 0..20u32 {
        // Toggle the hint of p8 only — the job the list scheduler pops
        // dead last (smallest wcet → largest urgency, highest index
        // among its tie group), so the spliced prefix covers everything
        // else and the suffix touches a single PE.
        hints.set_proc_gap(ProcRef::new(0, NodeId(8)), round % 2);
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let before = counters::snapshot();
        let (table, slack) = engine
            .schedule_delta_with_slack(&arch, &[spec], &base)
            .unwrap();
        materialized = counters::snapshot()
            .delta_since(&before)
            .get(Counter::SlackGapsMaterialized);
        let reference = schedule(&arch, &[spec], Some(&frozen), horizon).unwrap();
        assert_eq!(table, reference, "round {round}");
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
    }
    assert_eq!(engine.delta_schedule_count(), 19, "every revisit spliced");
    assert!(
        engine.spliced_step_count() > 0,
        "hint-only moves must splice a prefix"
    );
    // Profiles of the final run share the base storage for PEs the
    // current app never touched — none here (all PEs carry jobs), so
    // instead check the previous-run reuse: at least one gap list was
    // *not* rebuilt on the last run.
    assert!(
        materialized < 3,
        "unchanged PEs must alias the previous profile ({materialized} fresh)"
    );
}

/// Deterministic cyclic-chain regression: A→B→C→A→B→C→A→B→C revisits
/// each solution after two others ran. The engine keeps one record —
/// its own, from the run just before — so every step splices from that
/// live record, never from an older run of the same solution. A revisit
/// of A therefore diffs against C, whose remapped node truncates the
/// splice at its pop step: it never keeps all ten steps, although A
/// itself ran before. Results stay bit-equal to the oracle at every
/// step; the spliced-step counts pin the predecessor choice.
#[test]
fn cyclic_chain_splices_from_own_record() {
    let arch = arch3();
    let horizon = Time::new(240);
    let mut g = ProcessGraph::new("wide", horizon, horizon);
    for i in 0..10 {
        let mut p = Process::new(format!("p{i}"));
        for pe in 0..3u32 {
            p = p.wcet(PeId(pe), Time::new(5 + (i % 4) as u64));
        }
        g.add_process(p);
    }
    let app = Application::new("wide", vec![g]);
    let hints = Hints::empty();

    // A is the base assignment; B remaps node 0, C remaps node 1.
    let mut map_a = Mapping::new();
    for (pr, _) in app.processes() {
        map_a.assign(pr, PeId(pr.node.index() as u32 % 3));
    }
    let mut map_b = map_a.clone();
    map_b.assign(ProcRef::new(0, NodeId(0)), PeId(1));
    let mut map_c = map_a.clone();
    map_c.assign(ProcRef::new(0, NodeId(1)), PeId(2));
    let solutions = [&map_a, &map_b, &map_c];

    let base = FrozenBase::new(&arch, None, horizon).unwrap();
    let mut engine = Scheduler::new();
    let mut spliced = Vec::new();
    for step in 0..9 {
        let spec = AppSpec::new(AppId(0), &app, solutions[step % 3], &hints);
        let reference = schedule(&arch, &[spec], None, horizon).unwrap();
        let before = engine.spliced_step_count();
        let (table, slack) = engine
            .schedule_delta_with_slack(&arch, &[spec], &base)
            .unwrap();
        assert_eq!(table, reference, "step {step}");
        assert_eq!(
            slack,
            SlackProfile::from_table(&arch, &reference),
            "step {step}"
        );
        spliced.push(engine.spliced_step_count() - before);
    }
    // The first run has no record; every later one splices the live one.
    assert_eq!(engine.delta_schedule_count(), 8);
    // B keeps A's prefix up to node 0's pop step (7 of 10); C after B
    // and A after C both stop at node 1's (4). Each cycle repeats the
    // last, and no revisit of A keeps its whole ten-step record.
    assert_eq!(spliced, vec![0, 7, 4, 4, 7, 4, 4, 7, 4]);
}
