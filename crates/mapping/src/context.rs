//! Evaluation context shared by all mapping strategies.
//!
//! [`MappingContext::evaluate`] is the strategies' inner loop, called
//! thousands of times per scenario. It runs on the incremental
//! evaluation engine of `incdes_sched::engine`:
//!
//! * the frozen schedule is replayed and validated **once** into an
//!   `Arc<FrozenBase>` — built lazily on the first evaluation, or
//!   injected pre-built via
//!   [`MappingContext::with_frozen_base`] so the campaign runner's
//!   per-step contexts share one bake per system state;
//! * a persistent [`Scheduler`] reuses its scratch arenas (job records,
//!   ready heap, per-graph priority cache) across evaluations;
//! * **delta scheduling**: the context keeps the solution key of its
//!   last raw schedule — the *live* solution, which the scheduler's job
//!   arena and live run record describe. Every raw schedule diffs the
//!   candidate's key against it and hands the changed design variables
//!   to the engine, which patches the arena with exactly those
//!   variables and splices the live record's unchanged prefix (the
//!   first raw schedule has no live solution and expands in full). See
//!   the decision rules in `incdes_sched::engine`;
//! * the slack profiles are `Arc`-backed, so untouched resources alias
//!   the frozen base's (or the previous evaluation's) gap lists, and
//!   the per-resource C2 terms ([`incdes_metrics::C2Cache`]) plus the
//!   C1 bin-packing multiset ([`incdes_metrics::C1Cache`]) are cached
//!   **by storage identity**: an aliased gap list is never re-measured
//!   or re-packed — and a gap list that *did* change re-measures only
//!   the `t_min` windows its diff span intersects;
//! * a solution-fingerprint memo returns previously evaluated design
//!   alternatives without re-scheduling, so SA's revisited states and
//!   MH's widening rounds skip duplicate schedules.
//!
//! [`MappingContext::evaluation_count`] keeps its historical meaning —
//! every [`evaluate`](MappingContext::evaluate) call counts, memo hit or
//! not — while [`MappingContext::raw_schedule_count`] reports how many
//! schedules were actually executed and
//! [`MappingContext::delta_schedule_count`] how many of those took the
//! delta path. Two reference pipelines are retained as oracles for
//! differential tests and the `figures bench-eval` measurements:
//! [`MappingContext::with_naive_evaluation`] (one-shot `schedule()` +
//! `SlackProfile::from_table` + `objective::evaluate`, no reuse at all)
//! and [`MappingContext::with_full_evaluation`] (the PR 4 engine: base +
//! scratch reuse + memo, but every raw schedule re-places all jobs).

use crate::solution::Solution;
use incdes_graph::{EdgeId, NodeId};
use incdes_metrics::objective::{self, DesignCost, Weights};
use incdes_metrics::{C1Cache, C2Cache};
use incdes_model::{AppId, Application, Architecture, FutureProfile, PeId, Time};
use incdes_obs::counters::{self, Counter};
use incdes_obs::phase::{self, Phase};
use incdes_sched::engine::{check_horizon, ChangedVar, FrozenBase, Scheduler};
use incdes_sched::{schedule, AppSpec, SchedError, ScheduleTable, SlackProfile};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// How a mapping strategy parallelizes trial evaluation within one
/// scenario.
///
/// The contract of [`SearchParallelism::Parallel`] is that `threads`
/// only multiplexes *execution*: every search-visible result — the
/// accepted MH move, the solutions and costs, `evaluation_count()`, the
/// iteration counts, every campaign report — is byte-identical for any
/// thread count ≥ 1. MH candidate batches reduce in candidate-index
/// order, and batch workers score each miss against the shared
/// `Arc<FrozenBase>` on the full (splice-free) path with fresh objective
/// caches, so no counter depends on how candidates were partitioned. SA
/// runs its one seeded chain on the context's own engine in either mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchParallelism {
    /// The historical single-threaded path: candidates are evaluated one
    /// by one on the context's own engine (memo + delta splicing). The
    /// default.
    Sequential,
    /// Deterministic parallel evaluation of MH candidate batches.
    Parallel {
        /// Worker threads for MH candidate batches. Clamped to ≥ 1; `1`
        /// runs the identical batch semantics inline.
        threads: usize,
    },
}

impl Default for SearchParallelism {
    fn default() -> Self {
        SearchParallelism::Sequential
    }
}

impl SearchParallelism {
    /// Parallel candidate evaluation over `n` threads (the configuration
    /// the `INCDES_SEARCH_THREADS` differential-CI hook uses).
    #[must_use]
    pub fn threads(n: usize) -> Self {
        SearchParallelism::Parallel { threads: n.max(1) }
    }
}

/// Dispatched batches with fewer deduped misses than this run on the
/// single inline worker: below ~16 misses the per-batch `thread::scope`
/// spawn costs more than the evaluations it parallelizes. Execution
/// only — the batch protocol gives the same bytes either way.
const BATCH_CUTOVER: usize = 16;

/// Deterministic worker count for one dispatched miss batch: one
/// worker per job up to `threads`, capped at the machine's available
/// parallelism (oversubscribing a batch of schedules onto fewer cores
/// only adds context switches), and collapsed to the inline worker for
/// batches below `cutover`. Pure so the rule is unit-testable; only
/// wall-clock depends on it — results and counters are identical for
/// every return value ≥ 1 by the batch-protocol contract.
fn batch_worker_count(threads: usize, jobs: usize, cutover: usize, hw: usize) -> usize {
    if jobs < cutover {
        1
    } else {
        threads.min(jobs).min(hw.max(1)).max(1)
    }
}

/// Process-wide default parallelism, for differential CI runs:
/// `INCDES_SEARCH_THREADS=N` makes every context built without an
/// explicit [`MappingContext::with_parallelism`] evaluate MH batches
/// over `N` threads. Unset or `0` means sequential; an
/// unparsable value warns once on stderr and is ignored.
fn env_parallelism() -> SearchParallelism {
    static CACHE: OnceLock<SearchParallelism> = OnceLock::new();
    *CACHE.get_or_init(|| {
        match incdes_obs::diag::env_usize(
            "INCDES_SEARCH_THREADS",
            "expected a thread count (0 or unset = sequential)",
        ) {
            Some(0) | None => SearchParallelism::Sequential,
            Some(n) => SearchParallelism::threads(n),
        }
    })
}

/// Error from a mapping strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The application has no processes to map.
    EmptyApplication,
    /// No feasible design alternative was found (requirement *a* cannot be
    /// met on this system within the strategy's search budget).
    Infeasible {
        /// The scheduler error of the last attempt.
        last: SchedError,
    },
    /// The inputs are malformed (bad horizon, disallowed PE in a caller-
    /// provided mapping, ...).
    InvalidInput(SchedError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::EmptyApplication => write!(f, "application has no processes"),
            MapError::Infeasible { last } => {
                write!(
                    f,
                    "no feasible mapping found (last scheduler error: {last})"
                )
            }
            MapError::InvalidInput(e) => write!(f, "invalid mapping input: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A fully evaluated design alternative.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The complete schedule (frozen applications + current application).
    pub table: ScheduleTable,
    /// The slack profile of that schedule.
    pub slack: SlackProfile,
    /// The objective-function value.
    pub cost: DesignCost,
}

/// Upper bound on memoized design alternatives. When the memo fills up
/// the stale half is evicted (entries whose last hit is at or below the
/// median stamp): SA and MH revisit *recent* states, so the LRU-ish
/// policy keeps the hit rate high while capping the memory spent on
/// full `Evaluation` clones. The delta gate's live key lives outside
/// the memo, so eviction never disengages delta scheduling.
const MEMO_CAP: usize = 512;

/// Canonical identity of a design alternative: the full mapping plus all
/// non-zero hints, in deterministic order. Two solutions with the same
/// key produce byte-identical schedules, so memo hits are exact (no
/// hashing-collision risk — the key stores the actual design variables,
/// and the hash only routes to a bucket). Doubling as the live-solution
/// snapshot the delta gate diffs against.
///
/// Stored flat: every variable is one `(word, value)` pair, with the
/// three sections (mapping entries, process gap hints, message slot
/// hints) back to back at the `split` boundaries. The word packs
/// `graph << 32 | node-or-edge`, which preserves the per-section
/// `(graph, index)` sort order, so the delta diff is a single-word
/// two-pointer walk and the whole key is one contiguous allocation —
/// one clone per memo miss, one memcmp-shaped compare per probe.
#[derive(Debug, Default, PartialEq, Eq)]
struct MemoKey {
    items: Vec<(u64, u32)>,
    split: [u32; 2],
}

impl Clone for MemoKey {
    fn clone(&self) -> Self {
        MemoKey {
            items: self.items.clone(),
            split: self.split,
        }
    }

    // The predecessor snapshot is refreshed on every raw schedule;
    // reusing its allocation keeps that free.
    fn clone_from(&mut self, source: &Self) {
        self.items.clone_from(&source.items);
        self.split = source.split;
    }
}

/// Packs a per-graph variable index into one order-preserving word.
/// Graph counts are bounded far below `u32::MAX` by memory alone; the
/// assert documents the losslessness the exact-hit contract relies on.
#[inline]
fn pack_var(graph: usize, index: u32) -> u64 {
    debug_assert!(graph <= u32::MAX as usize);
    ((graph as u64) << 32) | index as u64
}

impl MemoKey {
    /// Refills the key in place from `solution`, reusing the one
    /// vector allocation — the key build runs once per evaluation
    /// (hit or miss), so the engine keeps one scratch key alive
    /// instead of allocating here.
    fn assign(&mut self, solution: &Solution) {
        self.items.clear();
        self.items.extend(
            solution
                .mapping
                .iter()
                .map(|(pr, pe)| (pack_var(pr.graph, pr.node.0), pe.0)),
        );
        self.split[0] = self.items.len() as u32;
        self.items.extend(
            solution
                .hints
                .proc_gaps()
                .map(|(pr, gap)| (pack_var(pr.graph, pr.node.0), gap)),
        );
        self.split[1] = self.items.len() as u32;
        self.items.extend(
            solution
                .hints
                .msg_slots()
                .map(|(mr, slot)| (pack_var(mr.graph, mr.edge.0), slot)),
        );
    }

    fn mapping(&self) -> &[(u64, u32)] {
        &self.items[..self.split[0] as usize]
    }

    fn proc_gaps(&self) -> &[(u64, u32)] {
        &self.items[self.split[0] as usize..self.split[1] as usize]
    }

    fn msg_slots(&self) -> &[(u64, u32)] {
        &self.items[self.split[1] as usize..]
    }
}

/// A memoized evaluation with the clock tick of its last hit, for the
/// LRU-ish eviction at [`MEMO_CAP`].
#[derive(Debug)]
struct MemoEntry {
    result: Result<Evaluation, SchedError>,
    stamp: u64,
}

/// The solution memo, bucketed by the 64-bit solution fingerprint (an
/// FxHash of the full key). One fingerprint computation per evaluation
/// serves bucket routing and in-batch duplicate detection, where a
/// `HashMap<MemoKey, _>` would re-hash the full key on every probe and
/// again on insert. Buckets store the exact keys, so a hit still
/// compares the actual design variables: a fingerprint collision only
/// costs a short in-bucket scan, never a wrong answer.
#[derive(Debug, Default)]
struct Memo {
    buckets: HashMap<u64, Vec<(MemoKey, MemoEntry)>, FxBuild>,
    entries: usize,
}

impl Memo {
    fn len(&self) -> usize {
        self.entries
    }

    fn get_mut(&mut self, fp: u64, key: &MemoKey) -> Option<&mut MemoEntry> {
        self.buckets
            .get_mut(&fp)?
            .iter_mut()
            .find_map(|(k, e)| (k == key).then_some(e))
    }

    fn insert(&mut self, fp: u64, key: MemoKey, entry: MemoEntry) {
        self.buckets.entry(fp).or_default().push((key, entry));
        self.entries += 1;
    }

    #[cfg(test)]
    fn contains(&self, fp: u64, key: &MemoKey) -> bool {
        self.buckets
            .get(&fp)
            .is_some_and(|b| b.iter().any(|(k, _)| k == key))
    }

    /// Last-hit stamps of every entry, in arbitrary order (eviction
    /// input).
    fn stamps(&self) -> Vec<u64> {
        self.buckets
            .values()
            .flatten()
            .map(|(_, e)| e.stamp)
            .collect()
    }

    fn retain(&mut self, mut keep: impl FnMut(&MemoEntry) -> bool) {
        let mut kept = 0;
        self.buckets.retain(|_, bucket| {
            bucket.retain(|(_, e)| keep(e));
            kept += bucket.len();
            !bucket.is_empty()
        });
        self.entries = kept;
    }
}

/// The solution fingerprint: the FxHash of the full memo key. It only
/// routes to a memo bucket, whose entries store the exact keys, so a
/// collision costs a short scan, never a wrong answer.
fn fingerprint(key: &MemoKey) -> u64 {
    let mut h = FxHasher::default();
    h.add(((key.split[0] as u64) << 32) | key.split[1] as u64);
    h.add(key.items.len() as u64);
    for &(word, value) in &key.items {
        h.add(word);
        h.add(value as u64);
    }
    h.finish()
}

/// The FxHash mix (Firefox/rustc's default internal hasher): the memo
/// keys are trusted program state, not attacker input, so the DoS
/// resistance of SipHash buys nothing here and its cost is paid on
/// every evaluation.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Walks the symmetric difference of two sorted key→value slices,
/// invoking `on_diff` for every differing key. A plain two-pointer
/// walk: every raw schedule runs it, so the per-element cost is on the
/// strategy critical path.
fn sym_diff<K: Ord + Copy, V: PartialEq>(a: &[(K, V)], b: &[(K, V)], mut on_diff: impl FnMut(K)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ka, va) = &a[i];
        let (kb, vb) = &b[j];
        let k = match ka.cmp(kb) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                if va == vb {
                    continue;
                }
                *ka
            }
            std::cmp::Ordering::Less => {
                i += 1;
                *ka
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                *kb
            }
        };
        on_diff(k);
    }
    for &(k, _) in a[i..].iter().chain(&b[j..]) {
        on_diff(k);
    }
}

/// Collects the design variables differing between two solution keys
/// into `vars` (sorted, deduplicated, ready for
/// `Scheduler::schedule_delta_hinted_with_slack`). Both keys store
/// their variables sorted, so this is a linear slice walk.
fn collect_key_delta(prev: &MemoKey, cur: &MemoKey, vars: &mut Vec<ChangedVar>) {
    vars.clear();
    let proc_var = |word: u64| ChangedVar::Proc {
        spec: 0,
        graph: (word >> 32) as usize,
        node: NodeId(word as u32),
    };
    sym_diff(prev.mapping(), cur.mapping(), |k| vars.push(proc_var(k)));
    sym_diff(prev.proc_gaps(), cur.proc_gaps(), |k| {
        vars.push(proc_var(k))
    });
    sym_diff(prev.msg_slots(), cur.msg_slots(), |word: u64| {
        vars.push(ChangedVar::Msg {
            spec: 0,
            graph: (word >> 32) as usize,
            edge: EdgeId(word as u32),
        })
    });
    // A remap and its hint reset touch the same process twice; the
    // engine wants each variable once, in expansion order.
    vars.sort_unstable();
    vars.dedup();
}

/// The per-context evaluation engine state: baked frozen base, scheduler
/// scratch, objective-term caches and the solution memo.
#[derive(Debug, Default)]
struct EvalEngine {
    /// Lazily built (or injected) frozen base, shared via `Arc` when the
    /// caller reuses one bake across contexts.
    base: Option<Result<Arc<FrozenBase>, SchedError>>,
    scheduler: Scheduler,
    memo: Memo,
    /// Monotone clock stamping memo hits, for the LRU-ish eviction.
    memo_clock: u64,
    /// Reused key allocation for the per-evaluation memo probe.
    key_scratch: MemoKey,
    /// Key of the most recent raw schedule: the solution the
    /// scheduler's job arena and live record describe, which the delta
    /// gate diffs candidates against. `None` until the first raw
    /// schedule, and on the full-engine tier.
    live_key: Option<MemoKey>,
    /// Per-resource C2 terms with window-level incremental updates:
    /// aliased gap lists hit by storage identity, changed lists
    /// re-measure only the `t_min` windows their diff span intersects.
    c2: C2Cache,
    /// Incremental C1 bin-packing state, patched by storage identity.
    c1: C1Cache,
    /// Scratch for the collected solution diff (no per-eval allocation).
    vars_scratch: Vec<ChangedVar>,
}

impl EvalEngine {
    /// LRU-ish memo eviction at [`MEMO_CAP`]: drop the stale half
    /// (entries whose last hit is at or below the median stamp).
    fn evict_if_full(&mut self) {
        if self.memo.len() < MEMO_CAP {
            return;
        }
        let mut stamps = self.memo.stamps();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() / 2];
        let before = self.memo.len();
        self.memo.retain(|e| e.stamp > cutoff);
        counters::add(Counter::MemoEvictions, (before - self.memo.len()) as u64);
    }

    /// Memo probe: ticks the clock and, on a hit, re-stamps the entry,
    /// counts the hit and returns a clone of its result. The stamp is
    /// returned either way — a miss inserts under it.
    fn memo_probe(
        &mut self,
        fp: u64,
        key: &MemoKey,
        counts: &mut EngineCounts,
    ) -> (u64, Option<Result<Evaluation, SchedError>>) {
        self.memo_clock += 1;
        let stamp = self.memo_clock;
        let hit = self.memo.get_mut(fp, key).map(|hit| {
            hit.stamp = stamp;
            counts.memo_hits += 1;
            counters::bump(Counter::MemoHits);
            hit.result.clone()
        });
        (stamp, hit)
    }

    /// Memoizes a missed evaluation under the stamp its probe assigned,
    /// evicting the stale half first when the memo is full.
    fn memo_remember(
        &mut self,
        fp: u64,
        key: MemoKey,
        result: Result<Evaluation, SchedError>,
        stamp: u64,
    ) {
        self.evict_if_full();
        self.memo.insert(fp, key, MemoEntry { result, stamp });
        counters::bump(Counter::MemoInserts);
    }
}

/// The immutable, thread-shareable view of one evaluation problem: the
/// architecture, the current application, the frozen schedule and the
/// objective inputs. Everything behind these references is plain data
/// (the workspace forbids interior mutability below `mapping`), so a
/// `Scene` can be handed to scoped worker threads while each worker
/// keeps its own private [`Scheduler`] scratch.
#[derive(Clone, Copy)]
struct Scene<'a> {
    arch: &'a Architecture,
    app_id: AppId,
    app: &'a Application,
    frozen: Option<&'a ScheduleTable>,
    horizon: Time,
    future: &'a FutureProfile,
    weights: &'a Weights,
}

/// The three evaluation counters, grouped so the engine functions can
/// take one `&mut`.
#[derive(Debug, Default, Clone, Copy)]
struct EngineCounts {
    evaluations: usize,
    raw_schedules: usize,
    memo_hits: usize,
}

/// The objective terms of a freshly scheduled slack profile, through the
/// given identity-keyed C2/C1 caches. Shared by the main evaluation path
/// and the parallel batch workers — the caches are behavior-transparent,
/// so warm and fresh caches produce bit-identical costs.
fn score_slack(
    scene: &Scene<'_>,
    c2: &mut C2Cache,
    c1: &mut C1Cache,
    slack: &SlackProfile,
) -> DesignCost {
    let _objective = phase::scope(Phase::Objective);
    let t_min = scene.future.t_min;
    c2.set_pe_count(slack.pe_count());
    let mut c2p = Time::ZERO;
    for i in 0..slack.pe_count() {
        let shared = slack.gaps_shared(PeId(i as u32));
        c2p += c2.pe_term(i, shared, scene.horizon, t_min);
    }
    let c2m = c2.bus_term(slack.bus_windows_shared(), scene.horizon, t_min);
    objective::evaluate_with_c1_delta(scene.arch, slack, scene.future, scene.weights, c2p, c2m, c1)
}

/// One memoized engine evaluation (the body of
/// [`MappingContext::evaluate`]).
fn engine_evaluate(
    scene: &Scene<'_>,
    engine: &mut EvalEngine,
    counts: &mut EngineCounts,
    full_engine: bool,
    solution: &Solution,
) -> Result<Evaluation, SchedError> {
    let lookup_scope = phase::scope(Phase::Memo);
    let mut key = std::mem::take(&mut engine.key_scratch);
    key.assign(solution);
    let fp = fingerprint(&key);
    let (stamp, hit) = engine.memo_probe(fp, &key, counts);
    if let Some(result) = hit {
        engine.key_scratch = key;
        return result;
    }
    drop(lookup_scope);
    let result = engine_evaluate_raw(scene, engine, counts, full_engine, solution, &key);
    let _store_scope = phase::scope(Phase::Memo);
    engine.memo_remember(fp, key.clone(), result.clone(), stamp);
    engine.key_scratch = key;
    result
}

/// One full engine evaluation (memo miss) — the body of the historical
/// `MappingContext::evaluate_raw`.
fn engine_evaluate_raw(
    scene: &Scene<'_>,
    engine: &mut EvalEngine,
    counts: &mut EngineCounts,
    full_engine: bool,
    solution: &Solution,
    key: &MemoKey,
) -> Result<Evaluation, SchedError> {
    // Spec assembly and validation are the delta machinery's
    // front-end, like expansion inside the engine: charge them to the
    // splice phase (closed before the engine call so its own splice
    // scope never nests).
    let setup_scope = phase::scope(Phase::Splice);
    let spec = AppSpec::new(scene.app_id, scene.app, &solution.mapping, &solution.hints);
    // Validated before the base is consulted so error precedence
    // matches the naive pipeline exactly.
    check_horizon(&[spec], scene.horizon)?;
    drop(setup_scope);
    let EvalEngine {
        base,
        scheduler,
        live_key,
        c2,
        c1,
        vars_scratch,
        ..
    } = engine;
    let base = base.get_or_insert_with(|| {
        FrozenBase::new(scene.arch, scene.frozen, scene.horizon).map(Arc::new)
    });
    let base = match base {
        Ok(b) => b,
        Err(e) => return Err(e.clone()),
    };
    counts.raw_schedules += 1;

    // Delta gate: every raw schedule hands the engine its diff against
    // the live solution, so the arena is patched with exactly those
    // variables and the live record's unchanged prefix is spliced. The
    // first raw schedule has no live solution: the empty list meets a
    // fresh arena and an absent record, so it expands in full and runs
    // with an empty prefix. The full-engine tier resets from the base.
    let run = if full_engine {
        scheduler.schedule_with_slack(scene.arch, &[spec], base)
    } else {
        let gate_scope = phase::scope(Phase::Splice);
        match live_key.as_ref() {
            Some(live) => collect_key_delta(live, key, vars_scratch),
            None => vars_scratch.clear(),
        }
        drop(gate_scope);
        let run =
            scheduler.schedule_delta_hinted_with_slack(scene.arch, &[spec], base, vars_scratch);
        // Successful or not, the engine's live record now describes
        // this solution (failed runs keep their completed prefix as a
        // splice source), so future candidates diff against it.
        let _bookkeeping_scope = phase::scope(Phase::Splice);
        match live_key {
            Some(live) => live.clone_from(key),
            None => *live_key = Some(key.clone()),
        }
        run
    };
    let (table, slack) = run?;
    // C2 terms: gap lists aliased from the frozen base (untouched
    // PEs) or the previous evaluation (PEs unchanged by the delta)
    // hit by storage identity; changed lists re-measure only the
    // windows their diff span intersects.
    let cost = score_slack(scene, c2, c1, &slack);
    Ok(Evaluation { table, slack, cost })
}

/// A batch worker's evaluation: the full (splice-free) path against the
/// shared frozen base, no memo, no record bookkeeping, and fresh C2/C1
/// caches. Every call costs exactly one raw schedule, zero delta/spliced
/// steps and one cold objective scoring, so the batch's counters are a
/// function of the hit/miss pattern alone — independent of how
/// candidates were partitioned over threads. (A warm cache would hit
/// depending on what its worker scored before; the full path changes
/// nearly every resource anyway, so it would save little.)
fn evaluate_shared_full(
    scene: &Scene<'_>,
    base: &Arc<FrozenBase>,
    scheduler: &mut Scheduler,
    solution: &Solution,
) -> Result<Evaluation, SchedError> {
    let spec = AppSpec::new(scene.app_id, scene.app, &solution.mapping, &solution.hints);
    let (table, slack) = scheduler.schedule_with_slack(scene.arch, &[spec], base)?;
    let cost = score_slack(
        scene,
        &mut C2Cache::default(),
        &mut C1Cache::default(),
        &slack,
    );
    Ok(Evaluation { table, slack, cost })
}

/// Everything a strategy needs to evaluate design alternatives for one
/// *current application* on one system state.
#[derive(Debug)]
pub struct MappingContext<'a> {
    /// The hardware platform.
    pub arch: &'a Architecture,
    /// Id the current application's jobs will carry.
    pub app_id: AppId,
    /// The current application.
    pub app: &'a Application,
    /// Frozen schedule of the existing applications, already replicated to
    /// `horizon`. `None` for an empty system.
    pub frozen: Option<&'a ScheduleTable>,
    /// The system hyperperiod (LCM of all periods, old and new).
    pub horizon: Time,
    /// Characterization of the future applications.
    pub future: &'a FutureProfile,
    /// Objective-function weights.
    pub weights: &'a Weights,
    counts: Cell<EngineCounts>,
    naive: bool,
    full_engine: bool,
    parallelism: SearchParallelism,
    engine: RefCell<EvalEngine>,
    /// Idle batch-worker schedulers, recycled across parallel rounds.
    workers: RefCell<Vec<Scheduler>>,
}

impl<'a> MappingContext<'a> {
    /// Creates a context.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        arch: &'a Architecture,
        app_id: AppId,
        app: &'a Application,
        frozen: Option<&'a ScheduleTable>,
        horizon: Time,
        future: &'a FutureProfile,
        weights: &'a Weights,
    ) -> Self {
        MappingContext {
            arch,
            app_id,
            app,
            frozen,
            horizon,
            future,
            weights,
            counts: Cell::new(EngineCounts::default()),
            naive: false,
            full_engine: false,
            parallelism: env_parallelism(),
            engine: RefCell::new(EvalEngine::default()),
            workers: RefCell::new(Vec::new()),
        }
    }

    /// Sets how this context parallelizes strategy trial evaluation.
    /// Overrides the `INCDES_SEARCH_THREADS` process default.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: SearchParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The parallelism mode strategies should run under.
    pub fn parallelism(&self) -> SearchParallelism {
        self.parallelism
    }

    /// Switches this context to the naive evaluation pipeline
    /// (`schedule()` + `SlackProfile::from_table` +
    /// `objective::evaluate`, no frozen-base reuse, no memo). The
    /// results are identical to the engine path; this exists as the
    /// reference for differential tests and the `figures bench-eval`
    /// speedup measurement.
    #[must_use]
    pub fn with_naive_evaluation(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Disables the delta-scheduling path: every raw schedule resets the
    /// timelines from the frozen base and places all jobs (the PR 4
    /// engine behavior). Results are identical to the default delta
    /// path; this is the mid-tier oracle for differential tests and the
    /// `figures bench-eval` delta column.
    #[must_use]
    pub fn with_full_evaluation(mut self) -> Self {
        self.full_engine = true;
        self
    }

    /// Seeds this context with a pre-built frozen base, shared across
    /// contexts via `Arc` — the campaign runner bakes the frozen
    /// schedule once per system state instead of once per step. The
    /// base **must** have been built with this context's architecture,
    /// frozen table and horizon; the horizon is checked eagerly, the
    /// rest is the caller's contract (the result would silently describe
    /// the wrong system otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `base` covers a different horizon than this context.
    #[must_use]
    pub fn with_frozen_base(self, base: Arc<FrozenBase>) -> Self {
        assert_eq!(
            base.horizon(),
            self.horizon,
            "shared frozen base horizon mismatch"
        );
        self.engine.borrow_mut().base = Some(Ok(base));
        self
    }

    /// Schedules and scores one design alternative.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SchedError`]; use
    /// [`SchedError::is_infeasible`] to distinguish "does not fit" from
    /// "malformed input".
    pub fn evaluate(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        let mut counts = self.counts.get();
        counts.evaluations += 1;
        self.counts.set(counts);
        self.evaluate_inner(solution)
    }

    /// [`evaluate`](Self::evaluate) without touching
    /// [`evaluation_count`](Self::evaluation_count) — bookkeeping
    /// re-derivations (SA rebuilding its best snapshot at the end) must
    /// not perturb the evaluation counts the paper tables report.
    pub(crate) fn evaluate_snapshot(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        self.evaluate_inner(solution)
    }

    fn evaluate_inner(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        if self.naive {
            return self.evaluate_naive(solution);
        }
        let mut engine = self.engine.borrow_mut();
        let mut counts = self.counts.get();
        let result = engine_evaluate(
            &self.scene(),
            &mut engine,
            &mut counts,
            self.full_engine,
            solution,
        );
        self.counts.set(counts);
        result
    }

    /// The immutable scene the engine functions (and worker threads)
    /// evaluate against.
    fn scene(&self) -> Scene<'a> {
        Scene {
            arch: self.arch,
            app_id: self.app_id,
            app: self.app,
            frozen: self.frozen,
            horizon: self.horizon,
            future: self.future,
            weights: self.weights,
        }
    }

    /// The reference pipeline (no base, no scratch, no memo).
    fn evaluate_naive(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        let mut counts = self.counts.get();
        counts.raw_schedules += 1;
        self.counts.set(counts);
        let spec = AppSpec::new(self.app_id, self.app, &solution.mapping, &solution.hints);
        let table = schedule(self.arch, &[spec], self.frozen, self.horizon)?;
        let slack = SlackProfile::from_table(self.arch, &table);
        let cost = objective::evaluate(self.arch, &slack, self.future, self.weights);
        Ok(Evaluation { table, slack, cost })
    }

    /// Number of schedule evaluations performed through this context
    /// (every [`evaluate`](Self::evaluate) call, memo hit or not — the
    /// historical semantics the paper tables rely on).
    pub fn evaluation_count(&self) -> usize {
        self.counts.get().evaluations
    }

    /// Number of raw schedules actually executed: evaluations that
    /// missed the memo and ran the scheduler. Always ≤
    /// [`evaluation_count`](Self::evaluation_count) on the engine path.
    pub fn raw_schedule_count(&self) -> usize {
        self.counts.get().raw_schedules
    }

    /// Number of evaluations answered from the solution memo.
    pub fn memo_hit_count(&self) -> usize {
        self.counts.get().memo_hits
    }

    /// Number of raw schedules that took the delta-scheduling path
    /// (spliced the previous run instead of resetting from the base).
    /// Always ≤ [`raw_schedule_count`](Self::raw_schedule_count); zero
    /// on the naive and full-engine pipelines, and for candidates
    /// evaluated by parallel batch workers (which take the splice-free
    /// path).
    pub fn delta_schedule_count(&self) -> usize {
        self.engine.borrow().scheduler.delta_schedule_count()
    }

    /// Total placement steps the delta path spliced verbatim from the
    /// live run record (diagnostics for benches and tests).
    pub fn spliced_step_count(&self) -> usize {
        self.engine.borrow().scheduler.spliced_step_count()
    }

    /// Evaluates a whole candidate batch, honoring this context's
    /// [`SearchParallelism`]. Sequential mode (and the naive pipeline)
    /// evaluates in candidate-index order through
    /// [`evaluate`](Self::evaluate), so the results — and every counter
    /// — are exactly what the per-candidate loop produced before this
    /// API existed. Parallel mode runs the deterministic batch protocol
    /// of [`evaluate_batch`](Self::evaluate_batch).
    pub(crate) fn evaluate_all(&self, trials: &[Solution]) -> Vec<Result<Evaluation, SchedError>> {
        match self.parallelism {
            SearchParallelism::Parallel { threads } if !self.naive && !trials.is_empty() => {
                self.evaluate_batch(trials, threads.max(1), BATCH_CUTOVER)
            }
            _ => trials.iter().map(|t| self.evaluate(t)).collect(),
        }
    }

    /// The deterministic parallel batch protocol. Three ordered passes:
    ///
    /// 1. **Prefilter** (main thread, candidate-index order): each
    ///    candidate ticks the memo clock and counts one evaluation; memo
    ///    hits are re-stamped and answered immediately, misses are
    ///    horizon-checked and queued.
    /// 2. **Dispatch**: queued misses are evaluated on worker schedulers
    ///    (`std::thread::scope`) against the shared `Arc<FrozenBase>`,
    ///    on the full splice-free path — each miss costs exactly one
    ///    raw schedule and zero delta steps, and its result depends only
    ///    on the shared base, never on which worker ran it or what that
    ///    worker evaluated before.
    /// 3. **Reduce** (main thread, candidate-index order): results are
    ///    inserted into the main memo with the stamps assigned in pass
    ///    1, running the same eviction rule a sequential insertion
    ///    sequence would.
    ///
    /// Every counter is a function of the hit/miss pattern alone, so the
    /// returned results *and* all diagnostics are byte-identical for any
    /// `threads ≥ 1` and any `batch_cutover` — the cutover (and the
    /// available-parallelism cap) only collapse the dispatch onto the
    /// inline single-worker arm, which runs the same protocol.
    fn evaluate_batch(
        &self,
        trials: &[Solution],
        threads: usize,
        batch_cutover: usize,
    ) -> Vec<Result<Evaluation, SchedError>> {
        struct Miss {
            idx: usize,
            key: MemoKey,
            stamp: u64,
            fp: u64,
            /// `false` when the horizon precheck (or a failed base
            /// bake) already produced this miss's error.
            run: bool,
        }
        enum Plan {
            /// Memo hit — answered in the prefilter.
            Hit,
            /// Slot in the miss queue.
            Miss(usize),
            /// Same key as an earlier in-batch miss: (source candidate
            /// index, this candidate's stamp, the shared fingerprint
            /// and key).
            Dup(usize, u64, u64, MemoKey),
        }
        let scene = self.scene();
        let mut engine = self.engine.borrow_mut();
        let mut counts = self.counts.get();
        let n = trials.len();
        let mut out: Vec<Option<Result<Evaluation, SchedError>>> = (0..n).map(|_| None).collect();
        let mut plans: Vec<Plan> = Vec::with_capacity(n);
        let mut misses: Vec<Miss> = Vec::new();

        // Pass 1: prefilter.
        let mut scratch = std::mem::take(&mut engine.key_scratch);
        for (i, solution) in trials.iter().enumerate() {
            counts.evaluations += 1;
            scratch.assign(solution);
            let fp = fingerprint(&scratch);
            let (stamp, hit) = engine.memo_probe(fp, &scratch, &mut counts);
            if hit.is_some() {
                out[i] = hit;
                plans.push(Plan::Hit);
                continue;
            }
            // MH batches never contain duplicate solutions (distinct
            // moves on one pivot), but the protocol stays correct for
            // any caller: an in-batch duplicate is a memo hit on the
            // earlier miss's (future) entry. Batches are small, so a
            // fingerprint-gated linear scan beats building a side
            // table.
            if let Some(m) = misses.iter().find(|m| m.fp == fp && m.key == scratch) {
                counts.memo_hits += 1;
                counters::bump(Counter::MemoHits);
                plans.push(Plan::Dup(m.idx, stamp, fp, scratch.clone()));
                continue;
            }
            let spec = AppSpec::new(scene.app_id, scene.app, &solution.mapping, &solution.hints);
            let run = match check_horizon(&[spec], scene.horizon) {
                Ok(()) => true,
                Err(e) => {
                    out[i] = Some(Err(e));
                    false
                }
            };
            plans.push(Plan::Miss(misses.len()));
            misses.push(Miss {
                idx: i,
                key: scratch.clone(),
                stamp,
                fp,
                run,
            });
        }
        engine.key_scratch = scratch;

        // Pass 2: dispatch the runnable misses to worker schedulers.
        if misses.iter().any(|m| m.run) {
            let base = engine.base.get_or_insert_with(|| {
                FrozenBase::new(scene.arch, scene.frozen, scene.horizon).map(Arc::new)
            });
            match base {
                Err(e) => {
                    // Base errors precede the raw-schedule count, as in
                    // the sequential path.
                    let e = e.clone();
                    for m in misses.iter_mut().filter(|m| m.run) {
                        out[m.idx] = Some(Err(e.clone()));
                        m.run = false;
                    }
                }
                Ok(base) => {
                    let base = Arc::clone(base);
                    let jobs: Vec<usize> = misses.iter().filter(|m| m.run).map(|m| m.idx).collect();
                    counts.raw_schedules += jobs.len();
                    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                    let worker_count = batch_worker_count(threads, jobs.len(), batch_cutover, hw);
                    let mut schedulers: Vec<Scheduler> = {
                        let mut pool = self.workers.borrow_mut();
                        (0..worker_count)
                            .map(|_| pool.pop().unwrap_or_default())
                            .collect()
                    };
                    let produced: Vec<(usize, Result<Evaluation, SchedError>)> = if worker_count
                        == 1
                    {
                        let worker = &mut schedulers[0];
                        jobs.iter()
                            .map(|&idx| {
                                (
                                    idx,
                                    evaluate_shared_full(&scene, &base, worker, &trials[idx]),
                                )
                            })
                            .collect()
                    } else {
                        let jobs = &jobs;
                        let scene = &scene;
                        let base = &base;
                        let finished: Vec<(Scheduler, Vec<_>, _, _)> = std::thread::scope(|s| {
                            let handles: Vec<_> = schedulers
                                .drain(..)
                                .enumerate()
                                .map(|(w, mut worker)| {
                                    s.spawn(move || {
                                        let mut produced = Vec::new();
                                        let mut k = w;
                                        while k < jobs.len() {
                                            let idx = jobs[k];
                                            produced.push((
                                                idx,
                                                evaluate_shared_full(
                                                    scene,
                                                    base,
                                                    &mut worker,
                                                    &trials[idx],
                                                ),
                                            ));
                                            k += worker_count;
                                        }
                                        // A scoped worker is a fresh OS
                                        // thread, so its thread-local
                                        // observability cells started at
                                        // zero: the final snapshot *is*
                                        // the worker's contribution.
                                        (worker, produced, counters::snapshot(), phase::snapshot())
                                    })
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("search worker panicked"))
                                .collect()
                        });
                        let mut collected = Vec::with_capacity(jobs.len());
                        for (worker, produced, worker_counters, worker_phases) in finished {
                            schedulers.push(worker);
                            collected.extend(produced);
                            counters::merge_into_current(&worker_counters);
                            phase::merge_into_current(&worker_phases);
                        }
                        collected
                    };
                    self.workers.borrow_mut().append(&mut schedulers);
                    for (idx, res) in produced {
                        out[idx] = Some(res);
                    }
                }
            }
        }

        // Pass 3: reduce into the memo in candidate-index order, with
        // the prefilter stamps — the exact insertion/eviction sequence
        // a sequential run of these misses would have produced.
        for (i, plan) in plans.iter_mut().enumerate() {
            match plan {
                Plan::Hit => {}
                Plan::Miss(m) => {
                    let miss = &mut misses[*m];
                    let result = out[i].clone().expect("miss evaluated in pass 2");
                    engine.memo_remember(
                        miss.fp,
                        std::mem::take(&mut miss.key),
                        result,
                        miss.stamp,
                    );
                }
                Plan::Dup(of, stamp, fp, key) => {
                    out[i] = out[*of].clone();
                    if let Some(hit) = engine.memo.get_mut(*fp, key) {
                        hit.stamp = *stamp;
                    }
                }
            }
        }
        self.counts.set(counts);
        out.into_iter()
            .map(|r| r.expect("every candidate planned"))
            .collect()
    }
}

/// Compile-time pins for the guarantees the scoped-thread code relies
/// on: the scene is shared immutably across workers, schedulers and
/// results move between threads. (`thread::scope` would reject the code
/// anyway — this states the contract in one place.)
#[allow(dead_code)]
fn parallel_safety_asserts(scene: Scene<'_>, scheduler: Scheduler) {
    fn assert_send<T: Send>(_: T) {}
    fn assert_sync<T: Sync>(_: T) {}
    assert_sync(scene);
    assert_send(scheduler);
    let _ = assert_send::<Result<Evaluation, SchedError>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_model::prelude::*;
    use incdes_sched::Mapping;

    /// Two PEs, slide-example future profile, default weights: the
    /// inputs every context below shares.
    struct TestBed {
        arch: Architecture,
        future: FutureProfile,
        weights: Weights,
    }

    impl TestBed {
        fn new() -> Self {
            TestBed {
                arch: Architecture::builder()
                    .pe("N1")
                    .pe("N2")
                    .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
                    .build()
                    .unwrap(),
                future: FutureProfile::slide_example(),
                weights: Weights::default(),
            }
        }

        /// A context for `app` on an empty system with the given horizon.
        fn context<'a>(&'a self, app: &'a Application, horizon: u64) -> MappingContext<'a> {
            MappingContext::new(
                &self.arch,
                AppId(0),
                app,
                None,
                Time::new(horizon),
                &self.future,
                &self.weights,
            )
        }
    }

    fn one_proc_app() -> Application {
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
        Application::new("app", vec![g])
    }

    /// `n` independent processes, each allowed on both PEs.
    fn two_pe_app(n: usize) -> Application {
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        for i in 0..n {
            g.add_process(
                Process::new(format!("p{i}"))
                    .wcet(PeId(0), Time::new(8))
                    .wcet(PeId(1), Time::new(6)),
            );
        }
        Application::new("app", vec![g])
    }

    /// The mapping that puts process `i` on `pes[i]`.
    fn on(pes: &[u32]) -> Solution {
        let mut mapping = Mapping::new();
        for (i, &pe) in pes.iter().enumerate() {
            mapping.assign(ProcRef::new(0, NodeId(i as u32)), PeId(pe));
        }
        Solution::from_mapping(mapping)
    }

    #[test]
    fn evaluate_counts_and_scores() {
        let bed = TestBed::new();
        let app = one_proc_app();
        let ctx = bed.context(&app, 120);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let sol = Solution::from_mapping(mapping);
        assert_eq!(ctx.evaluation_count(), 0);
        let eval = ctx.evaluate(&sol).unwrap();
        assert_eq!(ctx.evaluation_count(), 1);
        assert!(eval.cost.is_feasible());
        assert_eq!(eval.table.jobs().len(), 1);
    }

    #[test]
    fn observability_counters_pin_the_memo() {
        // Evaluate A, B, A: exactly one memo hit (the revisit) and two
        // inserts (the distinct solutions), pinned through the
        // deterministic counter registry.
        let bed = TestBed::new();
        let app = two_pe_app(1);
        let ctx = bed.context(&app, 120);
        let (sol_a, sol_b) = (on(&[0]), on(&[1]));

        let before = counters::snapshot();
        ctx.evaluate(&sol_a).unwrap();
        ctx.evaluate(&sol_b).unwrap();
        ctx.evaluate(&sol_a).unwrap();
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::MemoHits), 1, "only the revisit hits");
        assert_eq!(d.get(Counter::MemoInserts), 2, "two distinct solutions");
        assert_eq!(d.get(Counter::MemoEvictions), 0, "far below MEMO_CAP");
        // The registry agrees with the context's own diagnostics.
        assert_eq!(ctx.memo_hit_count() as u64, d.get(Counter::MemoHits));
        assert_eq!(ctx.evaluation_count(), 3);
    }

    #[test]
    fn evaluate_surfaces_infeasibility() {
        let bed = TestBed::new();
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(4));
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
        let app = Application::new("app", vec![g]);
        let ctx = bed.context(&app, 120);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let err = ctx.evaluate(&Solution::from_mapping(mapping)).unwrap_err();
        assert!(err.is_infeasible());
    }

    // `INCDES_SEARCH_THREADS` parsing is covered by the unit tests of
    // `incdes_obs::diag`.

    #[test]
    fn batch_worker_count_rule() {
        // Below the cutover: inline, regardless of threads or cores.
        assert_eq!(batch_worker_count(8, 3, 16, 64), 1);
        assert_eq!(batch_worker_count(8, 15, 16, 64), 1);
        // At or above the cutover: one worker per job up to threads...
        assert_eq!(batch_worker_count(8, 16, 16, 64), 8);
        assert_eq!(batch_worker_count(8, 100, 16, 64), 8);
        assert_eq!(batch_worker_count(8, 20, 16, 64), 8);
        assert_eq!(batch_worker_count(32, 20, 16, 64), 20);
        // ...capped at the machine's parallelism.
        assert_eq!(batch_worker_count(8, 100, 16, 2), 2);
        assert_eq!(batch_worker_count(8, 100, 16, 1), 1);
        // Degenerate inputs stay sane.
        assert_eq!(batch_worker_count(8, 100, 16, 0), 1);
        assert_eq!(batch_worker_count(0, 100, 0, 4), 1);
        // Cutover 0 never collapses.
        assert_eq!(batch_worker_count(4, 1, 0, 4), 1); // min(jobs)
        assert_eq!(batch_worker_count(4, 2, 0, 4), 2);
    }

    #[test]
    fn batch_cutover_only_picks_the_dispatch_arm() {
        // One batch — a memo hit, four distinct misses and an in-batch
        // duplicate — evaluated with every miss forced inline (cutover
        // `usize::MAX`) and with none inline (cutover 1, threads 4):
        // the cutover may only change wall-clock, never a byte. (The
        // spawning arm needs ≥ 2 hardware threads; on one core both
        // runs take the inline arm and the test degenerates to
        // determinism.)
        let bed = TestBed::new();
        let app = two_pe_app(3);
        let warm = on(&[0, 0, 0]);
        let trials = [
            warm.clone(),
            on(&[1, 0, 0]),
            on(&[0, 1, 0]),
            on(&[0, 0, 1]),
            on(&[1, 1, 0]),
            on(&[0, 1, 0]),
        ];
        let run = |cutover: usize| {
            let ctx = bed.context(&app, 120);
            ctx.evaluate(&warm).unwrap();
            let before = counters::snapshot();
            let results = ctx.evaluate_batch(&trials, 4, cutover);
            let delta = counters::snapshot().delta_since(&before);
            let costs: Vec<u64> = results
                .iter()
                .map(|r| r.as_ref().unwrap().cost.total.to_bits())
                .collect();
            let counts = (
                ctx.evaluation_count(),
                ctx.raw_schedule_count(),
                ctx.memo_hit_count(),
            );
            (format!("{results:?}"), costs, counts, delta)
        };
        let inline = run(usize::MAX);
        assert_eq!(
            inline.2,
            (7, 5, 2),
            "1 warm-up + 4 misses run; 1 hit + 1 dup"
        );
        assert_eq!(inline, run(1));
    }

    #[test]
    fn every_raw_schedule_after_the_first_takes_the_delta_path() {
        let bed = TestBed::new();
        let app = two_pe_app(8);
        let ctx = bed.context(&app, 120);
        let naive = bed.context(&app, 120).with_naive_evaluation();
        // Evaluates `sol` on both contexts, asserts bit-identical
        // results and returns the counters bumped by `ctx` alone.
        let same_as_naive = |sol: &Solution| {
            let before = counters::snapshot();
            let a = ctx.evaluate(sol).unwrap();
            let d = counters::snapshot().delta_since(&before);
            let b = naive.evaluate(sol).unwrap();
            assert_eq!(a.table, b.table);
            assert_eq!(a.slack, b.slack);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.cost.total.to_bits(), b.cost.total.to_bits());
            d
        };

        // The first raw schedule has no live solution: full expansion,
        // empty prefix.
        let d = same_as_naive(&on(&[0; 8]));
        assert_eq!(d.get(Counter::ArenaExpansions), 1);
        assert_eq!(d.get(Counter::ArenaPatched), 0);
        assert_eq!(ctx.delta_schedule_count(), 0);

        // The second one already splices: no chain-length gate.
        same_as_naive(&on(&[1, 0, 0, 0, 0, 0, 0, 0]));
        assert_eq!(ctx.delta_schedule_count(), 1);

        // A seven-variable jump still patches the arena: no cap on the
        // diff size.
        let d = same_as_naive(&on(&[0, 1, 1, 1, 1, 1, 1, 0]));
        assert_eq!(d.get(Counter::ArenaPatched), 1);
        assert_eq!(d.get(Counter::ArenaExpansions), 0);
        assert_eq!(ctx.delta_schedule_count(), 2);
        assert_eq!(ctx.raw_schedule_count(), 3);
    }

    #[test]
    fn memo_eviction_drops_the_stale_half_and_keeps_delta_engaged() {
        let bed = TestBed::new();
        let app = one_proc_app();
        let ctx = bed.context(&app, 120);
        let pr = ProcRef::new(0, NodeId(0));
        let mut mapping = Mapping::new();
        mapping.assign(pr, PeId(0));
        let base = Solution::from_mapping(mapping);
        let sol =
            |gap: u32| base.with_move(&crate::solution::Move::ProcSlack { proc_ref: pr, gap });
        let key_of = |gap: u32| {
            let mut key = MemoKey::default();
            key.assign(&sol(gap));
            (fingerprint(&key), key)
        };
        // Fill the memo exactly to capacity with distinct solutions
        // (stamps 1..=MEMO_CAP), each a one-hint neighbor of the last.
        let cap = MEMO_CAP as u32;
        for gap in 0..cap {
            let _ = ctx.evaluate(&sol(gap));
        }
        // Freshen an old prefix: these hits restamp gaps 0..300 above
        // every fill stamp.
        for gap in 0..300u32 {
            let _ = ctx.evaluate(&sol(gap));
        }
        let stamps: Vec<u64> = {
            let mut engine = ctx.engine.borrow_mut();
            (0..cap)
                .map(|gap| {
                    let (fp, key) = key_of(gap);
                    engine.memo.get_mut(fp, &key).expect("memo is full").stamp
                })
                .collect()
        };
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        let cutoff = sorted[sorted.len() / 2];

        // One more distinct solution triggers eviction on its miss.
        let before = counters::snapshot();
        let _ = ctx.evaluate(&sol(cap));
        let evicted = counters::snapshot()
            .delta_since(&before)
            .get(Counter::MemoEvictions);
        // The stale fills of gaps 300.. (212 entries) plus the 45
        // oldest freshened entries sit at or below the median stamp.
        assert_eq!(evicted, 257);
        {
            let engine = ctx.engine.borrow();
            for (gap, &stamp) in (0..cap).zip(&stamps) {
                let (fp, key) = key_of(gap);
                assert_eq!(
                    engine.memo.contains(fp, &key),
                    stamp > cutoff,
                    "gap {gap}: stamp {stamp}, cutoff {cutoff}"
                );
            }
            let (fp, key) = key_of(cap);
            assert!(engine.memo.contains(fp, &key), "the trigger is inserted");
            assert_eq!(engine.memo.len(), MEMO_CAP + 1 - evicted as usize);
        }

        // The evicted predecessor is one hint away from the live
        // solution: a memo miss that still takes the hinted delta path,
        // since the live key is kept outside the memo.
        let deltas = ctx.delta_schedule_count();
        let before = counters::snapshot();
        let _ = ctx.evaluate(&sol(cap - 1));
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::MemoHits), 0, "its entry was evicted");
        assert_eq!(d.get(Counter::ArenaPatched), 1);
        assert_eq!(ctx.delta_schedule_count(), deltas + 1);
    }
}
