//! `incdes_obs` — the out-of-band observability layer.
//!
//! Every instrumented crate (`incdes_sched`, `incdes_metrics`,
//! `incdes_mapping`, `incdes_explore`) reports into two planes that are
//! invisible to the byte-stable artifacts (campaign reports, tables):
//!
//! * **[`counters`]** — deterministic monotonic event counters (splice
//!   steps, record-cache traffic, memo hits, C1/C2 cache outcomes,
//!   Arc-aliasing decisions, heap traffic). They are pure functions of
//!   the work performed, so tests can assert exact values and two runs
//!   of the same workload always agree — including across thread
//!   counts, because worker tallies are merged with an associative
//!   element-wise sum. Always compiled; the storage is plain
//!   thread-local `Cell`s, no atomics on the hot path.
//! * **[`phase`]** — wall-clock RAII scopes around the engine phases
//!   (undo/splice/re-place/slack/objective plus bake, priority refresh
//!   and memo lookup), aggregated into per-phase log₂-nanosecond
//!   histograms, with an optional [`trace`] capture that renders a
//!   `chrome://tracing`-compatible timeline of one evaluation chain.
//!   The timers are armed only after [`phase::set_enabled`]`(true)`;
//!   while disarmed a scope costs one relaxed atomic load.
//!
//! [`diag`] carries the shared warn-once stderr channel and the checked
//! env-var parsing of the `INCDES_SEARCH_THREADS` override.
//!
//! Nothing in this crate writes to stdout: all output goes to stderr or
//! to side files chosen by the caller, which is what keeps the
//! byte-identical report guarantee intact under profiling.

pub mod counters;
pub mod diag;
pub mod phase;
pub mod trace;
