//! Design digests: SHA-256 over a projection of campaign results that
//! the benchmark builds itself.
//!
//! The projection keeps what a design *is* — per step the action,
//! feasibility, assigned id, cost terms, evaluations, iterations,
//! horizon and error, plus each scenario's final schedule — and leaves
//! out engine counters (`delta_schedules`, `spliced_steps`) and the
//! positional scenario index, so engine-internal changes and grid
//! reorderings keep the digest stable while any change to a design
//! moves it.

use incdes_explore::{ScenarioReport, StepReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn step_line(out: &mut String, s: &StepReport) {
    let _ = write!(
        out,
        "step {} {} feasible={} app={:?} evals={} iters={} horizon={} error={:?}",
        s.step, s.action, s.feasible, s.app_id, s.evaluations, s.iterations, s.horizon, s.error
    );
    if let Some(c) = &s.cost {
        // Floats by bit pattern: the digest is exact, not rounded.
        let _ = write!(
            out,
            " cost={:016x}/{:016x}/{}/{}/{}/{}/{:016x}",
            c.c1_processes.to_bits(),
            c.c1_messages.to_bits(),
            c.c2_processes,
            c.c2_messages,
            c.penalty_processes,
            c.penalty_messages,
            c.total.to_bits()
        );
    }
    out.push('\n');
}

/// The canonical text of one scenario (everything the digest covers).
pub fn projection(report: &ScenarioReport) -> String {
    let mut out = format!(
        "scenario size={} strategy={} seed={} weights={}\n",
        report.size, report.strategy, report.seed, report.weights
    );
    for s in &report.steps {
        step_line(&mut out, s);
    }
    let sch = &report.schedule;
    let _ = writeln!(
        out,
        "schedule horizon={} jobs={} messages={} committed={} active={} pe_busy={:?} bus={}",
        sch.horizon,
        sch.jobs,
        sch.messages,
        sch.committed_apps,
        sch.active_apps,
        sch.pe_busy,
        sch.bus_used
    );
    out
}

/// Digest of a set of scenarios, independent of their order.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a ScenarioReport>) -> String {
    let mut texts: Vec<String> = reports.into_iter().map(projection).collect();
    texts.sort();
    incdes_store::hex(&incdes_store::sha256(texts.concat().as_bytes()))
}

/// Digests of a campaign's scenarios keyed by `(instance seed, group)`,
/// where a group is the workload family (`search` or `churn`) and the
/// strategy, e.g. `search/MH`. The parallel MH pass of the traced
/// `paper-search` run shares the `search` family, so its designs are
/// checked against the same recorded MH digest.
pub fn group_digests(family: &str, reports: &[ScenarioReport]) -> BTreeMap<(u64, String), String> {
    let mut groups: BTreeMap<(u64, String), Vec<&ScenarioReport>> = BTreeMap::new();
    for r in reports {
        groups
            .entry((r.seed, format!("{family}/{}", r.strategy)))
            .or_default()
            .push(r);
    }
    groups.into_iter().map(|(k, rs)| (k, digest(rs))).collect()
}

/// The recorded digests (`digests.txt`): one `preset seed group hex`
/// line per entry; `#` starts a comment.
#[derive(Debug, Default)]
pub struct DigestTable {
    entries: BTreeMap<(String, u64, String), String>,
}

impl DigestTable {
    /// Parses the table text.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn parse(text: &str) -> Result<DigestTable, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [preset, seed, group, hex] = fields[..] else {
                return Err(format!("digests line {}: expected 4 fields", n + 1));
            };
            let seed = seed
                .parse()
                .map_err(|_| format!("digests line {}: bad seed `{seed}`", n + 1))?;
            entries.insert(
                (preset.to_string(), seed, group.to_string()),
                hex.to_string(),
            );
        }
        Ok(DigestTable { entries })
    }

    /// The table shipped with the benchmark.
    pub fn recorded() -> DigestTable {
        DigestTable::parse(include_str!("../digests.txt")).expect("shipped digest table parses")
    }

    /// Checks `actual` against the table; returns one message per
    /// missing or mismatching entry.
    pub fn check(&self, preset: &str, actual: &BTreeMap<(u64, String), String>) -> Vec<String> {
        let mut problems = Vec::new();
        for ((seed, group), hex) in actual {
            match self
                .entries
                .get(&(preset.to_string(), *seed, group.clone()))
            {
                Some(want) if want == hex => {}
                Some(want) => problems.push(format!(
                    "design digest mismatch: {preset} seed {seed} {group}: got {hex}, recorded {want}"
                )),
                None => problems.push(format!(
                    "no recorded design digest for {preset} seed {seed} {group} (got {hex})"
                )),
            }
        }
        problems
    }

    /// Renders `actual` as table lines (for `--print-digests`).
    pub fn render(preset: &str, actual: &BTreeMap<(u64, String), String>) -> String {
        actual
            .iter()
            .map(|((seed, group), hex)| format!("{preset} {seed} {group} {hex}\n"))
            .collect()
    }
}
