//! Splice-aware cache for the C2 (slack distribution) criterion.
//!
//! [`criteria::c2_intervals`](crate::criteria::c2_intervals) scans every
//! `t_min` window of the horizon on every call. [`C2Cache`] retains the
//! per-window slack vector of each resource's previous list and diffs
//! the new list against it (common prefix and suffix are found in one
//! linear pass — a delta-spliced schedule changes a handful of adjacent
//! reservations, so the differing middle is short), recomputing only
//! the windows the changed span intersects. Everything outside the span
//! keeps its cached per-window slack, because the interval lists are
//! sorted and disjoint: a window that intersects no changed interval
//! has a bit-identical overlap sum. An unchanged list costs one linear
//! comparison and recomputes nothing.
//!
//! The terms produced are exactly
//! [`c2_intervals`](crate::criteria::c2_intervals) — the equivalence is
//! pinned by randomized tests below.

use incdes_model::Time;
use incdes_obs::counters::{self, Counter};
use incdes_sched::slack::{window_overlap, GapList};
use std::sync::Arc;

/// One cached interval list with its per-window slack decomposition.
#[derive(Debug)]
struct Entry {
    /// The list the windows were measured on; the next lookup diffs
    /// against it.
    arc: GapList,
    /// Slack per full `t_min` window (a single `[0, horizon)` entry
    /// when the horizon is shorter than `t_min`).
    windows: Vec<Time>,
    /// `windows.iter().min()` — the C2 term.
    min: Time,
}

/// Per-resource C2 term cache with window-level incremental updates.
///
/// One slot per PE plus one for the bus. Two tiers per lookup: a seen
/// resource recomputes only the windows its diff span intersects (none
/// for an equal list), and anything else (first sight, window-grid
/// change) rebuilds from scratch.
#[derive(Debug, Default)]
pub struct C2Cache {
    pe: Vec<Option<Entry>>,
    bus: Option<Entry>,
    /// The window grid the cached entries were built for; a change
    /// (new horizon or `t_min`) invalidates everything.
    grid: Option<(Time, Time)>,
    windows_recomputed: usize,
    full_rebuilds: usize,
}

impl C2Cache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        C2Cache::default()
    }

    /// The C2 term of PE `index` for `intervals` over `horizon` with
    /// window length `t_min` — bit-equal to
    /// [`c2_intervals`](crate::criteria::c2_intervals) on the same
    /// inputs.
    pub fn pe_term(
        &mut self,
        index: usize,
        intervals: &GapList,
        horizon: Time,
        t_min: Time,
    ) -> Time {
        self.check_grid(horizon, t_min);
        if index >= self.pe.len() {
            self.pe.resize_with(index + 1, || None);
        }
        Self::term(
            &mut self.pe[index],
            intervals,
            horizon,
            t_min,
            &mut self.windows_recomputed,
            &mut self.full_rebuilds,
        )
    }

    /// The C2 term of the bus window list — see [`Self::pe_term`].
    pub fn bus_term(&mut self, intervals: &GapList, horizon: Time, t_min: Time) -> Time {
        self.check_grid(horizon, t_min);
        Self::term(
            &mut self.bus,
            intervals,
            horizon,
            t_min,
            &mut self.windows_recomputed,
            &mut self.full_rebuilds,
        )
    }

    /// Drops cached slots beyond `n` PEs (and allocates up to `n`).
    pub fn set_pe_count(&mut self, n: usize) {
        self.pe.truncate(n);
        self.pe.resize_with(n, || None);
    }

    /// Total windows recomputed by the incremental tier (diagnostics:
    /// splice-aware updates should touch far fewer windows than a full
    /// scan).
    pub fn windows_recomputed(&self) -> usize {
        self.windows_recomputed
    }

    /// Full per-window rebuilds (first sight of a resource, or a list
    /// diff spanning the whole horizon).
    pub fn full_rebuilds(&self) -> usize {
        self.full_rebuilds
    }

    fn check_grid(&mut self, horizon: Time, t_min: Time) {
        if self.grid != Some((horizon, t_min)) {
            for slot in &mut self.pe {
                *slot = None;
            }
            self.bus = None;
            self.grid = Some((horizon, t_min));
        }
    }

    fn term(
        slot: &mut Option<Entry>,
        intervals: &GapList,
        horizon: Time,
        t_min: Time,
        windows_recomputed: &mut usize,
        full_rebuilds: &mut usize,
    ) -> Time {
        if t_min.is_zero() {
            return Time::ZERO;
        }
        match slot {
            Some(e) => Self::update(e, intervals, horizon, t_min, windows_recomputed),
            None => {
                *full_rebuilds += 1;
                counters::bump(Counter::C2FullRebuilds);
                let e = Self::build(intervals, horizon, t_min);
                let min = e.min;
                *slot = Some(e);
                min
            }
        }
    }

    fn build(intervals: &GapList, horizon: Time, t_min: Time) -> Entry {
        let full_windows = horizon.ticks() / t_min.ticks();
        let mut windows = Vec::with_capacity(full_windows.max(1) as usize);
        if full_windows == 0 {
            windows.push(window_overlap(intervals, Time::ZERO, horizon));
        } else {
            for k in 0..full_windows {
                let from = Time::new(k * t_min.ticks());
                windows.push(window_overlap(intervals, from, from + t_min));
            }
        }
        let min = *windows.iter().min().expect("at least one window");
        Entry {
            arc: Arc::clone(intervals),
            windows,
            min,
        }
    }

    /// Recomputes only the windows intersecting the span where the two
    /// (sorted, disjoint) interval lists differ.
    fn update(
        e: &mut Entry,
        intervals: &GapList,
        horizon: Time,
        t_min: Time,
        windows_recomputed: &mut usize,
    ) -> Time {
        let old: &[(Time, Time)] = &e.arc;
        let new: &[(Time, Time)] = intervals;
        let overlap_max = old.len().min(new.len());
        let mut p = 0usize;
        while p < overlap_max && old[p] == new[p] {
            p += 1;
        }
        if p == old.len() && p == new.len() {
            return e.min;
        }
        let mut s = 0usize;
        while s < overlap_max - p && old[old.len() - 1 - s] == new[new.len() - 1 - s] {
            s += 1;
        }
        // Both middles lie inside [lo, hi); every interval outside the
        // middles is shared, so windows disjoint from the span keep a
        // bit-identical overlap sum.
        let old_mid = &old[p..old.len() - s];
        let new_mid = &new[p..new.len() - s];
        let lo = match (old_mid.first(), new_mid.first()) {
            (Some(a), Some(b)) => a.0.min(b.0),
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
            (None, None) => unreachable!("lists differ"),
        };
        let hi = match (old_mid.last(), new_mid.last()) {
            (Some(a), Some(b)) => a.1.max(b.1),
            (Some(a), None) => a.1,
            (None, Some(b)) => b.1,
            (None, None) => unreachable!("lists differ"),
        };
        let full_windows = horizon.ticks() / t_min.ticks();
        if full_windows == 0 {
            *windows_recomputed += 1;
            counters::bump(Counter::C2WindowsRecomputed);
            e.windows[0] = window_overlap(new, Time::ZERO, horizon);
        } else {
            debug_assert_eq!(e.windows.len() as u64, full_windows, "grid is stable");
            let lo_w = (lo.ticks() / t_min.ticks()).min(full_windows);
            let hi_w = ((hi.ticks() + t_min.ticks() - 1) / t_min.ticks()).min(full_windows);
            for k in lo_w..hi_w {
                let from = Time::new(k * t_min.ticks());
                e.windows[k as usize] = window_overlap(new, from, from + t_min);
                *windows_recomputed += 1;
                counters::bump(Counter::C2WindowsRecomputed);
            }
        }
        e.min = *e.windows.iter().min().expect("at least one window");
        e.arc = Arc::clone(intervals);
        e.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::c2_intervals;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// Deterministic xorshift* so the tests need no external RNG crate.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Sorted, disjoint interval list inside [0, horizon).
    fn random_intervals(rng: &mut Lcg, horizon: u64) -> Vec<(Time, Time)> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        while cursor + 2 < horizon {
            cursor += rng.below(40);
            let len = 1 + rng.below(30);
            let end = (cursor + len).min(horizon);
            if cursor >= end {
                break;
            }
            out.push((t(cursor), t(end)));
            cursor = end + 1;
        }
        out
    }

    /// A localized mutation: drop, shrink or insert one interval.
    fn mutate(rng: &mut Lcg, list: &[(Time, Time)], horizon: u64) -> Vec<(Time, Time)> {
        let mut out = list.to_vec();
        if out.is_empty() {
            out.push((t(rng.below(horizon / 2)), t(horizon / 2 + 1)));
            return out;
        }
        let i = rng.below(out.len() as u64) as usize;
        match rng.below(3) {
            0 => {
                out.remove(i);
            }
            1 => {
                let (s, e) = out[i];
                if e - s > t(1) {
                    out[i] = (s, e - t(1));
                } else {
                    out.remove(i);
                }
            }
            _ => {
                let (s, e) = out[i];
                if e - s > t(2) {
                    // Split: carve a hole in the middle.
                    let mid = s + (e - s) / 2;
                    out[i] = (s, mid);
                    out.insert(i + 1, (mid + t(1), e));
                }
            }
        }
        out
    }

    #[test]
    fn matches_c2_intervals_across_mutation_chains() {
        let mut rng = Lcg(0x9e3779b97f4a7c15);
        for &(horizon, t_min) in &[(480u64, 120u64), (480, 70), (60, 120), (997, 13)] {
            let mut cache = C2Cache::new();
            let mut list: GapList = random_intervals(&mut rng, horizon).into();
            for _ in 0..200 {
                let expect = c2_intervals(&list, t(horizon), t(t_min));
                let got = cache.pe_term(0, &list, t(horizon), t(t_min));
                assert_eq!(got, expect, "H={horizon} t_min={t_min} list={list:?}");
                // An unchanged list must agree too.
                assert_eq!(cache.pe_term(0, &list, t(horizon), t(t_min)), expect);
                list = mutate(&mut rng, &list, horizon).into();
            }
        }
    }

    #[test]
    fn localized_change_recomputes_few_windows() {
        let mut cache = C2Cache::new();
        let horizon = t(1200);
        let t_min = t(100);
        let a: Vec<(Time, Time)> = (0..12)
            .map(|k| (t(k * 100 + 10), t(k * 100 + 60)))
            .collect();
        let mut b = a.clone();
        b[5] = (t(515), t(555)); // only window 5 is affected
        let a: GapList = a.into();
        let b: GapList = b.into();
        cache.pe_term(0, &a, horizon, t_min);
        let before = cache.windows_recomputed();
        let got = cache.pe_term(0, &b, horizon, t_min);
        assert_eq!(got, c2_intervals(&b, horizon, t_min));
        assert_eq!(
            cache.windows_recomputed() - before,
            1,
            "a one-interval change inside one window recomputes one window"
        );
    }

    #[test]
    fn value_equal_lists_swap_storage_without_recompute() {
        let mut cache = C2Cache::new();
        let a: GapList = vec![(t(0), t(50)), (t(100), t(150))].into();
        let b: GapList = a.to_vec().into();
        let term = cache.pe_term(0, &a, t(480), t(120));
        let before = cache.windows_recomputed();
        assert_eq!(cache.pe_term(0, &b, t(480), t(120)), term);
        assert_eq!(cache.windows_recomputed(), before);
        // And the original storage still agrees.
        assert_eq!(cache.pe_term(0, &a, t(480), t(120)), term);
        assert_eq!(cache.windows_recomputed(), before);
    }

    #[test]
    fn zero_t_min_and_short_horizon_edges() {
        let mut cache = C2Cache::new();
        let a: GapList = vec![(t(5), t(25))].into();
        assert_eq!(cache.pe_term(0, &a, t(480), Time::ZERO), Time::ZERO);
        // Horizon shorter than t_min: the single [0, horizon) window.
        assert_eq!(
            cache.pe_term(0, &a, t(60), t(120)),
            c2_intervals(&a, t(60), t(120))
        );
        let b: GapList = vec![(t(5), t(20))].into();
        assert_eq!(
            cache.pe_term(0, &b, t(60), t(120)),
            c2_intervals(&b, t(60), t(120))
        );
    }

    #[test]
    fn grid_change_invalidates() {
        let mut cache = C2Cache::new();
        let a: GapList = vec![(t(0), t(50)), (t(200), t(300))].into();
        assert_eq!(
            cache.pe_term(0, &a, t(480), t(120)),
            c2_intervals(&a, t(480), t(120))
        );
        assert_eq!(
            cache.pe_term(0, &a, t(480), t(60)),
            c2_intervals(&a, t(480), t(60))
        );
        assert_eq!(
            cache.bus_term(&a, t(480), t(60)),
            c2_intervals(&a, t(480), t(60))
        );
    }
}
