//! The C1 bin-packing terms of one evaluation context.
//!
//! The C1 metrics pack the largest expected future application into the
//! slack containers of the current design alternative — every gap of
//! every PE for `C1P`, every free bus window for `C1m`. The reference
//! [`crate::criteria::c1_processes`] / [`crate::criteria::c1_messages`]
//! expand the items and run the indexed `O(items · bins)` packer on
//! every call.
//!
//! [`C1Cache`] is a pure function of the slack profile that keeps only
//! what does not depend on it: the decreasing item lists of the future
//! application (rebuilt when the future profile, the horizon or the
//! bus rate change) and reused scratch for the container lengths. Each
//! call collects every PE gap and bus window length, sorts them, and
//! packs with [`crate::binpack::pack_totals_sorted`], which best-fits
//! one run of equal-sized items at a time. The totals are **exactly**
//! the reference packer's for best fit and worst fit; the
//! order-dependent first fit delegates to the reference functions, so
//! every policy gets a value.

use crate::binpack::{pack_totals_sorted, FitPolicy};
use crate::criteria::{c1_messages, c1_processes};
use incdes_model::{Architecture, FutureProfile, PeId, Time};
use incdes_sched::SlackProfile;

/// The C1 packer's per-context state: the future items and scratch.
/// Reuse across contexts is safe — the items are rebuilt whenever the
/// future profile, the horizon or the bus rate differ.
#[derive(Debug, Default)]
pub struct C1Cache {
    /// What the items were built for: the future profile, the horizon
    /// and the bus's bytes-per-tick rate (nothing else of the
    /// architecture affects them).
    future: Option<FutureProfile>,
    bytes_per_tick: u32,
    horizon: Time,
    /// Future process items, sorted decreasing.
    proc_items: Vec<Time>,
    /// Future message items (already converted to bus time), sorted
    /// decreasing.
    msg_items: Vec<Time>,
    /// Scratch: the container lengths of the current call.
    bins: Vec<Time>,
    /// Diagnostics: resources collected since construction.
    collected: usize,
}

impl C1Cache {
    /// An empty cache; the first evaluation builds the items.
    pub fn new() -> Self {
        C1Cache::default()
    }

    /// Number of resources whose containers were collected so far:
    /// `pe_count + 1` (every PE and the bus) per call. Diagnostics for
    /// tests and benches.
    pub fn patched_resource_count(&self) -> usize {
        self.collected
    }

    /// The `(C1P, C1m)` terms of `slack` — bit-equal to
    /// [`c1_processes`] and [`c1_messages`] for every policy.
    pub fn c1_terms(
        &mut self,
        arch: &Architecture,
        slack: &SlackProfile,
        future: &FutureProfile,
        policy: FitPolicy,
    ) -> (f64, f64) {
        self.collected += slack.pe_count() + 1;
        if policy == FitPolicy::FirstFit {
            return (
                c1_processes(slack, future, policy),
                c1_messages(arch, slack, future, policy),
            );
        }
        let horizon = slack.horizon();
        let bus = arch.bus();
        if self.horizon != horizon
            || self.bytes_per_tick != bus.bytes_per_tick
            || self.future.as_ref() != Some(future)
        {
            self.horizon = horizon;
            self.bytes_per_tick = bus.bytes_per_tick;
            self.future = Some(future.clone());
            self.proc_items = future.expected_process_items(horizon);
            self.proc_items.sort_unstable_by(|a, b| b.cmp(a));
            self.msg_items =
                future.expected_message_items(horizon, |bytes| bus.transmission_time(bytes));
            self.msg_items.sort_unstable_by(|a, b| b.cmp(a));
        }
        self.bins.clear();
        for i in 0..slack.pe_count() {
            let gaps = slack.gaps_of(PeId(i as u32));
            self.bins.extend(gaps.iter().map(|&(s, e)| e - s));
        }
        let c1p = unpacked_percent(&self.proc_items, &mut self.bins, policy);
        self.bins.clear();
        let windows = slack.bus_windows().iter().map(|&(s, e)| e - s);
        self.bins.extend(windows);
        let c1m = unpacked_percent(&self.msg_items, &mut self.bins, policy);
        (c1p, c1m)
    }
}

/// Sorts `bins`, packs `items_desc` into them and returns the percentage
/// of total item size left unpacked (0 if there were no items) — the
/// same arithmetic as [`crate::binpack::PackOutcome::unpacked_percent`],
/// on identical integer totals, so the floats are bit-equal.
fn unpacked_percent(items_desc: &[Time], bins: &mut [Time], policy: FitPolicy) -> f64 {
    bins.sort_unstable();
    let (packed, unpacked) =
        pack_totals_sorted(items_desc, bins, policy).expect("first fit is delegated");
    let total = packed + unpacked;
    if total.is_zero() {
        0.0
    } else {
        100.0 * unpacked.as_f64() / total.as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_model::{BusConfig, Histogram};
    use incdes_sched::slack::GapList;
    use std::sync::Arc;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, t(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn profile() -> FutureProfile {
        FutureProfile::new(
            t(120),
            t(40),
            t(10),
            Histogram::point(t(20)),
            Histogram::point(4u32),
        )
    }

    /// Hand-rolled profiles with evolving shared storage: the cache must
    /// track exactly the full recomputation at every step.
    #[test]
    fn cache_tracks_full_recomputation() {
        let arch = arch2();
        let future = profile();
        let mut cache = C1Cache::new();

        let shared_pe1: GapList = vec![(t(0), t(100))].into();
        let bus: GapList = vec![(t(0), t(10)), (t(20), t(30))].into();
        let steps: Vec<Vec<(Time, Time)>> = vec![
            vec![(t(0), t(480))],
            vec![(t(0), t(30)), (t(60), t(480))],
            vec![(t(0), t(30)), (t(60), t(400))],
            vec![(t(0), t(30)), (t(60), t(400))],
        ];
        for pe0 in steps {
            let slack = SlackProfile::from_shared(
                t(480),
                vec![pe0.into(), Arc::clone(&shared_pe1)].into(),
                Arc::clone(&bus),
            );
            let (c1p, c1m) = cache.c1_terms(&arch, &slack, &future, FitPolicy::BestFit);
            assert_eq!(c1p, c1_processes(&slack, &future, FitPolicy::BestFit));
            assert_eq!(c1m, c1_messages(&arch, &slack, &future, FitPolicy::BestFit));
        }
    }

    #[test]
    fn first_fit_delegates_to_reference() {
        let arch = arch2();
        let future = profile();
        let slack = SlackProfile::from_parts(
            t(480),
            vec![vec![(t(0), t(25)), (t(100), t(130))], vec![(t(0), t(60))]],
            vec![(t(0), t(10))],
        );
        let (c1p, c1m) = C1Cache::new().c1_terms(&arch, &slack, &future, FitPolicy::FirstFit);
        assert_eq!(c1p, c1_processes(&slack, &future, FitPolicy::FirstFit));
        assert_eq!(
            c1m,
            c1_messages(&arch, &slack, &future, FitPolicy::FirstFit)
        );
    }

    #[test]
    fn worst_fit_supported_and_exact() {
        let arch = arch2();
        let future = profile();
        let slack = SlackProfile::from_parts(
            t(480),
            vec![vec![(t(0), t(25)), (t(100), t(130))], vec![(t(0), t(480))]],
            vec![(t(0), t(10))],
        );
        let mut cache = C1Cache::new();
        let (c1p, c1m) = cache.c1_terms(&arch, &slack, &future, FitPolicy::WorstFit);
        assert_eq!(c1p, c1_processes(&slack, &future, FitPolicy::WorstFit));
        assert_eq!(
            c1m,
            c1_messages(&arch, &slack, &future, FitPolicy::WorstFit)
        );
    }

    /// A future-profile change (new context reusing a cache) rebuilds the
    /// items — stale items would silently misprice C1 otherwise.
    #[test]
    fn future_change_rebuilds() {
        let arch = arch2();
        let slack = SlackProfile::from_parts(
            t(480),
            vec![vec![(t(0), t(30))], vec![(t(0), t(480))]],
            vec![(t(0), t(10))],
        );
        let mut cache = C1Cache::new();
        let small = profile();
        let (c1p_small, _) = cache.c1_terms(&arch, &slack, &small, FitPolicy::BestFit);
        assert_eq!(c1p_small, c1_processes(&slack, &small, FitPolicy::BestFit));
        // Same horizon/policy/PE count, very different demand.
        let big = FutureProfile::new(
            t(120),
            t(400),
            t(10),
            Histogram::point(t(200)),
            Histogram::point(4u32),
        );
        let (c1p_big, _) = cache.c1_terms(&arch, &slack, &big, FitPolicy::BestFit);
        assert_eq!(c1p_big, c1_processes(&slack, &big, FitPolicy::BestFit));
        assert_ne!(c1p_small, c1p_big, "the demand change must be visible");
    }

    /// A PE-count change (new context reusing a cache) is measured
    /// afresh: no container of the old profile survives.
    #[test]
    fn pe_count_change_rebuilds() {
        let arch = arch2();
        let future = profile();
        let mut cache = C1Cache::new();
        let slack3 = SlackProfile::from_parts(t(480), vec![vec![]; 3], vec![]);
        cache.c1_terms(&arch, &slack3, &future, FitPolicy::BestFit);
        let slack2 = SlackProfile::from_parts(t(480), vec![vec![(t(0), t(480))]; 2], vec![]);
        let (c1p, _) = cache.c1_terms(&arch, &slack2, &future, FitPolicy::BestFit);
        assert_eq!(c1p, c1_processes(&slack2, &future, FitPolicy::BestFit));
    }
}
