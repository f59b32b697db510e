//! Bin packing of future-application items into slack containers.
//!
//! The paper computes the C1 metrics with a "bin-packing algorithm using
//! the best-fit policy: processes as objects to be packed, and the slack
//! as containers". First-fit and worst-fit are provided as ablation
//! baselines.
//!
//! [`pack`] is the reference: it places every item into an indexed
//! container list and reports where each one went. [`pack_totals_sorted`]
//! computes only its totals, from sorted items and sorted capacities,
//! packing a run of equal-sized items in one walk over the bins — the
//! evaluation engine's C1 path ([`crate::C1Cache`]), whose future items
//! come in a handful of distinct sizes.

use incdes_model::Time;
use serde::{Deserialize, Serialize};

/// Which bin an item is placed into among those it fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitPolicy {
    /// The fitting bin with the *least* remaining capacity (paper default).
    BestFit,
    /// The first fitting bin in container order.
    FirstFit,
    /// The fitting bin with the *most* remaining capacity.
    WorstFit,
}

/// Result of a packing run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackOutcome {
    /// For each item (in the order given): the container index it was
    /// packed into, or `None` if it did not fit anywhere.
    pub placement: Vec<Option<usize>>,
    /// Total size of packed items.
    pub packed: Time,
    /// Total size of items that did not fit.
    pub unpacked: Time,
    /// Remaining capacity of every container after packing.
    pub remaining: Vec<Time>,
}

impl PackOutcome {
    /// Fraction (in percent) of total item size left unpacked; 0 if there
    /// were no items.
    pub fn unpacked_percent(&self) -> f64 {
        let total = self.packed + self.unpacked;
        if total.is_zero() {
            0.0
        } else {
            100.0 * self.unpacked.as_f64() / total.as_f64()
        }
    }
}

/// Packs `items` into `containers` (given as capacities) with `policy`,
/// considering items in decreasing size order (best-fit-decreasing when
/// combined with [`FitPolicy::BestFit`]).
///
/// Zero-sized items are "packed" trivially (they consume nothing);
/// zero-capacity containers never receive anything.
pub fn pack(items: &[Time], containers: &[Time], policy: FitPolicy) -> PackOutcome {
    let mut remaining: Vec<Time> = containers.to_vec();
    let mut placement: Vec<Option<usize>> = vec![None; items.len()];

    // Indices of items sorted by decreasing size (stable for determinism).
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| items[b].cmp(&items[a]).then(a.cmp(&b)));

    let mut packed = Time::ZERO;
    let mut unpacked = Time::ZERO;
    for idx in order {
        let size = items[idx];
        if size.is_zero() {
            placement[idx] = Some(usize::MAX); // marker: trivially packed
            continue;
        }
        let candidate = match policy {
            FitPolicy::BestFit => remaining
                .iter()
                .enumerate()
                .filter(|&(_, &cap)| cap >= size)
                .min_by_key(|&(i, &cap)| (cap, i))
                .map(|(i, _)| i),
            FitPolicy::FirstFit => remaining.iter().position(|&cap| cap >= size),
            FitPolicy::WorstFit => remaining
                .iter()
                .enumerate()
                .filter(|&(_, &cap)| cap >= size)
                .max_by(|&(i, &a), &(j, &b)| a.cmp(&b).then(j.cmp(&i)))
                .map(|(i, _)| i),
        };
        match candidate {
            Some(bin) => {
                remaining[bin] -= size;
                placement[idx] = Some(bin);
                packed += size;
            }
            None => {
                unpacked += size;
            }
        }
    }
    // Normalize the zero-size marker to container 0 when possible, else None.
    for p in placement.iter_mut() {
        if *p == Some(usize::MAX) {
            *p = if containers.is_empty() { None } else { Some(0) };
        }
    }
    PackOutcome {
        placement,
        packed,
        unpacked,
        remaining,
    }
}

/// Packing totals of [`pack`] for sorted inputs, computed one run of
/// equal-sized items at a time.
///
/// Returns `(packed, unpacked)`, exactly the totals [`pack`] reports for
/// the same item sizes and container capacities: best fit picks the
/// smallest capacity ≥ size and worst fit the largest, so the multiset
/// of remaining capacities evolves as in [`pack`] — index-order
/// tie-breaks only choose *which* of several equal containers receives
/// an item, never the totals. First-fit totals depend on container
/// order, which sorting discards: the call returns `None` and the caller
/// must use [`pack`].
///
/// `items_desc` must be sorted decreasing and `bins` ascending. `bins`
/// is scratch: it holds the residual capacities, still ascending,
/// afterwards. Zero-sized items consume nothing.
///
/// Best fit packs a run of `k` items of size `s` in closed form. The
/// smallest bin `c ≥ s` takes an item, and its residual `c − s` stays
/// the smallest bin ≥ `s` while it is ≥ `s`, so that bin takes
/// `min(k, ⌊c/s⌋)` items before the next bin gets any. The run walks
/// the bins ≥ `s` in ascending order and re-sorts the touched prefix
/// once — `O(distinct sizes × bins)` instead of `O(items × log bins)`.
/// Worst fit packs item by item: the largest bin is the last one, and
/// its residual moves left by one bounded memmove.
pub fn pack_totals_sorted(
    items_desc: &[Time],
    bins: &mut [Time],
    policy: FitPolicy,
) -> Option<(Time, Time)> {
    if policy == FitPolicy::FirstFit {
        return None;
    }
    debug_assert!(
        items_desc.windows(2).all(|w| w[0] >= w[1]),
        "items must be sorted decreasing"
    );
    debug_assert!(
        bins.windows(2).all(|w| w[0] <= w[1]),
        "bins must be sorted ascending"
    );
    let mut packed = Time::ZERO;
    let mut unpacked = Time::ZERO;
    for run in items_desc.chunk_by(|a, b| a == b) {
        let size = run[0];
        if size.is_zero() {
            continue;
        }
        let count = run.len() as u64;
        let left = if policy == FitPolicy::BestFit {
            best_fit_run(size, count, bins)
        } else {
            worst_fit_run(size, count, bins)
        };
        packed += size * (count - left);
        unpacked += size * left;
    }
    Some((packed, unpacked))
}

/// Best-fits `count` items of `size` into the ascending `bins`; returns
/// how many did not fit.
fn best_fit_run(size: Time, count: u64, bins: &mut [Time]) -> u64 {
    let mut left = count;
    let mut end = bins.partition_point(|&c| c < size);
    while left > 0 && end < bins.len() {
        let take = left.min(bins[end].ticks() / size.ticks());
        bins[end] -= size * take;
        left -= take;
        end += 1;
    }
    // Every touched bin but the last now holds less than `size`; the
    // last one's residual may still be ≥ `size`. The untouched bins
    // beyond `end` are at least the last one's original capacity, so
    // sorting the prefix restores the order.
    bins[..end].sort_unstable();
    left
}

/// Worst-fits `count` items of `size` into the ascending `bins`; returns
/// how many did not fit.
fn worst_fit_run(size: Time, count: u64, bins: &mut [Time]) -> u64 {
    for placed in 0..count {
        match bins.last().copied() {
            Some(c) if c >= size => {
                let rem = c - size;
                let last = bins.len() - 1;
                let q = bins[..last].partition_point(|&x| x < rem);
                bins[q..].rotate_right(1);
                bins[q] = rem;
            }
            _ => return count - placed,
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    fn ts(vs: &[u64]) -> Vec<Time> {
        vs.iter().copied().map(Time::new).collect()
    }

    #[test]
    fn everything_fits_one_big_bin() {
        let out = pack(&ts(&[3, 5, 2]), &ts(&[20]), FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(0));
        assert_eq!(out.packed, t(10));
        assert_eq!(out.remaining, vec![t(10)]);
        assert_eq!(out.unpacked_percent(), 0.0);
        assert!(out.placement.iter().all(|p| *p == Some(0)));
    }

    #[test]
    fn best_fit_prefers_tight_bin() {
        // Item 5 fits bins of 6 and 10 → best-fit picks 6.
        let out = pack(&ts(&[5]), &ts(&[10, 6]), FitPolicy::BestFit);
        assert_eq!(out.placement, vec![Some(1)]);
        assert_eq!(out.remaining, vec![t(10), t(1)]);
    }

    #[test]
    fn first_fit_takes_first() {
        let out = pack(&ts(&[5]), &ts(&[10, 6]), FitPolicy::FirstFit);
        assert_eq!(out.placement, vec![Some(0)]);
    }

    #[test]
    fn worst_fit_takes_roomiest() {
        let out = pack(&ts(&[5]), &ts(&[6, 10]), FitPolicy::WorstFit);
        assert_eq!(out.placement, vec![Some(1)]);
    }

    #[test]
    fn decreasing_order_packs_better() {
        // Classic case: items 6,5,4,3 into bins 9,9. Decreasing order
        // packs (6,3) and (5,4); increasing/greedy could fail.
        let out = pack(&ts(&[3, 4, 5, 6]), &ts(&[9, 9]), FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(0));
    }

    #[test]
    fn overflow_reported() {
        let out = pack(&ts(&[8, 8]), &ts(&[10]), FitPolicy::BestFit);
        assert_eq!(out.packed, t(8));
        assert_eq!(out.unpacked, t(8));
        assert!((out.unpacked_percent() - 50.0).abs() < 1e-12);
        assert_eq!(out.placement.iter().filter(|p| p.is_none()).count(), 1);
    }

    #[test]
    fn no_containers() {
        let out = pack(&ts(&[4, 2]), &[], FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(6));
        assert_eq!(out.unpacked_percent(), 100.0);
        assert_eq!(out.placement, vec![None, None]);
    }

    #[test]
    fn no_items() {
        let out = pack(&[], &ts(&[5]), FitPolicy::BestFit);
        assert_eq!(out.unpacked_percent(), 0.0);
        assert_eq!(out.packed, t(0));
    }

    #[test]
    fn zero_sized_items_trivially_packed() {
        let out = pack(&ts(&[0, 3]), &ts(&[3]), FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(0));
        assert_eq!(out.placement[0], Some(0));
        assert_eq!(out.remaining, vec![t(0)]);
    }

    #[test]
    fn best_fit_beats_or_ties_worst_fit_here() {
        // Items (decreasing) 5,3,3 into bins {6,5}: best-fit puts the 5
        // into the 5-bin and both 3s into the 6-bin; worst-fit burns the
        // 6-bin on the 5 and strands the last 3.
        let items = ts(&[5, 3, 3]);
        let bins = ts(&[6, 5]);
        let best = pack(&items, &bins, FitPolicy::BestFit);
        let worst = pack(&items, &bins, FitPolicy::WorstFit);
        assert_eq!(best.unpacked, t(0));
        assert_eq!(worst.unpacked, t(3));
    }

    /// Runs [`pack_totals_sorted`] on `items`/`bins` and compares it with
    /// [`pack`]: equal totals, and the residual bins are `pack`'s
    /// remaining capacities, sorted.
    fn check_sorted_packer(
        items: &[u64],
        bins: &[u64],
        policy: FitPolicy,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let items = ts(items);
        let bins = ts(bins);
        let reference = pack(&items, &bins, policy);
        let mut desc = items.clone();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        let mut sorted = bins.clone();
        sorted.sort_unstable();
        let (packed, unpacked) =
            pack_totals_sorted(&desc, &mut sorted, policy).expect("policy supported");
        prop_assert_eq!(packed, reference.packed);
        prop_assert_eq!(unpacked, reference.unpacked);
        let mut remaining = reference.remaining;
        remaining.sort_unstable();
        prop_assert_eq!(sorted, remaining);
        Ok(())
    }

    /// A best-fit run that ends inside a bin whose residual can still
    /// take another item of the run's size: the next run must see that
    /// bin in sorted position.
    #[test]
    fn best_fit_run_ends_in_bin_with_room() {
        // 5×3: the 6-bin takes one (1 left), the 22-bin takes two and
        // keeps 12 ≥ 5. Then 4×8: the 12-bin takes three, the 23-bin
        // five.
        let items = ts(&[5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4]);
        let mut bins = ts(&[6, 22, 23]);
        let totals = pack_totals_sorted(&items, &mut bins, FitPolicy::BestFit);
        assert_eq!(totals, Some((t(47), t(0))));
        assert_eq!(bins, ts(&[0, 1, 3]));
        let reference = pack(&items, &ts(&[6, 22, 23]), FitPolicy::BestFit);
        assert_eq!((reference.packed, reference.unpacked), (t(47), t(0)));
    }

    #[test]
    fn sorted_packer_rejects_first_fit() {
        let mut bins = ts(&[1, 5]);
        assert_eq!(
            pack_totals_sorted(&ts(&[1]), &mut bins, FitPolicy::FirstFit),
            None
        );
        assert_eq!(bins, ts(&[1, 5]), "bins untouched");
    }

    proptest! {
        /// Conservation: packed + unpacked equals the item total, and
        /// remaining capacities never go negative or exceed originals.
        #[test]
        fn prop_conservation(
            items in proptest::collection::vec(0u64..50, 0..30),
            bins in proptest::collection::vec(0u64..80, 0..15),
            policy in prop_oneof![
                Just(FitPolicy::BestFit),
                Just(FitPolicy::FirstFit),
                Just(FitPolicy::WorstFit)
            ],
        ) {
            let items = ts(&items);
            let bins_t = ts(&bins);
            let out = pack(&items, &bins_t, policy);
            let total: Time = items.iter().copied().sum();
            prop_assert_eq!(out.packed + out.unpacked, total);
            for (i, &rem) in out.remaining.iter().enumerate() {
                prop_assert!(rem <= bins_t[i]);
            }
            // Per-bin usage equals capacity - remaining.
            let mut used = vec![Time::ZERO; bins.len()];
            for (idx, p) in out.placement.iter().enumerate() {
                if let Some(b) = p {
                    if !items[idx].is_zero() {
                        used[*b] += items[idx];
                    }
                }
            }
            for (i, &u) in used.iter().enumerate() {
                prop_assert_eq!(u, bins_t[i] - out.remaining[i]);
            }
        }

        /// The sorted packer's totals are *exactly* the indexed packer's
        /// for best fit and worst fit (the policies whose totals are a
        /// pure function of the capacity multiset), and the residual
        /// capacities it leaves are `pack`'s `remaining`, sorted.
        #[test]
        fn prop_sorted_packer_matches_pack(
            items in proptest::collection::vec(0u64..50, 0..30),
            bins in proptest::collection::vec(0u64..80, 0..15),
            best in 0u8..2,
        ) {
            let policy = if best == 0 { FitPolicy::BestFit } else { FitPolicy::WorstFit };
            check_sorted_packer(&items, &bins, policy)?;
        }

        /// Long runs of equal-sized items (the synthetic future
        /// profiles' shape, which the best-fit run walk packs in closed
        /// form), mixed with extras, zero-size items and zero-capacity
        /// bins, still produce exactly the indexed packer's totals.
        #[test]
        fn prop_sorted_packer_matches_pack_on_runs(
            runs in proptest::collection::vec((0u64..12, 1usize..60), 1..5),
            extra in proptest::collection::vec(0u64..50, 0..8),
            bins in proptest::collection::vec(0u64..80, 0..12),
            zero_bins in 0usize..3,
            best in 0u8..2,
        ) {
            let policy = if best == 0 { FitPolicy::BestFit } else { FitPolicy::WorstFit };
            let mut items: Vec<u64> = extra;
            for (size, len) in runs {
                items.extend(std::iter::repeat_n(size, len));
            }
            let mut bins = bins;
            bins.extend(std::iter::repeat_n(0, zero_bins));
            check_sorted_packer(&items, &bins, policy)?;
        }

        /// Best-fit-decreasing never leaves an item unpacked if some bin
        /// could still hold it.
        #[test]
        fn prop_no_fitting_item_stranded(
            items in proptest::collection::vec(1u64..50, 1..25),
            bins in proptest::collection::vec(1u64..80, 1..10),
        ) {
            let items = ts(&items);
            let bins_t = ts(&bins);
            let out = pack(&items, &bins_t, FitPolicy::BestFit);
            for (idx, p) in out.placement.iter().enumerate() {
                if p.is_none() {
                    let max_rem = out.remaining.iter().copied().max().unwrap();
                    prop_assert!(items[idx] > max_rem,
                        "item {} of size {} stranded with max remaining {}",
                        idx, items[idx], max_rem);
                }
            }
        }
    }
}
