//! The run-length C1 packer on the paper's real item lists.
//!
//! The `dac2001` future profile expands to ~1,600 process items and
//! ~180 message items in a handful of distinct sizes — long runs of
//! equal items, the shape the best-fit run walk packs in closed form.
//! This packs them into random gap lists through `C1Cache::c1_terms`
//! and compares every term with the reference `criteria::c1_*`, which
//! runs the indexed item-by-item packer.

use incdes::metrics::criteria::{c1_messages, c1_processes};
use incdes::metrics::{C1Cache, FitPolicy};
use incdes::model::Time;
use incdes::sched::SlackProfile;
use incdes::synth::generate_architecture;
use incdes::synth::paper::dac2001;
use incdes_bench::scaled_future;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Sorted, disjoint intervals inside `[0, horizon)`, of lengths below
/// `max_len` and separated by busy stretches below `max_busy`.
fn random_gaps(
    rng: &mut ChaCha8Rng,
    horizon: u64,
    max_len: u64,
    max_busy: u64,
) -> Vec<(Time, Time)> {
    let mut out = Vec::new();
    let mut cursor = rng.gen_range(0..max_busy);
    while cursor < horizon {
        let end = (cursor + rng.gen_range(1..max_len)).min(horizon);
        out.push((Time::new(cursor), Time::new(end)));
        cursor = end + rng.gen_range(1..max_busy);
    }
    out
}

#[test]
fn run_length_packer_matches_reference_on_dac2001_items() {
    let preset = dac2001();
    let arch = generate_architecture(&preset.cfg).expect("preset architecture is valid");
    let future = scaled_future(&preset);
    let horizon = 960u64;
    let items = future.expected_process_items(Time::new(horizon));
    assert!(items.len() > 1000, "paper-scale item list: {}", items.len());
    let mut partial = [false; 2];

    let mut rng = ChaCha8Rng::seed_from_u64(2001);
    let mut cache = C1Cache::new();
    for round in 0..12 {
        // Short gaps strand most items, long ones absorb whole runs:
        // sweep the typical gap length across the item sizes.
        let max_len = 4 + 8 * round;
        let pe_gaps = (0..arch.pe_count())
            .map(|_| random_gaps(&mut rng, horizon, max_len, max_len))
            .collect();
        // The message items are a few ticks each: sparse windows keep
        // C1m off 0.
        let bus = random_gaps(&mut rng, horizon, 4, 40);
        let slack = SlackProfile::from_parts(Time::new(horizon), pe_gaps, bus);
        for policy in [FitPolicy::BestFit, FitPolicy::WorstFit, FitPolicy::FirstFit] {
            let (c1p, c1m) = cache.c1_terms(&arch, &slack, &future, policy);
            assert_eq!(
                c1p,
                c1_processes(&slack, &future, policy),
                "C1P, round {round}, {policy:?}"
            );
            assert_eq!(
                c1m,
                c1_messages(&arch, &slack, &future, policy),
                "C1m, round {round}, {policy:?}"
            );
            partial[0] |= c1p > 0.0 && c1p < 100.0;
            partial[1] |= c1m > 0.0 && c1m < 100.0;
        }
    }
    assert_eq!(
        partial, [true; 2],
        "some profiles pack only part of the items"
    );
}
