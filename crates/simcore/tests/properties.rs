//! Property-based tests for the simulation engine's core invariants.

use proptest::prelude::*;

use std::collections::BTreeMap;

use siperf_simcore::arena::Arena;
use siperf_simcore::profile::Profiler;
use siperf_simcore::queue::EventQueue;
use siperf_simcore::rng::SimRng;
use siperf_simcore::stats::Histogram;
use siperf_simcore::time::{SimDuration, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, FIFO within a tie,
    /// and nothing is lost or invented.
    #[test]
    fn event_queue_is_a_stable_time_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, idx)) = q.pop() {
            popped.push((at.as_nanos(), idx));
        }
        prop_assert_eq!(popped.len(), times.len());
        // Non-decreasing time; ties in schedule order.
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        // Exactly the scheduled (time, index) pairs.
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        prop_assert_eq!(popped, expected);
    }

    /// Any interleaving of schedule, slot schedule, slot clear, pop and
    /// retain pops exactly what a sorted reference list of
    /// `(at, seq, event)` pops when the same entries are filtered out of
    /// it; retain never moves the watermark.
    #[test]
    fn event_queue_retain_matches_sorted_model(ops in proptest::collection::vec((0u8..6, 0u64..50, 2u64..6), 1..400)) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        // The sequence number of the model entry each slot holds.
        let mut slots: [Option<u64>; 4] = [None; 4];
        let mut now = 0u64;
        let mut seq = 0u64;
        for (op, a, m) in ops {
            let slot = (m - 2) as usize;
            match op {
                // Schedule twice as often as anything else so queues grow.
                0 | 1 => {
                    let event = seq * 31 + a;
                    q.schedule(SimTime::from_nanos(now + a), event);
                    model.push((now + a, seq, event));
                    seq += 1;
                }
                2 => {
                    model.sort_unstable();
                    let expected = (!model.is_empty()).then(|| model.remove(0));
                    let popped = q.pop();
                    prop_assert_eq!(
                        popped.map(|(t, e)| (t.as_nanos(), e)),
                        expected.map(|(t, _, e)| (t, e))
                    );
                    if let Some((t, s, _)) = expected {
                        now = t;
                        slots.iter_mut().filter(|h| **h == Some(s)).for_each(|h| *h = None);
                    }
                }
                3 => {
                    let keep = |e: &u64| e % m != a % m;
                    q.retain(keep);
                    model.retain(|(_, _, e)| keep(e));
                    for held in &mut slots {
                        if held.is_some_and(|s| !model.iter().any(|&(_, ms, _)| ms == s)) {
                            *held = None;
                        }
                    }
                    prop_assert_eq!(q.now().as_nanos(), now);
                }
                4 if slots[slot].is_none() => {
                    let event = seq * 31 + a;
                    q.schedule_slot(slot, SimTime::from_nanos(now + a), event);
                    model.push((now + a, seq, event));
                    slots[slot] = Some(seq);
                    seq += 1;
                }
                _ => {
                    let expected = slots[slot].take().map(|s| {
                        let i = model.iter().position(|&(_, ms, _)| ms == s).expect("held");
                        model.remove(i).2
                    });
                    prop_assert_eq!(q.clear_slot(slot), expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        model.sort_unstable();
        let rest: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        let expected: Vec<(u64, u64)> = model.iter().map(|&(t, _, e)| (t, e)).collect();
        prop_assert_eq!(rest, expected);
    }

    /// The arena behaves exactly like a map from issued handles to values,
    /// with stale handles never resolving.
    #[test]
    fn arena_matches_model(ops in proptest::collection::vec((0u8..3, 0usize..32, 0i64..1000), 1..300)) {
        let mut arena: Arena<i64> = Arena::new();
        let mut model: Vec<(siperf_simcore::arena::Handle<i64>, i64, bool)> = Vec::new();
        for (op, pick, value) in ops {
            match op {
                0 => {
                    let h = arena.insert(value);
                    model.push((h, value, true));
                }
                1 if !model.is_empty() => {
                    let k = pick % model.len();
                    let (h, v, live) = model[k];
                    let removed = arena.remove(h);
                    if live {
                        prop_assert_eq!(removed, Some(v));
                        model[k].2 = false;
                    } else {
                        prop_assert_eq!(removed, None);
                    }
                }
                _ if !model.is_empty() => {
                    let k = pick % model.len();
                    let (h, v, live) = model[k];
                    if live {
                        prop_assert_eq!(arena.get(h), Some(&v));
                    } else {
                        prop_assert_eq!(arena.get(h), None);
                    }
                }
                _ => {}
            }
        }
        let live = model.iter().filter(|(_, _, l)| *l).count();
        prop_assert_eq!(arena.len(), live);
        prop_assert_eq!(arena.iter().count(), live);
    }

    /// Histogram percentiles stay within the log-linear bucket error bound
    /// of the exact quantiles, and min/mean/count are exact.
    #[test]
    fn histogram_quantiles_are_bucket_accurate(samples in proptest::collection::vec(1u64..10_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let exact_min = *samples.iter().min().unwrap();
        prop_assert_eq!(h.min().as_nanos(), exact_min);
        let exact_mean: u64 =
            (samples.iter().map(|&s| s as u128).sum::<u128>() / samples.len() as u128) as u64;
        prop_assert_eq!(h.mean().as_nanos(), exact_mean);

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0] {
            let idx = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
            let exact = sorted[idx.min(sorted.len() - 1)] as f64;
            let got = h.percentile(p).as_nanos() as f64;
            // One sub-bucket of relative error (1/32), plus slack for the
            // representative being the bucket's lower bound.
            prop_assert!(
                got <= exact * 1.01 && got >= exact * (1.0 - 2.0 / 32.0) - 1.0,
                "p{p}: got {got}, exact {exact}"
            );
        }
    }

    /// Forked RNG streams are deterministic functions of (seed, salt).
    #[test]
    fn rng_forks_are_reproducible(seed in any::<u64>(), salt in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..16 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    /// range_u64 never leaves its bounds for arbitrary non-empty ranges.
    #[test]
    fn rng_range_stays_in_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, span in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            let x = rng.range_u64(lo..lo + span);
            prop_assert!((lo..lo + span).contains(&x));
        }
    }

    /// Any interleaving of record, merge and reset charges exactly what a
    /// map keyed by tag *text* would, and a tag text reached through two
    /// different addresses reports as one row.
    #[test]
    fn profiler_matches_a_map_by_tag_text(ops in proptest::collection::vec((0u8..12, 0usize..5, 0u64..1000), 1..300)) {
        let twin: &'static str = Box::leak(String::from("user/parse").into_boxed_str());
        let tags: [&'static str; 5] = ["user/parse", twin, "kernel/udp_send", "sched/wakeup", "user/route"];
        prop_assert!(!std::ptr::eq(tags[0], tags[1]));
        let (mut a, mut b) = (Profiler::new(), Profiler::new());
        let (mut ma, mut mb): (BTreeMap<&str, u64>, BTreeMap<&str, u64>) = Default::default();
        for (op, tag, ns) in ops {
            let tag = tags[tag];
            match op {
                0..=5 => {
                    a.record(tag, ns);
                    if ns > 0 {
                        *ma.entry(tag).or_default() += ns;
                    }
                }
                6..=8 => {
                    b.record(tag, ns);
                    if ns > 0 {
                        *mb.entry(tag).or_default() += ns;
                    }
                }
                9 => {
                    a.merge(&b);
                    for (&t, &n) in &mb {
                        *ma.entry(t).or_default() += n;
                    }
                }
                10 => {
                    b.reset();
                    mb.clear();
                }
                _ => {
                    a.reset();
                    ma.clear();
                }
            }
            prop_assert_eq!(a.total_ns(), ma.values().sum::<u64>());
            for t in tags {
                prop_assert_eq!(a.ns_for(t), ma.get(t).copied().unwrap_or(0));
            }
        }
        let mut expected: Vec<(&str, u64)> = ma.into_iter().collect();
        expected.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(y.0)));
        let rows: Vec<(&str, u64)> = a.report().rows().to_vec();
        prop_assert_eq!(rows, expected);
    }
}
