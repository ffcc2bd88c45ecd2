//! Property-based tests on the core data structures and benchmark math.
//!
//! Formerly driven by proptest; now driven by a seeded `SmallRng` so the
//! suite runs in the offline build environment. Each property executes a
//! fixed number of randomized cases from a fixed seed, so failures are
//! deterministic and reproducible: rerun with the printed seed to replay.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hattrick_repro::bench::freshness::{cdf, score_query, CommitRegistry, FreshnessAgg};
use hattrick_repro::bench::frontier::{Frontier, FrontierPoint};
use hattrick_repro::bench::harness::{RetryBudget, RetryBudgetConfig, RetryPolicy};
use hattrick_repro::common::dates::{add_days, CalendarDate, FIRST_DATE, LAST_DATE};
use hattrick_repro::common::rng::HatRng;
use hattrick_repro::common::telemetry::HistogramSnapshot;
use hattrick_repro::common::Money;
use hattrick_repro::storage::bptree::BPlusTree;
use hattrick_repro::storage::colstore::{DictColumn, PackedU32, RleU32};

const BASE_SEED: u64 = 0x4a77_5ec0_0d15_ea5e;

/// Runs `case` for `cases` deterministic seeds derived from [`BASE_SEED`].
fn property(name: &str, cases: u64, mut case: impl FnMut(&mut SmallRng)) {
    for i in 0..cases {
        let seed = BASE_SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SmallRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property {name} failed on case {i} (seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// B+tree vs BTreeMap model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    Range(u16, u16),
}

fn tree_op(rng: &mut SmallRng) -> TreeOp {
    match rng.gen_range(0..4u32) {
        0 => TreeOp::Insert(rng.gen::<u16>() % 512, rng.gen::<u32>()),
        1 => TreeOp::Remove(rng.gen::<u16>() % 512),
        2 => TreeOp::Get(rng.gen::<u16>() % 512),
        _ => TreeOp::Range(rng.gen::<u16>() % 512, rng.gen::<u16>() % 512),
    }
}

#[test]
fn bptree_behaves_like_btreemap() {
    property("bptree_behaves_like_btreemap", 64, |rng| {
        let order = rng.gen_range(4usize..32);
        let n_ops = rng.gen_range(1usize..400);
        let mut tree = BPlusTree::with_order(order);
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for _ in 0..n_ops {
            match tree_op(rng) {
                TreeOp::Insert(k, v) => {
                    assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    assert_eq!(tree.remove(&k), model.remove(&k));
                }
                TreeOp::Get(k) => {
                    assert_eq!(tree.get(&k), model.get(&k));
                }
                TreeOp::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got = tree.range_values(&lo, &hi);
                    let want: Vec<u32> = model.range(lo..=hi).map(|(_, v)| *v).collect();
                    assert_eq!(got, want);
                }
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), model.len());
    });
}

#[test]
fn bptree_range_bounds_agree_with_model() {
    property("bptree_range_bounds_agree_with_model", 64, |rng| {
        let n_keys = rng.gen_range(0usize..200);
        let keys: BTreeSet<u16> = (0..n_keys).map(|_| rng.gen::<u16>()).collect();
        let mut tree = BPlusTree::with_order(8);
        for &k in &keys {
            tree.insert(k, k);
        }
        let (mut lo, mut hi) = (rng.gen::<u16>(), rng.gen::<u16>());
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let (inc_lo, inc_hi) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
        let lb = if inc_lo { Bound::Included(&lo) } else { Bound::Excluded(&lo) };
        let ub = if inc_hi { Bound::Included(&hi) } else { Bound::Excluded(&hi) };
        let mut got = Vec::new();
        tree.range(lb, ub, |k, _| {
            got.push(*k);
            true
        });
        let want: Vec<u16> = keys
            .iter()
            .copied()
            .filter(|k| {
                (if inc_lo { *k >= lo } else { *k > lo })
                    && (if inc_hi { *k <= hi } else { *k < hi })
            })
            .collect();
        assert_eq!(got, want);
    });
}

// ---------------------------------------------------------------------------
// Columnar encodings
// ---------------------------------------------------------------------------

#[test]
fn rle_roundtrips() {
    property("rle_roundtrips", 64, |rng| {
        let n = rng.gen_range(0usize..500);
        let values: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..16)).collect();
        let rle = RleU32::encode(&values);
        assert_eq!(rle.len(), values.len());
        assert_eq!(rle.iter().collect::<Vec<_>>(), values.clone());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(rle.get(i), v);
        }
        // Runs never exceed distinct transitions + 1.
        let transitions = values.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(rle.run_count() <= transitions + 1);
    });
}

#[test]
fn dict_roundtrips() {
    property("dict_roundtrips", 64, |rng| {
        let n = rng.gen_range(0usize..200);
        let words: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1usize..=4);
                (0..len).map(|_| (b'a' + rng.gen_range(0u8..5)) as char).collect()
            })
            .collect();
        let arcs: Vec<Arc<str>> = words.iter().map(|w| Arc::from(w.as_str())).collect();
        let dict = DictColumn::encode(arcs.iter());
        assert_eq!(dict.len(), words.len());
        for (i, w) in words.iter().enumerate() {
            assert_eq!(dict.get(i), w.as_str());
        }
        let distinct: HashSet<&str> = words.iter().map(|s| s.as_str()).collect();
        assert_eq!(dict.cardinality(), distinct.len());
    });
}

#[test]
fn packed_u32_roundtrips_at_every_width() {
    property("packed_u32_roundtrips", 64, |rng| {
        // Bound values to a random bit width so every width (including
        // word-straddling ones like 7, 13, 28) gets exercised.
        let bits = rng.gen_range(1u32..=32);
        let n = rng.gen_range(0usize..500);
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let values: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() & mask).collect();
        let packed = PackedU32::encode(&values);
        assert_eq!(packed.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(packed.get(i), v, "bits={bits} i={i}");
        }
        // The chosen width is exactly wide enough for the largest value.
        let max = values.iter().copied().max().unwrap_or(0);
        let need = if max == 0 { 1 } else { 32 - max.leading_zeros() };
        assert_eq!(packed.bits(), need.max(1));
    });
}

#[test]
fn rle_decode_into_agrees_with_get_on_random_windows() {
    property("rle_decode_into_agrees_with_get", 64, |rng| {
        let n = rng.gen_range(1usize..500);
        // Short and long runs: the value changes with probability 1/run.
        let run = rng.gen_range(1u32..20);
        let mut v = 0u32;
        let values: Vec<u32> = (0..n)
            .map(|_| {
                if rng.gen_range(0..run) == 0 {
                    v = rng.gen_range(0u32..8);
                }
                v
            })
            .collect();
        let rle = RleU32::encode(&values);
        // Any window decodes to the values random access reads.
        let mut out = Vec::new();
        for _ in 0..20 {
            let lo = rng.gen_range(0..=n);
            let hi = rng.gen_range(lo..=n);
            out.clear();
            rle.decode_into(lo, hi, &mut out);
            let want: Vec<u32> = (lo..hi).map(|i| rle.get(i)).collect();
            assert_eq!(out, want, "window [{lo}, {hi})");
        }
    });
}

// ---------------------------------------------------------------------------
// Money
// ---------------------------------------------------------------------------

#[test]
fn money_addition_is_associative_and_invertible() {
    property("money_addition_is_associative_and_invertible", 256, |rng| {
        let a = rng.gen_range(-1_000_000_000i64..1_000_000_000);
        let b = rng.gen_range(-1_000_000_000i64..1_000_000_000);
        let c = rng.gen_range(-1_000_000_000i64..1_000_000_000);
        let (ma, mb, mc) = (Money::from_cents(a), Money::from_cents(b), Money::from_cents(c));
        assert_eq!((ma + mb) + mc, ma + (mb + mc));
        assert_eq!(ma + mb - mb, ma);
        assert_eq!(-(-ma), ma);
    });
}

#[test]
fn money_pct_bounds() {
    property("money_pct_bounds", 256, |rng| {
        let cents = rng.gen_range(0i64..10_000_000);
        let pct = rng.gen_range(0i64..=100);
        let m = Money::from_cents(cents);
        let part = m.pct(pct);
        assert!(part.cents() <= m.cents());
        assert!(part.cents() >= 0);
        // pct(100) is exact.
        assert_eq!(m.pct(100), m);
        assert_eq!(m.pct(0), Money::ZERO);
    });
}

// ---------------------------------------------------------------------------
// Dates
// ---------------------------------------------------------------------------

#[test]
fn date_ordinals_are_dense_and_monotone() {
    property("date_ordinals_are_dense_and_monotone", 256, |rng| {
        let offset = rng.gen_range(0u32..2556);
        let key = add_days(FIRST_DATE, offset);
        let d = CalendarDate::from_key(key);
        assert_eq!(d.ordinal(), offset);
        assert!((FIRST_DATE..=LAST_DATE).contains(&key));
        assert_eq!(d.key(), key);
    });
}

// ---------------------------------------------------------------------------
// Frontier math
// ---------------------------------------------------------------------------

#[test]
fn pareto_frontier_is_minimal_and_complete() {
    property("pareto_frontier_is_minimal_and_complete", 64, |rng| {
        let n = rng.gen_range(1usize..60);
        let pts: Vec<FrontierPoint> = (0..n)
            .map(|_| FrontierPoint {
                t: rng.gen::<f64>() * 1000.0,
                a: rng.gen::<f64>() * 1000.0,
                t_clients: 0,
                a_clients: 0,
            })
            .collect();
        let f = Frontier::from_points(pts.clone());
        // 1. No frontier point is dominated by any input point.
        for fp in &f.points {
            for p in &pts {
                assert!(!p.dominates(fp), "{p:?} dominates frontier {fp:?}");
            }
        }
        // 2. Every input point is dominated by or equal to some frontier point.
        for p in &pts {
            let covered = f.points.iter().any(|fp| fp.t >= p.t && fp.a >= p.a);
            assert!(covered);
        }
        // 3. Interpolation stays within the bounding box.
        for i in 0..=10 {
            let t = f.x_t * i as f64 / 10.0;
            let a = f.a_at(t);
            assert!(a <= f.x_a + 1e-9);
            assert!(a >= 0.0);
        }
        // 4. A frontier always envelops itself.
        assert!(f.envelops(&f, 20));
    });
}

// ---------------------------------------------------------------------------
// Freshness math
// ---------------------------------------------------------------------------

#[test]
fn freshness_scores_are_nonnegative_and_monotone_in_start_time() {
    property("freshness_scores_monotone", 128, |rng| {
        let commit_gap = rng.gen_range(1u64..1_000_000_000);
        let seen = rng.gen_range(0u64..5);
        let registry = CommitRegistry::new(&[1]);
        // Client 0 commits txns 1..=6, spaced commit_gap apart.
        for i in 1..=6u64 {
            registry.record(0, i, i * commit_gap);
        }
        let start_a = 3 * commit_gap + 1;
        let start_b = 6 * commit_gap + 2;
        let fa = score_query(start_a, &[(0, seen)], &registry);
        let fb = score_query(start_b, &[(0, seen)], &registry);
        assert!(fa >= 0.0);
        assert!(fb >= fa, "later start can only be staler for same snapshot");
        // Seeing everything committed before start means zero.
        let all_seen = score_query(start_b, &[(0, 6)], &registry);
        assert_eq!(all_seen, 0.0);
    });
}

// ---------------------------------------------------------------------------
// Retry policy and shared retry budget (§6e)
// ---------------------------------------------------------------------------

#[test]
fn retry_backoff_ceiling_is_monotone_and_jitter_stays_in_bounds() {
    property("retry_backoff_bounds", 64, |rng| {
        let policy = RetryPolicy {
            initial_backoff: Duration::from_micros(rng.gen_range(1u64..5_000)),
            max_backoff: Duration::from_micros(rng.gen_range(1u64..50_000)),
            ..RetryPolicy::default()
        };
        let mut hat = HatRng::seeded(rng.gen());
        let mut prev_ceiling = Duration::ZERO;
        for attempt in 1..=24u32 {
            let exp = attempt.saturating_sub(1).min(20);
            let ceiling = policy
                .initial_backoff
                .saturating_mul(1u32 << exp)
                .min(policy.max_backoff);
            // The jitter window's ceiling only ever grows with the
            // attempt number (until the cap), never shrinks.
            assert!(ceiling >= prev_ceiling);
            prev_ceiling = ceiling;
            let mut distinct = HashSet::new();
            let mut top_half = false;
            for _ in 0..64 {
                let b = policy.backoff(attempt, &mut hat);
                assert!(b <= ceiling, "jitter above its ceiling: {b:?} > {ceiling:?}");
                assert!(b <= policy.max_backoff, "jitter above the hard cap");
                distinct.insert(b);
                top_half |= b >= ceiling / 2;
            }
            // Full jitter really jitters: with a ≥1µs window, 64 draws
            // land more than one value and reach the upper half (each
            // failing spuriously with probability ≤ 2⁻⁶⁴).
            if ceiling >= Duration::from_micros(1) {
                assert!(distinct.len() > 1, "no jitter at attempt {attempt}");
                assert!(top_half, "jitter never reached [ceiling/2, ceiling]");
            }
        }
    });
}

#[test]
fn retry_budget_concurrent_spend_never_exceeds_cap() {
    property("retry_budget_cap", 32, |rng| {
        let cap = rng.gen_range(1u32..200);
        let threads = rng.gen_range(2usize..8);
        let attempts_each = rng.gen_range(1u64..200);
        let budget = RetryBudget::new(RetryBudgetConfig { cap, refill_per_success: 0.0 });
        let spent: u64 = std::thread::scope(|s| {
            (0..threads)
                .map(|_| {
                    let b = &budget;
                    s.spawn(move || (0..attempts_each).filter(|_| b.try_spend()).count() as u64)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        // With refill off, racing spenders get *exactly* min(cap, offered)
        // tokens between them — no lost updates, no double spends.
        assert_eq!(spent, u64::from(cap).min(attempts_each * threads as u64));
        assert_eq!(budget.available(), u64::from(cap) - spent);
    });
}

#[test]
fn retry_budget_refill_is_exact_and_saturates_at_cap() {
    property("retry_budget_refill", 64, |rng| {
        let cap = rng.gen_range(1u32..100);
        let refill = rng.gen_range(0u32..2000) as f64 / 1000.0;
        let budget = RetryBudget::new(RetryBudgetConfig { cap, refill_per_success: refill });
        while budget.try_spend() {}
        assert_eq!(budget.available(), 0, "a drained budget has nothing left");
        let successes = rng.gen_range(0u64..400);
        for _ in 0..successes {
            budget.on_success();
        }
        // Milli-token fixed point makes fractional refill exact: after s
        // successes from empty, available = min(s * refill, cap).
        let refill_milli = (refill * 1000.0) as u64;
        let earned_milli = (successes * refill_milli).min(u64::from(cap) * 1000);
        assert_eq!(budget.available(), earned_milli / 1000);
        assert!(budget.available() <= u64::from(cap));
    });
}

#[test]
fn retry_budget_conserves_tokens_under_concurrent_spend_and_refill() {
    property("retry_budget_conservation", 32, |rng| {
        let cap = rng.gen_range(1u32..50);
        let refill = rng.gen_range(0u32..1000) as f64 / 1000.0;
        let refill_milli = (refill * 1000.0) as u64;
        let budget = RetryBudget::new(RetryBudgetConfig { cap, refill_per_success: refill });
        let iters = rng.gen_range(1u64..300);
        let threads = 4u64;
        let spent: u64 = std::thread::scope(|s| {
            (0..threads)
                .map(|t| {
                    let b = &budget;
                    s.spawn(move || {
                        let mut n = 0u64;
                        for i in 0..iters {
                            if b.try_spend() {
                                n += 1;
                            }
                            if (i + t) % 3 == 0 {
                                b.on_success();
                            }
                        }
                        n
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        // Conservation: every spent token was either initial fill or a
        // refund — the aggregate retry stream is bounded by
        // cap + successes × refill no matter how the threads interleave.
        let refills = threads * (iters / 3 + 1);
        assert!(
            spent * 1000 <= u64::from(cap) * 1000 + refills * refill_milli,
            "spent {spent} tokens from cap {cap} with ≤{refills} refills of {refill_milli}m"
        );
        assert!(budget.available() <= u64::from(cap), "refill overshot the cap");
    });
}

// ---------------------------------------------------------------------------
// Log-linear histogram quantiles
// ---------------------------------------------------------------------------

#[test]
fn histogram_quantiles_stay_within_one_bucket_of_exact() {
    property("histogram_tail_accuracy", 48, |rng| {
        let n = rng.gen_range(1usize..4000);
        let mut values: Vec<u64> = (0..n)
            .map(|_| {
                // Shifted draws span the full log-linear range, so the
                // p999 tail crosses bucket-width regimes.
                let shift = rng.gen_range(0u32..60);
                rng.gen::<u64>() >> shift
            })
            .collect();
        let snap = HistogramSnapshot::from_values(&values);
        values.sort_unstable();
        assert_eq!(snap.count, n as u64);
        assert_eq!(snap.min, values[0]);
        assert_eq!(snap.max, *values.last().unwrap());
        for &q in &[0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = values[rank - 1];
            let est = snap.quantile(q);
            // The estimate never understates the true quantile, and
            // overstates it by at most one log-linear bucket (≤ 1/16
            // relative — the tail-accuracy contract p999 relies on).
            assert!(est >= exact, "q={q}: estimate {est} < exact {exact}");
            assert!(
                est - exact <= exact / 16 + 1,
                "q={q}: estimate {est} > one bucket above exact {exact}"
            );
        }
        assert_eq!(snap.quantile(1.0), *values.last().unwrap());
    });
}

#[test]
fn freshness_aggregation_is_order_invariant() {
    property("freshness_aggregation_is_order_invariant", 128, |rng| {
        let n = rng.gen_range(1usize..100);
        let mut samples: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 10.0).collect();
        let a = FreshnessAgg::from_samples(&samples);
        samples.reverse();
        let b = FreshnessAgg::from_samples(&samples);
        assert!((a.mean - b.mean).abs() < 1e-9);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.max, b.max);
        assert!(a.p50 <= a.p95 && a.p95 <= a.p99 && a.p99 <= a.max);
        let points = cdf(&samples);
        assert_eq!(points.len(), samples.len());
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
    });
}
