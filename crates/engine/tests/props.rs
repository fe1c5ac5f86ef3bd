//! Randomized invariant tests for the simulation core.
//!
//! These were originally `proptest` properties; they now drive the same
//! invariants from the crate's own deterministic [`SimRng`] so the test
//! suite builds with no external dependencies (offline tier-1 CI).

use hetsim_engine::prelude::*;
use hetsim_engine::stats::geomean;

const CASES: u64 = 64;

/// SimRng stays deterministic under forking and in-range for bounds.
#[test]
fn rng_bounds() {
    let mut seeds = SimRng::seed_from_parts(&["props", "rng_bounds"], 0);
    for _ in 0..CASES {
        let seed = seeds.next_u64();
        let bound = seeds.range(1, 1_000_000);
        let mut r = SimRng::new(seed);
        for _ in 0..50 {
            assert!(r.below(bound) < bound);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}

/// Summary invariants: min <= percentiles <= max, cv >= 0.
#[test]
fn summary_invariants() {
    let mut rng = SimRng::seed_from_parts(&["props", "summary_invariants"], 0);
    for _ in 0..CASES {
        let n = rng.range(1, 100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e12).collect();
        let s = Summary::from_samples(&xs);
        assert!(s.min() <= s.mean() + 1e-6);
        assert!(s.mean() <= s.max() + 1e-6);
        for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let v = s.percentile(p);
            assert!(s.min() - 1e-9 <= v && v <= s.max() + 1e-9);
        }
        assert!(s.cv() >= 0.0);
    }
}

/// Geomean sits between min and max of positive inputs.
#[test]
fn geomean_bounds() {
    let mut rng = SimRng::seed_from_parts(&["props", "geomean_bounds"], 0);
    for _ in 0..CASES {
        let n = rng.range(1, 50) as usize;
        // Log-uniform over [1e-6, 1e6].
        let xs: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.next_f64() * 12.0 - 6.0))
            .collect();
        let g = geomean(&xs);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0, f64::max);
        assert!(min * 0.999 <= g && g <= max * 1.001);
    }
}

/// Bandwidth transfer time is monotonic in bytes.
#[test]
fn transfer_time_monotonic() {
    let mut rng = SimRng::seed_from_parts(&["props", "transfer_time_monotonic"], 0);
    let bw = Bandwidth::from_gb_per_sec(6.2);
    for _ in 0..CASES {
        let a = rng.below(1u64 << 32);
        let b = rng.below(1u64 << 32);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(bw.transfer_time(lo) <= bw.transfer_time(hi));
    }
}
