//! Order statistics and the FNV-1a output digest.

/// First quartile, median and third quartile of `xs`, by the same
/// "exclusive" interpolation as Python's `statistics.quantiles(xs, n=4)`,
/// so spreads printed here match the ones the acceptance check computes.
/// One sample is its own quartiles; an empty slice is all zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut d: Vec<f64> = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let ld = d.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median of `xs` (see [`quartiles`]).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// The `p`-quantile (`0 < p <= 1`) of `xs` by nearest rank: the smallest
/// sample with at least a share `p` of all samples at or below it. Zero
/// for no samples.
pub fn nearest_rank(xs: &[u64], p: f64) -> u64 {
    let mut d = xs.to_vec();
    d.sort_unstable();
    let rank = ((p * d.len() as f64).ceil() as usize).clamp(1, d.len().max(1));
    d.get(rank - 1).copied().unwrap_or(0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Folds `bytes` into a 64-bit FNV-1a state.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The 64-bit FNV-1a digest of `bytes`, the hash every pass takes of its
/// outputs (the one the simulator's disk cache addresses entries by).
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// The digest of a list of digests, in order.
pub fn combine(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a(h, &p.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<u64> = (1..=64).rev().collect();
        assert_eq!(nearest_rank(&xs, 0.1), 7);
        assert_eq!(nearest_rank(&xs[..10], 0.1), 55);
        assert_eq!(nearest_rank(&[5], 0.1), 5);
        assert_eq!(nearest_rank(&[], 0.1), 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
    }
}
