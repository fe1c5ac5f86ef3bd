//! Serving metrics: latency percentiles, goodput, per-device utilization.
//!
//! The serving layer reports what a service owner watches, not what a
//! benchmark prints: **p50/p99/p999 latency** over completed requests
//! (arrival to GPU-stage completion, queueing included), **goodput**
//! (completed requests per second of simulated horizon — shed requests
//! don't count), and **per-device utilization** (GPU-busy fraction of the
//! horizon, which exposes the imbalance a placement policy creates).
//!
//! # Two quantile regimes
//!
//! Small runs use *exact* sample quantiles — sorted samples with linear
//! interpolation between ranks, the same estimator as
//! `hetsim_engine::stats::Summary::percentile`. Fleet-scale runs cannot
//! buffer and sort millions of latencies, so [`LatencyAccumulator`]
//! switches to a fixed-memory [`StreamingHistogram`] once a run outgrows
//! [`LatencyAccumulator::EXACT_LIMIT`] samples: an HDR-style
//! logarithmic-bucket histogram (128 sub-buckets per power of two) whose
//! quantiles are within a *guaranteed* relative error bound of the exact
//! oracle ([`StreamingHistogram::RELATIVE_ERROR_BOUND`], 1/256 ≈ 0.4%).
//! Count, mean, and max stay exact in both regimes.
//!
//! The histogram is a deterministic, order-insensitive function of the
//! sample multiset — no randomization, no merge order — so reports remain
//! byte-reproducible at any thread count, which a randomized sketch
//! (t-digest) would forfeit. The exact path doubles as the test oracle:
//! `tests/streaming_estimator.rs` pins the error bound across all arrival
//! mixes.

use hetsim_counters::report::Table;
use hetsim_engine::time::Nanos;
use hetsim_runtime::ChaosOverhead;
use hetsim_trace::sink::escape;

/// Number of sub-bucket bits per power of two in [`StreamingHistogram`]:
/// 128 sub-buckets per octave.
const SUB_BITS: u32 = 7;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: values below
/// `2 * SUBS` get one bucket each (exact), every octave above contributes
/// `SUBS` buckets.
const BUCKETS: usize = (63 - SUB_BITS as usize + 2) * SUBS;

/// A fixed-memory logarithmic histogram over `u64` nanosecond samples.
///
/// Values below 256 are binned exactly; larger values share a bucket with
/// at most a `1/128` relative spread, so reporting a bucket's midpoint is
/// off by at most [`StreamingHistogram::RELATIVE_ERROR_BOUND`] of the true
/// sample. Memory is a constant ~58 KiB regardless of sample count, and
/// every observation is O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl StreamingHistogram {
    /// Guaranteed relative error of any reported quantile against the
    /// exact sample quantile: a bucket's midpoint is within `1/256` of
    /// every sample the bucket holds, and interpolation between bucket
    /// midpoints preserves the bound (plus ≤ 1 ns of integer rounding).
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / 256.0;

    /// An empty histogram.
    pub(crate) fn new() -> Self {
        StreamingHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample. O(1).
    pub(crate) fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Exact integer mean (sum / count); zero when empty.
    pub(crate) fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// Exact maximum observed; zero when empty.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Estimated quantile with the exact path's rank convention
    /// (`p/100 × (n-1)`, linear interpolation between the straddling
    /// ranks' bucket midpoints).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is outside `[0, 100]`.
    pub(crate) fn quantile(&self, p: f64) -> u64 {
        assert!(self.count > 0, "quantile of an empty histogram");
        assert!((0.0..=100.0).contains(&p), "percentile out of [0,100]");
        if self.count == 1 {
            // A single sample may still be mid-bucket; max is exact.
            return self.max;
        }
        let rank = p / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let frac = rank - lo as f64;
        let (a, b) = self.values_at_ranks(lo, hi);
        let v = a as f64 * (1.0 - frac) + b as f64 * frac;
        v.round() as u64
    }

    /// Bucket-midpoint values at two 0-based ranks (`lo <= hi`), found in
    /// one cumulative walk. The top rank reports the exact max.
    fn values_at_ranks(&self, lo: u64, hi: u64) -> (u64, u64) {
        let exact_top = |rank: u64, mid: u64| -> u64 {
            // The greatest rank is the greatest sample: exact.
            if rank == self.count - 1 {
                self.max
            } else {
                mid
            }
        };
        let mut cum = 0u64;
        let mut first = None;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if first.is_none() && cum > lo {
                first = Some(exact_top(lo, bucket_mid(i)));
            }
            if cum > hi {
                let a = first.expect("lo <= hi implies lo found by now");
                return (a, exact_top(hi, bucket_mid(i)));
            }
        }
        unreachable!("ranks are below the total count");
    }
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram::new()
    }
}

/// Bucket index of a value: identity below `2 * SUBS`, then
/// `SUBS` log-spaced buckets per octave.
fn bucket_index(v: u64) -> usize {
    if v < (2 * SUBS) as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let shift = top - SUB_BITS;
        shift as usize * SUBS + (v >> shift) as usize
    }
}

/// Midpoint of a bucket (inverse of [`bucket_index`] up to the bucket's
/// width).
fn bucket_mid(index: usize) -> u64 {
    if index < 2 * SUBS {
        index as u64
    } else {
        let shift = (index / SUBS - 1) as u32;
        let q = (index - shift as usize * SUBS) as u64;
        (q << shift) + (1u64 << shift) / 2
    }
}

/// Streaming latency accounting: exact below
/// [`LatencyAccumulator::EXACT_LIMIT`] samples, fixed-memory
/// [`StreamingHistogram`] beyond. Feeding samples in any order yields the
/// same [`LatencyStats`] for the same multiset, and a run that stays small
/// is *byte-identical* to [`LatencyStats::from_samples`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyAccumulator {
    exact: Vec<Nanos>,
    hist: Option<StreamingHistogram>,
}

impl LatencyAccumulator {
    /// Largest population kept exact. Past this, samples stream into the
    /// histogram and memory stays constant.
    pub const EXACT_LIMIT: usize = 8192;

    /// An empty accumulator in the exact regime.
    pub fn new() -> Self {
        LatencyAccumulator {
            exact: Vec::new(),
            hist: None,
        }
    }

    /// Records one latency sample. O(1) amortized: the one-time spill into
    /// the histogram replays the buffered samples and frees the buffer.
    pub fn observe(&mut self, v: Nanos) {
        if let Some(h) = &mut self.hist {
            h.observe(v.as_nanos());
            return;
        }
        self.exact.push(v);
        if self.exact.len() > Self::EXACT_LIMIT {
            let mut h = StreamingHistogram::new();
            for s in self.exact.drain(..) {
                h.observe(s.as_nanos());
            }
            self.exact.shrink_to_fit();
            self.hist = Some(h);
        }
    }

    /// Whether the accumulator has spilled into the streaming regime.
    pub fn is_streaming(&self) -> bool {
        self.hist.is_some()
    }

    /// Produces the stats. Exact regime delegates to
    /// [`LatencyStats::from_samples`]; streaming regime reports exact
    /// count/mean/max and histogram quantiles within
    /// [`StreamingHistogram::RELATIVE_ERROR_BOUND`].
    pub fn finalize(&self) -> LatencyStats {
        match &self.hist {
            None => LatencyStats::from_samples(&self.exact),
            Some(h) => LatencyStats {
                count: h.count() as usize,
                mean: Nanos::from_nanos(h.mean()),
                p50: Nanos::from_nanos(h.quantile(50.0)),
                p99: Nanos::from_nanos(h.quantile(99.0)),
                p999: Nanos::from_nanos(h.quantile(99.9)),
                max: Nanos::from_nanos(h.max()),
            },
        }
    }
}

impl Default for LatencyAccumulator {
    fn default() -> Self {
        LatencyAccumulator::new()
    }
}

/// Exact sample quantiles over a latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: Nanos,
    /// Median (p50).
    pub p50: Nanos,
    /// 99th percentile.
    pub p99: Nanos,
    /// 99.9th percentile.
    pub p999: Nanos,
    /// Worst observed latency.
    pub max: Nanos,
}

impl LatencyStats {
    /// Computes the stats from unsorted latency samples. Returns an
    /// all-zero record for an empty population (an all-shed cell).
    pub fn from_samples(samples: &[Nanos]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats {
                count: 0,
                mean: Nanos::ZERO,
                p50: Nanos::ZERO,
                p99: Nanos::ZERO,
                p999: Nanos::ZERO,
                max: Nanos::ZERO,
            };
        }
        let mut sorted: Vec<u64> = samples.iter().map(|n| n.as_nanos()).collect();
        sorted.sort_unstable();
        let sum: u64 = sorted.iter().sum();
        LatencyStats {
            count: sorted.len(),
            mean: Nanos::from_nanos(sum / sorted.len() as u64),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            p999: percentile(&sorted, 99.9),
            max: Nanos::from_nanos(*sorted.last().expect("non-empty")),
        }
    }
}

/// Exact linear-interpolated percentile over an already-sorted sample
/// array (ascending), `p` in `[0, 100]`.
///
/// Rank convention matches `Summary::percentile`: rank
/// `p/100 × (n-1)` interpolated between the two straddling samples, so
/// `p=0` is the minimum and `p=100` the maximum. The interpolation is
/// done in integer-free `f64` and rounded to the nearest nanosecond.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> Nanos {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile out of [0,100]");
    if sorted.len() == 1 {
        return Nanos::from_nanos(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let v = sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac;
    Nanos::from_nanos(v.round() as u64)
}

/// One device's share of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceUtilization {
    /// Stable device label (`gpu0`, `gpu1`, …).
    pub device: String,
    /// Requests completed on the device.
    pub completed: usize,
    /// GPU-busy time.
    pub busy: Nanos,
    /// GPU-busy fraction of the fleet horizon, in `[0, 1]`.
    pub utilization: f64,
    /// Peak committed working-set bytes observed on the device.
    pub peak_committed: u64,
}

/// The serving report for one `(policy, mix, rate)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Policy name.
    pub policy: String,
    /// Arrival mix name.
    pub mix: String,
    /// Requested base arrival rate, requests per second.
    pub rate_rps: f64,
    /// Base seed.
    pub seed: u64,
    /// Requests offered by the arrival plan.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Failed placement attempts absorbed by failover.
    pub failovers: usize,
    /// Requests whose work moved to a peer device mid-flight because the
    /// primary degraded and the deadline budget still allowed re-staging.
    pub hedges: usize,
    /// Completed requests that finished past their SLO deadline.
    pub deadline_misses: usize,
    /// Fraction of *offered* requests that completed within their
    /// deadline (`0.0` for an empty cell — never NaN).
    pub slo_attainment: f64,
    /// Additive recovery cost charged by the resilience layer (retry
    /// backoff, abandoned partial work, re-staging transfers, degraded
    /// service), separable per the chaos contract.
    pub recovery: ChaosOverhead,
    /// End of the simulated schedule (last GPU-stage completion).
    pub horizon: Nanos,
    /// Completed requests per second of horizon.
    pub goodput_rps: f64,
    /// Latency over completed requests (arrival → completion).
    pub latency: LatencyStats,
    /// Per-device breakdown, in device-index order.
    pub per_device: Vec<DeviceUtilization>,
}

impl PolicyReport {
    /// The summary row of this cell (shared column layout with
    /// [`ServeReport::to_table`]; the availability sweep prepends an
    /// intensity column).
    pub(crate) fn table_row(&self) -> Vec<String> {
        vec![
            self.policy.clone(),
            self.mix.clone(),
            format!("{:.1}", self.rate_rps),
            self.offered.to_string(),
            self.completed.to_string(),
            self.shed.to_string(),
            self.failovers.to_string(),
            self.hedges.to_string(),
            self.deadline_misses.to_string(),
            format!("{:.4}", self.slo_attainment),
            format!("{:.3}", self.latency.p50.as_millis_f64()),
            format!("{:.3}", self.latency.p99.as_millis_f64()),
            format!("{:.3}", self.latency.p999.as_millis_f64()),
            format!("{:.2}", self.goodput_rps),
            self.per_device
                .iter()
                .map(|d| format!("{:.2}", d.utilization))
                .collect::<Vec<_>>()
                .join("/"),
        ]
    }

    /// Renders the cell as a two-part table: the summary row plus one row
    /// per device.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(ServeReport::COLUMNS.to_vec());
        t.row(self.table_row());
        t
    }

    /// Per-device breakdown table.
    pub fn device_table(&self) -> Table {
        let mut t = Table::new(vec![
            "device",
            "completed",
            "busy_ms",
            "utilization",
            "peak_committed_mb",
        ]);
        for d in &self.per_device {
            t.row(vec![
                d.device.clone(),
                d.completed.to_string(),
                format!("{:.3}", d.busy.as_millis_f64()),
                format!("{:.4}", d.utilization),
                format!("{:.1}", d.peak_committed as f64 / (1 << 20) as f64),
            ]);
        }
        t
    }

    /// The cell as one JSON object (no trailing newline).
    pub fn to_json_value(&self) -> String {
        let devices: Vec<String> = self
            .per_device
            .iter()
            .map(|d| {
                format!(
                    "{{\"device\": \"{}\", \"completed\": {}, \"busy_ns\": {}, \
                     \"utilization\": {:.6}, \"peak_committed_bytes\": {}}}",
                    escape(&d.device),
                    d.completed,
                    d.busy.as_nanos(),
                    d.utilization,
                    d.peak_committed,
                )
            })
            .collect();
        format!(
            "{{\"policy\": \"{}\", \"mix\": \"{}\", \"rate_rps\": {:.4}, \"seed\": {}, \
             \"offered\": {}, \"completed\": {}, \"shed\": {}, \"failovers\": {}, \
             \"hedges\": {}, \"deadline_misses\": {}, \"slo_attainment\": {:.6}, \
             \"recovery\": {{\"alloc_ns\": {}, \"memcpy_ns\": {}, \"kernel_ns\": {}, \
             \"system_ns\": {}}}, \
             \"horizon_ns\": {}, \"goodput_rps\": {:.6}, \
             \"latency\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
             \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}, \
             \"devices\": [{}]}}",
            escape(&self.policy),
            escape(&self.mix),
            self.rate_rps,
            self.seed,
            self.offered,
            self.completed,
            self.shed,
            self.failovers,
            self.hedges,
            self.deadline_misses,
            self.slo_attainment,
            self.recovery.alloc.as_nanos(),
            self.recovery.memcpy.as_nanos(),
            self.recovery.kernel.as_nanos(),
            self.recovery.system.as_nanos(),
            self.horizon.as_nanos(),
            self.goodput_rps,
            self.latency.count,
            self.latency.mean.as_nanos(),
            self.latency.p50.as_nanos(),
            self.latency.p99.as_nanos(),
            self.latency.p999.as_nanos(),
            self.latency.max.as_nanos(),
            devices.join(", "),
        )
    }
}

/// A collection of cells — one serving run or a (policy × rate) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The cells, in deterministic (policy, rate) grid order.
    pub cells: Vec<PolicyReport>,
}

impl ServeReport {
    /// The shared summary-table column layout.
    pub(crate) const COLUMNS: [&'static str; 15] = [
        "policy",
        "mix",
        "rate_rps",
        "offered",
        "completed",
        "shed",
        "failovers",
        "hedges",
        "misses",
        "slo",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "goodput_rps",
        "util_per_gpu",
    ];

    /// One summary row per cell.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(ServeReport::COLUMNS.to_vec());
        for c in &self.cells {
            t.row(c.table_row());
        }
        t
    }

    /// The whole report as pretty-printed JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&c.to_json_value());
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(vals: &[u64]) -> Vec<Nanos> {
        vals.iter().copied().map(Nanos::from_nanos).collect()
    }

    #[test]
    fn percentiles_exact_on_uniform_ramp() {
        // 0, 1, ..., 100: pXX lands exactly on sample XX.
        let sorted: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile(&sorted, 0.0).as_nanos(), 0);
        assert_eq!(percentile(&sorted, 50.0).as_nanos(), 50);
        assert_eq!(percentile(&sorted, 99.0).as_nanos(), 99);
        assert_eq!(percentile(&sorted, 100.0).as_nanos(), 100);
        // p99.9 interpolates between 99 and 100: 99.9.
        assert_eq!(percentile(&sorted, 99.9).as_nanos(), 100);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let sorted = vec![10, 20, 30, 40];
        // rank(50) = 1.5 -> midway between 20 and 30.
        assert_eq!(percentile(&sorted, 50.0).as_nanos(), 25);
        // rank(75) = 2.25 -> 30 + 0.25 * 10 = 32.5, rounds to 33 (ties
        // away from zero in f64::round).
        assert_eq!(percentile(&sorted, 75.0).as_nanos(), 33);
    }

    #[test]
    fn percentile_matches_engine_summary() {
        use hetsim_engine::stats::Summary;
        let samples: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 97, 11];
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let summary = Summary::from_samples(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let got = percentile(&sorted, p).as_nanos();
            let want = summary.percentile(p).round() as u64;
            assert_eq!(got, want, "p{p}");
        }
    }

    #[test]
    fn singleton_and_constant_distributions() {
        assert_eq!(percentile(&[42], 99.9).as_nanos(), 42);
        let constant = vec![7u64; 1000];
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(percentile(&constant, p).as_nanos(), 7, "p{p}");
        }
    }

    #[test]
    fn stats_from_samples_known_values() {
        let s = LatencyStats::from_samples(&ns(&(1..=1000).collect::<Vec<u64>>()));
        assert_eq!(s.count, 1000);
        assert_eq!(s.mean.as_nanos(), 500); // integer mean of 500.5
                                            // p50 rank is 499.5: midway between samples 500 and 501 -> 500.5,
                                            // rounded half-away-from-zero to 501.
        assert_eq!(s.p50.as_nanos(), 501);
        assert_eq!(s.max.as_nanos(), 1000);
    }

    #[test]
    fn empty_population_is_all_zero() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p999, Nanos::ZERO);
        assert_eq!(s.max, Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,100]")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1], 101.0);
    }

    #[test]
    fn json_escapes_quotes() {
        let mut report = sample_report();
        report.policy = "a\"b\\c".into();
        report.per_device[0].device = "gpu\"0".into();
        let json = report.to_json_value();
        assert!(json.contains("\"policy\": \"a\\\"b\\\\c\""), "{json}");
        assert!(json.contains("\"device\": \"gpu\\\"0\""), "{json}");
    }

    #[test]
    fn bucket_index_is_monotone_and_mid_is_in_bucket() {
        let mut last = 0usize;
        for v in (0u64..2048).chain([1 << 20, (1 << 20) + 513, 1 << 40, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i >= last || v < 2048, "monotone");
            last = last.max(i);
            assert!(i < BUCKETS);
            let mid = bucket_mid(i);
            assert_eq!(bucket_index(mid), i, "midpoint stays in its bucket (v={v})");
            if v >= 256 {
                let rel = (mid as f64 - v as f64).abs() / v as f64;
                assert!(
                    rel <= StreamingHistogram::RELATIVE_ERROR_BOUND,
                    "v={v} mid={mid} rel={rel}"
                );
            } else {
                assert_eq!(mid, v, "small values are exact");
            }
        }
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = StreamingHistogram::new();
        for v in 0..=255u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 256);
        assert_eq!(h.max(), 255);
        let sorted: Vec<u64> = (0..=255).collect();
        for p in [0.0, 25.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.quantile(p), percentile(&sorted, p).as_nanos(), "p{p}");
        }
    }

    #[test]
    fn histogram_quantiles_within_bound_on_log_uniform() {
        // A deterministic log-uniform-ish stream spanning six decades.
        let mut samples: Vec<u64> = (0..50_000u64)
            .map(|i| {
                let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) % 60;
                (1u64 << (x / 3)) + i % 997
            })
            .collect();
        let mut h = StreamingHistogram::new();
        for &s in &samples {
            h.observe(s);
        }
        samples.sort_unstable();
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = percentile(&samples, p).as_nanos();
            let est = h.quantile(p);
            let err = (est as f64 - exact as f64).abs();
            assert!(
                err <= exact as f64 * StreamingHistogram::RELATIVE_ERROR_BOUND + 1.0,
                "p{p}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(h.quantile(100.0), *samples.last().unwrap(), "max exact");
    }

    #[test]
    fn accumulator_matches_exact_path_below_limit() {
        let samples: Vec<Nanos> = (0..1000u64)
            .map(|i| Nanos::from_nanos(i.wrapping_mul(2_654_435_761) % 10_000_000))
            .collect();
        let mut acc = LatencyAccumulator::new();
        for &s in &samples {
            acc.observe(s);
        }
        assert!(!acc.is_streaming());
        assert_eq!(acc.finalize(), LatencyStats::from_samples(&samples));
    }

    #[test]
    fn accumulator_spills_once_and_stays_bounded() {
        let mut acc = LatencyAccumulator::new();
        let n = LatencyAccumulator::EXACT_LIMIT * 3;
        for i in 0..n as u64 {
            acc.observe(Nanos::from_nanos(1_000_000 + i * 13));
        }
        assert!(acc.is_streaming());
        let stats = acc.finalize();
        assert_eq!(stats.count, n);
        // Count, mean, max exact even in the streaming regime.
        let samples: Vec<Nanos> = (0..n as u64)
            .map(|i| Nanos::from_nanos(1_000_000 + i * 13))
            .collect();
        let exact = LatencyStats::from_samples(&samples);
        assert_eq!(stats.mean, exact.mean);
        assert_eq!(stats.max, exact.max);
        for (got, want, label) in [
            (stats.p50, exact.p50, "p50"),
            (stats.p99, exact.p99, "p99"),
            (stats.p999, exact.p999, "p999"),
        ] {
            let err = (got.as_nanos() as f64 - want.as_nanos() as f64).abs();
            assert!(
                err <= want.as_nanos() as f64 * StreamingHistogram::RELATIVE_ERROR_BOUND + 1.0,
                "{label}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn accumulator_is_order_insensitive() {
        let forward: Vec<Nanos> = (0..20_000u64)
            .map(|i| Nanos::from_nanos(i.wrapping_mul(0x5851_F42D_4C95_7F2D) % 1_000_000_000))
            .collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let mut a = LatencyAccumulator::new();
        let mut b = LatencyAccumulator::new();
        for (&x, &y) in forward.iter().zip(reversed.iter()) {
            a.observe(x);
            b.observe(y);
        }
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn empty_accumulator_finalizes_to_zero() {
        assert_eq!(
            LatencyAccumulator::new().finalize(),
            LatencyStats::from_samples(&[])
        );
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn histogram_quantile_rejects_empty() {
        let _ = StreamingHistogram::new().quantile(50.0);
    }

    fn sample_report() -> PolicyReport {
        PolicyReport {
            policy: "mode_packing".into(),
            mix: "poisson".into(),
            rate_rps: 100.0,
            seed: 42,
            offered: 10,
            completed: 9,
            shed: 1,
            failovers: 0,
            hedges: 0,
            deadline_misses: 1,
            slo_attainment: 0.8,
            recovery: ChaosOverhead::default(),
            horizon: Nanos::from_millis(100),
            goodput_rps: 90.0,
            latency: LatencyStats::from_samples(&ns(&[1_000_000, 2_000_000, 3_000_000])),
            per_device: vec![DeviceUtilization {
                device: "gpu0".into(),
                completed: 9,
                busy: Nanos::from_millis(60),
                utilization: 0.6,
                peak_committed: 1 << 20,
            }],
        }
    }

    #[test]
    fn fully_shed_cell_renders_zeros_not_nan() {
        // A cell where every request was shed (or a device completed
        // nothing) must report a zero-count latency record and finite
        // ratios — never NaN, never a panic.
        let cell = PolicyReport {
            policy: "slo_deadline".into(),
            mix: "poisson".into(),
            rate_rps: 400.0,
            seed: 7,
            offered: 5,
            completed: 0,
            shed: 5,
            failovers: 0,
            hedges: 0,
            deadline_misses: 0,
            slo_attainment: 0.0,
            recovery: ChaosOverhead::default(),
            horizon: Nanos::ZERO,
            goodput_rps: 0.0,
            latency: LatencyStats::from_samples(&[]),
            per_device: vec![DeviceUtilization {
                device: "gpu0".into(),
                completed: 0,
                busy: Nanos::ZERO,
                utilization: 0.0,
                peak_committed: 0,
            }],
        };
        assert_eq!(cell.latency.count, 0);
        let csv = cell.to_table().to_csv();
        assert!(!csv.contains("NaN"), "table must stay finite: {csv}");
        let json = cell.to_json_value();
        assert!(json.contains("\"completed\": 0"));
        assert!(json.contains("\"slo_attainment\": 0.000000"));
        assert!(!json.contains("NaN"), "json must stay finite: {json}");
        assert!(!cell.device_table().to_csv().contains("NaN"));
    }

    #[test]
    fn tables_have_expected_shape() {
        let cell = sample_report();
        let report = ServeReport {
            cells: vec![cell.clone(), cell.clone()],
        };
        assert_eq!(report.to_table().len(), 2);
        assert_eq!(cell.to_table().len(), 1);
        assert_eq!(cell.device_table().len(), 1);
        let csv = report.to_table().to_csv();
        assert!(csv.starts_with("policy,mix,rate_rps"));
        assert!(csv.contains("mode_packing"));
    }

    #[test]
    fn json_is_parseable_shape() {
        let report = ServeReport {
            cells: vec![sample_report()],
        };
        let json = report.to_json();
        assert!(json.contains("\"policy\": \"mode_packing\""));
        assert!(json.contains("\"p999_ns\""));
        assert!(json.contains("\"slo_attainment\": 0.800000"));
        assert!(json.contains("\"recovery\": {\"alloc_ns\": 0"));
        assert!(json.contains("\"devices\": ["));
        assert!(json.ends_with("]\n}\n"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in a zero-dep crate).
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "{open}{close} balance");
        }
    }
}
