//! Open-loop request arrival generation.
//!
//! A serving fleet is driven by an **open-loop** arrival process: requests
//! land on their own schedule, whether or not the fleet has finished the
//! previous ones. (A *closed-loop* generator — N users who each wait for
//! their response before issuing the next request — throttles itself when
//! the fleet saturates and therefore hides queueing collapse; open-loop
//! arrivals are what expose the p99/p999 latency cliffs this subsystem
//! exists to measure. See the module docs of [`crate`] for the longer
//! discussion.)
//!
//! [`ArrivalMix`] describes the process shape — seeded Poisson at a fixed
//! rate, a square-wave bursty profile, or a sinusoidal diurnal profile —
//! and [`ArrivalPlan::generate`] samples it into a concrete, reproducible
//! request sequence. Workloads are drawn from the registry catalog
//! (`hetsim-workloads`), so a request stream exercises the same 22
//! workload specs as every batch figure.
//!
//! # Determinism
//!
//! Generation is a pure function of `(mix, seed, request count, catalog)`.
//! All randomness flows through one [`SimRng`] seeded from those parts, the
//! sampling loop is strictly sequential, and no wall clock is consulted —
//! the same inputs reproduce the identical arrival sequence bit-for-bit,
//! on any machine, at any worker-thread count (the generator runs before
//! any fleet parallelism starts).

use hetsim_engine::rng::SimRng;
use hetsim_engine::time::Nanos;
use hetsim_workloads::{suite, InputSize};

/// The arrival-process shape of a request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMix {
    /// Memoryless arrivals at a fixed mean rate (requests per second):
    /// exponential inter-arrival gaps, the classic M/./. front door.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
    },
    /// A square-wave profile: quiet base-load traffic interrupted by
    /// periodic bursts at `burst_factor` times the base rate — the shape
    /// of retry storms and synchronized client cron jobs.
    Bursty {
        /// Base arrival rate outside bursts, requests per second.
        rate_rps: f64,
        /// Rate multiplier during a burst window.
        burst_factor: f64,
        /// Full cycle length (quiet + burst), seconds of sim time.
        period_s: f64,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        duty: f64,
    },
    /// A sinusoidal day/night profile: the rate swings between
    /// `rate_rps * (1 - swing)` and `rate_rps * (1 + swing)` over one
    /// period — the compressed shape of diurnal user traffic.
    Diurnal {
        /// Mean arrival rate over a full period, requests per second.
        rate_rps: f64,
        /// Relative swing amplitude in `[0, 1)`.
        swing: f64,
        /// One simulated "day", seconds of sim time.
        period_s: f64,
    },
}

impl ArrivalMix {
    /// The canonical mix names accepted by the CLI (`--mix`).
    pub const NAMES: [&'static str; 3] = ["poisson", "bursty", "diurnal"];

    /// A mix by CLI name at the given base rate, with the default shape
    /// parameters (`burst_factor` 4 at 20% duty over 2 s periods for
    /// `bursty`; 80% swing over a 10 s compressed day for `diurnal`).
    pub fn by_name(name: &str, rate_rps: f64) -> Option<ArrivalMix> {
        match name {
            "poisson" => Some(ArrivalMix::Poisson { rate_rps }),
            "bursty" => Some(ArrivalMix::Bursty {
                rate_rps,
                burst_factor: 4.0,
                period_s: 2.0,
                duty: 0.2,
            }),
            "diurnal" => Some(ArrivalMix::Diurnal {
                rate_rps,
                swing: 0.8,
                period_s: 10.0,
            }),
            _ => None,
        }
    }

    /// The base (mean/quiet) arrival rate the mix was built from,
    /// requests per second.
    pub(crate) fn base_rate(&self) -> f64 {
        match *self {
            ArrivalMix::Poisson { rate_rps }
            | ArrivalMix::Bursty { rate_rps, .. }
            | ArrivalMix::Diurnal { rate_rps, .. } => rate_rps,
        }
    }

    /// The mix's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalMix::Poisson { .. } => "poisson",
            ArrivalMix::Bursty { .. } => "bursty",
            ArrivalMix::Diurnal { .. } => "diurnal",
        }
    }

    /// The instantaneous arrival rate (requests per second) at sim time
    /// `t_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the mix was constructed with a non-positive base rate.
    pub(crate) fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalMix::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "arrival rate must be positive");
                rate_rps
            }
            ArrivalMix::Bursty {
                rate_rps,
                burst_factor,
                period_s,
                duty,
            } => {
                assert!(rate_rps > 0.0, "arrival rate must be positive");
                let phase = (t_s / period_s).fract();
                if phase < duty {
                    rate_rps * burst_factor
                } else {
                    rate_rps
                }
            }
            ArrivalMix::Diurnal {
                rate_rps,
                swing,
                period_s,
            } => {
                assert!(rate_rps > 0.0, "arrival rate must be positive");
                let phase = (t_s / period_s).fract();
                rate_rps * (1.0 + swing * (std::f64::consts::TAU * phase).sin())
            }
        }
    }
}

/// One request in the arrival sequence: what to run, and when it lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Sequence number in arrival order (also the noise/fault seed index).
    pub id: u64,
    /// Sim-time arrival instant.
    pub arrival: Nanos,
    /// Registry name of the workload this request runs.
    pub workload: &'static str,
    /// Input size the workload is built at.
    pub size: InputSize,
    /// SLO deadline: the completion instant after which the response no
    /// longer counts toward SLO attainment. Always `arrival + budget`;
    /// resilience policies spend the remaining budget on retries and
    /// hedges, and deadline-aware admission sheds predicted misses.
    pub deadline: Nanos,
}

/// A generated arrival sequence plus the parameters that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalPlan {
    /// The mix that was sampled.
    pub mix: ArrivalMix,
    /// The base seed.
    pub seed: u64,
    /// The requests, in strictly non-decreasing arrival order.
    pub requests: Vec<Request>,
}

impl ArrivalPlan {
    /// Samples `count` arrivals of `mix`, drawing workloads uniformly from
    /// `catalog` (registry names) at input size `size`.
    ///
    /// Time-varying mixes are sampled by the standard inversion-free
    /// stepping scheme: each gap is exponential with the *instantaneous*
    /// rate at the current clock, which tracks the profile faithfully as
    /// long as the rate changes slowly relative to the mean gap (true for
    /// the shipped burst/diurnal periods at serving rates).
    ///
    /// # Panics
    ///
    /// Panics if `catalog` is empty, if `count` is zero, or if the mix's
    /// base rate is non-positive.
    pub fn generate(
        mix: ArrivalMix,
        seed: u64,
        count: u64,
        catalog: &[&'static str],
        size: InputSize,
    ) -> ArrivalPlan {
        Self::generate_with_deadline(mix, seed, count, catalog, size, Self::DEFAULT_SLO_BUDGET)
    }

    /// The default per-request SLO budget (arrival → deadline): 50 ms,
    /// generous next to the calibrated per-request service times so that
    /// deadline-unaware runs behave exactly as before deadlines existed.
    pub const DEFAULT_SLO_BUDGET: Nanos = Nanos::from_millis(50);

    /// [`ArrivalPlan::generate`] with an explicit SLO budget: every
    /// request's deadline is `arrival + budget`. The budget does not
    /// touch the RNG stream, so plans at different budgets share the
    /// identical arrival sequence.
    ///
    /// # Panics
    ///
    /// As [`ArrivalPlan::generate`].
    pub fn generate_with_deadline(
        mix: ArrivalMix,
        seed: u64,
        count: u64,
        catalog: &[&'static str],
        size: InputSize,
        budget: Nanos,
    ) -> ArrivalPlan {
        assert!(!catalog.is_empty(), "arrival catalog must not be empty");
        assert!(count > 0, "arrival plan needs at least one request");
        let mut rng = SimRng::seed_from_parts(&["serve.arrival", mix.name(), size.name()], seed);
        let mut clock_ns = 0u64;
        let mut requests = Vec::with_capacity(count as usize);
        for id in 0..count {
            let rate = mix.rate_at(clock_ns as f64 / 1e9);
            // Exponential gap with mean 1/rate; u is nudged away from zero
            // so ln() stays finite.
            let u = rng.next_f64().max(1e-12);
            let gap_s = -u.ln() / rate;
            clock_ns += (gap_s * 1e9) as u64;
            let workload = catalog[rng.below(catalog.len() as u64) as usize];
            let arrival = Nanos::from_nanos(clock_ns);
            requests.push(Request {
                id,
                arrival,
                workload,
                size,
                deadline: arrival + budget,
            });
        }
        ArrivalPlan {
            mix,
            seed,
            requests,
        }
    }

    /// The default request catalog: every registered workload (micro +
    /// apps + irregular), in registry order.
    pub fn full_catalog() -> Vec<&'static str> {
        suite::all_entries().iter().map(|e| e.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CATALOG: [&str; 3] = ["vector_seq", "kmeans", "bfs"];

    fn poisson(rate: f64) -> ArrivalMix {
        ArrivalMix::Poisson { rate_rps: rate }
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = ArrivalPlan::generate(poisson(100.0), 7, 500, &CATALOG, InputSize::Tiny);
        let b = ArrivalPlan::generate(poisson(100.0), 7, 500, &CATALOG, InputSize::Tiny);
        assert_eq!(a, b, "generation must be a pure function of its inputs");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ArrivalPlan::generate(poisson(100.0), 7, 100, &CATALOG, InputSize::Tiny);
        let b = ArrivalPlan::generate(poisson(100.0), 8, 100, &CATALOG, InputSize::Tiny);
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn arrivals_are_sorted_and_ids_sequential() {
        let plan = ArrivalPlan::generate(poisson(50.0), 3, 200, &CATALOG, InputSize::Tiny);
        for (i, pair) in plan.requests.windows(2).enumerate() {
            assert!(pair[0].arrival <= pair[1].arrival, "unsorted at {i}");
        }
        for (i, r) in plan.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(CATALOG.contains(&r.workload));
        }
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = ArrivalPlan::generate(poisson(200.0), 42, 4000, &CATALOG, InputSize::Tiny);
        // 3999 gaps between the first and the last of 4000 arrivals.
        let span = plan.requests[3999].arrival - plan.requests[0].arrival;
        let observed = 3999.0 / span.as_secs_f64();
        assert!(
            (observed / 200.0 - 1.0).abs() < 0.1,
            "observed {observed} rps should be within 10% of 200"
        );
    }

    #[test]
    fn bursty_rate_toggles_between_levels() {
        let mix = ArrivalMix::by_name("bursty", 100.0).unwrap();
        assert_eq!(mix.rate_at(0.0), 400.0, "burst window opens each period");
        assert_eq!(mix.rate_at(1.0), 100.0, "quiet phase at base rate");
        assert_eq!(mix.rate_at(2.05), 400.0, "next period bursts again");
    }

    #[test]
    fn diurnal_rate_swings_around_mean() {
        let mix = ArrivalMix::by_name("diurnal", 100.0).unwrap();
        let peak = mix.rate_at(2.5); // quarter period: sin = 1
        let trough = mix.rate_at(7.5); // three quarters: sin = -1
        assert!((peak - 180.0).abs() < 1e-9, "peak {peak}");
        assert!((trough - 20.0).abs() < 1e-9, "trough {trough}");
        assert!((mix.rate_at(0.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deadlines_are_arrival_plus_budget() {
        let budget = Nanos::from_millis(5);
        let plan = ArrivalPlan::generate_with_deadline(
            poisson(100.0),
            7,
            50,
            &CATALOG,
            InputSize::Tiny,
            budget,
        );
        for r in &plan.requests {
            assert_eq!(r.deadline, r.arrival + budget);
        }
        // The default entry point applies DEFAULT_SLO_BUDGET without
        // perturbing the arrival sequence.
        let default = ArrivalPlan::generate(poisson(100.0), 7, 50, &CATALOG, InputSize::Tiny);
        for (a, b) in plan.requests.iter().zip(&default.requests) {
            assert_eq!(a.arrival, b.arrival, "budget must not shift arrivals");
            assert_eq!(b.deadline, b.arrival + ArrivalPlan::DEFAULT_SLO_BUDGET);
        }
    }

    #[test]
    fn mix_names_round_trip() {
        for name in ArrivalMix::NAMES {
            let mix = ArrivalMix::by_name(name, 10.0).unwrap();
            assert_eq!(mix.name(), name);
        }
        assert!(ArrivalMix::by_name("steady", 10.0).is_none());
    }

    #[test]
    fn full_catalog_covers_registry() {
        let catalog = ArrivalPlan::full_catalog();
        assert_eq!(catalog.len(), 22);
        assert!(catalog.contains(&"bfs") && catalog.contains(&"gemm"));
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_requests_rejected() {
        let _ = ArrivalPlan::generate(poisson(10.0), 1, 0, &CATALOG, InputSize::Tiny);
    }

    #[test]
    #[should_panic(expected = "catalog")]
    fn empty_catalog_rejected() {
        let _ = ArrivalPlan::generate(poisson(10.0), 1, 5, &[], InputSize::Tiny);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalPlan::generate(poisson(0.0), 1, 5, &CATALOG, InputSize::Tiny);
    }
}
