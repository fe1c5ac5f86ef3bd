//! The serving workloads: `serve_sweep` and `serve_chaos`.
//!
//! Both drive a 4-GPU NVLink fleet with seeded open-loop Poisson arrivals
//! in simulated time. On the host, each pass plays its cells back to back
//! (concurrency 1). The seed drives the arrival sequence, the per-request
//! noise and policy draws, and the fault plan.

use crate::spans::Spans;
use crate::stats::{combine, digest};
use crate::{BenchWorkload, Pass, Segment};
use hetsim::workloads::InputSize;
use hetsim_serve::{
    ArrivalMix, ArrivalPlan, ClusterTopology, Fleet, FleetOutcome, PolicyKind, ResilienceConfig,
    ServeConfig,
};
use hetsim_trace::{JsonlSink, TraceConfig};
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// Devices in the fleet.
const GPUS: usize = 4;

/// Under, near and over the fleet's capacity at `small`.
const SWEEP_RATES: [f64; 3] = [400.0, 1600.0, 6400.0];

/// The policies `serve_chaos` runs: the three that react to device faults
/// differently (failover, deadline shedding, and neither).
const CHAOS_POLICIES: [PolicyKind; 3] = [
    PolicyKind::ChaosFailover,
    PolicyKind::SloDeadline,
    PolicyKind::ModePacking,
];

/// `serve_chaos` arrival rates.
const CHAOS_RATES: [f64; 2] = [400.0, 1600.0];

/// `serve_chaos` fault intensities.
const CHAOS_INTENSITIES: [f64; 2] = [0.5, 1.0];

/// Ring capacity for the streamed trace export: small, so the schedule
/// drains to the sink in many chunks as a long run would.
const TRACE_RING: usize = 4096;

/// Fleet size and offered load shared by both serving workloads.
#[derive(Debug, Clone, Copy)]
struct Load {
    size: InputSize,
    requests: u64,
}

impl Load {
    /// 5k requests per cell keeps a pass near one second, so a run times
    /// every cell many times over and the fastest time of each is clean of
    /// the host's bursts of interference. The overloaded cells still build
    /// a backlog of thousands of requests.
    fn new(smoke: bool) -> Self {
        if smoke {
            Load {
                size: InputSize::Tiny,
                requests: 500,
            }
        } else {
            Load {
                size: InputSize::Small,
                requests: 5_000,
            }
        }
    }

    fn fleet(&self) -> Fleet {
        Fleet::new(ClusterTopology::nvlink_mesh(GPUS), self.size)
    }

    fn config(&self, policy: PolicyKind, rate: f64, seed: u64) -> ServeConfig {
        ServeConfig {
            policy,
            mix: ArrivalMix::Poisson { rate_rps: rate },
            seed,
            requests: self.requests,
        }
    }
}

/// A prewarmed fleet, the seed its cells run under, and the buffer
/// `serve_chaos` streams each cell's schedule into.
pub struct FleetState {
    fleet: Fleet,
    seed: u64,
    capture: Capture,
}

/// `serve_sweep`: every policy at three arrival rates, fault-free.
pub struct ServeSweep {
    load: Load,
}

impl ServeSweep {
    /// The full load, or 500 requests per cell at `tiny` for smoke runs.
    pub fn new(smoke: bool) -> Self {
        ServeSweep {
            load: Load::new(smoke),
        }
    }

    fn cells() -> impl Iterator<Item = (PolicyKind, f64)> {
        PolicyKind::ALL
            .into_iter()
            .flat_map(|p| SWEEP_RATES.into_iter().map(move |r| (p, r)))
    }
}

impl BenchWorkload for ServeSweep {
    type State = FleetState;

    fn name(&self) -> &'static str {
        "serve_sweep"
    }

    fn unit(&self) -> &'static str {
        "request"
    }

    fn seeded(&self) -> bool {
        true
    }

    fn prepare(&self, seed: u64) -> FleetState {
        FleetState {
            fleet: self.load.fleet(),
            seed,
            capture: Capture::default(),
        }
    }

    fn pass(&self, st: &mut FleetState) -> Pass {
        let segments = Self::cells()
            .map(|(policy, rate)| {
                let t = Instant::now();
                let outcome = st.fleet.serve(&self.load.config(policy, rate, st.seed));
                let report = outcome.report.to_json_value();
                Segment::new(
                    t.elapsed(),
                    outcome.report.offered as u64,
                    digest(report.as_bytes()),
                )
            })
            .collect();
        Pass { segments }
    }

    fn traced_pass(&self, st: &mut FleetState, spans: &mut Spans) -> Pass {
        let catalog = ArrivalPlan::full_catalog();
        spans
            .scope("pass", self.name(), 0, |sp| {
                let segments = Self::cells()
                    .enumerate()
                    .map(|(i, (policy, rate))| {
                        let op = i as u64;
                        let label = format!("{}@{rate}", policy.name());
                        let cfg = self.load.config(policy, rate, st.seed);
                        sp.scope("cell", label.clone(), op, |sp| {
                            let (a, plan) = sp.scope("serve.arrivals", label.clone(), op, |_| {
                                ArrivalPlan::generate(
                                    cfg.mix,
                                    cfg.seed,
                                    cfg.requests,
                                    &catalog,
                                    self.load.size,
                                )
                            });
                            let requests = plan.requests.len() as f64;
                            sp.attr(a, "requests", requests);
                            let (s, outcome) =
                                sp.scope("serve.schedule", label.clone(), op, |_| {
                                    st.fleet
                                        .serve_plan(&plan, policy.build().as_ref(), cfg.seed)
                                });
                            sp.attr(s, "requests", requests);
                            sp.attr(s, "rate", rate);
                            sp.attr(s, "policy", policy_index(policy) as f64);
                            let (r, report) = sp.scope("serve.report", label.clone(), op, |_| {
                                outcome.report.to_json_value()
                            });
                            sp.attr(r, "cells", 1.0);
                            let (_, d) =
                                sp.scope("probe.digest", label, op, |_| digest(report.as_bytes()));
                            Segment::traced(outcome.report.offered as u64, d)
                        })
                        .1
                    })
                    .collect();
                Pass { segments }
            })
            .1
    }
}

fn policy_index(p: PolicyKind) -> usize {
    PolicyKind::ALL
        .iter()
        .position(|&q| q == p)
        .expect("every policy is in ALL")
}

/// The bytes a trace sink writes, kept in memory in place of a file. One
/// buffer serves every cell, so after the first pass it no longer grows
/// and the peak RSS does not depend on where reallocations fell.
#[derive(Debug, Clone, Default)]
struct Capture(Rc<RefCell<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A cell's schedule streamed as JSONL into `out`.
struct Export {
    events: u64,
    intact: bool,
}

fn export_trace(outcome: &FleetOutcome, out: &Capture) -> Export {
    out.0.borrow_mut().clear();
    let trace = outcome.trace_streaming(
        TraceConfig::default().with_capacity(TRACE_RING),
        Box::new(JsonlSink::new(out.clone())),
    );
    Export {
        events: trace.total_events(),
        intact: trace.stream_error().is_none(),
    }
}

/// A cell's outputs: its report and its streamed trace.
fn digest_cell(report: &str, trace: &Capture) -> u64 {
    combine(&[digest(report.as_bytes()), digest(&trace.0.borrow())])
}

/// `serve_chaos`: fault-injected serving with the schedule streamed out as
/// a trace.
pub struct ServeChaos {
    load: Load,
}

impl ServeChaos {
    /// The offered load of [`ServeSweep::new`].
    pub fn new(smoke: bool) -> Self {
        ServeChaos {
            load: Load::new(smoke),
        }
    }

    fn cells() -> impl Iterator<Item = (PolicyKind, f64, f64)> {
        CHAOS_POLICIES.into_iter().flat_map(|p| {
            CHAOS_RATES
                .into_iter()
                .flat_map(move |r| CHAOS_INTENSITIES.into_iter().map(move |x| (p, r, x)))
        })
    }
}

impl BenchWorkload for ServeChaos {
    type State = FleetState;

    fn name(&self) -> &'static str {
        "serve_chaos"
    }

    fn unit(&self) -> &'static str {
        "request"
    }

    fn seeded(&self) -> bool {
        true
    }

    fn prepare(&self, seed: u64) -> FleetState {
        FleetState {
            fleet: self.load.fleet(),
            seed,
            capture: Capture::default(),
        }
    }

    fn pass(&self, st: &mut FleetState) -> Pass {
        let segments = Self::cells()
            .map(|(policy, rate, intensity)| {
                let t = Instant::now();
                let res = ResilienceConfig::at_intensity(st.seed, intensity);
                let outcome = st
                    .fleet
                    .serve_resilient(&self.load.config(policy, rate, st.seed), &res);
                let export = export_trace(&outcome, &st.capture);
                let report = outcome.report.to_json_value();
                let units = outcome.report.offered as u64;
                let mut seg = Segment::new(t.elapsed(), units, digest_cell(&report, &st.capture));
                seg.failed = !export.intact;
                seg
            })
            .collect();
        Pass { segments }
    }

    fn traced_pass(&self, st: &mut FleetState, spans: &mut Spans) -> Pass {
        let catalog = ArrivalPlan::full_catalog();
        spans
            .scope("pass", self.name(), 0, |sp| {
                let segments = Self::cells()
                    .enumerate()
                    .map(|(i, (policy, rate, intensity))| {
                        let op = i as u64;
                        let label = format!("{}@{rate}x{intensity}", policy.name());
                        let cfg = self.load.config(policy, rate, st.seed);
                        let res = ResilienceConfig::at_intensity(st.seed, intensity);
                        sp.scope("cell", label.clone(), op, |sp| {
                            let (s, outcome) =
                                sp.scope("serve.resilient", label.clone(), op, |sp| {
                                    let outcome = st.fleet.serve_resilient(&cfg, &res);
                                    // `serve_resilient` generates its own plan;
                                    // regenerating it here splits that part out.
                                    let (a, plan) =
                                        sp.scope("probe.arrivals", label.clone(), op, |_| {
                                            ArrivalPlan::generate_with_deadline(
                                                cfg.mix,
                                                cfg.seed,
                                                cfg.requests,
                                                &catalog,
                                                self.load.size,
                                                res.slo_budget,
                                            )
                                        });
                                    sp.attr(a, "requests", plan.requests.len() as f64);
                                    outcome
                                });
                            sp.attr(s, "requests", outcome.report.offered as f64);
                            sp.attr(s, "intensity", intensity);
                            let (x, export) = sp.scope("trace.export", label.clone(), op, |_| {
                                export_trace(&outcome, &st.capture)
                            });
                            sp.attr(x, "events", export.events as f64);
                            sp.attr(x, "bytes", st.capture.0.borrow().len() as f64);
                            let (r, report) = sp.scope("serve.report", label.clone(), op, |_| {
                                outcome.report.to_json_value()
                            });
                            sp.attr(r, "cells", 1.0);
                            let (_, d) = sp.scope("probe.digest", label, op, |_| {
                                digest_cell(&report, &st.capture)
                            });
                            let mut seg = Segment::traced(outcome.report.offered as u64, d);
                            seg.failed = !export.intact;
                            seg
                        })
                        .1
                    })
                    .collect();
                Pass { segments }
            })
            .1
    }
}
