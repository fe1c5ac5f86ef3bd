//! The end-to-end run pipeline: one [`GpuProgram`] under one
//! [`TransferMode`] on one [`Device`] → one [`RunReport`].

use crate::device::Device;
use crate::mode::TransferMode;
use crate::program::{BufferRole, BufferSpec, GpuProgram};
use crate::report::RunReport;
use hetsim_chaos::{ChaosCtx, ChaosReport, FaultPlan, RecoveryPolicy, SimError};
use hetsim_counters::{CounterSet, Occupancy};
use hetsim_engine::rng::SimRng;
use hetsim_engine::time::Nanos;
use hetsim_gpu::exec::{release_replay_caches, ExecEnv, KernelExecutor};
use hetsim_gpu::kernel::KernelModel;
use hetsim_gpu::UvmTlb;
use hetsim_mem::addr::Addr;
use hetsim_mem::link::LinkPath;
use hetsim_trace::{Category, Dim};
use hetsim_uvm::prefetch::{PrefetchModel, Regularity};
use hetsim_uvm::space::{ResolvedRange, UvmSpace};
use std::borrow::Cow;
use std::fmt;

/// Sets one ambient label dimension on the active trace session: every
/// event recorded from here on carries it. No-op when tracing is off.
fn set_label(dim: Dim, value: &str) {
    hetsim_trace::session::with(|b| b.set_label(dim, value));
}

/// Saves the active session's label context on construction and restores
/// it on drop, so labels set inside a scope (device, mode, stream) cannot
/// leak past it — including through `?` early returns.
struct LabelScope(Option<hetsim_trace::LabelSet>);

impl LabelScope {
    fn new() -> Self {
        LabelScope(hetsim_trace::session::with(|b| b.label_context()))
    }
}

impl Drop for LabelScope {
    fn drop(&mut self) {
        if let Some(saved) = self.0 {
            hetsim_trace::session::with(|b| b.set_label_context(saved));
        }
    }
}

/// Emits one runtime phase span on the `runtime` track of the active trace
/// session and advances trace time by its duration. No-op when tracing is
/// off or the phase is empty.
///
/// The additivity contract of the trace layer rests on this helper: every
/// `Nanos` the runner adds to a report component goes through exactly one
/// `trace_phase` call with the matching category, so per-category span sums
/// reproduce the report breakdown to the nanosecond.
///
/// The name is formatted only when the span is recorded, so an untraced
/// run builds no phase names.
fn trace_phase(cat: Category, name: fmt::Arguments<'_>, dur: Nanos) {
    if dur.is_zero() || !hetsim_trace::session::enabled() {
        return;
    }
    let name: Cow<'static, str> = match name.as_str() {
        Some(name) => name.into(),
        None => name.to_string().into(),
    };
    hetsim_trace::session::with(|b| {
        let track = b.track("runtime");
        b.phase_span(track, cat, name, dur.as_nanos());
    });
}

/// One buffer of a UVM run as the touch-sequence path sees it.
struct TouchTarget {
    slots: ResolvedRange,
    chunks: u64,
    host_backed: bool,
}

/// Upper bound on the number of per-kernel invocation rounds replayed
/// through the temporal touch path. Touch models signal convergence by
/// returning `false` well before this; the cap only bounds pathological
/// models.
pub const MAX_SEQUENCED_ROUNDS: u64 = 64;

/// Workload-level access regularity: the least regular kernel decides how
/// well the prefetcher does (§4.1.2).
fn least_regular(kernels: &[&dyn KernelModel]) -> Regularity {
    kernels
        .iter()
        .map(|k| k.regularity())
        .max_by(|a, b| {
            a.residual_fault_fraction()
                .partial_cmp(&b.residual_fault_fraction())
                .expect("finite fractions")
        })
        .expect("at least one kernel")
}

/// Fraction of each input buffer the prefetch modes move ahead of the
/// kernels: the prefetcher's coverage of the least regular kernel,
/// derated by the program's inter-kernel prefetch conflict.
///
/// # Panics
///
/// Panics if the program has no kernels.
pub fn prefetch_coverage(program: &dyn GpuProgram) -> f64 {
    PrefetchModel::conflicting(program.prefetch_conflict())
        .effective_coverage(least_regular(&program.kernels()))
}

/// Runs programs on a simulated device.
///
/// # Example
///
/// ```
/// use hetsim_runtime::{Device, Runner, TransferMode};
/// use hetsim_workloads::{suite, InputSize};
///
/// let runner = Runner::new(Device::a100_epyc());
/// let program = suite::by_name("vector_seq", InputSize::Tiny).expect("registered");
/// let report = runner.run(&program, TransferMode::UvmPrefetchAsync, 0);
/// assert!(report.total() > hetsim_engine::time::Nanos::ZERO);
/// println!("{report}");
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    device: Device,
    executor: KernelExecutor,
    chaos: Option<(FaultPlan, RecoveryPolicy)>,
}

/// The result of a fallible, chaos-aware run: the (possibly degraded)
/// report plus the full injection/recovery bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRunReport {
    /// The run's breakdown, inclusive of all recovery costs.
    pub report: RunReport,
    /// The mode the caller asked for.
    pub requested_mode: TransferMode,
    /// The mode the run actually completed under (equals
    /// `requested_mode` unless thrashing degraded it down the ladder).
    pub effective_mode: TransferMode,
    /// Injected faults, recovery actions, and their per-component costs,
    /// cumulative over every degradation attempt.
    pub chaos: ChaosReport,
}

impl ChaosRunReport {
    /// Whether the run degraded away from the requested mode.
    pub fn degraded(&self) -> bool {
        self.requested_mode != self.effective_mode
    }
}

/// One run's measurement noise as multipliers on the base run's
/// components ([`Runner::noise`]). `memcpy` includes the host
/// DRAM-chip spill penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunNoise {
    /// Allocation-time factor.
    pub alloc: f64,
    /// Transfer-time factor.
    pub memcpy: f64,
    /// Kernel-time factor.
    pub kernel: f64,
    /// System-overhead factor.
    pub system: f64,
}

impl Runner {
    /// Creates a runner for a device.
    pub fn new(device: Device) -> Self {
        let executor = KernelExecutor::new(device.gpu.clone());
        Runner {
            device,
            executor,
            chaos: None,
        }
    }

    /// The device configuration.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Arms fault injection: [`Runner::try_run_base`] will inject from
    /// `plan` and recover under `policy`. The infallible
    /// [`Runner::run_base`]/[`Runner::run`] paths stay chaos-free, so
    /// fault-free baselines remain available from the same runner.
    pub fn with_chaos(mut self, plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        self.chaos = Some((plan, policy));
        self
    }

    /// The armed fault plan and policy, if any.
    pub fn chaos(&self) -> Option<&(FaultPlan, RecoveryPolicy)> {
        self.chaos.as_ref()
    }

    /// Executes one run and reports the paper's three-way breakdown.
    ///
    /// `run_index` seeds the run's measurement noise: the same
    /// `(program, mode, run_index)` triple always reproduces the same
    /// report, and 30 distinct indices reproduce the paper's 30-run
    /// distributions.
    pub fn run(&self, program: &dyn GpuProgram, mode: TransferMode, run_index: u64) -> RunReport {
        let base = self.run_base(program, mode);
        self.apply_noise(&base, program, mode, run_index)
    }

    /// The deterministic, noise-free run: the expensive part (cache and
    /// UVM simulation). Experiments building 30-run distributions compute
    /// this once and call [`Runner::apply_noise`] per run index.
    ///
    /// Always chaos-free (an inert injection context), even on a runner
    /// armed via [`Runner::with_chaos`] — fault injection only flows
    /// through [`Runner::try_run_base`].
    ///
    /// # Panics
    ///
    /// Panics if the program has no kernels or, under a UVM mode, its
    /// touch model names a buffer it does not have; the fallible path
    /// returns [`SimError::InvalidProgram`] instead, with the same message.
    pub fn run_base(&self, program: &dyn GpuProgram, mode: TransferMode) -> RunReport {
        self.run_base_with_stall(program, mode).0
    }

    /// [`Runner::run_base`] plus the fault-service stall it exposed as
    /// kernel inflation: the sum of the per-kernel `fault_stall` phases,
    /// each rounded on its own. Zero in the explicit-copy modes.
    ///
    /// # Panics
    ///
    /// As [`Runner::run_base`].
    pub fn run_base_with_stall(
        &self,
        program: &dyn GpuProgram,
        mode: TransferMode,
    ) -> (RunReport, Nanos) {
        let mut ctx = ChaosCtx::inert();
        self.base_pipeline(program, mode, &mut ctx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible, chaos-aware base run: injects faults from the armed
    /// [`FaultPlan`], pays recovery costs in sim time, degrades the mode
    /// down the [`TransferMode::degraded`] ladder under sustained
    /// thrashing, and never panics on a well-formed program.
    ///
    /// Every recovery cost is a pure additive overhead booked per
    /// component in the returned [`ChaosReport`], so subtracting
    /// `chaos.overhead` from the report's components reproduces the
    /// fault-free [`Runner::run_base`] of `effective_mode` exactly —
    /// counters included.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlan`] for impossible plans (checked up front),
    /// [`SimError::InvalidProgram`] for kernel-less programs and for touch
    /// models naming a buffer index past [`GpuProgram::buffers`], and the
    /// recovery-budget errors ([`SimError::RetryExhausted`],
    /// [`SimError::ReplayExhausted`], [`SimError::PinnedAllocFailed`])
    /// when faults outlast the policy.
    pub fn try_run_base(
        &self,
        program: &dyn GpuProgram,
        mode: TransferMode,
    ) -> Result<ChaosRunReport, SimError> {
        let (plan, policy) = self
            .chaos
            .unwrap_or((FaultPlan::off(), RecoveryPolicy::default()));
        plan.validate(&policy)?;

        let mut total = ChaosReport::new(plan.seed);
        total.attempts = 0;
        let mut attempt_mode = mode;
        let mut abandoned = Nanos::ZERO;
        loop {
            let mut ctx = ChaosCtx::new(&plan, &policy, &[program.name(), attempt_mode.name()]);
            let (mut report, _) = self.base_pipeline(program, attempt_mode, &mut ctx)?;

            // Sustained thrashing (injected refaults per chunk-kernel
            // site above the policy threshold) abandons the attempt and
            // degrades the mode, charging the abandoned sim time to the
            // system component — the driver's "stop fighting the fault
            // storm and fall back" move.
            let chunk = self.device.uvm.chunk_size.max(1);
            let sites = program.footprint().div_ceil(chunk).max(1) * program.kernels().len() as u64;
            let thrashing = attempt_mode.uses_uvm()
                && policy.degrade_modes
                && ctx.storm_ratio(sites) > policy.thrash_threshold;
            if thrashing {
                if let Some(next) = attempt_mode.degraded() {
                    let cost = report.total();
                    // The abandonment marker belongs to the mode being
                    // abandoned, not to the caller's ambient context.
                    let _labels = LabelScope::new();
                    set_label(Dim::Mode, attempt_mode.name());
                    ctx.record_abandoned(attempt_mode.name(), next.name(), cost);
                    total.absorb(ctx.finish());
                    abandoned += cost;
                    attempt_mode = next;
                    continue;
                }
            }

            total.absorb(ctx.finish());
            report.system += abandoned;
            return Ok(ChaosRunReport {
                report,
                requested_mode: mode,
                effective_mode: attempt_mode,
                chaos: total,
            });
        }
    }

    /// The shared pipeline behind [`Runner::run_base`] and
    /// [`Runner::try_run_base`]: one attempt under one mode, with fault
    /// injection threaded through `ctx`. With an inert context this is
    /// bit-identical to the historical chaos-free run; chaos extras are
    /// booked in `ctx` along the way and applied to the components once,
    /// after occupancy is derived from the clean breakdown (so recovered
    /// runs keep fault-free counters — the separability invariant).
    /// Returns the report with the exposed fault stall of
    /// [`Runner::run_base_with_stall`].
    fn base_pipeline(
        &self,
        program: &dyn GpuProgram,
        mode: TransferMode,
        ctx: &mut ChaosCtx,
    ) -> Result<(RunReport, Nanos), SimError> {
        let dev = &self.device;
        // Every event this attempt records carries the device and mode as
        // label dimensions, so multi-mode traces slice per mode without
        // span-name parsing. The scope guard restores the caller's
        // context on every exit path.
        let _labels = LabelScope::new();
        set_label(Dim::Device, dev.name);
        set_label(Dim::Mode, mode.name());
        let buffers = program.buffers();
        let kernels = program.kernels();
        if kernels.is_empty() {
            return Err(SimError::InvalidProgram(format!(
                "program `{}` has no kernels",
                program.name()
            )));
        }

        // ---- allocation: cudaMalloc/cudaMallocManaged + cudaFree ----
        let mut alloc = Nanos::ZERO;
        for b in &buffers {
            let t = dev.alloc.alloc_and_free(b.bytes, mode.uses_uvm());
            trace_phase(Category::Alloc, format_args!("alloc({})", b.name), t);
            alloc += t;
        }

        // Async-copy modes stage through pinned host memory; chaos can
        // fail that allocation, falling back to pageable staging (its
        // allocation cost is the recovery charge) or erroring when the
        // policy forbids the fallback.
        if mode.uses_async_copy() && ctx.active() {
            let staging: u64 = buffers
                .iter()
                .filter(|b| b.role.is_input())
                .map(|b| b.bytes)
                .sum();
            let fallback = dev.alloc.alloc_and_free(staging.max(1), false);
            let extra = ctx.pinned_alloc(format_args!("staging"), fallback)?;
            trace_phase(
                Category::Alloc,
                format_args!("chaos_pinned_fallback"),
                extra,
            );
        }

        let mut counters = CounterSet::new();
        let (memcpy, kernel, fault_stall) = if mode.uses_uvm() {
            self.run_uvm(program, mode, &buffers, &kernels, &mut counters, ctx)?
        } else {
            let (memcpy, kernel) =
                self.run_explicit(mode, &buffers, &kernels, &mut counters, ctx)?;
            (memcpy, kernel, Nanos::ZERO)
        };

        // Freeing managed memory whose pages were demand-migrated tears
        // down scattered migration blocks — the hidden allocation cost of
        // the plain `uvm` configuration.
        if mode.uses_uvm() {
            let touched = counters.uvm.pages_migrated()
                + counters.uvm.pages_prefetched()
                + counters.uvm.pages_heuristic();
            let demand_fraction = if touched == 0 {
                0.0
            } else {
                counters.uvm.pages_migrated() as f64 / touched as f64
            };
            let t = dev
                .alloc
                .managed_teardown(program.footprint(), demand_fraction);
            trace_phase(Category::Alloc, format_args!("managed_teardown"), t);
            alloc += t;
        }

        trace_phase(
            Category::Engine,
            format_args!("system_overhead"),
            dev.system_overhead,
        );

        let mut report = RunReport {
            alloc,
            memcpy,
            kernel,
            system: dev.system_overhead,
            counters,
        };
        // Occupancy derives from the clean breakdown; chaos recovery time
        // is applied after, as a pure additive overhead per component.
        set_achieved_occupancy(&mut report);
        let overhead = ctx.report().overhead;
        report.alloc += overhead.alloc;
        report.memcpy += overhead.memcpy;
        report.kernel += overhead.kernel;
        report.system += overhead.system;
        Ok((report, fault_stall))
    }

    /// Applies one run's measurement noise to a noise-free base report:
    /// component jitters plus the host DRAM-chip spill penalty on transfer
    /// time (the paper's Fig 6 Mega-input instability).
    pub fn apply_noise(
        &self,
        base: &RunReport,
        program: &dyn GpuProgram,
        mode: TransferMode,
        run_index: u64,
    ) -> RunReport {
        let noise = self.noise(program.name(), program.footprint(), mode, run_index);
        let mut report = RunReport {
            alloc: base.alloc.scale(noise.alloc),
            memcpy: base.memcpy.scale(noise.memcpy),
            kernel: base.kernel.scale(noise.kernel),
            system: base.system.scale(noise.system),
            counters: base.counters,
        };
        set_achieved_occupancy(&mut report);
        report
    }

    /// The measurement-noise factors of run `run_index` of the program
    /// named `program` (working set `footprint` bytes) in `mode`: the one
    /// draw sequence behind [`Runner::apply_noise`] — host placement
    /// first, then the alloc, copy, kernel and system jitters. Callers
    /// that keep a base run's components and the footprint can cost a
    /// noisy run without building a [`RunReport`].
    #[inline]
    pub fn noise(
        &self,
        program: &str,
        footprint: u64,
        mode: TransferMode,
        run_index: u64,
    ) -> RunNoise {
        let dev = &self.device;
        let mut rng = SimRng::seed_from_parts(&["hetsim.run", program, mode.name()], run_index);
        let placement = dev.host.place(footprint, &mut rng);
        let spill_penalty = placement.transfer_penalty(dev.host.config().cross_chip_derate);
        RunNoise {
            alloc: rng.jitter(dev.alloc_jitter, 0.5),
            memcpy: spill_penalty * rng.jitter(dev.copy_jitter, 0.5),
            kernel: rng.jitter(dev.kernel_jitter, 0.5),
            system: rng.jitter(dev.system_jitter, 0.5),
        }
    }

    /// Explicit-copy path: `standard` and `async`.
    fn run_explicit(
        &self,
        mode: TransferMode,
        buffers: &[BufferSpec],
        kernels: &[&dyn KernelModel],
        counters: &mut CounterSet,
        ctx: &mut ChaosCtx,
    ) -> Result<(Nanos, Nanos), SimError> {
        let dev = &self.device;
        // Copies and kernels are labeled with the engine lane they'd
        // occupy on real hardware (`h2d` / `d2h` copy engines, `compute`),
        // restored to the caller's context by the scope guard.
        let _labels = LabelScope::new();
        let mut memcpy = Nanos::ZERO;
        for b in buffers {
            if b.role.is_input() {
                set_label(Dim::Stream, "h2d");
                let t = dev.link.record_transfer(LinkPath::PageableCopy, b.bytes);
                counters.transfer.record_h2d_copy(b.bytes, t);
                trace_phase(Category::Memcpy, format_args!("memcpy_h2d({})", b.name), t);
                memcpy += t;
                let extra = ctx.transfer(format_args!("memcpy_h2d({})", b.name), t)?;
                trace_phase(
                    Category::Memcpy,
                    format_args!("chaos_retry_h2d({})", b.name),
                    extra,
                );
            }
            if b.role.is_output() {
                set_label(Dim::Stream, "d2h");
                let t = dev.link.record_transfer(LinkPath::PageableCopy, b.bytes);
                counters.transfer.record_d2h_copy(b.bytes, t);
                trace_phase(Category::Memcpy, format_args!("memcpy_d2h({})", b.name), t);
                memcpy += t;
                let extra = ctx.transfer(format_args!("memcpy_d2h({})", b.name), t)?;
                trace_phase(
                    Category::Memcpy,
                    format_args!("chaos_retry_d2h({})", b.name),
                    extra,
                );
            }
        }

        let mut kernel = Nanos::ZERO;
        let env = ExecEnv::standard();
        set_label(Dim::Stream, "compute");
        for k in kernels {
            let style = mode.kernel_style(k.standard_style());
            let r = self.executor.execute(*k, style, &env);
            let inv = k.invocations().max(1);
            trace_phase(Category::Kernel, format_args!("{}", k.name()), r.time * inv);
            kernel += r.time * inv;
            merge_kernel_counters(counters, &r, inv);
            let extra = ctx.kernel(k.name(), r.time * inv)?;
            trace_phase(
                Category::Kernel,
                format_args!("chaos_replay({})", k.name()),
                extra,
            );
        }
        Ok((memcpy, kernel))
    }

    /// Managed-memory path: `uvm`, `uvm_prefetch`, `uvm_prefetch_async`.
    fn run_uvm(
        &self,
        program: &dyn GpuProgram,
        mode: TransferMode,
        buffers: &[BufferSpec],
        kernels: &[&dyn KernelModel],
        counters: &mut CounterSet,
        ctx: &mut ChaosCtx,
    ) -> Result<(Nanos, Nanos, Nanos), SimError> {
        let dev = &self.device;
        // Same lane labeling as the explicit path: migration and prefetch
        // traffic rides the `h2d` lane, writebacks and evictions `d2h`,
        // kernels and their fault stalls `compute`.
        let _labels = LabelScope::new();
        // Give back the executor's kept replay caches here and after each
        // kernel's replay below, so they and the page table are never
        // allocated at once: peak memory stays that of the larger one.
        release_replay_caches();
        let mut space = UvmSpace::new(dev.uvm);
        // Lay buffers out at chunk-aligned, non-overlapping bases.
        let bases: Vec<Addr> = (0..buffers.len())
            .map(|i| Addr::new((i as u64 + 1) << 42))
            .collect();
        for (b, &base) in buffers.iter().zip(&bases) {
            space.managed_alloc(base, b.bytes);
        }

        // What a streamed touch needs of its buffer, looked up once: the
        // buffer's slots, its chunk count (touch indices wrap into it) and
        // whether the host backs it; `None` for `Scratch` buffers.
        let touch_targets: Vec<Option<TouchTarget>> = buffers
            .iter()
            .zip(&bases)
            .map(|(b, &base)| {
                (!matches!(b.role, BufferRole::Scratch)).then(|| TouchTarget {
                    slots: space.resolve(base, b.bytes),
                    chunks: b.bytes.div_ceil(dev.uvm.chunk_size).max(1),
                    host_backed: b.role.is_input(),
                })
            })
            .collect();

        let mut memcpy = Nanos::ZERO;
        let mut kernel = Nanos::ZERO;
        let mut fault_stall = Nanos::ZERO;

        let regularity = least_regular(kernels);
        let coverage = prefetch_coverage(program);

        let translation = if mode.uses_prefetch() {
            // Prefetch resolves most mappings ahead of time; a residue of
            // page-walk overhead remains.
            1.0 + (regularity.uvm_translation_penalty() - 1.0) * 0.35
        } else {
            regularity.uvm_translation_penalty()
        };
        // Prefetch only warms the L2 for access patterns it can actually
        // run ahead of; the quartic keys the benefit sharply on
        // regularity (irregular workloads see almost none — the paper's
        // lud observation).
        let l2_warm = if mode.uses_prefetch() {
            dev.l2_warm_fraction() * coverage.powi(4)
        } else {
            0.0
        };
        // Managed memory translates through the GPU's UVM page tables:
        // demand-migrated runs walk 64 KB mappings; prefetched ranges
        // coalesce into 2 MB mappings with cheap cached walks.
        let tlb = if mode.uses_prefetch() {
            UvmTlb::Coalesced
        } else {
            UvmTlb::Demand
        };
        let env = ExecEnv::new(translation, l2_warm).with_tlb(tlb);

        // Explicit prefetch of every input buffer before the kernels.
        if mode.uses_prefetch() {
            set_label(Dim::Stream, "h2d");
            for (b, &base) in buffers.iter().zip(&bases) {
                if b.role.is_input() {
                    let t = space.prefetch_range(base, b.bytes, coverage, &dev.link);
                    counters
                        .transfer
                        .record_prefetch((b.bytes as f64 * coverage) as u64, t);
                    trace_phase(Category::Memcpy, format_args!("prefetch({})", b.name), t);
                    memcpy += t;
                    let extra = ctx.transfer(format_args!("prefetch({})", b.name), t)?;
                    trace_phase(
                        Category::Memcpy,
                        format_args!("chaos_retry_prefetch({})", b.name),
                        extra,
                    );
                }
            }
        }

        for (ki, k) in kernels.iter().enumerate() {
            // Inter-kernel prefetch conflict: each sweep of a later kernel
            // finds part of the shared data displaced by prefetch decisions
            // made for the other kernel (nw). The displace/refault cycle
            // repeats as the kernels alternate.
            let mut conflict_refault = hetsim_uvm::fault::FaultReport::default();
            if ki > 0 && mode.uses_prefetch() && program.prefetch_conflict() < 1.0 {
                set_label(Dim::Stream, "h2d");
                let displaced_fraction = 1.0 - program.prefetch_conflict();
                let rounds = k.invocations().clamp(1, 4);
                for _ in 0..rounds {
                    for (b, &base) in buffers.iter().zip(&bases) {
                        space.displace_fraction(base, b.bytes, displaced_fraction);
                        let fr = space.demand_touch_range(
                            base,
                            b.bytes,
                            b.role.is_output(),
                            true,
                            &dev.link,
                        );
                        conflict_refault = conflict_refault.merge(fr);
                    }
                }
            }

            set_label(Dim::Stream, "compute");
            let style = mode.kernel_style(k.standard_style());
            let r = self.executor.execute(*k, style, &env);
            release_replay_caches();
            let inv = k.invocations().max(1);
            trace_phase(Category::Kernel, format_args!("{}", k.name()), r.time * inv);
            kernel += r.time * inv;
            merge_kernel_counters(counters, &r, inv);
            let extra = ctx.kernel(k.name(), r.time * inv)?;
            trace_phase(
                Category::Kernel,
                format_args!("chaos_replay({})", k.name()),
                extra,
            );

            // Demand-fault whatever the kernel touches that is not yet
            // resident: through the kernel's temporal touch sequence when
            // the program models one (irregular workloads), else through
            // the address-ordered range walk.
            set_label(Dim::Stream, "h2d");
            let mut stall = conflict_refault.stall;
            trace_phase(
                Category::Memcpy,
                format_args!("conflict_migration"),
                conflict_refault.transfer,
            );
            memcpy += conflict_refault.transfer;
            counters.transfer.record_migration(
                conflict_refault.chunks * dev.uvm.chunk_size,
                conflict_refault.transfer,
            );
            let mut sequenced = false;
            for inv in 0..k.invocations().min(MAX_SEQUENCED_ROUNDS) {
                // Each touch is resolved against the buffer layout as it
                // arrives: touches on `Scratch` buffers are dropped
                // (device-only memory never far-faults against the host)
                // and chunk indices are clamped into the buffer's chunks.
                let mut seq = space.touch_sequence();
                let mut unknown_buffer = None;
                let round = program.for_each_page_touch(ki, inv, dev.uvm.chunk_size, &mut |t| {
                    let Some(target) = touch_targets.get(t.buffer) else {
                        unknown_buffer.get_or_insert(t.buffer);
                        return;
                    };
                    let (Some(target), None) = (target, unknown_buffer) else {
                        return;
                    };
                    let offset = if t.chunk < target.chunks {
                        t.chunk
                    } else {
                        t.chunk % target.chunks
                    };
                    seq.touch_at(&target.slots, offset, t.write, target.host_backed);
                });
                if let Some(buffer) = unknown_buffer {
                    return Err(SimError::InvalidProgram(format!(
                        "program `{}` kernel {ki} (`{}`) round {inv} touches buffer \
                         index {buffer}, but the program has {} buffers",
                        program.name(),
                        k.name(),
                        buffers.len()
                    )));
                }
                if !round {
                    break;
                }
                sequenced = true;
                let fr = seq.finish(&dev.link);
                stall += fr.stall;
                counters
                    .transfer
                    .record_migration(fr.chunks * dev.uvm.chunk_size, fr.transfer);
                trace_phase(
                    Category::Memcpy,
                    format_args!("migration({}#{inv})", k.name()),
                    fr.transfer,
                );
                memcpy += fr.transfer;
            }
            if !sequenced {
                for (b, &base) in buffers.iter().zip(&bases) {
                    if matches!(b.role, BufferRole::Scratch) {
                        continue;
                    }
                    let fr = space.demand_touch_range(
                        base,
                        b.bytes,
                        b.role.is_output(),
                        b.role.is_input(),
                        &dev.link,
                    );
                    stall += fr.stall;
                    let t = fr.transfer;
                    counters
                        .transfer
                        .record_migration(fr.chunks * dev.uvm.chunk_size, t);
                    trace_phase(Category::Memcpy, format_args!("migration({})", b.name), t);
                    memcpy += t;
                }
            }
            // The part of fault servicing the SMs cannot hide shows up as
            // kernel-time inflation; trace it as its own kernel-category
            // span so the stall cost is separable in the viewer.
            set_label(Dim::Stream, "compute");
            let exposed = stall.scale(1.0 / dev.fault_stall_overlap);
            trace_phase(Category::Kernel, format_args!("fault_stall"), exposed);
            kernel += exposed;
            fault_stall += exposed;

            // Injected fault-storm pressure: synthetic refaults against
            // this kernel's working set, costed through the same batched
            // fault-servicing model as real far faults (stall exposed as
            // kernel inflation, migration traffic as transfer time), but
            // never mutating the UVM space — so the storm stays a pure
            // additive overhead.
            if ctx.active() {
                let chunk = dev.uvm.chunk_size.max(1);
                let refaults = ctx.storm_refaults(program.footprint().div_ceil(chunk).max(1));
                if refaults > 0 {
                    let storm_stall = dev
                        .uvm
                        .fault
                        .service_stall(refaults)
                        .scale(1.0 / dev.fault_stall_overlap);
                    let storm_transfer = dev
                        .link
                        .transfer_time(LinkPath::DemandMigration, refaults * chunk);
                    ctx.record_storm(storm_stall, storm_transfer);
                    trace_phase(
                        Category::Kernel,
                        format_args!("chaos_storm_stall"),
                        storm_stall,
                    );
                    set_label(Dim::Stream, "h2d");
                    trace_phase(
                        Category::Memcpy,
                        format_args!("chaos_storm_migration"),
                        storm_transfer,
                    );
                    set_label(Dim::Stream, "compute");
                }
            }
        }

        // Results flow back: write back dirty output chunks.
        set_label(Dim::Stream, "d2h");
        for (b, &base) in buffers.iter().zip(&bases) {
            if b.role.is_output() {
                let path = if mode.uses_prefetch() {
                    LinkPath::BulkPrefetch
                } else {
                    LinkPath::DemandMigration
                };
                let t = space.writeback_dirty(base, b.bytes, path, &dev.link);
                counters.transfer.record_writeback(b.bytes, t);
                trace_phase(Category::Memcpy, format_args!("writeback({})", b.name), t);
                memcpy += t;
                let extra = ctx.transfer(format_args!("writeback({})", b.name), t)?;
                trace_phase(
                    Category::Memcpy,
                    format_args!("chaos_retry_writeback({})", b.name),
                    extra,
                );
            }
        }

        // Oversubscription evictions write dirty chunks back over the
        // link; charge their DMA time as transfer.
        trace_phase(
            Category::Memcpy,
            format_args!("eviction_transfer"),
            space.eviction_transfer(),
        );
        memcpy += space.eviction_transfer();

        counters.uvm += space.counters();
        Ok((memcpy, kernel, fault_stall))
    }
}

/// Derives achieved occupancy from the kernel's share of total time.
fn set_achieved_occupancy(report: &mut RunReport) {
    let kernel_share = report.kernel.as_nanos() as f64 / report.total().as_nanos().max(1) as f64;
    let theoretical = report.counters.occupancy.theoretical();
    report.counters.occupancy = Occupancy::new(theoretical, kernel_share * theoretical);
}

fn merge_kernel_counters(
    counters: &mut CounterSet,
    r: &hetsim_gpu::exec::KernelResult,
    invocations: u64,
) {
    counters.inst += r.inst.scale(invocations as f64);
    counters.l1 += r.l1;
    counters.l2 += r.l2;
    counters.occupancy = Occupancy::new(
        counters
            .occupancy
            .theoretical()
            .max(r.theoretical_occupancy),
        counters.occupancy.achieved(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BufferRole, BufferSpec};
    use hetsim_gpu::kernel::{KernelModel, KernelStyle, LaunchConfig, TileOps};
    use hetsim_mem::addr::MemAccess;
    use hetsim_uvm::prefetch::Regularity;

    /// A minimal streaming program for runtime tests.
    struct TestProgram {
        kernel: TestKernel,
        bytes: u64,
        conflict: f64,
    }

    struct TestKernel {
        launch: LaunchConfig,
        lines_per_tile: u64,
        regularity: Regularity,
    }

    impl TestProgram {
        fn new(bytes: u64) -> Self {
            TestProgram {
                kernel: TestKernel {
                    launch: LaunchConfig::new(1024, 256, 32 * 1024),
                    lines_per_tile: 32,
                    regularity: Regularity::Regular,
                },
                bytes,
                conflict: 1.0,
            }
        }
    }

    impl KernelModel for TestKernel {
        fn name(&self) -> &str {
            "test_kernel"
        }
        fn launch(&self) -> LaunchConfig {
            self.launch
        }
        fn tiles_per_block(&self) -> u64 {
            8
        }
        fn stream_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
            let base = (block * 8 + tile) * self.lines_per_tile * 128;
            for i in 0..self.lines_per_tile {
                out.push(MemAccess::global_load(base + i * 128));
            }
        }
        fn local_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
            let base = (1u64 << 41) + (block * 8 + tile) * self.lines_per_tile * 128;
            for i in 0..self.lines_per_tile {
                out.push(MemAccess::global_store(base + i * 128));
            }
        }
        fn tile_ops(&self) -> TileOps {
            TileOps::new(2048.0, 1024.0, 256.0)
        }
        fn regularity(&self) -> Regularity {
            self.regularity
        }
        fn standard_style(&self) -> KernelStyle {
            KernelStyle::StagedSync
        }
    }

    impl GpuProgram for TestProgram {
        fn name(&self) -> &str {
            "test_program"
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            vec![
                BufferSpec::new("in", self.bytes / 2, BufferRole::Input),
                BufferSpec::new("out", self.bytes / 2, BufferRole::Output),
            ]
        }
        fn kernels(&self) -> Vec<&dyn KernelModel> {
            vec![&self.kernel]
        }
        fn prefetch_conflict(&self) -> f64 {
            self.conflict
        }
    }

    fn runner() -> Runner {
        Runner::new(Device::a100_epyc())
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn deterministic_per_run_index() {
        let p = TestProgram::new(64 * MB);
        let r = runner();
        let a = r.run(&p, TransferMode::Standard, 3);
        let b = r.run(&p, TransferMode::Standard, 3);
        assert_eq!(a, b);
        let c = r.run(&p, TransferMode::Standard, 4);
        assert_ne!(a.total(), c.total(), "different run index, different noise");
    }

    #[test]
    fn breakdown_components_positive() {
        let p = TestProgram::new(64 * MB);
        for mode in TransferMode::ALL {
            let rep = runner().run(&p, mode, 0);
            assert!(rep.alloc > Nanos::ZERO, "{mode}: alloc");
            assert!(rep.memcpy > Nanos::ZERO, "{mode}: memcpy");
            assert!(rep.kernel > Nanos::ZERO, "{mode}: kernel");
            assert!(rep.system > Nanos::ZERO, "{mode}: system");
        }
    }

    #[test]
    fn uvm_demand_saves_memcpy_but_inflates_kernel() {
        let p = TestProgram::new(256 * MB);
        let r = runner();
        let std = r.run(&p, TransferMode::Standard, 0);
        let uvm = r.run(&p, TransferMode::Uvm, 0);
        assert!(
            uvm.memcpy < std.memcpy,
            "uvm memcpy {} !< standard {}",
            uvm.memcpy,
            std.memcpy
        );
        assert!(
            uvm.kernel > std.kernel,
            "uvm kernel {} !> standard {}",
            uvm.kernel,
            std.kernel
        );
    }

    #[test]
    fn prefetch_saves_more_memcpy_than_demand() {
        let p = TestProgram::new(256 * MB);
        let r = runner();
        let uvm = r.run(&p, TransferMode::Uvm, 0);
        let pf = r.run(&p, TransferMode::UvmPrefetch, 0);
        assert!(pf.memcpy < uvm.memcpy);
        assert!(pf.kernel < uvm.kernel, "fewer faults, fewer stalls");
    }

    #[test]
    fn uvm_faults_appear_in_counters() {
        let p = TestProgram::new(64 * MB);
        let rep = runner().run(&p, TransferMode::Uvm, 0);
        assert!(rep.counters.uvm.page_faults() > 0);
        assert!(rep.counters.transfer.migrations() > 0);
        let pf = runner().run(&p, TransferMode::UvmPrefetch, 0);
        assert!(pf.counters.uvm.pages_prefetched() > 0);
        assert!(pf.counters.uvm.page_faults() < rep.counters.uvm.page_faults());
    }

    #[test]
    fn async_mode_inflates_control_instructions() {
        let p = TestProgram::new(64 * MB);
        let r = runner();
        let std = r.run(&p, TransferMode::Standard, 0);
        let asy = r.run(&p, TransferMode::Async, 0);
        use hetsim_counters::InstClass;
        assert!(
            asy.counters.inst.get(InstClass::Control) > std.counters.inst.get(InstClass::Control)
        );
    }

    #[test]
    fn conflict_degrades_prefetch() {
        let mut clean = TestProgram::new(128 * MB);
        clean.conflict = 1.0;
        let mut conflicted = TestProgram::new(128 * MB);
        conflicted.conflict = 0.6;
        let r = runner();
        let a = r.run(&clean, TransferMode::UvmPrefetch, 0);
        let b = r.run(&conflicted, TransferMode::UvmPrefetch, 0);
        assert!(
            b.kernel >= a.kernel,
            "conflicted {} !>= clean {}",
            b.kernel,
            a.kernel
        );
    }

    #[test]
    fn occupancy_improves_when_transfer_shrinks() {
        let p = TestProgram::new(256 * MB);
        let r = runner();
        let std = r.run(&p, TransferMode::Standard, 0);
        let pfa = r.run(&p, TransferMode::UvmPrefetchAsync, 0);
        assert!(
            pfa.counters.occupancy.achieved() > std.counters.occupancy.achieved(),
            "pfa {} !> std {}",
            pfa.counters.occupancy.achieved(),
            std.counters.occupancy.achieved()
        );
    }

    #[test]
    fn unarmed_try_run_base_matches_run_base() {
        let p = TestProgram::new(64 * MB);
        let r = runner();
        for mode in TransferMode::ALL {
            let chaos = r.try_run_base(&p, mode).expect("unarmed run succeeds");
            assert_eq!(chaos.report, r.run_base(&p, mode), "{mode}");
            assert_eq!(chaos.requested_mode, mode);
            assert_eq!(chaos.effective_mode, mode);
            assert_eq!(chaos.chaos.injected(), 0);
            assert_eq!(chaos.chaos.overhead.total(), Nanos::ZERO);
        }
    }

    #[test]
    fn recovered_runs_are_separable_from_fault_free_baselines() {
        // The invariant the property suite leans on: subtract the booked
        // per-component overhead from a recovered run and the fault-free
        // base run of the effective mode reappears exactly — counters
        // included.
        let p = TestProgram::new(64 * MB);
        let r = runner().with_chaos(FaultPlan::light(7), RecoveryPolicy::default());
        for mode in TransferMode::ALL {
            let out = r.try_run_base(&p, mode).expect("light plan recovers");
            let base = r.run_base(&p, out.effective_mode);
            let oh = out.chaos.overhead;
            let mut stripped = out.report.clone();
            stripped.alloc -= oh.alloc;
            stripped.memcpy -= oh.memcpy;
            stripped.kernel -= oh.kernel;
            stripped.system -= oh.system;
            assert_eq!(stripped, base, "{mode}: separability");
            assert_eq!(out.report.counters, base.counters, "{mode}: counters");
        }
    }

    #[test]
    fn same_seed_same_chaos_outcome() {
        let p = TestProgram::new(64 * MB);
        let r = runner().with_chaos(FaultPlan::heavy(11), RecoveryPolicy::default());
        let a = r.try_run_base(&p, TransferMode::UvmPrefetchAsync);
        let b = r.try_run_base(&p, TransferMode::UvmPrefetchAsync);
        assert_eq!(a, b);
    }

    #[test]
    fn fault_storm_degrades_down_the_mode_ladder() {
        // storm() pushes ~0.9 refaults per chunk-kernel site, far above
        // the default 0.5 thrash threshold: every UVM rung thrashes and
        // the run lands on `standard`, with the abandoned attempts
        // charged to the system component.
        let p = TestProgram::new(64 * MB);
        let r = runner().with_chaos(FaultPlan::storm(3), RecoveryPolicy::default());
        let out = r
            .try_run_base(&p, TransferMode::UvmPrefetchAsync)
            .expect("degradation recovers the run");
        assert!(out.degraded());
        assert_eq!(out.effective_mode, TransferMode::Standard);
        assert_eq!(
            out.chaos
                .degradations
                .iter()
                .filter(|(from, _)| from != "pinned")
                .count(),
            3,
            "three rungs walked: {:?}",
            out.chaos.degradations
        );
        assert!(out.chaos.storm_refaults > 0);
        // The abandoned attempts are real sim time on top of the final
        // attempt's fault-free baseline.
        let base = r.run_base(&p, TransferMode::Standard);
        assert!(out.report.total() > base.total());
        assert!(out.report.system > base.system);
    }

    #[test]
    fn storm_without_degradation_stays_on_requested_mode() {
        let policy = RecoveryPolicy {
            degrade_modes: false,
            ..RecoveryPolicy::default()
        };
        let p = TestProgram::new(64 * MB);
        let r = runner().with_chaos(FaultPlan::storm(3), policy);
        let out = r
            .try_run_base(&p, TransferMode::Uvm)
            .expect("storm is absorbed as stalls when degradation is off");
        assert!(!out.degraded());
        assert!(out.chaos.storm_refaults > 0);
        assert!(out.chaos.overhead.kernel > Nanos::ZERO);
        assert!(out.chaos.overhead.memcpy > Nanos::ZERO);
    }

    #[test]
    fn impossible_plan_is_rejected_up_front() {
        let p = TestProgram::new(64 * MB);
        let r = runner().with_chaos(FaultPlan::light(1), RecoveryPolicy::brittle());
        match r.try_run_base(&p, TransferMode::Standard).unwrap_err() {
            SimError::InvalidPlan(msg) => {
                assert!(msg.contains("retry budget of 0"), "{msg}")
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budgets_surface_typed_errors() {
        // High fault rate against a one-retry budget: across a few seeds
        // at least one run must exhaust the budget, and every failure is
        // a typed recovery error — never a panic.
        let p = TestProgram::new(64 * MB);
        let policy = RecoveryPolicy {
            max_retries: 1,
            max_replays: 1,
            ..RecoveryPolicy::default()
        };
        let mut exhausted = 0;
        for seed in 0..8 {
            let r = runner().with_chaos(FaultPlan::heavy(seed), policy);
            match r.try_run_base(&p, TransferMode::Standard) {
                Ok(_) => {}
                Err(SimError::RetryExhausted { attempts, .. }) => {
                    assert_eq!(attempts, 2);
                    exhausted += 1;
                }
                Err(SimError::ReplayExhausted { .. }) => exhausted += 1,
                Err(other) => panic!("unexpected error kind: {other:?}"),
            }
        }
        assert!(exhausted > 0, "heavy plan never exhausted a 1-deep budget");
    }

    #[test]
    fn pinned_failure_without_fallback_is_typed() {
        let plan = FaultPlan {
            seed: 0,
            transfer_fault_rate: 0.0,
            kernel_corruption_rate: 0.0,
            pinned_fail_rate: 0.99,
            storm_pressure: 0.0,
        };
        let policy = RecoveryPolicy {
            pinned_fallback: false,
            ..RecoveryPolicy::default()
        };
        let p = TestProgram::new(64 * MB);
        let mut failed = 0;
        for seed in 0..8 {
            let r = runner().with_chaos(FaultPlan { seed, ..plan }, policy);
            match r.try_run_base(&p, TransferMode::Async) {
                Ok(out) => assert_eq!(out.chaos.pinned_failures, 0),
                Err(SimError::PinnedAllocFailed { site }) => {
                    assert_eq!(site, "staging");
                    failed += 1;
                }
                Err(other) => panic!("unexpected error kind: {other:?}"),
            }
        }
        assert!(failed > 0, "0.99 pinned-fail rate never fired in 8 seeds");
    }

    #[test]
    fn pinned_fallback_books_alloc_overhead() {
        let plan = FaultPlan {
            seed: 0,
            transfer_fault_rate: 0.0,
            kernel_corruption_rate: 0.0,
            pinned_fail_rate: 0.99,
            storm_pressure: 0.0,
        };
        let p = TestProgram::new(64 * MB);
        let mut fell_back = 0;
        for seed in 0..8 {
            let r = runner().with_chaos(FaultPlan { seed, ..plan }, RecoveryPolicy::default());
            let out = r
                .try_run_base(&p, TransferMode::Async)
                .expect("fallback absorbs the failure");
            if out.chaos.pinned_failures > 0 {
                fell_back += 1;
                assert!(out.chaos.overhead.alloc > Nanos::ZERO);
                assert!(out
                    .chaos
                    .degradations
                    .contains(&("pinned".to_string(), "pageable".to_string())));
            }
        }
        assert!(fell_back > 0);
    }

    #[test]
    fn kernel_less_program_is_invalid_not_a_panic() {
        struct Empty;
        impl GpuProgram for Empty {
            fn name(&self) -> &str {
                "empty"
            }
            fn buffers(&self) -> Vec<BufferSpec> {
                vec![BufferSpec::new("b", MB, BufferRole::Input)]
            }
            fn kernels(&self) -> Vec<&dyn KernelModel> {
                Vec::new()
            }
        }
        match runner().try_run_base(&Empty, TransferMode::Standard) {
            Err(SimError::InvalidProgram(msg)) => assert!(msg.contains("empty"), "{msg}"),
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
    }

    /// A touch model naming buffer index 7 of a two-buffer program.
    struct StrayTouch(TestProgram);

    impl GpuProgram for StrayTouch {
        fn name(&self) -> &str {
            "stray_touch"
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            self.0.buffers()
        }
        fn kernels(&self) -> Vec<&dyn KernelModel> {
            self.0.kernels()
        }
        fn for_each_page_touch(
            &self,
            _kernel: usize,
            invocation: u64,
            _chunk_size: u64,
            sink: &mut dyn FnMut(crate::program::PageTouch),
        ) -> bool {
            for buffer in [0, 7, 1] {
                sink(crate::program::PageTouch {
                    buffer,
                    chunk: invocation,
                    write: false,
                });
            }
            true
        }
    }

    const STRAY_MESSAGE: &str = "invalid program: program `stray_touch` kernel 0 \
                                 (`test_kernel`) round 0 touches buffer index 7, but the \
                                 program has 2 buffers";

    #[test]
    fn touch_on_unknown_buffer_is_invalid_not_a_panic() {
        let p = StrayTouch(TestProgram::new(64 * MB));
        for mode in [TransferMode::Uvm, TransferMode::UvmPrefetchAsync] {
            match runner().try_run_base(&p, mode) {
                Err(e @ SimError::InvalidProgram(_)) => assert_eq!(e.to_string(), STRAY_MESSAGE),
                other => panic!("expected InvalidProgram, got {other:?}"),
            }
        }
        // Explicit-copy modes never replay touch sequences.
        assert!(runner().try_run_base(&p, TransferMode::Standard).is_ok());
    }

    #[test]
    #[should_panic(expected = "round 0 touches buffer index 7, but the program has 2 buffers")]
    fn run_base_panics_with_the_invalid_program_message() {
        runner().run_base(&StrayTouch(TestProgram::new(64 * MB)), TransferMode::Uvm);
    }
}
