//! Static performance analysis: the transfer-mode advisor (`SAN-P*`).
//!
//! [`advise`] predicts, per workload × device, what each of the five
//! [`TransferMode`]s would cost — alloc, transfer, and kernel time —
//! *without running the simulator*. It does so by evaluating the same
//! closed-form cost primitives the runtime composes (link transfer times,
//! fault-batch service stalls, the analytic kernel executor, the affine
//! allocation model) over an independent mirror of the UVM residency state
//! machine: per-buffer chunk bitmaps driven by prefix prefetch, trailing
//! displacement, address-ordered range walks, and exact replay of
//! touch streams through a [`FaultBatcher`].
//!
//! Because the mirror is a from-scratch reimplementation of the runtime's
//! memory-state evolution, agreement with the simulator is a *checkable
//! property*, not a tautology — `tests/advisor_validation.rs` sweeps the
//! whole workload registry and asserts the advisor's top-ranked mode
//! matches the measured winner.
//!
//! Three analyses feed the [`ModeAdvice`] verdict:
//!
//! * [`OverlapAnalysis`] — critical path of the explicit-copy stream DAG:
//!   total copy time vs. kernel time (what fraction of copy bytes *could*
//!   hide behind kernels), and whether `cp.async` staging actually speeds
//!   the kernels up.
//! * [`DataflowAnalysis`] — buffer dataflow over the touch streams:
//!   touch density, mean chunk reuse distance, predicted fault-batch fill,
//!   and the thrash onset from footprint vs. the HBM carveout.
//! * [`BudgetCheck`] — oversubscription ratio and the pinned-staging
//!   budget async modes would consume.
//!
//! Findings surface as advisory `SAN-P001`–`SAN-P004` lints (all
//! warnings), gated so they only fire on modes the advisor predicts to be
//! materially slower than the best — a mode the advisor itself ranks first
//! never lints.
//!
//! # Known blind spots
//!
//! The mirror models no LRU capacity eviction: footprints at or under the
//! device carveout never evict, and beyond it the advisor flags
//! `SAN-P003` instead of simulating the thrash (see `docs/SANITIZER.md`).
//! Measurement noise (jitter, host chip placement) is out of scope — the
//! advisor predicts the noise-free base run.

use crate::diag::{Diagnostic, Lint, Report, Span};
use hetsim_engine::time::Nanos;
use hetsim_gpu::exec::{ExecEnv, KernelExecutor};
use hetsim_mem::link::{CpuGpuLink, LinkPath};
use hetsim_mem::tlb::TlbConfig;
use hetsim_runtime::program::{BufferRole, BufferSpec, GpuProgram};
use hetsim_runtime::{Device, TransferMode};
use hetsim_uvm::fault::FaultConfig;
use hetsim_uvm::prefetch::PrefetchModel;
use hetsim_uvm::touch::{FaultBatcher, TouchConfig};

/// Upper bound on sequenced touch rounds replayed per kernel, mirroring
/// the runtime's own cap.
const MAX_SEQUENCED_ROUNDS: u64 = 64;

/// Knobs for [`advise`].
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Pinned host memory available for async-copy staging, bytes.
    /// [`Lint::PinnedBudgetExceeded`] fires when an async mode's input
    /// footprint exceeds it.
    pub pinned_budget: u64,
    /// A mode lints only when its predicted total exceeds the predicted
    /// best by this factor — the zero-false-positive gate: the advisor
    /// never warns about a mode it would itself recommend (or any mode
    /// within the ratio of it).
    pub lint_ratio: f64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            // 64 GiB: half the paper platform's host DRAM, comfortably
            // above every registry footprint.
            pinned_budget: 64 << 30,
            lint_ratio: 1.10,
        }
    }
}

/// Predicted cost breakdown of one transfer mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ModePrediction {
    /// The mode this prediction is for.
    pub mode: TransferMode,
    /// Predicted allocation (+teardown) time.
    pub alloc: Nanos,
    /// Predicted transfer time (copies, prefetch, migration, writeback).
    pub memcpy: Nanos,
    /// Predicted kernel time, including the exposed fault-stall residue.
    pub kernel: Nanos,
    /// Fault-service stall exposed as kernel inflation (zero outside UVM).
    pub fault_stall: Nanos,
    /// One-line explanation of where this mode's time goes.
    pub rationale: String,
}

impl ModePrediction {
    /// Total predicted time (alloc + memcpy + kernel; the constant system
    /// overhead is mode-independent and excluded from the ranking metric).
    pub fn total(&self) -> Nanos {
        self.alloc + self.memcpy + self.kernel
    }
}

/// Critical-path/overlap analysis of the explicit-copy stream DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapAnalysis {
    /// Total bytes crossing the link under explicit copies (h2d + d2h).
    pub copy_bytes: u64,
    /// Time those copies occupy the link (pageable path).
    pub copy_time: Nanos,
    /// Kernel time under each kernel's standard style.
    pub standard_kernel: Nanos,
    /// Kernel time with async modes' `cp.async` staging applied.
    pub async_kernel: Nanos,
    /// Fraction of copy time that kernels are long enough to hide if
    /// copies and compute overlapped perfectly (capped at 1).
    pub hidable_fraction: f64,
    /// Relative kernel speedup from `cp.async` staging:
    /// `1 - async/standard`. Non-positive means the staging overhead
    /// outweighs the overlap — zero slack.
    pub async_gain: f64,
}

/// Buffer dataflow analysis over the programs' touch streams.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowAnalysis {
    /// Whether any kernel models a temporal touch sequence.
    pub sequenced: bool,
    /// Total page touches across all kernels and rounds.
    pub total_touches: u64,
    /// Distinct chunks addressed by those touches.
    pub distinct_chunks: u64,
    /// Footprint in chunks (every non-`Scratch` buffer).
    pub footprint_chunks: u64,
    /// Touches per footprint chunk (≥ 1 means revisits; high density under
    /// demand paging predicts fault-dominated kernels).
    pub touch_density: f64,
    /// Mean distance (in touches) between successive touches of the same
    /// chunk; zero when no chunk is revisited.
    pub mean_reuse_distance: f64,
    /// Predicted mean fault-batch fill under plain demand paging (out of
    /// the device's batch capacity; low fill pays the fixed batch latency
    /// over few faults).
    pub mean_batch_fill: f64,
    /// Footprint over the device HBM carveout.
    pub oversubscription: f64,
    /// Fraction of the footprint that cannot be device-resident at once:
    /// `max(0, 1 - capacity/footprint)` — the predicted thrash share.
    pub thrash_fraction: f64,
}

/// Oversubscription and pinned-staging budget check.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetCheck {
    /// Bytes async modes would stage through pinned host memory (input
    /// buffers).
    pub staging_bytes: u64,
    /// The configured pinned budget.
    pub pinned_budget: u64,
    /// Program footprint, bytes.
    pub footprint: u64,
    /// Device HBM carveout available to managed memory, bytes.
    pub device_capacity: u64,
    /// `footprint / device_capacity`.
    pub oversubscription: f64,
    /// Whether the staging fits the pinned budget.
    pub within_budget: bool,
}

/// The advisor's verdict for one workload on one device: all five modes
/// ranked by predicted total time, the three analyses, and any advisory
/// `SAN-P*` findings.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeAdvice {
    /// Workload name.
    pub workload: String,
    /// Device name.
    pub device: &'static str,
    /// Predictions for every mode, ascending by [`ModePrediction::total`]
    /// (ties keep [`TransferMode::ALL`] order).
    pub ranked: Vec<ModePrediction>,
    /// Stream-DAG overlap analysis.
    pub overlap: OverlapAnalysis,
    /// Touch-sequence dataflow analysis.
    pub dataflow: DataflowAnalysis,
    /// Oversubscription/pinned budget check.
    pub budget: BudgetCheck,
    /// Advisory `SAN-P*` findings.
    pub report: Report,
}

impl ModeAdvice {
    /// The top-ranked (predicted fastest) mode.
    pub fn best(&self) -> &ModePrediction {
        &self.ranked[0]
    }

    /// Renders the advice as one JSON object (hand-rolled; the workspace
    /// is zero-dependency). The shape is part of the CLI contract
    /// (`hetsim advise --format json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\":\"{}\",\"device\":\"{}\",\"best\":\"{}\",\"ranked\":[",
            json_escape(&self.workload),
            json_escape(self.device),
            self.best().mode.name()
        );
        for (i, p) in self.ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"mode\":\"{}\",\"alloc\":{},\"memcpy\":{},\"kernel\":{},\"fault_stall\":{},\"total\":{},\"rationale\":\"{}\"}}",
                p.mode.name(),
                p.alloc.as_nanos(),
                p.memcpy.as_nanos(),
                p.kernel.as_nanos(),
                p.fault_stall.as_nanos(),
                p.total().as_nanos(),
                json_escape(&p.rationale),
            );
        }
        let o = &self.overlap;
        let _ = write!(
            out,
            "],\"overlap\":{{\"copy_bytes\":{},\"copy_time\":{},\"standard_kernel\":{},\"async_kernel\":{},\"hidable_fraction\":{},\"async_gain\":{}}}",
            o.copy_bytes,
            o.copy_time.as_nanos(),
            o.standard_kernel.as_nanos(),
            o.async_kernel.as_nanos(),
            json_f64(o.hidable_fraction),
            json_f64(o.async_gain),
        );
        let d = &self.dataflow;
        let _ = write!(
            out,
            ",\"dataflow\":{{\"sequenced\":{},\"total_touches\":{},\"distinct_chunks\":{},\"footprint_chunks\":{},\"touch_density\":{},\"mean_reuse_distance\":{},\"mean_batch_fill\":{},\"oversubscription\":{},\"thrash_fraction\":{}}}",
            d.sequenced,
            d.total_touches,
            d.distinct_chunks,
            d.footprint_chunks,
            json_f64(d.touch_density),
            json_f64(d.mean_reuse_distance),
            json_f64(d.mean_batch_fill),
            json_f64(d.oversubscription),
            json_f64(d.thrash_fraction),
        );
        let b = &self.budget;
        let _ = write!(
            out,
            ",\"budget\":{{\"staging_bytes\":{},\"pinned_budget\":{},\"footprint\":{},\"device_capacity\":{},\"oversubscription\":{},\"within_budget\":{}}}",
            b.staging_bytes,
            b.pinned_budget,
            b.footprint,
            b.device_capacity,
            json_f64(b.oversubscription),
            b.within_budget,
        );
        let _ = write!(out, ",\"report\":{}}}", self.report.to_json());
        out
    }
}

/// Deterministic JSON float rendering; non-finite values render as 0.
fn json_f64(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "0".to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The UVM residency mirror.
// ---------------------------------------------------------------------------

/// One resolved touch against the mirror's buffer layout.
#[derive(Debug, Clone, Copy)]
struct MirrorTouch {
    buffer: usize,
    chunk: u64,
    write: bool,
    host_backed: bool,
}

/// Per-buffer chunk residency/dirty bitmaps, laid out at the same
/// chunk-aligned bases the runtime uses (`(i+1) << 42`).
struct BufMirror {
    base_chunk: u64,
    nchunks: u64,
    resident: Vec<bool>,
    dirty: Vec<bool>,
}

/// An independent mirror of the UVM space's state machine, priced with
/// the link's pure time queries. No LRU/capacity eviction is modelled —
/// the advisor's documented blind spot.
struct UvmMirror<'a> {
    chunk_size: u64,
    fault: FaultConfig,
    touch: TouchConfig,
    link: &'a CpuGpuLink,
    bufs: Vec<BufMirror>,
    migrated: u64,
    prefetched: u64,
    heuristic: u64,
    /// Every fault-batch fill observed, for [`DataflowAnalysis`].
    fills: Vec<u64>,
}

impl<'a> UvmMirror<'a> {
    fn new(device: &'a Device, buffers: &[BufferSpec]) -> Self {
        let chunk_size = device.uvm.chunk_size;
        let bufs = buffers
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let base = (i as u64 + 1) << 42;
                let nchunks = if b.bytes == 0 {
                    0
                } else {
                    b.bytes.div_ceil(chunk_size)
                };
                BufMirror {
                    base_chunk: base / chunk_size,
                    nchunks,
                    resident: vec![false; nchunks as usize],
                    dirty: vec![false; nchunks as usize],
                }
            })
            .collect();
        UvmMirror {
            chunk_size,
            fault: device.uvm.fault,
            touch: device.uvm.touch,
            link: &device.link,
            bufs,
            migrated: 0,
            prefetched: 0,
            heuristic: 0,
            fills: Vec::new(),
        }
    }

    /// `cudaMemPrefetchAsync` of a buffer's non-resident prefix.
    fn prefetch_range(&mut self, bi: usize, coverage: f64) -> Nanos {
        let b = &mut self.bufs[bi];
        let pending: Vec<usize> = (0..b.nchunks as usize)
            .filter(|&i| !b.resident[i])
            .collect();
        let n = (pending.len() as f64 * coverage).round() as usize;
        let mut moved = 0u64;
        for &i in pending.iter().take(n) {
            b.resident[i] = true;
            moved += 1;
        }
        if moved == 0 {
            return Nanos::ZERO;
        }
        self.prefetched += moved;
        self.link
            .transfer_time(LinkPath::BulkPrefetch, moved * self.chunk_size)
    }

    /// Address-ordered demand walk of a whole buffer.
    fn demand_touch_range(&mut self, bi: usize, write: bool, host_backed: bool) -> (Nanos, Nanos) {
        let b = &mut self.bufs[bi];
        let mut faulted = 0u64;
        for i in 0..b.nchunks as usize {
            if !b.resident[i] {
                b.resident[i] = true;
                faulted += 1;
            }
            b.dirty[i] = b.dirty[i] || write;
        }
        if faulted == 0 {
            return (Nanos::ZERO, Nanos::ZERO);
        }
        let stall = self.fault.service_stall(faulted);
        // An up-front sweep retires capacity-filled batches + a remainder.
        let cap = self.fault.batch_capacity as u64;
        let mut remaining = faulted;
        while remaining > 0 {
            let fill = remaining.min(cap);
            self.fills.push(fill);
            remaining -= fill;
        }
        let transfer = if host_backed {
            self.migrated += faulted;
            self.link.chunked_transfer_time(
                LinkPath::DemandMigration,
                faulted * self.chunk_size,
                self.chunk_size * cap,
            )
        } else {
            Nanos::ZERO
        };
        (stall, transfer)
    }

    /// Opens a temporal-order sequence replay.
    fn touch_sequence(&mut self) -> MirrorSequence<'_, 'a> {
        MirrorSequence {
            batcher: FaultBatcher::new(self.fault, self.touch),
            mirror: self,
            spec_block: 1,
            last_fault: None,
            faulted: 0,
            migrated: 0,
        }
    }

    /// Which buffer (if any) owns global chunk index `gidx`.
    fn owner(&self, gidx: u64) -> Option<(usize, usize)> {
        for (bi, b) in self.bufs.iter().enumerate() {
            if gidx >= b.base_chunk && gidx < b.base_chunk + b.nchunks {
                return Some((bi, (gidx - b.base_chunk) as usize));
            }
        }
        None
    }

    /// Displaces the trailing `fraction` of a buffer's resident chunks
    /// back to the host (prefetch-conflict pathology), clearing dirty.
    fn displace_fraction(&mut self, bi: usize, fraction: f64) {
        let b = &mut self.bufs[bi];
        let resident: Vec<usize> = (0..b.nchunks as usize).filter(|&i| b.resident[i]).collect();
        let n = (resident.len() as f64 * fraction).round() as usize;
        for &i in resident.iter().rev().take(n) {
            b.resident[i] = false;
            b.dirty[i] = false;
        }
    }

    /// Writes a buffer's dirty resident chunks back, clearing dirty.
    fn writeback_dirty(&mut self, bi: usize, path: LinkPath) -> Nanos {
        let b = &mut self.bufs[bi];
        let mut dirty = 0u64;
        for i in 0..b.nchunks as usize {
            if b.resident[i] && b.dirty[i] {
                b.dirty[i] = false;
                dirty += 1;
            }
        }
        if dirty == 0 {
            return Nanos::ZERO;
        }
        self.link.transfer_time(path, dirty * self.chunk_size)
    }

    /// `pages_migrated / (migrated + prefetched + heuristic)` — drives the
    /// managed-teardown cost.
    fn demand_fraction(&self) -> f64 {
        let touched = self.migrated + self.prefetched + self.heuristic;
        if touched == 0 {
            0.0
        } else {
            self.migrated as f64 / touched as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Per-mode prediction.
// ---------------------------------------------------------------------------

/// Everything one UVM-mode prediction produces beyond the breakdown.
struct UvmOutcome {
    memcpy: Nanos,
    kernel: Nanos,
    stall_exposed: Nanos,
    coverage: f64,
    demand_fraction: f64,
    fills: Vec<u64>,
}

fn ms(n: Nanos) -> f64 {
    n.as_millis_f64()
}

/// A temporal-order sequence replay in progress against the mirror:
/// partial batches via [`FaultBatcher`] plus the driver's region-growing
/// speculation, fed one resolved touch at a time.
struct MirrorSequence<'m, 'a> {
    mirror: &'m mut UvmMirror<'a>,
    batcher: FaultBatcher,
    spec_block: u64,
    last_fault: Option<u64>,
    faulted: u64,
    migrated: u64,
}

impl MirrorSequence<'_, '_> {
    fn touch(&mut self, t: MirrorTouch) {
        let m = &mut *self.mirror;
        let b = &mut m.bufs[t.buffer];
        let i = t.chunk as usize;
        if b.resident[i] {
            b.dirty[i] = b.dirty[i] || t.write;
            self.batcher.hit();
            return;
        }
        self.faulted += 1;
        self.batcher.fault();
        let gidx = b.base_chunk + t.chunk;
        let adjacent = self
            .last_fault
            .is_some_and(|p| gidx.abs_diff(p) <= self.spec_block.max(4));
        self.spec_block = if adjacent {
            (self.spec_block * 2).min(m.touch.max_spec_block.max(1))
        } else {
            1
        };
        self.last_fault = Some(gidx);
        b.resident[i] = true;
        b.dirty[i] = b.dirty[i] || t.write;
        if t.host_backed {
            self.migrated += 1;
        }
        // The speculative block after the faulting chunk, clipped to
        // managed ranges.
        for c in gidx + 1..gidx + self.spec_block {
            if let Some((bj, off)) = m.owner(c) {
                let spec = &mut m.bufs[bj];
                if !spec.resident[off] {
                    spec.resident[off] = true;
                    m.heuristic += 1;
                    if t.host_backed {
                        self.migrated += 1;
                    }
                }
            }
        }
    }

    /// The sequence's `(stall, transfer)`.
    fn finish(self) -> (Nanos, Nanos) {
        let m = self.mirror;
        if self.faulted == 0 {
            return (Nanos::ZERO, Nanos::ZERO);
        }
        let fills = self.batcher.finish();
        let mut stall = Nanos::ZERO;
        for &fill in &fills {
            stall += m.fault.batch_latency + m.fault.per_fault * fill as u64;
            m.fills.push(fill as u64);
        }
        let transfer = if self.migrated > 0 {
            m.migrated += self.migrated;
            m.link.chunked_transfer_time(
                LinkPath::DemandMigration,
                self.migrated * m.chunk_size,
                m.chunk_size * m.fault.batch_capacity as u64,
            )
        } else {
            Nanos::ZERO
        };
        (stall, transfer)
    }
}

/// Predicts the explicit-copy path (`standard` / `async`).
fn predict_explicit(
    program: &dyn GpuProgram,
    device: &Device,
    executor: &KernelExecutor,
    mode: TransferMode,
    buffers: &[BufferSpec],
) -> (Nanos, Nanos) {
    let mut memcpy = Nanos::ZERO;
    for b in buffers {
        if b.role.is_input() {
            memcpy += device.link.transfer_time(LinkPath::PageableCopy, b.bytes);
        }
        if b.role.is_output() {
            memcpy += device.link.transfer_time(LinkPath::PageableCopy, b.bytes);
        }
    }
    let env = ExecEnv::standard();
    let mut kernel = Nanos::ZERO;
    for k in program.kernels() {
        let style = mode.kernel_style(k.standard_style());
        let r = executor.execute(k, style, &env);
        kernel += r.time * k.invocations().max(1);
    }
    (memcpy, kernel)
}

/// Predicts a managed-memory mode by driving the residency mirror through
/// the same phase sequence the runtime executes.
fn predict_uvm(
    program: &dyn GpuProgram,
    device: &Device,
    executor: &KernelExecutor,
    mode: TransferMode,
    buffers: &[BufferSpec],
) -> UvmOutcome {
    let mut mirror = UvmMirror::new(device, buffers);
    let kernels = program.kernels();
    let mut memcpy = Nanos::ZERO;
    let mut kernel = Nanos::ZERO;
    let mut stall_exposed = Nanos::ZERO;

    // Workload-level regularity: the least regular kernel decides.
    let regularity = kernels
        .iter()
        .map(|k| k.regularity())
        .max_by(|a, b| {
            a.residual_fault_fraction()
                .partial_cmp(&b.residual_fault_fraction())
                .expect("finite fractions")
        })
        .expect("at least one kernel");
    let prefetch_model = PrefetchModel::conflicting(program.prefetch_conflict());
    let coverage = prefetch_model.effective_coverage(regularity);

    let translation = if mode.uses_prefetch() {
        1.0 + (regularity.uvm_translation_penalty() - 1.0) * 0.35
    } else {
        regularity.uvm_translation_penalty()
    };
    let l2_warm = if mode.uses_prefetch() {
        device.l2_warm_fraction() * coverage.powi(4)
    } else {
        0.0
    };
    let tlb = if mode.uses_prefetch() {
        TlbConfig::a100_uvm_coalesced()
    } else {
        TlbConfig::a100_uvm()
    };
    let env = ExecEnv::new(translation, l2_warm).with_tlb(tlb);

    if mode.uses_prefetch() {
        for (bi, b) in buffers.iter().enumerate() {
            if b.role.is_input() {
                memcpy += mirror.prefetch_range(bi, coverage);
            }
        }
    }

    for (ki, k) in kernels.iter().enumerate() {
        let mut conflict_stall = Nanos::ZERO;
        let mut conflict_transfer = Nanos::ZERO;
        if ki > 0 && mode.uses_prefetch() && program.prefetch_conflict() < 1.0 {
            let displaced_fraction = 1.0 - program.prefetch_conflict();
            let rounds = k.invocations().clamp(1, 4);
            for _ in 0..rounds {
                for (bi, b) in buffers.iter().enumerate() {
                    mirror.displace_fraction(bi, displaced_fraction);
                    let (s, t) = mirror.demand_touch_range(bi, b.role.is_output(), true);
                    conflict_stall += s;
                    conflict_transfer += t;
                }
            }
        }

        let style = mode.kernel_style(k.standard_style());
        let r = executor.execute(*k, style, &env);
        kernel += r.time * k.invocations().max(1);

        let mut stall = conflict_stall;
        memcpy += conflict_transfer;

        let mut sequenced = false;
        for inv in 0..k.invocations().min(MAX_SEQUENCED_ROUNDS) {
            let chunk_size = mirror.chunk_size;
            let mut seq = mirror.touch_sequence();
            let round = program.for_each_page_touch(ki, inv, chunk_size, &mut |t| {
                let b = &buffers[t.buffer];
                if matches!(b.role, BufferRole::Scratch) {
                    return;
                }
                let nchunks = b.bytes.div_ceil(chunk_size).max(1);
                seq.touch(MirrorTouch {
                    buffer: t.buffer,
                    chunk: t.chunk % nchunks,
                    write: t.write,
                    host_backed: b.role.is_input(),
                });
            });
            if !round {
                break;
            }
            sequenced = true;
            let (s, t) = seq.finish();
            stall += s;
            memcpy += t;
        }
        if !sequenced {
            for (bi, b) in buffers.iter().enumerate() {
                if matches!(b.role, BufferRole::Scratch) {
                    continue;
                }
                let (s, t) = mirror.demand_touch_range(bi, b.role.is_output(), b.role.is_input());
                stall += s;
                memcpy += t;
            }
        }
        let exposed = stall.scale(1.0 / device.fault_stall_overlap);
        kernel += exposed;
        stall_exposed += exposed;
    }

    for (bi, b) in buffers.iter().enumerate() {
        if b.role.is_output() {
            let path = if mode.uses_prefetch() {
                LinkPath::BulkPrefetch
            } else {
                LinkPath::DemandMigration
            };
            memcpy += mirror.writeback_dirty(bi, path);
        }
    }

    let demand_fraction = mirror.demand_fraction();
    UvmOutcome {
        memcpy,
        kernel,
        stall_exposed,
        coverage,
        demand_fraction,
        fills: std::mem::take(&mut mirror.fills),
    }
}

// ---------------------------------------------------------------------------
// The advisor entry point.
// ---------------------------------------------------------------------------

/// Runs the static performance analysis for `program` on `device`,
/// predicting all five transfer modes and emitting advisory `SAN-P*`
/// lints.
///
/// # Panics
///
/// Panics if the program has no kernels (the runtime rejects those before
/// any mode comparison is meaningful).
pub fn advise(program: &dyn GpuProgram, device: &Device, config: &PerfConfig) -> ModeAdvice {
    let buffers = program.buffers();
    let kernels = program.kernels();
    assert!(
        !kernels.is_empty(),
        "program `{}` has no kernels",
        program.name()
    );
    let executor = KernelExecutor::new(device.gpu.clone());

    // Shared allocation model: every mode allocates and frees each buffer.
    let alloc_for = |managed: bool| -> Nanos {
        buffers
            .iter()
            .map(|b| device.alloc.alloc_and_free(b.bytes, managed))
            .sum()
    };

    let mut predictions: Vec<ModePrediction> = Vec::with_capacity(TransferMode::ALL.len());
    let mut dataflow_fills: Vec<u64> = Vec::new();
    let mut overlap = None;

    for mode in TransferMode::ALL {
        let alloc_base = alloc_for(mode.uses_uvm());
        let (alloc, memcpy, kernel, fault_stall, rationale) = if mode.uses_uvm() {
            let out = predict_uvm(program, device, &executor, mode, &buffers);
            if mode == TransferMode::Uvm {
                dataflow_fills = out.fills.clone();
            }
            let teardown = device
                .alloc
                .managed_teardown(program.footprint(), out.demand_fraction);
            let rationale = if mode.uses_prefetch() {
                format!(
                    "prefetch covers {:.0}% of input chunks; {:.2} ms migration, {:.2} ms fault stall exposed",
                    out.coverage * 100.0,
                    ms(out.memcpy),
                    ms(out.stall_exposed),
                )
            } else {
                format!(
                    "demand paging migrates on touch: {:.2} ms transfer, {:.2} ms fault stall exposed",
                    ms(out.memcpy),
                    ms(out.stall_exposed),
                )
            };
            (
                alloc_base + teardown,
                out.memcpy,
                out.kernel,
                out.stall_exposed,
                rationale,
            )
        } else {
            let (memcpy, kernel) = predict_explicit(program, device, &executor, mode, &buffers);
            if mode == TransferMode::Standard {
                overlap = Some((memcpy, kernel));
            }
            let rationale = if mode.uses_async_copy() {
                format!(
                    "explicit pageable copies {:.2} ms; cp.async staged kernels {:.2} ms",
                    ms(memcpy),
                    ms(kernel),
                )
            } else {
                format!(
                    "explicit pageable copies {:.2} ms; kernels {:.2} ms",
                    ms(memcpy),
                    ms(kernel),
                )
            };
            (alloc_base, memcpy, kernel, Nanos::ZERO, rationale)
        };
        predictions.push(ModePrediction {
            mode,
            alloc,
            memcpy,
            kernel,
            fault_stall,
            rationale,
        });
    }

    // ---- analyses ----
    let (copy_time, standard_kernel) = overlap.expect("standard mode predicted");
    let async_kernel = predictions
        .iter()
        .find(|p| p.mode == TransferMode::Async)
        .map(|p| p.kernel)
        .expect("async mode predicted");
    let copy_bytes: u64 = buffers
        .iter()
        .map(|b| {
            let mut n = 0;
            if b.role.is_input() {
                n += b.bytes;
            }
            if b.role.is_output() {
                n += b.bytes;
            }
            n
        })
        .sum();
    let hidable_fraction = if copy_time.is_zero() {
        1.0
    } else {
        (standard_kernel.as_nanos() as f64 / copy_time.as_nanos() as f64).min(1.0)
    };
    let async_gain = if standard_kernel.is_zero() {
        0.0
    } else {
        1.0 - async_kernel.as_nanos() as f64 / standard_kernel.as_nanos() as f64
    };
    let overlap = OverlapAnalysis {
        copy_bytes,
        copy_time,
        standard_kernel,
        async_kernel,
        hidable_fraction,
        async_gain,
    };

    let dataflow = analyze_dataflow(program, device, &buffers, &dataflow_fills);

    let staging_bytes: u64 = buffers
        .iter()
        .filter(|b| b.role.is_input())
        .map(|b| b.bytes)
        .sum();
    let footprint = program.footprint();
    let device_capacity = device.uvm.device_capacity;
    let budget = BudgetCheck {
        staging_bytes,
        pinned_budget: config.pinned_budget,
        footprint,
        device_capacity,
        oversubscription: footprint as f64 / device_capacity.max(1) as f64,
        within_budget: staging_bytes <= config.pinned_budget,
    };

    // ---- ranking ----
    predictions.sort_by_key(|p| p.total().as_nanos());
    let best_total = predictions[0].total();

    // ---- advisory lints, gated on "materially slower than the best" ----
    let mut report = Report::new();
    let threshold = best_total.scale(config.lint_ratio).max(best_total);
    for p in &predictions {
        if p.total() <= threshold {
            continue;
        }
        let workload = program.name().to_string();
        if p.mode.uses_uvm() {
            let compute = p.kernel.saturating_sub(p.fault_stall);
            if p.fault_stall > compute {
                report.push(Diagnostic::new(
                    Lint::UvmFaultDominated,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "`{}` would spend {:.2} ms in exposed fault stalls vs {:.2} ms compute (touch density {:.1}); kernels are fault-dominated",
                        p.mode.name(),
                        ms(p.fault_stall),
                        ms(compute),
                        dataflow.touch_density,
                    ),
                    format!(
                        "prefer `{}` — explicit transfers avoid demand paging entirely",
                        predictions[0].mode.name()
                    ),
                ));
            }
            if footprint > device_capacity {
                report.push(Diagnostic::new(
                    Lint::ThrashPredicted,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "footprint {} GiB exceeds the {} GiB HBM carveout: thrash predicted at {:.0}% of the working set under `{}`",
                        footprint >> 30,
                        device_capacity >> 30,
                        dataflow.thrash_fraction * 100.0,
                        p.mode.name(),
                    ),
                    "shrink the working set below the carveout or stream it with explicit copies".to_string(),
                ));
            }
        }
        if p.mode.uses_async_copy() {
            if overlap.async_gain <= 0.0 {
                report.push(Diagnostic::new(
                    Lint::AsyncZeroSlack,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "`{}` has zero overlap slack: cp.async staging does not speed kernels up ({:.2} ms vs {:.2} ms standard)",
                        p.mode.name(),
                        ms(overlap.async_kernel),
                        ms(overlap.standard_kernel),
                    ),
                    "keep the kernels' standard style; async staging only pays when fetch overlaps compute".to_string(),
                ));
            }
            if staging_bytes > config.pinned_budget {
                report.push(Diagnostic::new(
                    Lint::PinnedBudgetExceeded,
                    workload.clone(),
                    Span::Workload,
                    format!(
                        "`{}` would stage {} MiB through pinned host memory, over the {} MiB budget",
                        p.mode.name(),
                        staging_bytes >> 20,
                        config.pinned_budget >> 20,
                    ),
                    "raise the pinned budget or fall back to pageable staging".to_string(),
                ));
            }
        }
    }

    ModeAdvice {
        workload: program.name().to_string(),
        device: device.name,
        ranked: predictions,
        overlap,
        dataflow,
        budget,
        report,
    }
}

/// Computes the touch-sequence dataflow statistics.
fn analyze_dataflow(
    program: &dyn GpuProgram,
    device: &Device,
    buffers: &[BufferSpec],
    fills: &[u64],
) -> DataflowAnalysis {
    use std::collections::HashMap;
    let chunk_size = device.uvm.chunk_size;
    let footprint_chunks: u64 = buffers
        .iter()
        .filter(|b| !matches!(b.role, BufferRole::Scratch))
        .map(|b| b.bytes.div_ceil(chunk_size).max(1))
        .sum();

    let mut sequenced = false;
    let mut total_touches = 0u64;
    let mut last_seen: HashMap<(usize, u64), u64> = HashMap::new();
    let mut reuse_sum = 0u64;
    let mut reuse_count = 0u64;
    let mut position = 0u64;
    for (ki, k) in program.kernels().iter().enumerate() {
        for inv in 0..k.invocations().min(MAX_SEQUENCED_ROUNDS) {
            let round = program.for_each_page_touch(ki, inv, chunk_size, &mut |t| {
                let Some(b) = buffers.get(t.buffer) else {
                    return;
                };
                if matches!(b.role, BufferRole::Scratch) {
                    return;
                }
                let nchunks = b.bytes.div_ceil(chunk_size).max(1);
                let key = (t.buffer, t.chunk % nchunks);
                total_touches += 1;
                if let Some(&prev) = last_seen.get(&key) {
                    reuse_sum += position - prev;
                    reuse_count += 1;
                }
                last_seen.insert(key, position);
                position += 1;
            });
            if !round {
                break;
            }
            sequenced = true;
        }
    }
    let distinct_chunks = last_seen.len() as u64;
    let footprint = program.footprint();
    let capacity = device.uvm.device_capacity;
    let thrash_fraction = if footprint > capacity && footprint > 0 {
        1.0 - capacity as f64 / footprint as f64
    } else {
        0.0
    };
    let mean_batch_fill = if fills.is_empty() {
        0.0
    } else {
        fills.iter().sum::<u64>() as f64 / fills.len() as f64
    };
    DataflowAnalysis {
        sequenced,
        total_touches,
        distinct_chunks,
        footprint_chunks,
        touch_density: if sequenced {
            total_touches as f64 / footprint_chunks.max(1) as f64
        } else {
            1.0
        },
        mean_reuse_distance: if reuse_count == 0 {
            0.0
        } else {
            reuse_sum as f64 / reuse_count as f64
        },
        mean_batch_fill,
        oversubscription: footprint as f64 / capacity.max(1) as f64,
        thrash_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_gpu::kernel::{KernelModel, KernelStyle, LaunchConfig, TileOps};
    use hetsim_mem::addr::MemAccess;
    use hetsim_runtime::program::PageTouch;
    use hetsim_runtime::Runner;
    use hetsim_uvm::prefetch::Regularity;

    struct TestKernel {
        name: &'static str,
        style: KernelStyle,
        regularity: Regularity,
        invocations: u64,
    }

    impl Default for TestKernel {
        fn default() -> Self {
            TestKernel {
                name: "k",
                style: KernelStyle::Direct,
                regularity: Regularity::Regular,
                invocations: 1,
            }
        }
    }

    impl KernelModel for TestKernel {
        fn name(&self) -> &str {
            self.name
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(64, 128, 0)
        }
        fn tiles_per_block(&self) -> u64 {
            1
        }
        fn stream_accesses(&self, _block: u64, _tile: u64, out: &mut Vec<MemAccess>) {
            out.push(MemAccess::global_load(0));
        }
        fn local_accesses(&self, _block: u64, _tile: u64, out: &mut Vec<MemAccess>) {
            out.push(MemAccess::global_store(1 << 30));
        }
        fn tile_ops(&self) -> TileOps {
            TileOps::new(16.0, 16.0, 4.0)
        }
        fn regularity(&self) -> Regularity {
            self.regularity
        }
        fn standard_style(&self) -> KernelStyle {
            self.style
        }
        fn invocations(&self) -> u64 {
            self.invocations
        }
    }

    /// Synthetic program: scriptable buffers, kernels, and per-invocation
    /// touch sequences.
    struct TestProgram {
        buffers: Vec<BufferSpec>,
        kernels: Vec<TestKernel>,
        /// Touch sequence replayed on every invocation of every kernel
        /// when set.
        touches: Option<Vec<PageTouch>>,
        conflict: f64,
    }

    impl TestProgram {
        fn new(buffers: Vec<BufferSpec>) -> Self {
            TestProgram {
                buffers,
                kernels: vec![TestKernel::default()],
                touches: None,
                conflict: 1.0,
            }
        }
    }

    impl GpuProgram for TestProgram {
        fn name(&self) -> &str {
            "perf-test"
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            self.buffers.clone()
        }
        fn kernels(&self) -> Vec<&dyn KernelModel> {
            self.kernels.iter().map(|k| k as &dyn KernelModel).collect()
        }
        fn prefetch_conflict(&self) -> f64 {
            self.conflict
        }
        fn for_each_page_touch(
            &self,
            _kernel: usize,
            _invocation: u64,
            _chunk_size: u64,
            sink: &mut dyn FnMut(PageTouch),
        ) -> bool {
            self.touches.iter().flatten().for_each(|&t| sink(t));
            self.touches.is_some()
        }
    }

    fn buf(name: &str, chunks: u64, role: BufferRole) -> BufferSpec {
        BufferSpec::new(name, chunks * hetsim_uvm::page::CHUNK_SIZE, role)
    }

    /// Asserts the advisor's per-mode breakdown equals the simulator's
    /// noise-free base run to the nanosecond, for every mode.
    fn assert_matches_runner(p: &TestProgram) {
        let device = Device::a100_epyc();
        let runner = Runner::new(device.clone());
        let advice = advise(p, &device, &PerfConfig::default());
        for mode in TransferMode::ALL {
            let predicted = advice
                .ranked
                .iter()
                .find(|r| r.mode == mode)
                .expect("all modes ranked");
            let measured = runner.run_base(p, mode);
            assert_eq!(predicted.alloc, measured.alloc, "alloc mismatch for {mode}");
            assert_eq!(
                predicted.memcpy, measured.memcpy,
                "memcpy mismatch for {mode}"
            );
            assert_eq!(
                predicted.kernel, measured.kernel,
                "kernel mismatch for {mode}"
            );
        }
    }

    #[test]
    fn matches_runner_range_walk() {
        // No touch model: the runtime's blanket range-walk fallback.
        let p = TestProgram::new(vec![
            buf("in", 64, BufferRole::Input),
            buf("out", 32, BufferRole::Output),
            buf("tmp", 8, BufferRole::Scratch),
        ]);
        assert_matches_runner(&p);
    }

    #[test]
    fn matches_runner_sequenced() {
        // Strided revisiting sequence exercising FaultBatcher speculation.
        let mut p = TestProgram::new(vec![
            buf("in", 48, BufferRole::Input),
            buf("out", 16, BufferRole::InOut),
        ]);
        let mut touches = Vec::new();
        for i in 0..96u64 {
            touches.push(PageTouch {
                buffer: (i % 2) as usize,
                chunk: (i * 7) % 48,
                write: i % 3 == 0,
            });
        }
        p.touches = Some(touches);
        p.kernels[0].regularity = Regularity::Irregular;
        p.kernels[0].invocations = 3;
        assert_matches_runner(&p);
    }

    #[test]
    fn matches_runner_prefetch_conflict() {
        // Two kernels with a prefetch conflict triggers the displacement/
        // refault rounds on the second kernel under prefetch modes.
        let mut p = TestProgram::new(vec![
            buf("in", 40, BufferRole::Input),
            buf("out", 24, BufferRole::Output),
        ]);
        p.kernels.push(TestKernel {
            name: "k2",
            invocations: 2,
            ..TestKernel::default()
        });
        p.conflict = 0.6;
        assert_matches_runner(&p);
    }

    #[test]
    fn matches_runner_async_styles() {
        let mut p = TestProgram::new(vec![
            buf("in", 16, BufferRole::Input),
            buf("out", 16, BufferRole::Output),
        ]);
        p.kernels[0].style = KernelStyle::StagedAsync;
        assert_matches_runner(&p);
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let p = TestProgram::new(vec![
            buf("in", 16, BufferRole::Input),
            buf("out", 8, BufferRole::Output),
        ]);
        let advice = advise(&p, &Device::a100_epyc(), &PerfConfig::default());
        assert_eq!(advice.ranked.len(), TransferMode::ALL.len());
        for pair in advice.ranked.windows(2) {
            assert!(pair[0].total() <= pair[1].total());
        }
        assert_eq!(advice.best().mode, advice.ranked[0].mode);
    }

    #[test]
    fn pinned_budget_lint_fires() {
        let p = TestProgram::new(vec![
            buf("in", 64, BufferRole::Input),
            buf("out", 8, BufferRole::Output),
        ]);
        let config = PerfConfig {
            pinned_budget: 1,
            lint_ratio: 1.0,
        };
        let advice = advise(&p, &Device::a100_epyc(), &config);
        assert!(!advice.budget.within_budget);
        let codes: Vec<_> = advice.report.diagnostics.iter().map(|d| d.code()).collect();
        assert!(
            codes.contains(&"SAN-P004"),
            "expected SAN-P004 in {codes:?}"
        );
    }

    #[test]
    fn no_lints_on_top_ranked_mode() {
        // Whatever fires, it must never target the advisor's own pick.
        let mut p = TestProgram::new(vec![
            buf("in", 64, BufferRole::Input),
            buf("out", 32, BufferRole::Output),
        ]);
        p.kernels[0].regularity = Regularity::Irregular;
        let advice = advise(&p, &Device::a100_epyc(), &PerfConfig::default());
        let best = advice.best().mode.name();
        for d in &advice.report.diagnostics {
            assert!(
                !d.message.contains(&format!("`{best}`")),
                "lint targets the best mode: {}",
                d.message
            );
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let p = TestProgram::new(vec![
            buf("in", 4, BufferRole::Input),
            buf("out", 4, BufferRole::Output),
        ]);
        let advice = advise(&p, &Device::a100_epyc(), &PerfConfig::default());
        let json = advice.to_json();
        for key in [
            "\"workload\"",
            "\"device\"",
            "\"best\"",
            "\"ranked\"",
            "\"overlap\"",
            "\"dataflow\"",
            "\"budget\"",
            "\"report\"",
            "\"hidable_fraction\"",
            "\"touch_density\"",
            "\"within_budget\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json, advice.to_json(), "non-deterministic JSON");
    }
}
