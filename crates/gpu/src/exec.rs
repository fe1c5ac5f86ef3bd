//! The sampled-block kernel executor.
//!
//! [`KernelExecutor::execute`] runs a [`KernelModel`] under a
//! [`KernelStyle`], replaying a sample of the grid's blocks through real
//! L1/L2 cache models and extrapolating to the full grid. The result
//! separates the quantities the paper's analysis needs: kernel time, dynamic
//! instruction mix (Fig 9), L1/L2 hit-miss counters (Fig 10), and the HBM
//! traffic split by path (which determines achieved bandwidth).
//!
//! # Timing model
//!
//! Per block, three pipes are costed in SM cycles:
//!
//! * **fetch** — the streaming input path. Direct and staged-sync kernels
//!   pay the L1 port plus the L2/HBM port for misses, inflated by the
//!   register-file pressure factor and by latency exposure when too few
//!   warps are resident. `cp.async` fetches skip the L1 and the register
//!   file.
//! * **execute** — arithmetic (by per-class throughput), shared-memory
//!   traffic, re-referenced global accesses, and output stores.
//! * **overlap** — the style decides: direct kernels overlap across warps
//!   (`max`), staged-sync kernels serialize phase remainders behind
//!   barriers, staged-async kernels overlap fully and pay control
//!   instructions instead.
//!
//! Device-wide, kernels cannot beat HBM: total traffic divided by the
//! achieved bandwidth of each path bounds the kernel from below.
//!
//! # Replay and costing
//!
//! An execution has two steps.
//!
//! * **Replay** depends only on the kernel and the style: the sampled
//!   blocks go through the L1/L2 models, leaving per-block pipe traffic,
//!   the instruction mix and the cache counters. Every global access also
//!   walks a TLB of each of the device's two UVM geometries
//!   ([`GpuConfig::uvm_tlb`] and [`GpuConfig::uvm_tlb_coalesced`]), cold
//!   at the start of each sampled block, and the replay keeps each
//!   block's misses under both.
//! * **Costing** does the rest: page-walk cycles from the misses of the
//!   environment's TLB geometry, tile extrapolation, the environment's L2
//!   warming and the pipe model above. It also emits the `gpu.blocks` and
//!   `gpu.pipeline` trace spans. Costing generates no accesses.
//!
//! The transfer mode changes how a replay is costed, never what the caches
//! see, so an executor keeps the replays it has run and reuses them:
//! `standard`, `uvm` and `uvm_prefetch` share the standard style's replay,
//! and `async` and `uvm_prefetch_async` share the `cp.async` one. A replay
//! is keyed by [`KernelModel::replay_key`] (the access stream by content),
//! the style, the sampled block and tile counts, and the L1 and L2
//! geometry. Kernels without a key replay on every call. The memo lives in
//! the executor and its clones, so a fresh executor starts cold.
//!
//! A replay's L1 and L2 models outlive it: each thread keeps the last
//! pair, emptied by [`Cache::reset`] before the next replay, so a replay
//! allocates no cache rows once the thread has replayed a kernel that
//! touches as many sets. A change of geometry (the L1 follows the
//! carveout) builds the changed cache afresh. A caller about to build
//! large state of its own gives the pair back with
//! [`release_replay_caches`].

use crate::config::{GpuConfig, UvmTlb};
use crate::kernel::{KernelModel, KernelStyle};
use hetsim_counters::{CacheCounters, InstClass, InstructionMix, Occupancy};
use hetsim_engine::time::Nanos;
use hetsim_mem::addr::{AccessKind, MemAccess, MemSpace};
use hetsim_mem::cache::{Cache, CacheConfig};
use hetsim_mem::tlb::Tlb;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Environment adjustments imposed by the memory-management mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecEnv {
    /// Multiplier (≥ 1) on memory-pipe cycles for UVM address translation
    /// overhead (driver-side fault filtering, page-table locks).
    pub translation_penalty: f64,
    /// Fraction of streaming HBM read traffic served from a prefetch-warmed
    /// L2 instead (UVM prefetch streams chunks into L2 just ahead of use).
    pub l2_warm_fraction: f64,
    /// When set, the kernel's global accesses translate through this one
    /// of the device's UVM TLB geometries and misses charge page-walk
    /// cycles — the mechanistic part of UVM translation cost. `None` for
    /// unmanaged memory (the GPU's native large mappings effectively never
    /// miss).
    pub tlb: Option<UvmTlb>,
}

impl ExecEnv {
    /// No UVM in play: explicit copies, cold L2.
    pub fn standard() -> Self {
        ExecEnv {
            translation_penalty: 1.0,
            l2_warm_fraction: 0.0,
            tlb: None,
        }
    }

    /// Creates an environment, validating ranges.
    ///
    /// # Panics
    ///
    /// Panics if `translation_penalty < 1` or `l2_warm_fraction` is outside
    /// `[0, 1]`.
    pub fn new(translation_penalty: f64, l2_warm_fraction: f64) -> Self {
        assert!(translation_penalty >= 1.0, "translation penalty below 1");
        assert!(
            (0.0..=1.0).contains(&l2_warm_fraction),
            "l2 warm fraction out of [0,1]"
        );
        ExecEnv {
            translation_penalty,
            l2_warm_fraction,
            tlb: None,
        }
    }

    /// Translates through the device's `tlb` geometry (managed-memory
    /// runs).
    pub fn with_tlb(mut self, tlb: UvmTlb) -> Self {
        self.tlb = Some(tlb);
        self
    }
}

impl Default for ExecEnv {
    fn default() -> Self {
        ExecEnv::standard()
    }
}

/// The outcome of executing one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel wall time (excluding UVM fault stalls, which the runtime adds
    /// on top — they are a property of the memory mode, not the kernel).
    pub time: Nanos,
    /// Kernel time in SM cycles.
    pub cycles: f64,
    /// Extrapolated dynamic instruction mix.
    pub inst: InstructionMix,
    /// L1 hit/miss counters over the sampled blocks.
    pub l1: CacheCounters,
    /// L2 hit/miss counters over the sampled blocks.
    pub l2: CacheCounters,
    /// Extrapolated HBM read traffic, bytes.
    pub hbm_load_bytes: u64,
    /// Extrapolated HBM write traffic, bytes.
    pub hbm_store_bytes: u64,
    /// Extrapolated TLB misses (zero when no TLB was modelled).
    pub tlb_misses: u64,
    /// Launch-configuration occupancy bound.
    pub theoretical_occupancy: f64,
}

/// Executes kernels on a GPU configuration by sampling blocks.
///
/// Clones share the replay memo (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct KernelExecutor {
    config: GpuConfig,
    sample_blocks: u64,
    max_sampled_tiles: u64,
    replays: Arc<ReplayMemo>,
}

#[derive(Debug, Default, Clone, Copy)]
struct BlockAccum {
    // fetch pipe
    stream_l1_accesses: f64,
    stream_l2_bytes: f64,
    stream_hbm_bytes: f64,
    // execute pipe
    local_l1_accesses: f64,
    local_l2_bytes: f64,
    local_hbm_load_bytes: f64,
    hbm_store_bytes: f64,
    shared_bytes: f64,
    // translation
    tlb_walk_cycles: f64,
    tlb_misses: f64,
    // ops
    fp: f64,
    int: f64,
    control: f64,
}

/// What replaying a kernel's sampled blocks through the L1/L2 yields:
/// everything that depends on the kernel and style, nothing that depends
/// on the environment.
#[derive(Debug)]
struct Replay {
    /// Per sampled block, before translation, tile extrapolation and L2
    /// warming.
    blocks: Vec<BlockAccum>,
    /// Per sampled block, the TLB misses of its sampled tiles under each
    /// UVM geometry, indexed by [`UvmTlb`].
    tlb_misses: Vec<[u64; 2]>,
    /// Instructions of the sampled tiles, unscaled.
    inst: InstructionMix,
    l1: CacheCounters,
    l2: CacheCounters,
}

/// How a kernel was replayed: the style, the sampling width and the cache
/// geometry. With the kernel's [`KernelModel::replay_key`] it identifies a
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Variant {
    style: KernelStyle,
    sample_blocks: u64,
    sampled_tiles: u64,
    l1: CacheConfig,
    l2: CacheConfig,
}

/// Replays already run by an executor and its clones, by kernel key and
/// then by variant, so each key is stored once.
#[derive(Default)]
struct ReplayMemo(Mutex<Replays>);

type Replays = HashMap<Box<str>, Vec<(Variant, Arc<Replay>)>>;

impl ReplayMemo {
    fn get(&self, kernel: &str, variant: &Variant) -> Option<Arc<Replay>> {
        let memo = self.lock();
        let (_, replay) = memo.get(kernel)?.iter().find(|(v, _)| v == variant)?;
        Some(replay.clone())
    }

    /// Stores `replay` unless a concurrent caller got there first; either
    /// way the two are equal, as replays are deterministic.
    fn insert(&self, kernel: String, variant: Variant, replay: Replay) -> Arc<Replay> {
        let mut memo = self.lock();
        let variants = memo.entry(kernel.into_boxed_str()).or_default();
        if let Some((_, done)) = variants.iter().find(|(v, _)| *v == variant) {
            return done.clone();
        }
        let replay = Arc::new(replay);
        variants.push((variant, replay.clone()));
        replay
    }

    /// Replays are simulated outside the lock and each update under it is
    /// one insertion, so a poisoned map is still a valid one.
    fn lock(&self) -> MutexGuard<'_, Replays> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for ReplayMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayMemo")
            .field("kernels", &self.lock().len())
            .finish()
    }
}

thread_local! {
    /// The L1 and L2 of this thread's last replay, kept for the next one.
    static KEPT_CACHES: Cell<Option<(Cache, Cache)>> = const { Cell::new(None) };
}

/// Drops the L1 and L2 models this thread keeps between replays (see the
/// [module docs](self)); the thread's next replay builds new ones.
///
/// A caller that is about to build large state of its own releases them
/// first, so the kept rows (up to a few MB for the A100's L2) never sit
/// beside it.
pub fn release_replay_caches() {
    KEPT_CACHES.set(None);
}

/// This thread's kept caches, emptied, where their geometry is still `l1`
/// and `l2`; new caches where it is not.
fn take_caches(l1: CacheConfig, l2: CacheConfig) -> (Cache, Cache) {
    let reuse = |kept: Option<Cache>, config: CacheConfig| match kept {
        Some(mut cache) if cache.config() == config => {
            cache.reset();
            cache
        }
        _ => Cache::new(config),
    };
    let (kept_l1, kept_l2) = KEPT_CACHES.take().unzip();
    (reuse(kept_l1, l1), reuse(kept_l2, l2))
}

/// The caches, TLBs, instruction mix and current block of one replay.
struct Replayer {
    l1: Cache,
    l2: Cache,
    /// One TLB per UVM geometry, indexed by [`UvmTlb`].
    tlbs: [Tlb; 2],
    inst: InstructionMix,
    acc: BlockAccum,
    line: f64,
}

/// Launch-derived quantities shared by the replay and its costing.
struct Sampling {
    grid: u64,
    samples: u64,
    tiles: u64,
    sampled_tiles: u64,
}

impl Sampling {
    /// The grid block the `s`-th sample stands for: samples spread across
    /// the grid.
    fn block(&self, s: u64) -> u64 {
        s * self.grid / self.samples
    }
}

impl KernelExecutor {
    /// Creates an executor with the default sampling width (6 blocks,
    /// up to 96 tiles per block).
    pub fn new(config: GpuConfig) -> Self {
        KernelExecutor {
            config,
            sample_blocks: 6,
            max_sampled_tiles: 96,
            replays: Arc::default(),
        }
    }

    /// Overrides the number of sampled blocks (ablation: sampling error).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_sample_blocks(mut self, n: u64) -> Self {
        assert!(n > 0, "must sample at least one block");
        self.sample_blocks = n;
        self
    }

    /// Overrides how many tiles per block are replayed before
    /// extrapolating (ablation: sampling error).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_max_sampled_tiles(mut self, n: u64) -> Self {
        assert!(n > 0, "must sample at least one tile");
        self.max_sampled_tiles = n;
        self
    }

    /// The GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Executes `kernel` under `style` in environment `env`.
    pub fn execute(
        &self,
        kernel: &dyn KernelModel,
        style: KernelStyle,
        env: &ExecEnv,
    ) -> KernelResult {
        let launch = kernel.launch();
        let tiles = kernel.tiles_per_block().max(1);
        let sampling = Sampling {
            grid: launch.grid_blocks,
            samples: self.sample_blocks.min(launch.grid_blocks),
            tiles,
            sampled_tiles: tiles.min(self.max_sampled_tiles),
        };
        let replay = self.replay(kernel, style, &sampling);
        self.cost(kernel, style, env, &sampling, &replay)
    }

    /// The replay of `kernel` under `style`, from the memo when the kernel
    /// names its access stream and the memo has it.
    fn replay(
        &self,
        kernel: &dyn KernelModel,
        style: KernelStyle,
        sampling: &Sampling,
    ) -> Arc<Replay> {
        let Some(id) = kernel.replay_key() else {
            return Arc::new(self.simulate(kernel, style, sampling));
        };
        let variant = Variant {
            style,
            sample_blocks: sampling.samples,
            sampled_tiles: sampling.sampled_tiles,
            l1: self.config.l1_config(),
            l2: self.config.l2,
        };
        if let Some(replay) = self.replays.get(&id, &variant) {
            return replay;
        }
        let replay = self.simulate(kernel, style, sampling);
        self.replays.insert(id, variant, replay)
    }

    /// Replays the sampled blocks of `kernel` through the L1 and L2 and
    /// both UVM TLBs.
    fn simulate(
        &self,
        kernel: &dyn KernelModel,
        style: KernelStyle,
        sampling: &Sampling,
    ) -> Replay {
        let cfg = &self.config;
        let threads = kernel.launch().threads_per_block as f64;
        let mut blocks = Vec::with_capacity(sampling.samples as usize);
        let mut tlb_misses = Vec::with_capacity(sampling.samples as usize);
        let (l1, l2) = take_caches(cfg.l1_config(), cfg.l2);
        let mut r = Replayer {
            l1,
            l2,
            tlbs: UvmTlb::ALL.map(|tlb| Tlb::new(cfg.tlb(tlb))),
            inst: InstructionMix::new(),
            acc: BlockAccum::default(),
            line: cfg.l1_line as f64,
        };
        let mut stream_buf = Vec::new();
        let mut local_buf = Vec::new();

        for s in 0..sampling.samples {
            let block = sampling.block(s);
            r.acc = BlockAccum::default();
            // Each sampled block starts with a cold L1 (a fresh block on an
            // SM inherits little) and cold TLBs, but shares the device-wide
            // L2.
            r.l1.flush();
            for tlb in &mut r.tlbs {
                tlb.reset();
            }

            for tile in 0..sampling.sampled_tiles {
                stream_buf.clear();
                local_buf.clear();
                if style.is_staged() {
                    kernel.staged_stream_accesses(block, tile, &mut stream_buf);
                } else {
                    kernel.stream_accesses(block, tile, &mut stream_buf);
                }
                kernel.local_accesses(block, tile, &mut local_buf);
                for a in &stream_buf {
                    r.stream(a, style);
                }
                for a in &local_buf {
                    r.local(a, style);
                }

                let ops = kernel.tile_ops();
                r.acc.fp += ops.fp;
                r.acc.int += ops.int;
                r.acc.control += ops.control;
                r.inst.record(InstClass::Fp, ops.fp.round() as u64);
                r.inst.record(InstClass::Int, ops.int.round() as u64);
                r.inst
                    .record(InstClass::Control, ops.control.round() as u64);

                if style == KernelStyle::StagedAsync {
                    let extra_ctrl = cfg.async_ctrl_per_thread_tile * threads;
                    let extra_int = cfg.async_int_per_thread_tile * threads;
                    r.acc.control += extra_ctrl;
                    r.acc.int += extra_int;
                    r.inst.record(InstClass::Control, extra_ctrl.round() as u64);
                    r.inst.record(InstClass::Int, extra_int.round() as u64);
                }
            }
            blocks.push(r.acc);
            tlb_misses.push(r.tlbs.each_ref().map(Tlb::misses));
        }

        let replay = Replay {
            blocks,
            tlb_misses,
            inst: r.inst,
            l1: r.l1.counters(),
            l2: r.l2.counters(),
        };
        KEPT_CACHES.set(Some((r.l1, r.l2)));
        replay
    }

    /// Costs a replay in environment `env`.
    fn cost(
        &self,
        kernel: &dyn KernelModel,
        style: KernelStyle,
        env: &ExecEnv,
        sampling: &Sampling,
        replay: &Replay,
    ) -> KernelResult {
        let cfg = &self.config;
        let launch = kernel.launch();
        let &Sampling {
            grid,
            samples,
            tiles,
            sampled_tiles,
        } = sampling;
        let line = cfg.l1_line as f64;
        let mut total = BlockAccum::default();
        let mut sum_block_cycles = 0.0;

        let resident = cfg.resident_blocks(launch.threads_per_block, launch.shared_bytes_per_block);
        let waves = grid.div_ceil(cfg.sm_count as u64);
        let resident_eff = (resident as u64).min(waves).max(1) as f64;
        let warps_per_block = launch.warps_per_block(cfg.warp_size) as f64;
        let active_warps = warps_per_block * resident_eff;
        let tile_scale = tiles as f64 / sampled_tiles as f64;
        let tlb = env.tlb.map(|tlb| (tlb as usize, cfg.tlb(tlb).walk_cycles));

        for ((s, raw), misses) in (0..samples).zip(&replay.blocks).zip(&replay.tlb_misses) {
            let block = sampling.block(s);
            let mut acc = *raw;

            if let Some((geometry, walk_cycles)) = tlb {
                let misses = misses[geometry];
                acc.tlb_walk_cycles = misses as f64 * walk_cycles;
                acc.tlb_misses = misses as f64;
            }

            // Extrapolate the sampled tiles to the block's full tile count.
            if tile_scale > 1.0 {
                acc.scale(tile_scale);
            }

            // A prefetch-warmed L2 absorbs part of the streaming read
            // traffic that would otherwise come from HBM.
            if env.l2_warm_fraction > 0.0 {
                let warm = acc.stream_hbm_bytes * env.l2_warm_fraction;
                acc.stream_hbm_bytes -= warm;
                acc.stream_l2_bytes += warm;
            }

            let block_cycles = self.block_cycles(&acc, style, env, tiles, active_warps, line);
            sum_block_cycles += block_cycles;
            if hetsim_trace::session::enabled() {
                let dur = cfg.clock.cycles_f64_to_nanos(block_cycles).as_nanos();
                hetsim_trace::session::with(|b| {
                    let track = b.track("gpu.blocks");
                    b.detail_span(
                        track,
                        hetsim_trace::Category::Tile,
                        format!("block{block}"),
                        dur,
                        Some(("cycles", block_cycles)),
                    );
                });
            }
            accumulate(&mut total, &acc);
        }

        // `total` already carries the tile extrapolation (the accumulators
        // were scaled per block); instructions were recorded per sampled
        // tile and need both factors.
        let scale = grid as f64 / samples as f64;
        let inst_scale = scale * tile_scale;
        let avg_block_cycles = sum_block_cycles / samples as f64;
        let active_sms = (cfg.sm_count as u64).min(grid) as f64;
        let per_sm_cycles = avg_block_cycles * grid as f64 / active_sms;

        // Device-wide HBM bound with per-path achieved bandwidth: the
        // style of the *streaming* path decides how efficiently the kernel
        // can drive DRAM.
        let stream_eff = match style {
            KernelStyle::StagedAsync => cfg.hbm_eff_async_load,
            KernelStyle::StagedSync => cfg.hbm_eff_sync_load,
            KernelStyle::Direct => cfg.hbm_eff_direct_load,
        };
        let hbm_bpc = cfg.hbm_bytes_per_cycle_device();
        let device_cycles = scale
            * (total.stream_hbm_bytes / stream_eff
                + total.local_hbm_load_bytes / cfg.hbm_eff_direct_load
                + total.hbm_store_bytes / cfg.hbm_eff_store)
            / hbm_bpc
            * env.translation_penalty;

        let cycles = per_sm_cycles.max(device_cycles);
        let theoretical = Occupancy::theoretical_from_limits(
            launch.threads_per_block,
            launch.shared_bytes_per_block,
            cfg.warp_size,
            cfg.max_warps_per_sm,
            cfg.max_threads_per_sm,
            cfg.max_blocks_per_sm,
            cfg.carveout.shared_bytes(),
        );

        let (l1, l2) = (replay.l1, replay.l2);
        hetsim_trace::session::with(|b| {
            b.counter("gpu.l1_load_miss_rate", l1.load_miss_rate());
            b.counter("gpu.l2_load_miss_rate", l2.load_miss_rate());
            b.counter("gpu.theoretical_occupancy", theoretical);
            b.counter("gpu.tlb_misses", (scale * total.tlb_misses).round());
        });

        KernelResult {
            time: cfg.clock.cycles_f64_to_nanos(cycles),
            cycles,
            inst: replay.inst.scale(inst_scale),
            l1,
            l2,
            hbm_load_bytes: (scale * (total.stream_hbm_bytes + total.local_hbm_load_bytes)).round()
                as u64,
            hbm_store_bytes: (scale * total.hbm_store_bytes).round() as u64,
            tlb_misses: (scale * total.tlb_misses).round() as u64,
            theoretical_occupancy: theoretical,
        }
    }

    fn block_cycles(
        &self,
        acc: &BlockAccum,
        style: KernelStyle,
        env: &ExecEnv,
        tiles: u64,
        active_warps: f64,
        line: f64,
    ) -> f64 {
        let cfg = &self.config;

        // Fetch pipe.
        let fetch = match style {
            KernelStyle::StagedAsync => {
                let exposure = (cfg.warps_to_hide_latency_async / active_warps).max(1.0);
                (acc.stream_l2_bytes + acc.stream_hbm_bytes)
                    / cfg.l2_bytes_per_cycle
                    / cfg.async_bypass_efficiency
                    * exposure
                    * env.translation_penalty
            }
            _ => {
                let exposure = (cfg.warps_to_hide_latency / active_warps).max(1.0);
                (acc.stream_l1_accesses * (line / cfg.l1_bytes_per_cycle)
                    + (acc.stream_l2_bytes + acc.stream_hbm_bytes) / cfg.l2_bytes_per_cycle)
                    * cfg.rf_pressure_factor
                    * exposure
                    * env.translation_penalty
            }
        };

        // Execute pipe: arithmetic + shared traffic + local/global accesses.
        let exposure_local = (cfg.warps_to_hide_latency / active_warps).max(1.0);
        let local = (acc.local_l1_accesses * (line / cfg.l1_bytes_per_cycle)
            + (acc.local_l2_bytes + acc.local_hbm_load_bytes + acc.hbm_store_bytes)
                / cfg.l2_bytes_per_cycle)
            * exposure_local
            * env.translation_penalty;
        let mut compute = acc.fp / cfg.fp_per_cycle
            + acc.int / cfg.int_per_cycle
            + acc.control / cfg.control_per_cycle
            + acc.shared_bytes / cfg.l1_bytes_per_cycle
            + local;
        if style == KernelStyle::StagedSync {
            compute += tiles as f64 * cfg.sync_barrier_cycles;
        }

        if hetsim_trace::session::enabled() {
            // Expose the two pipes of the copy pipeline per sampled block:
            // how much of the fetch a style hides is the paper's async-copy
            // story, and it reads directly off these two span lengths.
            let fetch_name = match style {
                KernelStyle::StagedAsync => "cp.async_fetch",
                KernelStyle::StagedSync => "staged_fetch",
                KernelStyle::Direct => "fetch",
            };
            let fetch_ns = cfg.clock.cycles_f64_to_nanos(fetch).as_nanos();
            let compute_ns = cfg.clock.cycles_f64_to_nanos(compute).as_nanos();
            hetsim_trace::session::with(|b| {
                let track = b.track("gpu.pipeline");
                b.detail_span(
                    track,
                    hetsim_trace::Category::Tile,
                    fetch_name,
                    fetch_ns,
                    Some(("cycles", fetch)),
                );
                b.detail_span(
                    track,
                    hetsim_trace::Category::Tile,
                    "compute",
                    compute_ns,
                    Some(("cycles", compute)),
                );
            });
        }

        let base = match style {
            KernelStyle::Direct => fetch.max(compute),
            KernelStyle::StagedSync => {
                fetch.max(compute) + cfg.sync_serialization * fetch.min(compute)
            }
            KernelStyle::StagedAsync => {
                // Double-buffered pipeline: fill one tile, then overlap.
                fetch.max(compute) + fetch.min(compute) / tiles as f64
            }
        };
        // Page walks stall address issue; concurrent warps overlap most of
        // the latency, so the block pays the serialized residue.
        let walks = acc.tlb_walk_cycles / active_warps.max(1.0);
        base + walks + cfg.block_overhead_cycles
    }
}

impl Replayer {
    /// Translates one access through both TLBs. Every global access
    /// translates, cp.async included.
    fn translate(&mut self, a: &MemAccess) {
        if a.space == MemSpace::Global {
            for tlb in &mut self.tlbs {
                tlb.access(a.addr);
            }
        }
    }

    /// Fetches one line of the streaming input.
    fn stream(&mut self, a: &MemAccess, style: KernelStyle) {
        self.translate(a);
        let (acc, line) = (&mut self.acc, self.line);
        self.inst.record(InstClass::MemLoad, 1);
        match style {
            KernelStyle::StagedAsync => {
                // cp.async: bypass L1 and the register file entirely.
                if self.l2.access(a.addr, AccessKind::Load) {
                    acc.stream_l2_bytes += line;
                } else {
                    acc.stream_hbm_bytes += line;
                }
                // Data lands in shared memory and is read back by compute.
                acc.shared_bytes += 2.0 * line;
            }
            KernelStyle::StagedSync => {
                // ld.global -> register -> st.shared.
                if !self.l1.access(a.addr, AccessKind::Load) {
                    if self.l2.access(a.addr, AccessKind::Load) {
                        acc.stream_l2_bytes += line;
                    } else {
                        acc.stream_hbm_bytes += line;
                    }
                }
                acc.stream_l1_accesses += 1.0;
                acc.shared_bytes += 2.0 * line;
                self.inst.record(InstClass::MemStore, 1); // st.shared
            }
            KernelStyle::Direct => {
                if !self.l1.access(a.addr, AccessKind::Load) {
                    if self.l2.access(a.addr, AccessKind::Load) {
                        acc.stream_l2_bytes += line;
                    } else {
                        acc.stream_hbm_bytes += line;
                    }
                }
                acc.stream_l1_accesses += 1.0;
            }
        }
    }

    /// Performs one re-referenced access or output store.
    fn local(&mut self, a: &MemAccess, style: KernelStyle) {
        self.translate(a);
        let (acc, line) = (&mut self.acc, self.line);
        let staged = style.is_staged();
        match a.kind {
            AccessKind::Load => {
                self.inst.record(InstClass::MemLoad, 1);
                if staged || a.space == MemSpace::Shared {
                    // Re-referenced data was staged: serve from shared memory.
                    acc.shared_bytes += line;
                } else if !self.l1.access(a.addr, AccessKind::Load) {
                    if self.l2.access(a.addr, AccessKind::Load) {
                        acc.local_l2_bytes += line;
                    } else {
                        acc.local_hbm_load_bytes += line;
                    }
                    acc.local_l1_accesses += 1.0;
                } else {
                    acc.local_l1_accesses += 1.0;
                }
            }
            AccessKind::Store => {
                self.inst.record(InstClass::MemStore, 1);
                if a.space == MemSpace::Shared {
                    acc.shared_bytes += line;
                    return;
                }
                // Output stores always go to global memory.
                if !self.l1.access(a.addr, AccessKind::Store) {
                    if !self.l2.access(a.addr, AccessKind::Store) {
                        acc.hbm_store_bytes += line;
                    } else {
                        acc.local_l2_bytes += line;
                    }
                }
                acc.local_l1_accesses += 1.0;
            }
        }
    }
}

impl BlockAccum {
    fn scale(&mut self, f: f64) {
        self.tlb_walk_cycles *= f;
        self.tlb_misses *= f;
        self.stream_l1_accesses *= f;
        self.stream_l2_bytes *= f;
        self.stream_hbm_bytes *= f;
        self.local_l1_accesses *= f;
        self.local_l2_bytes *= f;
        self.local_hbm_load_bytes *= f;
        self.hbm_store_bytes *= f;
        self.shared_bytes *= f;
        self.fp *= f;
        self.int *= f;
        self.control *= f;
    }
}

fn accumulate(total: &mut BlockAccum, acc: &BlockAccum) {
    total.stream_l1_accesses += acc.stream_l1_accesses;
    total.stream_l2_bytes += acc.stream_l2_bytes;
    total.stream_hbm_bytes += acc.stream_hbm_bytes;
    total.local_l1_accesses += acc.local_l1_accesses;
    total.local_l2_bytes += acc.local_l2_bytes;
    total.local_hbm_load_bytes += acc.local_hbm_load_bytes;
    total.hbm_store_bytes += acc.hbm_store_bytes;
    total.shared_bytes += acc.shared_bytes;
    total.tlb_walk_cycles += acc.tlb_walk_cycles;
    total.tlb_misses += acc.tlb_misses;
    total.fp += acc.fp;
    total.int += acc.int;
    total.control += acc.control;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{LaunchConfig, TileOps};
    use hetsim_uvm::prefetch::Regularity;

    /// A synthetic streaming kernel: each block reads `lines_per_tile`
    /// fresh lines per tile and writes the same amount back.
    struct StreamKernel {
        launch: LaunchConfig,
        tiles: u64,
        lines_per_tile: u64,
        ops_per_tile: TileOps,
    }

    impl StreamKernel {
        fn new(blocks: u64, threads: u32, tiles: u64, lines: u64, fp: f64) -> Self {
            StreamKernel {
                launch: LaunchConfig::new(blocks, threads, 32 * 1024),
                tiles,
                lines_per_tile: lines,
                ops_per_tile: TileOps::new(fp, fp / 2.0, fp / 8.0),
            }
        }
    }

    impl KernelModel for StreamKernel {
        fn name(&self) -> &str {
            "stream_test"
        }
        fn launch(&self) -> LaunchConfig {
            self.launch
        }
        fn tiles_per_block(&self) -> u64 {
            self.tiles
        }
        fn stream_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
            let base = (block * self.tiles + tile) * self.lines_per_tile * 128;
            for i in 0..self.lines_per_tile {
                out.push(MemAccess::global_load(base + i * 128));
            }
        }
        fn local_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
            let out_base = (1u64 << 40) + (block * self.tiles + tile) * self.lines_per_tile * 128;
            for i in 0..self.lines_per_tile {
                out.push(MemAccess::global_store(out_base + i * 128));
            }
        }
        fn tile_ops(&self) -> TileOps {
            self.ops_per_tile
        }
        fn regularity(&self) -> Regularity {
            Regularity::Regular
        }
        fn standard_style(&self) -> KernelStyle {
            KernelStyle::StagedSync
        }
    }

    fn exec() -> KernelExecutor {
        KernelExecutor::new(GpuConfig::a100())
    }

    #[test]
    fn streaming_kernel_misses_everywhere() {
        let k = StreamKernel::new(512, 256, 8, 64, 1000.0);
        let r = exec().execute(&k, KernelStyle::Direct, &ExecEnv::standard());
        assert!(r.l1.load_miss_rate() > 0.9, "fresh lines never hit");
        assert!(r.time > Nanos::ZERO);
        assert!(r.hbm_load_bytes > 0);
        assert!(r.hbm_store_bytes > 0);
    }

    #[test]
    fn async_beats_sync_for_balanced_streaming() {
        // Fetch-heavy streaming with comparable compute: the double buffer
        // should overlap and win (the paper's vector_seq result).
        let k = StreamKernel::new(4096, 256, 16, 64, 6000.0);
        let e = exec();
        let sync = e.execute(&k, KernelStyle::StagedSync, &ExecEnv::standard());
        let async_ = e.execute(&k, KernelStyle::StagedAsync, &ExecEnv::standard());
        assert!(
            async_.cycles < sync.cycles,
            "async {} !< sync {}",
            async_.cycles,
            sync.cycles
        );
    }

    #[test]
    fn async_adds_control_instructions() {
        let k = StreamKernel::new(512, 256, 16, 64, 1000.0);
        let e = exec();
        let sync = e.execute(&k, KernelStyle::StagedSync, &ExecEnv::standard());
        let async_ = e.execute(&k, KernelStyle::StagedAsync, &ExecEnv::standard());
        assert!(
            async_.inst.get(InstClass::Control) > sync.inst.get(InstClass::Control),
            "async must inflate control instructions"
        );
    }

    #[test]
    fn async_bypass_lowers_l1_traffic() {
        let k = StreamKernel::new(512, 256, 8, 64, 100.0);
        let e = exec();
        let sync = e.execute(&k, KernelStyle::StagedSync, &ExecEnv::standard());
        let async_ = e.execute(&k, KernelStyle::StagedAsync, &ExecEnv::standard());
        assert!(
            async_.l1.loads() < sync.l1.loads(),
            "cp.async loads must not appear in L1 counters"
        );
    }

    #[test]
    fn translation_penalty_slows_kernels() {
        let k = StreamKernel::new(512, 256, 8, 64, 100.0);
        let e = exec();
        let clean = e.execute(&k, KernelStyle::Direct, &ExecEnv::standard());
        let uvm = e.execute(&k, KernelStyle::Direct, &ExecEnv::new(1.3, 0.0));
        assert!(uvm.cycles > clean.cycles);
    }

    #[test]
    fn warm_l2_reduces_hbm_reads_and_time() {
        let k = StreamKernel::new(2048, 256, 8, 64, 100.0);
        let e = exec();
        let cold = e.execute(&k, KernelStyle::Direct, &ExecEnv::standard());
        let warm = e.execute(&k, KernelStyle::Direct, &ExecEnv::new(1.0, 0.6));
        assert!(warm.hbm_load_bytes < cold.hbm_load_bytes);
        assert!(warm.cycles < cold.cycles);
    }

    #[test]
    fn fewer_threads_expose_latency() {
        // Paper Fig 12: 64 blocks fixed, threads swept; fewer threads are
        // disproportionately slower.
        let per_block_lines = 2048;
        let k32 = StreamKernel::new(64, 32, 16, per_block_lines / 16, 100.0);
        let k256 = StreamKernel::new(64, 256, 16, per_block_lines / 16, 100.0);
        let e = exec();
        let r32 = e.execute(&k32, KernelStyle::StagedSync, &ExecEnv::standard());
        let r256 = e.execute(&k256, KernelStyle::StagedSync, &ExecEnv::standard());
        assert!(
            r32.cycles > 1.7 * r256.cycles,
            "1 warp ({}) should be much slower than 8 warps ({})",
            r32.cycles,
            r256.cycles
        );
    }

    #[test]
    fn async_insensitive_to_thread_count() {
        let k32 = StreamKernel::new(64, 32, 16, 128, 100.0);
        let k256 = StreamKernel::new(64, 256, 16, 128, 100.0);
        let e = exec();
        let r32 = e.execute(&k32, KernelStyle::StagedAsync, &ExecEnv::standard());
        let r256 = e.execute(&k256, KernelStyle::StagedAsync, &ExecEnv::standard());
        let sync32 = e.execute(&k32, KernelStyle::StagedSync, &ExecEnv::standard());
        let sync256 = e.execute(&k256, KernelStyle::StagedSync, &ExecEnv::standard());
        let async_ratio = r32.cycles / r256.cycles;
        let sync_ratio = sync32.cycles / sync256.cycles;
        assert!(
            async_ratio < sync_ratio,
            "cp.async hides latency without warps: {async_ratio} !< {sync_ratio}"
        );
    }

    #[test]
    fn extrapolation_scales_instructions() {
        let small = StreamKernel::new(6, 128, 4, 16, 50.0);
        let big = StreamKernel::new(600, 128, 4, 16, 50.0);
        let e = exec();
        let rs = e.execute(&small, KernelStyle::Direct, &ExecEnv::standard());
        let rb = e.execute(&big, KernelStyle::Direct, &ExecEnv::standard());
        let ratio = rb.inst.total() as f64 / rs.inst.total() as f64;
        assert!((ratio - 100.0).abs() < 1.0, "inst ratio {ratio}");
    }

    #[test]
    fn occupancy_reported() {
        let k = StreamKernel::new(512, 256, 4, 16, 50.0);
        let r = exec().execute(&k, KernelStyle::Direct, &ExecEnv::standard());
        assert!(r.theoretical_occupancy > 0.0 && r.theoretical_occupancy <= 1.0);
    }

    #[test]
    fn deterministic() {
        let k = StreamKernel::new(512, 256, 4, 16, 50.0);
        let e = exec();
        let a = e.execute(&k, KernelStyle::StagedAsync, &ExecEnv::standard());
        let b = e.execute(&k, KernelStyle::StagedAsync, &ExecEnv::standard());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_sample_rejected() {
        let _ = exec().with_sample_blocks(0);
    }

    #[test]
    #[should_panic(expected = "translation penalty")]
    fn bad_env_rejected() {
        let _ = ExecEnv::new(0.5, 0.0);
    }
}
