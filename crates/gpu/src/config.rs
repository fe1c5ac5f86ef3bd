//! GPU hardware configuration (Table 1's A100) plus cost-model knobs.

use hetsim_engine::time::ClockDomain;
use hetsim_mem::cache::CacheConfig;
use hetsim_mem::carveout::Carveout;
use hetsim_mem::hbm::Hbm;
use hetsim_mem::tlb::TlbConfig;

/// Which of a device's two UVM TLB geometries a managed-memory run
/// translates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UvmTlb {
    /// Demand-migrated ranges: [`GpuConfig::uvm_tlb`].
    Demand,
    /// Prefetched ranges, coalesced into large mappings:
    /// [`GpuConfig::uvm_tlb_coalesced`].
    Coalesced,
}

impl UvmTlb {
    /// Both geometries, in the order of their discriminants.
    pub const ALL: [UvmTlb; 2] = [UvmTlb::Demand, UvmTlb::Coalesced];
}

/// A GPU device configuration.
///
/// Fields are public in the C-struct spirit: every one is an independent,
/// physically meaningful model parameter, and the ablation benches sweep
/// them directly. [`GpuConfig::a100`] is the calibrated preset used by all
/// paper experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessor count.
    pub sm_count: u32,
    /// SM clock domain.
    pub clock: ClockDomain,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// L1/texture ↔ shared-memory partition.
    pub carveout: Carveout,
    /// L1 line size, bytes.
    pub l1_line: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Device-wide L2 cache geometry.
    pub l2: CacheConfig,
    /// Device global memory.
    pub hbm: Hbm,
    /// GPU MMU TLB over demand-migrated managed memory.
    pub uvm_tlb: TlbConfig,
    /// GPU MMU TLB over prefetched managed ranges, which coalesce into
    /// larger mappings with cheaper walks.
    pub uvm_tlb_coalesced: TlbConfig,

    // ---- per-SM pipe throughputs (bytes or ops per cycle) ----
    /// L1/shared-memory port bandwidth per SM, bytes/cycle.
    pub l1_bytes_per_cycle: f64,
    /// L2 port bandwidth per SM, bytes/cycle.
    pub l2_bytes_per_cycle: f64,
    /// FP32 throughput per SM, ops/cycle.
    pub fp_per_cycle: f64,
    /// Integer throughput per SM, ops/cycle.
    pub int_per_cycle: f64,
    /// Control/branch throughput per SM, ops/cycle.
    pub control_per_cycle: f64,

    // ---- cost-model knobs (each ablated by a bench target) ----
    /// Warps needed per SM to hide global-memory latency on the direct
    /// (`ld.global`) path.
    pub warps_to_hide_latency: f64,
    /// Warps needed when `cp.async` prefetching hides latency instead.
    pub warps_to_hide_latency_async: f64,
    /// Register-file round-trip inflation on direct streaming loads
    /// (the pressure `cp.async` exists to remove).
    pub rf_pressure_factor: f64,
    /// Throughput efficiency of the `cp.async` bypass path relative to the
    /// plain L2/HBM path (slightly better: no RF, full-line requests).
    pub async_bypass_efficiency: f64,
    /// Control instructions added per thread per tile by the async
    /// pipeline (commit/wait/index arithmetic).
    pub async_ctrl_per_thread_tile: f64,
    /// Integer instructions added per thread per tile by the async
    /// pipeline (buffer indexing).
    pub async_int_per_thread_tile: f64,
    /// Cycles per `__syncthreads()` barrier.
    pub sync_barrier_cycles: f64,
    /// Fixed per-block launch/drain overhead, cycles.
    pub block_overhead_cycles: f64,
    /// How much of the shorter phase a synchronous staged kernel fails to
    /// overlap with the longer one (barriers lock fetch and compute into
    /// alternating phases): 0 = perfect overlap, 1 = full serialization.
    pub sync_serialization: f64,
    /// Achieved fraction of peak HBM bandwidth for direct (`ld.global`)
    /// load streams of a well-tuned kernel (enough ILP to keep requests in
    /// flight).
    pub hbm_eff_direct_load: f64,
    /// Achieved fraction of peak HBM bandwidth for the naive synchronous
    /// staging loop (`ld.global` → register → `st.shared` with barriers):
    /// the dependence chain caps per-warp MLP — the inefficiency
    /// `cp.async` was introduced to remove.
    pub hbm_eff_sync_load: f64,
    /// Achieved fraction of peak HBM bandwidth for `cp.async` load streams
    /// (full-line requests, no register round trip).
    pub hbm_eff_async_load: f64,
    /// Achieved fraction of peak HBM bandwidth for store streams.
    pub hbm_eff_store: f64,
}

impl GpuConfig {
    /// The paper's Nvidia A100 (Table 1), with cost-model knobs calibrated
    /// against its measured behaviours.
    pub fn a100() -> Self {
        let carveout = Carveout::paper_default();
        GpuConfig {
            sm_count: 108,
            clock: ClockDomain::from_mhz(1410),
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_warps_per_sm: 64,
            carveout,
            l1_line: 128,
            l1_ways: 4,
            // 40 MB, 128B lines, 16-way.
            l2: CacheConfig::new(40 * (1 << 20), 128, 16),
            hbm: Hbm::a100_40gb(),
            uvm_tlb: TlbConfig::a100_uvm(),
            uvm_tlb_coalesced: TlbConfig::a100_uvm_coalesced(),
            l1_bytes_per_cycle: 128.0,
            l2_bytes_per_cycle: 96.0,
            fp_per_cycle: 64.0,
            int_per_cycle: 64.0,
            control_per_cycle: 16.0,
            warps_to_hide_latency: 16.0,
            warps_to_hide_latency_async: 2.0,
            rf_pressure_factor: 1.55,
            async_bypass_efficiency: 1.10,
            async_ctrl_per_thread_tile: 4.0,
            async_int_per_thread_tile: 3.0,
            sync_barrier_cycles: 24.0,
            block_overhead_cycles: 600.0,
            sync_serialization: 0.85,
            hbm_eff_direct_load: 0.75,
            hbm_eff_sync_load: 0.40,
            hbm_eff_async_load: 0.92,
            hbm_eff_store: 0.88,
        }
    }

    /// The L1/texture cache geometry implied by the current carveout.
    pub fn l1_config(&self) -> CacheConfig {
        let raw = self.carveout.l1_bytes();
        // Round down to a multiple of line * ways so the geometry is valid.
        let granule = self.l1_line * self.l1_ways as u64;
        let capacity = (raw / granule).max(1) * granule;
        CacheConfig::new(capacity, self.l1_line, self.l1_ways)
    }

    /// The TLB geometry `which` names.
    pub fn tlb(&self, which: UvmTlb) -> TlbConfig {
        match which {
            UvmTlb::Demand => self.uvm_tlb,
            UvmTlb::Coalesced => self.uvm_tlb_coalesced,
        }
    }

    /// Returns a copy with a different carveout (Fig 13 sweeps this).
    pub fn with_carveout(&self, carveout: Carveout) -> Self {
        let mut c = self.clone();
        c.carveout = carveout;
        c
    }

    /// Device-wide HBM bandwidth in bytes per SM-clock cycle.
    pub fn hbm_bytes_per_cycle_device(&self) -> f64 {
        self.hbm.bandwidth().bytes_per_sec() / self.clock.hz()
    }

    /// Resident blocks per SM for a launch, limited by threads, the block
    /// cap, and shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_block` is zero.
    pub fn resident_blocks(&self, threads_per_block: u32, shared_per_block: u64) -> u32 {
        assert!(threads_per_block > 0, "threads_per_block must be positive");
        let by_threads = self.max_threads_per_sm / threads_per_block;
        let by_shared = self
            .carveout
            .shared_bytes()
            .checked_div(shared_per_block)
            .map_or(self.max_blocks_per_sm, |b| b as u32);
        by_threads.min(by_shared).min(self.max_blocks_per_sm).max(1)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_table1() {
        let g = GpuConfig::a100();
        assert_eq!(g.sm_count, 108);
        assert_eq!(g.clock, ClockDomain::from_mhz(1410));
        assert_eq!(g.hbm.capacity(), 40 * (1u64 << 30));
        assert_eq!(g.carveout.shared_bytes(), 32 * 1024);
    }

    #[test]
    fn l1_config_tracks_carveout() {
        let g = GpuConfig::a100();
        assert_eq!(g.l1_config().capacity, 160 * 1024);
        let big_shared = g.with_carveout(Carveout::with_shared_kib(128).unwrap());
        assert_eq!(big_shared.l1_config().capacity, 64 * 1024);
    }

    #[test]
    fn l1_config_rounds_to_valid_geometry() {
        let g = GpuConfig::a100().with_carveout(Carveout::with_shared_kib(164).unwrap());
        // 28 KB raw L1: must stay a multiple of line*ways.
        let cfg = g.l1_config();
        assert_eq!(cfg.capacity % (cfg.line * cfg.ways as u64), 0);
        assert!(cfg.capacity <= 28 * 1024);
    }

    #[test]
    fn resident_blocks_limits() {
        let g = GpuConfig::a100();
        assert_eq!(g.resident_blocks(256, 0), 8); // thread-limited
        assert_eq!(g.resident_blocks(32, 0), 32); // block-cap-limited
        assert_eq!(g.resident_blocks(256, 16 * 1024), 2); // smem-limited
        assert_eq!(g.resident_blocks(2048, 32 * 1024), 1); // floor of 1
    }

    #[test]
    fn hbm_cycle_bandwidth() {
        let g = GpuConfig::a100();
        let b = g.hbm_bytes_per_cycle_device();
        // 1555 GB/s over 1.41 GHz ~ 1100 B/cycle.
        assert!((1000.0..1200.0).contains(&b), "got {b}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = GpuConfig::a100().resident_blocks(0, 0);
    }
}
