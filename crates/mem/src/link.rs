//! The CPU↔GPU interconnect (`U1` in the paper's Figure 1).
//!
//! A single physical PCIe 4.0 x16 link carries four logically distinct
//! transfer paths with very different *effective* throughputs, and the gap
//! between them is the whole story of the paper's memcpy-time results:
//!
//! * **pageable `cudaMemcpy`** is bound by the host-side staging copy
//!   (bounce buffer) — a few GB/s;
//! * **pinned `cudaMemcpy`** streams at near link speed;
//! * **UVM demand migration** moves small batches with driver overhead;
//! * **UVM bulk prefetch** (`cudaMemPrefetchAsync`) streams large ranges at
//!   close to pinned speed.
//!
//! Effective bandwidths are calibrated so the relative savings match the
//! paper: UVM on-demand saves ~32% of memcpy time over pageable copies, and
//! prefetch saves ~64% (§4.1.2).

use hetsim_engine::bandwidth::{link_transfer_time, Bandwidth, Latency};
use hetsim_engine::time::Nanos;

/// The logical transfer paths over the CPU↔GPU link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkPath {
    /// `cudaMemcpy` from/to pageable host memory (staged through a bounce
    /// buffer).
    PageableCopy,
    /// `cudaMemcpy` from/to pinned host memory (pure DMA).
    PinnedCopy,
    /// UVM on-demand page migration triggered by GPU far faults.
    DemandMigration,
    /// UVM bulk range prefetch (`cudaMemPrefetchAsync`).
    BulkPrefetch,
}

impl LinkPath {
    /// All paths, for iteration in tests and reports.
    pub const ALL: [LinkPath; 4] = [
        LinkPath::PageableCopy,
        LinkPath::PinnedCopy,
        LinkPath::DemandMigration,
        LinkPath::BulkPrefetch,
    ];

    /// Stable lowercase identifier, used as the trace span name of DMA
    /// operations on this path.
    pub fn name(self) -> &'static str {
        match self {
            LinkPath::PageableCopy => "pageable_copy",
            LinkPath::PinnedCopy => "pinned_copy",
            LinkPath::DemandMigration => "demand_migration",
            LinkPath::BulkPrefetch => "bulk_prefetch",
        }
    }
}

/// The CPU↔GPU interconnect with per-path effective costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuGpuLink {
    pageable: (Latency, Bandwidth),
    pinned: (Latency, Bandwidth),
    demand: (Latency, Bandwidth),
    prefetch: (Latency, Bandwidth),
}

impl CpuGpuLink {
    /// PCIe 4.0 x16 between an EPYC host and an A100, with effective
    /// per-path throughputs calibrated to the paper's observed savings.
    pub fn pcie4_a100() -> Self {
        CpuGpuLink {
            pageable: (Latency::from_micros(10), Bandwidth::from_gb_per_sec(6.2)),
            pinned: (Latency::from_micros(8), Bandwidth::from_gb_per_sec(26.0)),
            demand: (Latency::from_micros(20), Bandwidth::from_gb_per_sec(9.3)),
            prefetch: (Latency::from_micros(15), Bandwidth::from_gb_per_sec(17.5)),
        }
    }

    fn path(&self, p: LinkPath) -> (Latency, Bandwidth) {
        match p {
            LinkPath::PageableCopy => self.pageable,
            LinkPath::PinnedCopy => self.pinned,
            LinkPath::DemandMigration => self.demand,
            LinkPath::BulkPrefetch => self.prefetch,
        }
    }

    /// Effective bandwidth of a path.
    pub fn bandwidth(&self, p: LinkPath) -> Bandwidth {
        self.path(p).1
    }

    /// Fixed per-operation latency of a path.
    pub fn latency(&self, p: LinkPath) -> Latency {
        self.path(p).0
    }

    /// Time for one transfer of `bytes` over `p`.
    pub fn transfer_time(&self, p: LinkPath, bytes: u64) -> Nanos {
        let (lat, bw) = self.path(p);
        link_transfer_time(lat, bw, bytes)
    }

    /// Time for `bytes` moved as `ceil(bytes/chunk)` operations, each paying
    /// the path's fixed latency — how demand migration actually behaves.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunked_transfer_time(&self, p: LinkPath, bytes: u64, chunk: u64) -> Nanos {
        assert!(chunk > 0, "chunk size must be non-zero");
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let (lat, bw) = self.path(p);
        let ops = bytes.div_ceil(chunk);
        lat.times(ops) + bw.transfer_time(bytes)
    }

    /// [`CpuGpuLink::transfer_time`] for a *committed* transfer: same
    /// result, but when a trace session is active the operation also lands
    /// as a `dma` span (with a `bytes` argument) on the `dma` track.
    ///
    /// The pure query stays side-effect free for speculative cost probing;
    /// call this variant only at the point where a transfer actually
    /// happens.
    pub fn record_transfer(&self, p: LinkPath, bytes: u64) -> Nanos {
        let t = self.transfer_time(p, bytes);
        self.record_dma(p, bytes, t, 1);
        t
    }

    /// [`CpuGpuLink::chunked_transfer_time`] for a committed transfer —
    /// see [`CpuGpuLink::record_transfer`]. The span carries the burst
    /// count in its `ops` argument rather than one span per chunk, so a
    /// million-chunk migration stays one event.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn record_chunked_transfer(&self, p: LinkPath, bytes: u64, chunk: u64) -> Nanos {
        let t = self.chunked_transfer_time(p, bytes, chunk);
        if bytes > 0 {
            self.record_dma(p, bytes, t, bytes.div_ceil(chunk));
        }
        t
    }

    fn record_dma(&self, p: LinkPath, bytes: u64, t: Nanos, ops: u64) {
        if !hetsim_trace::session::enabled() {
            return;
        }
        hetsim_trace::session::with(|b| {
            let track = b.track("dma");
            let arg = if ops > 1 {
                ("ops", ops as f64)
            } else {
                ("bytes", bytes as f64)
            };
            b.detail_span(
                track,
                hetsim_trace::Category::Dma,
                p.name(),
                t.as_nanos(),
                Some(arg),
            );
            b.counter("dma.op_bytes", bytes as f64);
        });
    }
}

impl Default for CpuGpuLink {
    fn default() -> Self {
        CpuGpuLink::pcie4_a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_ordering_matches_calibration() {
        let l = CpuGpuLink::pcie4_a100();
        let pageable = l.bandwidth(LinkPath::PageableCopy).bytes_per_sec();
        let demand = l.bandwidth(LinkPath::DemandMigration).bytes_per_sec();
        let prefetch = l.bandwidth(LinkPath::BulkPrefetch).bytes_per_sec();
        let pinned = l.bandwidth(LinkPath::PinnedCopy).bytes_per_sec();
        assert!(pageable < demand && demand < prefetch && prefetch < pinned);
    }

    #[test]
    fn savings_match_paper_shape() {
        // Large bulk transfer: fixed latencies negligible.
        let l = CpuGpuLink::pcie4_a100();
        let bytes = 4 * (1u64 << 30);
        let base = l.transfer_time(LinkPath::PageableCopy, bytes).as_secs_f64();
        let uvm = l
            .transfer_time(LinkPath::DemandMigration, bytes)
            .as_secs_f64();
        let pf = l.transfer_time(LinkPath::BulkPrefetch, bytes).as_secs_f64();
        let uvm_saving = 1.0 - uvm / base;
        let pf_saving = 1.0 - pf / base;
        // Paper: ~32% savings for uvm, ~64% for uvm_prefetch.
        assert!(
            (0.25..0.42).contains(&uvm_saving),
            "uvm saving {uvm_saving}"
        );
        assert!(
            (0.55..0.72).contains(&pf_saving),
            "prefetch saving {pf_saving}"
        );
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = CpuGpuLink::pcie4_a100();
        assert_eq!(
            l.transfer_time(LinkPath::PinnedCopy, 0),
            Nanos::from_micros(8)
        );
    }

    #[test]
    fn chunked_transfer_pays_latency_per_chunk() {
        let l = CpuGpuLink::pcie4_a100();
        let one = l.transfer_time(LinkPath::DemandMigration, 1 << 20);
        let chunked = l.chunked_transfer_time(LinkPath::DemandMigration, 1 << 20, 64 * 1024);
        // 16 chunks pay 16 latencies instead of 1.
        let extra = chunked - one;
        assert_eq!(extra, Latency::from_micros(20).times(15));
        assert_eq!(
            l.chunked_transfer_time(LinkPath::DemandMigration, 0, 4096),
            Nanos::ZERO
        );
    }

    #[test]
    fn all_paths_iterable() {
        let l = CpuGpuLink::default();
        for p in LinkPath::ALL {
            assert!(l.bandwidth(p).bytes_per_sec() > 0.0);
            assert!(l.latency(p).as_nanos() >= Nanos::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        let _ = CpuGpuLink::default().chunked_transfer_time(LinkPath::PageableCopy, 10, 0);
    }
}
