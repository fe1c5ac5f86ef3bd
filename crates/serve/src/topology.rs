//! The multi-GPU cluster model: devices plus a peer-to-peer link topology.
//!
//! The single-device [`Device`] model (its CPU↔GPU link, HBM, allocator)
//! is reused unchanged — a cluster is N copies of it stitched together by
//! a matrix of peer links. Links come in two classes, matching the
//! NVLink/NUMA structure of the DGX-style machines the serving layer
//! models:
//!
//! * NVLink — same NUMA half, direct NVLink: high bandwidth,
//!   sub-microsecond setup.
//! * NUMA-remote — the other NUMA half: PCIe hop plus a
//!   socket-interconnect crossing, the slowest path.
//!
//! Peer transfers matter to serving because failover (the
//! `chaos_failover` policy and the resilience layer's attempt walk)
//! re-stages a request's working set on another device: the charge for
//! that move is the peer transfer time, so a failover across the NUMA
//! boundary honestly costs more than one inside an NVLink island.

use hetsim_engine::bandwidth::{link_transfer_time, Bandwidth, Latency};
use hetsim_engine::time::Nanos;
use hetsim_runtime::Device;

/// The class of a peer-to-peer link between two devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PeerClass {
    /// Direct NVLink within an NVLink island (same NUMA half).
    NvLink,
    /// Across the NUMA boundary: PCIe plus a socket-interconnect hop.
    NumaRemote,
    /// A device's link to itself (no transfer needed).
    Local,
}

/// A directed peer link: fixed setup latency plus streaming bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PeerLink {
    /// Link class.
    pub class: PeerClass,
    /// Per-transfer setup latency.
    pub latency: Latency,
    /// Streaming bandwidth.
    pub bandwidth: Bandwidth,
}

impl PeerLink {
    /// The default link model for a class. Numbers follow the same
    /// datasheet-effective convention as the CPU↔GPU link: NVLink 3.0 at
    /// ~200 GB/s effective per direction, and the NUMA-remote path (PCIe
    /// 4.0 x16 plus the socket hop) derated to ~16 GB/s with the hop
    /// folded into latency.
    pub(crate) fn of_class(class: PeerClass) -> PeerLink {
        let (latency_us, gb_per_sec) = match class {
            PeerClass::NvLink => (2, 200.0),
            PeerClass::NumaRemote => (9, 16.0),
            PeerClass::Local => {
                return PeerLink {
                    class,
                    latency: Latency::ZERO,
                    bandwidth: Bandwidth::from_gb_per_sec(1e6),
                }
            }
        };
        PeerLink {
            class,
            latency: Latency::from_micros(latency_us),
            bandwidth: Bandwidth::from_gb_per_sec(gb_per_sec),
        }
    }

    /// Time to move `bytes` across this link (latency + bytes/bandwidth);
    /// zero for [`PeerClass::Local`].
    pub(crate) fn transfer_time(&self, bytes: u64) -> Nanos {
        if self.class == PeerClass::Local {
            return Nanos::ZERO;
        }
        link_transfer_time(self.latency, self.bandwidth, bytes)
    }
}

/// A fleet of devices plus the peer-link class between every ordered pair.
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    devices: Vec<Device>,
    /// Row-major `len × len` link matrix; `links[src * len + dst]`.
    links: Vec<PeerLink>,
}

impl ClusterTopology {
    /// A DGX-style NVLink mesh of `n` identical A100+EPYC devices split
    /// into two NUMA halves: NVLink inside a half, NUMA-remote across
    /// halves. With `n == 1` the topology degenerates to a single device.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn nvlink_mesh(n: usize) -> ClusterTopology {
        assert!(n > 0, "cluster needs at least one device");
        let half = n.div_ceil(2);
        ClusterTopology::build(n, |src, dst| {
            if src == dst {
                PeerClass::Local
            } else if (src < half) == (dst < half) {
                PeerClass::NvLink
            } else {
                PeerClass::NumaRemote
            }
        })
    }

    fn build(n: usize, class: impl Fn(usize, usize) -> PeerClass) -> ClusterTopology {
        let devices = vec![Device::a100_epyc(); n];
        let mut links = Vec::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                links.push(PeerLink::of_class(class(src, dst)));
            }
        }
        ClusterTopology { devices, links }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the cluster is empty (never true for the shipped presets).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Stable display name for the device at `idx` (e.g. `gpu2`).
    pub(crate) fn device_label(&self, idx: usize) -> String {
        format!("gpu{idx}")
    }

    /// HBM capacity of the device at `idx`, bytes.
    pub(crate) fn capacity(&self, idx: usize) -> u64 {
        self.devices[idx].gpu.hbm.capacity()
    }

    /// The directed peer link from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub(crate) fn peer_link(&self, src: usize, dst: usize) -> PeerLink {
        self.links[src * self.devices.len() + dst]
    }

    /// Time to re-stage `bytes` from device `src` onto device `dst`.
    pub(crate) fn peer_transfer_time(&self, src: usize, dst: usize, bytes: u64) -> Nanos {
        self.peer_link(src, dst).transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_splits_into_numa_halves() {
        let t = ClusterTopology::nvlink_mesh(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.peer_link(0, 1).class, PeerClass::NvLink);
        assert_eq!(t.peer_link(2, 3).class, PeerClass::NvLink);
        assert_eq!(t.peer_link(1, 2).class, PeerClass::NumaRemote);
        assert_eq!(t.peer_link(3, 0).class, PeerClass::NumaRemote);
        assert_eq!(t.peer_link(2, 2).class, PeerClass::Local);
    }

    #[test]
    fn odd_mesh_rounds_first_half_up() {
        let t = ClusterTopology::nvlink_mesh(3);
        // Halves are {0, 1} and {2}.
        assert_eq!(t.peer_link(0, 1).class, PeerClass::NvLink);
        assert_eq!(t.peer_link(1, 2).class, PeerClass::NumaRemote);
    }

    #[test]
    fn transfer_costs_order_by_class() {
        let t = ClusterTopology::nvlink_mesh(4);
        let bytes = 1 << 30; // 1 GiB working set
        let local = t.peer_transfer_time(0, 0, bytes);
        let nvlink = t.peer_transfer_time(0, 1, bytes);
        let remote = t.peer_transfer_time(0, 2, bytes);
        assert_eq!(local, Nanos::ZERO);
        assert!(nvlink < remote, "NVLink must beat the NUMA hop");
    }

    #[test]
    fn nvlink_bandwidth_dominates_its_latency() {
        // At 1 GiB the setup latency is noise: the transfer should take
        // roughly bytes / 200 GB/s. (A 2-mesh has one device per NUMA
        // half, so the NVLink pair needs a 4-mesh.)
        let t = ClusterTopology::nvlink_mesh(4).peer_transfer_time(0, 1, 1 << 30);
        let ideal = (1u64 << 30) as f64 / 200e9;
        assert!((t.as_secs_f64() / ideal - 1.0).abs() < 0.01);
    }

    #[test]
    fn capacity_is_a100_hbm() {
        let t = ClusterTopology::nvlink_mesh(1);
        assert_eq!(t.capacity(0), 40 * (1u64 << 30));
        assert_eq!(t.device_label(0), "gpu0");
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = ClusterTopology::nvlink_mesh(0);
    }
}
