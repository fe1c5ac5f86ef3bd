//! Temporal-order demand touching: the fault batcher driven by a real
//! access *sequence* instead of an address-ordered range walk.
//!
//! [`UvmSpace::demand_touch_range`](crate::space::UvmSpace::demand_touch_range)
//! models a kernel that sweeps its buffers in address order: every
//! non-resident chunk faults at once and the batches fill perfectly. Real
//! irregular kernels — graph frontiers, clustering passes, wavefronts —
//! interleave faults with long resident runs, so the driver's fault buffer
//! drains *before* it fills: the fixed ~38 µs batch latency (§2.1, Allen &
//! Ge) amortizes over far fewer faults, and per-fault cost balloons. This
//! module supplies the two pieces that path needs:
//!
//! * [`ChunkTouch`] — one access of a temporal sequence, produced by a
//!   workload's touch model (`hetsim-workloads`) and streamed, one touch
//!   at a time, into a
//!   [`TouchSequence`](crate::space::TouchSequence) session opened by
//!   [`UvmSpace::touch_sequence`](crate::space::UvmSpace::touch_sequence);
//! * [`FaultBatcher`] — the driver's fault buffer: it retires a batch when
//!   full *or* when the SMs run far enough ahead of the buffer (a drain
//!   gap of non-faulting accesses) that the driver services what it has.
//!
//! The session holds the batcher, the speculation state and the
//! sequence's counters, applies residency changes as touches arrive and
//! costs the batches when it finishes, so a sequence never has to exist
//! as a vector.
//!
//! The per-batch fill values the batcher reports feed the
//! `hetsim-counters` batch-fill histogram, which is how the shape tests
//! tell an irregular workload (under-filled batches, many latencies) from
//! a streaming one (capacity-filled batches).

use crate::fault::FaultConfig;
use crate::page::ChunkId;

/// One access of a kernel's temporal chunk-touch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTouch {
    /// Absolute chunk of the unified address space.
    pub chunk: ChunkId,
    /// Whether the access writes (marks the chunk dirty).
    pub write: bool,
    /// Whether a fault on this chunk migrates data over the link
    /// (host-initialized) or merely populates device memory (first touch).
    pub host_backed: bool,
}

/// Parameters of sequence-driven fault batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchConfig {
    /// Consecutive non-faulting touches after which the driver services a
    /// partially filled batch: the kernel has clearly run ahead of the
    /// fault buffer, so waiting for more faults only delays the stalled
    /// warps.
    pub drain_gap: u32,
    /// Cap of the driver's region-growing speculation, in chunks
    /// (2 MB / 64 KB = 32, matching
    /// [`HeuristicPrefetcher`](crate::heuristic::HeuristicPrefetcher)).
    pub max_spec_block: u64,
}

impl TouchConfig {
    /// Driver defaults paired with [`FaultConfig::a100`]: a 192-access
    /// drain gap (several warps' worth of hits) and the 2 MB speculation
    /// cap.
    pub fn a100() -> Self {
        TouchConfig {
            drain_gap: 192,
            max_spec_block: 32,
        }
    }
}

impl Default for TouchConfig {
    fn default() -> Self {
        TouchConfig::a100()
    }
}

/// The driver's fault buffer under a temporal access stream.
///
/// Feed it [`FaultBatcher::fault`] / [`FaultBatcher::hit`] events in
/// sequence order and collect the serviced batch fills from
/// [`FaultBatcher::finish`]. A batch retires when it reaches
/// [`FaultConfig::batch_capacity`] or when [`TouchConfig::drain_gap`]
/// consecutive hits pass without a new fault.
#[derive(Debug, Clone)]
pub struct FaultBatcher {
    capacity: u32,
    drain_gap: u32,
    pending: u32,
    gap: u32,
    fills: Vec<u32>,
}

impl FaultBatcher {
    /// Creates an empty batcher.
    pub fn new(fault: FaultConfig, touch: TouchConfig) -> Self {
        FaultBatcher {
            capacity: fault.batch_capacity.max(1),
            drain_gap: touch.drain_gap.max(1),
            pending: 0,
            gap: 0,
            fills: Vec::new(),
        }
    }

    /// Records one far fault; retires the batch if it is now full.
    pub fn fault(&mut self) {
        self.gap = 0;
        self.pending += 1;
        if self.pending >= self.capacity {
            self.flush();
        }
    }

    /// Records one resident (non-faulting) access; a long enough run of
    /// these drains a partial batch.
    pub fn hit(&mut self) {
        if self.pending == 0 {
            return;
        }
        self.gap += 1;
        if self.gap >= self.drain_gap {
            self.flush();
        }
    }

    /// Retires the trailing partial batch and returns every serviced
    /// batch's fill, in service order.
    pub fn finish(mut self) -> Vec<u32> {
        self.flush();
        self.fills
    }

    fn flush(&mut self) {
        if self.pending > 0 {
            self.fills.push(self.pending);
            self.pending = 0;
        }
        self.gap = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher() -> FaultBatcher {
        FaultBatcher::new(FaultConfig::a100(), TouchConfig::a100())
    }

    #[test]
    fn dense_faults_fill_batches_to_capacity() {
        let mut b = batcher();
        for _ in 0..600 {
            b.fault();
        }
        assert_eq!(b.finish(), vec![256, 256, 88]);
    }

    #[test]
    fn sparse_faults_drain_partial_batches() {
        let mut b = batcher();
        for _ in 0..3 {
            b.fault();
            for _ in 0..200 {
                b.hit(); // beyond the 192-access drain gap
            }
        }
        assert_eq!(b.finish(), vec![1, 1, 1], "each fault pays its own batch");
    }

    #[test]
    fn short_gaps_keep_the_batch_accumulating() {
        let mut b = batcher();
        for _ in 0..10 {
            b.fault();
            for _ in 0..31 {
                b.hit(); // a sequential stream with 32-chunk speculation
            }
        }
        assert_eq!(b.finish(), vec![10], "gaps below the drain keep filling");
    }

    #[test]
    fn hits_without_pending_faults_are_free() {
        let mut b = batcher();
        for _ in 0..10_000 {
            b.hit();
        }
        assert!(b.finish().is_empty());
    }

    #[test]
    fn trailing_partial_batch_is_serviced_at_finish() {
        let mut b = batcher();
        for _ in 0..5 {
            b.fault();
        }
        assert_eq!(b.finish(), vec![5]);
    }
}
