//! [`UvmSpace`] — the managed-memory façade the runtime drives.
//!
//! One `UvmSpace` models the unified address space of one device: it owns
//! the page table, applies fault/prefetch cost models, moves chunks over the
//! CPU↔GPU link, and accumulates [`UvmCounters`].
//!
//! Every range operation resolves its chunk range into per-region slot runs
//! once (one binary search over the regions) and walks each run as a tight
//! loop over the page table's flag and stamp slices. While the device has
//! room, a touch or prefetch loop moves chunks in without any eviction
//! check; when the device fills partway through a run, the slot that needs
//! room goes through the per-chunk path that evicts, and the loop resumes
//! after it.
//!
//! A temporal touch sequence is a [`TouchSequence`] session
//! ([`UvmSpace::touch_sequence`]): the caller streams touches into it as
//! they are generated and the fault batches are costed when the session
//! finishes — so a kernel round of a million touches never exists as a
//! vector. A caller that touches the same buffers over and over resolves
//! each buffer once ([`UvmSpace::resolve`]) and touches by chunk offset
//! ([`TouchSequence::touch_at`]), so a touch costs no region search.
//! Refault history lives in the page table as a per-slot bit (see
//! [`crate::table`]), so no operation hashes chunk ids.

use crate::fault::{FaultConfig, FaultReport};
use crate::page::{chunk_span, ChunkId, CHUNK_SIZE};
use crate::table::{PageTable, SlotRef, SlotRun, Span};
use crate::touch::{ChunkTouch, FaultBatcher, TouchConfig};
use hetsim_counters::UvmCounters;
use hetsim_engine::time::Nanos;
use hetsim_mem::addr::Addr;
use hetsim_mem::link::{CpuGpuLink, LinkPath};
use std::ops::Range;

/// Configuration of a UVM space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UvmConfig {
    /// Migration granularity, bytes.
    pub chunk_size: u64,
    /// Fault-servicing cost model.
    pub fault: FaultConfig,
    /// Sequence-driven batching parameters (drain gap, speculation cap).
    pub touch: TouchConfig,
    /// Device memory capacity available to managed allocations, bytes.
    pub device_capacity: u64,
}

impl UvmConfig {
    /// A100 defaults: 64 KB chunks, calibrated fault costs, 40 GB device
    /// memory.
    pub fn a100() -> Self {
        UvmConfig {
            chunk_size: CHUNK_SIZE,
            fault: FaultConfig::a100(),
            touch: TouchConfig::a100(),
            device_capacity: 40 * (1u64 << 30),
        }
    }
}

impl Default for UvmConfig {
    fn default() -> Self {
        UvmConfig::a100()
    }
}

/// The unified address space of one device.
#[derive(Debug, Clone)]
pub struct UvmSpace {
    config: UvmConfig,
    table: PageTable,
    counters: UvmCounters,
    resident_bytes: u64,
    eviction_transfer: Nanos,
}

impl UvmSpace {
    /// Creates an empty space.
    pub fn new(config: UvmConfig) -> Self {
        UvmSpace {
            config,
            table: PageTable::new(),
            counters: UvmCounters::new(),
            resident_bytes: 0,
            eviction_transfer: Nanos::ZERO,
        }
    }

    /// The configuration.
    pub fn config(&self) -> UvmConfig {
        self.config
    }

    /// Registers a managed allocation (`cudaMallocManaged`). Data starts
    /// host-resident; no transfer happens yet.
    pub fn managed_alloc(&mut self, base: Addr, bytes: u64) {
        let reset = self.table.register_range(self.chunks(base, bytes));
        // Address reuse: drop the stale residency accounting.
        self.resident_bytes -= reset as u64 * self.config.chunk_size;
    }

    /// The chunk indices a byte range overlaps.
    fn chunks(&self, base: Addr, bytes: u64) -> Range<u64> {
        chunk_span(base, bytes, self.config.chunk_size)
    }

    /// Calls `f` on every span of the range in address order: the slot
    /// run of each region, resolved once, and the gaps no region covers.
    /// `f` may change slot state but must not register.
    fn for_each_span(&mut self, chunks: Range<u64>, mut f: impl FnMut(&mut Self, Span)) {
        let mut walk = self.table.spans(chunks);
        while let Some(span) = self.table.next_span(&mut walk) {
            f(self, span);
        }
    }

    /// How many more chunks fit on the device before it must evict.
    fn room(&self) -> u64 {
        self.config
            .device_capacity
            .saturating_sub(self.resident_bytes)
            / self.config.chunk_size
    }

    /// Resolves the managed byte range `[base, base + bytes)` to its
    /// page-table slots once, for [`TouchSequence::touch_at`]. The result
    /// belongs to this space and stays valid across later allocations,
    /// frees and evictions: slots never move.
    pub fn resolve(&self, base: Addr, bytes: u64) -> ResolvedRange {
        let chunks = self.chunks(base, bytes);
        ResolvedRange {
            first: chunks.start,
            slots: self.table.covering_run(chunks).unwrap_or_default(),
        }
    }

    /// Explicitly prefetches a range (`cudaMemPrefetchAsync` plus the
    /// driver's streaming heuristics), covering `coverage` of the
    /// not-yet-resident chunks.
    ///
    /// The prefetcher is a streaming engine, so the covered chunks are the
    /// range prefix — exactly the part a regular kernel consumes first.
    /// Returns the link busy time.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn prefetch_range(
        &mut self,
        base: Addr,
        bytes: u64,
        coverage: f64,
        link: &CpuGpuLink,
    ) -> Nanos {
        assert!((0.0..=1.0).contains(&coverage), "coverage out of [0,1]");
        let chunks = self.chunks(base, bytes);
        // Count and mark the chunks not resident now: the covered prefix is
        // fixed before anything moves, because each move may evict a chunk
        // further along the same range.
        let mut pending = 0u64;
        self.for_each_span(chunks.clone(), |s, span| {
            pending += match span {
                Span::Slots(run) => s.table.mark_run(run),
                Span::Gap(len) => len,
            };
        });
        let n = (pending as f64 * coverage).round() as u64;
        // Move the first `n` marked chunks and clear every mark; an
        // unregistered chunk inside that prefix cannot move.
        let mut left = n;
        self.for_each_span(chunks, |s, span| match span {
            Span::Slots(mut run) => loop {
                let made = s.table.prefetch_run(&mut run, &mut left, s.room());
                s.resident_bytes += made * s.config.chunk_size;
                // The device is full: the next marked slot evicts.
                let Some(r) = run.next() else { break };
                s.table.take_slot_mark(r);
                s.make_resident(r);
                left -= 1;
            },
            Span::Gap(_) => assert!(left == 0, "made unmanaged chunk resident"),
        });
        let moved = n - left;
        if moved == 0 {
            return Nanos::ZERO;
        }
        self.counters.record_prefetched_pages(moved);
        // One prefetch call streams the whole covered range: a single fixed
        // latency plus bulk bandwidth.
        let t = link.record_transfer(LinkPath::BulkPrefetch, moved * self.config.chunk_size);
        hetsim_trace::session::with(|b| {
            let track = b.track("uvm");
            b.detail_span(
                track,
                hetsim_trace::Category::Prefetch,
                "prefetch",
                t.as_nanos(),
                Some(("chunks", moved as f64)),
            );
            b.counter_on(
                track,
                "uvm.pages_prefetched",
                self.counters.pages_prefetched() as f64,
            );
        });
        t
    }

    /// Demand-touches a range during kernel execution: every non-resident
    /// chunk takes a far fault. `write` marks the chunks dirty (an output
    /// buffer).
    ///
    /// `host_backed` says whether the host initialized this data: if so,
    /// every faulting chunk migrates over the link (batched DMA bursts). If
    /// not — a GPU-first-touch output buffer — pages are simply *populated*
    /// in device memory: the faults still stall, but nothing crosses the
    /// link. This first-touch placement is a core UVM benefit the paper's
    /// transfer-time savings rest on.
    pub fn demand_touch_range(
        &mut self,
        base: Addr,
        bytes: u64,
        write: bool,
        host_backed: bool,
        link: &CpuGpuLink,
    ) -> FaultReport {
        let mut faulted = 0u64;
        let mut refaults = 0u64;
        self.for_each_span(self.chunks(base, bytes), |s, span| {
            let Span::Slots(mut run) = span else {
                panic!("made unmanaged chunk resident")
            };
            loop {
                let made = s.table.touch_run(&mut run, write, s.room(), &mut refaults);
                s.resident_bytes += made * s.config.chunk_size;
                faulted += made;
                // The device is full: the next host-resident slot evicts.
                let Some(r) = run.next() else { break };
                refaults += u64::from(s.table.slot_was_evicted(r));
                s.make_resident(r);
                s.table.touch_slot(r, write);
                faulted += 1;
            }
        });
        if faulted == 0 {
            return FaultReport::default();
        }
        let stall = self.config.fault.service_stall(faulted);
        let batches = self.config.fault.batches_for(faulted);
        self.counters.record_fault_batch(faulted, stall);
        self.counters.record_refaults(refaults);
        // An address-ordered sweep raises every fault up front, so the
        // driver retires capacity-filled batches plus one remainder.
        let mut remaining = faulted;
        while remaining > 0 {
            let fill = remaining.min(self.config.fault.batch_capacity as u64);
            self.counters.record_batch_fill(fill);
            remaining -= fill;
        }
        let transfer = if host_backed {
            self.counters.record_migrated_pages(faulted);
            // Migrations are drained in batch-sized DMA bursts: the link's
            // per-operation latency amortizes over a whole fault batch.
            link.record_chunked_transfer(
                LinkPath::DemandMigration,
                faulted * self.config.chunk_size,
                self.config.chunk_size * self.config.fault.batch_capacity as u64,
            )
        } else {
            Nanos::ZERO
        };
        hetsim_trace::session::with(|b| {
            let track = b.track("uvm");
            b.detail_span(
                track,
                hetsim_trace::Category::FaultBatch,
                "fault_batch",
                stall.as_nanos(),
                Some(("chunks", faulted as f64)),
            );
            if !transfer.is_zero() {
                b.detail_span(
                    track,
                    hetsim_trace::Category::Migration,
                    "migration",
                    transfer.as_nanos(),
                    Some(("chunks", faulted as f64)),
                );
            }
            b.counter_on(track, "uvm.page_faults", self.counters.page_faults() as f64);
            b.counter_on(
                track,
                "uvm.pages_migrated",
                self.counters.pages_migrated() as f64,
            );
            b.counter_on(track, "uvm.resident_bytes", self.resident_bytes as f64);
        });
        FaultReport {
            chunks: faulted,
            batches,
            stall,
            transfer,
        }
    }

    /// Opens a temporal touch sequence: the path irregular workloads use
    /// instead of [`UvmSpace::demand_touch_range`]'s address-ordered
    /// sweep. Feed the session one [`ChunkTouch`] at a time with
    /// [`TouchSequence::touch`] as the kernel's touch model produces them,
    /// then close it with [`TouchSequence::finish`]; no touch vector is
    /// ever materialized.
    ///
    /// Three mechanisms the range walk cannot express fire here:
    ///
    /// * **Partial batches** — a [`FaultBatcher`] retires a batch when it
    ///   fills *or* when [`TouchConfig::drain_gap`] resident accesses pass
    ///   without a fault, so scattered faults pay the fixed batch latency
    ///   over small fills (§2.1's batched servicing under the worst case).
    /// * **Region-growing speculation** — the driver heuristic of
    ///   [`crate::heuristic`]: a fault adjacent to the previous one doubles
    ///   a speculative migration block (capped at
    ///   [`TouchConfig::max_spec_block`]); a jump resets it. Sequential
    ///   phases inside an irregular stream are covered cheaply; scattered
    ///   phases defeat the doubling.
    /// * **Refaults** — faults on chunks that were evicted or displaced
    ///   earlier count as thrashing in the [`UvmCounters`].
    ///
    /// Speculatively migrated chunks only cross the link when the touch is
    /// `host_backed`; either way they count toward the heuristic-pages
    /// counter. Touches to unmanaged chunks are a simulator bug and panic,
    /// matching the page-table contract.
    pub fn touch_sequence(&mut self) -> TouchSequence<'_> {
        TouchSequence {
            batcher: FaultBatcher::new(self.config.fault, self.config.touch),
            space: self,
            spec_block: 1,
            last_fault: None,
            faulted: 0,
            migrated: 0,
            heuristic_pages: 0,
            refaults: 0,
        }
    }

    /// Writes dirty device-resident chunks of a range back to the host
    /// (what `cudaDeviceSynchronize` + host reads of results cost under
    /// UVM), over the given link path: demand-granular page faults when
    /// the host touches unprefetched results, or bulk streaming when the
    /// range was managed with explicit prefetch. Returns link busy time.
    /// Chunks stay resident but become clean.
    pub fn writeback_dirty(
        &mut self,
        base: Addr,
        bytes: u64,
        path: LinkPath,
        link: &CpuGpuLink,
    ) -> Nanos {
        let mut cleaned = 0u64;
        self.for_each_span(self.chunks(base, bytes), |s, span| {
            if let Span::Slots(run) = span {
                cleaned += s.table.clean_run(run);
            }
        });
        if cleaned == 0 {
            return Nanos::ZERO;
        }
        let bytes_moved = cleaned * self.config.chunk_size;
        let t = link.record_transfer(path, bytes_moved);
        hetsim_trace::session::with(|b| {
            let track = b.track("uvm");
            b.detail_span(
                track,
                hetsim_trace::Category::Migration,
                "writeback",
                t.as_nanos(),
                Some(("chunks", cleaned as f64)),
            );
        });
        t
    }

    /// Displaces the trailing `fraction` of a range's device-resident
    /// chunks back to the host without writeback — what happens when
    /// prefetch decisions for one kernel move a shared data object out from
    /// under another (the paper's nw pathology). Returns displaced chunks.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn displace_fraction(&mut self, base: Addr, bytes: u64, fraction: f64) -> u64 {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of [0,1]");
        let chunks = self.chunks(base, bytes);
        let mut resident = 0u64;
        self.for_each_span(chunks.clone(), |s, span| {
            if let Span::Slots(run) = span {
                resident += s.table.resident_in(run);
            }
        });
        let displaced = (resident as f64 * fraction).round() as u64;
        // Skip the leading resident chunks; displacing moves nothing in, so
        // residency ahead of the walk cannot change.
        let mut skip = resident - displaced;
        self.for_each_span(chunks, |s, span| {
            if let Span::Slots(run) = span {
                s.table.displace_run(run, &mut skip);
            }
        });
        self.resident_bytes -= displaced * self.config.chunk_size;
        if displaced > 0 {
            self.counters.record_evicted_pages(displaced);
            hetsim_trace::session::with(|b| {
                let track = b.track("uvm");
                b.instant(
                    track,
                    hetsim_trace::Category::Mem,
                    "displace",
                    Some(("chunks", displaced as f64)),
                );
                b.counter_on(
                    track,
                    "uvm.pages_evicted",
                    self.counters.pages_evicted() as f64,
                );
            });
        }
        displaced
    }

    /// Frees a managed range (`cudaFree`), returning writeback time for
    /// dirty device-resident chunks.
    pub fn free(&mut self, base: Addr, bytes: u64, link: &CpuGpuLink) -> Nanos {
        let mut dirty_chunks = 0u64;
        let mut was_resident = 0u64;
        self.for_each_span(self.chunks(base, bytes), |s, span| {
            if let Span::Slots(run) = span {
                let (resident, dirty) = s.table.unregister_run(run);
                was_resident += resident;
                dirty_chunks += dirty;
            }
        });
        self.resident_bytes -= was_resident * self.config.chunk_size;
        if dirty_chunks == 0 {
            Nanos::ZERO
        } else {
            link.record_transfer(
                LinkPath::DemandMigration,
                dirty_chunks * self.config.chunk_size,
            )
        }
    }

    /// Makes one slot device-resident, evicting LRU chunks if the device
    /// is full.
    fn make_resident(&mut self, slot: SlotRef) {
        let mut evicted = 0u64;
        while self.resident_bytes + self.config.chunk_size > self.config.device_capacity {
            match self.table.evict_lru_slot() {
                Some((_, dirty)) => {
                    self.resident_bytes -= self.config.chunk_size;
                    self.counters.record_evicted_pages(1);
                    evicted += 1;
                    if dirty {
                        self.eviction_transfer += Nanos::from_micros(8);
                    }
                }
                None => break,
            }
        }
        if evicted > 0 {
            hetsim_trace::session::with(|b| {
                let track = b.track("uvm");
                b.instant(
                    track,
                    hetsim_trace::Category::Mem,
                    "evict",
                    Some(("chunks", evicted as f64)),
                );
                b.counter_on(
                    track,
                    "uvm.pages_evicted",
                    self.counters.pages_evicted() as f64,
                );
            });
        }
        self.table.make_slot_resident(slot);
        self.resident_bytes += self.config.chunk_size;
    }

    /// Speculatively migrates a slot run: makes its managed host-resident
    /// slots resident, evicting if the device is full. Returns how many
    /// moved.
    fn speculate(&mut self, run: SlotRun) -> u64 {
        let mut moved = 0;
        for r in run {
            if self.table.slot_is_managed(r) && !self.table.slot_is_resident(r) {
                self.make_resident(r);
                moved += 1;
            }
        }
        moved
    }

    /// Bytes currently device-resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Accumulated UVM counters.
    pub fn counters(&self) -> UvmCounters {
        self.counters
    }

    /// Accumulated link time spent on oversubscription eviction writebacks.
    pub fn eviction_transfer(&self) -> Nanos {
        self.eviction_transfer
    }

    /// Read-only access to the page table (tests, invariant checks).
    pub fn table(&self) -> &PageTable {
        &self.table
    }
}

/// A managed byte range resolved to its page-table slots once, by
/// [`UvmSpace::resolve`]: [`TouchSequence::touch_at`] then finds a chunk's
/// slot by its offset into the range, with no region search.
#[derive(Debug, Clone)]
pub struct ResolvedRange {
    /// Chunk id at offset 0.
    first: u64,
    /// The range's slots when one region covered it all at resolution,
    /// else empty (touches then look their slot up by chunk id).
    slots: SlotRun,
}

/// One temporal touch sequence in progress, from
/// [`UvmSpace::touch_sequence`]: the fault batcher, the driver's
/// speculation state and the sequence's counters. Residency changes as
/// each touch arrives; the batches are serviced and costed at
/// [`TouchSequence::finish`].
#[derive(Debug)]
pub struct TouchSequence<'a> {
    space: &'a mut UvmSpace,
    batcher: FaultBatcher,
    spec_block: u64,
    last_fault: Option<u64>,
    faulted: u64,
    /// Chunks crossing the link.
    migrated: u64,
    heuristic_pages: u64,
    refaults: u64,
}

impl TouchSequence<'_> {
    /// Replays one access of the sequence.
    ///
    /// # Panics
    ///
    /// Panics if the touch faults on an unmanaged chunk.
    pub fn touch(&mut self, t: ChunkTouch) {
        let slot = self.space.table.find(t.chunk);
        self.touch_slot(slot, SlotRun::default(), t);
    }

    /// Replays one access of the sequence to the chunk at `offset` into a
    /// range [`UvmSpace::resolve`] resolved on this space: the same as
    /// [`TouchSequence::touch`] on that chunk, without the slot lookup.
    ///
    /// # Panics
    ///
    /// Panics if the touch faults on an unmanaged chunk.
    pub fn touch_at(&mut self, range: &ResolvedRange, offset: u64, write: bool, host_backed: bool) {
        let t = ChunkTouch {
            chunk: ChunkId::new(range.first + offset),
            write,
            host_backed,
        };
        match range.slots.split_at(offset) {
            Some((r, after)) => self.touch_slot(Some(r), after, t),
            None => self.touch(t),
        }
    }

    /// Replays touch `t`, whose chunk's slot is `slot`; `after` holds slots
    /// known to follow it in address order (speculation walks those
    /// without a region search).
    fn touch_slot(&mut self, slot: Option<SlotRef>, mut after: SlotRun, t: ChunkTouch) {
        let space = &mut *self.space;
        if slot.is_some_and(|r| space.table.touch_if_resident(r, t.write)) {
            self.batcher.hit();
            return;
        }
        let r = slot.expect("made unmanaged chunk resident");
        self.faulted += 1;
        self.refaults += u64::from(space.table.slot_was_evicted(r));
        self.batcher.fault();
        let idx = t.chunk.index();
        let adjacent = self
            .last_fault
            .is_some_and(|p| idx.abs_diff(p) <= self.spec_block.max(4));
        self.spec_block = if adjacent {
            (self.spec_block * 2).min(space.config.touch.max_spec_block.max(1))
        } else {
            1
        };
        self.last_fault = Some(idx);
        space.make_resident(r);
        space.table.touch_slot(r, t.write);
        if t.host_backed {
            self.migrated += 1;
        }
        // The speculative block after the faulting chunk, clipped to the
        // managed range: the known slots first, then a span walk over what
        // lies past them.
        if self.spec_block > 1 {
            let known = after.take_front(self.spec_block - 1);
            let walked = idx + 1 + known.len()..idx + self.spec_block;
            let mut moved = space.speculate(known);
            space.for_each_span(walked, |s, span| {
                if let Span::Slots(run) = span {
                    moved += s.speculate(run);
                }
            });
            self.heuristic_pages += moved;
            if t.host_backed {
                self.migrated += moved;
            }
        }
    }

    /// Services the sequence's fault batches and migrations, records them
    /// in the space's counters and the trace, and returns the report. A
    /// sequence that never faulted records nothing.
    pub fn finish(self, link: &CpuGpuLink) -> FaultReport {
        let TouchSequence {
            space,
            batcher,
            faulted,
            migrated,
            heuristic_pages,
            refaults,
            ..
        } = self;
        if faulted == 0 {
            return FaultReport::default();
        }
        let fills = batcher.finish();
        let mut stall = Nanos::ZERO;
        for &fill in &fills {
            let s = space.config.fault.batch_latency + space.config.fault.per_fault * fill as u64;
            stall += s;
            space.counters.record_fault_batch(fill as u64, s);
            space.counters.record_batch_fill(fill as u64);
        }
        space.counters.record_refaults(refaults);
        space.counters.record_heuristic_pages(heuristic_pages);
        let transfer = if migrated > 0 {
            space.counters.record_migrated_pages(migrated);
            link.record_chunked_transfer(
                LinkPath::DemandMigration,
                migrated * space.config.chunk_size,
                space.config.chunk_size * space.config.fault.batch_capacity as u64,
            )
        } else {
            Nanos::ZERO
        };
        hetsim_trace::session::with(|b| {
            let track = b.track("uvm");
            b.detail_span(
                track,
                hetsim_trace::Category::FaultBatch,
                "fault_batch_seq",
                stall.as_nanos(),
                Some(("chunks", faulted as f64)),
            );
            if !transfer.is_zero() {
                b.detail_span(
                    track,
                    hetsim_trace::Category::Migration,
                    "migration",
                    transfer.as_nanos(),
                    Some(("chunks", migrated as f64)),
                );
            }
            b.counter_on(
                track,
                "uvm.page_faults",
                space.counters.page_faults() as f64,
            );
            b.counter_on(
                track,
                "uvm.pages_migrated",
                space.counters.pages_migrated() as f64,
            );
            b.counter_on(track, "uvm.refaults", space.counters.refaults() as f64);
            b.counter_on(track, "uvm.resident_bytes", space.resident_bytes as f64);
        });
        FaultReport {
            chunks: faulted,
            batches: fills.len() as u64,
            stall,
            transfer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> UvmSpace {
        UvmSpace::new(UvmConfig::a100())
    }

    fn link() -> CpuGpuLink {
        CpuGpuLink::pcie4_a100()
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn alloc_registers_host_resident() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), 2 * MB);
        assert_eq!(s.table().managed_count(), 32); // 2MB / 64KB
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn full_demand_touch_faults_every_chunk() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), 2 * MB);
        let r = s.demand_touch_range(Addr::new(0), 2 * MB, false, true, &link());
        assert_eq!(r.chunks, 32);
        assert_eq!(r.batches, 1, "32 faults fit one 256-entry batch");
        assert!(r.stall > Nanos::ZERO);
        assert!(r.transfer > Nanos::ZERO);
        assert_eq!(s.resident_bytes(), 2 * MB);
        // Second touch: everything resident, no faults.
        let r2 = s.demand_touch_range(Addr::new(0), 2 * MB, false, true, &link());
        assert_eq!(r2, FaultReport::default());
    }

    #[test]
    fn prefetch_covers_prefix_and_reduces_faults() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), 2 * MB);
        let t = s.prefetch_range(Addr::new(0), 2 * MB, 0.75, &link());
        assert!(t > Nanos::ZERO);
        assert_eq!(s.counters().pages_prefetched(), 24);
        let r = s.demand_touch_range(Addr::new(0), 2 * MB, false, true, &link());
        assert_eq!(r.chunks, 8, "only the uncovered suffix faults");
    }

    #[test]
    fn full_coverage_prefetch_eliminates_faults() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        s.prefetch_range(Addr::new(0), MB, 1.0, &link());
        let r = s.demand_touch_range(Addr::new(0), MB, false, true, &link());
        assert_eq!(r.chunks, 0);
        assert_eq!(r.stall, Nanos::ZERO);
    }

    #[test]
    fn zero_coverage_prefetch_is_free() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        assert_eq!(
            s.prefetch_range(Addr::new(0), MB, 0.0, &link()),
            Nanos::ZERO
        );
    }

    #[test]
    fn writes_mark_dirty_and_writeback_clears() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        s.demand_touch_range(Addr::new(0), MB, true, true, &link());
        let wb = s.writeback_dirty(Addr::new(0), MB, LinkPath::DemandMigration, &link());
        assert!(wb > Nanos::ZERO);
        let wb2 = s.writeback_dirty(Addr::new(0), MB, LinkPath::DemandMigration, &link());
        assert_eq!(wb2, Nanos::ZERO, "already clean");
    }

    #[test]
    fn free_pays_writeback_for_dirty() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        s.demand_touch_range(Addr::new(0), MB, true, true, &link());
        let t = s.free(Addr::new(0), MB, &link());
        assert!(t > Nanos::ZERO);
        assert_eq!(s.table().managed_count(), 0);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn free_clean_is_cheap() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        s.demand_touch_range(Addr::new(0), MB, false, true, &link());
        assert_eq!(s.free(Addr::new(0), MB, &link()), Nanos::ZERO);
    }

    #[test]
    fn oversubscription_evicts_lru() {
        let mut cfg = UvmConfig::a100();
        cfg.device_capacity = 10 * cfg.chunk_size; // tiny device
        let mut s = UvmSpace::new(cfg);
        s.managed_alloc(Addr::new(0), 20 * cfg.chunk_size);
        s.demand_touch_range(Addr::new(0), 20 * cfg.chunk_size, false, true, &link());
        assert!(s.resident_bytes() <= cfg.device_capacity);
        assert!(s.counters().pages_evicted() >= 10);
    }

    #[test]
    fn faults_counted_in_counters() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        s.demand_touch_range(Addr::new(0), MB, false, true, &link());
        assert_eq!(s.counters().page_faults(), 16);
        assert_eq!(s.counters().pages_migrated(), 16);
        assert_eq!(s.counters().fault_batches(), 1);
    }

    /// Streams a whole sequence through one session.
    fn replay(s: &mut UvmSpace, touches: &[ChunkTouch]) -> FaultReport {
        let mut seq = s.touch_sequence();
        for &t in touches {
            seq.touch(t);
        }
        seq.finish(&link())
    }

    fn seq(chunks: &[u64], write: bool, host_backed: bool) -> Vec<ChunkTouch> {
        chunks
            .iter()
            .map(|&c| ChunkTouch {
                chunk: ChunkId::new(c),
                write,
                host_backed,
            })
            .collect()
    }

    #[test]
    fn sequential_sequence_speculates_and_fills_one_batch() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), 64 * MB); // 1024 chunks
        let touches = seq(&(0..1024).collect::<Vec<_>>(), false, true);
        let r = replay(&mut s, &touches);
        // Region growing covers most of the stream: far fewer faults than
        // chunks, all migrated (demand + speculation).
        assert!(r.chunks < 1024 / 4, "faults {}", r.chunks);
        assert_eq!(r.batches, 1, "gaps stay below the drain threshold");
        assert_eq!(s.counters().pages_migrated(), 1024);
        assert!(s.counters().pages_heuristic() > 700);
        assert_eq!(s.resident_bytes(), 64 * MB);
    }

    #[test]
    fn scattered_sequence_pays_underfilled_batches() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), 64 * MB);
        // One fault every 300 resident touches: every batch drains partial.
        let mut touches = Vec::new();
        for i in 0..8u64 {
            touches.push(ChunkTouch {
                chunk: ChunkId::new(i * 100),
                write: false,
                host_backed: true,
            });
            for _ in 0..300 {
                touches.push(ChunkTouch {
                    chunk: ChunkId::new(i * 100),
                    write: false,
                    host_backed: true,
                });
            }
        }
        let r = replay(&mut s, &touches);
        assert_eq!(r.chunks, 8);
        assert_eq!(r.batches, 8, "every fault drains its own batch");
        let dense_stall = UvmConfig::a100().fault.service_stall(8);
        assert!(
            r.stall > dense_stall * 6,
            "scattered {} vs dense {}",
            r.stall,
            dense_stall
        );
    }

    #[test]
    fn sequence_counts_refaults_after_displacement() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB); // 16 chunks
        let touches = seq(&(0..16).collect::<Vec<_>>(), false, true);
        replay(&mut s, &touches);
        assert_eq!(s.counters().refaults(), 0);
        s.displace_fraction(Addr::new(0), MB, 1.0);
        let r = replay(&mut s, &touches);
        assert!(r.chunks > 0);
        assert_eq!(s.counters().refaults(), r.chunks, "every fault re-faults");
    }

    #[test]
    fn sequence_on_resident_data_is_free() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        let touches = seq(&(0..16).collect::<Vec<_>>(), false, true);
        replay(&mut s, &touches);
        let r = replay(&mut s, &touches);
        assert_eq!(r, FaultReport::default());
    }

    #[test]
    fn first_touch_output_sequence_moves_nothing() {
        let mut s = space();
        s.managed_alloc(Addr::new(0), MB);
        let touches = seq(&(0..16).collect::<Vec<_>>(), true, false);
        let r = replay(&mut s, &touches);
        assert!(r.chunks > 0);
        assert_eq!(r.transfer, Nanos::ZERO, "no host backing, no link time");
        assert_eq!(s.counters().pages_migrated(), 0);
        let wb = s.writeback_dirty(Addr::new(0), MB, LinkPath::DemandMigration, &link());
        assert!(wb > Nanos::ZERO, "writes marked the chunks dirty");
    }

    #[test]
    fn sequence_refaults_under_oversubscription() {
        let mut cfg = UvmConfig::a100();
        cfg.device_capacity = 8 * cfg.chunk_size;
        let mut s = UvmSpace::new(cfg);
        s.managed_alloc(Addr::new(0), 32 * cfg.chunk_size);
        let pass: Vec<u64> = (0..32).collect();
        let touches = seq(&pass, false, true);
        replay(&mut s, &touches);
        // The second pass re-touches data the first pass already evicted.
        replay(&mut s, &touches);
        assert!(s.counters().refaults() > 0, "re-touch must thrash");
        assert!(s.counters().pages_evicted() > 0);
        assert!(s.resident_bytes() <= cfg.device_capacity);
    }
}
