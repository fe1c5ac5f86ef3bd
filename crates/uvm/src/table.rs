//! The device-side page table with chunk-granular residency and LRU
//! eviction.
//!
//! GPUs keep "a copy of the CPU virtual memory physical memory mapping" when
//! UVM is in use (§2.1); the simulator reduces that to the single question
//! the timing model needs: *is this chunk resident on the device right now?*
//!
//! # Layout
//!
//! Managed allocations register dense runs of chunk ids (one contiguous
//! range per buffer), so the table keeps per-chunk state in one
//! append-only *slot arena* instead of a hash map, and threads an
//! intrusive doubly-linked LRU list through the slots instead of keeping a
//! separate ordered index. A slot is named by its `u32` arena index, which
//! never changes, so the LRU links never go stale. A slot is a flag byte
//! plus two `u32` links: 12 bytes per 64 KiB chunk.
//!
//! The arena lives in fixed-size blocks of 2^17 slots (1.5 MiB, 8 GiB of
//! managed memory at 64 KiB chunks). Only the last, partly filled block
//! grows, by doubling, so a small table holds only its slots; a full block
//! is never copied. Registration therefore stays amortized O(1) per chunk,
//! and growth never holds two copies of the arena — at most of one block.
//!
//! A *region* maps a dense run of chunk ids onto consecutive arena slots:
//! `(start chunk, arena base, len)`. Registering chunks no region covers
//! extends the previous region only when that region is address-adjacent
//! *and* ends the arena; any other gap becomes a new region at the end of
//! the arena. Regions are therefore created in arena order, which is how a
//! slot finds its chunk again (binary search over region bases), while a
//! second, address-sorted index serves chunk lookups and range walks.
//!
//! The arena holds at most 2^32 − 1 slots (one index is the LRU list's
//! terminator); [`PageTable::register_range`] panics past that.
//!
//! # Range walks
//!
//! Range operations resolve slots once per region, not once per chunk.
//! [`PageTable::register_range`] resets the part of a range that overlaps
//! existing regions and appends the rest, one region extension or insert
//! per gap; [`UvmSpace`](crate::space::UvmSpace) walks every other range
//! (touch, prefetch, displacement, write-back, free) as per-region slot
//! runs from one binary search, driving a crate-private slot API keyed by
//! slot reference. The public per-chunk methods wrap the same slot
//! operations.
//!
//! Each slot also carries the *refault bit*: set when the chunk leaves the
//! device (LRU eviction or prefetch displacement), cleared when the chunk
//! is registered or unregistered. A later fault on a slot with the bit set
//! is a refault — the thrashing signature of re-touch workloads under
//! memory pressure.

use crate::page::ChunkId;
use std::ops::Range;

/// Reference to one slot: its index in the arena. Doubles as the link
/// type of the intrusive LRU list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRef(u32);

/// The list-terminator sentinel; no slot has this index.
const NIL: SlotRef = SlotRef(u32::MAX);

impl SlotRef {
    fn is_nil(self) -> bool {
        self == NIL
    }
}

/// Most slots the arena holds: every `u32` index except [`NIL`]'s.
const MAX_SLOTS: u64 = u32::MAX as u64;

/// Slot state bits.
const MANAGED: u8 = 1;
/// Device-resident (on the LRU list); implies `MANAGED`.
const RESIDENT: u8 = 1 << 1;
const DIRTY: u8 = 1 << 2;
/// The refault bit: the chunk has left the device since registration.
const EVICTED: u8 = 1 << 3;
/// Scratch mark of a two-pass range walk, clear between operations.
const PENDING: u8 = 1 << 4;

/// Per-chunk page-table state plus its LRU links. `prev`/`next` are only
/// meaningful while the chunk is device-resident (on the LRU list).
#[derive(Debug, Clone, Copy)]
struct Slot {
    flags: u8,
    prev: SlotRef,
    next: SlotRef,
}

impl Slot {
    /// A freshly registered, host-resident, clean chunk.
    const FRESH: Slot = Slot {
        flags: MANAGED,
        prev: NIL,
        next: NIL,
    };

    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// Slots per arena block, a power of two (1.5 MiB of slots).
const BLOCK_BITS: u32 = 17;
const BLOCK_SLOTS: usize = 1 << BLOCK_BITS;

/// The append-only slot arena: blocks of [`BLOCK_SLOTS`] slots. Only the
/// last block grows, doubling up to its fixed size, so a small table
/// allocates only the slots it holds; a full block never moves.
#[derive(Debug, Clone, Default)]
struct Arena {
    blocks: Vec<Vec<Slot>>,
    len: u32,
}

impl Arena {
    fn get(&self, r: SlotRef) -> &Slot {
        &self.blocks[(r.0 >> BLOCK_BITS) as usize][r.0 as usize & (BLOCK_SLOTS - 1)]
    }

    fn get_mut(&mut self, r: SlotRef) -> &mut Slot {
        &mut self.blocks[(r.0 >> BLOCK_BITS) as usize][r.0 as usize & (BLOCK_SLOTS - 1)]
    }

    /// Appends `n` fresh slots, returning the index of the first.
    fn push_fresh(&mut self, n: u64) -> u32 {
        let base = self.len;
        self.len = arena_end(base, n);
        let mut left = n as usize;
        while left > 0 {
            if self.blocks.last().is_none_or(|b| b.len() == BLOCK_SLOTS) {
                self.blocks.push(Vec::new());
            }
            let block = self.blocks.last_mut().expect("a block with room");
            let take = left.min(BLOCK_SLOTS - block.len());
            if block.capacity() < block.len() + take {
                let want = (block.len() + take)
                    .max(2 * block.capacity())
                    .min(BLOCK_SLOTS);
                block.reserve_exact(want - block.len());
            }
            block.resize(block.len() + take, Slot::FRESH);
            left -= take;
        }
        base
    }
}

/// The arena length after appending `n` slots at `base`.
///
/// # Panics
///
/// Panics if that exceeds [`MAX_SLOTS`].
fn arena_end(base: u32, n: u64) -> u32 {
    let end = base as u64 + n;
    assert!(
        end <= MAX_SLOTS,
        "page table full: registering {n} more chunks would exceed the \
         limit of {MAX_SLOTS} (2^32 - 1) chunk slots"
    );
    end as u32
}

/// One dense run of chunk ids starting at `start`, stored in the arena
/// slots `base..base + len`.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: u64,
    base: u32,
    len: u32,
}

impl Region {
    fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    /// The slot of chunk id `idx`, which the region must cover.
    fn slot_at(&self, idx: u64) -> u32 {
        self.base + (idx - self.start) as u32
    }
}

/// Consecutive slots of one region, yielded as [`SlotRef`]s in address
/// order.
#[derive(Debug, Clone)]
pub(crate) struct SlotRun(Range<u32>);

impl Iterator for SlotRun {
    type Item = SlotRef;

    fn next(&mut self) -> Option<SlotRef> {
        self.0.next().map(SlotRef)
    }
}

/// One piece of a chunk range, in address order.
#[derive(Debug, Clone)]
pub(crate) enum Span {
    /// Registered slots of one region.
    Slots(SlotRun),
    /// This many chunk ids no region covers.
    Gap(u64),
}

/// Cursor of a span walk over a chunk range. It holds no borrow of the
/// table, so the caller may change slot state between spans — but not the
/// region layout (only `register_range` does, keeping its cursor in step).
#[derive(Debug, Clone)]
pub(crate) struct Spans {
    /// Position in the address-sorted region index.
    pos: usize,
    next: u64,
    end: u64,
}

/// The device page table for one managed address space.
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Every slot, in registration order.
    arena: Arena,
    /// Regions in arena order (ascending `base`); they never overlap.
    regions: Vec<Region>,
    /// Region ids (indices into `regions`) sorted by `start`.
    order: Vec<u32>,
    /// Intrusive LRU list over device-resident slots (head = oldest).
    head: SlotRef,
    tail: SlotRef,
    managed: usize,
    resident: usize,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable::new()
    }
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable {
            arena: Arena::default(),
            regions: Vec::new(),
            order: Vec::new(),
            head: NIL,
            tail: NIL,
            managed: 0,
            resident: 0,
        }
    }

    fn region(&self, id: u32) -> &Region {
        &self.regions[id as usize]
    }

    /// Index into `order` of the first region ending after `idx` — a
    /// binary search over the per-buffer regions (a handful), not the
    /// chunks.
    fn first_ending_after(&self, idx: u64) -> usize {
        self.order
            .partition_point(|&id| self.region(id).end() <= idx)
    }

    /// The slot of `chunk`, if a region covers it (managed or not).
    pub(crate) fn find(&self, chunk: ChunkId) -> Option<SlotRef> {
        let idx = chunk.index();
        let &id = self.order.get(self.first_ending_after(idx))?;
        let region = self.region(id);
        (region.start <= idx).then(|| SlotRef(region.slot_at(idx)))
    }

    /// Starts a span walk over the chunk ids `chunks`.
    pub(crate) fn spans(&self, chunks: Range<u64>) -> Spans {
        Spans {
            pos: self.first_ending_after(chunks.start),
            next: chunks.start,
            end: chunks.end,
        }
    }

    /// The next span of a walk, `None` once the range is exhausted.
    pub(crate) fn next_span(&self, walk: &mut Spans) -> Option<Span> {
        if walk.next >= walk.end {
            return None;
        }
        match self.order.get(walk.pos) {
            Some(&id) if self.region(id).start <= walk.next => {
                let region = self.region(id);
                let hi = region.end().min(walk.end);
                let run = SlotRun(region.slot_at(walk.next)..region.slot_at(hi));
                walk.next = hi;
                walk.pos += 1;
                Some(Span::Slots(run))
            }
            following => {
                let hi = following.map_or(walk.end, |&id| self.region(id).start.min(walk.end));
                let len = hi - walk.next;
                walk.next = hi;
                Some(Span::Gap(len))
            }
        }
    }

    fn slot(&self, r: SlotRef) -> &Slot {
        self.arena.get(r)
    }

    fn slot_mut(&mut self, r: SlotRef) -> &mut Slot {
        self.arena.get_mut(r)
    }

    /// The chunk a slot holds: its region is the last one based at or
    /// below it.
    fn chunk_of(&self, r: SlotRef) -> ChunkId {
        let region = &self.regions[self.regions.partition_point(|g| g.base <= r.0) - 1];
        ChunkId::new(region.start + (r.0 - region.base) as u64)
    }

    // ---- intrusive LRU list ----

    fn lru_unlink(&mut self, r: SlotRef) {
        let (prev, next) = {
            let s = self.slot(r);
            (s.prev, s.next)
        };
        if prev.is_nil() {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next.is_nil() {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
        let s = self.slot_mut(r);
        s.prev = NIL;
        s.next = NIL;
    }

    fn lru_push_back(&mut self, r: SlotRef) {
        let old_tail = self.tail;
        {
            let s = self.slot_mut(r);
            s.prev = old_tail;
            s.next = NIL;
        }
        if old_tail.is_nil() {
            self.head = r;
        } else {
            self.slot_mut(old_tail).next = r;
        }
        self.tail = r;
    }

    // ---- slot API (range walks) ----

    /// Whether the slot's chunk is managed.
    pub(crate) fn slot_is_managed(&self, r: SlotRef) -> bool {
        self.slot(r).has(MANAGED)
    }

    /// Whether the slot's chunk is device-resident.
    pub(crate) fn slot_is_resident(&self, r: SlotRef) -> bool {
        self.slot(r).has(RESIDENT)
    }

    /// The slot's refault bit.
    pub(crate) fn slot_was_evicted(&self, r: SlotRef) -> bool {
        self.slot(r).has(EVICTED)
    }

    /// Records a device access to a managed slot: bumps LRU, marks dirty
    /// for writes.
    pub(crate) fn touch_slot(&mut self, r: SlotRef, write: bool) {
        // Bumping the tail is a no-op, and the common case right after a
        // fault made the slot resident.
        if self.slot(r).has(RESIDENT) && self.tail != r {
            self.lru_unlink(r);
            self.lru_push_back(r);
        }
        if write {
            self.slot_mut(r).flags |= DIRTY;
        }
    }

    /// Marks a slot device-resident (after migration or prefetch) and most
    /// recently used.
    ///
    /// # Panics
    ///
    /// Panics if the slot's chunk is not managed.
    pub(crate) fn make_slot_resident(&mut self, r: SlotRef) {
        let flags = self.slot(r).flags;
        assert!(flags & MANAGED != 0, "made unmanaged chunk resident");
        if flags & RESIDENT != 0 {
            self.lru_unlink(r);
        } else {
            self.slot_mut(r).flags |= RESIDENT;
            self.resident += 1;
        }
        self.lru_push_back(r);
    }

    /// Clears a slot's dirty bit, returning whether it was set.
    pub(crate) fn clear_slot_dirty(&mut self, r: SlotRef) -> bool {
        let s = self.slot_mut(r);
        let dirty = s.has(DIRTY);
        s.flags &= !DIRTY;
        dirty
    }

    /// Returns a resident slot to the host without writeback — a fresh
    /// registration that keeps the refault bit set.
    pub(crate) fn displace_slot(&mut self, r: SlotRef) {
        debug_assert!(self.slot_is_resident(r), "displaced a host-resident chunk");
        self.lru_unlink(r);
        self.resident -= 1;
        self.slot_mut(r).flags = MANAGED | EVICTED;
    }

    /// Unregisters a slot (free), returning whether it was dirty on the
    /// device (needs writeback). Unmanaged slots are a no-op.
    pub(crate) fn unregister_slot(&mut self, r: SlotRef) -> bool {
        let flags = self.slot(r).flags;
        if flags & MANAGED == 0 {
            return false;
        }
        if flags & RESIDENT != 0 {
            self.lru_unlink(r);
            self.resident -= 1;
        }
        self.managed -= 1;
        self.slot_mut(r).flags = 0;
        flags & RESIDENT != 0 && flags & DIRTY != 0
    }

    /// Sets a slot's scratch mark.
    pub(crate) fn mark_slot(&mut self, r: SlotRef) {
        self.slot_mut(r).flags |= PENDING;
    }

    /// Clears a slot's scratch mark, returning whether it was set.
    pub(crate) fn take_slot_mark(&mut self, r: SlotRef) -> bool {
        let s = self.slot_mut(r);
        let marked = s.has(PENDING);
        s.flags &= !PENDING;
        marked
    }

    // ---- per-chunk and whole-range API ----

    /// Registers the chunk ids `chunks` as managed, initially
    /// host-resident, in one walk, and returns how many of them were
    /// device-resident before.
    ///
    /// Re-registering existing chunks resets them to host residency (a
    /// fresh allocation reusing the address range). The rest of the range
    /// is appended to the slot arena: each gap extends the region it is
    /// dense-adjacent to when that region ends the arena, and becomes a
    /// new region otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed 2^32 − 1 slots.
    pub fn register_range(&mut self, chunks: Range<u64>) -> usize {
        let mut was_resident = 0;
        let mut walk = self.spans(chunks);
        while let Some(span) = self.next_span(&mut walk) {
            match span {
                Span::Slots(run) => {
                    for r in run {
                        let flags = self.slot(r).flags;
                        if flags & RESIDENT != 0 {
                            self.lru_unlink(r);
                            self.resident -= 1;
                            was_resident += 1;
                        }
                        if flags & MANAGED == 0 {
                            self.managed += 1;
                        }
                        *self.slot_mut(r) = Slot::FRESH;
                    }
                }
                Span::Gap(len) => {
                    let start = walk.next - len;
                    let base = self.arena.push_fresh(len);
                    // The walk's previous region is the one ending at or
                    // before the gap; it absorbs the gap only if both its
                    // chunk ids and its slots run straight into it.
                    match walk.pos.checked_sub(1).map(|p| self.order[p]) {
                        Some(prev)
                            if self.region(prev).end() == start
                                && self.region(prev).base + self.region(prev).len == base =>
                        {
                            self.regions[prev as usize].len += len as u32;
                        }
                        _ => {
                            self.order.insert(walk.pos, self.regions.len() as u32);
                            self.regions.push(Region {
                                start,
                                base,
                                len: len as u32,
                            });
                            walk.pos += 1;
                        }
                    }
                    self.managed += len as usize;
                }
            }
        }
        was_resident
    }

    /// Registers a chunk as managed, initially host-resident.
    ///
    /// Re-registering an existing chunk resets it to host residency (a
    /// fresh allocation reusing the address range).
    pub fn register(&mut self, chunk: ChunkId) {
        self.register_range(chunk.index()..chunk.index() + 1);
    }

    fn managed_ref(&self, chunk: ChunkId) -> Option<SlotRef> {
        self.find(chunk).filter(|&r| self.slot_is_managed(r))
    }

    /// Whether the chunk is registered at all.
    pub fn is_managed(&self, chunk: ChunkId) -> bool {
        self.managed_ref(chunk).is_some()
    }

    /// Whether the chunk is resident on the device.
    pub fn is_resident(&self, chunk: ChunkId) -> bool {
        self.find(chunk).is_some_and(|r| self.slot_is_resident(r))
    }

    /// Whether the chunk has left the device (LRU eviction or
    /// displacement) since it was registered: its next fault is a refault.
    pub fn was_evicted(&self, chunk: ChunkId) -> bool {
        self.find(chunk).is_some_and(|r| self.slot_was_evicted(r))
    }

    /// Records a device access: bumps LRU, marks dirty for writes.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not managed — touching unmanaged memory is a
    /// simulator bug, the analogue of a real segfault.
    pub fn touch(&mut self, chunk: ChunkId, write: bool) {
        let r = self.managed_ref(chunk).expect("touched unmanaged chunk");
        self.touch_slot(r, write);
    }

    /// Marks a chunk device-resident (after migration or prefetch).
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not managed.
    pub fn make_resident(&mut self, chunk: ChunkId) {
        let r = self.find(chunk).expect("made unmanaged chunk resident");
        self.make_slot_resident(r);
    }

    /// Clears a chunk's dirty bit after a writeback; residency is kept.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not managed.
    pub fn clear_dirty(&mut self, chunk: ChunkId) {
        let r = self
            .managed_ref(chunk)
            .expect("cleared dirty on unmanaged chunk");
        self.clear_slot_dirty(r);
    }

    /// Evicts the least-recently-used device-resident chunk back to the
    /// host, returning `(chunk, was_dirty)`; `None` if nothing is resident.
    /// The victim's refault bit is set.
    pub fn evict_lru(&mut self) -> Option<(ChunkId, bool)> {
        let victim = self.head;
        if victim.is_nil() {
            return None;
        }
        self.lru_unlink(victim);
        self.resident -= 1;
        let s = self.slot_mut(victim);
        let dirty = s.has(DIRTY);
        s.flags = (s.flags & !(RESIDENT | DIRTY)) | EVICTED;
        Some((self.chunk_of(victim), dirty))
    }

    /// Unregisters a chunk (free), returning whether it was dirty on the
    /// device (needs writeback).
    pub fn unregister(&mut self, chunk: ChunkId) -> bool {
        self.find(chunk).is_some_and(|r| self.unregister_slot(r))
    }

    /// Number of managed chunks.
    pub fn managed_count(&self) -> usize {
        self.managed
    }

    /// Number of device-resident chunks.
    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// Chunks that are both device-resident and dirty, in ascending chunk
    /// order.
    pub fn dirty_resident(&self) -> Vec<ChunkId> {
        let mut v = Vec::new();
        for &id in &self.order {
            let region = self.region(id);
            for (off, r) in (region.base..region.base + region.len).enumerate() {
                let s = self.slot(SlotRef(r));
                if s.has(RESIDENT) && s.has(DIRTY) {
                    v.push(ChunkId::new(region.start + off as u64));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u64) -> ChunkId {
        ChunkId::new(i)
    }

    #[test]
    fn register_starts_host_resident() {
        let mut t = PageTable::new();
        t.register(c(0));
        assert!(t.is_managed(c(0)));
        assert!(!t.is_resident(c(0)));
        assert_eq!(t.managed_count(), 1);
        assert_eq!(t.resident_count(), 0);
    }

    #[test]
    fn migration_flow() {
        let mut t = PageTable::new();
        t.register(c(1));
        t.make_resident(c(1));
        assert!(t.is_resident(c(1)));
        assert_eq!(t.resident_count(), 1);
    }

    #[test]
    fn touch_marks_dirty() {
        let mut t = PageTable::new();
        t.register(c(2));
        t.make_resident(c(2));
        t.touch(c(2), false);
        assert!(t.dirty_resident().is_empty());
        t.touch(c(2), true);
        assert_eq!(t.dirty_resident(), vec![c(2)]);
    }

    #[test]
    fn evict_lru_picks_oldest() {
        let mut t = PageTable::new();
        for i in 0..3 {
            t.register(c(i));
            t.make_resident(c(i));
        }
        t.touch(c(0), false); // refresh chunk 0: chunk 1 is now LRU
        let (victim, dirty) = t.evict_lru().unwrap();
        assert_eq!(victim, c(1));
        assert!(!dirty);
        assert!(!t.is_resident(c(1)));
        assert!(t.is_managed(c(1)), "eviction keeps the mapping");
    }

    #[test]
    fn evict_reports_dirty() {
        let mut t = PageTable::new();
        t.register(c(0));
        t.make_resident(c(0));
        t.touch(c(0), true);
        let (_, dirty) = t.evict_lru().unwrap();
        assert!(dirty);
        assert_eq!(t.evict_lru(), None, "nothing left resident");
    }

    #[test]
    fn unregister_reports_writeback_need() {
        let mut t = PageTable::new();
        t.register(c(0));
        t.make_resident(c(0));
        t.touch(c(0), true);
        assert!(t.unregister(c(0)));
        assert!(!t.unregister(c(0)), "double free is a no-op");
        assert_eq!(t.managed_count(), 0);
        assert_eq!(t.resident_count(), 0);
    }

    #[test]
    fn reregister_resets_state() {
        let mut t = PageTable::new();
        t.register(c(0));
        t.make_resident(c(0));
        t.touch(c(0), true);
        t.register(c(0));
        assert!(!t.is_resident(c(0)));
        assert!(t.dirty_resident().is_empty());
        assert_eq!(t.resident_count(), 0, "LRU index must forget the chunk");
    }

    #[test]
    fn lru_index_stays_consistent_under_churn() {
        let mut t = PageTable::new();
        for i in 0..100 {
            t.register(c(i));
            t.make_resident(c(i));
        }
        for i in 0..100 {
            t.touch(c(i % 7), i % 2 == 0);
        }
        let mut evicted = 0;
        while t.evict_lru().is_some() {
            evicted += 1;
        }
        assert_eq!(evicted, 100);
        assert_eq!(t.resident_count(), 0);
        assert_eq!(t.managed_count(), 100);
    }

    #[test]
    fn disjoint_regions_stay_independent() {
        // Two buffers far apart in the address space: two dense regions.
        let mut t = PageTable::new();
        for i in 0..8 {
            t.register(c(i));
            t.register(c((1 << 26) + i));
        }
        assert_eq!(t.managed_count(), 16);
        assert!(t.is_managed(c(7)));
        assert!(t.is_managed(c((1 << 26) + 7)));
        assert!(!t.is_managed(c(8)));
        assert!(!t.is_managed(c((1 << 26) - 1)));
        t.make_resident(c(3));
        t.make_resident(c((1 << 26) + 5));
        assert_eq!(t.evict_lru().unwrap().0, c(3), "LRU order spans regions");
        assert_eq!(t.evict_lru().unwrap().0, c((1 << 26) + 5));
    }

    #[test]
    fn region_inserted_below_keeps_lru_links_valid() {
        // A buffer registered below a resident one inserts a region in
        // front of it; the resident slots' links must still resolve.
        let mut t = PageTable::new();
        t.register_range(100..104);
        for i in 100..104 {
            t.make_resident(c(i));
        }
        t.register_range(0..4);
        t.make_resident(c(2));
        let order: Vec<u64> = std::iter::from_fn(|| t.evict_lru())
            .map(|(chunk, _)| chunk.index())
            .collect();
        assert_eq!(order, [100, 101, 102, 103, 2]);
    }

    #[test]
    fn register_range_spans_regions_and_gaps() {
        let mut t = PageTable::new();
        t.register_range(4..6);
        t.register_range(10..12);
        t.make_resident(c(5));
        t.make_resident(c(10));
        assert_eq!(t.register_range(0..16), 2, "two resident chunks reset");
        assert_eq!(t.managed_count(), 16);
        assert_eq!(t.resident_count(), 0);
        assert!((0..16).all(|i| t.is_managed(c(i))));
        assert!(!t.is_managed(c(16)));
    }

    #[test]
    fn refault_bit_follows_eviction_and_registration() {
        let mut t = PageTable::new();
        t.register_range(0..2);
        t.make_resident(c(0));
        assert!(!t.was_evicted(c(0)));
        t.evict_lru();
        assert!(t.was_evicted(c(0)));
        t.make_resident(c(0));
        assert!(t.was_evicted(c(0)), "the bit survives re-migration");
        t.register(c(0));
        assert!(!t.was_evicted(c(0)), "registration clears it");
        t.make_resident(c(0));
        t.evict_lru();
        t.unregister(c(0));
        assert!(!t.was_evicted(c(0)), "unregistration clears it");
    }

    #[test]
    fn spans_split_regions_and_gaps() {
        let mut t = PageTable::new();
        t.register_range(2..4);
        t.register_range(4..5); // adjacent: extends the region
        t.register_range(8..10);
        let mut walk = t.spans(0..12);
        let mut seen = Vec::new();
        while let Some(span) = t.next_span(&mut walk) {
            seen.push(match span {
                Span::Slots(run) => run.map(|r| t.chunk_of(r).index()).collect(),
                Span::Gap(len) => vec![u64::MAX; len as usize],
            });
        }
        let gap = |n| vec![u64::MAX; n];
        assert_eq!(seen, [gap(2), vec![2, 3, 4], gap(3), vec![8, 9], gap(2)]);
    }

    #[test]
    fn unregistered_slot_in_dense_region_acts_unmanaged() {
        let mut t = PageTable::new();
        for i in 0..4 {
            t.register(c(i));
        }
        t.unregister(c(2));
        assert!(!t.is_managed(c(2)));
        assert!(t.is_managed(c(1)) && t.is_managed(c(3)));
        // Re-registering the hole restores it without growing the count
        // past the dense range.
        t.register(c(2));
        assert_eq!(t.managed_count(), 4);
    }

    #[test]
    fn slot_is_a_flag_byte_and_two_u32_links() {
        assert_eq!(std::mem::size_of::<Slot>(), 12);
    }

    #[test]
    fn gap_extends_only_the_region_ending_the_arena() {
        // Per-chunk registration of two interleaved ranges: after the
        // first chunk of the second range, the first range's region no
        // longer ends the arena, so its next chunk opens a new region.
        let mut t = PageTable::new();
        for i in 0..3 {
            t.register(c(i));
            t.register(c(100 + i));
        }
        assert_eq!(
            t.regions.len(),
            6,
            "every chunk after the first switch opens a region"
        );
        t.register_range(3..5);
        t.register_range(5..7);
        assert_eq!(t.regions.len(), 7, "a run at the arena end keeps extending");
        assert_eq!(t.arena.len, 10);
        for i in (0..7).chain(100..103) {
            let r = t.find(c(i)).expect("registered");
            assert_eq!(t.chunk_of(r), c(i), "slot {} maps back to its chunk", r.0);
        }
    }

    #[test]
    fn arena_blocks_hold_every_slot_once() {
        let mut t = PageTable::new();
        let n = 2 * BLOCK_SLOTS as u64 + 5;
        t.register_range(0..n);
        let capacities: Vec<usize> = t.arena.blocks.iter().map(Vec::capacity).collect();
        assert_eq!(
            capacities,
            [BLOCK_SLOTS, BLOCK_SLOTS, 5],
            "full blocks, then what is held"
        );
        t.make_resident(c(n - 1));
        t.make_resident(c(0));
        t.make_resident(c(BLOCK_SLOTS as u64));
        let order: Vec<u64> = std::iter::from_fn(|| t.evict_lru())
            .map(|(chunk, _)| chunk.index())
            .collect();
        assert_eq!(order, [n - 1, 0, BLOCK_SLOTS as u64]);

        // Chunk-by-chunk registration doubles the last block: amortized
        // O(1) per chunk, and a small table holds about its slots.
        let mut t = PageTable::new();
        for i in 0..100 {
            t.register(c(2 * i));
        }
        assert_eq!(t.arena.blocks.len(), 1);
        assert_eq!(t.arena.blocks[0].capacity(), 128);
    }

    #[test]
    #[should_panic(expected = "limit of 4294967295 (2^32 - 1) chunk slots")]
    fn arena_past_u32_slots_panics() {
        arena_end(u32::MAX - 3, 4);
    }

    #[test]
    fn arena_may_fill_to_the_limit() {
        assert_eq!(arena_end(u32::MAX - 3, 3), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "unmanaged")]
    fn touching_unmanaged_panics() {
        let mut t = PageTable::new();
        t.touch(c(9), false);
    }
}
