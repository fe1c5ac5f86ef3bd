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
//! append-only *slot arena* instead of a hash map. A slot is named by its
//! `u32` arena index, which never changes. A slot is a flag byte plus a
//! `u32` last-use stamp, kept as two parallel arrays (structure of
//! arrays): 5 bytes per 64 KiB chunk, and a range walk reads the flags and
//! stamps of consecutive slots as two contiguous slices.
//!
//! The arena lives in fixed-size blocks of 2^17 slots (640 KiB, 8 GiB of
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
//! The arena holds at most 2^32 − 1 slots (its length is a `u32`);
//! [`PageTable::register_range`] panics past that.
//!
//! # LRU by recency stamps
//!
//! Every access to a device-resident slot, and every move onto the
//! device, writes the table's clock into the slot's stamp and advances
//! the clock, so the least recently used resident slot is the one with
//! the smallest stamp. A touch is a store, not an unlink and relink.
//!
//! Eviction pops from a *victim order*: the resident slots as packed
//! `stamp << 32 | slot` words in ascending order, built (one scan of the
//! flags, one sort) only when an eviction finds it used up, so a table
//! that never evicts never builds it. Every stamp handed out after a
//! build is larger than every stamp in it, so the order's still-current
//! entries are exactly the oldest resident slots, oldest first. An entry
//! whose slot has since left the device or been re-stamped is skipped; a
//! re-stamped slot is found again by the next build.
//!
//! The clock is a `u32`. Before it would pass `u32::MAX`, a renumbering
//! pass re-stamps the resident slots `0, 1, 2, …` in LRU order and
//! rewrites the victim order to match, so eviction order survives.
//!
//! # Range walks
//!
//! Range operations resolve slots once per region, not once per chunk.
//! [`PageTable::register_range`] resets the part of a range that overlaps
//! existing regions and appends the rest, one region extension or insert
//! per gap; [`UvmSpace`](crate::space::UvmSpace) walks every other range
//! (touch, prefetch, displacement, write-back, free) as per-region slot
//! runs from one binary search. Each run is one tight loop over the flag
//! and stamp slices of its arena blocks. A loop that moves chunks onto the
//! device takes a count of free device chunks and stops at the first slot
//! that would need an eviction; the space evicts through the per-slot API
//! for that slot and resumes the loop. The public per-chunk methods wrap
//! the same slot operations.
//!
//! Each slot also carries the *refault bit*: set when the chunk leaves the
//! device (LRU eviction or prefetch displacement), cleared when the chunk
//! is registered or unregistered. A later fault on a slot with the bit set
//! is a refault — the thrashing signature of re-touch workloads under
//! memory pressure.

use crate::page::ChunkId;
use std::ops::Range;

/// Reference to one slot: its index in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRef(u32);

/// Most slots the arena holds: the largest `u32` length.
const MAX_SLOTS: u64 = u32::MAX as u64;

/// Slot state bits.
const MANAGED: u8 = 1;
/// Device-resident (in the LRU order); implies `MANAGED`.
const RESIDENT: u8 = 1 << 1;
const DIRTY: u8 = 1 << 2;
/// The refault bit: the chunk has left the device since registration.
const EVICTED: u8 = 1 << 3;
/// Scratch mark of a two-pass range walk, clear between operations.
const PENDING: u8 = 1 << 4;

/// Slots per arena block, a power of two (640 KiB of flags and stamps).
const BLOCK_BITS: u32 = 17;
const BLOCK_SLOTS: usize = 1 << BLOCK_BITS;

/// One arena block: the flags and last-use stamps of up to
/// [`BLOCK_SLOTS`] slots, index for index. A stamp is only meaningful
/// while its slot is device-resident.
#[derive(Debug, Clone, Default)]
struct Block {
    flags: Vec<u8>,
    stamps: Vec<u32>,
}

/// The append-only slot arena: blocks of [`BLOCK_SLOTS`] slots. Only the
/// last block grows, doubling up to its fixed size, so a small table
/// allocates only the slots it holds; a full block never moves.
#[derive(Debug, Clone, Default)]
struct Arena {
    blocks: Vec<Block>,
    len: u32,
}

/// The block of slot `r` and its index inside it.
fn block_of(r: u32) -> (usize, usize) {
    ((r >> BLOCK_BITS) as usize, r as usize & (BLOCK_SLOTS - 1))
}

/// Splits the slots `run` at block boundaries, in order.
fn pieces(run: Range<u32>) -> impl Iterator<Item = Range<u32>> {
    let mut lo = run.start;
    std::iter::from_fn(move || {
        (lo < run.end).then(|| {
            let block_end = ((lo as u64 >> BLOCK_BITS) + 1) << BLOCK_BITS;
            let hi = block_end.min(run.end as u64) as u32;
            let piece = lo..hi;
            lo = hi;
            piece
        })
    })
}

impl Arena {
    fn flags(&self, r: SlotRef) -> u8 {
        let (b, i) = block_of(r.0);
        self.blocks[b].flags[i]
    }

    fn flags_mut(&mut self, r: SlotRef) -> &mut u8 {
        let (b, i) = block_of(r.0);
        &mut self.blocks[b].flags[i]
    }

    fn stamp(&self, r: SlotRef) -> u32 {
        let (b, i) = block_of(r.0);
        self.blocks[b].stamps[i]
    }

    fn set_stamp(&mut self, r: SlotRef, stamp: u32) {
        let (b, i) = block_of(r.0);
        self.blocks[b].stamps[i] = stamp;
    }

    /// The flags of the slots `piece`, which lie in one block.
    fn piece_flags(&self, piece: &Range<u32>) -> &[u8] {
        let (b, i) = block_of(piece.start);
        &self.blocks[b].flags[i..i + piece.len()]
    }

    /// The flags and stamps of the slots `piece`, which lie in one block.
    fn piece_mut(&mut self, piece: &Range<u32>) -> (&mut [u8], &mut [u32]) {
        let (b, i) = block_of(piece.start);
        let block = &mut self.blocks[b];
        let n = piece.len();
        (&mut block.flags[i..i + n], &mut block.stamps[i..i + n])
    }

    /// Calls `f` on the flags of the slots `run`, in order.
    fn for_each_flag(&mut self, run: Range<u32>, mut f: impl FnMut(&mut u8)) {
        for piece in pieces(run) {
            self.piece_mut(&piece).0.iter_mut().for_each(&mut f);
        }
    }

    /// Appends `n` fresh slots, returning the index of the first.
    fn push_fresh(&mut self, n: u64) -> u32 {
        let base = self.len;
        self.len = arena_end(base, n);
        let mut left = n as usize;
        while left > 0 {
            if self
                .blocks
                .last()
                .is_none_or(|b| b.flags.len() == BLOCK_SLOTS)
            {
                self.blocks.push(Block::default());
            }
            let block = self.blocks.last_mut().expect("a block with room");
            let len = block.flags.len();
            let take = left.min(BLOCK_SLOTS - len);
            if block.flags.capacity() < len + take {
                let want = (len + take)
                    .max(2 * block.flags.capacity())
                    .min(BLOCK_SLOTS);
                block.flags.reserve_exact(want - len);
                block.stamps.reserve_exact(want - len);
            }
            block.flags.resize(len + take, MANAGED);
            block.stamps.resize(len + take, 0);
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
/// order. The tight run walks consume it from the front.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotRun(Range<u32>);

impl SlotRun {
    /// Number of slots left in the run.
    pub(crate) fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// The `i`-th slot of the run and the slots after it, if the run is
    /// that long.
    pub(crate) fn split_at(&self, i: u64) -> Option<(SlotRef, SlotRun)> {
        (i < self.len()).then(|| {
            let r = self.0.start + i as u32;
            (SlotRef(r), SlotRun(r + 1..self.0.end))
        })
    }

    /// Removes and returns the first `n` slots (all, if fewer).
    pub(crate) fn take_front(&mut self, n: u64) -> SlotRun {
        let mid = self.0.start + n.min(self.len()) as u32;
        let front = SlotRun(self.0.start..mid);
        self.0.start = mid;
        front
    }
}

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
    /// The stamp the next access hands out.
    clock: u32,
    /// The victim order: resident slots as `stamp << 32 | slot` words,
    /// ascending; `victims[next_victim..]` is still to be popped.
    victims: Vec<u64>,
    next_victim: usize,
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
            clock: 0,
            victims: Vec::new(),
            next_victim: 0,
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

    /// The slots of the chunk ids `chunks` when one region covers them
    /// all. Slots never move, so the run stays valid for the life of the
    /// table.
    pub(crate) fn covering_run(&self, chunks: Range<u64>) -> Option<SlotRun> {
        let mut walk = self.spans(chunks);
        match (self.next_span(&mut walk), self.next_span(&mut walk)) {
            (Some(Span::Slots(run)), None) => Some(run),
            _ => None,
        }
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

    fn has(&self, r: SlotRef, flag: u8) -> bool {
        self.arena.flags(r) & flag != 0
    }

    /// The chunk a slot holds: its region is the last one based at or
    /// below it.
    fn chunk_of(&self, r: SlotRef) -> ChunkId {
        let region = &self.regions[self.regions.partition_point(|g| g.base <= r.0) - 1];
        ChunkId::new(region.start + (r.0 - region.base) as u64)
    }

    // ---- recency stamps and the victim order ----

    /// The first of `n` consecutive stamps the caller is about to hand
    /// out, renumbering first if they would run the clock past
    /// `u32::MAX`. The caller advances `clock` past the stamps it used.
    fn reserve_stamps(&mut self, n: u32) -> u32 {
        if u32::MAX - self.clock < n {
            self.renumber();
        }
        self.clock
    }

    /// Stamps a slot most recently used.
    fn stamp_now(&mut self, r: SlotRef) {
        let now = self.reserve_stamps(1);
        self.arena.set_stamp(r, now);
        self.clock = now + 1;
    }

    /// Rebuilds the victim order from every resident slot.
    fn build_victims(&mut self) {
        self.victims.clear();
        self.victims.reserve_exact(self.resident);
        self.next_victim = 0;
        for (b, block) in self.arena.blocks.iter().enumerate() {
            let base = (b as u64) << BLOCK_BITS;
            for (i, (&f, &stamp)) in block.flags.iter().zip(&block.stamps).enumerate() {
                if f & RESIDENT != 0 {
                    self.victims.push((stamp as u64) << 32 | (base + i as u64));
                }
            }
        }
        self.victims.sort_unstable();
    }

    /// Re-stamps the resident slots `0, 1, 2, …` in LRU order, leaving
    /// the victim order built over the new stamps.
    fn renumber(&mut self) {
        self.build_victims();
        for (now, word) in self.victims.iter_mut().enumerate() {
            let r = SlotRef(*word as u32);
            self.arena.set_stamp(r, now as u32);
            *word = (now as u64) << 32 | r.0 as u64;
        }
        self.clock = self.victims.len() as u32;
    }

    /// Removes and returns the least recently used resident slot.
    fn pop_victim(&mut self) -> Option<SlotRef> {
        if self.resident == 0 {
            return None;
        }
        loop {
            if self.next_victim == self.victims.len() {
                self.build_victims();
            }
            let word = self.victims[self.next_victim];
            self.next_victim += 1;
            let r = SlotRef(word as u32);
            if self.has(r, RESIDENT) && self.arena.stamp(r) == (word >> 32) as u32 {
                return Some(r);
            }
        }
    }

    /// Evicts the least-recently-used resident slot back to the host,
    /// setting its refault bit; returns the slot and whether it was
    /// dirty, `None` if nothing is resident.
    pub(crate) fn evict_lru_slot(&mut self) -> Option<(SlotRef, bool)> {
        let victim = self.pop_victim()?;
        self.resident -= 1;
        let f = self.arena.flags_mut(victim);
        let dirty = *f & DIRTY != 0;
        *f = (*f & !(RESIDENT | DIRTY)) | EVICTED;
        Some((victim, dirty))
    }

    #[cfg(test)]
    fn set_clock(&mut self, clock: u32) {
        self.clock = clock;
    }

    // ---- slot API (one slot at a time) ----

    /// Whether the slot's chunk is managed.
    pub(crate) fn slot_is_managed(&self, r: SlotRef) -> bool {
        self.has(r, MANAGED)
    }

    /// Whether the slot's chunk is device-resident.
    pub(crate) fn slot_is_resident(&self, r: SlotRef) -> bool {
        self.has(r, RESIDENT)
    }

    /// The slot's refault bit.
    pub(crate) fn slot_was_evicted(&self, r: SlotRef) -> bool {
        self.has(r, EVICTED)
    }

    /// Records a device access to a managed slot: stamps it most recently
    /// used if resident, marks dirty for writes.
    pub(crate) fn touch_slot(&mut self, r: SlotRef, write: bool) {
        if !self.touch_if_resident(r, write) && write {
            *self.arena.flags_mut(r) |= DIRTY;
        }
    }

    /// [`PageTable::touch_slot`] on a resident slot; a host-resident slot
    /// is left alone. Returns whether the slot was resident.
    pub(crate) fn touch_if_resident(&mut self, r: SlotRef, write: bool) -> bool {
        let now = self.reserve_stamps(1);
        let (b, i) = block_of(r.0);
        let block = &mut self.arena.blocks[b];
        let f = &mut block.flags[i];
        if *f & RESIDENT == 0 {
            return false;
        }
        if write {
            *f |= DIRTY;
        }
        block.stamps[i] = now;
        self.clock = now + 1;
        true
    }

    /// Marks a slot device-resident (after migration or prefetch) and most
    /// recently used.
    ///
    /// # Panics
    ///
    /// Panics if the slot's chunk is not managed.
    pub(crate) fn make_slot_resident(&mut self, r: SlotRef) {
        let f = self.arena.flags_mut(r);
        assert!(*f & MANAGED != 0, "made unmanaged chunk resident");
        if *f & RESIDENT == 0 {
            *f |= RESIDENT;
            self.resident += 1;
        }
        self.stamp_now(r);
    }

    /// Clears a slot's scratch mark, returning whether it was set.
    pub(crate) fn take_slot_mark(&mut self, r: SlotRef) -> bool {
        let f = self.arena.flags_mut(r);
        let marked = *f & PENDING != 0;
        *f &= !PENDING;
        marked
    }

    // ---- run API (tight loops over one region's slots) ----

    /// Touches the run's slots in address order: each is stamped most
    /// recently used and, for writes, marked dirty; a host-resident slot
    /// is made resident first, as long as fewer than `room` slots have
    /// been. Stops at the first slot that would need more room, leaving it
    /// at the front of `run`. Adds refaults to `refaults` and returns how
    /// many slots it made resident.
    ///
    /// # Panics
    ///
    /// Panics if a slot it would make resident is not managed.
    pub(crate) fn touch_run(
        &mut self,
        run: &mut SlotRun,
        write: bool,
        room: u64,
        refaults: &mut u64,
    ) -> u64 {
        let dirty = if write { DIRTY } else { 0 };
        let mut made = 0u64;
        for piece in pieces(run.0.clone()) {
            let first = self.reserve_stamps(piece.len() as u32);
            let (flags, stamps) = self.arena.piece_mut(&piece);
            let mut done = 0;
            for (f, stamp) in flags.iter_mut().zip(stamps) {
                if *f & RESIDENT == 0 {
                    if made == room {
                        break;
                    }
                    assert!(*f & MANAGED != 0, "made unmanaged chunk resident");
                    *refaults += u64::from(*f & EVICTED != 0);
                    made += 1;
                }
                *f |= RESIDENT | dirty;
                *stamp = first + done;
                done += 1;
            }
            self.clock = first + done;
            run.0.start += done;
            if run.0.start < piece.end {
                break;
            }
        }
        self.resident += made as usize;
        made
    }

    /// Marks the run's host-resident slots (managed or not) for a
    /// two-pass walk, returning how many it marked.
    pub(crate) fn mark_run(&mut self, run: SlotRun) -> u64 {
        let mut marked = 0u64;
        self.arena.for_each_flag(run.0, |f| {
            if *f & RESIDENT == 0 {
                *f |= PENDING;
                marked += 1;
            }
        });
        marked
    }

    /// Clears the run's marks in address order, making each marked slot
    /// resident and most recently used while `left` is positive, as long
    /// as fewer than `room` slots have been; decrements `left` per slot
    /// moved. Stops at the first marked slot that would need more room,
    /// leaving it marked at the front of `run`. Returns how many slots it
    /// made resident.
    ///
    /// # Panics
    ///
    /// Panics if a slot it would make resident is not managed.
    pub(crate) fn prefetch_run(&mut self, run: &mut SlotRun, left: &mut u64, room: u64) -> u64 {
        let mut made = 0u64;
        for piece in pieces(run.0.clone()) {
            let mut now = self.reserve_stamps(piece.len() as u32);
            let (flags, stamps) = self.arena.piece_mut(&piece);
            let mut done = 0;
            for (f, stamp) in flags.iter_mut().zip(stamps) {
                if *f & PENDING != 0 {
                    if *left > 0 {
                        if made == room {
                            break;
                        }
                        assert!(*f & MANAGED != 0, "made unmanaged chunk resident");
                        *f |= RESIDENT;
                        *stamp = now;
                        now += 1;
                        made += 1;
                        *left -= 1;
                    }
                    *f &= !PENDING;
                }
                done += 1;
            }
            self.clock = now;
            run.0.start += done;
            if run.0.start < piece.end {
                break;
            }
        }
        self.resident += made as usize;
        made
    }

    /// Clears the dirty bit of the run's resident slots, returning how
    /// many were dirty.
    pub(crate) fn clean_run(&mut self, run: SlotRun) -> u64 {
        let mut cleaned = 0u64;
        self.arena.for_each_flag(run.0, |f| {
            if *f & (RESIDENT | DIRTY) == RESIDENT | DIRTY {
                *f &= !DIRTY;
                cleaned += 1;
            }
        });
        cleaned
    }

    /// Number of the run's slots that are device-resident.
    pub(crate) fn resident_in(&self, run: SlotRun) -> u64 {
        pieces(run.0)
            .map(|piece| {
                self.arena
                    .piece_flags(&piece)
                    .iter()
                    .filter(|&&f| f & RESIDENT != 0)
                    .count() as u64
            })
            .sum()
    }

    /// Returns the run's resident slots, after skipping the first `skip`
    /// of them, to the host without writeback: a fresh registration that
    /// keeps the refault bit set. Decrements `skip` per slot skipped and
    /// returns how many slots it displaced.
    pub(crate) fn displace_run(&mut self, run: SlotRun, skip: &mut u64) -> u64 {
        let mut displaced = 0u64;
        self.arena.for_each_flag(run.0, |f| {
            if *f & RESIDENT == 0 {
                return;
            }
            if *skip > 0 {
                *skip -= 1;
            } else {
                *f = MANAGED | EVICTED;
                displaced += 1;
            }
        });
        self.resident -= displaced as usize;
        displaced
    }

    /// Unregisters the run's managed slots (free), returning how many
    /// were device-resident and how many of those were dirty (need
    /// writeback). Unmanaged slots are left alone.
    pub(crate) fn unregister_run(&mut self, run: SlotRun) -> (u64, u64) {
        let (mut managed, mut resident, mut dirty) = (0u64, 0u64, 0u64);
        self.arena.for_each_flag(run.0, |f| {
            if *f & MANAGED != 0 {
                managed += 1;
                if *f & RESIDENT != 0 {
                    resident += 1;
                    dirty += u64::from(*f & DIRTY != 0);
                }
                *f = 0;
            }
        });
        self.managed -= managed as usize;
        self.resident -= resident as usize;
        (resident, dirty)
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
                    let managed = &mut self.managed;
                    self.arena.for_each_flag(run.0, |f| {
                        was_resident += usize::from(*f & RESIDENT != 0);
                        *managed += usize::from(*f & MANAGED == 0);
                        *f = MANAGED;
                    });
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
        self.resident -= was_resident;
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
        *self.arena.flags_mut(r) &= !DIRTY;
    }

    /// Evicts the least-recently-used device-resident chunk back to the
    /// host, returning `(chunk, was_dirty)`; `None` if nothing is resident.
    /// The victim's refault bit is set.
    pub fn evict_lru(&mut self) -> Option<(ChunkId, bool)> {
        let (victim, dirty) = self.evict_lru_slot()?;
        Some((self.chunk_of(victim), dirty))
    }

    /// Unregisters a chunk (free), returning whether it was dirty on the
    /// device (needs writeback).
    pub fn unregister(&mut self, chunk: ChunkId) -> bool {
        self.find(chunk)
            .is_some_and(|r| self.unregister_run(SlotRun(r.0..r.0 + 1)).1 > 0)
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
            let mut chunk = region.start;
            for piece in pieces(region.base..region.base + region.len) {
                for &f in self.arena.piece_flags(&piece) {
                    if f & (RESIDENT | DIRTY) == RESIDENT | DIRTY {
                        v.push(ChunkId::new(chunk));
                    }
                    chunk += 1;
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
    fn slot_is_a_flag_byte_and_a_u32_stamp() {
        let mut t = PageTable::new();
        t.register_range(0..BLOCK_SLOTS as u64);
        let block = &t.arena.blocks[0];
        let bytes = std::mem::size_of_val(block.flags.as_slice())
            + std::mem::size_of_val(block.stamps.as_slice());
        assert_eq!(bytes, 5 * BLOCK_SLOTS, "5 bytes per chunk");
        assert_eq!(
            t.victims.capacity(),
            0,
            "no victim order before the first eviction"
        );
    }

    /// Chunk ids of the victim order, emptying a copy of the table.
    fn victim_order(t: &PageTable) -> Vec<(u64, bool)> {
        let mut t = t.clone();
        std::iter::from_fn(|| t.evict_lru())
            .map(|(chunk, dirty)| (chunk.index(), dirty))
            .collect()
    }

    /// What the public API shows of a table whose chunks are `0..n`.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// `(managed, resident, refault bit)` per chunk.
        chunks: Vec<(bool, bool, bool)>,
        victims: Vec<(u64, bool)>,
        resident: usize,
        dirty: Vec<ChunkId>,
    }

    fn observe(t: &PageTable, n: u64) -> Observed {
        Observed {
            chunks: (0..n)
                .map(|i| (t.is_managed(c(i)), t.is_resident(c(i)), t.was_evicted(c(i))))
                .collect(),
            victims: victim_order(t),
            resident: t.resident_count(),
            dirty: t.dirty_resident(),
        }
    }

    #[test]
    fn touch_run_across_a_block_boundary_matches_the_per_chunk_path() {
        let n = BLOCK_SLOTS as u64 + 64;
        let edge = BLOCK_SLOTS as u64;
        let mut base = PageTable::new();
        base.register_range(0..n);
        // Some residents before, inside and after the walked run; the
        // oldest, inside it, is evicted so the run sees a refault bit.
        for i in [edge - 10, 3, edge - 2, edge + 1, edge + 30, 5] {
            base.make_resident(c(i));
        }
        base.evict_lru();
        let run = edge - 20..edge + 20;
        for room in [0, 7, 40] {
            // Per-chunk: touch resident slots, fault host-resident ones in
            // while there is room, stop at the first that would need more.
            let mut per_chunk = base.clone();
            let (mut made, mut refaults, mut stop) = (0, 0, run.end);
            for i in run.clone() {
                if !per_chunk.is_resident(c(i)) {
                    if made == room {
                        stop = i;
                        break;
                    }
                    refaults += u64::from(per_chunk.was_evicted(c(i)));
                    per_chunk.make_resident(c(i));
                    made += 1;
                }
                per_chunk.touch(c(i), true);
            }
            let mut tight = base.clone();
            let mut slots = tight.covering_run(run.clone()).expect("one region");
            let mut tight_refaults = 0;
            let tight_made = tight.touch_run(&mut slots, true, room, &mut tight_refaults);
            assert_eq!(
                (tight_made, tight_refaults),
                (made, refaults),
                "room {room}"
            );
            assert_eq!(slots.len(), run.end - stop, "stops at the same slot");
            assert_eq!(observe(&tight, n), observe(&per_chunk, n), "room {room}");
        }
    }

    #[test]
    fn clock_wrap_renumbers_and_keeps_the_victim_order() {
        // The same operations on a table whose clock starts short of its
        // limit, so it renumbers once the victim order is built and partly
        // consumed, and on a fresh one, whose order the model-based test
        // checks.
        let mut near = PageTable::new();
        near.set_clock(u32::MAX - 150);
        let mut fresh = PageTable::new();
        for t in [&mut near, &mut fresh] {
            t.register_range(0..64);
            for i in 0..64 {
                t.make_resident(c((i * 7) % 64));
            }
            for round in 0..8u64 {
                for i in 0..64 {
                    if (i + round) % 3 == 0 {
                        t.touch(c(i), i % 2 == 0);
                    }
                }
                // A run walk reserves its stamps up front.
                let mut run = t.covering_run(round * 8..round * 8 + 8).unwrap();
                t.touch_run(&mut run, false, 0, &mut 0);
                t.evict_lru();
                t.make_resident(c(round * 5));
            }
        }
        assert!(near.clock < 1_000, "the clock was renumbered");
        assert_eq!(observe(&near, 64), observe(&fresh, 64));
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
        let capacities: Vec<usize> = t.arena.blocks.iter().map(|b| b.flags.capacity()).collect();
        assert!(t
            .arena
            .blocks
            .iter()
            .all(|b| b.stamps.capacity() == b.flags.capacity()));
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
        assert_eq!(t.arena.blocks[0].flags.capacity(), 128);
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
