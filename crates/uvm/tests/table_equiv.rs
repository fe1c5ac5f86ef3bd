//! Model-based equivalence test: the dense-`Vec` + intrusive-LRU
//! [`PageTable`] must be observationally indistinguishable from the
//! map-based reference implementation it replaced (`HashMap` state +
//! `BTreeSet<(last_use, chunk)>` LRU index), on random operation
//! sequences — including run-length `register_range` calls that reset,
//! extend and insert regions around live LRU links, and the per-slot
//! refault bit, modelled as a `HashSet` of chunks that left the device.
//! Driven by the engine's deterministic [`SimRng`] (no external test
//! dependencies).

use hetsim_engine::rng::SimRng;
use hetsim_uvm::page::ChunkId;
use hetsim_uvm::table::PageTable;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The pre-rewrite reference implementation, kept verbatim as the model:
/// per-chunk state in a `HashMap`, LRU as an ordered `(stamp, chunk)` set,
/// plus the refault history the space used to keep beside the table.
#[derive(Default, Clone)]
struct ModelTable {
    /// `(device-resident, dirty, last-use stamp)` per managed chunk.
    chunks: HashMap<ChunkId, (bool, bool, u64)>,
    lru: BTreeSet<(u64, ChunkId)>,
    clock: u64,
    evicted: HashSet<ChunkId>,
}

impl ModelTable {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn register_range(&mut self, first: u64, count: u64) -> usize {
        let mut was_resident = 0;
        for i in first..first + count {
            was_resident += usize::from(self.is_resident(ChunkId::new(i)));
            self.register(ChunkId::new(i));
        }
        was_resident
    }

    fn was_evicted(&self, chunk: ChunkId) -> bool {
        self.evicted.contains(&chunk)
    }

    fn register(&mut self, chunk: ChunkId) {
        self.evicted.remove(&chunk);
        let now = self.tick();
        if let Some((res, _, stamp)) = self.chunks.insert(chunk, (false, false, now)) {
            if res {
                self.lru.remove(&(stamp, chunk));
            }
        }
    }

    fn is_managed(&self, chunk: ChunkId) -> bool {
        self.chunks.contains_key(&chunk)
    }

    fn is_resident(&self, chunk: ChunkId) -> bool {
        self.chunks.get(&chunk).is_some_and(|&(res, _, _)| res)
    }

    fn touch(&mut self, chunk: ChunkId, write: bool) {
        let now = self.tick();
        let s = self.chunks.get_mut(&chunk).expect("model: unmanaged");
        if s.0 {
            self.lru.remove(&(s.2, chunk));
            self.lru.insert((now, chunk));
        }
        s.2 = now;
        if write {
            s.1 = true;
        }
    }

    fn make_resident(&mut self, chunk: ChunkId) {
        let now = self.tick();
        let s = self.chunks.get_mut(&chunk).expect("model: unmanaged");
        if s.0 {
            self.lru.remove(&(s.2, chunk));
        }
        s.0 = true;
        s.2 = now;
        self.lru.insert((now, chunk));
    }

    fn clear_dirty(&mut self, chunk: ChunkId) {
        self.chunks.get_mut(&chunk).expect("model: unmanaged").1 = false;
    }

    fn evict_lru(&mut self) -> Option<(ChunkId, bool)> {
        let &(stamp, victim) = self.lru.iter().next()?;
        self.lru.remove(&(stamp, victim));
        let s = self.chunks.get_mut(&victim).expect("victim exists");
        let dirty = s.1;
        s.0 = false;
        s.1 = false;
        self.evicted.insert(victim);
        Some((victim, dirty))
    }

    fn unregister(&mut self, chunk: ChunkId) -> bool {
        self.evicted.remove(&chunk);
        match self.chunks.remove(&chunk) {
            Some((true, dirty, stamp)) => {
                self.lru.remove(&(stamp, chunk));
                dirty
            }
            _ => false,
        }
    }

    fn managed_count(&self) -> usize {
        self.chunks.len()
    }

    fn resident_count(&self) -> usize {
        self.lru.len()
    }

    fn dirty_resident(&self) -> Vec<ChunkId> {
        let mut v: Vec<ChunkId> = self
            .chunks
            .iter()
            .filter(|(_, &(res, dirty, _))| res && dirty)
            .map(|(&c, _)| c)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Bases of two per-buffer runs far apart in the address space, mirroring
/// how the runtime lays managed buffers out at `(i + 1) << 42`.
const BASES: [u64; 2] = [8, 1 << 26];

/// The chunk universe: each buffer's 24 chunks plus 8 chunk ids below and
/// 16 above it, which range registrations reach to insert a region in
/// front of a live one or extend it.
fn universe() -> Vec<ChunkId> {
    BASES
        .iter()
        .flat_map(|&b| (b - 8..b + 40).map(ChunkId::new))
        .collect()
}

/// The chunk at the same offset from the other buffer's base.
fn twin(chunk: u64) -> u64 {
    if chunk >= BASES[1] - 8 {
        chunk - (BASES[1] - BASES[0])
    } else {
        chunk + (BASES[1] - BASES[0])
    }
}

fn assert_same_observations(real: &PageTable, model: &ModelTable, universe: &[ChunkId], step: u64) {
    assert_eq!(
        real.managed_count(),
        model.managed_count(),
        "managed_count @ step {step}"
    );
    assert_eq!(
        real.resident_count(),
        model.resident_count(),
        "resident_count @ step {step}"
    );
    assert_eq!(
        real.dirty_resident(),
        model.dirty_resident(),
        "dirty_resident @ step {step}"
    );
    for &c in universe {
        assert_eq!(
            real.is_managed(c),
            model.is_managed(c),
            "is_managed({c}) @ step {step}"
        );
        assert_eq!(
            real.is_resident(c),
            model.is_resident(c),
            "is_resident({c}) @ step {step}"
        );
        assert_eq!(
            real.was_evicted(c),
            model.was_evicted(c),
            "was_evicted({c}) @ step {step}"
        );
    }
}

/// Random register/register_range/touch/make_resident/evict/clear_dirty/
/// unregister sequences produce identical observable behaviour —
/// including the exact LRU eviction order and the refault bit — on the
/// dense table and the map-based model.
#[test]
fn dense_table_matches_map_model_on_random_sequences() {
    let universe = universe();
    for case in 0..32u64 {
        let mut rng = SimRng::seed_from_parts(&["table_equiv", "ops"], case);
        let mut real = PageTable::new();
        let mut model = ModelTable::default();
        // Start from a registered baseline so touch/make_resident have
        // targets; later ops re-register and unregister freely.
        for b in BASES {
            assert_eq!(real.register_range(b..b + 24), 0);
            model.register_range(b, 24);
        }
        for step in 0..400u64 {
            let c = universe[rng.below(universe.len() as u64) as usize];
            match rng.below(15) {
                0 => {
                    real.register(c);
                    model.register(c);
                }
                13 => {
                    // Per-chunk registration of two interleaved ranges,
                    // one per buffer: each chunk's gap follows a region
                    // that no longer ends the arena.
                    let (a, b) = (c.index(), twin(c.index()));
                    for i in 0..rng.range(1, 8) {
                        for first in [a + i, b + i] {
                            real.register(ChunkId::new(first));
                            model.register(ChunkId::new(first));
                        }
                    }
                }
                14 => {
                    // Re-registration across both ranges at once (the
                    // interleaved regions and their neighbours).
                    let count = rng.range(1, 20);
                    for first in [c.index(), twin(c.index())] {
                        assert_eq!(
                            real.register_range(first..first + count),
                            model.register_range(first, count),
                            "register_range({first}, {count}) @ step {step} case {case}"
                        );
                    }
                }
                12 => {
                    // A run that may reset live chunks, extend a region at
                    // either end, fill holes or open a region in front.
                    let first = c.index();
                    let count = rng.range(1, 20);
                    assert_eq!(
                        real.register_range(first..first + count),
                        model.register_range(first, count),
                        "register_range({first}, {count}) @ step {step} case {case}"
                    );
                }
                1..=3 => {
                    // Touch only what is managed (unmanaged touches panic
                    // by contract, identically on both).
                    if model.is_managed(c) {
                        let write = rng.chance(0.5);
                        real.touch(c, write);
                        model.touch(c, write);
                    }
                }
                4..=6 => {
                    if model.is_managed(c) {
                        real.make_resident(c);
                        model.make_resident(c);
                    }
                }
                7..=8 => {
                    assert_eq!(
                        real.evict_lru(),
                        model.evict_lru(),
                        "evict order @ step {step} case {case}"
                    );
                }
                9 => {
                    if model.is_managed(c) {
                        real.clear_dirty(c);
                        model.clear_dirty(c);
                    }
                }
                _ => {
                    assert_eq!(
                        real.unregister(c),
                        model.unregister(c),
                        "unregister({c}) @ step {step} case {case}"
                    );
                }
            }
            assert_same_observations(&real, &model, &universe, step);
        }
        // Drain: the full eviction order must match to the end.
        loop {
            let (a, b) = (real.evict_lru(), model.evict_lru());
            assert_eq!(a, b, "drain order, case {case}");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Interleaved per-chunk registration scatters each buffer over many
/// arena regions; the LRU victim order across them, and after
/// re-registering both ranges, matches the model.
#[test]
fn lru_order_spans_interleaved_arena_regions() {
    let mut real = PageTable::new();
    let mut model = ModelTable::default();
    for i in 0..16 {
        for b in BASES {
            real.register(ChunkId::new(b + i));
            model.register(ChunkId::new(b + i));
        }
    }
    let mut rng = SimRng::seed_from_parts(&["table_equiv", "interleaved"], 0);
    for _ in 0..64 {
        let c = ChunkId::new(BASES[rng.below(2) as usize] + rng.below(16));
        if rng.chance(0.5) {
            real.make_resident(c);
            model.make_resident(c);
        } else if model.is_resident(c) {
            real.touch(c, true);
            model.touch(c, true);
        }
    }
    let drain = |real: &mut PageTable, model: &mut ModelTable| {
        let order: Vec<_> = std::iter::from_fn(|| real.evict_lru()).collect();
        let expected: Vec<_> = std::iter::from_fn(|| model.evict_lru()).collect();
        assert_eq!(order, expected);
        order.len()
    };
    let (mut r2, mut m2) = (real.clone(), model.clone());
    assert!(
        drain(&mut r2, &mut m2) > 8,
        "residents spread over both ranges"
    );
    // Re-register the first half of each range: those chunks leave the
    // LRU list; the survivors keep their order.
    for b in BASES {
        assert_eq!(real.register_range(b..b + 8), model.register_range(b, 8));
    }
    drain(&mut real, &mut model);
    assert_eq!(real.managed_count(), 32);
}
