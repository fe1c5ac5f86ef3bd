//! Equivalence of the flat cache with the straightforward model it
//! replaced: a `Vec` of ways per set, evicting the way with the oldest
//! use stamp. Both caches see the same seeded streams of loads, stores,
//! flushes and counter resets, and must agree after every step.

use hetsim_counters::CacheCounters;
use hetsim_engine::rng::SimRng;
use hetsim_mem::addr::{AccessKind, Addr};
use hetsim_mem::cache::{Cache, CacheConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    tag: u64,
    last_use: u64,
    dirty: bool,
}

/// The reference model: a set-associative LRU cache with a use clock.
#[derive(Debug, Clone)]
struct ModelCache {
    config: CacheConfig,
    sets: Vec<Vec<LineState>>,
    clock: u64,
    counters: CacheCounters,
}

impl ModelCache {
    fn new(config: CacheConfig) -> Self {
        ModelCache {
            config,
            sets: vec![Vec::with_capacity(config.ways as usize); config.sets() as usize],
            clock: 0,
            counters: CacheCounters::new(),
        }
    }

    fn access(&mut self, addr: Addr, kind: AccessKind) -> bool {
        self.clock += 1;
        let line_no = addr.block(self.config.line);
        let set_idx = (line_no % self.config.sets()) as usize;
        let tag = line_no / self.config.sets();
        let set = &mut self.sets[set_idx];

        let hit = if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.last_use = self.clock;
            if !kind.is_load() {
                line.dirty = true;
            }
            true
        } else {
            let new_line = LineState {
                tag,
                last_use: self.clock,
                dirty: !kind.is_load(),
            };
            if set.len() < self.config.ways as usize {
                set.push(new_line);
            } else {
                // Evict the least recently used way.
                let victim = set
                    .iter_mut()
                    .min_by_key(|l| l.last_use)
                    .expect("non-empty full set");
                *victim = new_line;
            }
            false
        };

        match kind {
            AccessKind::Load => self.counters.record_load(hit),
            AccessKind::Store => self.counters.record_store(hit),
        }
        hit
    }

    fn contains(&self, addr: Addr) -> bool {
        let line_no = addr.block(self.config.line);
        let set_idx = (line_no % self.config.sets()) as usize;
        let tag = line_no / self.config.sets();
        self.sets[set_idx].iter().any(|l| l.tag == tag)
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    fn reset_counters(&mut self) {
        self.counters = CacheCounters::new();
    }
}

/// `(capacity, line, ways)`: direct-mapped, 2-way and 16-way caches with
/// power-of-two set counts, and the A100's 320-set L1 and 20480-set L2.
const GEOMETRIES: [(u64, u64, u32); 7] = [
    (1024, 64, 1),
    (4096, 128, 1),
    (2048, 64, 2),
    (8192, 32, 2),
    (32 * 1024, 128, 16),
    (160 * 1024, 128, 4),
    (40 << 20, 128, 16),
];

/// Drives both caches through one seeded stream and compares them after
/// every step. Addresses are drawn from a span of `span_lines` lines, a
/// small multiple of the capacity so hits, conflict misses and evictions
/// all occur.
fn run_stream(rng: &mut SimRng, config: CacheConfig, steps: usize, span_lines: u64) {
    let mut flat = Cache::new(config);
    let mut model = ModelCache::new(config);
    let mut probes = Vec::new();
    for step in 0..steps {
        let line_no = rng.below(span_lines);
        let addr = Addr::new(line_no * config.line + rng.below(config.line));
        match rng.below(100) {
            0 => {
                flat.flush();
                model.flush();
            }
            1 => {
                flat.reset_counters();
                model.reset_counters();
            }
            r => {
                let kind = if r < 30 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let (a, b) = (flat.access(addr, kind), model.access(addr, kind));
                assert_eq!(a, b, "{config:?} step {step}: hit result for {addr}");
            }
        }
        assert_eq!(flat.counters(), model.counters(), "{config:?} step {step}");
        assert_eq!(
            flat.resident_lines(),
            model.resident_lines(),
            "{config:?} step {step}"
        );
        probes.push(addr);
        if probes.len() > 16 {
            probes.remove(0);
        }
        let fresh = Addr::new(rng.below(span_lines) * config.line);
        for &p in probes.iter().chain(std::iter::once(&fresh)) {
            assert_eq!(
                flat.contains(p),
                model.contains(p),
                "{config:?} step {step}: residency of {p}"
            );
        }
    }
}

#[test]
fn flat_cache_matches_model() {
    for (capacity, line, ways) in GEOMETRIES {
        let config = CacheConfig::new(capacity, line, ways);
        let capacity_lines = capacity / line;
        let mut rng =
            SimRng::seed_from_parts(&["cache_equiv", "stream"], capacity ^ line ^ ways as u64);
        // Dense streams over one to four capacities, each set well used.
        for mult in 1..=4 {
            let span = (capacity_lines * mult / 2).clamp(ways as u64 + 1, 8192);
            run_stream(&mut rng, config, 4_000, span);
        }
    }
}

/// Lines hammering one set exercise the LRU order at full associativity.
#[test]
fn single_set_streams_match_model() {
    for (capacity, line, ways) in GEOMETRIES {
        let config = CacheConfig::new(capacity, line, ways);
        let sets = config.sets();
        let mut rng =
            SimRng::seed_from_parts(&["cache_equiv", "one_set"], capacity ^ line ^ ways as u64);
        let mut flat = Cache::new(config);
        let mut model = ModelCache::new(config);
        let set = rng.below(sets);
        for step in 0..4_000 {
            // A working set just over the associativity, all in one set.
            let k = rng.below(ways as u64 + 2);
            let addr = Addr::new((set + k * sets) * line);
            let kind = if rng.below(4) == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            assert_eq!(
                flat.access(addr, kind),
                model.access(addr, kind),
                "{config:?} step {step}"
            );
            assert_eq!(flat.counters(), model.counters());
            assert_eq!(flat.resident_lines(), model.resident_lines());
            for j in 0..ways as u64 + 2 {
                let p = Addr::new((set + j * sets) * line);
                assert_eq!(
                    flat.contains(p),
                    model.contains(p),
                    "{config:?} step {step}"
                );
            }
        }
    }
}

/// `Cache::reset` in the middle of a stream leaves a cache that behaves as
/// a new one: after each reset, the reused cache and a new cache (and the
/// model) see the same stream and must agree after every step. The
/// streams before and after a reset draw from the same lines, so a line or
/// a set link that survived the reset would show as a hit.
#[test]
fn reset_mid_stream_matches_a_new_cache() {
    // The A100's 320-set L1 and 20480-set L2.
    for (capacity, line, ways) in [(160 * 1024, 128, 4), (40 << 20, 128, 16)] {
        let config = CacheConfig::new(capacity, line, ways);
        let mut rng = SimRng::seed_from_parts(&["cache_equiv", "reset"], capacity);
        let span_lines = 6 * config.sets();
        let draw = |rng: &mut SimRng| {
            let addr = Addr::new(rng.below(span_lines) * line + rng.below(line));
            let kind = if rng.below(4) == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            (addr, kind)
        };
        let mut reused = Cache::new(config);
        for round in 0..4 {
            // Streams of different lengths, so the reused cache holds
            // more rows, then fewer, than the next stream needs.
            for _ in 0..[9_000, 2_000, 12_000, 500][round] {
                let (addr, kind) = draw(&mut rng);
                reused.access(addr, kind);
            }
            reused.reset();
            let mut fresh = Cache::new(config);
            let mut model = ModelCache::new(config);
            for step in 0..6_000 {
                let (addr, kind) = draw(&mut rng);
                if step == 3_000 {
                    reused.flush();
                    fresh.flush();
                    model.flush();
                }
                let hit = reused.access(addr, kind);
                assert_eq!(
                    hit,
                    fresh.access(addr, kind),
                    "{config:?} round {round} step {step}"
                );
                assert_eq!(
                    hit,
                    model.access(addr, kind),
                    "{config:?} round {round} step {step}"
                );
                assert_eq!(reused.counters(), fresh.counters());
                assert_eq!(reused.counters(), model.counters());
                assert_eq!(reused.resident_lines(), model.resident_lines());
                let (probe, _) = draw(&mut rng);
                assert_eq!(reused.contains(probe), model.contains(probe));
            }
        }
    }
}
