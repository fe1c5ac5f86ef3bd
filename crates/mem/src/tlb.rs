//! A TLB model for UVM address translation.
//!
//! Under UVM the GPU walks host-compatible page tables; the paper attributes
//! part of the `uvm` configuration's kernel inflation to "additional page
//! walking" (§4.1.1, citing Allen & Ge). This module models the per-SM TLB
//! as a small set-associative cache over page numbers, so the translation
//! overhead of a kernel *emerges from its access stream*: dense sequential
//! walks hit a few pages repeatedly, random walks miss constantly.
//!
//! The executor walks each global access of a kernel replay through a
//! [`Tlb`] of each of the device's UVM geometries and keeps the miss
//! counts; a run that uses managed memory derives its translation stall
//! from the misses of its geometry × the page-walk cost.

use crate::addr::Addr;

/// TLB geometry and costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbConfig {
    /// Translation granularity, bytes (UVM maps at 2 MB granularity once
    /// migrated chunks coalesce; 64 KB before).
    pub page_bytes: u64,
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Page-walk latency per miss, in SM cycles.
    pub walk_cycles: f64,
}

impl TlbConfig {
    /// A100-class GPU MMU: 64-entry, 8-way, 64 KB pages under UVM, with a
    /// multi-level walk costing ~600 cycles when it leaves the page-walk
    /// caches.
    pub fn a100_uvm() -> Self {
        TlbConfig {
            page_bytes: 64 * 1024,
            entries: 64,
            ways: 8,
            walk_cycles: 600.0,
        }
    }

    /// The same MMU over prefetched managed ranges: prefetch coalesces
    /// them into 2 MB mappings whose walks stay in the page-walk caches
    /// (~200 cycles).
    pub fn a100_uvm_coalesced() -> Self {
        TlbConfig {
            page_bytes: 2 << 20,
            walk_cycles: 200.0,
            ..TlbConfig::a100_uvm()
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::a100_uvm()
    }
}

/// A set-associative TLB with LRU replacement.
///
/// The ways of every set live in one flat array, the page number comes
/// from a shift (page sizes are powers of two), and the set index from a
/// mask when the set count is a power of two too.
///
/// An access to the same page as the access before it is a hit that
/// changes no state: that page's entry was used last, so it already holds
/// the newest use stamp, and leaving the stamps alone keeps every later
/// victim choice. Streams that walk a page line by line take this path
/// for almost every access.
///
/// # Example
///
/// ```
/// use hetsim_mem::tlb::{Tlb, TlbConfig};
/// use hetsim_mem::addr::Addr;
///
/// let mut tlb = Tlb::new(TlbConfig::a100_uvm());
/// assert!(!tlb.access(Addr::new(0)));      // cold miss
/// assert!(tlb.access(Addr::new(4096)));    // same 64 KB page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `(page, last_use)` per way, set-major; `last_use == 0` marks an
    /// empty way (the clock is at least 1 once anything is filled). The
    /// full page number is the tag: the set index is a function of it.
    ways: Vec<(u64, u64)>,
    assoc: usize,
    sets: u64,
    page_shift: u32,
    clock: u64,
    /// The page of the previous access, resident and most recently used;
    /// `None` before the first access and after a reset.
    last_page: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero entries/ways, or ways
    /// not dividing entries).
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0 && config.ways > 0, "zero TLB dimension");
        assert!(
            config.entries.is_multiple_of(config.ways),
            "entries must be a multiple of ways"
        );
        assert!(config.page_bytes.is_power_of_two(), "page size must be 2^n");
        Tlb {
            config,
            ways: vec![(0, 0); config.entries as usize],
            assoc: config.ways as usize,
            sets: (config.entries / config.ways) as u64,
            page_shift: config.page_bytes.trailing_zeros(),
            clock: 0,
            last_page: None,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Translates one access; returns `true` on TLB hit.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> bool {
        let page = addr.as_u64() >> self.page_shift;
        if self.last_page == Some(page) {
            self.hits += 1;
            return true;
        }
        self.last_page = Some(page);
        self.clock += 1;
        let set = if self.sets.is_power_of_two() {
            page & (self.sets - 1)
        } else {
            page % self.sets
        } as usize;
        let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
        if let Some(e) = ways.iter_mut().find(|(p, lu)| *p == page && *lu != 0) {
            e.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // The least recently used way; an empty way (last use 0) first.
        let victim = ways
            .iter_mut()
            .min_by_key(|(_, lu)| *lu)
            .expect("at least one way");
        *victim = (page, self.clock);
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]`; zero before any access.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Clears residency and counters (between kernels).
    pub fn reset(&mut self) {
        self.ways.fill((0, 0));
        self.last_page = None;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::a100_uvm())
    }

    #[test]
    fn sequential_walk_hits_within_pages() {
        let mut t = tlb();
        // 64 KB pages, 128 B lines: 512 accesses per page, 1 miss each.
        for i in 0..512 * 4 {
            t.access(Addr::new(i * 128));
        }
        assert_eq!(t.misses(), 4);
        assert!(t.miss_rate() < 0.01);
    }

    #[test]
    fn random_walk_thrashes() {
        let mut t = tlb();
        // Touch 4096 distinct pages pseudo-randomly: far beyond 64 entries.
        let mut x: u64 = 0x12345;
        for _ in 0..4096 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = x % 4096;
            t.access(Addr::new(page * 64 * 1024));
        }
        assert!(t.miss_rate() > 0.9, "rate {}", t.miss_rate());
    }

    #[test]
    fn strided_reuse_within_reach_hits() {
        let mut t = tlb();
        // 32 pages re-walked repeatedly: fits the 64-entry TLB.
        for _ in 0..10 {
            for p in 0..32u64 {
                t.access(Addr::new(p * 64 * 1024));
            }
        }
        let rate = t.miss_rate();
        assert!(rate < 0.15, "rate {rate}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = tlb();
        t.access(Addr::new(0));
        t.reset();
        assert_eq!(t.hits(), 0);
        assert_eq!(t.misses(), 0);
        assert_eq!(t.miss_rate(), 0.0);
        assert!(!t.access(Addr::new(0)), "cold again after reset");
    }

    #[test]
    fn lru_prefers_recent_pages() {
        let cfg = TlbConfig {
            page_bytes: 4096,
            entries: 2,
            ways: 2,
            walk_cycles: 100.0,
        };
        let mut t = Tlb::new(cfg);
        let page = |i: u64| Addr::new(i * 4096 * (cfg.entries as u64 / cfg.ways as u64));
        t.access(page(0));
        t.access(page(1));
        t.access(page(0)); // refresh 0; 1 is LRU
        t.access(page(2)); // evicts 1
        assert!(t.access(page(0)), "0 must survive");
        assert!(!t.access(page(1)), "1 was evicted");
    }

    /// The per-set `Vec<Vec<_>>` TLB the flat array replaced, kept as the
    /// reference model: tag = page / sets, set = page % sets, fill in
    /// order, evict the least recently used way of a full set.
    struct ModelTlb {
        config: TlbConfig,
        sets: Vec<Vec<(u64, u64)>>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl ModelTlb {
        fn new(config: TlbConfig) -> Self {
            let sets = (config.entries / config.ways) as usize;
            ModelTlb {
                config,
                sets: vec![Vec::with_capacity(config.ways as usize); sets],
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: Addr) -> bool {
            self.clock += 1;
            let page = addr.block(self.config.page_bytes);
            let n_sets = self.sets.len() as u64;
            let set = &mut self.sets[(page % n_sets) as usize];
            let tag = page / n_sets;
            if let Some(e) = set.iter_mut().find(|(t, _)| *t == tag) {
                e.1 = self.clock;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if set.len() < self.config.ways as usize {
                set.push((tag, self.clock));
            } else {
                let victim = set
                    .iter_mut()
                    .min_by_key(|(_, lu)| *lu)
                    .expect("full set non-empty");
                *victim = (tag, self.clock);
            }
            false
        }

        fn reset(&mut self) {
            for s in &mut self.sets {
                s.clear();
            }
            self.hits = 0;
            self.misses = 0;
        }
    }

    /// The UVM geometry, the prefetch (2 MB) geometry, a non-power-of-two
    /// set count and degenerate shapes.
    fn geometries() -> [TlbConfig; 5] {
        [
            TlbConfig::a100_uvm(),
            TlbConfig::a100_uvm_coalesced(),
            TlbConfig {
                page_bytes: 4096,
                entries: 12,
                ways: 4,
                walk_cycles: 100.0,
            },
            TlbConfig {
                page_bytes: 1,
                entries: 1,
                ways: 1,
                walk_cycles: 1.0,
            },
            TlbConfig {
                page_bytes: 64 * 1024,
                entries: 7,
                ways: 7,
                walk_cycles: 3.0,
            },
        ]
    }

    /// A xorshift stream of random 64-bit numbers.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Drives the flat TLB and the reference model through 20 000
    /// addresses from `addr(step)`, resetting both halfway, and checks
    /// every hit result and the final hit and miss counts.
    fn matches_model(cfg: TlbConfig, mut addr: impl FnMut(u32) -> u64) {
        let mut flat = Tlb::new(cfg);
        let mut model = ModelTlb::new(cfg);
        for step in 0..20_000u32 {
            let addr = addr(step);
            assert_eq!(
                flat.access(Addr::new(addr)),
                model.access(Addr::new(addr)),
                "{cfg:?} step {step} addr {addr:#x}"
            );
            if step == 10_000 {
                flat.reset();
                model.reset();
            }
        }
        assert_eq!(flat.hits(), model.hits, "{cfg:?}");
        assert_eq!(flat.misses(), model.misses, "{cfg:?}");
        assert!(flat.hits() > 0 && flat.misses() > 0, "{cfg:?}");
    }

    /// The flat TLB reproduces the reference model's hit/miss sequence on
    /// random streams mixing locality and scatter.
    #[test]
    fn flat_tlb_matches_per_set_model() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for cfg in geometries() {
            let reach = cfg.page_bytes * cfg.entries as u64;
            let mut cursor = 0u64;
            matches_model(cfg, |_| {
                let r = next();
                // Mostly a walking cursor within twice the TLB's reach,
                // sometimes a far jump, now and then an extreme address.
                match r % 16 {
                    0 => next(),
                    1 => u64::MAX - (r >> 8) % 4096,
                    2..=4 => {
                        cursor = next() % (reach * 64);
                        cursor
                    }
                    _ => {
                        cursor = cursor.wrapping_add((r >> 4) % (2 * reach / 3 + 1));
                        cursor % (reach * 64)
                    }
                }
            });
        }
    }

    /// Streams that stay on one page for long runs, as a kernel walking a
    /// page line by line does, take the same-page path for most accesses
    /// and must still match the model, across resets and between runs
    /// that revisit, evict and alias earlier pages.
    #[test]
    fn same_page_runs_match_per_set_model() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for cfg in geometries() {
            let pages = 4 * cfg.entries as u64 + 3;
            let (mut page, mut left) = (0u64, 0u64);
            matches_model(cfg, |_| {
                if left == 0 {
                    let r = next();
                    left = 1 + r % 600;
                    page = match r >> 60 {
                        0 => next() >> cfg.page_bytes.trailing_zeros(),
                        1..=5 => page,
                        _ => (page + (r >> 20) % 3 + 1) % pages,
                    };
                }
                left -= 1;
                (page << cfg.page_bytes.trailing_zeros()) | (next() % cfg.page_bytes)
            });
        }
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(TlbConfig {
            page_bytes: 4096,
            entries: 10,
            ways: 4,
            walk_cycles: 1.0,
        });
    }
}
