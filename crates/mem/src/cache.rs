//! A set-associative, LRU, write-allocate cache model.
//!
//! One [`Cache`] instance models the per-SM unified L1/texture cache (whose
//! capacity is whatever the [carveout](crate::carveout) leaves after shared
//! memory) and another the device-wide L2. The model is functional, not
//! cycle-accurate: it classifies each access as hit or miss and maintains
//! the [`CacheCounters`] behind the paper's Fig 10.
//!
//! Sets are rows of line numbers kept in most-recently-used-first order,
//! and row storage grows with the sets an access stream touches, not with
//! the capacity: a 40 MB L2 that a kernel sample touches in a few hundred
//! sets holds a few hundred rows. [`Cache::reset`] empties a cache for the
//! next stream but keeps its rows allocated, so a cache reused stream after
//! stream stops allocating once it has held the largest one.

use crate::addr::{AccessKind, Addr};
use hetsim_counters::CacheCounters;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a config, validating geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two, if the capacity is not
    /// a multiple of `line * ways`, or if any field is zero.
    pub fn new(capacity: u64, line: u64, ways: u32) -> Self {
        assert!(capacity > 0 && line > 0 && ways > 0, "zero cache dimension");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(
            capacity.is_multiple_of(line * ways as u64),
            "capacity {capacity} not divisible by line*ways"
        );
        CacheConfig {
            capacity,
            line,
            ways,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.line * self.ways as u64)
    }
}

/// Rows allocated at a time.
const ROWS_PER_CHUNK: usize = 64;

/// The set of a line number: a mask when the set count is a power of two,
/// otherwise Lemire's direct remainder (Lemire, Kaser and Kurz, "Faster
/// Remainder by Direct Computation", 2019). With 128 fractional bits the
/// remainder is exact for every 64-bit line number and every divisor, and
/// costs a few multiplications instead of a division.
#[derive(Debug, Clone, Copy)]
struct SetIndex {
    sets: u64,
    /// `ceil(2^128 / sets)`; zero when `sets` is a power of two.
    magic: u128,
}

impl SetIndex {
    fn new(sets: u64) -> Self {
        assert!(sets > 0, "zero sets");
        let magic = if sets.is_power_of_two() {
            0
        } else {
            u128::MAX / sets as u128 + 1
        };
        SetIndex { sets, magic }
    }

    /// `line_no % sets`.
    #[inline]
    fn of(&self, line_no: u64) -> u64 {
        if self.magic == 0 {
            return line_no & (self.sets - 1);
        }
        // The fractional part of `line_no / sets`, times `sets`, is the
        // remainder: the high 64 bits of the 192-bit product
        // `frac * sets`, taken in two 64-bit halves.
        let frac = self.magic.wrapping_mul(line_no as u128);
        let lo = (frac as u64 as u128 * self.sets as u128) >> 64;
        let hi = (frac >> 64) * self.sets as u128;
        ((hi + lo) >> 64) as u64
    }
}

/// A set-associative LRU cache.
///
/// Each set is a row of line numbers in most-recently-used-first order, so
/// a hit moves its line to the front and a miss evicts the row's last
/// line: exact LRU without a use clock. Rows are allocated, a chunk of
/// rows at a time, only for the sets an access stream actually touches,
/// found through a set-to-row index of four bytes per set. The line
/// number comes from a shift and the set from a mask when the set count
/// is a power of two, otherwise from a multiplicative remainder (the
/// A100's 320-set L1 and 20480-set L2 take this path). The full line
/// number is stored as the tag, since the set index is a function of it.
///
/// # Example
///
/// ```
/// use hetsim_mem::cache::{Cache, CacheConfig};
/// use hetsim_mem::addr::{AccessKind, Addr};
///
/// let mut l1 = Cache::new(CacheConfig::new(16 * 1024, 128, 4));
/// assert!(!l1.access(Addr::new(0), AccessKind::Load));  // cold miss
/// assert!(l1.access(Addr::new(64), AccessKind::Load));  // same line: hit
/// assert_eq!(l1.counters().load_misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// One plus the row of each set; zero for a set never touched.
    row_of: Vec<u32>,
    /// Line numbers, `ways` per row, most recently used first, in chunks
    /// of [`ROWS_PER_CHUNK`] rows: storage grows a chunk at a time and is
    /// never copied.
    chunks: Vec<Box<[u64]>>,
    /// Valid lines per row (a prefix of the row); as wide as
    /// [`CacheConfig::ways`], so any associativity fits. Its length is
    /// the number of rows in use.
    fill: Vec<u32>,
    /// The set each row in use belongs to, so [`Cache::reset`] unlinks
    /// exactly the sets the stream touched.
    set_of_row: Vec<u32>,
    ways: usize,
    index: SetIndex,
    line_shift: u32,
    counters: CacheCounters,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            config,
            row_of: vec![0; sets as usize],
            chunks: Vec::new(),
            fill: Vec::new(),
            set_of_row: Vec::new(),
            ways: config.ways as usize,
            index: SetIndex::new(sets),
            line_shift: config.line.trailing_zeros(),
            counters: CacheCounters::new(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Line number and set index of `addr`.
    #[inline]
    fn locate(&self, addr: Addr) -> (u64, usize) {
        let line_no = addr.as_u64() >> self.line_shift;
        (line_no, self.index.of(line_no) as usize)
    }

    /// Performs one access; returns `true` on hit.
    ///
    /// Misses allocate (write-allocate policy) and evict the least
    /// recently used line of a full set. Loads and stores differ only in
    /// which counters they bump.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> bool {
        let (line_no, set) = self.locate(addr);
        if self.row_of[set] == 0 {
            let rows = self.fill.len();
            self.row_of[set] = u32::try_from(rows + 1).expect("under 2^32 touched sets");
            self.fill.push(0);
            self.set_of_row.push(set as u32);
            if rows / ROWS_PER_CHUNK == self.chunks.len() {
                // A cache with fewer sets than a chunk needs only its sets.
                let chunk_rows = ROWS_PER_CHUNK.min(self.row_of.len());
                self.chunks
                    .push(vec![0; chunk_rows * self.ways].into_boxed_slice());
            }
        }
        let row = self.row_of[set] as usize - 1;
        let ways = self.ways;
        let at = row % ROWS_PER_CHUNK * ways;
        let lines = &mut self.chunks[row / ROWS_PER_CHUNK][at..at + ways];
        let fill = &mut self.fill[row];
        let filled = *fill as usize;

        let hit = match lines[..filled].iter().position(|&l| l == line_no) {
            Some(i) => {
                lines[..=i].rotate_right(1);
                true
            }
            None => {
                let n = if filled < ways {
                    *fill += 1;
                    filled + 1
                } else {
                    filled
                };
                // The last line of a full row is the least recently used:
                // the rotation drops it off the end.
                lines[..n].rotate_right(1);
                lines[0] = line_no;
                false
            }
        };

        match kind {
            AccessKind::Load => self.counters.record_load(hit),
            AccessKind::Store => self.counters.record_store(hit),
        }
        hit
    }

    /// Probes whether `addr` is resident without touching LRU state or
    /// counters.
    pub fn contains(&self, addr: Addr) -> bool {
        let (line_no, set) = self.locate(addr);
        let Some(row) = (self.row_of[set] as usize).checked_sub(1) else {
            return false;
        };
        let at = row % ROWS_PER_CHUNK * self.ways;
        self.chunks[row / ROWS_PER_CHUNK][at..at + self.fill[row] as usize].contains(&line_no)
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.fill.iter().map(|&f| f as usize).sum()
    }

    /// Accumulated hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Empties the cache (e.g. between kernels) without resetting counters.
    ///
    /// Touched sets keep their rows, so refilling them allocates nothing.
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }

    /// Resets the counters without touching residency.
    pub fn reset_counters(&mut self) {
        self.counters = CacheCounters::new();
    }

    /// Returns the cache to the state of [`Cache::new`]: no resident
    /// lines, no touched sets, zero counters.
    ///
    /// Only the sets the last stream touched are unlinked, and the row
    /// storage stays allocated for the next stream to fill.
    pub fn reset(&mut self) {
        for &set in &self.set_of_row {
            self.row_of[set as usize] = 0;
        }
        self.set_of_row.clear();
        self.fill.clear();
        self.counters = CacheCounters::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(192 * 1024, 128, 4);
        assert_eq!(c.sets(), 384);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        let _ = CacheConfig::new(512, 96, 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_capacity() {
        let _ = CacheConfig::new(500, 64, 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(Addr::new(0), AccessKind::Load));
        assert!(c.access(Addr::new(63), AccessKind::Load), "same line");
        assert!(!c.access(Addr::new(64), AccessKind::Load), "next line");
        assert_eq!(c.counters().loads(), 3);
        assert_eq!(c.counters().load_misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        let a0 = Addr::new(0);
        let a1 = Addr::new(4 * 64);
        let a2 = Addr::new(8 * 64);
        c.access(a0, AccessKind::Load);
        c.access(a1, AccessKind::Load);
        c.access(a0, AccessKind::Load); // refresh a0: a1 becomes LRU
        c.access(a2, AccessKind::Load); // evicts a1
        assert!(c.contains(a0));
        assert!(!c.contains(a1));
        assert!(c.contains(a2));
    }

    #[test]
    fn stores_allocate_and_count() {
        let mut c = small();
        assert!(!c.access(Addr::new(128), AccessKind::Store));
        assert!(c.access(Addr::new(130), AccessKind::Load));
        assert_eq!(c.counters().store_misses(), 1);
        assert_eq!(c.counters().load_hits(), 1);
    }

    #[test]
    fn contains_does_not_disturb_lru_or_counters() {
        let mut c = small();
        c.access(Addr::new(0), AccessKind::Load);
        let before = c.counters();
        assert!(c.contains(Addr::new(32)));
        assert!(!c.contains(Addr::new(4096)));
        assert_eq!(c.counters(), before);
    }

    #[test]
    fn flush_clears_residency_not_counters() {
        let mut c = small();
        c.access(Addr::new(0), AccessKind::Load);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.counters().loads(), 1);
        c.reset_counters();
        assert_eq!(c.counters().loads(), 0);
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut c = small();
        for i in 0..1_000 {
            c.access(Addr::new(i * 64), AccessKind::Load);
        }
        assert!(c.resident_lines() <= 8, "512B / 64B lines = 8 lines max");
    }

    #[test]
    fn wide_rows_count_every_way() {
        // One fully associative set of 300 ways: more than a byte counts.
        let ways = 300u64;
        let mut c = Cache::new(CacheConfig::new(ways * 64, 64, ways as u32));
        for i in 0..ways {
            assert!(!c.access(Addr::new(i * 64), AccessKind::Load));
        }
        assert_eq!(c.resident_lines(), ways as usize);
        assert!(c.contains(Addr::new(0)), "the set holds every way");
        assert!(!c.access(Addr::new(ways * 64), AccessKind::Load));
        assert!(!c.contains(Addr::new(0)), "the oldest line is evicted");
        assert_eq!(c.resident_lines(), ways as usize);
    }

    #[test]
    fn storage_follows_touched_sets() {
        // A 40 MB, 20480-set L2 touched in two sets holds two rows.
        let mut c = Cache::new(CacheConfig::new(40 << 20, 128, 16));
        c.access(Addr::new(0), AccessKind::Load);
        c.access(Addr::new(128), AccessKind::Store);
        c.access(Addr::new(20480 * 128), AccessKind::Load);
        assert_eq!(c.fill.len(), 2);
        assert_eq!(c.chunks.len(), 1);
        c.flush();
        c.access(Addr::new(0), AccessKind::Load);
        assert_eq!(c.fill.len(), 2, "flushed sets keep their rows");
    }

    #[test]
    fn set_index_matches_remainder() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 32) - 1];
        for sets in (1..=4096).chain([320, 20480]) {
            let index = SetIndex::new(sets);
            for n in edges.into_iter().chain(edges.map(|e| e ^ sets)) {
                assert_eq!(index.of(n), n % sets, "{n} % {sets}");
            }
            for _ in 0..64 {
                // Full-width numbers and small ones, where the low bits
                // decide the remainder.
                let n = next();
                assert_eq!(index.of(n), n % sets, "{n} % {sets}");
                assert_eq!(index.of(n >> 40), (n >> 40) % sets, "{} % {sets}", n >> 40);
            }
        }
    }

    #[test]
    fn reset_empties_and_keeps_rows() {
        let mut c = Cache::new(CacheConfig::new(40 << 20, 128, 16));
        for i in 0..200 {
            c.access(Addr::new(i * 128), AccessKind::Load);
        }
        let chunks = c.chunks.len();
        assert_eq!(chunks, 4, "200 rows in chunks of 64");
        c.reset();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.counters(), CacheCounters::new());
        assert!(c.row_of.iter().all(|&r| r == 0), "every set unlinked");
        assert!(!c.contains(Addr::new(0)));
        for i in 0..200 {
            assert!(!c.access(Addr::new((i + 7) * 128), AccessKind::Load));
        }
        assert_eq!(c.chunks.len(), chunks, "refilling allocates no chunk");
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = small();
        let lines = 8u64;
        for pass in 0..3 {
            for i in 0..lines {
                let hit = c.access(Addr::new(i * 64), AccessKind::Load);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {i} should hit");
                }
            }
        }
    }
}
