//! Page/chunk identifiers and chunk-range arithmetic.
//!
//! The driver tracks residency and migrates data at a coarser granularity
//! than the 4 KB architectural page — 64 KB chunks by default here, matching
//! the UVM driver's basic migration block. All UVM bookkeeping in the
//! simulator is chunk-granular.

use hetsim_mem::addr::Addr;
use std::fmt;
use std::ops::Range;

/// Default architectural page size (x86 host), bytes.
pub const PAGE_SIZE: u64 = 4 * 1024;

/// Default UVM migration chunk, bytes.
pub const CHUNK_SIZE: u64 = 64 * 1024;

/// Identifier of one migration chunk of the unified address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(u64);

impl ChunkId {
    /// Creates a chunk id from its index.
    pub const fn new(idx: u64) -> Self {
        ChunkId(idx)
    }

    /// The chunk containing `addr` for a given chunk size.
    pub fn containing(addr: Addr, chunk_size: u64) -> Self {
        ChunkId(addr.block(chunk_size))
    }

    /// Raw index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// First byte address of this chunk.
    pub const fn base(self, chunk_size: u64) -> u64 {
        self.0 * chunk_size
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk#{}", self.0)
    }
}

/// Enumerates the chunks overlapped by `[base, base + bytes)`.
///
/// # Example
///
/// ```
/// use hetsim_uvm::page::{chunks_of_range, CHUNK_SIZE};
/// use hetsim_mem::addr::Addr;
/// let ids: Vec<_> = chunks_of_range(Addr::new(0), 2 * CHUNK_SIZE + 1, CHUNK_SIZE).collect();
/// assert_eq!(ids.len(), 3);
/// ```
pub fn chunks_of_range(base: Addr, bytes: u64, chunk_size: u64) -> impl Iterator<Item = ChunkId> {
    chunk_span(base, bytes, chunk_size).map(ChunkId::new)
}

/// The chunk indices overlapped by `[base, base + bytes)`, as a range.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub(crate) fn chunk_span(base: Addr, bytes: u64, chunk_size: u64) -> Range<u64> {
    assert!(chunk_size > 0, "chunk size must be non-zero");
    let first = base.as_u64() / chunk_size;
    let last = if bytes == 0 {
        first
    } else {
        (base.as_u64() + bytes - 1) / chunk_size + 1
    };
    first..last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containing_chunk() {
        let c = ChunkId::containing(Addr::new(CHUNK_SIZE + 5), CHUNK_SIZE);
        assert_eq!(c.index(), 1);
        assert_eq!(c.base(CHUNK_SIZE), CHUNK_SIZE);
    }

    #[test]
    fn range_enumeration_counts() {
        let n = |base: u64, bytes: u64| chunks_of_range(Addr::new(base), bytes, CHUNK_SIZE).count();
        assert_eq!(n(0, 0), 0);
        assert_eq!(n(0, 1), 1);
        assert_eq!(n(0, CHUNK_SIZE), 1);
        assert_eq!(n(0, CHUNK_SIZE + 1), 2);
        // Unaligned base straddles a boundary.
        assert_eq!(n(CHUNK_SIZE - 1, 2), 2);
    }

    #[test]
    fn display_and_order() {
        assert_eq!(ChunkId::new(3).to_string(), "chunk#3");
        assert!(ChunkId::new(1) < ChunkId::new(2));
    }
}
