//! Differential test: [`UvmSpace`]'s region-resolved range walks must be
//! observationally identical to the per-chunk loops they replaced.
//!
//! The reference model keeps those loop bodies verbatim: every operation
//! enumerates its chunks one by one through the public per-chunk
//! [`PageTable`] API and keeps refault history in a `HashSet<ChunkId>`.
//! Both sides are driven with the same random operation sequences on a
//! device of a few chunks, so LRU eviction, displacement and refaults fire
//! constantly. After every step the test compares fault reports, returned
//! link times, counters, resident bytes, eviction transfer time, the page
//! table's per-chunk state, its full LRU victim order and the trace events
//! the step recorded. An operation that panics must panic with the same
//! message on both sides (unmanaged touches keep their messages); it is
//! then rolled back on both. Temporal sequences reach the real space one
//! touch at a time through a [`TouchSequence`](hetsim_uvm::TouchSequence)
//! session, as the runtime streams them — by chunk id, or by offset into an
//! allocation resolved to its slots when it was made
//! ([`UvmSpace::resolve`]) — while the model replays the same chunk-id
//! stream as one slice. A second regime runs devices large enough that
//! range touches and prefetches start on the tight, non-evicting loop and
//! cross device capacity partway through.

use hetsim_counters::UvmCounters;
use hetsim_engine::rng::SimRng;
use hetsim_engine::time::Nanos;
use hetsim_mem::addr::Addr;
use hetsim_mem::link::{CpuGpuLink, LinkPath};
use hetsim_trace::{session, TraceConfig};
use hetsim_uvm::fault::FaultReport;
use hetsim_uvm::page::{chunks_of_range, ChunkId, CHUNK_SIZE};
use hetsim_uvm::space::{ResolvedRange, UvmConfig, UvmSpace};
use hetsim_uvm::table::PageTable;
use hetsim_uvm::touch::{ChunkTouch, FaultBatcher};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The per-chunk `UvmSpace` the slot walks replaced, kept verbatim as the
/// model (trace instrumentation included).
#[derive(Debug, Clone)]
struct ModelSpace {
    config: UvmConfig,
    table: PageTable,
    counters: UvmCounters,
    resident_bytes: u64,
    eviction_transfer: Nanos,
    evicted_once: HashSet<ChunkId>,
}

impl ModelSpace {
    fn new(config: UvmConfig) -> Self {
        ModelSpace {
            config,
            table: PageTable::new(),
            counters: UvmCounters::new(),
            resident_bytes: 0,
            eviction_transfer: Nanos::ZERO,
            evicted_once: HashSet::new(),
        }
    }

    fn managed_alloc(&mut self, base: Addr, bytes: u64) {
        for c in chunks_of_range(base, bytes, self.config.chunk_size) {
            if self.table.is_resident(c) {
                self.resident_bytes -= self.config.chunk_size;
            }
            self.evicted_once.remove(&c);
            self.table.register(c);
        }
    }

    fn prefetch_range(
        &mut self,
        base: Addr,
        bytes: u64,
        coverage: f64,
        link: &CpuGpuLink,
    ) -> Nanos {
        assert!((0.0..=1.0).contains(&coverage), "coverage out of [0,1]");
        let pending: Vec<ChunkId> = chunks_of_range(base, bytes, self.config.chunk_size)
            .filter(|&c| !self.table.is_resident(c))
            .collect();
        let n = (pending.len() as f64 * coverage).round() as usize;
        let mut moved = 0u64;
        for &c in pending.iter().take(n) {
            self.make_resident(c);
            moved += 1;
        }
        if moved == 0 {
            return Nanos::ZERO;
        }
        self.counters.record_prefetched_pages(moved);
        let t = link.record_transfer(LinkPath::BulkPrefetch, moved * self.config.chunk_size);
        session::with(|b| {
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

    fn demand_touch_range(
        &mut self,
        base: Addr,
        bytes: u64,
        write: bool,
        host_backed: bool,
        link: &CpuGpuLink,
    ) -> FaultReport {
        let mut faulted = 0u64;
        let mut refaults = 0u64;
        for c in chunks_of_range(base, bytes, self.config.chunk_size) {
            if !self.table.is_resident(c) {
                if self.evicted_once.contains(&c) {
                    refaults += 1;
                }
                self.make_resident(c);
                faulted += 1;
            }
            self.table.touch(c, write);
        }
        if faulted == 0 {
            return FaultReport::default();
        }
        let stall = self.config.fault.service_stall(faulted);
        let batches = self.config.fault.batches_for(faulted);
        self.counters.record_fault_batch(faulted, stall);
        self.counters.record_refaults(refaults);
        let mut remaining = faulted;
        while remaining > 0 {
            let fill = remaining.min(self.config.fault.batch_capacity as u64);
            self.counters.record_batch_fill(fill);
            remaining -= fill;
        }
        let transfer = if host_backed {
            self.counters.record_migrated_pages(faulted);
            link.record_chunked_transfer(
                LinkPath::DemandMigration,
                faulted * self.config.chunk_size,
                self.config.chunk_size * self.config.fault.batch_capacity as u64,
            )
        } else {
            Nanos::ZERO
        };
        session::with(|b| {
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

    fn demand_touch_sequence(&mut self, touches: &[ChunkTouch], link: &CpuGpuLink) -> FaultReport {
        let tc = self.config.touch;
        let mut batcher = FaultBatcher::new(self.config.fault, tc);
        let mut spec_block: u64 = 1;
        let mut last_fault: Option<u64> = None;
        let mut faulted = 0u64;
        let mut migrated = 0u64;
        let mut heuristic_pages = 0u64;
        let mut refaults = 0u64;
        for t in touches {
            if self.table.is_resident(t.chunk) {
                self.table.touch(t.chunk, t.write);
                batcher.hit();
                continue;
            }
            faulted += 1;
            if self.evicted_once.contains(&t.chunk) {
                refaults += 1;
            }
            batcher.fault();
            let idx = t.chunk.index();
            let adjacent = last_fault.is_some_and(|p| idx.abs_diff(p) <= spec_block.max(4));
            spec_block = if adjacent {
                (spec_block * 2).min(tc.max_spec_block.max(1))
            } else {
                1
            };
            last_fault = Some(idx);
            self.make_resident(t.chunk);
            self.table.touch(t.chunk, t.write);
            if t.host_backed {
                migrated += 1;
            }
            for c in idx + 1..idx + spec_block {
                let spec = ChunkId::new(c);
                if self.table.is_managed(spec) && !self.table.is_resident(spec) {
                    self.make_resident(spec);
                    heuristic_pages += 1;
                    if t.host_backed {
                        migrated += 1;
                    }
                }
            }
        }
        if faulted == 0 {
            return FaultReport::default();
        }
        let fills = batcher.finish();
        let mut stall = Nanos::ZERO;
        for &fill in &fills {
            let s = self.config.fault.batch_latency + self.config.fault.per_fault * fill as u64;
            stall += s;
            self.counters.record_fault_batch(fill as u64, s);
            self.counters.record_batch_fill(fill as u64);
        }
        self.counters.record_refaults(refaults);
        self.counters.record_heuristic_pages(heuristic_pages);
        let transfer = if migrated > 0 {
            self.counters.record_migrated_pages(migrated);
            link.record_chunked_transfer(
                LinkPath::DemandMigration,
                migrated * self.config.chunk_size,
                self.config.chunk_size * self.config.fault.batch_capacity as u64,
            )
        } else {
            Nanos::ZERO
        };
        session::with(|b| {
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
            b.counter_on(track, "uvm.page_faults", self.counters.page_faults() as f64);
            b.counter_on(
                track,
                "uvm.pages_migrated",
                self.counters.pages_migrated() as f64,
            );
            b.counter_on(track, "uvm.refaults", self.counters.refaults() as f64);
            b.counter_on(track, "uvm.resident_bytes", self.resident_bytes as f64);
        });
        FaultReport {
            chunks: faulted,
            batches: fills.len() as u64,
            stall,
            transfer,
        }
    }

    fn writeback_dirty(
        &mut self,
        base: Addr,
        bytes: u64,
        path: LinkPath,
        link: &CpuGpuLink,
    ) -> Nanos {
        let first = base.as_u64() / self.config.chunk_size;
        let last = if bytes == 0 {
            first
        } else {
            (base.as_u64() + bytes - 1) / self.config.chunk_size + 1
        };
        let dirty: Vec<ChunkId> = self
            .table
            .dirty_resident()
            .into_iter()
            .filter(|c| (first..last).contains(&c.index()))
            .collect();
        if dirty.is_empty() {
            return Nanos::ZERO;
        }
        for &c in &dirty {
            self.table.clear_dirty(c);
        }
        let bytes_moved = dirty.len() as u64 * self.config.chunk_size;
        let t = link.record_transfer(path, bytes_moved);
        session::with(|b| {
            let track = b.track("uvm");
            b.detail_span(
                track,
                hetsim_trace::Category::Migration,
                "writeback",
                t.as_nanos(),
                Some(("chunks", dirty.len() as f64)),
            );
        });
        t
    }

    fn displace_fraction(&mut self, base: Addr, bytes: u64, fraction: f64) -> u64 {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of [0,1]");
        let resident: Vec<ChunkId> = chunks_of_range(base, bytes, self.config.chunk_size)
            .filter(|&c| self.table.is_resident(c))
            .collect();
        let n = (resident.len() as f64 * fraction).round() as usize;
        let mut displaced = 0u64;
        for &c in resident.iter().rev().take(n) {
            self.table.register(c);
            self.evicted_once.insert(c);
            self.resident_bytes -= self.config.chunk_size;
            displaced += 1;
        }
        if displaced > 0 {
            self.counters.record_evicted_pages(displaced);
            session::with(|b| {
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

    fn free(&mut self, base: Addr, bytes: u64, link: &CpuGpuLink) -> Nanos {
        let mut dirty_chunks = 0u64;
        for c in chunks_of_range(base, bytes, self.config.chunk_size) {
            let was_resident = self.table.is_resident(c);
            self.evicted_once.remove(&c);
            if self.table.unregister(c) {
                dirty_chunks += 1;
            }
            if was_resident {
                self.resident_bytes -= self.config.chunk_size;
            }
        }
        if dirty_chunks == 0 {
            Nanos::ZERO
        } else {
            link.record_transfer(
                LinkPath::DemandMigration,
                dirty_chunks * self.config.chunk_size,
            )
        }
    }

    fn make_resident(&mut self, chunk: ChunkId) {
        let mut evicted = 0u64;
        while self.resident_bytes + self.config.chunk_size > self.config.device_capacity {
            match self.table.evict_lru() {
                Some((victim, dirty)) => {
                    self.evicted_once.insert(victim);
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
            session::with(|b| {
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
        self.table.make_resident(chunk);
        self.resident_bytes += self.config.chunk_size;
    }
}

/// Chunk ids the random operations draw from: allocations land anywhere
/// in `0..UNIVERSE`, so ranges cross region ends and unmanaged gaps.
const UNIVERSE: u64 = 96;

/// One random operation, applied identically to both sides.
#[derive(Debug, Clone)]
enum Op {
    Alloc(Addr, u64),
    Prefetch(Addr, u64, f64),
    Touch(Addr, u64, bool, bool),
    Sequence(Vec<ChunkTouch>),
    /// A sequence of `(offset, write, host_backed)` touches into live
    /// allocation `.0`, whose first chunk is `.1`.
    SequenceAt(usize, u64, Vec<(u64, bool, bool)>),
    Displace(Addr, u64, f64),
    Writeback(Addr, u64, LinkPath),
    Free(Addr, u64),
}

/// What an operation returned, compared across the sides.
#[derive(Debug, PartialEq)]
enum Outcome {
    Unit,
    Time(Nanos),
    Faults(FaultReport),
    Displaced(u64),
}

/// A byte range over chunks `[first, first + len)`, with a ragged start
/// and end now and then (ranges need not be chunk-aligned).
fn byte_range(rng: &mut SimRng, first: u64, len: u64) -> (Addr, u64) {
    let lead = if rng.chance(0.3) {
        rng.below(CHUNK_SIZE)
    } else {
        0
    };
    let trim = if len > 0 && rng.chance(0.3) {
        rng.below(CHUNK_SIZE)
    } else {
        0
    };
    let bytes = (len * CHUNK_SIZE).saturating_sub(lead + trim);
    (Addr::new(first * CHUNK_SIZE + lead), bytes)
}

/// A chunk range: mostly inside a live allocation, sometimes anywhere.
fn pick_range(rng: &mut SimRng, live: &[(u64, u64)]) -> (Addr, u64) {
    if !live.is_empty() && rng.chance(0.8) {
        let (start, len) = live[rng.below(live.len() as u64) as usize];
        let first = start + rng.below(len);
        let n = rng.range(1, start + len - first + 1);
        byte_range(rng, first, n)
    } else {
        let first = rng.below(UNIVERSE);
        let len = rng.range(1, 16);
        byte_range(rng, first, len)
    }
}

fn fraction(rng: &mut SimRng) -> f64 {
    match rng.below(5) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.next_f64(),
    }
}

fn random_op(
    rng: &mut SimRng,
    live: &mut Vec<(u64, u64)>,
    managed: impl Fn(ChunkId) -> bool,
) -> Op {
    match rng.below(18) {
        0..=1 => {
            // Fresh, overlapping or reused ranges, anywhere in the universe.
            let (start, len) = if !live.is_empty() && rng.chance(0.3) {
                let (s, l) = live[rng.below(live.len() as u64) as usize];
                (s.saturating_sub(rng.below(4)), l + rng.below(4))
            } else {
                (rng.below(UNIVERSE - 8), rng.range(1, 24))
            };
            live.push((start, len));
            let (base, bytes) = byte_range(rng, start, len);
            Op::Alloc(base, bytes)
        }
        2..=3 => {
            let (base, bytes) = pick_range(rng, live);
            Op::Prefetch(base, bytes, fraction(rng))
        }
        4..=6 => {
            let (base, bytes) = pick_range(rng, live);
            Op::Touch(base, bytes, rng.chance(0.5), rng.chance(0.7))
        }
        7..=10 => {
            // Sequential phases (speculation grows and crosses region
            // ends) mixed with scattered jumps and long resident runs.
            let mut touches = Vec::new();
            let mut cursor = rng.below(UNIVERSE);
            for _ in 0..rng.range(1, 160) {
                match rng.below(10) {
                    0 => cursor = rng.below(UNIVERSE),
                    1..=5 => cursor = (cursor + 1) % UNIVERSE,
                    _ => {}
                }
                touches.push(ChunkTouch {
                    chunk: ChunkId::new(cursor),
                    write: rng.chance(0.3),
                    host_backed: rng.chance(0.7),
                });
            }
            // Mostly managed touches; now and then the raw stream, whose
            // unmanaged touches must panic.
            if rng.chance(0.9) {
                touches.retain(|t| managed(t.chunk));
            }
            Op::Sequence(touches)
        }
        11..=12 => {
            let (base, bytes) = pick_range(rng, live);
            Op::Displace(base, bytes, fraction(rng))
        }
        13..=14 => {
            let (base, bytes) = pick_range(rng, live);
            let path = if rng.chance(0.5) {
                LinkPath::DemandMigration
            } else {
                LinkPath::BulkPrefetch
            };
            Op::Writeback(base, bytes, path)
        }
        16..=17 if !live.is_empty() => {
            // The same mix by offset into one allocation, running now and
            // then past its end (where touches look their slot up).
            let buffer = rng.below(live.len() as u64) as usize;
            let (start, len) = live[buffer];
            let mut touches = Vec::new();
            let mut cursor = rng.below(len);
            for _ in 0..rng.range(1, 160) {
                match rng.below(10) {
                    0 => cursor = rng.below(len + 2),
                    1..=5 => cursor = (cursor + 1) % (len + 2),
                    _ => {}
                }
                touches.push((cursor, rng.chance(0.3), rng.chance(0.7)));
            }
            if rng.chance(0.9) {
                touches.retain(|&(off, ..)| managed(ChunkId::new(start + off)));
            }
            Op::SequenceAt(buffer, start, touches)
        }
        _ => {
            let (base, bytes) = pick_range(rng, live);
            Op::Free(base, bytes)
        }
    }
}

/// Applies `op` to the real space; `resolved[i]` is live allocation `i`
/// resolved right after it was made.
fn apply_real(s: &mut UvmSpace, op: &Op, resolved: &[ResolvedRange], link: &CpuGpuLink) -> Outcome {
    match op {
        &Op::Alloc(base, bytes) => {
            s.managed_alloc(base, bytes);
            Outcome::Unit
        }
        &Op::Prefetch(base, bytes, cov) => Outcome::Time(s.prefetch_range(base, bytes, cov, link)),
        &Op::Touch(base, bytes, write, hb) => {
            Outcome::Faults(s.demand_touch_range(base, bytes, write, hb, link))
        }
        Op::Sequence(touches) => {
            // Streamed one touch at a time, as the runtime feeds it.
            let mut seq = s.touch_sequence();
            for &t in touches {
                seq.touch(t);
            }
            Outcome::Faults(seq.finish(link))
        }
        Op::SequenceAt(buffer, _, touches) => {
            let range = &resolved[*buffer];
            let mut seq = s.touch_sequence();
            for &(offset, write, host_backed) in touches {
                seq.touch_at(range, offset, write, host_backed);
            }
            Outcome::Faults(seq.finish(link))
        }
        &Op::Displace(base, bytes, f) => Outcome::Displaced(s.displace_fraction(base, bytes, f)),
        &Op::Writeback(base, bytes, path) => {
            Outcome::Time(s.writeback_dirty(base, bytes, path, link))
        }
        &Op::Free(base, bytes) => Outcome::Time(s.free(base, bytes, link)),
    }
}

fn apply_model(s: &mut ModelSpace, op: &Op, link: &CpuGpuLink) -> Outcome {
    match op {
        &Op::Alloc(base, bytes) => {
            s.managed_alloc(base, bytes);
            Outcome::Unit
        }
        &Op::Prefetch(base, bytes, cov) => Outcome::Time(s.prefetch_range(base, bytes, cov, link)),
        &Op::Touch(base, bytes, write, hb) => {
            Outcome::Faults(s.demand_touch_range(base, bytes, write, hb, link))
        }
        Op::Sequence(touches) => Outcome::Faults(s.demand_touch_sequence(touches, link)),
        Op::SequenceAt(_, first, touches) => {
            let stream: Vec<ChunkTouch> = touches
                .iter()
                .map(|&(offset, write, host_backed)| ChunkTouch {
                    chunk: ChunkId::new(first + offset),
                    write,
                    host_backed,
                })
                .collect();
            Outcome::Faults(s.demand_touch_sequence(&stream, link))
        }
        &Op::Displace(base, bytes, f) => Outcome::Displaced(s.displace_fraction(base, bytes, f)),
        &Op::Writeback(base, bytes, path) => {
            Outcome::Time(s.writeback_dirty(base, bytes, path, link))
        }
        &Op::Free(base, bytes) => Outcome::Time(s.free(base, bytes, link)),
    }
}

/// Runs `f` inside a fresh trace session, catching a panic: the outcome
/// (or panic message) and the step's trace events as JSONL.
fn traced<T>(f: impl FnOnce() -> T) -> (Result<T, String>, String) {
    // One step records a few dozen events.
    session::start(TraceConfig::default().with_capacity(512), None);
    let result = catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    });
    let trace = session::finish().expect("session active");
    (result, trace.to_jsonl())
}

fn lru_order(table: &PageTable) -> Vec<(ChunkId, bool)> {
    let mut t = table.clone();
    std::iter::from_fn(|| t.evict_lru()).collect()
}

/// Where a comparison failed; formatted only when an assertion fails.
struct Ctx<'a>(u64, u64, &'a Op);

impl std::fmt::Display for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@ case {} step {}: {:?}", self.0, self.1, self.2)
    }
}

fn assert_same_state(real: &UvmSpace, model: &ModelSpace, ctx: &Ctx) {
    assert_eq!(real.counters(), model.counters, "counters {ctx}");
    assert_eq!(
        real.resident_bytes(),
        model.resident_bytes,
        "resident_bytes {ctx}"
    );
    assert_eq!(
        real.eviction_transfer(),
        model.eviction_transfer,
        "eviction_transfer {ctx}"
    );
    let (rt, mt) = (real.table(), &model.table);
    assert_eq!(
        rt.managed_count(),
        mt.managed_count(),
        "managed_count {ctx}"
    );
    assert_eq!(
        rt.resident_count(),
        mt.resident_count(),
        "resident_count {ctx}"
    );
    assert_eq!(
        rt.dirty_resident(),
        mt.dirty_resident(),
        "dirty_resident {ctx}"
    );
    for i in 0..UNIVERSE + 32 {
        let c = ChunkId::new(i);
        assert_eq!(rt.is_managed(c), mt.is_managed(c), "is_managed({c}) {ctx}");
        assert_eq!(
            rt.is_resident(c),
            mt.is_resident(c),
            "is_resident({c}) {ctx}"
        );
        assert_eq!(
            rt.was_evicted(c),
            model.evicted_once.contains(&c),
            "refault bit of {c} {ctx}"
        );
    }
    assert_eq!(lru_order(rt), lru_order(mt), "LRU victim order {ctx}");
}

/// What one regime of the differential test exercised.
#[derive(Default)]
struct Tally {
    panics: u64,
    refaults: u64,
    /// Range touches and prefetches that began with room on the device
    /// and still evicted: their walk switched from the tight loop to the
    /// evicting path partway through.
    switched: u64,
}

/// Runs `cases` random operation sequences on both sides over devices of
/// `capacity(rng)` chunks, comparing after every step.
fn differential(salt: &str, cases: u64, capacity: impl Fn(&mut SimRng) -> u64) -> Tally {
    let link = CpuGpuLink::pcie4_a100();
    let mut tally = Tally::default();
    for case in 0..cases {
        let mut rng = SimRng::seed_from_parts(&["space_equiv", salt], case);
        let mut config = UvmConfig::a100();
        config.device_capacity = capacity(&mut rng) * config.chunk_size;
        let mut real = UvmSpace::new(config);
        let mut model = ModelSpace::new(config);
        let mut live = Vec::new();
        let mut resolved = Vec::new();
        for step in 0..120u64 {
            let op = random_op(&mut rng, &mut live, |c| model.table.is_managed(c));
            let ctx = Ctx(case, step, &op);
            let had_room = config.device_capacity >= real.resident_bytes() + config.chunk_size;
            let evicted = real.counters().pages_evicted();
            let (mut r, mut m) = (real.clone(), model.clone());
            let (r_out, r_trace) = traced(|| apply_real(&mut r, &op, &resolved, &link));
            let (m_out, m_trace) = traced(|| apply_model(&mut m, &op, &link));
            assert_eq!(r_out, m_out, "outcome {ctx}");
            if r_out.is_ok() {
                assert_eq!(r_trace, m_trace, "trace events {ctx}");
                real = r;
                model = m;
                if had_room
                    && real.counters().pages_evicted() > evicted
                    && matches!(op, Op::Touch(..) | Op::Prefetch(..))
                {
                    tally.switched += 1;
                }
            } else {
                // Both panicked with one message (what a side recorded
                // before its panic may differ): roll the step back.
                tally.panics += 1;
            }
            if let Op::Alloc(base, bytes) = op {
                resolved.push(real.resolve(base, bytes));
            }
            assert_same_state(&real, &model, &ctx);
        }
        tally.refaults += real.counters().refaults();
    }
    tally
}

/// Random operation sequences over small devices produce identical
/// reports, counters, page-table state, LRU order and trace events on the
/// slot walks and the per-chunk model.
#[test]
fn slot_walks_match_per_chunk_model_on_random_sequences() {
    let tally = differential("ops", 32, |rng| rng.below(7));
    assert!(
        tally.panics > 0,
        "some unmanaged touches must have panicked"
    );
    assert!(tally.refaults > 0, "small devices must refault");
}

/// On devices of 4 to 23 chunks, range touches and prefetches that start
/// with room and fill the device partway through match the model too.
#[test]
fn walks_that_fill_the_device_partway_match_per_chunk_model() {
    let tally = differential("fill_partway", 48, |rng| rng.range(4, 24));
    assert!(
        tally.switched >= 32,
        "only {} walks switched to the evicting path",
        tally.switched
    );
    assert!(tally.refaults > 0, "filled devices must refault");
}

/// The panic message of `touch` on a space whose chunks 0..4 are managed.
fn unmanaged_panic(touch: impl FnOnce(&mut UvmSpace)) -> String {
    let mut s = UvmSpace::new(UvmConfig::a100());
    s.managed_alloc(Addr::new(0), 4 * CHUNK_SIZE);
    traced(|| touch(&mut s)).0.unwrap_err()
}

/// Unmanaged touches keep the page-table contract's panic message on
/// every walk.
#[test]
fn unmanaged_touches_keep_their_panic_messages() {
    const MSG: &str = "made unmanaged chunk resident";
    let link = CpuGpuLink::pcie4_a100();
    let gap = Addr::new(8 * CHUNK_SIZE);
    let range = unmanaged_panic(|s| {
        s.demand_touch_range(Addr::new(0), 12 * CHUNK_SIZE, false, true, &link);
    });
    assert_eq!(range, MSG, "range walk");
    let sequence = unmanaged_panic(|s| {
        let t = ChunkTouch {
            chunk: ChunkId::containing(gap, CHUNK_SIZE),
            write: false,
            host_backed: true,
        };
        s.touch_sequence().touch(t);
    });
    assert_eq!(sequence, MSG, "sequence walk");
    let prefetch = unmanaged_panic(|s| {
        s.prefetch_range(gap, 2 * CHUNK_SIZE, 1.0, &link);
    });
    assert_eq!(prefetch, MSG, "prefetch walk");
}

/// An empty round — a session opened and finished without a touch — on
/// any reachable state returns an empty report and leaves counters,
/// residency, LRU order and the trace untouched.
#[test]
fn empty_round_leaves_the_space_untouched() {
    let link = CpuGpuLink::pcie4_a100();
    let (_, no_events) = traced(|| ());
    for case in 0..8u64 {
        let mut rng = SimRng::seed_from_parts(&["space_equiv", "empty_round"], case);
        let mut config = UvmConfig::a100();
        config.device_capacity = rng.below(7) * config.chunk_size;
        let mut space = UvmSpace::new(config);
        let mut live = Vec::new();
        let mut resolved = Vec::new();
        for step in 0..60u64 {
            let op = random_op(&mut rng, &mut live, |c| space.table().is_managed(c));
            let mut next = space.clone();
            if traced(|| apply_real(&mut next, &op, &resolved, &link))
                .0
                .is_ok()
            {
                space = next;
            }
            if let Op::Alloc(base, bytes) = op {
                resolved.push(space.resolve(base, bytes));
            }
            let mut after = space.clone();
            let (report, trace) = traced(|| after.touch_sequence().finish(&link));
            let ctx = Ctx(case, step, &op);
            assert_eq!(report, Ok(FaultReport::default()), "report {ctx}");
            assert_eq!(trace, no_events, "trace events {ctx}");
            assert_eq!(after.counters(), space.counters(), "counters {ctx}");
            assert_eq!(
                after.resident_bytes(),
                space.resident_bytes(),
                "resident {ctx}"
            );
            assert_eq!(
                lru_order(after.table()),
                lru_order(space.table()),
                "LRU victim order {ctx}"
            );
        }
    }
}
