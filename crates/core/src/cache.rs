//! On-disk content-addressed result cache for base runs.
//!
//! Figure grids, CI gates, and calibration loops re-simulate the same
//! `(workload, mode, device)` cells on every invocation. This module makes
//! repeated sweeps incremental: each deterministic base-run result is stored
//! once under `target/hetsim-cache/` keyed on the program's structural
//! fingerprint ([`hetsim_runtime::GpuProgram::memo_key`]), the transfer
//! mode, a cost-model
//! fingerprint of the [`Device`], and the crate version. A warm rerun reads
//! every cell back instead of simulating it.
//!
//! # Store layout
//!
//! One file per entry under `<root>/v2/<fnv64-of-key>.entry`, where `v2` is
//! the record format version ([`FORMAT_VERSION`]) — a codec change bumps the
//! directory and orphans old entries rather than misreading them. Each
//! entry is a line-record file: a header line, the *full* cache key,
//! `field=value` lines for every component and counter of the
//! [`RunReport`], then a `sum=` line sealing every byte before it with a
//! 64-bit FNV-1a hash. The hash in the file name only addresses the file;
//! the stored key is compared byte-for-byte on load, so a hash collision
//! degrades to a miss, never to a wrong result. The seal does the same
//! for a truncated or altered entry, which would otherwise parse into a
//! plausible but wrong report.
//!
//! Timing fields are exact nanosecond integers and the two occupancy
//! fractions are stored as IEEE-754 bit patterns, so a loaded report is
//! bit-identical to the simulated one — warm and cold sweeps print
//! byte-identical reports, which the CLI test
//! `warm_cache_rerun_matches_cold_and_cache_admin_cycles` asserts.
//!
//! # Atomicity
//!
//! Writes go to a temp file in the same directory followed by an atomic
//! rename, so concurrent processes sharing a cache directory see either no
//! entry or a complete one. Corrupt or truncated entries (e.g. from a
//! killed process using a non-atomic filesystem) are treated as misses and
//! overwritten by the next store.
//!
//! # Enabling
//!
//! The cache is opt-in. The CLI resolves, in order: the `--cache` flag
//! (`off`, `on` = default root, or a directory path), then the
//! `HETSIM_CACHE` environment variable with the same grammar
//! ([`resolve_choice`]). Library users attach a cache with
//! [`Experiment::with_cache`](crate::Experiment::with_cache).

use hetsim_counters::uvm::BATCH_FILL_BUCKETS;
use hetsim_counters::{
    CacheCounters, CounterSet, InstClass, InstructionMix, Occupancy, TransferCounters, UvmCounters,
};
use hetsim_engine::time::Nanos;
use hetsim_runtime::{Device, RunReport, TransferMode};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the on-disk record format; also the store subdirectory name
/// (`v2`). Bump when the entry codec changes shape.
pub const FORMAT_VERSION: u32 = 2;

const HEADER: &str = "hetsim-cache 2";
const ENTRY_EXT: &str = "entry";

/// The full identity of one cached base run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// The program's structural fingerprint (`GpuProgram::memo_key`).
    pub memo_key: String,
    /// The transfer mode simulated.
    pub mode: TransferMode,
    /// Fingerprint of the device's cost model ([`device_fingerprint`]).
    pub device_hash: u64,
}

impl CacheKey {
    /// Builds a key for `(program fingerprint, mode)` on a device.
    pub fn new(memo_key: &str, mode: TransferMode, device_hash: u64) -> Self {
        CacheKey {
            memo_key: memo_key.to_string(),
            mode,
            device_hash,
        }
    }

    /// The canonical single-line form stored inside the entry and hashed
    /// for the file name: device hash × crate version × mode × memo key.
    pub fn line(&self) -> String {
        format!(
            "dev={:016x} crate={} mode={} {}",
            self.device_hash,
            env!("CARGO_PKG_VERSION"),
            self.mode.name(),
            self.memo_key.replace('\n', " ")
        )
    }
}

/// Fingerprints a device's complete cost model. Uses the `Debug` rendering,
/// which prints every calibration knob (f64s in shortest-round-trip form),
/// so any knob change produces a different fingerprint and invalidates the
/// device's cache entries.
pub fn device_fingerprint(device: &Device) -> u64 {
    fnv1a(format!("{device:?}").as_bytes())
}

/// Hit/miss/store counters for one [`DiskCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// I/O failures and corrupt entries encountered (each also counted as
    /// a miss or a failed store — the cache is best-effort and never fails
    /// a run).
    pub errors: u64,
}

/// Aggregate of an on-disk store, for `cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheScan {
    /// Number of entry files present.
    pub entries: u64,
    /// Total bytes they occupy.
    pub bytes: u64,
}

/// The on-disk result store. Cheap to construct — no I/O happens until the
/// first load or store.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    errors: AtomicU64,
}

impl DiskCache {
    /// A cache rooted at `root` (the version subdirectory is appended
    /// internally).
    pub fn at(root: impl Into<PathBuf>) -> Self {
        DiskCache {
            root: root.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// The conventional default root, `target/hetsim-cache` under the
    /// current directory.
    pub fn default_root() -> PathBuf {
        PathBuf::from("target").join("hetsim-cache")
    }

    /// The configured root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn version_dir(&self) -> PathBuf {
        self.root.join(format!("v{FORMAT_VERSION}"))
    }

    fn entry_path(&self, key_line: &str) -> PathBuf {
        self.version_dir()
            .join(format!("{:016x}.{ENTRY_EXT}", fnv1a(key_line.as_bytes())))
    }

    /// Looks up a base run. Returns `None` on any miss: absent entry,
    /// key mismatch (hash collision), or corrupt record. Everything but
    /// an absent entry also counts as an error.
    pub fn load(&self, key: &CacheKey) -> Option<RunReport> {
        let key_line = key.line();
        let text = match fs::read_to_string(self.entry_path(&key_line)) {
            Ok(t) => t,
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if e.kind() != io::ErrorKind::NotFound {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        match decode(&key_line, &text) {
            Some(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Writes a base run, atomically (temp file + rename). Best-effort: an
    /// I/O failure is counted in [`CacheStats::errors`] and otherwise
    /// ignored — a broken cache directory must never fail a sweep.
    pub fn store(&self, key: &CacheKey, report: &RunReport) {
        let key_line = key.line();
        match self.store_inner(&key_line, report) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn store_inner(&self, key_line: &str, report: &RunReport) -> io::Result<()> {
        let dir = self.version_dir();
        fs::create_dir_all(&dir)?;
        let path = self.entry_path(key_line);
        let tmp = dir.join(format!(
            ".tmp-{:016x}-{}",
            fnv1a(key_line.as_bytes()),
            std::process::id()
        ));
        fs::write(&tmp, encode(key_line, report))?;
        fs::rename(&tmp, &path)
    }

    /// Counter snapshot for this process's use of the cache.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Walks the store and reports entry count and size (for
    /// `cache stats`). An absent directory is an empty cache.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures other than `NotFound`.
    pub fn scan(&self) -> io::Result<CacheScan> {
        let mut scan = CacheScan::default();
        let dir = self.version_dir();
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(scan),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT) {
                scan.entries += 1;
                scan.bytes += entry.metadata()?.len();
            }
        }
        Ok(scan)
    }

    /// Deletes the store (all format versions under the root). Returns the
    /// number of entry files removed; an absent root removes zero.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than `NotFound`.
    pub fn clear(&self) -> io::Result<u64> {
        let removed = match self.scan() {
            Ok(scan) => scan.entries,
            Err(_) => 0,
        };
        match fs::remove_dir_all(&self.root) {
            Ok(()) => Ok(removed),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// How a run was asked to use the disk cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheChoice {
    /// No disk cache (the default).
    Disabled,
    /// Cache rooted at this directory.
    Dir(PathBuf),
}

/// Resolves the cache knob. `flag` is the `--cache` value when given;
/// otherwise the `HETSIM_CACHE` environment variable is consulted. Both use
/// the same grammar: `off`/`0`/`none`/empty disable, `on`/`1` select
/// [`DiskCache::default_root`], anything else is a root directory path.
pub fn resolve_choice(flag: Option<&str>) -> CacheChoice {
    let value = match flag {
        Some(v) => v.to_string(),
        None => std::env::var("HETSIM_CACHE").unwrap_or_default(),
    };
    match value.as_str() {
        "" | "off" | "0" | "none" => CacheChoice::Disabled,
        "on" | "1" => CacheChoice::Dir(DiskCache::default_root()),
        dir => CacheChoice::Dir(PathBuf::from(dir)),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn encode(key_line: &str, r: &RunReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(HEADER);
    out.push('\n');
    out.push_str("key=");
    out.push_str(key_line);
    out.push('\n');
    let mut put = |name: &str, value: u64| {
        out.push_str(name);
        out.push('=');
        out.push_str(&value.to_string());
        out.push('\n');
    };
    put("alloc", r.alloc.as_nanos());
    put("memcpy", r.memcpy.as_nanos());
    put("kernel", r.kernel.as_nanos());
    put("system", r.system.as_nanos());
    for class in InstClass::ALL {
        put(
            &format!("inst.{}", class.name()),
            r.counters.inst.get(class),
        );
    }
    for (prefix, c) in [("l1", &r.counters.l1), ("l2", &r.counters.l2)] {
        put(&format!("{prefix}.load_hits"), c.load_hits());
        put(&format!("{prefix}.load_misses"), c.load_misses());
        put(&format!("{prefix}.store_hits"), c.store_hits());
        put(&format!("{prefix}.store_misses"), c.store_misses());
    }
    let t = &r.counters.transfer;
    put("tr.h2d_bytes", t.h2d_bytes());
    put("tr.d2h_bytes", t.d2h_bytes());
    put("tr.h2d_time", t.h2d_time().as_nanos());
    put("tr.d2h_time", t.d2h_time().as_nanos());
    put("tr.explicit_copies", t.explicit_copies());
    put("tr.migrations", t.migrations());
    put("tr.prefetch_ops", t.prefetch_ops());
    let u = &r.counters.uvm;
    put("uvm.page_faults", u.page_faults());
    put("uvm.fault_batches", u.fault_batches());
    put("uvm.pages_migrated", u.pages_migrated());
    put("uvm.pages_prefetched", u.pages_prefetched());
    put("uvm.pages_heuristic", u.pages_heuristic());
    put("uvm.pages_evicted", u.pages_evicted());
    put("uvm.refaults", u.refaults());
    put("uvm.fault_stall", u.fault_stall().as_nanos());
    for (i, count) in u.batch_fill_histogram().iter().enumerate() {
        put(&format!("uvm.fill{i}"), *count);
    }
    put("uvm.fill_batches", u.fill_batches());
    put("uvm.fill_faults", u.fill_faults());
    // Occupancy fractions as IEEE-754 bit patterns: exact round-trip.
    put(
        "occ.theoretical_bits",
        r.counters.occupancy.theoretical().to_bits(),
    );
    put(
        "occ.achieved_bits",
        r.counters.occupancy.achieved().to_bits(),
    );
    let sum = fnv1a(out.as_bytes());
    out.push_str(&format!("sum={sum}\n"));
    out
}

fn decode(expected_key: &str, text: &str) -> Option<RunReport> {
    let sealed = text.strip_suffix('\n')?;
    let body_len = sealed.rfind("\nsum=")? + 1;
    let (body, sum) = (&sealed[..body_len], &sealed[body_len + "sum=".len()..]);
    // Decimal has no leading zeros or letter case, so every altered byte of
    // the sum changes the number it parses to.
    if sum.parse::<u64>() != Ok(fnv1a(body.as_bytes())) {
        return None;
    }
    let mut lines = body.lines();
    if lines.next()? != HEADER {
        return None;
    }
    if lines.next()?.strip_prefix("key=")? != expected_key {
        return None;
    }
    let mut fields: HashMap<&str, u64> = HashMap::new();
    for line in lines {
        let (name, value) = line.split_once('=')?;
        fields.insert(name, value.parse().ok()?);
    }
    let get = |name: &str| fields.get(name).copied();
    let mut inst = InstructionMix::new();
    for class in InstClass::ALL {
        inst.record(class, get(&format!("inst.{}", class.name()))?);
    }
    let cache_counters = |prefix: &str| -> Option<CacheCounters> {
        Some(CacheCounters::from_parts(
            get(&format!("{prefix}.load_hits"))?,
            get(&format!("{prefix}.load_misses"))?,
            get(&format!("{prefix}.store_hits"))?,
            get(&format!("{prefix}.store_misses"))?,
        ))
    };
    let transfer = TransferCounters::from_parts(
        get("tr.h2d_bytes")?,
        get("tr.d2h_bytes")?,
        Nanos::from_nanos(get("tr.h2d_time")?),
        Nanos::from_nanos(get("tr.d2h_time")?),
        get("tr.explicit_copies")?,
        get("tr.migrations")?,
        get("tr.prefetch_ops")?,
    );
    let mut batch_fill = [0u64; BATCH_FILL_BUCKETS];
    for (i, slot) in batch_fill.iter_mut().enumerate() {
        *slot = get(&format!("uvm.fill{i}"))?;
    }
    let uvm = UvmCounters::from_parts(
        get("uvm.page_faults")?,
        get("uvm.fault_batches")?,
        get("uvm.pages_migrated")?,
        get("uvm.pages_prefetched")?,
        get("uvm.pages_heuristic")?,
        get("uvm.pages_evicted")?,
        get("uvm.refaults")?,
        Nanos::from_nanos(get("uvm.fault_stall")?),
        batch_fill,
        get("uvm.fill_batches")?,
        get("uvm.fill_faults")?,
    );
    let occupancy = Occupancy::new(
        f64::from_bits(get("occ.theoretical_bits")?),
        f64::from_bits(get("occ.achieved_bits")?),
    );
    Some(RunReport {
        alloc: Nanos::from_nanos(get("alloc")?),
        memcpy: Nanos::from_nanos(get("memcpy")?),
        kernel: Nanos::from_nanos(get("kernel")?),
        system: Nanos::from_nanos(get("system")?),
        counters: CounterSet {
            inst,
            l1: cache_counters("l1")?,
            l2: cache_counters("l2")?,
            transfer,
            uvm,
            occupancy,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "hetsim-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rich_report() -> RunReport {
        let mut inst = InstructionMix::new();
        inst.record(InstClass::MemLoad, 11);
        inst.record(InstClass::Control, 7);
        let mut l1 = CacheCounters::new();
        l1.record_load(true);
        l1.record_store(false);
        let mut transfer = TransferCounters::new();
        transfer.record_migration(4096, Nanos::from_micros(5));
        transfer.record_prefetch(1 << 20, Nanos::from_micros(60));
        let mut uvm = UvmCounters::new();
        uvm.record_fault_batch(200, Nanos::from_micros(38));
        uvm.record_batch_fill(3);
        uvm.record_batch_fill(256);
        uvm.record_refaults(2);
        uvm.record_evicted_pages(9);
        RunReport {
            alloc: Nanos::from_nanos(123_456_789),
            memcpy: Nanos::from_nanos(987),
            kernel: Nanos::from_nanos(42),
            system: Nanos::from_millis(2),
            counters: CounterSet {
                inst,
                l1,
                l2: CacheCounters::from_parts(5, 6, 7, 8),
                transfer,
                uvm,
                occupancy: Occupancy::new(0.333_333_333_333_333_3, 0.377_9),
            },
        }
    }

    fn key() -> CacheKey {
        CacheKey::new("saxpy|pc=0|b:x:1024|k:main", TransferMode::Uvm, 0xdead_beef)
    }

    #[test]
    fn roundtrip_is_exact() {
        let cache = DiskCache::at(scratch_dir("roundtrip"));
        let report = rich_report();
        assert_eq!(cache.load(&key()), None);
        cache.store(&key(), &report);
        let loaded = cache.load(&key()).expect("entry present");
        assert_eq!(loaded, report);
        assert_eq!(
            loaded.counters.occupancy.theoretical().to_bits(),
            report.counters.occupancy.theoretical().to_bits()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        let _ = cache.clear();
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let dir = scratch_dir("mismatch");
        let cache = DiskCache::at(&dir);
        cache.store(&key(), &rich_report());
        // Same file name cannot happen for a different key without a hash
        // collision, so simulate one: a well-formed entry for another key
        // at this key's path.
        let entry = cache.entry_path(&key().line());
        let other = CacheKey::new(&key().memo_key, TransferMode::Standard, key().device_hash);
        fs::write(&entry, encode(&other.line(), &rich_report())).unwrap();
        assert_eq!(cache.load(&key()), None);
        assert_eq!(cache.stats().errors, 1);
        let _ = cache.clear();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::at(&dir);
        cache.store(&key(), &rich_report());
        let entry = cache.entry_path(&key().line());
        fs::write(&entry, "hetsim-cache 2\nkey=garbage\n").unwrap();
        assert_eq!(cache.load(&key()), None);
        // A fresh store repairs the entry.
        cache.store(&key(), &rich_report());
        assert!(cache.load(&key()).is_some());
        let _ = cache.clear();
    }

    #[test]
    fn stats_and_clear_on_nonexistent_directory() {
        // `cache stats` / `cache clear` on a root that was never created:
        // both succeed and report an empty store, and neither creates the
        // directory as a side effect.
        let dir = scratch_dir("nonexistent");
        let cache = DiskCache::at(&dir);
        assert!(!dir.exists());
        assert_eq!(cache.scan().unwrap(), CacheScan::default());
        assert_eq!(cache.clear().unwrap(), 0);
        assert!(!dir.exists(), "inspection must not create the store");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.stores, stats.errors),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn corrupt_entry_counts_an_error_and_next_store_overwrites() {
        let dir = scratch_dir("corrupt-counters");
        let cache = DiskCache::at(&dir);
        let report = rich_report();
        cache.store(&key(), &report);
        let entry = cache.entry_path(&key().line());
        fs::write(&entry, "not a cache record at all").unwrap();
        // The corrupt read is both a miss and an error.
        assert_eq!(cache.load(&key()), None);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.errors), (1, 1));
        // The next store overwrites the corrupt file in place and the
        // entry round-trips again; the error count stays historical.
        cache.store(&key(), &report);
        assert_eq!(cache.load(&key()), Some(report));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.stores, stats.errors), (1, 2, 1));
        let _ = cache.clear();
    }

    #[test]
    fn scan_and_clear() {
        let cache = DiskCache::at(scratch_dir("scan"));
        assert_eq!(cache.scan().unwrap(), CacheScan::default());
        cache.store(&key(), &rich_report());
        cache.store(
            &CacheKey::new("other", TransferMode::Async, 1),
            &RunReport::default(),
        );
        let scan = cache.scan().unwrap();
        assert_eq!(scan.entries, 2);
        assert!(scan.bytes > 0);
        assert_eq!(cache.clear().unwrap(), 2);
        assert_eq!(cache.scan().unwrap().entries, 0);
        assert_eq!(cache.clear().unwrap(), 0);
    }

    #[test]
    fn device_fingerprint_tracks_knobs() {
        let base = Device::a100_epyc();
        let mut tweaked = base.clone();
        tweaked.name = "tweaked";
        assert_ne!(device_fingerprint(&base), device_fingerprint(&tweaked));
        assert_eq!(
            device_fingerprint(&base),
            device_fingerprint(&Device::a100_epyc())
        );
    }

    /// The UVM TLB geometries are device constants, so a slower page walk
    /// (600 -> 900 cycles) is a new fingerprint: an entry stored for the
    /// old device misses for the new one.
    #[test]
    fn tlb_walk_cost_changes_the_fingerprint() {
        let base = Device::a100_epyc();
        let mut slow_walks = base.clone();
        slow_walks.gpu.uvm_tlb.walk_cycles = 900.0;
        assert_ne!(device_fingerprint(&base), device_fingerprint(&slow_walks));
        let mut slow_coalesced = base.clone();
        slow_coalesced.gpu.uvm_tlb_coalesced.walk_cycles = 300.0;
        assert_ne!(
            device_fingerprint(&base),
            device_fingerprint(&slow_coalesced)
        );

        let cache = DiskCache::at(scratch_dir("tlb"));
        let key_for = |d: &Device| CacheKey::new("saxpy", TransferMode::Uvm, device_fingerprint(d));
        cache.store(&key_for(&base), &rich_report());
        assert!(
            cache.load(&key_for(&base)).is_some(),
            "warm for the old device"
        );
        assert_eq!(cache.load(&key_for(&slow_walks)), None);
        let _ = cache.clear();
    }

    #[test]
    fn choice_resolution_grammar() {
        assert_eq!(resolve_choice(Some("off")), CacheChoice::Disabled);
        assert_eq!(resolve_choice(Some("0")), CacheChoice::Disabled);
        assert_eq!(resolve_choice(Some("none")), CacheChoice::Disabled);
        assert_eq!(
            resolve_choice(Some("on")),
            CacheChoice::Dir(DiskCache::default_root())
        );
        assert_eq!(
            resolve_choice(Some("1")),
            CacheChoice::Dir(DiskCache::default_root())
        );
        assert_eq!(
            resolve_choice(Some("/tmp/somewhere")),
            CacheChoice::Dir(PathBuf::from("/tmp/somewhere"))
        );
    }

    #[test]
    fn different_modes_use_different_entries() {
        let cache = DiskCache::at(scratch_dir("modes"));
        let report = rich_report();
        cache.store(&key(), &report);
        let other = CacheKey::new(&key().memo_key, TransferMode::Standard, key().device_hash);
        assert_eq!(cache.load(&other), None);
        let _ = cache.clear();
    }
}
