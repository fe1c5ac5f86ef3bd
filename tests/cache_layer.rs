//! The incremental-sweep contract: a warm rerun against the on-disk
//! result cache must reproduce a cold run byte-for-byte while skipping
//! every simulation, the cache key must invalidate on device changes,
//! and the in-memory memo must never run the same base simulation twice
//! no matter how many threads race for it.

use hetsim::cache::{CacheKey, DiskCache};
use hetsim::experiment::Experiment;
use hetsim::figures::{self, SuiteComparison};
use hetsim::headline::Headline;
use hetsim::pool;
use hetsim_runtime::{Device, GpuProgram, TransferMode};
use hetsim_workloads::{suite, InputSize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique scratch directory per test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hetsim-cache-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn cached_experiment(dir: &Path) -> (Experiment, Arc<DiskCache>) {
    let disk = Arc::new(DiskCache::at(dir.to_path_buf()));
    (
        Experiment::new().with_runs(3).with_cache(disk.clone()),
        disk,
    )
}

#[test]
fn warm_rerun_is_byte_identical_and_simulation_free() {
    let dir = scratch_dir("warm");
    let w = suite::by_name("vector_seq", InputSize::Tiny).unwrap();

    // Cold: fresh experiment, empty store — every mode is a miss + store.
    let (cold_exp, cold_disk) = cached_experiment(&dir);
    let cold: Vec<_> = TransferMode::ALL
        .iter()
        .map(|&m| cold_exp.base_run(&w, m))
        .collect();
    let cold_stats = cold_disk.stats();
    assert_eq!(cold_stats.hits, 0, "empty store cannot hit");
    assert_eq!(cold_stats.misses, TransferMode::ALL.len() as u64);
    assert_eq!(cold_stats.stores, TransferMode::ALL.len() as u64);

    // Warm: a brand-new experiment (empty in-memory memo) over the same
    // store must replay every report exactly, with zero misses.
    let (warm_exp, warm_disk) = cached_experiment(&dir);
    let warm: Vec<_> = TransferMode::ALL
        .iter()
        .map(|&m| warm_exp.base_run(&w, m))
        .collect();
    let warm_stats = warm_disk.stats();
    assert_eq!(warm_stats.misses, 0, "warm rerun must not simulate");
    assert_eq!(warm_stats.hits, TransferMode::ALL.len() as u64);
    assert_eq!(cold, warm, "cached reports must round-trip exactly");

    // The memo counted zero disk-era computes on the warm side too: the
    // closure ran (to consult the disk) but produced no fresh simulation.
    assert_eq!(warm_exp.memo_stats().entries, TransferMode::ALL.len());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn device_change_invalidates_cached_entries() {
    let dir = scratch_dir("device");
    let w = suite::by_name("2DCONV", InputSize::Tiny).unwrap();

    let (exp_a, disk_a) = cached_experiment(&dir);
    exp_a.base_run(&w, TransferMode::Async);
    assert_eq!(disk_a.stats().stores, 1);

    // Same store, different device: the fingerprint changes, so the
    // entry written above must not be served.
    let mut device = Device::a100_epyc();
    device.system_overhead = device.system_overhead + device.system_overhead;
    let disk_b = Arc::new(DiskCache::at(dir.clone()));
    let exp_b = Experiment::new()
        .with_runs(3)
        .with_cache(disk_b.clone())
        .with_device(device);
    exp_b.base_run(&w, TransferMode::Async);
    let stats = disk_b.stats();
    assert_eq!(stats.hits, 0, "a different device must miss");
    assert_eq!(stats.misses, 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_key_collisions_degrade_to_misses() {
    let dir = scratch_dir("verify");
    let w = suite::by_name("vector_seq", InputSize::Tiny).unwrap();
    let (exp, disk) = cached_experiment(&dir);
    let report = exp.base_run(&w, TransferMode::Standard);

    // The stored entry answers only the exact key it was written under:
    // a lookup whose full key line differs (here: another mode) misses
    // even though nothing else about the store changed.
    let hit_key = CacheKey::new(&w.memo_key(), TransferMode::Standard, {
        hetsim::cache::device_fingerprint(&Device::a100_epyc())
    });
    let miss_key = CacheKey::new(&w.memo_key(), TransferMode::Uvm, {
        hetsim::cache::device_fingerprint(&Device::a100_epyc())
    });
    assert_eq!(disk.load(&hit_key), Some(report));
    assert_eq!(disk.load(&miss_key), None);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn racing_threads_never_duplicate_a_base_simulation() {
    let w = suite::by_name("kmeans", InputSize::Tiny).unwrap();
    let exp = Experiment::new().with_runs(3);
    // 32 tasks on 4 workers all demand the same (workload, mode) cell;
    // the sharded memo's single-flight cell must run it exactly once.
    pool::with_threads(4, || {
        pool::run(32, |_| {
            exp.base_run(&w, TransferMode::UvmPrefetchAsync);
        })
    });
    let stats = exp.memo_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.lookups, 32);
    assert_eq!(
        stats.computes, 1,
        "check-then-insert race would simulate more than once"
    );
}

/// A figure producer whose grid the warm-rerun test replays.
type Grid = fn(&Experiment, InputSize) -> SuiteComparison;

/// Runs one figure grid at `threads` workers and returns its rendering
/// (figure table plus headline, as `micro`/`apps` print them) with the
/// in-process wall time of the grid computation alone.
fn timed_grid(fig: Grid, exp: &Experiment, size: InputSize, threads: usize) -> (String, Duration) {
    pool::with_threads(threads, || {
        let t = Instant::now();
        let s = fig(exp, size);
        let wall = t.elapsed();
        let text = format!("{}{}", s.to_table(), Headline::from_suite(&s).to_table());
        (text, wall)
    })
}

/// The incremental-sweep contract on whole figure grids at the paper's
/// 30-run method: Fig 7 at Tiny and Large, Fig 8 at Large. Per case, an
/// uncached grid at 1 thread, a cold cached grid at 4 threads and three
/// warm cached grids at 1 thread (each with a fresh memo) render the same
/// bytes; the cold grid stores one entry per cell, and every warm grid
/// hits each cell once and misses none.
///
/// At Large the cold grid must also take at least 5x as long as the
/// fastest warm grid, both timed in-process around the figure producer so
/// process start-up cannot dilute the ratio. A debug build on a 2-vCPU
/// host measures about 31x for Fig 7 and 38x for Fig 8, so the 5x bound
/// holds on a loaded host; the fastest of three warm grids keeps one slow
/// sample out.
#[test]
fn warm_rerun_of_the_fig7_grid_reuses_the_store_across_thread_counts() {
    const RUNS: u64 = 30;
    let cases: [(&str, Grid, usize, InputSize); 3] = [
        (
            "fig7",
            figures::fig7,
            suite::micro_names().len(),
            InputSize::Tiny,
        ),
        (
            "fig7",
            figures::fig7,
            suite::micro_names().len(),
            InputSize::Large,
        ),
        (
            "fig8",
            figures::fig8_at,
            suite::app_names().len(),
            InputSize::Large,
        ),
    ];
    for (name, fig, workloads, size) in cases {
        let label = format!("{name} @ {size}");
        let dir = scratch_dir(name);
        let grid = (workloads * TransferMode::ALL.len()) as u64;
        let cached = || {
            let disk = Arc::new(DiskCache::at(dir.clone()));
            (
                Experiment::new().with_runs(RUNS).with_cache(disk.clone()),
                disk,
            )
        };

        let (uncached, _) = timed_grid(fig, &Experiment::new().with_runs(RUNS), size, 1);

        let (cold_exp, cold_disk) = cached();
        let (cold, cold_wall) = timed_grid(fig, &cold_exp, size, 4);
        assert_eq!(
            cold, uncached,
            "{label}: cold cached grid differs from uncached"
        );
        let stats = cold_disk.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.stores),
            (0, grid, grid),
            "{label}"
        );

        let mut fastest_warm = Duration::MAX;
        for _ in 0..3 {
            let (warm_exp, warm_disk) = cached();
            let (warm, wall) = timed_grid(fig, &warm_exp, size, 1);
            assert_eq!(warm, cold, "{label}: warm cached grid differs from cold");
            let stats = warm_disk.stats();
            assert_eq!(
                (stats.hits, stats.misses),
                (grid, 0),
                "{label}: warm grid simulated"
            );
            fastest_warm = fastest_warm.min(wall);
        }
        if size == InputSize::Large {
            assert!(
                cold_wall >= 5 * fastest_warm,
                "{label}: cold grid {cold_wall:?} is under 5x the fastest warm grid {fastest_warm:?}"
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
