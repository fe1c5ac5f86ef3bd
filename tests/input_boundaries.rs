//! Randomized tests of the inputs a user hands the simulator from outside:
//! external kernel traces and on-disk cache entries. Driven by the
//! engine's deterministic [`SimRng`] (no external test dependencies).
//! Every input must give a typed error or a cache miss, never a panic or
//! a wrong result.

use hetsim::cache::{CacheKey, DiskCache, FORMAT_VERSION};
use hetsim::engine::rng::SimRng;
use hetsim::prelude::*;
use hetsim_gpu::exec::{ExecEnv, KernelExecutor};
use hetsim_gpu::kernel::KernelStyle;
use hetsim_gpu::trace::KernelTrace;
use hetsim_gpu::GpuConfig;
use hetsim_workloads::micro;
use std::fs;

const CASES: u64 = 400;

/// Addresses that stress the executor's address arithmetic: zero, the
/// top of the address space, and both sides of page and line boundaries.
fn pick_addr(rng: &mut SimRng) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => u64::MAX - rng.below(256),
        2 => rng.next_u64(),
        3 => (rng.below(1 << 20) << 12).wrapping_sub(rng.below(2)),
        _ => rng.below(1 << 24),
    }
}

/// One trace-text line: mostly well-formed records, some malformed ones.
fn pick_line(rng: &mut SimRng) -> String {
    let class = ["S", "G", "L"][rng.below(3) as usize];
    let kind = ["L", "S"][rng.below(2) as usize];
    let addr = pick_addr(rng);
    match rng.below(16) {
        0..=5 => format!("{class} {kind} {addr:#x}"),
        6 => format!("{class} {kind} {addr:x}  # no prefix"),
        7 | 8 => "T".to_string(),
        9 => "B".to_string(),
        10 => String::new(),
        11 => "# comment".to_string(),
        12 => format!("{class} Q {addr:#x}"),
        13 => format!("{class} {kind} 0x{addr:x}{:x}", rng.below(16)),
        14 => format!("{class} {kind}"),
        _ => ["X", "S", "G L 0x", "T B", "Sx", "\u{e9}", "0x10"][rng.below(7) as usize].to_string(),
    }
}

/// Mutates a trace text: drop, duplicate or corrupt a line, or cut the
/// text short.
fn mutate(rng: &mut SimRng, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..=rng.below(3) {
        let i = rng.below(lines.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 if i < lines.len() => {
                lines.remove(i);
            }
            1 if i < lines.len() => {
                let line = lines[i].clone();
                lines.insert(i, line);
            }
            2 if i < lines.len() => {
                let line = &mut lines[i];
                let cut = rng.below(line.len() as u64 + 1) as usize;
                line.truncate(cut);
            }
            3 => lines.truncate(i),
            _ => lines.insert(i.min(lines.len()), pick_line(rng)),
        }
    }
    lines.join("\n")
}

/// Every text `from_trace_text` accepts also runs through the kernel
/// executor in both styles; every text it rejects gets a typed error.
#[test]
fn trace_text_parses_or_errors_and_every_parsed_trace_executes() {
    let mut rng = SimRng::seed_from_parts(&["props", "trace_text"], 0);
    let w = micro::saxpy(InputSize::Tiny);
    let kernels = w.kernels();
    let kernel = kernels[0];
    let valid = KernelTrace::record(kernel, 2).to_trace_text();
    let exec = KernelExecutor::new(GpuConfig::a100());
    let mut parsed = 0;
    for case in 0..CASES {
        let text = if case % 2 == 0 {
            mutate(&mut rng, &valid)
        } else {
            let n = rng.below(24);
            (0..n).map(|_| pick_line(&mut rng) + "\n").collect()
        };
        let trace = KernelTrace::from_trace_text(
            "fuzz",
            kernel.launch(),
            kernel.tile_ops(),
            kernel.regularity(),
            &text,
        );
        let Ok(trace) = trace else {
            continue;
        };
        parsed += 1;
        for style in [
            KernelStyle::Direct,
            KernelStyle::StagedSync,
            KernelStyle::StagedAsync,
        ] {
            let result = exec.execute(&trace, style, &ExecEnv::standard());
            assert!(
                result.cycles.is_finite(),
                "case {case}: {style:?} ran {} cycles",
                result.cycles
            );
        }
    }
    assert!(
        parsed > CASES / 8,
        "only {parsed} of {CASES} texts parsed; the generator lost its valid half"
    );
}

/// A cache entry cut short at any byte, or with random bytes flipped, is
/// a miss counted as an error: never a panic, never a wrong report.
#[test]
fn corrupt_cache_entries_are_misses_counted_as_errors() {
    let mut rng = SimRng::seed_from_parts(&["props", "cache_entry"], 0);
    let root = std::env::temp_dir().join(format!("hetsim-boundary-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let disk = DiskCache::at(&root);
    let w = micro::saxpy(InputSize::Tiny);
    let report = Runner::new(Device::a100_epyc()).run_base(&w, TransferMode::Uvm);
    let key = CacheKey::new(&w.memo_key(), TransferMode::Uvm, 7);
    disk.store(&key, &report);
    let entries: Vec<_> = fs::read_dir(root.join(format!("v{FORMAT_VERSION}")))
        .expect("store directory")
        .map(|e| e.expect("entry").path())
        .collect();
    let [entry] = entries.as_slice() else {
        panic!("expected one entry, found {entries:?}");
    };
    let valid = fs::read(entry).expect("read entry");

    let mut loads = 0;
    let mut check = |bytes: &[u8], what: &str| {
        fs::write(entry, bytes).expect("write entry");
        assert_eq!(disk.load(&key), None, "{what} was not a miss");
        loads += 1;
        let stats = disk.stats();
        assert_eq!(
            (stats.misses, stats.errors),
            (loads, loads),
            "{what} was not counted as an error"
        );
    };
    for cut in 0..valid.len() {
        check(&valid[..cut], &format!("truncation at byte {cut}"));
    }
    for case in 0..CASES {
        let mut bytes = valid.clone();
        for _ in 0..=rng.below(3) {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 + rng.below(255) as u8;
        }
        if bytes == valid {
            continue; // two flips of one byte cancelled out
        }
        check(&bytes, &format!("flip case {case}"));
    }

    fs::write(entry, &valid).expect("restore entry");
    assert_eq!(disk.load(&key), Some(report), "the restored entry is a hit");
    let _ = fs::remove_dir_all(&root);
}
