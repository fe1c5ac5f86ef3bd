//! Soundness of the executor's replay memo: sharing a cache replay across
//! calls must never change a result. A shared executor has to agree with a
//! fresh executor per call, and kernels whose access streams differ, or
//! executors that sample or cache differently, must never share. The L1
//! and L2 models a thread keeps from one replay to the next must never
//! carry anything over either.

use hetsim_gpu::exec::{release_replay_caches, ExecEnv, KernelExecutor, KernelResult};
use hetsim_gpu::kernel::{KernelModel, KernelStyle, LaunchConfig, TileOps};
use hetsim_gpu::{GpuConfig, KernelTrace, UvmTlb};
use hetsim_mem::addr::MemAccess;
use hetsim_mem::carveout::Carveout;
use hetsim_uvm::prefetch::Regularity;
use hetsim_workloads::size::InputSize;
use hetsim_workloads::spec::{KernelSpec, StreamPattern};
use hetsim_workloads::suite;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// The `(style, environment)` pairs of the five transfer modes: standard
/// and async copy without translation, demand-paged UVM through 64 KiB
/// mappings, and prefetched UVM (plain and async) through 2 MiB mappings
/// with a partly warmed L2.
fn mode_runs(standard: KernelStyle) -> [(KernelStyle, ExecEnv); 5] {
    let uvm = ExecEnv::new(1.3, 0.0).with_tlb(UvmTlb::Demand);
    let prefetch = ExecEnv::new(1.1, 0.4).with_tlb(UvmTlb::Coalesced);
    [
        (standard, ExecEnv::standard()),
        (KernelStyle::StagedAsync, ExecEnv::standard()),
        (standard, uvm),
        (standard, prefetch),
        (KernelStyle::StagedAsync, prefetch),
    ]
}

fn fresh(kernel: &dyn KernelModel, style: KernelStyle, env: &ExecEnv) -> KernelResult {
    KernelExecutor::new(GpuConfig::a100()).execute(kernel, style, env)
}

#[test]
fn shared_executor_matches_a_fresh_one_per_call() {
    let shared = KernelExecutor::new(GpuConfig::a100());
    let workloads = [
        suite::micro_suite(InputSize::Tiny),
        suite::app_suite(InputSize::Tiny),
        suite::irregular_suite(InputSize::Tiny),
    ]
    .concat();
    for w in &workloads {
        for k in w.kernel_specs() {
            for (style, env) in mode_runs(k.standard_style()) {
                assert_eq!(
                    shared.execute(k, style, &env),
                    fresh(k, style, &env),
                    "{} under {env:?}",
                    k.name()
                );
            }
        }
    }
}

fn base_spec() -> KernelSpec {
    KernelSpec::new("memo", LaunchConfig::new(96, 128, 16 * 1024))
        .with_tiles(12)
        .with_stream(16, StreamPattern::Sequential)
        .with_local_reads(8, 64, false)
        .with_stores(4)
        .with_ops(TileOps::new(2048.0, 1024.0, 128.0))
}

#[test]
fn specs_differing_in_one_stream_field_never_share() {
    let variants = [
        (
            "strided pattern",
            base_spec().with_stream(
                16,
                StreamPattern::Strided {
                    stride_lines: 5,
                    region_lines: 512,
                },
            ),
        ),
        (
            "random pattern",
            base_spec().with_stream(16, StreamPattern::Random { region_lines: 512 }),
        ),
        ("halo", base_spec().with_staged_halo(6)),
        ("local reads", base_spec().with_local_reads(24, 64, false)),
        ("local window", base_spec().with_local_reads(8, 4096, false)),
        ("local random", base_spec().with_local_reads(8, 64, true)),
        ("store window", base_spec().with_store_window(2)),
    ];
    let base = base_spec();
    let styles = [
        KernelStyle::Direct,
        KernelStyle::StagedSync,
        KernelStyle::StagedAsync,
    ];
    for (field, variant) in &variants {
        assert_ne!(base.replay_key(), variant.replay_key(), "{field}");
        let shared = KernelExecutor::new(GpuConfig::a100());
        let mut differs = false;
        for style in styles {
            let env = ExecEnv::standard();
            let own = fresh(variant, style, &env);
            differs |= fresh(&base, style, &env) != own;
            shared.execute(&base, style, &env);
            assert_eq!(shared.execute(variant, style, &env), own, "{field} {style}");
        }
        assert!(
            differs,
            "{field} must change some replay for the test to bite"
        );
    }
}

#[test]
fn sampling_and_carveout_settings_never_share() {
    let k = base_spec();
    let style = KernelStyle::Direct;
    let env = ExecEnv::standard();
    let a100 = GpuConfig::a100();
    let shared = KernelExecutor::new(a100.clone());
    let default = shared.execute(&k, style, &env);

    // Clones share the memo, so only the key keeps these apart.
    let blocks = shared
        .clone()
        .with_sample_blocks(3)
        .execute(&k, style, &env);
    let own = KernelExecutor::new(a100.clone()).with_sample_blocks(3);
    assert_eq!(blocks, own.execute(&k, style, &env));
    assert_ne!(blocks, default);

    let tiles = shared
        .clone()
        .with_max_sampled_tiles(4)
        .execute(&k, style, &env);
    let own = KernelExecutor::new(a100.clone()).with_max_sampled_tiles(4);
    assert_eq!(tiles, own.execute(&k, style, &env));
    assert_ne!(tiles, default);

    let carveout = Carveout::with_shared_kib(132).expect("valid carveout");
    let small_l1 = KernelExecutor::new(a100.with_carveout(carveout));
    let cooled = small_l1.execute(&k, style, &env);
    assert_eq!(
        cooled,
        KernelExecutor::new(a100.with_carveout(carveout)).execute(&k, style, &env)
    );
    assert_eq!(shared.execute(&k, style, &env), default);
}

/// A streaming kernel that counts how often its stream is generated.
struct Counted {
    key: Option<&'static str>,
    calls: AtomicU64,
}

impl Counted {
    fn new(key: Option<&'static str>) -> Self {
        Counted {
            key,
            calls: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl KernelModel for Counted {
    fn name(&self) -> &str {
        "counted"
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(64, 128, 0)
    }
    fn tiles_per_block(&self) -> u64 {
        4
    }
    fn stream_accesses(&self, block: u64, tile: u64, out: &mut Vec<MemAccess>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let base = (block * 4 + tile) * 8 * 128;
        out.extend((0..8).map(|i| MemAccess::global_load(base + i * 128)));
    }
    fn local_accesses(&self, _block: u64, _tile: u64, _out: &mut Vec<MemAccess>) {}
    fn tile_ops(&self) -> TileOps {
        TileOps::new(256.0, 128.0, 16.0)
    }
    fn regularity(&self) -> Regularity {
        Regularity::Regular
    }
    fn replay_key(&self) -> Option<String> {
        self.key.map(str::to_string)
    }
}

#[test]
fn keyless_kernels_are_never_memoized() {
    let exec = KernelExecutor::new(GpuConfig::a100());
    let env = ExecEnv::standard();
    let keyless = Counted::new(None);
    let first = exec.execute(&keyless, KernelStyle::Direct, &env);
    let per_replay = keyless.calls();
    assert!(per_replay > 0);
    assert_eq!(exec.execute(&keyless, KernelStyle::Direct, &env), first);
    assert_eq!(keyless.calls(), 2 * per_replay, "replayed again");

    // A managed environment translates during the replay, so a keyless
    // kernel still generates its stream once per call.
    let uvm = ExecEnv::new(1.3, 0.0).with_tlb(UvmTlb::Demand);
    let translated = exec.execute(&keyless, KernelStyle::Direct, &uvm);
    assert_eq!(keyless.calls(), 3 * per_replay, "one replay, no TLB walk");
    assert!(translated.tlb_misses > 0);

    // The same kernel with a key replays once, and costing it in a
    // managed environment generates nothing.
    let keyed = Counted::new(Some("counted"));
    exec.execute(&keyed, KernelStyle::Direct, &env);
    exec.execute(&keyed, KernelStyle::Direct, &env);
    assert_eq!(keyed.calls(), per_replay, "served from the memo");
    assert_eq!(exec.execute(&keyed, KernelStyle::Direct, &uvm), translated);
    assert_eq!(keyed.calls(), per_replay, "costing regenerates nothing");

    // Recorded traces carry no key.
    let trace = KernelTrace::record(&base_spec(), 6);
    assert_eq!(trace.replay_key(), None);
}

#[test]
fn executor_is_shareable_across_threads() {
    let exec = KernelExecutor::new(GpuConfig::a100());
    let k = base_spec();
    let env = ExecEnv::standard();
    let expected = fresh(&k, KernelStyle::StagedSync, &env);
    // Released together, both threads usually miss the memo and insert
    // the same replay.
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                assert_eq!(exec.execute(&k, KernelStyle::StagedSync, &env), expected);
            });
        }
    });
    assert_eq!(exec.execute(&k, KernelStyle::StagedSync, &env), expected);
}

/// A thread keeps its replay caches from one kernel to the next. Replaying
/// kernel A and then kernel B on one thread must give B the result it gets
/// on new caches, also when the style or the L1 geometry (the carveout)
/// changes in between. A reads the lines B reads, so anything A left in
/// the caches would turn B's misses into hits, and B re-reads a table that
/// fits the default L1 but not the carveout's smaller one, so a kept L1 of
/// the wrong size would change B's hits.
#[test]
fn replaying_a_then_b_on_one_thread_matches_new_caches() {
    let a100 = GpuConfig::a100();
    let small_l1 = a100.with_carveout(Carveout::with_shared_kib(132).expect("valid carveout"));
    let a = base_spec().with_stores(9).with_local_reads(12, 64, true);
    let b = base_spec().with_local_reads(64, 512, true);
    let (direct, sync, cp_async) = (
        KernelStyle::Direct,
        KernelStyle::StagedSync,
        KernelStyle::StagedAsync,
    );
    let steps = [
        ((&a100, direct), (&a100, cp_async)),
        ((&a100, cp_async), (&a100, direct)),
        ((&a100, sync), (&small_l1, sync)),
        ((&small_l1, direct), (&a100, direct)),
        ((&small_l1, sync), (&small_l1, direct)),
    ];
    let standard = ExecEnv::standard();
    release_replay_caches();
    assert_ne!(
        KernelExecutor::new(a100.clone()).execute(&b, direct, &standard),
        KernelExecutor::new(small_l1.clone()).execute(&b, direct, &standard),
        "B must see the L1 size for the test to bite"
    );
    let envs = [
        ExecEnv::standard(),
        ExecEnv::new(1.3, 0.0).with_tlb(UvmTlb::Demand),
        ExecEnv::new(1.1, 0.4).with_tlb(UvmTlb::Coalesced),
    ];
    for ((config_a, style_a), (config_b, style_b)) in steps {
        for env in &envs {
            release_replay_caches();
            let expected = KernelExecutor::new(config_b.clone()).execute(&b, style_b, env);
            // A starts from new caches too, so B gets exactly what A left.
            // New executors, so neither result comes from a memo.
            release_replay_caches();
            let first = KernelExecutor::new(config_a.clone()).execute(&a, style_a, env);
            assert_ne!(first, expected, "A and B must differ for the test to bite");
            assert_eq!(
                KernelExecutor::new(config_b.clone()).execute(&b, style_b, env),
                expected,
                "{style_a} then {style_b}, L1 {:?} then {:?}, {env:?}",
                config_a.l1_config(),
                config_b.l1_config()
            );
        }
    }
}
