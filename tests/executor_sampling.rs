//! The kernel executor simulates a sample of each kernel's blocks and
//! extrapolates to the whole grid. This pins how the estimate converges
//! as the sample widens.

use hetsim_gpu::exec::{ExecEnv, KernelExecutor};
use hetsim_gpu::kernel::KernelStyle;
use hetsim_gpu::GpuConfig;
use hetsim_runtime::GpuProgram;
use hetsim_workloads::{micro, InputSize};

/// Sampling-width ablation on conv2d at Large (kernel 0, direct style,
/// standard environment), against a reference run of 48 blocks and up to
/// 1024 tiles. The cycle error must shrink strictly as the sample widens
/// from 1 to 24 blocks, and the default executor (6 blocks, 96 tiles)
/// must land within 12% of the reference. Measured: +77.98%, +38.16%,
/// +18.25%, +11.61%, +4.98% and +1.66% at 1, 2, 4, 6, 12 and 24 blocks.
#[test]
fn sampling_error_shrinks_with_width_and_default_is_within_12_percent() {
    let w = micro::conv2d(InputSize::Large);
    let k = w.kernels()[0];
    let cycles = |exec: KernelExecutor| {
        exec.execute(k, KernelStyle::Direct, &ExecEnv::standard())
            .cycles
    };
    let reference = cycles(
        KernelExecutor::new(GpuConfig::a100())
            .with_sample_blocks(48)
            .with_max_sampled_tiles(1024),
    );
    let error = |c: f64| (c / reference - 1.0).abs();

    let errors: Vec<f64> = [1u64, 2, 4, 6, 12, 24]
        .into_iter()
        .map(|blocks| {
            error(cycles(
                KernelExecutor::new(GpuConfig::a100()).with_sample_blocks(blocks),
            ))
        })
        .collect();
    assert!(
        errors.windows(2).all(|p| p[1] < p[0]),
        "error must shrink as the sample widens: {errors:?}"
    );

    let default = error(cycles(KernelExecutor::new(GpuConfig::a100())));
    assert!(
        default < 0.12,
        "default executor is {:.2}% off the reference",
        default * 100.0
    );
}
