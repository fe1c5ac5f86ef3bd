//! The [`GpuProgram`] trait: a complete application as the runtime sees it.

use hetsim_gpu::kernel::KernelModel;
use std::fmt;

/// How a buffer participates in the computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferRole {
    /// Host-initialized, read by kernels (transferred H2D).
    Input,
    /// Written by kernels, read by the host afterwards (transferred D2H).
    Output,
    /// Both (H2D before, D2H after).
    InOut,
    /// Device-only scratch (allocated, never transferred).
    Scratch,
}

impl BufferRole {
    /// Whether the host must ship this buffer to the device.
    pub fn is_input(self) -> bool {
        matches!(self, BufferRole::Input | BufferRole::InOut)
    }

    /// Whether results flow back to the host.
    pub fn is_output(self) -> bool {
        matches!(self, BufferRole::Output | BufferRole::InOut)
    }
}

/// One application buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSpec {
    /// Name for reports.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Transfer role.
    pub role: BufferRole,
}

/// Why a [`BufferSpec`] is invalid, from [`BufferSpec::try_new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferSpecError {
    /// The buffer has zero bytes.
    ZeroSize {
        /// Name of the offending buffer.
        name: String,
    },
    /// The buffer exceeds [`BufferSpec::MAX_BYTES`], so under the UVM
    /// address layout it would overlap the next buffer's base.
    Oversized {
        /// Name of the offending buffer.
        name: String,
        /// The requested size.
        bytes: u64,
    },
}

impl fmt::Display for BufferSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferSpecError::ZeroSize { name } => {
                write!(f, "buffer `{name}` must have non-zero size")
            }
            BufferSpecError::Oversized { name, bytes } => write!(
                f,
                "buffer `{name}` is {bytes} bytes, above the {} byte per-buffer limit",
                BufferSpec::MAX_BYTES
            ),
        }
    }
}

impl std::error::Error for BufferSpecError {}

impl BufferSpec {
    /// Largest representable buffer: the UVM run path lays buffers out at
    /// `4 TiB` spacing (base `(i + 1) << 42`), so anything larger would
    /// alias the next buffer's address range.
    pub const MAX_BYTES: u64 = 1 << 42;

    /// Creates a buffer spec, validating the size.
    ///
    /// # Errors
    ///
    /// Returns [`BufferSpecError`] if `bytes` is zero or exceeds
    /// [`BufferSpec::MAX_BYTES`].
    pub fn try_new<S: Into<String>>(
        name: S,
        bytes: u64,
        role: BufferRole,
    ) -> Result<Self, BufferSpecError> {
        let name = name.into();
        if bytes == 0 {
            return Err(BufferSpecError::ZeroSize { name });
        }
        if bytes > Self::MAX_BYTES {
            return Err(BufferSpecError::Oversized { name, bytes });
        }
        Ok(BufferSpec { name, bytes, role })
    }

    /// Creates a buffer spec.
    ///
    /// # Panics
    ///
    /// Panics if the size is invalid (see [`BufferSpec::try_new`]).
    pub fn new<S: Into<String>>(name: S, bytes: u64, role: BufferRole) -> Self {
        Self::try_new(name, bytes, role).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl fmt::Display for BufferSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} bytes, {:?})", self.name, self.bytes, self.role)
    }
}

/// One access of a kernel's chunk-granular page-touch sequence, in
/// temporal order.
///
/// Streamed by [`GpuProgram::for_each_page_touch`]; the runtime resolves
/// the buffer-relative chunk index against the buffer's base address and
/// replays the sequence through the UVM fault batcher, so the *order* of
/// touches — not just their footprint — decides batching, speculation,
/// and thrashing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTouch {
    /// Index into [`GpuProgram::buffers`].
    pub buffer: usize,
    /// Chunk index *within* that buffer (the runtime clamps it into the
    /// buffer's chunk count).
    pub chunk: u64,
    /// Whether the access writes (dirties the chunk).
    pub write: bool,
}

/// A complete GPU application: buffers plus an ordered kernel sequence.
///
/// Implemented by every workload in `hetsim-workloads`. The runtime derives
/// everything else — transfers, faults, prefetches, kernel styles — from
/// this description plus the chosen [`TransferMode`](crate::TransferMode).
///
/// A program implements `name`, `buffers` and `kernels`, and may override
/// `prefetch_conflict`. One with a temporal touch model also implements
/// [`GpuProgram::for_each_page_touch`]; the other methods are derived and
/// not meant to be overridden.
///
/// `Sync` is a supertrait so a single program description can be shared by
/// reference across the worker threads of a parallel sweep (programs are
/// immutable data; all suite workloads satisfy this trivially).
pub trait GpuProgram: Sync {
    /// Program name (the paper's workload name).
    fn name(&self) -> &str;

    /// The program's buffers.
    fn buffers(&self) -> Vec<BufferSpec>;

    /// Kernels in launch order.
    fn kernels(&self) -> Vec<&dyn KernelModel>;

    /// Prefetch coverage multiplier in `[0, 1]` for multi-kernel programs
    /// whose kernels share data objects: prefetching for one kernel can
    /// displace what another needs (the paper's nw pathology). `1.0` means
    /// no conflict.
    fn prefetch_conflict(&self) -> f64 {
        1.0
    }

    /// Total bytes across all buffers (the paper's "memory footprint").
    fn footprint(&self) -> u64 {
        self.buffers().iter().map(|b| b.bytes).sum()
    }

    /// Streams the chunk-granular page-touch sequence of `kernel`'s
    /// `invocation`-th launch into `sink`, in temporal order. This is the
    /// method a program with a temporal touch model implements; the
    /// runtime and the sanitizer consume the stream touch by touch, so a
    /// round is never materialized.
    ///
    /// Returns `true` for a round that exists — even one that emits no
    /// touch — and `false`, emitting nothing, when the program has no
    /// temporal touch model (the runtime then falls back to
    /// address-ordered range touching) or the model has converged (later
    /// invocations re-touch resident data and add nothing). The default
    /// returns `false`.
    ///
    /// Implementations must be deterministic: the same
    /// `(kernel, invocation, chunk_size)` triple must always emit the same
    /// sequence, so runs stay reproducible and tracing stays a pure
    /// observer.
    fn for_each_page_touch(
        &self,
        _kernel: usize,
        _invocation: u64,
        _chunk_size: u64,
        _sink: &mut dyn FnMut(PageTouch),
    ) -> bool {
        false
    }

    /// The sequence [`GpuProgram::for_each_page_touch`] streams, collected:
    /// `None` where it returns `false`. A convenience for callers that
    /// need the whole round at once; implement `for_each_page_touch`
    /// instead of overriding this.
    fn page_touches(
        &self,
        kernel: usize,
        invocation: u64,
        chunk_size: u64,
    ) -> Option<Vec<PageTouch>> {
        let mut touches = Vec::new();
        self.for_each_page_touch(kernel, invocation, chunk_size, &mut |t| touches.push(t))
            .then_some(touches)
    }

    /// A structural fingerprint suitable as a memoization key for base
    /// runs: two programs with the same `memo_key` produce the same
    /// `RunReport` under any given mode and device.
    ///
    /// The name alone is not enough — sensitivity sweeps build variants
    /// that share a name and footprint but differ in launch geometry
    /// (`vector_seq_custom` sweeps blocks and threads-per-block) — so the
    /// key also captures every buffer spec and every kernel's launch
    /// config, tile counts, arithmetic budget, access regularity, style,
    /// and invocation count, plus the program-level prefetch-conflict
    /// factor. The touch stream is fully determined by the kernel structure
    /// for every workload in the suite, so it needs no separate encoding.
    fn memo_key(&self) -> String {
        use std::fmt::Write as _;
        let mut key = format!("{}|pc={}", self.name(), self.prefetch_conflict());
        for b in self.buffers() {
            let _ = write!(key, "|b:{}:{}:{:?}", b.name, b.bytes, b.role);
        }
        for k in self.kernels() {
            let launch = k.launch();
            let ops = k.tile_ops();
            let _ = write!(
                key,
                "|k:{}:g{}:t{}:s{}:tiles{}:inv{}:{:?}:{:?}:fp{}:int{}:ctl{}",
                k.name(),
                launch.grid_blocks,
                launch.threads_per_block,
                launch.shared_bytes_per_block,
                k.tiles_per_block(),
                k.invocations(),
                k.regularity(),
                k.standard_style(),
                ops.fp,
                ops.int,
                ops.control,
            );
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_predicates() {
        assert!(BufferRole::Input.is_input() && !BufferRole::Input.is_output());
        assert!(!BufferRole::Output.is_input() && BufferRole::Output.is_output());
        assert!(BufferRole::InOut.is_input() && BufferRole::InOut.is_output());
        assert!(!BufferRole::Scratch.is_input() && !BufferRole::Scratch.is_output());
    }

    #[test]
    fn spec_display() {
        let b = BufferSpec::new("a", 1024, BufferRole::Input);
        assert!(b.to_string().contains("a (1024 bytes"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_rejected() {
        let _ = BufferSpec::new("bad", 0, BufferRole::Input);
    }

    #[test]
    fn try_new_validates_sizes() {
        assert!(BufferSpec::try_new("ok", 1, BufferRole::Input).is_ok());
        assert!(BufferSpec::try_new("ok", BufferSpec::MAX_BYTES, BufferRole::Input).is_ok());
        assert_eq!(
            BufferSpec::try_new("z", 0, BufferRole::Output),
            Err(BufferSpecError::ZeroSize {
                name: "z".to_string()
            })
        );
        let err =
            BufferSpec::try_new("big", BufferSpec::MAX_BYTES + 1, BufferRole::Input).unwrap_err();
        assert!(err.to_string().contains("per-buffer limit"), "{err}");
    }
}
