//! Static checks over a [`GpuProgram`] description: buffer-role lints,
//! touch-sequence lints, and mode-compatibility lints.
//!
//! Everything here mirrors what the runtime's run pipeline actually does
//! with the description — every lint corresponds to a concrete silent
//! compensation (wrap, drop, no-op) or panic in `hetsim_runtime::run`.

use crate::diag::{Diagnostic, Lint, Report, Span};
use crate::CheckConfig;
use hetsim_gpu::kernel::KernelStyle;
use hetsim_runtime::program::{BufferRole, BufferSpec, GpuProgram};
use hetsim_runtime::run::MAX_SEQUENCED_ROUNDS;

/// Per-buffer aggregation of one lint across a kernel's touch sequences:
/// occurrence count plus the first offending touch.
#[derive(Debug, Clone)]
struct Agg {
    count: u64,
    first: Span,
    example: u64,
}

fn bump(map: &mut std::collections::BTreeMap<usize, Agg>, key: usize, span: Span, example: u64) {
    map.entry(key).and_modify(|a| a.count += 1).or_insert(Agg {
        count: 1,
        first: span,
        example,
    });
}

/// Runs every program-layer check against `program` and returns the
/// findings.
///
/// The checks are purely static: no simulation is run, only the
/// description (`buffers`, `kernels`, the `for_each_page_touch` stream,
/// `prefetch_conflict`) is inspected, mirroring how the runtime consumes
/// it. Deterministic: the same program and config always produce the same
/// report, in the same order.
pub fn check_program(program: &dyn GpuProgram, cfg: &CheckConfig) -> Report {
    let mut report = Report::new();
    let name = program.name().to_string();
    let buffers = program.buffers();
    let kernels = program.kernels();
    let chunk = cfg.chunk_size.max(1);

    check_buffers(&mut report, &name, &buffers);
    check_stores(&mut report, &name, &buffers, &kernels);

    // --- touch-sequence lints -------------------------------------------
    let nchunks: Vec<u64> = buffers
        .iter()
        .map(|b| b.bytes.div_ceil(chunk).max(1))
        .collect();
    // (read, write) coverage per buffer across every kernel's sequences.
    let mut cov = vec![(false, false); buffers.len()];
    let mut all_sequenced = !kernels.is_empty();

    for (ki, kernel) in kernels.iter().enumerate() {
        if kernel.standard_style() == KernelStyle::StagedAsync {
            report.push(Diagnostic::new(
                Lint::UnhonorableStandardStyle,
                &name,
                Span::Kernel {
                    index: ki,
                    name: kernel.name().to_string(),
                },
                format!(
                    "kernel `{}` declares StagedAsync as its hand-written style, which \
                     standard and uvm modes cannot honor",
                    kernel.name()
                ),
                "only async modes run StagedAsync kernels; declare Direct or StagedSync \
                 as the standard style",
            ));
        }

        let rounds = kernel.invocations().clamp(1, MAX_SEQUENCED_ROUNDS);
        let mut sequenced = false;
        let mut touches_seen = 0u64;
        let mut oob_buffer: Option<Agg> = None;
        let mut oob_chunk = std::collections::BTreeMap::new();
        let mut scratch = std::collections::BTreeMap::new();
        let mut input_write = std::collections::BTreeMap::new();

        for inv in 0..rounds {
            let mut pos = 0;
            let round = program.for_each_page_touch(ki, inv, chunk, &mut |t| {
                let span = Span::Touch {
                    kernel: ki,
                    invocation: inv,
                    position: pos,
                };
                pos += 1;
                if t.buffer >= buffers.len() {
                    match &mut oob_buffer {
                        Some(a) => a.count += 1,
                        None => {
                            oob_buffer = Some(Agg {
                                count: 1,
                                first: span,
                                example: t.buffer as u64,
                            })
                        }
                    }
                    return;
                }
                let b = &buffers[t.buffer];
                if matches!(b.role, BufferRole::Scratch) {
                    bump(&mut scratch, t.buffer, span.clone(), t.chunk);
                }
                if t.chunk >= nchunks[t.buffer] {
                    bump(&mut oob_chunk, t.buffer, span.clone(), t.chunk);
                }
                if t.write && matches!(b.role, BufferRole::Input) {
                    bump(&mut input_write, t.buffer, span, t.chunk);
                }
                if t.write {
                    cov[t.buffer].1 = true;
                } else {
                    cov[t.buffer].0 = true;
                }
            });
            if !round {
                break;
            }
            sequenced = true;
            touches_seen += pos as u64;
        }

        if !sequenced {
            all_sequenced = false;
        } else if touches_seen == 0 {
            report.push(Diagnostic::new(
                Lint::EmptyTouchSequence,
                &name,
                Span::Kernel {
                    index: ki,
                    name: kernel.name().to_string(),
                },
                format!(
                    "kernel `{}` advertises a touch model but every sequence round is empty",
                    kernel.name()
                ),
                "an empty sequence still disables the address-ordered fallback; emit \
                 touches or return None",
            ));
        }

        if let Some(a) = oob_buffer {
            report.push(Diagnostic::new(
                Lint::TouchBufferOutOfRange,
                &name,
                a.first,
                format!(
                    "touch references buffer index {} but the program has {} buffers \
                     ({} touches affected)",
                    a.example,
                    buffers.len(),
                    a.count
                ),
                "the runtime rejects the program as invalid; fix the model's buffer indices",
            ));
        }
        for (bi, a) in oob_chunk {
            report.push(Diagnostic::new(
                Lint::TouchChunkOutOfBounds,
                &name,
                a.first,
                format!(
                    "chunk {} is past buffer `{}` ({} chunks of {} bytes; {} touches affected)",
                    a.example, buffers[bi].name, nchunks[bi], chunk, a.count
                ),
                "the runtime silently wraps the index (chunk % count), touching a page \
                 the model did not intend; clamp or rescale the model",
            ));
        }
        for (bi, a) in scratch {
            report.push(Diagnostic::new(
                Lint::ScratchTouched,
                &name,
                a.first,
                format!(
                    "buffer `{}` is Scratch but the sequence touches it {} times",
                    buffers[bi].name, a.count
                ),
                "Scratch touches are silently dropped (device-only memory never \
                 far-faults); use a non-Scratch role or remove the touches",
            ));
        }
        for (bi, a) in input_write {
            report.push(Diagnostic::new(
                Lint::InputWritten,
                &name,
                a.first,
                format!(
                    "buffer `{}` is Input but the sequence writes it {} times",
                    buffers[bi].name, a.count
                ),
                "inputs are read-only on the device; declare InOut/Output or make the \
                 touches reads",
            ));
        }
    }

    // Coverage lints only make sense when every kernel is sequence-driven:
    // any non-sequenced kernel falls back to blanket address-ordered
    // touching, which migrates (and dirties) every buffer.
    if all_sequenced {
        for (bi, b) in buffers.iter().enumerate() {
            if matches!(b.role, BufferRole::Scratch) {
                continue;
            }
            let (read, write) = cov[bi];
            let span = Span::Buffer {
                index: bi,
                name: b.name.clone(),
            };
            if !read && !write {
                report.push(Diagnostic::new(
                    Lint::BufferNeverTouched,
                    &name,
                    span,
                    format!(
                        "buffer `{}` is never touched by any kernel's sequence",
                        b.name
                    ),
                    "sequence-driven kernels skip the blanket fallback, so the buffer \
                     silently never migrates; touch it or detach the model",
                ));
            } else if b.role.is_output() && !write {
                report.push(Diagnostic::new(
                    Lint::OutputNeverWritten,
                    &name,
                    span,
                    format!(
                        "buffer `{}` is {:?} but no sequence ever writes it",
                        b.name, b.role
                    ),
                    "the dirty-writeback phase transfers nothing for it; add write \
                     touches or declare it Input",
                ));
            }
        }
    }

    // --- mode-compatibility lints ---------------------------------------
    let conflict = program.prefetch_conflict();
    if conflict < 1.0 && kernels.len() == 1 {
        report.push(Diagnostic::new(
            Lint::ConflictWithoutSiblings,
            &name,
            Span::Workload,
            format!("prefetch_conflict is {conflict} but the program launches a single kernel"),
            "conflict refaults only apply from the second kernel onwards, so the \
             declared conflict never materializes; add the sibling kernel or declare 1.0",
        ));
    }
    if !buffers.is_empty()
        && buffers
            .iter()
            .all(|b| matches!(b.role, BufferRole::Scratch))
    {
        report.push(Diagnostic::new(
            Lint::AllScratch,
            &name,
            Span::Workload,
            format!(
                "all {} buffers are Scratch; no transfer mode moves any data",
                buffers.len()
            ),
            "the five configurations degenerate to identical runs; give at least one \
             buffer a transfer role",
        ));
    }

    report
}

fn check_buffers(report: &mut Report, name: &str, buffers: &[BufferSpec]) {
    for (i, b) in buffers.iter().enumerate() {
        if let Err(e) = BufferSpec::try_new(b.name.clone(), b.bytes, b.role) {
            report.push(Diagnostic::new(
                Lint::InvalidBufferSize,
                name,
                Span::Buffer {
                    index: i,
                    name: b.name.clone(),
                },
                e.to_string(),
                "construct buffers with BufferSpec::try_new to catch this at build time",
            ));
        }
        if let Some(j) = buffers[..i].iter().position(|p| p.name == b.name) {
            report.push(Diagnostic::new(
                Lint::DuplicateBufferName,
                name,
                Span::Buffer {
                    index: i,
                    name: b.name.clone(),
                },
                format!("buffer {i} `{}` duplicates buffer {j}", b.name),
                "rename the buffer; reports and access annotations key on buffer names",
            ));
        }
    }
}

fn check_stores(
    report: &mut Report,
    name: &str,
    buffers: &[BufferSpec],
    kernels: &[&dyn hetsim_gpu::kernel::KernelModel],
) {
    let outputs: Vec<&str> = buffers
        .iter()
        .filter(|b| b.role.is_output())
        .map(|b| b.name.as_str())
        .collect();
    if outputs.is_empty() || kernels.is_empty() {
        return;
    }
    let mut scratch_accesses = Vec::new();
    let any_store = kernels.iter().any(|k| {
        scratch_accesses.clear();
        k.local_accesses(0, 0, &mut scratch_accesses);
        scratch_accesses.iter().any(|a| !a.kind.is_load())
    });
    if !any_store {
        report.push(Diagnostic::new(
            Lint::OutputNeverStored,
            name,
            Span::Workload,
            format!(
                "program declares output buffers ({}) but no kernel's sampled access \
                 stream contains a store",
                outputs.join(", ")
            ),
            "give a kernel output stores (e.g. KernelSpec::with_stores) or declare the \
             buffers Input/Scratch",
        ));
    }
}
