//! Spec verification before simulation: the sweep-side wiring of
//! [`hetsim_sanitizer`].
//!
//! Sweeps burn real compute; a mis-specified workload description burns it
//! on numbers that look plausible and are silently wrong (wrapped chunk
//! indices, dropped Scratch touches, outputs that never write back). The
//! CLI's `--verify-specs` flag calls [`enforce`] before any run so a dirty
//! spec fails fast with the full diagnostic text instead.

use hetsim_runtime::Device;
use hetsim_sanitizer::{CheckConfig, ModeAdvice, PerfConfig, Report};
use hetsim_workloads::suite;
use hetsim_workloads::InputSize;

/// Checks one program with the default [`CheckConfig`].
pub fn check_program(program: &dyn hetsim_runtime::GpuProgram) -> Report {
    hetsim_sanitizer::check_program(program, &CheckConfig::default())
}

/// Runs the performance advisor on one program with the default
/// [`PerfConfig`] (see [`hetsim_sanitizer::advise`]).
pub fn advise_program(program: &dyn hetsim_runtime::GpuProgram, device: &Device) -> ModeAdvice {
    hetsim_sanitizer::advise(program, device, &PerfConfig::default())
}

/// Advises every registered workload at `size` on `device`, in registry
/// order.
pub fn advise_registry(size: InputSize, device: &Device) -> Vec<ModeAdvice> {
    let cfg = PerfConfig::default();
    suite::all_entries()
        .iter()
        .map(|entry| {
            let w = (entry.build)(size);
            hetsim_sanitizer::advise(&w, device, &cfg)
        })
        .collect()
}

/// Checks every registered workload (micro + apps + irregular) at `size`,
/// returning the merged report in registry order.
pub fn check_registry(size: InputSize) -> Report {
    let cfg = CheckConfig::default();
    let mut merged = Report::new();
    for entry in suite::all_entries() {
        let w = (entry.build)(size);
        merged.merge(hetsim_sanitizer::check_program(&w, &cfg));
    }
    merged
}

/// Validates a chaos fault plan against its recovery policy, so
/// impossible plans (a nonzero fault rate with a zero retry budget, an
/// out-of-range probability) are rejected before any sweep starts rather
/// than failing its first cell.
///
/// # Errors
///
/// Returns the rendered [`SimError::InvalidPlan`] message.
///
/// [`SimError::InvalidPlan`]: hetsim_runtime::SimError::InvalidPlan
pub fn check_plan(
    plan: &hetsim_runtime::FaultPlan,
    policy: &hetsim_runtime::RecoveryPolicy,
) -> Result<(), String> {
    plan.validate(policy).map_err(|e| e.to_string())
}

/// Turns a dirty report into an error whose message carries the rendered
/// diagnostics; clean reports pass through.
///
/// # Errors
///
/// Returns the report's text rendering when
/// [`Report::is_clean`]`(deny_warnings)` is false.
pub fn enforce(report: &Report, deny_warnings: bool) -> Result<(), String> {
    if report.is_clean(deny_warnings) {
        Ok(())
    } else {
        Err(format!("spec verification failed\n{}", report.to_text()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_clean_and_enforce_passes() {
        let r = check_registry(InputSize::Tiny);
        assert!(r.is_clean(true), "{}", r.to_text());
        assert!(enforce(&r, true).is_ok());
    }

    #[test]
    fn enforce_surfaces_diagnostics() {
        use hetsim_sanitizer::{Diagnostic, Lint, Span};
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Lint::ScratchTouched,
            "w",
            Span::Workload,
            "touches scratch",
            "stop",
        ));
        assert!(enforce(&r, false).is_ok(), "warnings pass by default");
        let err = enforce(&r, true).unwrap_err();
        assert!(err.contains("SAN-T003"), "{err}");
        assert!(err.contains("spec verification failed"));
    }
}
