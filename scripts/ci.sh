#!/usr/bin/env bash
# The full CI gate, runnable locally: `scripts/ci.sh`. The workflow in
# .github/workflows/ci.yml runs this script and nothing else. Every check
# of the binary is a named test in crates/cli/tests/cli.rs, and the lint
# policy is [workspace.lints] in Cargo.toml. Host speed is not gated
# here: compare two commits with `scripts/bench_compare.sh PARENT_REV`.
set -euxo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
HETSIM_THREADS=1 cargo test --workspace -q
HETSIM_THREADS=4 cargo test --workspace -q
# benchmark/ is a workspace of its own; its tests pin every workload's
# seed-42 smoke-size output digest.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
