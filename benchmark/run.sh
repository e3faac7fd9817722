#!/usr/bin/env bash
# The benchmark's one command: build the harness from source (a no-op
# when it is up to date) and run one workload.
#
#   benchmark/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
#
# The last line of standard output is the result as one JSON object;
# build output goes to standard error. Run it from the repository root
# or anywhere else: paths are taken from this script's own location.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
GPA_BENCH_RUSTC="$(rustc --version)"
GPA_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo none)"
export GPA_BENCH_RUSTC GPA_BENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/gpa-benchmark" --out "$here/out" "$@"
