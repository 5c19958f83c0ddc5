#!/usr/bin/env bash
# The repo's benchmark in one command: build, run, check outputs, print
# every metric by name and unit.
#
#   benchmark/run.sh                      all five workloads, end-to-end metrics
#   benchmark/run.sh --trace 1            the traced pass (per-layer metrics) instead
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                         one workload; last stdout line is the result JSON
#   benchmark/run.sh --smoke              N / 20, two segments each, < 15 s
#   benchmark/run.sh selfcheck            two full sets, compared against the bounds
#
# Exit code: 0 all output checks passed, 1 a check (or selfcheck) failed,
# 2 usage or I/O error, anything else: the build failed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Offline, path dependencies only. A relative CARGO_TARGET_DIR (the driver
# sets `.bench_build`) resolves against the repository root, where we are.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/borg-benchmark"

exec "$bin" "$@"
