#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of the
# repository. See README.md beside this file, or pass --help.
#
#   benchmark/run.sh                        every workload, plain and traced
#   benchmark/run.sh --trace                traced runs only
#   benchmark/run.sh --workload kernel_flat one workload
#   benchmark/run.sh --seed 7               other inputs
#   benchmark/run.sh --repeat 5             the spread of every metric over 5 runs
#   benchmark/run.sh --smoke                tiny inputs, every cell, check and name, under 20 s
#   benchmark/run.sh compare A.json B.json  two stored results side by side
#   benchmark/run.sh metrics                every metric: kind, name, unit, better
set -euo pipefail
here="$(dirname "$0")"
# The build's own output goes to stderr, so that the last line of stdout is
# the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
target="${CARGO_TARGET_DIR:-$here/target}"
exe="$target/release/reorderlab-benchmark"
if [ "${1:-}" = "compare" ] || [ "${1:-}" = "metrics" ]; then
  exec "$exe" "$@"
fi
exec "$exe" --out-dir "$here/out" "$@"
