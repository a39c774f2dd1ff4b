#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main/perfbench.exe >&2
exec ./_build/default/perfbench/main/perfbench.exe "$@"
