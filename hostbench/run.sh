#!/usr/bin/env bash
# Build the host-time benchmark from source and run one workload.
#   bash hostbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root; the last line printed is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# build inside the checkout only: no shared dune cache
DUNE_CACHE=disabled dune build --root . ./hostbench/main.exe >&2
exec ./_build/default/hostbench/main.exe "$@"
