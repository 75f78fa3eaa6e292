#!/usr/bin/env bash
# Build the perf ledger from source, then run it with the given arguments,
# checking its metric names against BENCHMARK.json.  Run from anywhere:
#   bash perf/run.sh --workload explore-mesi --seed 1 --seconds 10 --trace 0
# The build writes only to _build/ (the shared dune cache is disabled).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./perf/ascy_ledger.exe >&2
exec ./_build/default/perf/ascy_ledger.exe -bench-json BENCHMARK.json "$@"
