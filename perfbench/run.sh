#!/usr/bin/env bash
# Build the serve daemon and the benchmark from source, then run the
# benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0 --commit "$(git rev-parse HEAD)"
#
# Run it from the root of the repository.  Build output goes to stderr,
# so the last line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . bin/search_cli.exe perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
