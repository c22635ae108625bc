#!/usr/bin/env bash
# The benchmark command. Builds the benchmark (and the engine it links)
# from source with dune, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload oltp|durable|xshard --seed N \
#        --seconds S --trace 0|1 [--small]
#
# Run it from the root of a checkout. Build output goes to stderr; the
# last line of stdout is the run's JSON result.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
