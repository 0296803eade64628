#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through
# (--workload NAME --seed N --seconds S --trace 0|1, or --smoke).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "perfbench: not a FLAMES checkout (no dune-project next to perfbench/)" >&2
  exit 2
fi
# --cache=disabled: build inside the checkout only, nothing in ~/.cache
dune build --root . --display quiet --cache=disabled ./perfbench/main.exe
exec ./_build/default/perfbench/main.exe "$@"
