#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to standard error, so
# the last line of standard output is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full source checkout" >&2
  exit 2
fi

# Every PROM_* knob the run depends on is set explicitly by the benchmark
# itself; inherited ones must not leak into the generator either.
for v in $(env | sed -n 's/^\(PROM_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$v"
done

# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
