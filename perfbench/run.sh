#!/usr/bin/env bash
# Build the campaign benchmark from source, then run it with the given
# arguments:  bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs the repository's sources (dune-project, lib/) beside it" >&2
  exit 2
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
