#!/usr/bin/env bash
# Builds the benchmark and the stc CLI from source, then runs one
# workload. Run from the root of a checkout:
#   bash perfbench/run.sh --workload opamp_qualify --seed 1 --seconds 30 --trace 0
# The last line of standard output is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of an stc checkout (dune-project, lib/, bin/ not found)" >&2
  exit 2
fi
# a non-login shell may not have the opam switch on its PATH
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . ./perfbench/bench.exe ./bin/stc_cli.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
