#!/usr/bin/env bash
# Build the benchmark and the dut CLI from this checkout's sources, then
# run one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./bin/dut_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
