#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run one workload:
#
#   bash perfbench/run.sh --workload tatp_90 --seed 1 --seconds 20 --trace 0
#
# Workloads: tatp_90, ycsb_a_3 (BENCHMARK.json's) and tatp_kill_9 (crash
# and recovery, run by name; see perfbench/main.ml). The last line of standard
# output is the result as one JSON object; results and traced-run spans
# are also written under .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: not a full source checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe >&2
mkdir -p .perfbench
# default GC settings: nobody runs the simulator with a tuned heap
unset OCAMLRUNPARAM OCAML_RUNTIME_EVENTS_START
export OCAML_RUNTIME_EVENTS_DIR=.perfbench
PERFBENCH_REV=$(git --git-dir=.git rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_REV
exec ./_build/default/perfbench/main.exe "$@"
