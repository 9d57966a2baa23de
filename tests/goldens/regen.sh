#!/bin/sh
# Rewrite the figure goldens from a built tree, after a change that
# moves modeled behaviour on purpose:
#
#   tests/goldens/regen.sh [build-dir]      (default: build)
#
# Goldens are taken with every plane knob unset.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=${1:-build}
unset PULSE_CHECK PULSE_PLACEMENT PULSE_REPLICATION PULSE_SERVING \
      PULSE_POOLING
cmake --build "$build" --target fig4_latency fig5_throughput fig9_breakdown
cmake -DBENCH_DIR="$build/bench" -DGOLDEN_DIR="$here" \
      -DWORK_DIR="$build/golden" -DREGEN=ON -P "$here/check_goldens.cmake"
