#!/bin/sh
# Rewrite the figure goldens from a built tree, after a change that
# moves modeled behaviour on purpose:
#
#   tests/goldens/regen.sh [build-dir]      (default: build)
#
# Goldens are taken with every plane knob unset. The checkpoint-format
# digests (checkpoint.digests) are printed by the two golden gtests.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=${1:-build}
unset PULSE_CHECK PULSE_PLACEMENT PULSE_REPLICATION PULSE_SERVING
cmake --build "$build" --target fig4_latency fig5_throughput fig8_distributed \
      fig9_breakdown table2_workloads ablation_eta test_checkpoint test_serving
cmake -DBENCH_DIR="$build/bench" -DGOLDEN_DIR="$here" \
      -DWORK_DIR="$build/golden" -DREGEN=ON -P "$here/check_goldens.cmake"
{
    "$build/tests/test_checkpoint" --gtest_filter='CheckpointGolden.*' ||
        true
    "$build/tests/test_serving" \
        --gtest_filter=Fleet.CheckpointMidFlashCrowdRoundTripsBitIdentically ||
        true
} | sed -n 's/^checkpoint digest: //p' > "$here/checkpoint.digests"
echo "checkpoint digests rewritten in $here/checkpoint.digests"
