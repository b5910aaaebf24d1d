#!/bin/sh
# Builds the whole tree under ThreadSanitizer (the "tsan" CMake preset)
# and runs the concurrency-heavy suites under it: the build service
# (daemon/protocol/session tests, the artifact-cache disk-write race
# regression and the smoke-sized concurrent rebuild-storm bench: the
# "service" ctest label), the incremental pipeline ("incremental"
# label), and the multi-threaded builds of ParallelPipelineTest, whose
# per-module phase jobs run concurrently against one artifact cache,
# one program database and the per-module stats slots.
#
# Usage: tests/ci/run_tsan.sh [jobs]
set -eu

JOBS=${1:-2}
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)

cmake --preset tsan -S "$ROOT"
cmake --build --preset tsan -j "$JOBS"
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS" \
      -L 'service|incremental'
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS" \
      -R '^ParallelPipelineTest\.'
