#!/usr/bin/env bash
# Regenerate the golden-trace digests (tests/obs/goldens.txt) and the
# verify-grid JSON digests (tests/cli/verify_grid.sha256).
#
# Run this after an intentional change to simulation behavior, trace
# hook coverage, the binary trace format or the campaign JSON, then
# review the diff of both files like any other source change.
#
# Usage: scripts/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR" ]; then
    echo "error: build directory '$BUILD_DIR' not found" >&2
    echo "       configure first: cmake -S . -B $BUILD_DIR" >&2
    exit 1
fi

cmake --build "$BUILD_DIR" --target tpnet_obs_tests tpnet_verify -j "$(nproc)"

TPNET_UPDATE_GOLDENS=1 "$BUILD_DIR"/tests/tpnet_obs_tests \
    --gtest_filter='GoldenTrace.DigestsMatchGoldensAtJobs1And8'

cmake -DTOOL="$BUILD_DIR"/tools/tpnet_verify -DDIR="$BUILD_DIR" \
    -DPINNED=tests/cli/verify_grid.sha256 -DUPDATE=1 \
    -P tests/cli/verify_grid_digest.cmake

echo
echo "new goldens:"
cat tests/obs/goldens.txt tests/cli/verify_grid.sha256
git --no-pager diff --stat -- tests/obs/goldens.txt \
    tests/cli/verify_grid.sha256 || true
