#!/usr/bin/env bash
# Build the tpnet performance benchmark from source (first use only;
# later runs are an up-to-date check) and run it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload uniform_sat --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr and the build tree to .bench_build/ at the
# repository root, so standard output carries only the benchmark's own
# report, whose last line is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build"

(
    # Concurrent first runs in one checkout must not race the build.
    flock 9
    if [ ! -f "$build/Makefile" ]; then
        cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
    fi
    cmake --build "$build" --target tpnet_perfbench \
        -j "${PERFBENCH_BUILD_JOBS:-4}" >&2
) 9>"$build/.lock"

exec "$build/tpnet_perfbench" --expected "$here/expected_digests.txt" "$@"
