#!/usr/bin/env bash
# Build dici_bench from this checkout and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke] [--out DIR]
#   benchmark/run.sh --compare A/ B/
#
# Without --workload every workload runs, each in its own process. Build
# output goes to stderr; each run's last stdout line is its JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: the dici library sources are not in $root" >&2
  exit 2
fi

build="$here/build"
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target dici_bench -j "$(nproc)"
} 1>&2

cd "$root"
DICI_BENCH_SHA=unknown
if [[ -e "$root/.git" ]]; then
  DICI_BENCH_SHA="$(git describe --always --dirty 2>/dev/null || echo unknown)"
fi
export DICI_BENCH_SHA

[[ "${1:-}" == --compare ]] && exec "$build/dici_bench" "$@"

args=()
workload=""
while (($#)); do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --trace)  # a bare --trace means --trace 1
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        args+=(--trace "$2"); shift 2
      else
        args+=(--trace 1); shift
      fi ;;
    *) args+=("$1"); shift ;;
  esac
done

if [[ -n "$workload" ]]; then
  exec "$build/dici_bench" --workload "$workload" "${args[@]}"
fi
status=0
for w in uniform-l2 uniform-dram cluster-tcp skew-rw; do
  "$build/dici_bench" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
