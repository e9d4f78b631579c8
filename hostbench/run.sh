#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it. Run from the
# repository root:
#
#   bash hostbench/run.sh --workload serve-mem --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and every run's scratch
# state live under .bench_build/ in the current directory, so nothing is
# written outside the checkout. The build fails (and the script exits
# non-zero) when the repository the benchmark imports is not next to it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C hostbench build -o "$out/hostbench" .
exec "$out/hostbench" -root "$root" "$@"
