#!/usr/bin/env bash
# Builds cmd/deepsketchd and the benchmark program from the checkout's
# sources into .bench_build/, then runs one benchmark run:
#
#   bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. The Go build cache, temporary
# files, the daemon's logs and WAL all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/deepsketchd" ./cmd/deepsketchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/deepsketchd" -work "$out/work" "$@"
