#!/usr/bin/env bash
# Builds the ceres-serve daemon, the ceres-batch command and the benchmark
# from source, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory (the Go build cache included). It fails, printing no result,
# when the repository's sources are not there to build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOFLAGS=

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ceres-serve" ] || [ ! -d "$root/cmd/ceres-batch" ]; then
	echo "perfbench: run from the root of a ceres checkout (no go.mod, cmd/ceres-serve or cmd/ceres-batch here)" >&2
	exit 1
fi
go build -o "$out/bin/" ./cmd/ceres-serve ./cmd/ceres-batch >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -serve-bin "$out/bin/ceres-serve" -batch-bin "$out/bin/ceres-batch" -work "$out/work" "$@"
