#!/usr/bin/env bash
# Builds the benchmark and the server it drives, then runs the benchmark.
# Run from the root of a checkout: bash bench/run.sh [flags] (see bench/README.md).
#
# Everything the build leaves behind goes under .bench_build/ in the
# checkout — binaries, Go's build cache, its temporary files — so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mustserve" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/dwst-bench" .)
go build -o "$build/mustserve" ./cmd/mustserve

exec "$build/dwst-bench" -mustserve "$build/mustserve" "$@"
