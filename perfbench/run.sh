#!/usr/bin/env bash
# Builds nsyncd and the benchmark program from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#	bash perfbench/run.sh --workload live-floor --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind stays under .bench_build/
# (the Go build cache included), so the checkout is the only place written.
# The build never fetches anything: both modules resolve locally.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
go build -o "$build/bin/nsyncd" ./cmd/nsyncd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" "$@"
