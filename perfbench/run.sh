#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload churn21 --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and GOPATH all live under .bench_build/
# in the checkout, so nothing is read from or written to the user's Go
# environment and nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
