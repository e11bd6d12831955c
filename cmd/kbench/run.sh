#!/usr/bin/env bash
# Builds kbench from source and runs it with the given arguments. Run it
# from the root of a checkout, e.g.
#
#   bash cmd/kbench/run.sh -workload suite-flat -seed 1 -seconds 25 -trace 0
#
# The Go build cache, the binary and the run's temporary files (the
# kpartd-coord job store) all stay under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o "$out/kbench" ./cmd/kbench
exec "$out/kbench" "$@"
