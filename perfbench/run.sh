#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the
# arguments given, from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload hot_mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout (CARGO_TARGET_DIR, when set, names that directory).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
