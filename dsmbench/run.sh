#!/usr/bin/env bash
# Builds dsmthermd and the dsmbench load generator from the source tree
# in the current directory, then runs one benchmark workload:
#
#   bash dsmbench/run.sh --workload rules_openloop --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache and span dumps all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the tree.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dsmthermd || ! -f dsmbench/go.mod ]]; then
	echo "dsmbench/run.sh: run from the root of a dsmtherm source tree" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/dsmthermd" ./cmd/dsmthermd
(cd dsmbench && go build -o "$out/dsmbench" .)
exec "$out/dsmbench" -daemon "$out/dsmthermd" -out "$out" -root "$root" "$@"
