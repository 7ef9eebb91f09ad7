#!/usr/bin/env bash
# Builds stbpu-suite and the benchmark from the checkout this is run
# from, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload timing-model --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/stbpu-suite/main.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an stbpu checkout (go.mod and cmd/stbpu-suite are missing here)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache

go build -o "$out/bin/stbpu-suite" ./cmd/stbpu-suite
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -suite "$out/bin/stbpu-suite" -work "$out/work" "$@"
