#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
# Run from the repository root; all arguments are passed to the benchmark:
#
#   bash perfbench/run.sh --workload fig1_hpcg32 --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, scratch cache
# directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f perfbench/go.mod || ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

commit=unknown
if git -C "$root" rev-parse --short HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short HEAD)
fi

(cd perfbench && go build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
