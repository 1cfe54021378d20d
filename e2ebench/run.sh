#!/usr/bin/env bash
# Builds colsort's end-to-end benchmark from the source tree it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload single-run-64m --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build in the current directory. Nothing is downloaded: the build
# fails when the colsort sources are not next to this directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" --scratch "$out/tmp" "$@"
