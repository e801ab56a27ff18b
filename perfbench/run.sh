#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments (see README.md):
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Everything it writes (build cache, binary, members' data, spans) goes to
# .bench_build under the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/data" "$@"
