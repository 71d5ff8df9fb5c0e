#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot_zipf --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# traces stay under .bench_build/ in the current directory. The build needs
# the repository's own module one directory up; without it the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
    GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
