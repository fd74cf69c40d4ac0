#!/usr/bin/env bash
# Builds gmdfbench and the gmdfd farm daemon from this checkout, then runs
# the benchmark with the given flags:
#
#   bash bench/run.sh --workload board_live --seed 2010 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout root (Go build cache, binaries, results, traces, scratch).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export XDG_CONFIG_HOME="$build/config"

cd "$root/bench"
go build -o "$build/bin/gmdfbench" ./cmd/gmdfbench
go build -o "$build/bin/gmdfd" repro/cmd/gmdfd

cd "$root"
case "${1:-}" in
compare | calibrate) exec "$build/bin/gmdfbench" "$@" ;;
esac
exec "$build/bin/gmdfbench" -root "$root" -gmdfd "$build/bin/gmdfd" "$@"
