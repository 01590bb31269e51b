#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload lowload --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build/ in the
# checkout. Outside a full checkout (no ../go.mod) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
