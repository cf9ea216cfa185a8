#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload trials-dense --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and the traced runs'
# spans. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"
