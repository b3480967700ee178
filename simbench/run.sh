#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash simbench/run.sh --workload char-cold --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build outputs (binary, Go build and
# module caches, spans of traced runs) go under $CARGO_TARGET_DIR,
# default .bench_build; nothing is fetched over the network.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# Every Go cache and config location points inside $out, so a run writes
# nowhere outside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd "$(dirname "$0")" && go build -o "$out/simbench" .)
exec "$out/simbench" --trace-dir "$out/trace" "$@"
