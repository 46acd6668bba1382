#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given. Everything the build leaves behind (the
# binary, Go's build cache, work directory and config directory) goes under
# .bench_build/ in the checkout, so a run writes nothing outside it.
# Interactive use needs none of this: `go run ./bench` does the same job.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the benchmark builds the program from source" >&2
	exit 1
fi
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# With a fresh config directory the go command would start its once-a-day
# telemetry child, which is detached and outlives this script; mode "off"
# makes it start nothing and write no counter files.
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bench" ./bench
exec "$out/bench" -tracedir "$out" "$@"
