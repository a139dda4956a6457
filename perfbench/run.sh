#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0`.
# Run it from the repository root. The Go build cache, GOPATH, the go
# command's own config and telemetry, temporary files and the binary all
# stay under .bench_build, inside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" "$@"
