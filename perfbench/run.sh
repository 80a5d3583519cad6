#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the Go tool's config and telemetry,
# the generated universe and the span files all stay in .bench_build at
# the root of the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out" "$@"
