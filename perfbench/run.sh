#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload paper-regen --seed 1 --seconds 30 --trace 0
#
# It works in the checkout root, wherever it is started from. The Go build
# cache, module cache, temporary files, toolchain settings and profiles all
# live under .bench_build/ in that root, so nothing is written outside the
# checkout. Build output goes to standard error; the last line of standard
# output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" PPROF_TMPDIR="$out/pprof" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
# With telemetry off the go command writes no counters and starts no upload
# process that would outlive the benchmark.
go telemetry off >/dev/null 2>&1 || true
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -workdir "$out" "$@"
