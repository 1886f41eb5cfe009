#!/usr/bin/env bash
# Builds asap-server and the benchmark program from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload ingest-fanout --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory, Go's build cache
# included, so the first run compiles everything.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Keep the Go toolchain's caches, telemetry and settings inside too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/asap-server" ./cmd/asap-server
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/asap-server" -workdir "$out/run" "$@"
