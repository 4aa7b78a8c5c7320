#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload sweep|sharded|serve --seed N --seconds S --trace 0|1
# The binary, the Go build cache, the go command's config, telemetry and
# temporary files, profiles, spans and the serve workload's temporary
# store all stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
