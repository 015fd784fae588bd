#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the benchmark driver (a module
# of its own, see go.mod) and runs it from the repository root; the driver
# builds cmd/rebeca-broker itself. A run may write only inside its checkout,
# so everything the go command keeps — build cache, module cache, its
# telemetry counters (under the user's config directory) — is pointed into
# .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="$PWD/.bench_build/gopath"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
# -mod=mod lets the go command bring bench/go.mod's go line up to the root
# module's if a later change, which may not edit bench/, raises that one.
export GOFLAGS=-mod=mod
go build -C bench -o ../.bench_build/bin/bench .
exec .bench_build/bin/bench "$@"
