#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs
# it with the given arguments:
#
#   bash servebench/run.sh --workload login --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, vault directories) stays
# under .bench_build/ in that directory. The build fails, and so does
# this script, when the rest of the repository is not present.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
# The go command keeps its telemetry counters under the user config
# directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOENV=off
export GOFLAGS=

go -C servebench build -o "$build/servebench" .
exec "$build/servebench" -workdir "$build" "$@"
