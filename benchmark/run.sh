#!/bin/sh
# Builds the benchmark from source into benchmark/.build (inside the
# checkout, like everything else this writes) and runs it with the given
# arguments. The build is incremental: after the first run it costs well
# under a second.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" --out "$build" "$@"
