#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it
# writes (build cache, binary, temp dirs, WAL files) under .bench_build/
# in the checkout that holds this script. Arguments go to the binary;
# see bench/README.md.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ignem-bench" .)
exec "$build/ignem-bench" "$@"
