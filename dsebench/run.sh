#!/usr/bin/env bash
# Builds the armdse benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash dsebench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
#
# Every build artefact (binary, Go build cache) stays under .bench_build
# (or $CARGO_TARGET_DIR when set); the benchmark's own scratch files and
# traces go under .bench_out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/dsebench" .) >&2
exec "$build/dsebench" "$@"
