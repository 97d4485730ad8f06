#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the repository root:
#
#   bash benchmark/run.sh -workload field-cold -seed 1
#
# Everything the Go tool writes (build cache, module cache, its own
# config) is pointed into .bench_build/, so a run touches nothing outside
# the checkout and does not depend on $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
# The commit goes in by hand: VCS stamping makes `go build` fail outright
# in a checkout git does not trust, and the driver's is not a repository.
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/exaclim-bench" .)
cd "$root"
exec "$build/exaclim-bench" "$@"
