#!/usr/bin/env bash
# Builds the benchmark from source, inside the checkout, and runs it with the
# arguments given. Run from the repository root: the program reads
# BENCHMARK.json from the working directory and writes under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.build/gocache" GOMODCACHE="$here/.build/gomod" GOPATH="$here/.build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -C "$here" -o .build/bench .
# MADV_FREE: the Go runtime hands freed heap back to the kernel lazily, so
# memory the program frees and allocates again is not faulted in again. This
# sandbox prices a fresh page fault several times higher in some minutes than
# in others; with the default, paper_eval reads 13 M or 17.5 M ops/s depending
# on the minute, with this setting 17.6 M or 18.8 M (README, sandbox caveats).
export GODEBUG=madvdontneed=0
exec "$here/.build/bench" "$@"
