#!/usr/bin/env bash
# Builds the client-path benchmark from source and runs it. Run it from
# the repository root; every flag goes to the benchmark, for example
#
#   bash clientbench/run.sh --workload tc-read --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the data directories and the run reports
# all live under .bench_build/clientbench in the repository.
set -eu
out=.bench_build/clientbench
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOMODCACHE="$PWD/$out/gomod" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd clientbench && go build -o "../$out/clientbench.$$" .)
mv "$out/clientbench.$$" "$out/clientbench"
exec "$out/clientbench" "$@"
