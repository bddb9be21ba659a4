#!/usr/bin/env bash
# Entry point of the benchmark: bash perfbench/run.sh --workload <name>
# --seed <n> --seconds <s> --trace <0|1>, from the root of a checkout.
# Builds the shipped daemon and the runner from source into .bench_build/
# and hands over to the runner. See perfbench/README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/accruald ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: no go.mod or cmd/accruald here; run from the root of a full checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin" "$build/out"
# Everything the toolchain writes stays inside the checkout, and nothing
# is fetched: both modules are standard library only.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bin/accruald" ./cmd/accruald >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -daemon "$build/bin/accruald" -out "$build/out" "$@"
