#!/usr/bin/env bash
# Builds the frame-to-verdict benchmark from the checkout it sits in and
# runs it. Run from the repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload pipebench-psc --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and span files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly

bin=$out/perfbench
(cd "$here" && go build -o "$bin" .)
exec "$bin" --spans "$out/spans" "$@"
