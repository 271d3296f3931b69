#!/usr/bin/env bash
# Builds and runs the load benchmark from the repository root, keeping the
# Go build cache, Go's own state, temporary files and every output inside
# .bench_build/ of the checkout. Arguments go to loadgen, e.g.
#   bash bench/run.sh --workload write_dirty --seed 3 --seconds 12 --trace 0
set -euo pipefail
out=$PWD/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/bin"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local
go build -o "$out/bin/loadgen" ./bench/cmd/loadgen
exec "$out/bin/loadgen" -workdir "$out/run" "$@"
