#!/usr/bin/env bash
# Builds zeiotbench, zeiotd and the benchmark from this checkout's sources,
# then runs the benchmark. Everything it writes stays under .bench_build/.
#
#   bash perfbench/run.sh --workload suite --seed 3 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	TMPDIR="$PWD/$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/zeiotbench" ./cmd/zeiotbench >&2
go build -o "$out/bin/zeiotd" ./cmd/zeiotd >&2
(cd perfbench && go build -o "../$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
