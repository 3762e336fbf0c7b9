#!/usr/bin/env bash
# Builds privanalyzer, privanalyzerd and perfbench itself from source
# into .bench_build/, then runs perfbench with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 45 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$PWD/$out/gocache"
export GOMODCACHE="$PWD/$out/gomodcache"
export GOTMPDIR="$PWD/$out/tmp"
export TMPDIR="$PWD/$out/tmp"
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With telemetry on (the default mode is "local"), every go command starts
# a detached child in a session of its own that outlives the build. Mode
# "off" in the private config directory keeps go from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

if [[ ! -f go.mod || ! -d cmd/privanalyzer || ! -d cmd/privanalyzerd ]]; then
	echo "run.sh: run from the repository root; the program's sources are missing" >&2
	exit 2
fi

go build -o "$out/bin/" ./cmd/privanalyzer ./cmd/privanalyzerd
(cd perfbench && go build -o "../$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
