#!/usr/bin/env bash
# The command BENCHMARK.json names. It keeps what the Go toolchain writes
# (build cache, scratch space) inside the checkout, builds the driver
# there and hands it every argument.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# Telemetry off, in the config dir the toolchain now reads. In the default
# local mode the first go command under a fresh config dir starts a detached
# child of its own (the counter uploader) that outlives this script, even
# when the build fails; every go build below and in the driver inherits this.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/bin/avbench ./bench
exec .bench_build/bin/avbench "$@"
