#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload server-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# span files all live under .bench_build/, so a run reads and writes only
# inside the checkout. Without the repository's sources beside it the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# Freed Go heap is returned to the kernel with MADV_FREE, so an episode
# reuses the pages the previous one freed without faulting them back in
# (with the default MADV_DONTNEED their number, and with it the host
# figures, varied from episode to episode).
export GODEBUG=madvdontneed=0

# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
