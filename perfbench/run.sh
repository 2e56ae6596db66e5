#!/usr/bin/env bash
# Builds snaptask-server and the benchmark program from this checkout, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's temporary files all live
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/snaptask-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (snaptask sources not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/snaptask-server" ./cmd/snaptask-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
# exec: signals sent to this script reach the benchmark, which owns the
# server child's process group and stops it on every exit path.
exec "$out/bin/perfbench" -root "$root" -server "$out/bin/snaptask-server" "$@"
