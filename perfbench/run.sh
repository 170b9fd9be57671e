#!/usr/bin/env bash
# Builds qilabeld and the benchmark program (perfbench) from the checkout this script
# sits in, then runs one benchmark workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), including Go's build
# cache, so a fresh checkout builds from source and nothing outside the
# checkout is touched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/qilabeld" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/qilabeld in $root)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS="-mod=mod -buildvcs=false"
export CGO_ENABLED=0

go build -o "$out/qilabeld" ./cmd/qilabeld
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" --daemon "$out/qilabeld" --out "$out" "$@"
