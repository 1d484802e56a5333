#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload build|churn --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything it writes — the Go build cache,
# the binary, work files and artifacts — stays under .bench_build/.
set -euo pipefail

root=$(pwd)
bench_dir="$root/perfbench"
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$bench_dir/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS="-mod=mod -buildvcs=false"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off

# The revision stamped into the artifact; a checkout that is not a git
# repository records "unknown".
rev=unknown
if command -v git >/dev/null 2>&1; then
	rev=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

(cd "$bench_dir" && go build -ldflags "-X equitruss/internal/buildinfo.revision=$rev" -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
