#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it.
# Run from the repository root:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash _perfbench/run.sh steady --workload <name> --runs 10
#
# Everything the build writes (compiler cache, binary, span files) goes
# to .bench_build/ in the repository root.
set -euo pipefail

root=$PWD
out=$root/.bench_build
if [ ! -f "$root/_perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "_perfbench/run.sh: run from the repository root; barterdist's sources are missing" >&2
	exit 1
fi
mkdir -p "$out/home"

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
	commit=$commit+dirty
fi

# Keep the toolchain's caches and config inside the checkout, and run
# on the library's defaults (GOMAXPROCS = nproc, default GC pacing).
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
unset GOMAXPROCS GOGC GOMEMLIMIT GODEBUG

(cd "$root/_perfbench" && go build -o "$out/perfbench.new" .) >&2
mv "$out/perfbench.new" "$out/perfbench"
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
