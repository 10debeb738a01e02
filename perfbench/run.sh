#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig3-irregular32 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact and cache stays
# under .bench_build/ in the repository root.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .) >&2

exec "$out/perfbench" "$@"
