#!/usr/bin/env bash
# Builds the xbcd benchmark from this checkout's sources and runs it:
#
#   bash xbcbench/run.sh --workload cold|sweep|cached --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory. See xbcbench/RATIONALE.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build/xbcbench"
mkdir -p "$out/tmp"

# The go command's caches, temporary files and telemetry stay in $out; it
# builds offline with the installed toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/xbcbench" .)
exec "$out/xbcbench" "$@"
