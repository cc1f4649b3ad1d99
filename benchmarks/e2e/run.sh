#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs the benchmark.
#
#   benchmarks/e2e/run.sh                      every workload, untraced and traced,
#                                              into benchmarks/e2e/out/result_<seed>.json
#   benchmarks/e2e/run.sh --smoke              the same with 2 s windows
#   benchmarks/e2e/run.sh --workload serve_rw --seed 7 --seconds 20 --trace 0
#                                              one pass; the last line is its JSON result
#   benchmarks/e2e/run.sh agree A.json B.json  compare two result files
#
# Run from the repository root. Every other argument goes to `e2e` (see
# src/main.rs). Both builds share one target directory, so that `e2e` finds
# `ecrpq-serve` beside itself.
set -euo pipefail

here=$(dirname "$0")
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$PWD/target}
case $CARGO_TARGET_DIR in /*) ;; *) CARGO_TARGET_DIR=$PWD/$CARGO_TARGET_DIR ;; esac

# The system under test comes from the repository's own workspace and
# profile; the benchmark is a package of its own.
cargo build --release --offline --quiet -p ecrpq-server --bin ecrpq-serve
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

json_str() { printf '"%s"' "$(printf '%s' "$1" | tr -d '"\\\n')"; }
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
dirty=false
[ -n "$(git status --porcelain 2>/dev/null || true)" ] && dirty=true
export E2E_META="{\"nproc\":$(nproc),\"mem_kib\":$(awk '/MemTotal/{print $2}' /proc/meminfo),\
\"kernel\":$(json_str "$(uname -r)"),\"rustc\":$(json_str "$(rustc -V)"),\
\"commit\":$(json_str "$commit"),\"dirty\":$dirty}"

[ "${1:-}" = agree ] && exec "$CARGO_TARGET_DIR/release/e2e" "$@"
exec "$CARGO_TARGET_DIR/release/e2e" --out-dir "$here/out" "$@"
