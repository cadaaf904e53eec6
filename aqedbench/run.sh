#!/usr/bin/env bash
# Builds the aqed-serve daemon (from the repository workspace) and the
# aqedbench binary (its own package here), then runs one workload:
#
#   bash aqedbench/run.sh --workload bughunt --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the
# benchmark's result JSON stays the last line of stdout. Both binaries land
# in the same target directory ($CARGO_TARGET_DIR, default `target`),
# where aqedbench finds the daemon next to itself.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
export CARGO_TARGET_DIR=$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p aqed-serve --bin aqed-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/aqedbench" run "$@"
