#!/usr/bin/env bash
# Smoke test: the unit tests, then every workload untraced and traced
# at 1 s warm-up + 3 s. `all` exits non-zero on a wrong answer, a
# failed operation or a missing end-to-end metric. The result file and
# its history line go under the build directory, not under results/.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    all --warmup 1 --seconds 3 \
    --out "${CARGO_TARGET_DIR:-benchmark/target}/smoke/result.json"
