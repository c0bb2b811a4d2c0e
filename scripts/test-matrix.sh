#!/usr/bin/env bash
# Full equivalence matrix: the workspace test suite under
# DECOLOR_THREADS ∈ {1, 4}, plus the scaling perf-smoke across
# backend ∈ {ram, mmap} at both pool sizes — so every push exercises the
# thread-count-invariance AND storage-backend-equivalence proptests on
# the complete matrix (the in-process tests pin mmap ≡ ram bit-for-bit;
# the smoke legs additionally drive the real bench binaries end-to-end).
#
# Every pool size also runs the crash-recovery smoke: the release-built
# crash_recovery suite including its million-vertex `#[ignore]`d test
# (journaled build killed mid-stream and resumed, chunked Linial killed
# between rounds and resumed, all byte-identical), plus a scaling run on
# the --checkpoint (journaled build + round checkpoint) path.
#
# The suite also runs once with TMPDIR set to a fresh directory, which
# must be empty afterwards: every test removes its own scratch.
#
# Usage: scripts/test-matrix.sh [--quick]
#   --quick  skip the full test suite legs, run only the bench smokes
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

echo "=== decolor-lint (workspace invariants) ==="
cargo run -q -p decolor-lint

if [[ "$QUICK" == 0 ]]; then
    echo "=== cargo test leaves a fresh TMPDIR empty ==="
    test_tmp=$(mktemp -d)
    TMPDIR="$test_tmp" cargo test -q --workspace
    if [[ -n "$(ls -A "$test_tmp")" ]]; then
        echo "tests left scratch behind in $test_tmp:"
        ls -A "$test_tmp"
        exit 1
    fi
    rmdir "$test_tmp"
fi

for threads in 1 4; do
    if [[ "$QUICK" == 0 ]]; then
        echo "=== cargo test (DECOLOR_THREADS=$threads) ==="
        DECOLOR_THREADS=$threads cargo test -q --workspace
        echo "=== cargo test, overflow checks on (DECOLOR_THREADS=$threads) ==="
        DECOLOR_THREADS=$threads RUSTFLAGS="-C overflow-checks=on" cargo test -q --workspace
    fi
    for backend in ram mmap; do
        echo "=== scaling --quick --backend $backend (DECOLOR_THREADS=$threads) ==="
        DECOLOR_THREADS=$threads cargo run --release -q -p decolor-bench --bin scaling -- \
            --quick --backend "$backend"
    done
    for row in t53 t54; do
        echo "=== scaling --quick --only $row --backend mmap (DECOLOR_THREADS=$threads) ==="
        DECOLOR_THREADS=$threads cargo run --release -q -p decolor-bench --bin scaling -- \
            --quick --only "$row" --backend mmap
    done
    echo "=== crash-recovery smoke (DECOLOR_THREADS=$threads) ==="
    DECOLOR_THREADS=$threads cargo test -q --release --test crash_recovery -- --include-ignored
    DECOLOR_THREADS=$threads cargo run --release -q -p decolor-bench --bin scaling -- \
        --quick --backend mmap --checkpoint
done
echo "=== scaling --quick --threads 1,4 (in-process thread axis) ==="
cargo run --release -q -p decolor-bench --bin scaling -- --quick --threads 1,4
grep -q '"threads":1' target/experiments.jsonl
grep -q '"threads":4' target/experiments.jsonl
echo "test matrix green: threads {1,4} x backend {ram,mmap} + thread axis + crash recovery"
