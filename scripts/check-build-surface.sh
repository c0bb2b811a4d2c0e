#!/usr/bin/env bash
# Build-surface check: everything that must *compile and launch* beyond
# `cargo build && cargo test` — the facade examples, the criterion bench
# suites, and the CLI binary end-to-end. Run from the repo root; CI runs
# this verbatim.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> workspace invariants (decolor-lint)"
cargo run -q -p decolor-lint

echo "==> examples compile (facade crate)"
cargo build --examples

expected_examples=(frequency_assignment hypergraph_diversity open_shop_scheduling
    quickstart sensor_scheduling)
for ex in "${expected_examples[@]}"; do
    [[ -f "examples/$ex.rs" ]] || { echo "missing example source: $ex"; exit 1; }
    [[ -x "target/debug/examples/$ex" ]] || { echo "example did not build: $ex"; exit 1; }
done
echo "    all ${#expected_examples[@]} examples built"

echo "==> bench suites compile (criterion, harness = false)"
cargo bench --no-run --workspace
expected_benches=(table1_edge_coloring table2_diversity_coloring section5_arboricity
    connectors subroutines ablations)
for b in "${expected_benches[@]}"; do
    [[ -f "crates/bench/benches/$b.rs" ]] || { echo "missing bench source: $b"; exit 1; }
done
echo "    all ${#expected_benches[@]} bench suites compiled"

echo "==> CLI end-to-end"
# Also covered by `cargo test --workspace`; kept so this script alone
# certifies the whole build surface (it costs <1 s once compiled).
cargo test -q -p decolor-cli
cargo run -q -p decolor-cli -- --help >/dev/null
cargo run -q -p decolor-cli -- --version

echo "==> CLI mmap backend leaves no scratch behind"
# star and cd stream their derived graphs (edge connector, line graph)
# into scratch under the temp dir; every run must remove it.
mmap_tmp=$(mktemp -d)
for algo in star:x=1 cd:x=1; do
    TMPDIR="$mmap_tmp" target/debug/decolor color "$algo" regular:n=64,d=8 \
        --backend mmap --verify >/dev/null
done
if [[ -n "$(ls -A "$mmap_tmp")" ]]; then
    echo "mmap scratch left behind in $mmap_tmp:"
    ls -A "$mmap_tmp"
    exit 1
fi
rmdir "$mmap_tmp"
echo "    star and cd on --backend mmap removed their scratch"

echo "==> CLI store round trip leaves no scratch behind"
# A journaled store build with --verify, then a standalone verify, run
# with TMPDIR pointed at a fresh directory: both must succeed, the
# finished store must hold only its data files and manifest (no staged
# .tmp file, no journal), and TMPDIR must stay empty.
store_tmp=$(mktemp -d)
store_parent=$(mktemp -d)
store_dir="$store_parent/store"
TMPDIR="$store_tmp" target/debug/decolor store build grid:rows=64,cols=64 "$store_dir" \
    --journal-every 500 --verify >/dev/null
TMPDIR="$store_tmp" target/debug/decolor store verify "$store_dir" >/dev/null
store_files=$(ls -A "$store_dir" | sort | tr '\n' ' ')
if [[ "$store_files" != "adj.0 ep.0 manifest.bin offsets.bin " ]]; then
    echo "store round trip left unexpected files in $store_dir: $store_files"
    exit 1
fi
if [[ -n "$(ls -A "$store_tmp")" ]]; then
    echo "store round trip left scratch behind in $store_tmp:"
    ls -A "$store_tmp"
    exit 1
fi
rm -r "$store_parent"
rmdir "$store_tmp"
echo "    store build --verify and store verify left nothing behind"

echo "build surface OK"
