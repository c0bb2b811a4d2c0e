#!/usr/bin/env bash
# Benchmark provenance: render target/experiments.jsonl — the JSON record
# stream every bench bin appends to — into EXPERIMENTS.md, diffing the
# measured palettes/rounds against the paper's analytic columns.
#
#   ./scripts/experiments-report.sh            # render existing records
#   ./scripts/experiments-report.sh --refresh  # re-run the quick probes
#                                              # first (scaling/table1/
#                                              # table2/section5), then
#                                              # render
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--refresh" ]]; then
    rm -f target/experiments.jsonl
    echo "==> regenerating records (quick probes)"
    cargo run --release -q -p decolor-bench --bin scaling -- --quick
    cargo run --release -q -p decolor-bench --bin scaling -- --quick --threads 1,4
    cargo run --release -q -p decolor-bench --bin table1 -- --quick || true
    cargo run --release -q -p decolor-bench --bin table2 -- --quick || true
    cargo run --release -q -p decolor-bench --bin section5 -- --quick || true
fi

echo "==> rendering EXPERIMENTS.md"
cargo run --release -q -p decolor-bench --bin experiments_report > EXPERIMENTS.md
echo "wrote EXPERIMENTS.md ($(grep -c '^|' EXPERIMENTS.md) table lines)"
