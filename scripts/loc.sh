#!/usr/bin/env bash
# Prints the non-vendor Rust line count that ROADMAP aim 2 tracks (the
# "same outputs from less code" metric): every .rs file under crates/,
# src/, tests/ and examples/. Run from anywhere; it measures the repo
# it lives in.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates src tests examples -name '*.rs' | xargs cat | wc -l
