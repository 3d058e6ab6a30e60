#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access required — the
# workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> fault-injection suite (fail points armed, fixed seeds)"
cargo test --release -q -p geopattern-integration --test fault_injection
cargo test --release -q -p geopattern-integration --test dataset_fuzz

echo "==> degradation-equivalence gate (AprioriTid degraded == plain Apriori, Fig 5 data)"
cargo test --release -q -p geopattern-integration --test robustness \
    apriori_tid_degradation_is_equivalent_to_plain_apriori

echo "==> CLI exit-code contract (timeout=4, worker panic=5)"
DATASET="$(mktemp -t geopattern-ci-XXXXXX.gpd)"
trap 'rm -f "$DATASET"' EXIT
cargo run --release -q -p geopattern --bin geopattern -- \
    generate-city --grid 4 --seed 9 --out "$DATASET"
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --timeout 0 >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 4 || { echo "expected exit 4 on --timeout 0, got $code"; exit 1; }
set +e
GEOPATTERN_FAILPOINTS='mining/apriori.count=panic@1:42' \
    cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 5 || { echo "expected exit 5 on injected worker panic, got $code"; exit 1; }

echo "==> kill-and-resume gate (journaled crash, resume bit-identical, journal fuzz)"
cargo test --release -q -p geopattern-integration --test crash_resume

echo "==> CLI crash-safety contract (--journal/--resume/--max-retries, exit 6 on exhaustion)"
JOURNAL="$(mktemp -t geopattern-ci-XXXXXX.journal)"
trap 'rm -f "$DATASET" "$JOURNAL"' EXIT
rm -f "$JOURNAL"
# Injected worker panics recover within the retry budget (exit 0), and
# the shared journal lets every retry resume the failed attempt's work.
GEOPATTERN_FAILPOINTS='mining/apriori.count=panic@0.5:42' \
    cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --journal "$JOURNAL" --max-retries 8 \
    >/dev/null 2>&1 \
    || { echo "expected recovery via --max-retries, got exit $?"; exit 1; }
# A resumed rerun over the completed journal skips journaled levels.
resumed_metrics="$(cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --journal "$JOURNAL" --resume --metrics json)"
echo "$resumed_metrics" | grep -q '"robust/resume_levels_skipped":[1-9]' \
    || { echo "resume served no journaled levels"; exit 1; }
# An unwinnable retry budget exhausts with exit code 6.
rm -f "$JOURNAL"
set +e
GEOPATTERN_FAILPOINTS='mining/apriori.count=panic@1:42' \
    cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --journal "$JOURNAL" --max-retries 2 \
    >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 6 || { echo "expected exit 6 on exhausted retries, got $code"; exit 1; }
# Resuming under a changed configuration is a fingerprint mismatch (exit 2).
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --minsup 0.4 --journal "$JOURNAL" --resume \
    >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 2 || { echo "expected exit 2 on journal fingerprint mismatch, got $code"; exit 1; }

echo "==> strategy-equivalence gate (all counting backends incl. hybrid/auto bit-identical; choose() pure)"
cargo test --release -q -p geopattern-integration --test strategy_equivalence
cargo test --release -q -p geopattern-integration --test bitmap_properties

echo "==> quantized point-location gate (certain int32-grid answers exact; boundary probes never certain; extraction and counters thread/tile invariant)"
cargo test --release -q -p geopattern-integration --test quant_properties

echo "==> tiling-equivalence gate (tiled extraction bit-identical to flat)"
cargo test --release -q -p geopattern-integration --test tiling_properties

echo "==> experiments scaling (emits BENCH_scaling.json, default grid)"
cargo run --release -q -p geopattern-bench --bin experiments -- scaling
test -s BENCH_scaling.json

echo "==> experiments counting smoke (emits BENCH_counting.json; bitmap > hash-subset, hybrid ≥ 3x hash-subset, auto ≤ 1.15x best fixed)"
cargo run --release -q -p geopattern-bench --bin experiments -- counting --check
test -s BENCH_counting.json

echo "==> experiments kernel (emits BENCH_kernel.json; indexed outputs bit-identical to brute force, quant locate reported vs the exact index, lattice fallbacks <5%)"
cargo run --release -q -p geopattern-bench --bin experiments -- kernel --max 256 --check
test -s BENCH_kernel.json

echo "==> experiments tiling (emits BENCH_tiling.json; 1M-feature city, gpb one-tile fetch ≥5x full WKT parse, tiled ≤1.10x flat)"
cargo run --release -q -p geopattern-bench --bin experiments -- tiling --check
test -s BENCH_tiling.json

echo "==> ci.sh: all green"
