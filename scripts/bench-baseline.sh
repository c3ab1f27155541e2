#!/usr/bin/env bash
# Promote fresh full (non-smoke) ablation runs to the committed
# baselines under bench/baselines/. Run on the machine whose numbers the
# baselines should represent, then commit the JSON:
#
#   scripts/bench-baseline.sh
#   git add bench/baselines/ && git commit -m "Refresh bench baselines"
#
# Baselines are machine-shaped: bench-compare warns when the env stamp
# (os/arch/cpus) of baseline and current run differ, because cross-machine
# deltas are not meaningful.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${D4PY_BENCH_QUICK:-0}" != "0" ]]; then
    echo "bench-baseline: refusing to promote a quick run (unset D4PY_BENCH_QUICK)" >&2
    exit 1
fi
if [[ -n "${D4PY_BENCH_HANDICAP:-}" ]]; then
    echo "bench-baseline: refusing to promote a handicapped run (unset D4PY_BENCH_HANDICAP)" >&2
    exit 1
fi

# Every ablation bench (crates/bench/benches/ablation_*.rs) is promoted,
# so a new one needs no edit here. Its report stem is the one
# `BENCH_<stem>.json` it writes under `out_dir()`.
promote() {
    local bench="$1" stem="$2"
    cargo bench --offline --bench "$bench"
    local current="target/bench/BENCH_${stem}.json"
    if [[ ! -f "$current" ]]; then
        echo "bench-baseline: expected $current after the run" >&2
        exit 1
    fi
    mkdir -p bench/baselines
    cp "$current" "bench/baselines/BENCH_${stem}.json"
    echo "bench-baseline: promoted $current -> bench/baselines/BENCH_${stem}.json"
}

for src in crates/bench/benches/ablation_*.rs; do
    bench="$(basename "$src" .rs)"
    stems="$(grep -o 'out_dir()\.join("BENCH_[A-Za-z0-9_]*\.json")' "$src" \
        | sed 's/.*BENCH_\(.*\)\.json.*/\1/' | sort -u || true)"
    if [[ "$(printf '%s\n' "$stems" | grep -c .)" != 1 ]]; then
        echo "bench-baseline: $src must write exactly one BENCH_<stem>.json report" >&2
        exit 1
    fi
    promote "$bench" "$stems"
done

# The chaos matrix is driven by the repro binary, not a cargo bench
# target: the full 16-cell run must pass every fault-recovery invariant
# (repro exits nonzero otherwise) before its report is promotable.
cargo run -q --release --offline -p d4py-bench --bin repro -- chaos
current="target/bench/BENCH_chaos_matrix.json"
if [[ ! -f "$current" ]]; then
    echo "bench-baseline: expected $current after the chaos run" >&2
    exit 1
fi
cp "$current" bench/baselines/BENCH_chaos_matrix.json
echo "bench-baseline: promoted $current -> bench/baselines/BENCH_chaos_matrix.json"
