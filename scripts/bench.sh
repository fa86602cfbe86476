#!/usr/bin/env bash
# Regenerates BENCH_memo.json, the perf artifact for cross-run schedule
# memoization: `report bench-memo` diagnoses the Table 2 corpus twice with
# memoization off (the baseline) and twice with it on, checks the diagnoses
# are bit-identical, and reports VM executions, memo/forest hits, and
# simulated seconds saved. BENCH_SCALE overrides the noise scale (default
# 1.0, the full calibration — several minutes; 0.1 runs in seconds), and
# BENCH_OUT the output path (default BENCH_memo.json — the checked-in
# artifact; CI's smoke run writes under target/ instead).
#
# Also regenerates BENCH_resume.json, the crash-safety artifact: `report
# bench-resume` runs a journaled campaign, truncates the journal at 25/50/75%
# of its records (a modeled kill), resumes against a fresh program identity,
# and reports the VM executions the journal replay saved — gated on
# bit-identical diagnoses and >= 40% savings at the 50% interruption point.
# BENCH_RESUME_OUT overrides the output path (default BENCH_resume.json).
#
# Also regenerates BENCH_prune.json, the DPOR-pruning artifact: `report
# bench-prune` diagnoses the Table 2 corpus at every prune level (off,
# conflict, dpor) and reports per-level schedule counts — gated on
# bit-identical diagnoses across all three levels and dpor executing
# >= 30% fewer schedules than conflict. The unpruned off level is
# exponential in the noise scale, so the prune bench runs at its own
# (small) scale: BENCH_PRUNE_SCALE overrides it (default 0.02), and
# BENCH_PRUNE_OUT the output path (default BENCH_prune.json).
#
# Also regenerates BENCH_causality.json, the adaptive-intervention
# artifact: `report bench-causality` diagnoses the Table 2 corpus at both
# causality levels (exhaustive, adaptive) plus an adaptive agreement-audit
# pass in which statically proved flips still execute — gated on
# bit-identical diagnoses across all three sides, zero static-proof
# disagreements, and adaptive paying >= 30% fewer flip VM executions than
# exhaustive. BENCH_CAUSALITY_SCALE overrides its noise scale (default
# 1.0), and BENCH_CAUSALITY_OUT the output path (default
# BENCH_causality.json).
#
# Also regenerates BENCH_corpus.json, the generative-corpus artifact:
# `report fuzz` synthesizes BENCH_CORPUS_SEEDS programs with planted
# races (default 200) and runs every one through the full 24-cell
# executor configuration matrix (prune x memo x workers, plus
# adaptive-causality cells) — gated on bit-identical
# diagnosis digests across every cell and >= 95% planted-race recall at
# both causality levels.
# BENCH_CORPUS_SEEDS overrides the seed count, BENCH_CORPUS_SEED_START
# the first seed (default 0), and BENCH_CORPUS_OUT the output path
# (default BENCH_corpus.json).
#
# Also regenerates BENCH_server.json, the campaignd throughput artifact:
# `report bench-server` streams the Table 2 corpus (three noise scales per
# bug, 30 campaigns) through two fresh server instances — serial
# submission (one campaign at a time holding the whole 8-VM pool) vs 8
# concurrent fair-shared campaigns — and reports campaigns/hour plus
# p50/p95 queue latency on the deterministic simulated clock, gated on
# bit-identical per-job digests and a >= 1.5x campaigns-per-hour speedup.
# BENCH_SERVER_SCALE overrides its noise scale (default 0.05; large
# scales make single campaigns saturate the pool, shrinking the
# concurrency win by design), and BENCH_SERVER_OUT the output path
# (default BENCH_server.json).
set -euo pipefail

cd "$(dirname "$0")/.."

SCALE="${BENCH_SCALE:-1.0}"
OUT="${BENCH_OUT:-BENCH_memo.json}"
RESUME_OUT="${BENCH_RESUME_OUT:-BENCH_resume.json}"
PRUNE_SCALE="${BENCH_PRUNE_SCALE:-0.02}"
PRUNE_OUT="${BENCH_PRUNE_OUT:-BENCH_prune.json}"
CAUSALITY_SCALE="${BENCH_CAUSALITY_SCALE:-1.0}"
CAUSALITY_OUT="${BENCH_CAUSALITY_OUT:-BENCH_causality.json}"
CORPUS_SEEDS="${BENCH_CORPUS_SEEDS:-200}"
CORPUS_SEED_START="${BENCH_CORPUS_SEED_START:-0}"
CORPUS_OUT="${BENCH_CORPUS_OUT:-BENCH_corpus.json}"
SERVER_SCALE="${BENCH_SERVER_SCALE:-0.05}"
SERVER_OUT="${BENCH_SERVER_OUT:-BENCH_server.json}"

cargo build --release -p aitia-bench
./target/release/report bench-memo --scale "$SCALE" > "$OUT"
echo "wrote $OUT (scale $SCALE)"

grep -q '"diagnoses_identical": true' "$OUT" \
    || { echo "FAIL: memoized diagnoses diverged from baseline" >&2; exit 1; }

./target/release/report bench-resume --scale "$SCALE" > "$RESUME_OUT"
echo "wrote $RESUME_OUT (scale $SCALE)"

grep -q '"meets_resume_gate": true' "$RESUME_OUT" \
    || { echo "FAIL: resume bench missed the gate (divergent diagnosis or < 40% VM executions saved at 50% interruption)" >&2; exit 1; }

./target/release/report bench-prune --scale "$PRUNE_SCALE" > "$PRUNE_OUT"
echo "wrote $PRUNE_OUT (scale $PRUNE_SCALE)"

grep -q '"meets_prune_gate": true' "$PRUNE_OUT" \
    || { echo "FAIL: prune bench missed the gate (divergent diagnosis across prune levels or < 30% schedule reduction dpor vs conflict)" >&2; exit 1; }

./target/release/report bench-causality --scale "$CAUSALITY_SCALE" > "$CAUSALITY_OUT"
echo "wrote $CAUSALITY_OUT (scale $CAUSALITY_SCALE)"

grep -q '"meets_causality_gate": true' "$CAUSALITY_OUT" \
    || { echo "FAIL: causality bench missed the gate (divergent diagnosis across causality levels, a static-proof disagreement, or < 30% flip-execution reduction)" >&2; exit 1; }

./target/release/report fuzz --seeds "$CORPUS_SEEDS" \
    --seed-start "$CORPUS_SEED_START" > "$CORPUS_OUT"
echo "wrote $CORPUS_OUT ($CORPUS_SEEDS seeds from $CORPUS_SEED_START)"

grep -q '"meets_corpus_gate": true' "$CORPUS_OUT" \
    || { echo "FAIL: corpus fuzz missed the gate (digest mismatch across the executor matrix or < 95% planted-race recall)" >&2; exit 1; }

./target/release/report bench-server --scale "$SERVER_SCALE" > "$SERVER_OUT"
echo "wrote $SERVER_OUT (scale $SERVER_SCALE)"

grep -q '"meets_server_gate": true' "$SERVER_OUT" \
    || { echo "FAIL: server bench missed the gate (divergent diagnoses between serial and concurrent campaigns, or < 1.5x campaigns/hour at 8 concurrent)" >&2; exit 1; }
