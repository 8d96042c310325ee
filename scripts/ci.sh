#!/usr/bin/env bash
# Repo CI gate: build, test, lint. Runs fully offline — every external
# dependency is a vendored path crate, so --offline never hits the net.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release --offline --workspace

echo "== the reference interpreter stays a test oracle =="
# demaq-xquery-reference may be named only under [dev-dependencies]: no
# shipped package may link it.
for pkg in demaq demaq-xquery demaq-baselines demaq-suite; do
    if cargo tree --offline -e normal -p "$pkg" | grep -q demaq-xquery-reference; then
        echo "$pkg depends on demaq-xquery-reference outside [dev-dependencies]" >&2
        exit 1
    fi
done

echo "== no counting allocator ships =="
# Allocation counts are pinned by tests that install a counting global
# allocator in their own test binary (tests/counting). A shipped source
# tree must not install one.
if grep -rn --include='*.rs' '#\[global_allocator\]' crates/*/src src; then
    echo "#[global_allocator] in a shipped source tree (keep it under tests/)" >&2
    exit 1
fi

echo "== test =="
cargo test -q --offline --workspace

echo "== demaq-lint: whole-application analysis =="
LINT=target/release/demaq-lint
# Every shipped program must analyze clean (exit 0)…
"$LINT" --format json examples/*.rs tests/paper_listings.rs tests/slicing_fig2.rs \
    | tee target/lint.json | tail -c 120; echo
# …and the seeded-defect fixture must be caught (exit nonzero).
if "$LINT" --format json scripts/lint/seeded_defect.qdl > /dev/null; then
    echo "lint gate failed open: seeded defects were not detected" >&2
    exit 1
fi
echo "lint: repo programs clean, seeded defects detected"

echo "== decoder fuzzing (10x the default cases) =="
# Random and distance-mangled WAL frames and snapshot bodies: refused as
# Corrupt or read exactly, never a panic, a wrap or an outsized allocation.
DEMAQ_FUZZ_CASES=640 cargo test --offline -p demaq-store --test prop_store \
    -- --nocapture random_

echo "== crash-recovery suite (100 randomized kill points) =="
DEMAQ_CRASH_ITERS=100 cargo test --offline -p demaq-store --test crash_recovery -- --nocapture
# The engine-level scenarios: a gateway deployment and two shards, both
# fsync-always, killed mid-pipeline; no forward or send may ever show
# without the commit that produced it. A local-only chain holds no effect,
# so its crash drops a long unsynced tail that recovery must redo exactly
# once; a gateway fed only over the wire may lose at most 32 ingests.
DEMAQ_CRASH_ITERS=100 cargo test --offline -p demaq-suite --test durability_pipeline -- --nocapture crash
# Narrowed retention killed between fold, GC and checkpoint cycles: the
# recovered store must still count every acked reading.
DEMAQ_CRASH_ITERS=50 cargo test --offline -p demaq-suite --test differential_retention \
    -- --nocapture crash_recovery_preserves_folded_history
# Enqueues racing parallel drains on two shards: every output exactly once,
# every drain returns, and the pending count never goes below zero.
DEMAQ_RACE_ROUNDS=100 cargo test --offline -p demaq-suite --test differential_sharded \
    -- --nocapture concurrent_feed_during_parallel_drain_is_exactly_once
# Lineage reads racing the same drain: every descendant a read returns
# walks back to its root.
DEMAQ_RACE_ROUNDS=100 cargo test --offline -p demaq-suite --test differential_sharded \
    -- --nocapture lineage_reads_during_parallel_drain_end_at_the_root
# Every park and wake in the engine goes through the shim's condvar, which
# skips a notify nobody waits for: 100 rounds of a 100 000-exchange
# ping-pong with untimed waits, each failing if a wake-up is lost.
DEMAQ_RACE_ROUNDS=100 cargo test --offline -p parking_lot --lib \
    -- --nocapture condvar_ping_pong_loses_no_wakeup

# Smoke runs report into target/bench/; start empty, so the schema gate
# below only ever sees what this run wrote.
rm -rf target/bench

echo "== bench smoke: E9 group commit =="
# Shrunk sizes; dumps the batch-size histogram + sync counters. Cargo runs
# benches with the package dir as CWD, so mirror the exposition file into
# the workspace-level target/metrics/.
DEMAQ_E9_SMOKE=1 cargo bench --offline -p demaq-bench --bench e9_group_commit
mkdir -p target/metrics
cp -f crates/bench/target/metrics/e9_group_commit.prom target/metrics/ 2>/dev/null || true

echo "== bench smoke: E6 shared subexpressions =="
# Asserts one shared evaluation per message for every rule count
# internally; the gate re-checks the exposition so a queue whose rules
# silently stopped sharing fails CI.
DEMAQ_E6_SMOKE=1 cargo bench --offline -p demaq-bench --bench e6_rule_compiler
cp -f crates/bench/target/metrics/e6_rule_compiler.prom target/metrics/ 2>/dev/null || true
awk '$1 == "demaq_xquery_shared_reuses_total" { reuses = $2 }
     END { if (reuses + 0 <= 0) {
               print "e6: no shared subexpression was reused (reuses=" reuses ")"; exit 1 }
           print "e6: shared_reuses=" reuses }' \
    target/metrics/e6_rule_compiler.prom

echo "== bench smoke: E10 document/slice-sequence cache =="
# Asserts linear parse shape and live hit traffic internally; the gate
# below re-checks the exposition so a silently-disabled cache fails CI.
DEMAQ_E10_SMOKE=1 cargo bench --offline -p demaq-bench --bench e10_doc_cache
cp -f crates/bench/target/metrics/e10_doc_cache.prom target/metrics/ 2>/dev/null || true
# The member-sequence cell serves an append-only slice via the append
# path, so count appends alongside same-(token, len) hits; its one rebuild
# is the cold read.
awk '$1 == "demaq_core_doc_cache_hits_total" { hits = $2 }
     $1 == "demaq_core_slice_seq_hits_total" { seq += $2 }
     $1 == "demaq_core_slice_seq_appends_total" { seq += $2 }
     $1 == "demaq_core_slice_seq_rebuilds_total" { rebuilds = $2 }
     END { if (hits + 0 <= 0 || seq + 0 <= 0) {
               print "e10: cache hit counters are zero (doc=" hits ", seq=" seq ")"; exit 1 }
           if (rebuilds + 0 > 1) {
               print "e10: append-only slice rebuilt " rebuilds " times (want 1)"; exit 1 }
           print "e10: doc_cache_hits=" hits " slice_seq_hits+appends=" seq " rebuilds=" rebuilds }' \
    target/metrics/e10_doc_cache.prom

echo "== bench smoke: E11 lowered execution plans =="
# Asserts lowered >= reference rule-eval throughput internally (the 1.5x
# floor runs in the full bench; smoke only gates "not slower") and that
# plans were lowered and existence tests short-circuited.
DEMAQ_E11_SMOKE=1 cargo bench --offline -p demaq-bench --bench e11_lowered_plans
cp -f crates/bench/target/metrics/e11_lowered_plans.prom target/metrics/ 2>/dev/null || true
awk '$1 == "demaq_xquery_plans_lowered_total" { plans = $2 }
     $1 == "demaq_xquery_ebv_short_circuits_total" { ebv = $2 }
     $1 == "demaq_xquery_interned_symbols" { syms = $2 }
     END { if (plans + 0 <= 0 || ebv + 0 <= 0 || syms + 0 <= 0) {
               print "e11: lowered-plan counters are zero (plans=" plans ", ebv=" ebv ", syms=" syms ")"; exit 1 }
           print "e11: plans_lowered=" plans " ebv_short_circuits=" ebv " interned_symbols=" syms }' \
    target/metrics/e11_lowered_plans.prom

echo "== bench smoke: E12 sustained drain (4 workers, fsync-always) =="
# Composed hot path under full durability; asserts lineage coverage and
# per-rule attribution internally, and 4 workers must finish the drain.
# Like every smoke run, it leaves its report in target/bench/; the perf
# gate below compares that against the committed BENCH_E12.json.
DEMAQ_E12_SMOKE=1 cargo bench --offline -p demaq-bench --bench e12_sustained_drain
cp -f crates/bench/target/metrics/e12_sustained_drain.prom target/metrics/ 2>/dev/null || true
sync_gate() {
    # A worker must not wait for its own fsync: the acknowledged feed syncs
    # once per message, the drain only when something waits on the disk
    # (held forwards and sends, gateway ingests) and when it goes idle. The
    # gate re-checks the exposition so a silently re-serialized commit path
    # fails CI. The bound on backlog barriers is asserted by the bench
    # itself, which knows its worker count, and fails the step above.
    awk -v bench="$1" '$1 == "demaq_store_wal_syncs_total" { syncs = $2 }
         $1 == "demaq_store_commits_total" { commits = $2 }
         END { if (commits + 0 <= 0 || syncs + 0 >= commits + 0) {
                   print bench ": " syncs " WAL syncs for " commits " commits"; exit 1 }
               print bench ": wal_syncs=" syncs " commits=" commits }' "target/metrics/$1.prom"
}
sync_gate e12_sustained_drain

echo "== bench smoke: E13 sharded drain scaling (1/2/4 shards) =="
# The sharded runtime must scale by whatever cores the host has left over
# the 1-shard deployment: the drain is compute-bound, and the bench
# asserts scaling_4v1 against that host-adaptive ceiling internally (a
# fixed 1.8x would be unfalsifiable on a 2-core runner and too lax on a
# 16-core box). It also asserts zero
# cross-shard forwards (placement keeps the keyed chain shard-local),
# zero payload copies, and zero trace-ring overwrites.
DEMAQ_E13_SMOKE=1 cargo bench --offline -p demaq-bench --bench e13_sharded_drain
cp -f crates/bench/target/metrics/e13_sharded_drain.prom target/metrics/ 2>/dev/null || true
sync_gate e13_sharded_drain

echo "== bench smoke: E14 incremental slice aggregates =="
# The aggregate registry must answer every read of the hot slice: the
# bench asserts the delta/rebuild counter shape internally (deltas linear
# in N, rebuilds rare, membership-only count answered as hits), and the
# full-mode run additionally asserts the >=5x end-to-end win over the
# rescan program (the same guard with its aggregates in forms the
# recognizer does not match) at N=1024 and that a read costs the same
# at N=1024 as at N=256 (read_ns_large_over_small <= 1.5; smoke only
# reports it). The
# gate below re-checks the exposition so a silently-disabled registry
# fails CI.
DEMAQ_E14_SMOKE=1 cargo bench --offline -p demaq-bench --bench e14_incremental_aggregates
cp -f crates/bench/target/metrics/e14_incremental_aggregates.prom \
      crates/bench/target/metrics/e14_incremental_aggregates_rescan.prom target/metrics/ 2>/dev/null || true
awk '$1 == "demaq_core_agg_hits_total" { hits = $2 }
     $1 == "demaq_core_agg_deltas_total" { deltas = $2 }
     END { if (hits + 0 <= 0 || deltas + 0 <= 0) {
               print "e14: aggregate registry counters are zero (hits=" hits ", deltas=" deltas ")"; exit 1 }
           print "e14: agg_hits=" hits " agg_deltas=" deltas }' \
    target/metrics/e14_incremental_aggregates.prom

echo "== bench smoke: E15 static retention soak =="
# The liveness plan must actually narrow: the soak asserts internally
# that the narrowed program released members, its resident bytes plateau
# while the full-retention program (one extra full-scan reader) keeps
# growing, and the observable stats match. The gate below re-checks the
# exposition so a silently-disabled plan (narrowing gated off, plan
# never lowered) fails CI.
DEMAQ_E15_SMOKE=1 cargo bench --offline -p demaq-bench --bench e15_retention_soak
cp -f crates/bench/target/metrics/e15_retention_soak.prom \
      crates/bench/target/metrics/e15_retention_soak_full.prom target/metrics/ 2>/dev/null || true
awk '$1 == "demaq_engine_retention_released_total" { released = $2 }
     $1 == "demaq_store_resident_payload_bytes" { resident = $2 }
     END { if (released + 0 <= 0) {
               print "e15: retention narrowing released nothing (released=" released ")"; exit 1 }
           print "e15: released=" released " resident_bytes=" resident }' \
    target/metrics/e15_retention_soak.prom

echo "== bench trajectory: BENCH_E*.json schema gate =="
# Every bench smoke above must also have emitted its schema-versioned
# report into target/bench/ (only full-mode runs write the committed files
# at the repo root, which must stay valid too). The checker is the offline,
# jq-free validator in crates/bench; --require fails the gate when a bench
# ran without writing its report.
cargo run --offline -q -p demaq-bench --bin bench-check -- \
    --require e9,e10,e11,e12,e13,e14,e15 target/bench/BENCH_E*.json
cargo run --offline -q -p demaq-bench --bin bench-check -- BENCH_E*.json

echo "== bench perf gate: E12 smoke vs committed trajectory =="
# The smoke-produced target/bench/BENCH_E12.json is gated against the
# committed full-mode entry. On a quiet host the 256-msg smoke run measures
# slightly *above* the 2048-msg full run (~1.05-1.15x: same steady-state
# path, smaller working set), so a true >20% regression lands well under
# 0.85. The floor is 0.5, not 0.8, because the reference host's IO
# latency swings +/-40% between runs (measured with interleaved A/B runs
# of identical binaries) — a tighter floor flakes on host noise while
# 0.5 still catches any structural regression.
cargo run --offline -q -p demaq-bench --bin bench-check -- \
    --baseline BENCH_E12.json --min-ratio 0.5 target/bench/BENCH_E12.json

echo "== bench perf gate: E13 smoke vs committed trajectory =="
# Same shape as the E12 gate: the smoke run's absolute throughput numbers
# must stay within noise of the committed full-mode entry (0.5 floor for
# the same +/-40% host IO swing), and the scaling-ratio gate itself ran
# inside the bench above.
cargo run --offline -q -p demaq-bench --bin bench-check -- \
    --baseline BENCH_E13.json --min-ratio 0.5 \
    --headline drain_throughput_4shard target/bench/BENCH_E13.json

echo "== bench perf gate: E14 smoke vs committed trajectory =="
# The headline is per-message incremental throughput, which is flat in N
# by design — so the N=48 smoke run is directly comparable to the
# committed N=1024 full-mode entry. Same 0.5 floor as E12/E13 for host
# IO/noise swing; any structural regression (registry disabled, delta
# path broken) lands far below it.
cargo run --offline -q -p demaq-bench --bin bench-check -- \
    --baseline BENCH_E14.json --min-ratio 0.5 \
    --headline incremental_throughput target/bench/BENCH_E14.json

echo "== bench perf gate: E15 smoke vs committed trajectory =="
# The headline is per-message soak throughput, flat in uptime by design,
# so the 192-msg smoke run compares directly to the committed 3072-msg
# full-mode entry. Same 0.5 floor as E12-E14 for host IO/noise swing;
# a structural regression (narrowing taxing the hot path, GC scans gone
# quadratic) lands far below it.
cargo run --offline -q -p demaq-bench --bin bench-check -- \
    --baseline BENCH_E15.json --min-ratio 0.5 \
    --headline soak_throughput target/bench/BENCH_E15.json

echo "== demaq-benchmark: the frozen public surface still builds and runs =="
# The benchmark package uses only the public API and the metric names in
# its registry.rs; removing either must fail here, not in the pipeline.
cargo test -q --offline --manifest-path demaq-benchmark/Cargo.toml
cargo run --release --offline --manifest-path demaq-benchmark/Cargo.toml -- --quick

echo "== clippy =="
# --no-deps keeps the vendored shims out of the lint gate; warnings in
# first-party crates are errors.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --no-deps -- -D warnings
else
    echo "clippy not installed; skipping lint" >&2
fi

echo "== rustdoc =="
# Broken and private intra-doc links in first-party crates are errors.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== ci ok =="
