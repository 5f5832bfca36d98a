#!/usr/bin/env bash
# Offline CI gate for the SecCloud workspace.
#
# Runs the formatting, lint, and tier-1 test gates exactly as the driver
# does — no network access required (the workspace has zero external
# dependencies). Usage: ./ci.sh
#
# SECCLOUD_TESTKIT_CASES scales the property/fault suites (default 200;
# a nightly run would use 2000). SECCLOUD_TESTKIT_SEED replays a failure.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
export SECCLOUD_TESTKIT_CASES="${SECCLOUD_TESTKIT_CASES:-200}"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== release build of every workspace binary (the lint and benches below run them) =="
cargo build --release --workspace --bins

echo "== seccloud-lint (token rules + interprocedural taint / panic_path / arith / dispatch / ctflow / vartime / atomics / locks / blocking / deadline) =="
lint_start=$(date +%s%N)
./target/release/seccloud-lint
lint_end=$(date +%s%N)
echo "lint wall-clock: $(( (lint_end - lint_start) / 1000000 )) ms (SECCLOUD_THREADS=${SECCLOUD_THREADS:-auto})"

echo "== seccloud-lint determinism: serial and 4-thread runs must emit identical reports =="
SECCLOUD_THREADS=1 ./target/release/seccloud-lint --baseline > target/seccloud-lint-t1.json
SECCLOUD_THREADS=4 ./target/release/seccloud-lint --baseline > target/seccloud-lint-t4.json
if ! diff -u target/seccloud-lint-t1.json target/seccloud-lint-t4.json; then
    echo "lint output depends on worker scheduling — findings/allowances must be deterministic"
    exit 1
fi

echo "== seccloud-lint fixture suites (each rule catches its seeded violation, passes its clean twin) =="
for bad in panic index secret ct unsafe transport taint_bad panic_path_bad \
           arith_bad dispatch_bad ctflow_bad vartime_bad atomics_bad \
           locks_bad blocking_bad deadline_bad; do
    if ./target/release/seccloud-lint "crates/analyzer/tests/fixtures/${bad}.rs" > /dev/null; then
        echo "fixture ${bad}.rs should have tripped its rule (exit 1), but passed"
        exit 1
    fi
done
for clean in clean taint_clean panic_path_clean arith_clean dispatch_clean \
             ctflow_clean vartime_clean atomics_clean \
             locks_clean blocking_clean deadline_clean; do
    ./target/release/seccloud-lint "crates/analyzer/tests/fixtures/${clean}.rs" > /dev/null
done

echo "== seccloud-lint SARIF artifact: valid JSON with the expected rule ids =="
./target/release/seccloud-lint --format sarif > target/seccloud-lint.sarif
python3 - <<'EOF'
import json
with open("target/seccloud-lint.sarif") as f:
    sarif = json.load(f)
assert sarif["version"] == "2.1.0", sarif["version"]
rules = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
expected = {"panic", "index", "secret", "ct", "unsafe", "transport", "annotation",
            "taint", "panic_path", "arith", "dispatch", "ctflow", "vartime", "atomics",
            "locks", "blocking", "deadline"}
missing = expected - rules
assert not missing, f"SARIF driver.rules missing ids: {sorted(missing)}"
print(f"sarif ok: {len(rules)} rules, {len(sarif['runs'][0]['results'])} results")
EOF

echo "== seccloud-lint baseline drift vs crates/baselines (both directions) =="
./target/release/seccloud-lint --baseline > target/seccloud-lint-baseline.json
if ! diff -u crates/baselines/seccloud-lint-baseline.json target/seccloud-lint-baseline.json; then
    echo "lint baseline drifted — additions *and* removals must be committed deliberately"
    echo "(regenerate with: ./target/release/seccloud-lint --baseline > crates/baselines/seccloud-lint-baseline.json)"
    exit 1
fi

echo "== tier-1: cargo test -q (auto-detected arithmetic backend) =="
cargo test -q

echo "== arithmetic backend sweep: pairing + equivalence suites per SECCLOUD_ARCH =="
# The full workspace already ran under the auto-detected backend above; the
# sweep pins each portable backend and re-runs the crate that dispatches on
# it (unit tests + the cross-backend property suite).
for arch in reference generic; do
    echo "-- SECCLOUD_ARCH=${arch} --"
    SECCLOUD_ARCH="${arch}" cargo test -q -p seccloud-pairing
done

echo "== resilience unit suite (clock/policy/breaker/transport/driver/pool/sharded) =="
cargo test -q -p seccloud-resilience

echo "== registry suite (sharding, commitments, fused cross-shard batch) =="
cargo test -q -p seccloud-registry

echo "== scale smoke bench + sharded/batch-user suites per SECCLOUD_ARCH =="
# The smoke bench (≤10k simulated users) exercises enrollment, per-shard
# commitments, epoch rotation and both cache arms end to end; the new
# suites re-run under each pinned backend with a reduced case count (the
# reference backend is ~20x slower per pairing).
for arch in reference generic; do
    echo "-- SECCLOUD_ARCH=${arch} --"
    SECCLOUD_ARCH="${arch}" ./target/release/bench_scale --smoke \
        --out "target/BENCH_scale_smoke_${arch}.json"
    SECCLOUD_ARCH="${arch}" SECCLOUD_TESTKIT_CASES=25 cargo test -q --test batch_users
    SECCLOUD_ARCH="${arch}" cargo test -q --test fault_injection sharded
done

echo "== fault/property/recovery suites: serial and 4-thread (${SECCLOUD_TESTKIT_CASES} cases) =="
SECCLOUD_THREADS=1 cargo test -q --test fault_injection --test wire_roundtrip --test batch_users
SECCLOUD_THREADS=4 cargo test -q --test fault_injection --test wire_roundtrip --test batch_users

echo "== socket runtime suite: real TCP + chaos proxy, serial and 4-worker server =="
SECCLOUD_THREADS=1 cargo test -q --test net_rpc
SECCLOUD_THREADS=4 cargo test -q --test net_rpc

echo "== service smoke bench: loopback latency + audit success under socket faults =="
./target/release/bench_service --smoke --out target/BENCH_service_smoke.json

echo "CI OK"
