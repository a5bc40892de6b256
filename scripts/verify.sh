#!/usr/bin/env bash
# Tier-1 verification gate for this workspace.
#
# Runs everything a change must keep green:
#   1. formatting (rustfmt, check only),
#   2. clippy over every target with warnings denied,
#   3. release build of all workspace members,
#   4. the full test suite (unit + integration + property tests),
#   5. rustdoc with warnings denied (broken intra-doc links fail),
#   6. the documentation examples as tests,
#   7. a scenario smoke run: record → replay → diff of a tiny preset
#      through the release binary (the cross-process half of the
#      trace determinism contract),
#   8. the cross-engine conformance harness in release mode (fixed
#      seeds: lookahead ≡ sequential reference bitwise, per-mode
#      shard-layout invariance, lookahead error ≤ epoch error), plus
#      a `scenario run` smoke of a lookahead preset,
#   9. the shard-protocol model-checking gate in release mode:
#      `shard-check --exhaustive-small` fully enumerates (post-pruning)
#      every catalog scenario's interleavings in both sync modes
#      against the sequential oracle, under a wall-clock budget —
#      including the crash-bearing `pair8-crash` entry, so the
#      recovery protocol is exhausted too,
#  10. a crash-recovery smoke: record → replay → diff of the
#      `crash-sweep` preset with the recovery-event stream embedded
#      (Trace v3), proving crash/repair/restart actions replay
#      bitwise across processes,
#  11. a scenario-service smoke: a resident `repro serve` on a Unix
#      socket, two concurrent clients submitting `smoke` and the
#      8-cell `grid-smoke` sweep with traces, every served trace
#      bitwise-compared against a direct `scenario record` of the
#      same cell, then a clean `serve-shutdown` (socket file gone,
#      server exit 0),
#  12. the chaos gate, in release mode: the seeded fault-injection
#      suite (`chaos`, `journal_resume`, `backpressure` integration
#      tests), then a crash-resume flow through the release binary —
#      a journalled tokened grid is `kill -9`ed mid-flight, the
#      server restarted on the *same* socket path (exercising the
#      stale-socket probe/unlink), the token resubmitted with the
#      retrying client, and every resumed trace `cmp`ed against an
#      uninterrupted run's,
#  13. the repo benchmark's harness (`bench/`, a package outside this
#      workspace that compiles against the crates' public API): its
#      `--smoke` run (every workload, both passes, all output checks,
#      small inputs) and its own unit tests — so a crate-API change
#      that breaks the benchmark's build or checks fails here, not in
#      the driver.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (-D warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test --doc -q"
cargo test --doc -q

echo "==> scenario smoke (record → replay → diff)"
smoke_trace="target/verify-smoke.trace"
cargo run --release -q -p repro-bench --bin repro -- scenario record smoke --out "$smoke_trace"
cargo run --release -q -p repro-bench --bin repro -- scenario replay "$smoke_trace"
cargo run --release -q -p repro-bench --bin repro -- scenario diff "$smoke_trace" "$smoke_trace"

echo "==> cross-engine conformance harness (release, fixed seeds)"
cargo test --release -q -p cluster-sim --test conformance

echo "==> lookahead scenario smoke"
cargo run --release -q -p repro-bench --bin repro -- scenario run smoke-lookahead

echo "==> shard-protocol model checking (release, exhaustive-small)"
cargo run --release -q -p shard-check --bin shard-check -- --exhaustive-small --budget-secs 120

echo "==> crash-recovery smoke (record → replay → diff, recovery stream)"
crash_trace="target/verify-crash.trace"
cargo run --release -q -p repro-bench --bin repro -- scenario record crash-sweep --out "$crash_trace" --recovery
cargo run --release -q -p repro-bench --bin repro -- scenario replay "$crash_trace"
cargo run --release -q -p repro-bench --bin repro -- scenario diff "$crash_trace" "$crash_trace"

echo "==> scenario-service smoke (serve → concurrent submits → bitwise diff → shutdown)"
repro="target/release/repro"
serve_dir="target/verify-serve"
serve_sock="$serve_dir/serve.sock"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
"$repro" serve --socket "$serve_sock" --workers 3 &
serve_pid=$!
for _ in $(seq 1 200); do [ -S "$serve_sock" ] && break; sleep 0.05; done
[ -S "$serve_sock" ] || { echo "verify: server never bound $serve_sock" >&2; exit 1; }
# Two clients concurrently: the single smoke run and the 8-cell grid.
# The socket file appears at bind, before listen, so the first clients
# retry a refused connect instead of failing.
"$repro" serve-submit "$serve_sock" smoke --trace --timing --recovery --retries 3 \
    --out-dir "$serve_dir/smoke" &
client_a=$!
"$repro" serve-submit "$serve_sock" grid-smoke --trace --timing --recovery --retries 3 \
    --out-dir "$serve_dir/grid" &
client_b=$!
wait "$client_a" "$client_b"
# The served smoke trace must be byte-identical to a direct recording.
"$repro" scenario record smoke --out "$serve_dir/smoke-direct.trace" --timing --recovery > /dev/null
cmp "$serve_dir/smoke/smoke.trace" "$serve_dir/smoke-direct.trace"
# Each grid cell's served trace embeds its canonical cell spec;
# `scenario replay` re-runs that spec directly in a fresh process and
# asserts bitwise identity — the served-vs-direct check per cell.
grid_cells=0
for served in "$serve_dir"/grid/*.trace; do
    "$repro" scenario replay "$served" > /dev/null
    grid_cells=$((grid_cells + 1))
done
[ "$grid_cells" -eq 8 ] || { echo "verify: expected 8 grid traces, got $grid_cells" >&2; exit 1; }
# A catalog-hot resubmit must still answer (and identically at that).
"$repro" serve-submit "$serve_sock" smoke > /dev/null
"$repro" serve-shutdown "$serve_sock"
wait "$serve_pid"
[ ! -e "$serve_sock" ] || { echo "verify: socket file survived shutdown" >&2; exit 1; }

echo "==> chaos gate: seeded fault suite (release)"
cargo test --release -q -p scenario-serve --test chaos --test journal_resume --test backpressure

echo "==> chaos gate: kill -9 mid-grid, restart, resume, cmp"
chaos_dir="target/verify-chaos"
chaos_sock="$chaos_dir/serve.sock"
chaos_journal="$chaos_dir/journal"
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
wait_sock() {
    for _ in $(seq 1 200); do [ -S "$1" ] && return 0; sleep 0.05; done
    echo "verify: server never bound $1" >&2
    return 1
}
# The uninterrupted reference run, against its own journal directory.
"$repro" serve --socket "$chaos_sock" --workers 2 --journal-dir "$chaos_dir/journal-ref" &
ref_pid=$!
wait_sock "$chaos_sock"
# Retries cover the bind-before-listen window, as in the smoke above.
"$repro" serve-submit "$chaos_sock" grid-smoke --trace --timing --recovery \
    --token verify-grid --retries 3 --out-dir "$chaos_dir/ref" > /dev/null
"$repro" serve-shutdown "$chaos_sock"
wait "$ref_pid"
# The interrupted run: kill -9 the server while the tokened grid is in
# flight; the client dies with it (its failure is expected).
"$repro" serve --socket "$chaos_sock" --workers 1 --journal-dir "$chaos_journal" &
victim_pid=$!
wait_sock "$chaos_sock"
"$repro" serve-submit "$chaos_sock" grid-smoke --trace --timing --recovery \
    --token verify-grid --out-dir "$chaos_dir/interrupted" > /dev/null 2>&1 &
doomed_client=$!
sleep 0.3
kill -9 "$victim_pid"
wait "$victim_pid" 2> /dev/null || true
wait "$doomed_client" 2> /dev/null || true
# Restart on the SAME socket path: the kill left a stale socket file
# behind, so binding again exercises the probe-then-unlink path.
[ -S "$chaos_sock" ] || { echo "verify: expected a stale socket after kill -9" >&2; exit 1; }
"$repro" serve --socket "$chaos_sock" --workers 2 --journal-dir "$chaos_journal" &
resumed_pid=$!
wait_sock "$chaos_sock"
# Resubmit the same token through the retrying client: journalled
# cells replay, the rest run fresh.
"$repro" serve-submit "$chaos_sock" grid-smoke --trace --timing --recovery \
    --token verify-grid --retries 3 --out-dir "$chaos_dir/resumed" > /dev/null
"$repro" serve-shutdown "$chaos_sock"
wait "$resumed_pid"
# Every resumed trace must be byte-equal to the uninterrupted run's.
resumed_cells=0
for ref_trace in "$chaos_dir"/ref/*.trace; do
    cmp "$ref_trace" "$chaos_dir/resumed/$(basename "$ref_trace")"
    resumed_cells=$((resumed_cells + 1))
done
[ "$resumed_cells" -eq 8 ] || { echo "verify: expected 8 resumed traces, got $resumed_cells" >&2; exit 1; }

echo "==> benchmark harness (bench/ --smoke + its unit tests)"
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- --smoke
(cd bench && cargo test --offline)

echo "verify: all gates green"
