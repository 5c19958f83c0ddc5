#!/usr/bin/env bash
# Full correctness gate for the workspace — what CI runs, runnable locally.
# See the "Correctness & static analysis" section of README.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> cargo doc (deny warnings; the workspace's crates, not the vendored stand-ins)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
  --exclude rand --exclude parking_lot --exclude proptest

echo "==> cargo xtask determinism (jobs=1 ≡ jobs=4 arm: 4 Table II rows)"
cargo xtask determinism

echo "==> cargo xtask mc --smoke (schedule-space model checker)"
cargo xtask mc --smoke

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --release

echo "==> examples: each runs once (tests/inventory.rs checks every one has a line here)"
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example custom_problem > /dev/null
cargo run -q --release --example parallel_scaling > /dev/null
cargo run -q --release --example real_threads > /dev/null

echo "==> borg-mc full catalogue: every non-smoke scenario's (schedules, states, pruned) pinned"
cargo test -q --release -p borg-mc --lib scenarios::tests::full_catalogue_counts_are_pinned -- --ignored --exact

echo "==> one-process ratio test: compiled order-key filter vs the exact kernel (>= 5x) and the loop (>= 1.25x)"
cargo test -q --release -p borg-core --test kernel_ratio -- --ignored

echo "==> one-process ratio tests: MasterEngine::handle at W = 1023 vs W = 2 (<= 1.3x), quiet recovery vs fault-free (<= 1.1x)"
cargo test -q --release -p borg-protocol --test handle_ratio -- --ignored

echo "==> one-process ratio test: EventQueue vs the float-ordered BinaryHeap at 1023 pending (>= 1.5x)"
cargo test -q --release -p borg-desim --test queue_ratio -- --ignored

echo "==> one-process delay tests: precise_delay vs thread::sleep median overshoot at 1 ms (<= 1/3), zero and negative delays return in < 1 ms"
cargo test -q --release -p borg-parallel --test delay_ratio -- --ignored

echo "==> one-process wall-clock band: run_threaded at P = 3, elapsed at T_F = 4 ms over 2 ms within [1.9, 2.05]"
cargo test -q --release -p borg-parallel --test time_scale_ratio -- --ignored

echo "==> one-process ratio test: encode_into a reused frame vs a fresh Vec (<= 0.6x)"
cargo test -q --release -p borg-net --test encode_ratio -- --ignored

echo "==> one-process wall-clock band: a worker rejects a misshapen work item in < 1 s despite a 5 s announced delay"
cargo test -q --release -p borg-net --test reject_bound -- --ignored

echo "==> one-process ratio test: run_threaded vs serve over a Unix socket (>= 1.5x)"
cargo test -q --release -p borg-net --test serve_loopback threads_outrun_sockets -- --ignored

echo "==> one-process wall-clock bands: fit pipeline T_F/T_A/T_C, Table II T_A and sim error, fitted sim error at P = 512 (< 0.35, < Eq. 2 error / 3), saturation point, run_threaded T_F"
cargo test -q --release -p borg-experiments --test fit_bands -- --ignored

echo "==> benchmark/run.sh --smoke (every workload's output checks)"
benchmark/run.sh --smoke

echo "==> borg-exp table2 --smoke --jobs 2 (parallel runner)"
./target/release/borg-exp table2 --smoke --jobs 2 --out target/ci-results-jobs2

echo "==> borg-exp table2 --smoke with trace + metrics export"
./target/release/borg-exp table2 --smoke --out target/ci-results \
  --trace-out target/ci-results/trace_smoke.json \
  --metrics-out target/ci-results/metrics_smoke.jsonl
test -s target/ci-results/trace_smoke.json
test -s target/ci-results/metrics_smoke.jsonl
grep -q '"ph":"X"' target/ci-results/trace_smoke.json
grep -q 't_f_seconds' target/ci-results/metrics_smoke.jsonl

echo "==> borg-exp serve/worker loopback smoke (tracing + flight + live tap)"
NET_SOCK="target/ci-net.sock"
TAP_SOCK="target/ci-tap.sock"
rm -f "$NET_SOCK" "$TAP_SOCK"
./target/release/borg-exp worker --connect "unix:$NET_SOCK" \
  --trace-shard target/ci-results/net_shard_w1.jsonl &
NET_W1=$!
./target/release/borg-exp worker --connect "unix:$NET_SOCK" \
  --trace-shard target/ci-results/net_shard_w2.jsonl &
NET_W2=$!
./target/release/borg-exp tail --connect "unix:$TAP_SOCK" --ticks 3 \
  > target/ci-results/net_tail.txt &
NET_TAIL=$!
./target/release/borg-exp serve --listen "unix:$NET_SOCK" --workers 2 \
  --nfe 300 --seed 7 --eval-delay-us 8000 \
  --live "unix:$TAP_SOCK" \
  --flight-out target/ci-results/net_flight.jsonl \
  --trace-shard target/ci-results/net_shard_master.jsonl \
  --metrics-out target/ci-results/net_metrics.jsonl
wait "$NET_W1" "$NET_W2" "$NET_TAIL"
test -s target/ci-results/net_metrics.jsonl
grep -q 'net\.frames_sent' target/ci-results/net_metrics.jsonl
grep -q '"flight":"borg-flight/v1"' target/ci-results/net_flight.jsonl
grep -Eq '^ *[0-9]+ ' target/ci-results/net_tail.txt

echo "==> borg-exp trace-merge (cross-process causal trace)"
./target/release/borg-exp trace-merge \
  target/ci-results/net_shard_master.jsonl \
  target/ci-results/net_shard_w1.jsonl \
  target/ci-results/net_shard_w2.jsonl \
  --out target/ci-results/net_trace_merged.json
grep -q '"ph":"X"' target/ci-results/net_trace_merged.json
grep -q 't_c_out' target/ci-results/net_trace_merged.json

echo "==> borg-exp serve/worker loopback smoke (chaos arm)"
NET_CHAOS_SOCK="target/ci-net-chaos.sock"
rm -f "$NET_CHAOS_SOCK" "$NET_CHAOS_SOCK.master"
./target/release/borg-exp worker --connect "unix:$NET_CHAOS_SOCK" &
NET_W3=$!
./target/release/borg-exp worker --connect "unix:$NET_CHAOS_SOCK" &
NET_W4=$!
./target/release/borg-exp worker --connect "unix:$NET_CHAOS_SOCK" &
NET_W5=$!
./target/release/borg-exp serve --chaos --listen "unix:$NET_CHAOS_SOCK" --workers 3 \
  --nfe 400 --seed 7 --metrics-out target/ci-results/net_chaos_metrics.jsonl \
  --flight-out target/ci-results/net_chaos_flight.jsonl
wait "$NET_W3" "$NET_W4" "$NET_W5"
test -s target/ci-results/net_chaos_metrics.jsonl
grep -q 'net\.chaos_injections' target/ci-results/net_chaos_metrics.jsonl
grep -q '"flight":"borg-flight/v1"' target/ci-results/net_chaos_flight.jsonl
grep -q '"code":"net.work_sent"' target/ci-results/net_chaos_flight.jsonl

echo "ci.sh: all gates passed"
