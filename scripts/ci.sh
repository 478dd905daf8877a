#!/usr/bin/env bash
# Full offline CI gate: format, lint, build, test.
#
# The workspace has no external crate dependencies (see crates/sim-support),
# so everything here must succeed with the network unplugged. CARGO_NET_OFFLINE
# is exported to make an accidental dependency regression fail fast instead of
# hanging on a registry fetch.
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: a doc link to a removed item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> simlint (determinism, safety, registry & hot-path rules)"
cargo run -p simlint --release -- --format json
mkdir -p results
cargo run -p simlint --release -- --format sarif > results/simlint.sarif

echo "==> simlint --self-check (seeded-mutation battery)"
cargo run -p simlint --release -- --self-check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> perfbench self-test (tiny scale: simulated-counter digests of the six policies, metric contract)"
python3 perfbench/selftest.py

echo "==> run-state isolation (lib tests 5x at default test parallelism; a shared-state race fails here)"
for run in 1 2 3 4 5; do
    echo "    pass $run/5"
    cargo test -q -p sim-support -p thermometer-bench --lib
done

echo "==> figures --threads 2 smoke (parallel path, byte-compared against serial)"
smoke_env=(THERMO_TRACE_LEN=40000 THERMO_CBP_COUNT=4 THERMO_CBP_LEN=10000
           THERMO_IPC1_COUNT=4 THERMO_IPC1_LEN=10000 THERMO_APPS=kafka,python)
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 trrip hierarchy \
    --threads 1 --markdown /tmp/ci_serial.md --grid-stats /tmp/ci_grid_serial.json >/dev/null
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 trrip hierarchy \
    --threads 2 --markdown /tmp/ci_parallel.md --grid-stats /tmp/ci_grid_parallel.json >/dev/null
cmp /tmp/ci_serial.md /tmp/ci_parallel.md

echo "==> crash-resume (kill mid-grid via fault plan; --resume must be byte-identical)"
ft_dir="$(mktemp -d)"
trap 'rm -rf "$ft_dir"' EXIT
# Reference: a fault-free run of the same grid.
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 \
    --threads 2 --markdown "$ft_dir/ref.md" --grid-stats "$ft_dir/ref_stats.json" \
    --journal "$ft_dir/ref_journal.jsonl" > "$ft_dir/ref.out"
# Crash: the injected plan kills the process after 3 journaled cells (exit 86).
crash_rc=0
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 \
    --threads 2 --markdown "$ft_dir/resumed.md" --grid-stats "$ft_dir/crash_stats.json" \
    --journal "$ft_dir/journal.jsonl" --fault-plan exit-after=3 \
    > /dev/null 2> "$ft_dir/crash.err" || crash_rc=$?
if [ "$crash_rc" -ne 86 ]; then
    echo "expected the fault plan to kill the run with exit 86, got $crash_rc" >&2
    cat "$ft_dir/crash.err" >&2
    exit 1
fi
# Resume at a *different* thread width: journaled figures replay byte-for-byte,
# the rest recompute, and both report and stdout must match the reference.
env "${smoke_env[@]}" ./target/release/figures fig01 fig09 fig17 \
    --threads 4 --resume --markdown "$ft_dir/resumed.md" \
    --grid-stats "$ft_dir/resumed_stats.json" --journal "$ft_dir/journal.jsonl" \
    > "$ft_dir/resumed.out"
cmp "$ft_dir/ref.md" "$ft_dir/resumed.md"
cmp "$ft_dir/ref.out" "$ft_dir/resumed.out"

echo "==> hintd loopback smoke (serve -> load -> kill -9 -> restart -> byte-identical dumps)"
hintd_dir="$ft_dir/hintd"
mkdir -p "$hintd_dir"
hintd_pid=""
trap 'if [ -n "$hintd_pid" ]; then kill "$hintd_pid" 2>/dev/null || true; fi; rm -rf "$ft_dir"' EXIT
wait_addr_file() {
    for _ in $(seq 1 200); do
        [ -s "$1" ] && return 0
        sleep 0.05
    done
    echo "hintd never published its address to $1" >&2
    return 1
}
./target/release/hintd --data-dir "$hintd_dir/data" --addr-file "$hintd_dir/addr1" &
hintd_pid=$!
wait_addr_file "$hintd_dir/addr1"
BENCH_ITERS=1 BENCH_WARMUP=0 ./target/release/hintload --addr-file "$hintd_dir/addr1" \
    --apps 3 --ops 80 --records 800 --out "$hintd_dir" \
    --dump-tables "$hintd_dir/before.dump" >/dev/null
# A real SIGKILL: recovery must come from the fsync'd journals alone.
kill -9 "$hintd_pid"
wait "$hintd_pid" 2>/dev/null || true
./target/release/hintd --data-dir "$hintd_dir/data" --addr-file "$hintd_dir/addr2" &
hintd_pid=$!
wait_addr_file "$hintd_dir/addr2"
./target/release/hintload --addr-file "$hintd_dir/addr2" \
    --apps 3 --dump-only --dump-tables "$hintd_dir/after.dump" >/dev/null
kill "$hintd_pid" 2>/dev/null || true
wait "$hintd_pid" 2>/dev/null || true
hintd_pid=""
cmp "$hintd_dir/before.dump" "$hintd_dir/after.dump"

echo "==> bench regression guard (>15% median regression vs results/bench_baselines.json fails)"
./scripts/bench_check.sh

echo "==> quarantine (a poisoned cell is dropped with a reason; siblings complete)"
env "${smoke_env[@]}" ./target/release/figures fig01 \
    --threads 2 --quarantine --max-retries 1 \
    --fault-plan seed=1,panic=fig01:1:poison \
    --markdown "$ft_dir/quarantine.md" --grid-stats "$ft_dir/quarantine_stats.json" \
    --journal "$ft_dir/quarantine_journal.jsonl" > /dev/null
grep -q '"class": "poison"' "$ft_dir/quarantine_stats.json"
grep -q '"cells_quarantined": 1' "$ft_dir/quarantine_stats.json"

echo "==> sharded sweep (4 shards, kill -9 one worker mid-sweep, restart, merge == serial bytes)"
sweep_ids=(fig01 fig09 fig17 trrip hierarchy)
sw_dir="$ft_dir/sweep"
mkdir -p "$sw_dir"
env "${smoke_env[@]}" ./target/release/figures "${sweep_ids[@]}" \
    --threads 2 --markdown "$sw_dir/serial.md" --grid-stats "$sw_dir/serial_stats.json" \
    --journal "$sw_dir/serial.jsonl" > "$sw_dir/serial.out" 2>/dev/null
# Shard 2's first attempt wedges after 2 journaled cells (armed hang), so
# the worker is guaranteed alive for the external SIGKILL. The stall
# timeout is huge: only the kill -9 can clear the wedged shard.
sweep_pid=""
trap 'if [ -n "$sweep_pid" ]; then kill "$sweep_pid" 2>/dev/null || true; fi; rm -rf "$ft_dir"' EXIT
env "${smoke_env[@]}" ./target/release/figures sweep "${sweep_ids[@]}" \
    --shards 4 --dir "$sw_dir/shards" --threads 2 \
    --fault-plan proc=2:0:hang:2 --stall-ticks 1000000 \
    --markdown "$sw_dir/sweep.md" --journal "$sw_dir/sweep.jsonl" \
    > "$sw_dir/sweep.out" 2> "$sw_dir/sweep.log" &
sweep_pid=$!
# Wait until shard 2 journaled both its cells (header + 2 lines): the hang
# has engaged and the worker pid is stable — then kill -9 it.
for _ in $(seq 1 600); do
    if [ -f "$sw_dir/shards/shard-2.jsonl" ] \
        && [ "$(wc -l < "$sw_dir/shards/shard-2.jsonl")" -ge 3 ]; then
        break
    fi
    sleep 0.1
done
[ "$(wc -l < "$sw_dir/shards/shard-2.jsonl")" -ge 3 ]
kill -9 "$(cat "$sw_dir/shards/shard-2.pid")"
# The supervisor sees the signal death, restarts shard 2 with --resume
# (attempt 1 has no armed fault), and the sweep completes: exit 0 and all
# three merged artifacts byte-identical to the serial run.
wait "$sweep_pid"
sweep_pid=""
cmp "$sw_dir/serial.out" "$sw_dir/sweep.out"
cmp "$sw_dir/serial.md" "$sw_dir/sweep.md"
cmp "$sw_dir/serial.jsonl" "$sw_dir/sweep.jsonl"
grep -q 'killed by a signal' "$sw_dir/shards/sweep_stats.json"

echo "CI green."
