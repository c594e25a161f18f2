#!/usr/bin/env bash
# Tier-1 gate: the whole repo must build, test, and lint clean with no
# network access, the bench harness must produce a schema-valid report,
# and results must be independent of the lim-par worker count. Run from
# the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --workspace --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
# The API docs must build clean: no broken or private intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# perfbench is a workspace of its own that builds against these crates
# by path. Build and unit-test it here, so a public-API change that
# breaks it fails tier1 rather than the next benchmark run. --locked
# keeps its committed Cargo.lock as it is.
echo "== tier1: perfbench build and unit tests =="
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# Placement-quality gate: the analytic-seeded placer must keep the
# flow-bench netlists' final HPWL at or below both the recorded
# cold-anneal values (22387 / 9605 µm) and the pinned bounds (25402 /
# 9605 µm) in tests/place_quality.rs. Runs in release so the gate
# measures the shipped annealing budget.
echo "== tier1: placement HPWL quality gate =="
cargo test -q --release --offline --test place_quality
# Smoke the bench harness into a scratch report so the committed
# BENCH_report.json (full-run medians) is left untouched.
BENCH_OUT=/tmp/tier1_bench_smoke.json ./scripts/bench.sh --smoke

# Parallel-determinism smoke: the bench suite must emit the same row
# set (timings aside) whether lim-par runs 1 worker or 4, and
# obs_check --compare must accept the pair. A huge --max-regress keeps
# this a determinism check, not a timing one.
echo "== tier1: lim-par determinism smoke =="
LIM_PAR_THREADS=1 BENCH_OUT=/tmp/tier1_bench_t1.json ./scripts/bench.sh --smoke
LIM_PAR_THREADS=4 BENCH_OUT=/tmp/tier1_bench_t4.json ./scripts/bench.sh --smoke
cargo run --release --offline -q -p lim-obs --bin obs_check -- \
    --compare /tmp/tier1_bench_t1.json /tmp/tier1_bench_t4.json

# fig4c rows (DSE output), fig4b rows (the A–E physical flow) and
# table1 rows (golden panels fanned over lim-par) must be bit-identical
# across worker counts.
for fig in fig4c fig4b table1; do
    LIM_PAR_THREADS=1 cargo run --release --offline -q -p lim-bench --bin "$fig" -- --json \
        >"/tmp/tier1_${fig}_t1.json"
    LIM_PAR_THREADS=4 cargo run --release --offline -q -p lim-bench --bin "$fig" -- --json \
        >"/tmp/tier1_${fig}_t4.json"
    diff "/tmp/tier1_${fig}_t1.json" "/tmp/tier1_${fig}_t4.json"
done
echo "== tier1: determinism smoke OK =="

# Serve smoke: boot the daemon on an ephemeral port, hit every serving
# endpoint once through lim-client, verify a repeat request comes out
# of the response memo, and drain cleanly via server.shutdown.
echo "== tier1: lim-serve smoke =="
addr_file=/tmp/tier1_serve_addr
rm -f "$addr_file"
cargo run --release --offline -q -p lim-serve --bin lim-serve -- \
    --port 0 --addr-file "$addr_file" --quiet &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [[ -s "$addr_file" ]] && break
    sleep 0.1
done
[[ -s "$addr_file" ]] || { echo "lim-serve never published its address" >&2; exit 1; }
addr="$(head -n1 "$addr_file")"
client() {
    cargo run --release --offline -q -p lim-serve --bin lim-client -- --addr "$addr" "$@"
}
client --method server.ping >/dev/null
client --method brick.estimate --params '{"words":16,"bits":10,"stack":4}' >/dev/null
client --method golden.compare --params '{"words":16,"bits":10,"stack":2}' >/dev/null
# Batched golden validation: a small golden.compare batch must come
# back all-ok through the multi-RHS panel path, a repeat of one entry
# must hit the memo the batch populated, and server.stats must report
# the panel-occupancy figures and the error histograms the batch
# recorded.
golden_batch=$(client --method batch --params '{"requests":[{"method":"golden.compare","params":{"words":16,"bits":10,"stack":1}},{"method":"golden.compare","params":{"words":16,"bits":10,"stack":4}},{"method":"golden.compare","params":{"words":16,"bits":10,"stack":1}}]}')
echo "$golden_batch" | grep -q '"ok":true' \
    || { echo "golden.compare batch failed" >&2; exit 1; }
if echo "$golden_batch" | grep -q '"ok":false'; then
    echo "golden.compare batch had failing entries" >&2
    exit 1
fi
client --method golden.compare --params '{"words":16,"bits":10,"stack":4}' \
    | grep -q '"cached":true' \
    || { echo "golden.compare batch did not populate the memo" >&2; exit 1; }
golden_stats=$(client --method server.stats)
echo "$golden_stats" | grep -q '"panel_groups"' \
    || { echo "server.stats missing golden panel figures" >&2; exit 1; }
for hist in delay_error_ppm read_energy_error_ppm write_energy_error_ppm; do
    echo "$golden_stats" | grep -q "\"$hist\":{\"count\":[1-9]" \
        || { echo "server.stats $hist counted no golden comparison" >&2; exit 1; }
done
client --method flow.run --params '{"words":32,"bits":10,"partitions":1,"brick_words":16}' \
    >/dev/null
client --method dse.explore --params '{"memories":[[128,16]],"brick_words":[16,32,64]}' \
    >/dev/null
# RTL inference smoke: the committed example design must synthesize
# end to end through rtl.infer, and a repeat must come out of the memo
# byte-identical (cached flag aside).
rtl_cold=$(client --method rtl.infer --source-file examples/smart_mem.v \
    --params '{"brick_words":[16,32,64]}')
echo "$rtl_cold" | grep -q '"cached":false' \
    || { echo "rtl.infer cold run unexpectedly cached" >&2; exit 1; }
echo "$rtl_cold" | grep -q '"module":"smart_mem"' \
    || { echo "rtl.infer failed: $rtl_cold" >&2; exit 1; }
echo "$rtl_cold" | grep -q '"entries":\["brick_8t_' \
    || { echo "rtl.infer chose no brick entries: $rtl_cold" >&2; exit 1; }
rtl_warm=$(client --method rtl.infer --source-file examples/smart_mem.v \
    --params '{"brick_words":[16,32,64]}')
[[ "$rtl_warm" == "${rtl_cold/\"cached\":false/\"cached\":true}" ]] \
    || { echo "rtl.infer warm answer differs from cold compute" >&2; \
         echo "cold: ${rtl_cold:0:400}" >&2; echo "warm: ${rtl_warm:0:400}" >&2; exit 1; }
# The rtl.* obs counters must surface in server.stats.
client --method server.stats | grep -q '"rtl.infer.memories"' \
    || { echo "server.stats missing rtl.infer counters" >&2; exit 1; }
# The repeated estimate must be served from the response memo.
client --method brick.estimate --params '{"words":16,"bits":10,"stack":4}' \
    | grep -q '"cached":true'
# Telemetry: a traced request must come back with its rendered span
# tree, server.stats must carry latency percentiles and rolling
# windows, server.trace must serve retained traces, and the telemetry
# export must validate as lim-obs-v1 (hist/window/trace rows).
echo "== tier1: lim-serve telemetry smoke =="
# Capture, then grep: piping straight into `grep -q` lets grep close
# the pipe after the first match while lim-client is still printing
# the rest of the tree, which pipefail reports as a client failure.
traced=$(client --method brick.estimate --params '{"words":32,"bits":12,"stack":2}' --trace)
echo "$traced" | grep -q '^trace ' \
    || { echo "lim-client --trace rendered no span tree" >&2; exit 1; }
stats=$(client --method server.stats)
echo "$stats" | grep -q '"p99_us"' \
    || { echo "server.stats missing latency percentiles" >&2; exit 1; }
echo "$stats" | grep -q '"last1m"' \
    || { echo "server.stats missing rolling windows" >&2; exit 1; }
client --method server.trace --params '{"n":3,"order":"slowest"}' \
    | grep -q '"spans"' \
    || { echo "server.trace returned no retained traces" >&2; exit 1; }
# A made-up method answers 404 and is counted under `unknown`: the name
# a client picks never becomes a telemetry key. lim-client exits
# nonzero on the error reply, so capture it without tripping set -e.
made_up=$(client --method tier1.made.up.method) && made_up_rc=0 || made_up_rc=$?
[[ "$made_up_rc" -ne 0 ]] && echo "$made_up" | grep -q '"code":404' \
    || { echo "made-up method did not answer 404: $made_up" >&2; exit 1; }
stats=$(client --method server.stats)
echo "$stats" | grep -q '"unknown":{' \
    || { echo "server.stats lists no unknown endpoint" >&2; exit 1; }
if echo "$stats" | grep -q 'tier1.made.up.method'; then
    echo "server.stats holds a client-chosen method name" >&2
    exit 1
fi
client --telemetry-export /tmp/tier1_telemetry.json --quiet
grep -q '"type":"trace"' /tmp/tier1_telemetry.json \
    || { echo "telemetry export retained no traces" >&2; exit 1; }
cargo run --release --offline -q -p lim-obs --bin obs_check -- /tmp/tier1_telemetry.json
echo "== tier1: lim-serve telemetry smoke OK =="
client --shutdown >/dev/null
wait "$serve_pid"
trap - EXIT
echo "== tier1: lim-serve smoke OK =="

# Helpers for the multi-daemon smokes below: boot a daemon, wait for
# its address file, talk to an explicit address.
boot_serve() { # boot_serve ADDR_FILE [extra flags...]
    local addr_file="$1"; shift
    rm -f "$addr_file"
    cargo run --release --offline -q -p lim-serve --bin lim-serve -- \
        --port 0 --addr-file "$addr_file" --quiet "$@" &
}
wait_addr() { # wait_addr ADDR_FILE -> prints the address
    local addr_file="$1"
    for _ in $(seq 1 100); do
        [[ -s "$addr_file" ]] && break
        sleep 0.1
    done
    [[ -s "$addr_file" ]] || { echo "daemon never published $addr_file" >&2; exit 1; }
    head -n1 "$addr_file"
}
client_at() { # client_at ADDR [client flags...]
    local at="$1"; shift
    cargo run --release --offline -q -p lim-serve --bin lim-client -- --addr "$at" "$@"
}

# Restart-warm smoke: a daemon booted on a populated --cache-dir must
# answer the first repeat of an earlier request cached:true and
# byte-identical (cached flag aside) to the cold compute. The ~1 MB
# rtl.infer reply byte-checks the large-body path of the disk format;
# the brick.estimate is answered on the event thread, and its response
# entry is written by a worker after the reply.
echo "== tier1: lim-serve restart-warm smoke =="
disk_dir=/tmp/tier1_serve_disk
rm -rf "$disk_dir"
boot_serve /tmp/tier1_serve_addr_disk --cache-dir "$disk_dir"
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr="$(wait_addr /tmp/tier1_serve_addr_disk)"
cold=$(client_at "$addr" --method golden.compare --params '{"words":24,"bits":9,"stack":2}')
echo "$cold" | grep -q '"cached":false' \
    || { echo "cold run unexpectedly cached: $cold" >&2; exit 1; }
rtl_cold=$(client_at "$addr" --method rtl.infer --source-file examples/smart_mem.v \
    --params '{"brick_words":[16,32,64]}')
echo "$rtl_cold" | grep -q '"cached":false' \
    || { echo "cold rtl.infer unexpectedly cached: ${rtl_cold:0:400}" >&2; exit 1; }
est_cold=$(client_at "$addr" --method brick.estimate --params '{"words":48,"bits":11,"stack":3}')
echo "$est_cold" | grep -q '"cached":false' \
    || { echo "cold brick.estimate unexpectedly cached: $est_cold" >&2; exit 1; }
client_at "$addr" --shutdown >/dev/null
wait "$serve_pid"
boot_serve /tmp/tier1_serve_addr_disk --cache-dir "$disk_dir"
serve_pid=$!
addr="$(wait_addr /tmp/tier1_serve_addr_disk)"
warm=$(client_at "$addr" --method golden.compare --params '{"words":24,"bits":9,"stack":2}')
echo "$warm" | grep -q '"cached":true' \
    || { echo "restarted daemon did not come up warm: $warm" >&2; exit 1; }
[[ "$warm" == "${cold/\"cached\":false/\"cached\":true}" ]] \
    || { echo "warm answer differs from cold compute" >&2; \
         echo "cold: $cold" >&2; echo "warm: $warm" >&2; exit 1; }
rtl_warm=$(client_at "$addr" --method rtl.infer --source-file examples/smart_mem.v \
    --params '{"brick_words":[16,32,64]}')
echo "$rtl_warm" | grep -q '"cached":true' \
    || { echo "restarted daemon recomputed rtl.infer: ${rtl_warm:0:400}" >&2; exit 1; }
[[ "$rtl_warm" == "${rtl_cold/\"cached\":false/\"cached\":true}" ]] \
    || { echo "warm rtl.infer differs from cold compute" >&2; \
         echo "cold: ${rtl_cold:0:400}" >&2; echo "warm: ${rtl_warm:0:400}" >&2; exit 1; }
est_warm=$(client_at "$addr" --method brick.estimate --params '{"words":48,"bits":11,"stack":3}')
echo "$est_warm" | grep -q '"cached":true' \
    || { echo "restarted daemon recomputed brick.estimate: $est_warm" >&2; exit 1; }
[[ "$est_warm" == "${est_cold/\"cached\":false/\"cached\":true}" ]] \
    || { echo "warm brick.estimate differs from cold compute" >&2; \
         echo "cold: $est_cold" >&2; echo "warm: $est_warm" >&2; exit 1; }
client_at "$addr" --shutdown >/dev/null
wait "$serve_pid"
trap - EXIT
rm -rf "$disk_dir"
echo "== tier1: lim-serve restart-warm smoke OK =="

# Cluster smoke: lim-router over two shards must answer a batch
# byte-identically to a lone shard, lim-client --shards must route,
# and a shutdown through the router must drain every process.
echo "== tier1: lim-serve cluster smoke =="
boot_serve /tmp/tier1_shard1_addr; shard1_pid=$!
boot_serve /tmp/tier1_shard2_addr; shard2_pid=$!
boot_serve /tmp/tier1_single_addr; single_pid=$!
trap 'kill "$shard1_pid" "$shard2_pid" "$single_pid" 2>/dev/null || true' EXIT
shard1="$(wait_addr /tmp/tier1_shard1_addr)"
shard2="$(wait_addr /tmp/tier1_shard2_addr)"
single="$(wait_addr /tmp/tier1_single_addr)"
rm -f /tmp/tier1_router_addr
cargo run --release --offline -q -p lim-serve --bin lim-router -- \
    --port 0 --shards "$shard1,$shard2" --addr-file /tmp/tier1_router_addr --quiet &
router_pid=$!
trap 'kill "$shard1_pid" "$shard2_pid" "$single_pid" "$router_pid" 2>/dev/null || true' EXIT
router="$(wait_addr /tmp/tier1_router_addr)"
cluster_batch='{"requests":[{"method":"server.ping"},{"method":"brick.estimate","params":{"words":24,"bits":9,"stack":2}},{"method":"golden.compare","params":{"words":40,"bits":8,"stack":2}},{"method":"brick.estimate","params":{"words":128,"bits":12,"stack":4}}]}'
routed=$(client_at "$router" --method batch --params "$cluster_batch")
direct=$(client_at "$single" --method batch --params "$cluster_batch")
[[ "$routed" == "$direct" ]] \
    || { echo "router batch differs from lone shard" >&2; \
         echo "routed: $routed" >&2; echo "direct: $direct" >&2; exit 1; }
# The router binary serves on the shard's event loop, so its stats
# carry the same connection accounting next to its routing counters.
router_stats=$(client_at "$router" --stats)
echo "$router_stats" | grep -q '"connections"' \
    || { echo "router stats missing connections: $router_stats" >&2; exit 1; }
echo "$router_stats" | grep -q '"forwarded"' \
    || { echo "router stats missing forwarded: $router_stats" >&2; exit 1; }
# rtl.infer through the router must match the lone shard byte for
# byte (deterministic DSE choice + flow on whichever shard it lands).
rtl_routed=$(client_at "$router" --method rtl.infer --source-file examples/smart_mem.v \
    --params '{"brick_words":[32,64]}')
rtl_direct=$(client_at "$single" --method rtl.infer --source-file examples/smart_mem.v \
    --params '{"brick_words":[32,64]}')
[[ "$rtl_routed" == "$rtl_direct" ]] \
    || { echo "routed rtl.infer differs from lone shard" >&2; \
         echo "routed: ${rtl_routed:0:400}" >&2; \
         echo "direct: ${rtl_direct:0:400}" >&2; exit 1; }
# Router-less client-side routing over the same ring.
cargo run --release --offline -q -p lim-serve --bin lim-client -- \
    --shards "$shard1,$shard2" \
    --method brick.estimate --params '{"words":64,"bits":12,"stack":2}' \
    | grep -q '"ok":true' \
    || { echo "lim-client --shards failed to route" >&2; exit 1; }
# Drain the whole cluster through the router, then the lone shard.
client_at "$router" --shutdown >/dev/null
wait "$router_pid" "$shard1_pid" "$shard2_pid"
client_at "$single" --shutdown >/dev/null
wait "$single_pid"
trap - EXIT
echo "== tier1: lim-serve cluster smoke OK =="

# Perf gate: every smoke median (taken above, before the determinism
# smoke) must stay within 1.5x of the committed full-run median,
# failing the run loudly on large physical-flow or spgemm regressions
# while tolerating machine noise on the fast rows. It runs last: a
# gate failure still fails tier1, after every functional check above
# has run.
echo "== tier1: bench regression gate (1.5x vs committed medians) =="
cargo run --release --offline -q -p lim-obs --bin obs_check -- \
    --compare BENCH_report.json /tmp/tier1_bench_smoke.json --max-regress 1.5
