#!/usr/bin/env bash
# CI entry point: everything a PR must keep green, in dependency order.
#
# Usage: ./ci.sh [--no-clippy | --bench-snapshot | --doc | --rpc-smoke |
#                 --test-bench-parser | --chaos-smoke | --chaos-trend |
#                 --md-links | --analyze]
#   --no-clippy          skip the clippy pass (e.g. when the component is absent)
#   --analyze            run only the static-analysis gate: tropic-analyze's
#                        fixture self-test, then the four repo checks
#                        (lock-order, blocking-under-lock, schema-drift,
#                        panic-path; see docs/STATIC_ANALYSIS.md), writing
#                        ANALYZE_report.txt
#   --doc                run only the documentation gate: `cargo doc --no-deps`
#                        with RUSTDOCFLAGS="-D warnings" (broken intra-doc
#                        links, bad code blocks, etc. fail the build)
#   --rpc-smoke          spawn the remote_quickstart server and client as two
#                        separate OS processes on a loopback socket, run a
#                        transaction + a subscription to its terminal event,
#                        and assert both processes shut down cleanly
#   --chaos-smoke        short deterministic chaos run (open-loop load with a
#                        leader kill + device-failure storm, then a torn-WAL
#                        restart), asserting zero acknowledged-transaction
#                        loss; writes CHAOS_report.json
#   --chaos-trend        print the per-lane committed p50/p99 trajectory
#                        across the committed CHAOS_baseline.jsonl series and
#                        the current CHAOS_report.json, failing when a lane's
#                        p99 blows past the latest baseline point by more
#                        than TROPIC_CHAOS_TREND_MAX_FACTOR (default 3.0)
#   --md-links           check that relative links and #anchors in README,
#                        ROADMAP, CHANGES, and docs/*.md resolve
#   --test-bench-parser  self-test the bench-JSON parser against reordered
#                        keys and malformed lines
#   --bench-snapshot     run the commit_path, coord_store, snapshot, recovery,
#                        and rpc_roundtrip benches in quick mode plus the
#                        chaos bench run, write BENCH_commit_path.json,
#                        BENCH_snapshot.json, BENCH_recovery.json,
#                        BENCH_rpc.json, and BENCH_chaos.json (the
#                        perf-trajectory data points), and gate on the
#                        delta-snapshot size ratio at
#                        5%-dirty (TROPIC_BENCH_MAX_DELTA_RATIO, default
#                        0.25), the pipelined-fsync speedup on the 16k-node
#                        store (TROPIC_BENCH_MIN_PIPELINE_SPEEDUP, default
#                        1.3), the snapshot-recovery speedup over full-log
#                        replay (TROPIC_BENCH_MIN_RECOVERY_SPEEDUP, default
#                        2.0), the RPC socket overhead over the in-process
#                        client (TROPIC_BENCH_MAX_RPC_OVERHEAD, default 1.5),
#                        the RPC reactor's live-connection fan-in
#                        (TROPIC_BENCH_MIN_CONNS idle subscriptions held on
#                        one event loop, default 1000),
#                        and the chaos per-lane committed p99 under a leader
#                        kill (TROPIC_BENCH_MAX_CHAOS_P99_MS, default 1500)
#                        with zero acknowledged loss; also runs the reconcile
#                        bench (drift-to-converged MTTR at 1k and 16k
#                        resources), writes BENCH_reconcile.json, and gates
#                        the p99 MTTR (TROPIC_BENCH_MAX_RECONCILE_P99_MS,
#                        default 8000)
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "=== $* ==="
    "$@"
}

# Parses bench-snapshot JSON lines ({"name":...,"mean_ns":...,"iterations":...})
# into TSV `name<TAB>mean_ns<TAB>iterations` rows. Each key is extracted by
# its own regex, so the parse is independent of key order inside the object,
# and any line missing a key fails the build loudly instead of being
# silently skipped.
parse_bench_lines() {
    awk '
        /^[[:space:]]*$/ { next }
        {
            name = ""; mean = ""; iters = ""
            if (match($0, /"name"[[:space:]]*:[[:space:]]*"[^"]*"/)) {
                kv = substr($0, RSTART, RLENGTH)
                sub(/^"name"[[:space:]]*:[[:space:]]*"/, "", kv)
                sub(/"$/, "", kv)
                name = kv
            }
            if (match($0, /"mean_ns"[[:space:]]*:[[:space:]]*[0-9]+/)) {
                kv = substr($0, RSTART, RLENGTH)
                sub(/^[^:]*:[[:space:]]*/, "", kv)
                mean = kv
            }
            if (match($0, /"iterations"[[:space:]]*:[[:space:]]*[0-9]+/)) {
                kv = substr($0, RSTART, RLENGTH)
                sub(/^[^:]*:[[:space:]]*/, "", kv)
                iters = kv
            }
            if (name == "" || mean == "" || iters == "") {
                printf "malformed bench JSON on line %d (need name, mean_ns, iterations): %s\n", NR, $0 > "/dev/stderr"
                exit 1
            }
            printf "%s\t%s\t%s\n", name, mean, iters
        }
    '
}

test_bench_parser() {
    echo
    echo "=== bench-parser self-test ==="
    local out
    # Canonical key order parses.
    out="$(printf '{"name":"g/a","mean_ns":120,"iterations":7}\n' | parse_bench_lines)"
    [[ "$out" == "$(printf 'g/a\t120\t7')" ]] || {
        echo "parser failed on canonical key order: $out" >&2
        exit 1
    }
    # Reordered keys parse identically: the parse must not assume the
    # name/mean_ns/iterations order the writer happens to emit.
    out="$(printf '{"iterations":7,"mean_ns":120,"name":"g/a"}\n' | parse_bench_lines)"
    [[ "$out" == "$(printf 'g/a\t120\t7')" ]] || {
        echo "parser failed on reordered keys: $out" >&2
        exit 1
    }
    # Whitespace around separators is tolerated.
    out="$(printf '{ "mean_ns" : 99 , "name" : "g/b" , "iterations" : 3 }\n' | parse_bench_lines)"
    [[ "$out" == "$(printf 'g/b\t99\t3')" ]] || {
        echo "parser failed on spaced JSON: $out" >&2
        exit 1
    }
    # A line missing a required key must fail loudly, not be skipped.
    if printf '{"name":"g/c","iterations":3}\n' | parse_bench_lines >/dev/null 2>&1; then
        echo "parser silently accepted a line without mean_ns" >&2
        exit 1
    fi
    # Garbage must fail loudly too.
    if printf 'not json at all\n' | parse_bench_lines >/dev/null 2>&1; then
        echo "parser silently accepted a non-JSON line" >&2
        exit 1
    fi
    echo "bench-parser self-test passed."
}

bench_snapshot() {
    local out="BENCH_commit_path.json"
    local raw tsv
    raw="$(mktemp)"
    tsv="$(mktemp)"
    trap 'rm -f "$raw" "$tsv"' RETURN

    TROPIC_BENCH_QUICK=1 TROPIC_BENCH_JSON="$raw" run cargo bench --bench commit_path
    TROPIC_BENCH_QUICK=1 TROPIC_BENCH_JSON="$raw" run cargo bench --bench coord_store

    parse_bench_lines < "$raw" > "$tsv"
    # The snapshot-format gate reuses the durable-variant rows rather than
    # re-running the (slow) commit_path bench.
    if [[ -n "${COMMIT_TSV:-}" ]]; then
        cp "$tsv" "$COMMIT_TSV"
    fi
    # Recorded, not gated: the per-record path the old ratio gate compared
    # against is gone, and absolute means are host-dependent.
    awk -F'\t' '
        { names[++n] = $1; means[$1] = $2; iter_count[$1] = $3 }
        END {
            if (means["commit_path/group_commit"] == 0) {
                print "bench snapshot missing commit_path results" > "/dev/stderr"
                exit 1
            }
            printf "{\n  \"bench\": \"commit_path\",\n  \"mode\": \"quick\",\n"
            printf "  \"results\": [\n"
            for (i = 1; i <= n; i++) {
                name = names[i]
                printf "    {\"name\": \"%s\", \"mean_ns\": %d, \"iterations\": %d, \"throughput_per_sec\": %.2f}%s\n", \
                    name, means[name], iter_count[name], 1e9 / means[name], (i < n ? "," : "")
            }
            printf "  ]\n}\n"
        }
    ' "$tsv" > "$out" || { cat "$out"; exit 1; }

    echo
    echo "=== $out ==="
    cat "$out"
}

# Snapshot-format gates: a delta at 5%-dirty must stay a small fraction of
# a full rewrite, and the pipelined sync policy must beat serial fsync on
# the larger (16k-node) store. The fsync rows come from the commit_path run
# that bench_snapshot() already did (via COMMIT_TSV); only the snapshot
# micro-bench runs here.
bench_snapshot_format() {
    local out="BENCH_snapshot.json"
    local raw tsv
    raw="$(mktemp)"
    tsv="$(mktemp)"
    trap 'rm -f "$raw" "$tsv"' RETURN

    TROPIC_BENCH_QUICK=1 TROPIC_BENCH_JSON="$raw" run cargo bench --bench snapshot

    parse_bench_lines < "$raw" > "$tsv"
    if [[ -n "${COMMIT_TSV:-}" && -s "${COMMIT_TSV:-}" ]]; then
        grep -E '^commit_path/(serial|pipelined)_fsync' "$COMMIT_TSV" >> "$tsv"
    fi
    local max_ratio="${TROPIC_BENCH_MAX_DELTA_RATIO:-0.25}"
    local min_pipeline="${TROPIC_BENCH_MIN_PIPELINE_SPEEDUP:-1.3}"
    awk -F'\t' -v max_ratio="$max_ratio" -v min_pipeline="$min_pipeline" '
        { names[++n] = $1; means[$1] = $2; iter_count[$1] = $3 }
        END {
            full_b = means["snapshot/full_bytes"]
            delta_b = means["snapshot/delta_bytes"]
            serial = means["commit_path/serial_fsync_16k"]
            piped = means["commit_path/pipelined_fsync_16k"]
            if (full_b == 0 || delta_b == 0) {
                print "bench snapshot missing snapshot byte counts" > "/dev/stderr"
                exit 1
            }
            if (serial == 0 || piped == 0) {
                print "bench snapshot missing commit_path fsync results (run bench_snapshot first)" > "/dev/stderr"
                exit 1
            }
            ratio = delta_b / full_b
            speedup = serial / piped
            printf "{\n  \"bench\": \"snapshot\",\n  \"mode\": \"quick\",\n"
            printf "  \"results\": [\n"
            for (i = 1; i <= n; i++) {
                name = names[i]
                printf "    {\"name\": \"%s\", \"mean_ns\": %d, \"iterations\": %d}%s\n", \
                    name, means[name], iter_count[name], (i < n ? "," : "")
            }
            printf "  ],\n"
            printf "  \"delta_snapshot\": {\n"
            printf "    \"full_bytes\": %d,\n", full_b
            printf "    \"delta_bytes\": %d,\n", delta_b
            printf "    \"ratio\": %.4f,\n", ratio
            printf "    \"max_ratio\": %.2f\n", max_ratio
            printf "  },\n"
            printf "  \"pipelined_fsync\": {\n"
            printf "    \"serial_fsync_16k_mean_ns\": %d,\n", serial
            printf "    \"pipelined_fsync_16k_mean_ns\": %d,\n", piped
            printf "    \"speedup\": %.3f,\n", speedup
            printf "    \"min_speedup\": %.2f\n", min_pipeline
            printf "  }\n}\n"
            if (ratio > max_ratio) {
                printf "perf gate FAILED: delta snapshot is %.1f%% of a full snapshot > %.1f%%\n", \
                    ratio * 100, max_ratio * 100 > "/dev/stderr"
                exit 2
            }
            if (speedup < min_pipeline) {
                printf "perf gate FAILED: pipelined-fsync speedup %.3f < %.2f\n", speedup, min_pipeline > "/dev/stderr"
                exit 2
            }
        }
    ' "$tsv" > "$out" || { cat "$out"; exit 1; }

    echo
    echo "=== $out ==="
    cat "$out"
    echo
    echo "Snapshot-format perf gate passed."
}

bench_recovery_snapshot() {
    local out="BENCH_recovery.json"
    local raw tsv
    raw="$(mktemp)"
    tsv="$(mktemp)"
    trap 'rm -f "$raw" "$tsv"' RETURN

    TROPIC_BENCH_QUICK=1 TROPIC_BENCH_JSON="$raw" run cargo bench --bench recovery

    parse_bench_lines < "$raw" > "$tsv"
    local min_speedup="${TROPIC_BENCH_MIN_RECOVERY_SPEEDUP:-2.0}"
    awk -F'\t' -v min_speedup="$min_speedup" '
        { names[++n] = $1; means[$1] = $2; iter_count[$1] = $3 }
        END {
            full = means["recovery/full_log_replay"]
            snap = means["recovery/snapshot_suffix"]
            if (full == 0 || snap == 0) {
                print "bench snapshot missing recovery results" > "/dev/stderr"
                exit 1
            }
            speedup = full / snap
            printf "{\n  \"bench\": \"recovery\",\n  \"mode\": \"quick\",\n"
            printf "  \"results\": [\n"
            for (i = 1; i <= n; i++) {
                name = names[i]
                printf "    {\"name\": \"%s\", \"mean_ns\": %d, \"iterations\": %d}%s\n", \
                    name, means[name], iter_count[name], (i < n ? "," : "")
            }
            printf "  ],\n"
            printf "  \"snapshot_recovery\": {\n"
            printf "    \"full_log_replay_mean_ns\": %d,\n", full
            printf "    \"snapshot_suffix_mean_ns\": %d,\n", snap
            printf "    \"speedup\": %.3f,\n", speedup
            printf "    \"min_speedup\": %.2f\n", min_speedup
            printf "  }\n}\n"
            if (speedup < min_speedup) {
                printf "perf gate FAILED: snapshot-recovery speedup %.3f < %.2f\n", speedup, min_speedup > "/dev/stderr"
                exit 2
            }
        }
    ' "$tsv" > "$out" || { cat "$out"; exit 1; }

    echo
    echo "=== $out ==="
    cat "$out"
    echo
    echo "Recovery perf gate passed."
}

bench_rpc_snapshot() {
    local out="BENCH_rpc.json"
    local raw tsv
    raw="$(mktemp)"
    tsv="$(mktemp)"
    trap 'rm -f "$raw" "$tsv"' RETURN

    local min_conns="${TROPIC_BENCH_MIN_CONNS:-1000}"
    TROPIC_BENCH_QUICK=1 TROPIC_BENCH_JSON="$raw" TROPIC_BENCH_MIN_CONNS="$min_conns" \
        run cargo bench --bench rpc_roundtrip

    parse_bench_lines < "$raw" > "$tsv"
    # With both drivers pipelining an identical window, the socket's real
    # per-txn cost is small — the gate is tight (default 1.5x) where the
    # old single-txn drivers needed a vacuous 3.0x to absorb
    # scheduling-round alignment noise.
    local max_overhead="${TROPIC_BENCH_MAX_RPC_OVERHEAD:-1.5}"
    # in_process/over_socket run 16 transactions per iteration (an 8-spawn
    # wave plus an 8-destroy wave, 2x the bench WINDOW); batch_socket runs
    # 32 (a 16-spawn batch plus a 16-destroy batch). Report all of them
    # per transaction.
    awk -F'\t' -v max_overhead="$max_overhead" -v min_conns="$min_conns" \
        -v pipeline_txns=16 -v batch_txns=32 '
        { names[++n] = $1; means[$1] = $2; iter_count[$1] = $3 }
        END {
            inproc = means["rpc_roundtrip/in_process"]
            socket = means["rpc_roundtrip/over_socket"]
            batch = means["rpc_roundtrip/batch_socket"]
            conn_ping = means["rpc_roundtrip/concurrent_connections"]
            held = iter_count["rpc_roundtrip/live_connections"]
            if (inproc == 0 || socket == 0 || batch == 0 || conn_ping == 0) {
                print "bench snapshot missing rpc_roundtrip results" > "/dev/stderr"
                exit 1
            }
            overhead = socket / inproc
            inproc_per_txn = inproc / pipeline_txns
            socket_per_txn = socket / pipeline_txns
            batch_per_txn = batch / batch_txns
            printf "{\n  \"bench\": \"rpc_roundtrip\",\n  \"mode\": \"quick\",\n"
            printf "  \"results\": [\n"
            for (i = 1; i <= n; i++) {
                name = names[i]
                printf "    {\"name\": \"%s\", \"mean_ns\": %d, \"iterations\": %d}%s\n", \
                    name, means[name], iter_count[name], (i < n ? "," : "")
            }
            printf "  ],\n"
            printf "  \"concurrent_connections\": {\n"
            printf "    \"held\": %d,\n", held
            printf "    \"min_required\": %d,\n", min_conns
            printf "    \"ping_mean_ns_under_load\": %d\n", conn_ping
            printf "  },\n"
            printf "  \"rpc_overhead\": {\n"
            printf "    \"in_process_mean_ns\": %d,\n", inproc
            printf "    \"over_socket_mean_ns\": %d,\n", socket
            printf "    \"in_process_per_txn_ns\": %d,\n", inproc_per_txn
            printf "    \"over_socket_per_txn_ns\": %d,\n", socket_per_txn
            printf "    \"batch_socket_per_txn_ns\": %d,\n", batch_per_txn
            printf "    \"batch_socket_txn_per_sec\": %.2f,\n", 1e9 / batch_per_txn
            printf "    \"overhead\": %.3f,\n", overhead
            printf "    \"max_overhead\": %.2f\n", max_overhead
            printf "  }\n}\n"
            if (overhead > max_overhead) {
                printf "perf gate FAILED: RPC socket overhead %.3fx > %.2fx\n", overhead, max_overhead > "/dev/stderr"
                exit 2
            }
            if (held < min_conns) {
                printf "perf gate FAILED: reactor held %d live connections < %d\n", held, min_conns > "/dev/stderr"
                exit 2
            }
        }
    ' "$tsv" > "$out" || { cat "$out"; exit 1; }

    echo
    echo "=== $out ==="
    cat "$out"
    echo
    echo "RPC perf gate passed."
}

bench_chaos_snapshot() {
    local out="BENCH_chaos.json"
    local raw tsv
    raw="$(mktemp)"
    tsv="$(mktemp)"
    trap 'rm -f "$raw" "$tsv"' RETURN

    run cargo build --release -p tropic-bench --bin chaos
    TROPIC_BENCH_JSON="$raw" run ./target/release/chaos bench

    parse_bench_lines < "$raw" > "$tsv"
    local max_p99="${TROPIC_BENCH_MAX_CHAOS_P99_MS:-1500}"
    awk -F'\t' -v max_p99="$max_p99" '
        { names[++n] = $1; means[$1] = $2; iter_count[$1] = $3 }
        END {
            split("hi norm batch", lane_arr, " ")
            # acked_lost == 0 is the expected value, so presence is checked
            # by key, not by the zero-means-missing idiom the other gates
            # use.
            if (!("chaos/acked_lost" in means)) {
                print "bench snapshot missing chaos/acked_lost row" > "/dev/stderr"
                exit 1
            }
            lost = means["chaos/acked_lost"]
            for (i = 1; i <= 3; i++) {
                lane = lane_arr[i]
                key = "chaos/p99_" lane
                if (!(key in means) || iter_count[key] == 0) {
                    printf "bench snapshot missing committed traffic for lane %s\n", lane > "/dev/stderr"
                    exit 1
                }
                p99_ms[lane] = means[key] / 1e6
            }
            printf "{\n  \"bench\": \"chaos\",\n  \"mode\": \"quick\",\n"
            printf "  \"results\": [\n"
            for (i = 1; i <= n; i++) {
                name = names[i]
                printf "    {\"name\": \"%s\", \"mean_ns\": %d, \"iterations\": %d}%s\n", \
                    name, means[name], iter_count[name], (i < n ? "," : "")
            }
            printf "  ],\n"
            printf "  \"chaos_gate\": {\n"
            for (i = 1; i <= 3; i++) {
                lane = lane_arr[i]
                printf "    \"p99_%s_ms\": %.1f,\n", lane, p99_ms[lane]
            }
            printf "    \"acked_lost\": %d,\n", lost
            printf "    \"max_p99_ms\": %.1f\n", max_p99
            printf "  }\n}\n"
            for (i = 1; i <= 3; i++) {
                lane = lane_arr[i]
                if (p99_ms[lane] > max_p99) {
                    printf "perf gate FAILED: %s-lane committed p99 %.1f ms > %.1f ms\n", \
                        lane, p99_ms[lane], max_p99 > "/dev/stderr"
                    exit 2
                }
            }
            if (lost != 0) {
                printf "chaos gate FAILED: %d acknowledged transactions lost\n", lost > "/dev/stderr"
                exit 2
            }
        }
    ' "$tsv" > "$out" || { cat "$out"; exit 1; }

    echo
    echo "=== $out ==="
    cat "$out"
    echo
    echo "Chaos perf gate passed."
}

bench_reconcile_snapshot() {
    local out="BENCH_reconcile.json"
    local raw tsv
    raw="$(mktemp)"
    tsv="$(mktemp)"
    trap 'rm -f "$raw" "$tsv"' RETURN

    run cargo build --release -p tropic-bench --bin reconcile
    TROPIC_BENCH_JSON="$raw" run ./target/release/reconcile bench

    parse_bench_lines < "$raw" > "$tsv"
    local max_p99="${TROPIC_BENCH_MAX_RECONCILE_P99_MS:-8000}"
    awk -F'\t' -v max_p99="$max_p99" '
        { names[++n] = $1; means[$1] = $2; iter_count[$1] = $3 }
        END {
            split("1k 16k", size_arr, " ")
            for (i = 1; i <= 2; i++) {
                size = size_arr[i]
                key = "reconcile/mttr_p99_" size
                if (!(key in means) || iter_count[key] == 0) {
                    printf "bench snapshot missing MTTR samples at %s resources\n", size > "/dev/stderr"
                    exit 1
                }
                p99_ms[size] = means[key] / 1e6
            }
            printf "{\n  \"bench\": \"reconcile\",\n  \"mode\": \"quick\",\n"
            printf "  \"results\": [\n"
            for (i = 1; i <= n; i++) {
                name = names[i]
                # %.0f, not %d: nanosecond means at 16k resources exceed
                # 2^31 and %d clamps in 32-bit awks.
                printf "    {\"name\": \"%s\", \"mean_ns\": %.0f, \"iterations\": %d}%s\n", \
                    name, means[name], iter_count[name], (i < n ? "," : "")
            }
            printf "  ],\n"
            printf "  \"reconcile_gate\": {\n"
            for (i = 1; i <= 2; i++) {
                size = size_arr[i]
                printf "    \"mttr_p99_%s_ms\": %.1f,\n", size, p99_ms[size]
            }
            printf "    \"max_p99_ms\": %.1f\n", max_p99
            printf "  }\n}\n"
            for (i = 1; i <= 2; i++) {
                size = size_arr[i]
                if (p99_ms[size] > max_p99) {
                    printf "perf gate FAILED: drift-to-converged p99 %.1f ms > %.1f ms at %s resources\n", \
                        p99_ms[size], max_p99, size > "/dev/stderr"
                    exit 2
                }
            }
        }
    ' "$tsv" > "$out" || { cat "$out"; exit 1; }

    echo
    echo "=== $out ==="
    cat "$out"
    echo
    echo "Reconcile MTTR gate passed."
}

# Extracts `lane<TAB>p50<TAB>p99` committed-latency rows from a chaos report
# (the one-line JSON CHAOS_report.json): for each lane object, the first
# p50_ms/p99_ms inside its committed_latency block.
chaos_report_lanes() {
    awk '
        {
            line = $0
            while (match(line, /"lane":"[a-z]+"/)) {
                lane = substr(line, RSTART + 8, RLENGTH - 9)
                line = substr(line, RSTART + RLENGTH)
                if (!match(line, /"committed_latency":\{[^}]*\}/)) { continue }
                block = substr(line, RSTART, RLENGTH)
                p50 = ""; p99 = ""
                if (match(block, /"p50_ms":[0-9.]+/))
                    p50 = substr(block, RSTART + 9, RLENGTH - 9)
                if (match(block, /"p99_ms":[0-9.]+/))
                    p99 = substr(block, RSTART + 9, RLENGTH - 9)
                if (p50 != "" && p99 != "")
                    printf "%s\t%s\t%s\n", lane, p50, p99
            }
        }
    ' "$1"
}

# Prints the per-lane committed-latency trajectory across the committed
# baseline series (CHAOS_baseline.jsonl, one {"label","lane","p50_ms",
# "p99_ms"} line per point) followed by the current CHAOS_report.json, and
# gates the current p99 against the latest baseline point times
# TROPIC_CHAOS_TREND_MAX_FACTOR (default 3.0 — chaos latencies are noisy;
# the trend gate only catches collapses, the absolute chaos gate in
# --bench-snapshot holds the hard line).
chaos_trend() {
    local baseline="CHAOS_baseline.jsonl"
    local report="${TROPIC_CHAOS_REPORT:-CHAOS_report.json}"
    if [[ ! -f "$baseline" ]]; then
        echo "chaos trend: $baseline missing" >&2
        exit 1
    fi
    if [[ ! -f "$report" ]]; then
        echo "chaos trend: $report missing (run --chaos-smoke first)" >&2
        exit 1
    fi
    local current
    current="$(mktemp)"
    trap 'rm -f "$current"' RETURN
    chaos_report_lanes "$report" > "$current"
    if [[ ! -s "$current" ]]; then
        echo "chaos trend: no lanes parsed from $report" >&2
        exit 1
    fi
    local max_factor="${TROPIC_CHAOS_TREND_MAX_FACTOR:-3.0}"
    awk -F'\t' -v max_factor="$max_factor" '
        NR == FNR {
            # Baseline series: one JSON object per line.
            line = $0
            label = ""; lane = ""; p50 = ""; p99 = ""
            if (match(line, /"label":"[^"]*"/))
                label = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"lane":"[^"]*"/))
                lane = substr(line, RSTART + 8, RLENGTH - 9)
            if (match(line, /"p50_ms":[0-9.]+/))
                p50 = substr(line, RSTART + 9, RLENGTH - 9)
            if (match(line, /"p99_ms":[0-9.]+/))
                p99 = substr(line, RSTART + 9, RLENGTH - 9)
            if (label == "" || lane == "" || p50 == "" || p99 == "") {
                printf "chaos trend: malformed baseline line %d: %s\n", FNR, line > "/dev/stderr"
                bad = 1
                exit 1
            }
            if (!(lane in seen_lane)) { lanes[++nlanes] = lane; seen_lane[lane] = 1 }
            npoints[lane]++
            series_label[lane, npoints[lane]] = label
            series_p50[lane, npoints[lane]] = p50
            series_p99[lane, npoints[lane]] = p99
            next
        }
        { cur_p50[$1] = $2; cur_p99[$1] = $3; if (!($1 in seen_lane)) { lanes[++nlanes] = $1; seen_lane[$1] = 1 } }
        END {
            if (bad) exit 1
            print "chaos committed-latency trend (ms):"
            failed = 0
            for (i = 1; i <= nlanes; i++) {
                lane = lanes[i]
                printf "  %-5s p50:", lane
                for (j = 1; j <= npoints[lane]; j++)
                    printf " %s(%s)", series_p50[lane, j], series_label[lane, j]
                printf " -> %s(now)\n", (lane in cur_p50 ? cur_p50[lane] : "?")
                printf "        p99:"
                for (j = 1; j <= npoints[lane]; j++)
                    printf " %s(%s)", series_p99[lane, j], series_label[lane, j]
                printf " -> %s(now)\n", (lane in cur_p99 ? cur_p99[lane] : "?")
                if (!(lane in cur_p99)) {
                    if (npoints[lane] > 0) {
                        printf "chaos trend FAILED: lane %s present in baseline but missing from report\n", lane > "/dev/stderr"
                        failed = 1
                    }
                    continue
                }
                if (npoints[lane] == 0) continue
                base = series_p99[lane, npoints[lane]]
                if (base > 0 && cur_p99[lane] > base * max_factor) {
                    printf "chaos trend FAILED: lane %s p99 %.1f ms > %.1f x baseline %.1f ms\n", \
                        lane, cur_p99[lane], max_factor, base > "/dev/stderr"
                    failed = 1
                }
            }
            exit failed
        }
    ' "$baseline" "$current"
    echo
    echo "Chaos trend gate passed."
}

# Short deterministic chaos run: open-loop load over the typed API and the
# RPC socket while the schedule kills the leader and storms the compute
# fleet, then a torn-WAL-tail restart. The binary exits non-zero if any
# acknowledged transaction is lost in either phase.
chaos_smoke() {
    echo
    echo "=== chaos smoke (leader kill + device storm under open-loop load) ==="
    run cargo build --release -p tropic-bench --bin chaos
    run ./target/release/chaos smoke
    echo
    echo "Chaos smoke passed."
}

# Emits every link target of inline markdown links ([text](target)) outside
# fenced code blocks, optional titles stripped.
extract_markdown_links() {
    awk '
        /^[[:space:]]*```/ { in_code = !in_code; next }
        in_code { next }
        {
            line = $0
            while (match(line, /\[[^]]*\]\([^)]+\)/)) {
                link = substr(line, RSTART, RLENGTH)
                rest = substr(line, RSTART + RLENGTH)
                sub(/^\[[^]]*\]\(/, "", link)
                sub(/\)$/, "", link)
                sub(/[[:space:]].*$/, "", link)
                print link
                line = rest
            }
        }
    ' "$1"
}

# True when $1 (a markdown file) contains a heading whose GitHub-style slug
# (lowercased, punctuation dropped, spaces to hyphens) equals $2.
markdown_has_anchor() {
    awk -v anchor="$2" '
        /^[[:space:]]*```/ { in_code = !in_code; next }
        in_code { next }
        /^#+[[:space:]]/ {
            s = $0
            sub(/^#+[[:space:]]+/, "", s)
            gsub(/[`*_]/, "", s)
            s = tolower(s)
            gsub(/[^a-z0-9 -]/, "", s)
            gsub(/ /, "-", s)
            if (s == anchor) { found = 1; exit }
        }
        END { exit !found }
    ' "$1"
}

# Every relative link and #anchor in the operator docs must resolve: files
# must exist, and anchors must match a real heading's slug.
check_markdown_links() {
    echo
    echo "=== markdown link check ==="
    local fail=0 checked=0
    local f target path anchor resolved
    for f in README.md ROADMAP.md CHANGES.md docs/*.md; do
        [[ -f "$f" ]] || continue
        while IFS= read -r target; do
            [[ -z "$target" ]] && continue
            case "$target" in
                http://*|https://*|mailto:*) continue ;;
            esac
            checked=$((checked + 1))
            path="${target%%#*}"
            anchor=""
            [[ "$target" == *#* ]] && anchor="${target#*#}"
            if [[ -z "$path" ]]; then
                resolved="$f"
            else
                resolved="$(dirname "$f")/$path"
            fi
            if [[ ! -e "$resolved" ]]; then
                echo "broken link in $f: ($target) -> no such file: $resolved" >&2
                fail=1
                continue
            fi
            if [[ -n "$anchor" && "$resolved" == *.md ]]; then
                if ! markdown_has_anchor "$resolved" "$anchor"; then
                    echo "broken anchor in $f: ($target) -> no heading '#$anchor' in $resolved" >&2
                    fail=1
                fi
            fi
        done < <(extract_markdown_links "$f")
    done
    if (( fail != 0 )); then
        echo "markdown link check FAILED" >&2
        exit 1
    fi
    echo "markdown link check passed ($checked links)."
}

# Two OS processes, one loopback socket: the server publishes its ephemeral
# port through a file, the client drives a transaction and a subscription
# through it, then requests shutdown over the wire. Both must exit 0.
rpc_smoke() {
    echo
    echo "=== rpc smoke (two processes, one loopback socket) ==="
    run cargo build --example remote_quickstart

    local bin="target/debug/examples/remote_quickstart"
    local addr_file
    addr_file="$(mktemp -u)"
    local server_pid=""
    cleanup_rpc_smoke() {
        if [[ -n "${server_pid:-}" ]] && kill -0 "$server_pid" 2>/dev/null; then
            kill "$server_pid" 2>/dev/null || true
            wait "$server_pid" 2>/dev/null || true
        fi
        [[ -n "${addr_file:-}" ]] && rm -f "$addr_file"
        return 0
    }
    # RETURN fires on the normal path; EXIT fires on the `exit 1` failure
    # paths, which bypass RETURN traps — without it a failed smoke leaks
    # the background server process (a whole platform) and its addr file.
    trap cleanup_rpc_smoke RETURN EXIT

    "$bin" serve "$addr_file" &
    server_pid=$!

    # Wait for the server to publish its bound address (atomic rename).
    local waited=0
    while [[ ! -s "$addr_file" ]]; do
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "rpc smoke FAILED: server process died before publishing its address" >&2
            exit 1
        fi
        sleep 0.1
        waited=$((waited + 1))
        if (( waited > 600 )); then
            echo "rpc smoke FAILED: server did not publish an address within 60s" >&2
            exit 1
        fi
    done
    local addr
    addr="$(cat "$addr_file")"
    echo "rpc smoke: server (pid $server_pid) on $addr"

    if ! "$bin" client "$addr"; then
        echo "rpc smoke FAILED: client process exited non-zero" >&2
        exit 1
    fi

    # The client requested shutdown over the wire; the server must exit 0
    # on its own — that *is* the clean-shutdown assertion.
    local server_rc=0
    wait "$server_pid" || server_rc=$?
    server_pid=""
    if (( server_rc != 0 )); then
        echo "rpc smoke FAILED: server exited $server_rc" >&2
        exit 1
    fi
    echo
    echo "RPC smoke passed."
}

doc_gate() {
    RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace
    echo
    echo "Doc gate passed."
}

# Static-analysis gate: the analyzer first proves itself against the seeded
# fixture trees (every check must fire on the violations tree, none on the
# clean one), then runs the four repo checks. Findings fail the build; the
# rendered report lands in ANALYZE_report.txt either way.
analyze_gate() {
    run cargo build --release -p tropic-analyze
    run ./target/release/tropic-analyze --self-test
    run ./target/release/tropic-analyze --report ANALYZE_report.txt
    echo
    echo "Static-analysis gate passed."
}

if [[ "${1:-}" == "--bench-snapshot" ]]; then
    COMMIT_TSV="$(mktemp)"
    trap 'rm -f "$COMMIT_TSV"' EXIT
    bench_snapshot
    bench_snapshot_format
    bench_recovery_snapshot
    bench_rpc_snapshot
    bench_chaos_snapshot
    bench_reconcile_snapshot
    exit 0
fi

if [[ "${1:-}" == "--doc" ]]; then
    doc_gate
    exit 0
fi

if [[ "${1:-}" == "--rpc-smoke" ]]; then
    rpc_smoke
    exit 0
fi

if [[ "${1:-}" == "--chaos-smoke" ]]; then
    chaos_smoke
    exit 0
fi

if [[ "${1:-}" == "--chaos-trend" ]]; then
    chaos_trend
    exit 0
fi

if [[ "${1:-}" == "--md-links" ]]; then
    check_markdown_links
    exit 0
fi

if [[ "${1:-}" == "--analyze" ]]; then
    analyze_gate
    exit 0
fi

if [[ "${1:-}" == "--test-bench-parser" ]]; then
    test_bench_parser
    exit 0
fi

run cargo build --release
run cargo test -q
run cargo bench --no-run
run cargo build --examples
# The end-to-end benchmark driver (BENCHMARK.json) is a separate package the
# pipeline builds from this checkout: a public-API removal that breaks it
# must fail here, not there.
run cargo build --release --manifest-path benchmark/Cargo.toml
run cargo test -q --manifest-path benchmark/Cargo.toml
test_bench_parser
check_markdown_links
analyze_gate
rpc_smoke
doc_gate
run cargo fmt --check

if [[ "${1:-}" != "--no-clippy" ]] && cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy -q --all-targets -- -D warnings
fi

echo
echo "CI green."
