#!/usr/bin/env bash
# CI entry point: everything a PR must keep green, in dependency order.
#
# Usage: ./ci.sh [--no-clippy | --bench-snapshot | --doc | --rpc-smoke |
#                 --chaos-smoke | --chaos-trend | --md-links | --analyze]
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
#                        transaction + a subscription to its terminal event
#                        + a no-op repair and reload, and assert both
#                        processes shut down cleanly
#   --chaos-smoke        short deterministic chaos run (open-loop load with a
#                        leader kill + device-failure storm, then a torn-WAL
#                        restart), asserting zero acknowledged-transaction
#                        loss; writes CHAOS_report.json
#   --chaos-trend        bench-gate chaos-trend: print the per-lane committed
#                        p50/p99 trajectory across CHAOS_baseline.jsonl and the
#                        current CHAOS_report.json, and gate the current p99
#                        against the latest baseline point
#   --md-links           check that relative links and #anchors in README,
#                        ROADMAP, CHANGES, and docs/*.md resolve
#   --bench-snapshot     run the commit_path, coord_store, recovery and
#                        rpc_roundtrip benches (quick mode unless
#                        TROPIC_BENCH_QUICK=0) plus the chaos and reconcile
#                        bench runs into one row stream, then bench-gate
#                        snapshot: write the five BENCH_*.json perf-trajectory
#                        points and gate them. Every threshold is a constant in
#                        crates/bench/src/gate.rs (see docs/ARCHITECTURE.md).
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "=== $* ==="
    "$@"
}

bench_gate() {
    run cargo run --release -q -p tropic-bench --bin bench-gate -- "$@"
}

# Every bench appends its rows to one stream; bench-gate owns everything
# that happens to them afterwards.
bench_snapshot() {
    local raw bench
    raw="$(mktemp)"
    # EXIT, not RETURN: a failed gate exits the script from inside `run`.
    trap "rm -f '$raw'" EXIT
    export TROPIC_BENCH_JSON="$raw" TROPIC_BENCH_QUICK="${TROPIC_BENCH_QUICK:-1}"
    for bench in commit_path coord_store recovery rpc_roundtrip; do
        run cargo bench --bench "$bench"
    done
    run cargo build --release -p tropic-bench --bin chaos --bin reconcile
    run ./target/release/chaos bench
    run ./target/release/reconcile bench
    bench_gate snapshot "$raw"
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
# port through a file, the client drives a transaction, a subscription and
# the operator plane (repair, reload) through it, then requests shutdown
# over the wire. Both must exit 0.
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

case "${1:-}" in
    --bench-snapshot) bench_snapshot; exit 0 ;;
    --doc) doc_gate; exit 0 ;;
    --rpc-smoke) rpc_smoke; exit 0 ;;
    --chaos-smoke) chaos_smoke; exit 0 ;;
    --chaos-trend) bench_gate chaos-trend; exit 0 ;;
    --md-links) check_markdown_links; exit 0 ;;
    --analyze) analyze_gate; exit 0 ;;
esac

run cargo build --release
run cargo test -q
run cargo bench --no-run
run cargo build --examples
# The end-to-end benchmark driver (BENCHMARK.json) is a separate package the
# pipeline builds from this checkout: a public-API removal that breaks it
# must fail here, not there. `--locked` fails a product change that would
# rewrite benchmark/Cargo.lock instead of leaving it quietly dirty.
run cargo build --release --locked --manifest-path benchmark/Cargo.toml
run cargo test -q --locked --manifest-path benchmark/Cargo.toml
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
