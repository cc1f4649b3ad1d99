#!/usr/bin/env bash
# Offline-safe CI check: build, tests, formatting, lints, server smoke.
# Usage: scripts/check.sh [--e2e-smoke] [--server-smoke] [--storage-smoke]
#                         [--serve-load-smoke] [--metrics-smoke]
#                         [--mutation-smoke]
# (from anywhere inside the repo)
#
# The default sequence is build (workspace, then the benchmarks/e2e package
# against it) + the workspace tests, run once (the Figure 1 rows among them,
# pinned as exact counts by tests/fig1_shapes.rs, and the parser, examples,
# concurrency and planner differential gates) + fmt + clippy + rustdoc
# (-D warnings) + the server smoke (an ephemeral-port
# ecrpq-serve driven through load/prepare/run/stats/shutdown by ecrpq-cli,
# asserting that the second run of a prepared statement is a registry hit
# with zero sim-table compilations, that a run whose `mode` is a number is
# rejected with an error naming `mode` while a valid run after it still
# succeeds, and that 50 runs whose ~13 KB replies
# outgrow the server's 8 KB write buffer take under 1 s on one connection:
# a reply sent as body plus a separate newline waits ~40 ms for a delayed
# ACK; that preparing an `edit_le_2` statement over a six-label graph, which
# synchronizes a 4,075-state relation automaton, replies within 1 s; that
# preparing `edit_le_9` over four labels, past the relation budget, replies
# `ok:false` naming the relation within 1 s and a warm run on the same
# connection still succeeds; and that the bytes of two replies, read raw over bash /dev/tcp — the
# 1,000-row run, and runs over node names that need JSON escaping — hash to
# pinned SHA-256 values, and that a paths-mode run over those names replies
# no rows with `"limit":0` and two with `"limit":2`) + the storage smoke
# (save on one server, reopen on a fresh one, first run must be warm; the
# sidecar of a ~15k-edge graph stays within 256 bytes, since it holds
# statement names and texts only) + the serve-load smoke (a short
# open-loop burst through the
# legacy/pipelined/batch protocol shapes past the server's admission
# capacity; the harness asserts zero dropped replies and that
# client-observed rejections equal the server's admission counter) + the
# metrics smoke + the mutation smoke (add_edges/remove_edges
# on a live overlay: the delta must be visible to the very next run, which
# must stay a registry hit and be served from the maintained answer set —
# `ecrpq_maintained_reads_total` in `ecrpq-cli metrics` rises by one —,
# `stats g` must leave that write pending (1 pending, 0 merges) since
# per-graph stats never merge, the remove must recompute exactly the 2
# maintained rows it can change (`ecrpq_maintained_rows_recomputed_total`
# rises by 2 on `cycle:6:a` with `L(p) = a a`, not by the cycle's 6), change
# exactly the 2 head tuples the runs around it disagree on
# (`ecrpq_maintained_answers_changed_total` rises by 2) and
# restore the pre-mutation answers bit for bit, a `mode: boolean` run leaves
# `ecrpq_maintained_reads_total` alone,
# and a second `load g` must drop g's live entry so the next run returns
# the loaded graph's rows; then the same add and remove on a second graph with
# merge_threshold 1, so each write merges a new epoch end to end and the
# runs over the merged epochs give the same answers; one more run after the
# merges must return the same rows and leave `merges` and `version`
# unchanged in `stats`, since reads never merge).
#
# --e2e-smoke      additionally runs the end-to-end served-query benchmark
#                  with 2 s windows (bash benchmarks/e2e/run.sh --smoke): every
#                  workload, untraced and traced, every reply verified — the
#                  one performance instrument (see BENCHMARK.json).
# --server-smoke   runs ONLY the release build and the server smoke gate —
#                  the fast iteration loop while working on the server crate.
# --storage-smoke  runs ONLY the release build and the persistence smoke gate
#                  (one server saves a graph + prepared statement, a fresh
#                  server reopens the snapshot and its FIRST run must be a
#                  registry hit with zero sim-table compilations; a ~15k-edge
#                  graph's sidecar must stay within 256 bytes) — the fast
#                  loop while working on the storage layer. The same gate is
#                  part of the default sequence.
# --serve-load-smoke
#                  runs ONLY the release build and the serve-load smoke gate
#                  (harness serve-smoke in a scratch directory) — the fast
#                  loop while working on the pipelined serve path. The same
#                  gate is part of the default sequence.
# --metrics-smoke  runs ONLY the release build and the observability gate
#                  (server with --metrics-addr, warm query, `ecrpq-cli
#                  trace` whose client-side validation requires present,
#                  monotonic spans summing to within 10% of the recorded
#                  latency, then a /dev/tcp scrape of the exposition
#                  endpoint asserting the request histogram count equals the
#                  requests sent) — the fast loop while working on the
#                  metrics/tracing layer. The same gate is part of the
#                  default sequence.
# --mutation-smoke runs ONLY the release build and the live-graph gate
#                  (load -> prepare -> run, then add_edges must change the
#                  answers while the re-run stays a registry hit — the
#                  delta-maintained path, no rebind, counted by
#                  ecrpq_maintained_reads_total, which a boolean run must
#                  not raise — `stats g` must leave that write pending,
#                  remove_edges must recompute exactly 2 maintained rows
#                  (ecrpq_maintained_rows_recomputed_total), change exactly
#                  the 2 head tuples it removes
#                  (ecrpq_maintained_answers_changed_total) and return the
#                  answers to exactly the
#                  pre-mutation set, and reloading g must drop its live
#                  entry and answer over the loaded graph; the
#                  same two writes on a graph with merge_threshold 1 must
#                  each merge, with the same answers, ending at 2 merges and
#                  0 pending, each rewriting only the out-row and the in-row
#                  its edge touches (ecrpq_merge_rows_rewritten_total rises
#                  by exactly 4), and a further run must return the same rows
#                  without changing `merges` or `version`) — the fast loop
#                  while working on the mutation layer. The same gate is
#                  part of the default sequence.
set -euo pipefail

cd "$(dirname "$0")/.."
repo_root=$(pwd)

e2e_smoke=0
server_smoke_only=0
storage_smoke_only=0
serve_load_smoke_only=0
metrics_smoke_only=0
mutation_smoke_only=0
for arg in "$@"; do
    case "$arg" in
        --e2e-smoke) e2e_smoke=1 ;;
        --server-smoke) server_smoke_only=1 ;;
        --storage-smoke) storage_smoke_only=1 ;;
        --serve-load-smoke) serve_load_smoke_only=1 ;;
        --metrics-smoke) metrics_smoke_only=1 ;;
        --mutation-smoke) mutation_smoke_only=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

run() {
    echo
    echo "==> $*"
    "$@"
}

# Single EXIT trap for everything that needs cleanup (scratch dirs, a still
# running smoke server).
scratch=""
server_pid=""
cleanup() {
    if [[ -n "$server_pid" ]]; then kill "$server_pid" 2>/dev/null || true; fi
    if [[ -n "$scratch" ]]; then rm -rf "$scratch"; fi
}
trap cleanup EXIT

# Starts target/release/ecrpq-serve on an ephemeral port logging to $1,
# leaving the pid in $server_pid and the bound address in $server_addr.
# (Deliberately not a command substitution: $server_pid must reach the
# parent shell so the EXIT trap can kill a half-started server.)
server_addr=""
start_server() {
    local log=$1
    shift
    "$repo_root/target/release/ecrpq-serve" --addr 127.0.0.1:0 --workers 4 "$@" > "$log" &
    server_pid=$!
    server_addr=""
    for _ in $(seq 1 100); do
        server_addr=$(sed -n 's/^listening on //p' "$log")
        if [[ -n "$server_addr" ]]; then break; fi
        sleep 0.05
    done
    if [[ -z "$server_addr" ]]; then
        echo "smoke FAILED: ecrpq-serve never reported its address" >&2
        exit 1
    fi
    echo "    server at $server_addr"
}

# Starts an ephemeral-port server, walks it through the whole statement
# lifecycle with the CLI, and asserts the warm-cache invariants.
server_smoke() {
    echo
    echo "==> server smoke (load/prepare/run/stats/shutdown over loopback TCP)"
    local cli="$repo_root/target/release/ecrpq-cli"
    local log addr
    log=$(mktemp)
    start_server "$log"
    addr=$server_addr

    "$cli" --addr "$addr" load g cycle:8:a
    "$cli" --addr "$addr" prepare q 'Ans(x, y) <- (x, p, y), L(p) = a a' g
    "$cli" --addr "$addr" run q g > /dev/null   # cold run: binds + compiles
    local second
    second=$("$cli" --addr "$addr" run q g)
    echo "$second"
    if ! grep -q '"registry":"hit"' <<< "$second"; then
        echo "server smoke FAILED: second run must be a registry cache hit" >&2
        exit 1
    fi
    if ! grep -q '"sim_cache_misses":0' <<< "$second"; then
        echo "server smoke FAILED: second run must not compile sim tables" >&2
        exit 1
    fi
    "$cli" --addr "$addr" stats

    # Strict field types: a present field of the wrong type is rejected with
    # an error naming it (never read as its default), and the connection and
    # server keep serving.
    local mistyped
    if mistyped=$("$cli" --addr "$addr" raw '{"op":"run","name":"q","graph":"g","mode":1}'); then
        echo "server smoke FAILED: a run with a numeric \`mode\` must be rejected: $mistyped" >&2
        exit 1
    fi
    if ! grep -q '`mode`' <<< "$mistyped"; then
        echo "server smoke FAILED: the mistyped-field error must name \`mode\`: $mistyped" >&2
        exit 1
    fi
    if ! "$cli" --addr "$addr" raw '{"op":"run","name":"q","graph":"g"}' > /dev/null; then
        echo "server smoke FAILED: a valid run after a rejected one must succeed" >&2
        exit 1
    fi

    # Wire framing: replies larger than the write buffer must leave in one
    # write on a TCP_NODELAY socket, or each one waits ~40 ms.
    "$cli" --addr "$addr" load big cycle:1000:a > /dev/null
    "$cli" --addr "$addr" prepare one_hop 'Ans(x, y) <- (x, p, y), L(p) = a' big > /dev/null
    local start_ns elapsed_ms
    start_ns=$(date +%s%N)
    for _ in $(seq 1 50); do
        echo '{"op":"run","name":"one_hop","graph":"big"}'
    done | "$cli" --addr "$addr" script > /dev/null
    elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
    echo "    50 runs with ~13 KB replies on one connection: ${elapsed_ms} ms"
    if (( elapsed_ms >= 1000 )); then
        echo "server smoke FAILED: large replies stall (>= 1 s for 50 runs)" >&2
        exit 1
    fi

    # Relation construction: `edit_le_2` over six labels synchronizes into a
    # 4,075-state, 314,088-transition automaton when it is prepared.
    "$cli" --addr "$addr" load dna 'string:a c g t e f' > /dev/null
    start_ns=$(date +%s%N)
    "$cli" --addr "$addr" prepare near 'Ans(x, y) <- (x, p, y), (x, q, y), R(p, q) = edit_le_2' dna > /dev/null
    elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
    echo "    prepare of edit_le_2 over six labels: ${elapsed_ms} ms"
    if (( elapsed_ms >= 1000 )); then
        echo "server smoke FAILED: building edit_le_2 over six labels takes >= 1 s" >&2
        exit 1
    fi

    # Relation budget: `edit_le_9` over four labels would synchronize for
    # minutes; `prepare` must refuse it with an error naming the relation
    # within 1 s, and the same connection must then serve a warm run.
    "$cli" --addr "$addr" load acgt 'string:a c g t' > /dev/null
    "$cli" --addr "$addr" prepare hop 'Ans(x, y) <- (x, p, y), L(p) = a' acgt > /dev/null
    "$cli" --addr "$addr" run hop acgt > /dev/null
    local budget_replies
    start_ns=$(date +%s%N)
    budget_replies=$(printf '%s\n' \
        '{"op":"prepare","name":"far","query":"Ans(x, y) <- (x, p, y), (x, q, y), R(p, q) = edit_le_9","graph":"acgt"}' \
        '{"op":"run","name":"hop","graph":"acgt"}' | "$cli" --addr "$addr" script) || true
    elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
    echo "    prepare of edit_le_9 over four labels refused in ${elapsed_ms} ms"
    if ! head -n 1 <<< "$budget_replies" | grep '"ok":false' | grep -q 'edit_le_9'; then
        echo "server smoke FAILED: prepare of edit_le_9 must fail naming it: $budget_replies" >&2
        exit 1
    fi
    if (( elapsed_ms >= 1000 )); then
        echo "server smoke FAILED: refusing edit_le_9 takes >= 1 s" >&2
        exit 1
    fi
    if ! sed -n 2p <<< "$budget_replies" | grep -q '"registry":"hit"'; then
        echo "server smoke FAILED: a warm run after the refused prepare must succeed: $budget_replies" >&2
        exit 1
    fi

    # Reply bytes: the 1,000-row reply above and a run over names that need
    # escaping, read raw over bash /dev/tcp (no CLI in between), must hash
    # to the pinned values.
    check_reply_bytes one_hop "$addr" \
        0e3d822260e1b87f3d5fc235da34e24f83788060cb72a22fe35edc3bb85bc688 \
        '{"op":"run","name":"one_hop","graph":"big"}'
    check_reply_bytes escapes "$addr" \
        d3a88de32999cc5b50282838711b73ea8bac53c2fa0ffbe193aea096305b9721 \
        '{"op":"load","graph":"esc","json":{"nodes":["lone\\ly"],"edges":[["q\"uote","a","back\\slash"],["back\\slash","b","café"],["café","a","x😀"],["x😀","a","tab\there\u0001"],["tab\there\u0001","a","q\"uote"]]}}' \
        '{"op":"prepare","name":"esc_hop","query":"Ans(x, y) <- (x, p, y), L(p) = a","graph":"esc"}' \
        '{"op":"run","name":"esc_hop","graph":"esc"}' \
        '{"op":"prepare","name":"esc_ab","query":"Ans(x, p) <- (x, p, y), L(p) = a b","graph":"esc"}' \
        '{"op":"run","name":"esc_ab","graph":"esc","mode":"paths"}'

    # `limit` caps paths-mode rows, and 0 means none: over the `esc` graph
    # loaded above, whose one-hop `a` paths are four rows.
    "$cli" --addr "$addr" prepare esc_path 'Ans(x, p) <- (x, p, y), L(p) = a' esc > /dev/null
    local limited
    limited=$("$cli" --addr "$addr" raw \
        '{"op":"run","name":"esc_path","graph":"esc","mode":"paths","limit":0}')
    if ! grep -q '"count":0,"answers":\[\]' <<< "$limited"; then
        echo "server smoke FAILED: a paths run with limit 0 must have no rows: $limited" >&2
        exit 1
    fi
    limited=$("$cli" --addr "$addr" raw \
        '{"op":"run","name":"esc_path","graph":"esc","mode":"paths","limit":2}')
    if ! grep -q '"count":2,' <<< "$limited"; then
        echo "server smoke FAILED: a paths run with limit 2 must have two rows: $limited" >&2
        exit 1
    fi

    "$cli" --addr "$addr" shutdown
    wait "$server_pid"
    server_pid=""
    rm -f "$log"
    echo "    server smoke OK (second run: registry hit, sim_cache_misses=0; mistyped field rejected by name; large replies do not stall; edit_le_2 over six labels prepares within 1 s; edit_le_9 refused within 1 s; reply bytes pinned; paths limit 0 and 2 honoured)"
}

# Sends the request lines after $1 (a host:port) and then `close` over one
# raw bash /dev/tcp connection, and prints every byte the server writes back
# until it closes the connection.
raw_replies() {
    local addr=$1
    shift
    (exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}" && printf '%s\n' "$@" '{"op":"close"}' >&3 && cat <&3)
}

# check_reply_bytes NAME ADDR SHA256 REQUEST...: the raw reply bytes to the
# requests must hash to SHA256, or the smoke fails.
check_reply_bytes() {
    local name=$1 addr=$2 want=$3 got
    shift 3
    got=$(raw_replies "$addr" "$@" | sha256sum | cut -d' ' -f1)
    if [[ "$got" != "$want" ]]; then
        echo "server smoke FAILED: the $name reply bytes changed (sha256 $got, pinned $want)" >&2
        raw_replies "$addr" "$@" | head -c 600 >&2
        exit 1
    fi
    echo "    $name reply bytes match (sha256 ${want:0:12}…)"
}

# Persistence gate: one server saves a graph plus a prepared statement; a
# brand-new server reopens the snapshot and its FIRST run must already be a
# registry hit that compiles nothing — proving the snapshot and the
# statement sidecar carry the registry across processes, and that `open`
# re-prepares, binds and compiles every statement before publishing the graph.
# The sidecar holds statement names, texts and query alphabets only, so
# saving a ~15k-edge graph with one statement writes 128 bytes; the bound
# is 256: no compiled table, no bind data, no adjacency.
storage_smoke() {
    echo
    echo "==> storage smoke (save -> fresh server reopen -> warm first run)"
    local cli="$repo_root/target/release/ecrpq-cli"
    local dir log1 log2 snap
    dir=$(mktemp -d)
    snap="$dir/g.snap"

    log1=$(mktemp)
    start_server "$log1"
    "$cli" --addr "$server_addr" load g cycle:12:a
    "$cli" --addr "$server_addr" prepare q 'Ans(x, y) <- (x, p, y), L(p) = a a' g
    "$cli" --addr "$server_addr" run q g > /dev/null   # the sidecar records texts whether or not q ran
    "$cli" --addr "$server_addr" save g "$snap"
    "$cli" --addr "$server_addr" load big 'random:5000:3:a|b:1'
    "$cli" --addr "$server_addr" run q big > /dev/null
    "$cli" --addr "$server_addr" save big "$dir/big.snap"
    "$cli" --addr "$server_addr" shutdown
    wait "$server_pid"
    server_pid=""
    local art_bytes
    art_bytes=$(wc -c < "$dir/big.snap.art")
    if (( art_bytes > 256 )); then
        echo "storage smoke FAILED: a 15k-edge graph's sidecar is $art_bytes bytes (bound 256)" >&2
        exit 1
    fi

    log2=$(mktemp)
    start_server "$log2"
    "$cli" --addr "$server_addr" open g2 "$snap"
    local first
    first=$("$cli" --addr "$server_addr" run q g2)
    echo "$first"
    if ! grep -q '"registry":"hit"' <<< "$first"; then
        echo "storage smoke FAILED: first run after open must be a registry hit" >&2
        exit 1
    fi
    if ! grep -q '"sim_cache_misses":0' <<< "$first"; then
        echo "storage smoke FAILED: first run after open must not compile sim tables" >&2
        exit 1
    fi
    "$cli" --addr "$server_addr" shutdown
    wait "$server_pid"
    server_pid=""
    rm -rf "$dir"
    rm -f "$log1" "$log2"
    echo "    storage smoke OK (first run after reopen: registry hit, sim_cache_misses=0; 15k-edge sidecar $art_bytes bytes)"
}

# Observability gate: trace spans must be present and monotonic with phase
# durations reconciling against the server-recorded latency (the CLI's
# `trace` command validates all of that client-side and exits nonzero on
# violation), and the exposition endpoint's request histogram must
# reconcile exactly with the requests this gate sent.
metrics_smoke() {
    echo
    echo "==> metrics smoke (trace validation + exposition scrape reconciliation)"
    local cli="$repo_root/target/release/ecrpq-cli"
    local log metrics_addr scrape
    log=$(mktemp)
    start_server "$log" --metrics-addr 127.0.0.1:0 --slow-query-ms 1000
    metrics_addr=$(sed -n 's/^metrics on //p' "$log")
    if [[ -z "$metrics_addr" ]]; then
        echo "metrics smoke FAILED: server never reported the metrics address" >&2
        exit 1
    fi
    echo "    metrics endpoint at $metrics_addr"

    "$cli" --addr "$server_addr" load g cycle:8:a > /dev/null
    "$cli" --addr "$server_addr" prepare q 'Ans(x, y) <- (x, p, y), L(p) = a a' g > /dev/null
    "$cli" --addr "$server_addr" run q g > /dev/null    # cold: bind + compile
    "$cli" --addr "$server_addr" run q g > /dev/null    # warm
    # Renders the span tree on stderr; exits nonzero unless spans are
    # present, monotonic, and sum to within 10% of the recorded latency.
    "$cli" --addr "$server_addr" trace q g > /dev/null
    # Scrape the exposition endpoint over plain TCP — bash's /dev/tcp, no
    # nc dependency; the server dumps the registry and closes.
    scrape=$(exec 3<>"/dev/tcp/${metrics_addr%:*}/${metrics_addr#*:}" && cat <&3)
    if ! grep -q '^ecrpq_request_us_count{op="run"} 2$' <<< "$scrape"; then
        echo "metrics smoke FAILED: run histogram count must equal the 2 runs sent" >&2
        grep '^ecrpq_request_us_count' <<< "$scrape" >&2 || true
        exit 1
    fi
    if ! grep -q '^ecrpq_request_us_count{op="trace"} 1$' <<< "$scrape"; then
        echo "metrics smoke FAILED: trace histogram count must equal the 1 trace sent" >&2
        exit 1
    fi
    "$cli" --addr "$server_addr" shutdown > /dev/null
    wait "$server_pid"
    server_pid=""
    rm -f "$log"
    echo "    metrics smoke OK (trace consistent, scrape reconciles: run=2 trace=1)"
}

# Live-graph gate: mutations must be visible to the very next run without
# losing the warm registry state, and a remove must restore the pre-mutation
# answers bit for bit. The answers portion of a run reply is everything
# between the `answers` key and the trailing `stats` object — latency fields
# vary run to run, the answer rows must not.
answers_of() {
    sed 's/.*"answers"://; s/,"stats".*//' <<< "$1"
}

# The answer rows of one `run` reply, one per line, sorted.
rows_of() {
    answers_of "$1" | grep -o '\[[^][]*\]' | sort
}

# The merge count and version of one `stats` live-graph entry, in a fixed
# order.
merges_and_version() {
    grep -o '"merges":[0-9]*\|"version":[0-9]*' <<< "$1" | sort | tr '\n' ' '
}

# The counter named by $1 as `ecrpq-cli metrics` prints it (0 until its
# first use registers it).
counter_value() {
    "$repo_root/target/release/ecrpq-cli" --addr "$server_addr" metrics \
        | awk -v name="$1" '$1 == name { v = $2 } END { print v + 0 }'
}

maintained_reads() {
    counter_value ecrpq_maintained_reads_total
}

mutation_smoke() {
    echo
    echo "==> mutation smoke (add_edges/remove_edges round-trip on a live overlay)"
    local cli="$repo_root/target/release/ecrpq-cli"
    local log before after reverted merged live reread live_after reads rows heads moved rewritten
    log=$(mktemp)
    start_server "$log"

    "$cli" --addr "$server_addr" load g cycle:6:a
    "$cli" --addr "$server_addr" prepare q 'Ans(x, y) <- (x, p, y), L(p) = a a' g
    before=$("$cli" --addr "$server_addr" run q g)

    "$cli" --addr "$server_addr" add-edges g n0 a n3
    reads=$(maintained_reads)
    after=$("$cli" --addr "$server_addr" run q g)
    echo "$after"
    if ! grep -q '"registry":"hit"' <<< "$after"; then
        echo "mutation smoke FAILED: the run after add_edges must stay a registry hit" >&2
        exit 1
    fi
    if [[ "$(maintained_reads)" != "$((reads + 1))" ]]; then
        echo "mutation smoke FAILED: the run after add_edges must be a maintained read" \
            "(ecrpq_maintained_reads_total $reads -> $(maintained_reads))" >&2
        exit 1
    fi
    if [[ "$(answers_of "$before")" == "$(answers_of "$after")" ]]; then
        echo "mutation smoke FAILED: add_edges must change the answers" >&2
        exit 1
    fi
    # Per-graph `stats` never merges: the write stays pending.
    live=$("$cli" --addr "$server_addr" stats g 2>/dev/null | grep -o '{"graph":"g"[^}]*}')
    if ! grep -q '"pending":1' <<< "$live" || ! grep -q '"merges":0' <<< "$live"; then
        echo "mutation smoke FAILED: stats g must leave 1 pending and 0 merges, got: $live" >&2
        exit 1
    fi

    # The maintained remove recomputes only the rows it can change: n0's
    # (`a` itself) and n5's (`a a`), since `w a` must be a prefix of `a a`;
    # a label-blind closure would recompute all 6 rows of the cycle.
    rows=$(counter_value ecrpq_maintained_rows_recomputed_total)
    heads=$(counter_value ecrpq_maintained_answers_changed_total)
    "$cli" --addr "$server_addr" remove-edges g n0 a n3
    if [[ "$(counter_value ecrpq_maintained_rows_recomputed_total)" != "$((rows + 2))" ]]; then
        echo "mutation smoke FAILED: remove_edges g n0 a n3 must recompute exactly 2 rows" \
            "(ecrpq_maintained_rows_recomputed_total $rows -> $(counter_value ecrpq_maintained_rows_recomputed_total))" >&2
        exit 1
    fi
    reverted=$("$cli" --addr "$server_addr" run q g)
    # The remove changes exactly the head tuples that only one of the runs
    # around it returns (n0 -> n4 and n5 -> n3, both through the chord).
    moved=$(comm -3 <(rows_of "$after") <(rows_of "$reverted") | wc -l)
    if [[ "$moved" != 2 || "$(counter_value ecrpq_maintained_answers_changed_total)" != "$((heads + moved))" ]]; then
        echo "mutation smoke FAILED: remove_edges g n0 a n3 must change exactly the $moved" \
            "head tuples the runs around it disagree on, and 2 of them" \
            "(ecrpq_maintained_answers_changed_total $heads -> $(counter_value ecrpq_maintained_answers_changed_total))" >&2
        exit 1
    fi
    if [[ "$(answers_of "$reverted")" != "$(answers_of "$before")" ]]; then
        echo "mutation smoke FAILED: remove_edges must restore the pre-mutation answers" >&2
        echo "  before:   $(answers_of "$before")" >&2
        echo "  reverted: $(answers_of "$reverted")" >&2
        exit 1
    fi
    # A boolean-mode run is never answered from a maintained answer set.
    reads=$(maintained_reads)
    "$cli" --addr "$server_addr" raw '{"op":"run","name":"q","graph":"g","mode":"boolean"}' > /dev/null
    if [[ "$(maintained_reads)" != "$reads" ]]; then
        echo "mutation smoke FAILED: a boolean run must not count as a maintained read" >&2
        exit 1
    fi
    # Reloading g swaps in a fresh graph: its live entry is gone, and the
    # next run answers over the loaded graph.
    "$cli" --addr "$server_addr" load g cycle:6:a
    if "$cli" --addr "$server_addr" stats 2>/dev/null | grep -q '{"graph":"g"'; then
        echo "mutation smoke FAILED: a second load of g must drop its live entry" >&2
        exit 1
    fi
    if [[ "$(answers_of "$("$cli" --addr "$server_addr" run q g)")" != "$(answers_of "$before")" ]]; then
        echo "mutation smoke FAILED: the run after reloading g must return the loaded graph's rows" >&2
        exit 1
    fi

    # The same two writes on g2 with merge_threshold 1: each one merges the
    # overlay into a new epoch, and runs over the merged epochs must give the
    # answers the overlay gave. Each merge rewrites only the two rows its
    # write touches (out-row n0, in-row n3) and copies the rest in runs.
    "$cli" --addr "$server_addr" load g2 cycle:6:a
    rewritten=$(counter_value ecrpq_merge_rows_rewritten_total)
    merged=$("$cli" --addr "$server_addr" raw \
        '{"op":"add_edges","graph":"g2","edges":[["n0","a","n3"]],"merge_threshold":1}')
    echo "$merged"
    if ! grep -q '"merged":true' <<< "$merged"; then
        echo "mutation smoke FAILED: a write at merge_threshold 1 must merge" >&2
        exit 1
    fi
    if [[ "$(answers_of "$("$cli" --addr "$server_addr" run q g2)")" != "$(answers_of "$after")" ]]; then
        echo "mutation smoke FAILED: the merged epoch must answer as the overlay did" >&2
        exit 1
    fi
    "$cli" --addr "$server_addr" remove-edges g2 n0 a n3
    if [[ "$(answers_of "$("$cli" --addr "$server_addr" run q g2)")" != "$(answers_of "$before")" ]]; then
        echo "mutation smoke FAILED: the second merge must restore the pre-mutation answers" >&2
        exit 1
    fi
    live=$("$cli" --addr "$server_addr" stats g2 2>/dev/null | grep -o '{"graph":"g2"[^}]*}')
    if ! grep -q '"merges":2' <<< "$live" || ! grep -q '"pending":0' <<< "$live"; then
        echo "mutation smoke FAILED: g2 must report 2 merges and 0 pending, got: $live" >&2
        exit 1
    fi
    if [[ "$(counter_value ecrpq_merge_rows_rewritten_total)" != "$((rewritten + 4))" ]]; then
        echo "mutation smoke FAILED: the 2 merges of g2 must rewrite exactly 4 rows" \
            "(ecrpq_merge_rows_rewritten_total $rewritten -> $(counter_value ecrpq_merge_rows_rewritten_total))" >&2
        exit 1
    fi
    # Reads never merge: one more run on the clean graph returns the same
    # rows and leaves the merge count and the version where they were.
    reread=$("$cli" --addr "$server_addr" run q g2)
    if [[ "$(answers_of "$reread")" != "$(answers_of "$before")" ]]; then
        echo "mutation smoke FAILED: a run after the merges must return the same rows" >&2
        exit 1
    fi
    live_after=$("$cli" --addr "$server_addr" stats g2 2>/dev/null | grep -o '{"graph":"g2"[^}]*}')
    if [[ "$(merges_and_version "$live")" != '"merges":2 "version":'* ]] \
        || [[ "$(merges_and_version "$live_after")" != "$(merges_and_version "$live")" ]]; then
        echo "mutation smoke FAILED: a read must not merge or bump the version:" \
            "before $live, after $live_after" >&2
        exit 1
    fi

    "$cli" --addr "$server_addr" shutdown
    wait "$server_pid"
    server_pid=""
    rm -f "$log"
    echo "    mutation smoke OK (delta visible + maintained registry hit, stats leaves the write pending, remove recomputes 2 rows, changes 2 heads and restores answers, boolean runs cold, reload drops the overlay, 2 merges end to end rewriting 4 rows, reads never merge)"
}

if [[ "$mutation_smoke_only" == 1 ]]; then
    run cargo build --release --offline -p ecrpq-server
    mutation_smoke
    echo
    echo "Mutation smoke passed."
    exit 0
fi

if [[ "$metrics_smoke_only" == 1 ]]; then
    run cargo build --release --offline -p ecrpq-server
    metrics_smoke
    echo
    echo "Metrics smoke passed."
    exit 0
fi

if [[ "$server_smoke_only" == 1 ]]; then
    run cargo build --release --offline -p ecrpq-server
    server_smoke
    echo
    echo "Server smoke passed."
    exit 0
fi

if [[ "$storage_smoke_only" == 1 ]]; then
    run cargo build --release --offline -p ecrpq-server
    storage_smoke
    echo
    echo "Storage smoke passed."
    exit 0
fi

# Serve-load gate: a short open-loop burst through all three protocol shapes
# (legacy single-request, pipelined tagged, batch) with more connections than
# admission slots. The harness itself asserts zero dropped replies, no
# duplicate reply ids, and rejection-accounting consistency (clients'
# observed rejections == the server's `rejected` counter delta); any
# violation panics and fails the gate.
serve_load_smoke() {
    if [[ -z "$scratch" ]]; then scratch=$(mktemp -d); fi
    echo
    echo "==> serve-load smoke (open-loop burst: legacy vs pipelined vs batch)"
    (cd "$scratch" && "$repo_root/target/release/harness" serve-smoke > /dev/null)
    echo "    serve-load smoke OK (zero reply loss, admission accounting consistent)"
}

if [[ "$serve_load_smoke_only" == 1 ]]; then
    run cargo build --release --offline -p ecrpq-bench
    serve_load_smoke
    echo
    echo "Serve-load smoke passed."
    exit 0
fi

# --offline everywhere: the workspace has no external dependencies and the
# build environment has no network.
run cargo build --release --offline --workspace --all-targets
# The end-to-end benchmark is a package of its own, built against this
# workspace's public API and not editable by the PRs it judges: build it here
# so an API break fails locally, not in the pipeline. (It shares the
# workspace's target directory, as benchmarks/e2e/run.sh arranges.)
CARGO_TARGET_DIR="$repo_root/target" run cargo build --release --offline \
    --manifest-path benchmarks/e2e/Cargo.toml
# The workspace tests include every gate of the ecrpq-integration package:
# - parser gates (parser_roundtrip): the bounded seeded fuzz smoke (mutated
#   query text must never panic the parser) plus the round-trip property
#   suite; and the examples (examples_smoke), which all parse textual
#   queries, must still run end to end;
# - the concurrency gate (concurrency): the threaded corpus must match the
#   single-threaded reference engine (answers, verified counts, cache
#   counters);
# - the planner differential gate (planner_differential): the cost-based
#   planner may reorder joins, flip BFS directions, and pin constants, but
#   answers and verified counts must match the reference engine everywhere
#   — and the EXPLAIN goldens must not drift.
run cargo test -q --offline --workspace
run cargo fmt --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc gate: a doc link to a renamed, deleted or private item fails here.
RUSTDOCFLAGS="-D warnings" run cargo doc --offline --no-deps --workspace

# Server smoke is part of the default sequence: the binaries must round-trip
# the full statement lifecycle over real TCP, not just in unit tests.
server_smoke

# Storage smoke is part of the default sequence too: persistence must carry
# warm compiled state across server processes, not just within one.
storage_smoke

# Serve-load smoke is part of the default sequence too: the pipelined serve
# path must deliver every reply exactly once under admission pressure.
serve_load_smoke

# Metrics smoke is part of the default sequence too: the observability
# surface must stay scrapeable and its trace/histogram accounting honest.
metrics_smoke

# Mutation smoke is part of the default sequence too: live-graph writes must
# be visible to the next run without cold rebinds, and reversible.
mutation_smoke

if [[ "$e2e_smoke" == 1 ]]; then
    run bash benchmarks/e2e/run.sh --smoke
fi

echo
echo "All checks passed."
