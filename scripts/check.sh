#!/usr/bin/env bash
# The CI gate: formatting, lints, and the full test suite.
#
#   scripts/check.sh
#
# Run from anywhere; it cds to the repo root first.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs `cargo test -q <args>` for a named-test gate and fails unless at
# least one test passed: a name filter that matches no test passes on
# its own, so renaming a gated test would silently turn its gate off.
named_tests() {
    local out
    out=$(cargo test -q "$@" 2>&1) || {
        echo "$out" >&2
        exit 1
    }
    grep -Eq " [1-9][0-9]* passed" <<<"$out" || {
        echo "no test ran for: cargo test $*" >&2
        exit 1
    }
}

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== cargo doc (workspace, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== ingest determinism gate =="
cargo test -q -p crowdweb-ingest
cargo test -q --test ingest_determinism
# An epoch's O(batch) steps must equal what they replaced: the merge
# equals the builder path, the kept month counts equal a walk over every
# check-in, and the spliced sequence database equals a full re-encode.
named_tests -p crowdweb-dataset --lib prop_merge_equals_builder_path
named_tests -p crowdweb-dataset --lib prop_chained_merges_keep_the_calendar
named_tests -p crowdweb-prep --lib prop_splice_equals_from_users

echo "== benchmark gate =="
# The benchmark opens ShardedIngestEngine and reads ShardedIngestStats directly,
# so it must build against the current APIs; its quick runs of all four
# workloads (about 11 s) also pass their correctness gates.
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== observability gate =="
cargo test -q -p crowdweb-obs -p crowdweb-server
grep -q '/api/metrics' README.md || {
    echo "README.md must document the /api/metrics endpoint" >&2
    exit 1
}

echo "== server gate =="
cargo test -q -p crowdweb-server
# The evented-loop guarantee must hold explicitly: slow-drip clients
# cannot block a fast one.
named_tests -p crowdweb-server slow_drip
# Keep-alive semantics, pipelining included, end to end over TCP.
cargo test -q -p crowdweb-server --test keep_alive
named_tests -p crowdweb-server --test keep_alive two_pipelined
grep -q '/api/healthz' README.md || {
    echo "README.md must document the /api/healthz endpoint" >&2
    exit 1
}
for tunable in keep_alive_requests keep_alive_idle; do
    grep -qF "$tunable" README.md || {
        echo "README.md must document the $tunable tunable" >&2
        exit 1
    }
done

echo "== connection scaling spot check (10k keep-alive sockets) =="
# The bench splits client and server across two processes, so ~10k fds
# per process suffice for the 10k-connection gate. Skip gracefully
# where the fd limit cannot reach that. The spot check writes its row
# under the target directory, never over the committed
# crates/bench/out/connection_scaling.tsv.
if ulimit -n 16384 2>/dev/null || [ "$(ulimit -n)" -ge 16384 ]; then
    CROWDWEB_SCALE_ONLY=1 cargo bench -q -p crowdweb-bench --bench connection_scaling
    awk -F'\t' '
        /^10000\t/ {
            found = 1
            if ($3 >= 1000) { print "10k-conn p50 dispatch " $3 "us >= 1ms" > "/dev/stderr"; exit 1 }
            if ($7 < 10000) { print "server held only " $7 " connections" > "/dev/stderr"; exit 1 }
        }
        END { if (!found) { print "no 10000-connection row in connection_scaling.tsv" > "/dev/stderr"; exit 1 } }
    ' "${CARGO_TARGET_DIR:-target}/release/connection_scaling.tsv"
else
    echo "skipped: cannot raise ulimit -n to 16384 (current: $(ulimit -n))"
fi

echo "== tenancy gate =="
# Two cities must ingest concurrently without cross-contaminating each
# other's snapshots, per-city WAL roots must recover independently, and
# a formerly-GridTooLarge resolution must serve
# /api/v1/cities/{id}/crowd/map end to end over TCP with retained
# epochs byte-identical across parallelism and shard policies.
cargo test -q --test tenancy
# The sparse cell store must stay provably equivalent to the dense one.
named_tests -p crowdweb-geo cells
grep -qF '/api/v1/cities/{city}' README.md || {
    echo "README.md must document the /api/v1/cities/{city}/... tenant routes" >&2
    exit 1
}
grep -qF 'default city' README.md || {
    echo "README.md must document the default-city alias policy" >&2
    exit 1
}

echo "== epoch history gate =="
# Time travel must stay byte-identical to cold rebuilds, end to end.
cargo test -q --test epoch_history
named_tests --test server_e2e time_travel
# The history metrics must stay pinned by the exposition test.
for metric in crowdweb_ingest_history_retained_epochs \
    crowdweb_ingest_history_resident_bytes \
    crowdweb_ingest_history_reconstruction_seconds; do
    grep -qF "$metric" crates/server/src/api.rs || {
        echo "the /api/metrics exposition test must assert $metric" >&2
        exit 1
    }
done

echo "== render memo gate =="
# A memo hit must be byte-identical to the view's direct render, live
# and time-travelled, under both parallelism policies.
named_tests -p crowdweb-server memo_hits_match_direct_renders_across_parallelism
# The memo metrics must stay pinned by the exposition test.
for metric in crowdweb_render_memo_hits_total \
    crowdweb_render_memo_misses_total \
    crowdweb_render_memo_resident_bytes; do
    awk '/fn metrics_endpoint_serves_valid_stable_prometheus_text/,/^    }$/' \
        crates/server/src/api.rs | grep -qF "$metric" || {
        echo "the /api/metrics exposition test must assert $metric" >&2
        exit 1
    }
done

echo "== reactor probe gate =="
# Render-free reads (memo hits and 304s) are answered on the event
# thread: byte- and count-identical to the worker path, still served
# when the worker queue is full, one per connection per loop pass, and
# in pipelined order.
named_tests -p crowdweb-server --lib saturated_pool_still_serves_memo_hits_and_revalidations
named_tests -p crowdweb-server --lib probe_answers_exactly_what_the_pool_would
named_tests -p crowdweb-server --lib pipelined
named_tests -p crowdweb-server --test keep_alive pipelined

echo "== API v1 doc-drift gate =="
# Every /api/v1 pattern build_router registers (each endpoint-table row
# spelled by the router's own function, plus the city listing and
# metrics) must appear verbatim in the README endpoint table, parameter
# spellings like :user included.
named_tests -p crowdweb-server --lib readme_documents_every_v1_route

echo "== loadgen gate =="
# Trace synthesis must be deterministic, every shipped scenario must
# parse and synthesize, and the smoke scenario must replay cleanly
# against a freshly booted server (nonzero throughput, zero unexpected
# non-2xx, valid TSV).
cargo test -q -p crowdweb-loadgen
cargo test -q -p crowdweb-loadgen --test smoke_gate
grep -qF 'crowdweb-loadgen run' README.md || {
    echo "README.md must document the crowdweb-loadgen run quick-start" >&2
    exit 1
}

echo "All checks passed."
