#!/bin/sh
# serve-check: the differential gate for the remote backend. vgen-eval
# driving the whole sweep through `vgen-serve -backend family` over
# loopback HTTP must reproduce the in-process TableIII / Figure6 /
# pass@k output byte-for-byte, a supervised `vgen-coord -proc` sweep
# through the same server must merge to the same table3 bytes, and the
# recording auto-paired with the remote run must replay to the same bytes
# with no server at all. Run via `make serve-check`.
set -eu

GO=${GO:-go}
FLAGS="-seed 1 -n 4"
EXPERIMENTS="table3 fig6 passk"

tmp=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

$GO build -o "$tmp/vgen-eval" ./cmd/vgen-eval
$GO build -o "$tmp/vgen-serve" ./cmd/vgen-serve
$GO build -o "$tmp/vgen-coord" ./cmd/vgen-coord
V="$tmp/vgen-eval"
C="$tmp/vgen-coord"

# Serve the family backend on an ephemeral port; the atomically-written
# url file is the readiness signal.
"$tmp/vgen-serve" -backend family -seed 1 -addr 127.0.0.1:0 \
    -url-file "$tmp/url.txt" 2> "$tmp/serve.log" &
SERVER_PID=$!
i=0
while [ ! -s "$tmp/url.txt" ]; do
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "serve-check FAIL: vgen-serve died during startup" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    i=$((i+1))
    if [ "$i" -gt 600 ]; then
        echo "serve-check FAIL: vgen-serve produced no url file" >&2
        exit 1
    fi
    sleep 0.1
done
URL=$(cat "$tmp/url.txt")
echo "serve-check: family backend serving at $URL"

for exp in $EXPERIMENTS; do
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" > "$tmp/golden-$exp.txt"
    # shellcheck disable=SC2086
    if ! "$V" $FLAGS -experiment "$exp" -endpoint "$URL" \
        -record "$tmp/rec-$exp.jsonl" \
        > "$tmp/remote-$exp.txt" 2> "$tmp/remote-$exp.err"; then
        echo "serve-check FAIL: $exp: remote run failed" >&2
        cat "$tmp/remote-$exp.err" >&2
        exit 1
    fi
    if ! cmp -s "$tmp/golden-$exp.txt" "$tmp/remote-$exp.txt"; then
        echo "serve-check FAIL: $exp: remote output differs from in-process" >&2
        diff "$tmp/golden-$exp.txt" "$tmp/remote-$exp.txt" >&2 || true
        exit 1
    fi
    echo "serve-check ok: $exp via $URL"
done

# Supervised remote sweep: each -proc worker re-executes the
# coordinator's command line, so -endpoint and the sweep flags reach every
# worker subprocess, whose shard results must merge to the in-process
# bytes.
# shellcheck disable=SC2086
if ! "$C" $FLAGS -experiment table3 -endpoint "$URL" -shards 4 -parallel 2 -proc \
    -dir "$tmp/coord-state" > "$tmp/coord-table3.txt" 2> "$tmp/coord-table3.err"; then
    echo "serve-check FAIL: supervised remote run failed" >&2
    cat "$tmp/coord-table3.err" >&2
    exit 1
fi
if ! cmp -s "$tmp/golden-table3.txt" "$tmp/coord-table3.txt"; then
    echo "serve-check FAIL: supervised remote output differs from in-process" >&2
    diff "$tmp/golden-table3.txt" "$tmp/coord-table3.txt" >&2 || true
    exit 1
fi
if [ "$(grep -c ' done (attempt' "$tmp/coord-table3.err")" -ne 4 ]; then
    echo "serve-check FAIL: supervised remote run did not execute all 4 shards" >&2
    cat "$tmp/coord-table3.err" >&2
    exit 1
fi
echo "serve-check ok: table3 via vgen-coord -proc workers on $URL"

# The recorder pairing: replaying the remote run's recording must render
# the same bytes offline. Recordings concatenate cleanly
# (coordinate-addressed, later lines win).
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
cat "$tmp"/rec-*.jsonl > "$tmp/recording.jsonl"
for exp in $EXPERIMENTS; do
    # shellcheck disable=SC2086
    "$V" $FLAGS -experiment "$exp" -replay "$tmp/recording.jsonl" \
        > "$tmp/replayed-$exp.txt"
    if ! cmp -s "$tmp/golden-$exp.txt" "$tmp/replayed-$exp.txt"; then
        echo "serve-check FAIL: $exp: replayed recording differs from in-process" >&2
        diff "$tmp/golden-$exp.txt" "$tmp/replayed-$exp.txt" >&2 || true
        exit 1
    fi
    echo "serve-check ok: $exp replayed offline"
done

echo "serve-check PASS: remote sweep, supervised remote sweep and recording are byte-identical to in-process"
