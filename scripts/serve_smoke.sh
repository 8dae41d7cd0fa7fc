#!/usr/bin/env bash
# End-to-end smoke test of the csst-serve service over loopback TCP:
# starts the server, runs five *concurrent* client sessions (hb over
# the binary wire format, race over text, windowed tso over binary,
# windowed deadlock over rapid and windowed deadlock on vector clocks
# over text), each with --check-batch so the
# streamed report must match the local batch analyzer byte-for-byte,
# then asks the server to shut down and checks every exit code —
# including the server's own.
#
#   scripts/serve_smoke.sh [--release]
#
# CI runs it with --release against the already-built binaries.
set -euo pipefail

cd "$(dirname "$0")/.."

profile="debug"
cargo_flags=()
if [[ "${1:-}" == "--release" ]]; then
    profile="release"
    cargo_flags=(--release)
fi

cargo build "${cargo_flags[@]}" -p csst-serve --bins
serve="target/$profile/csst-serve"
client="target/$profile/csst-client"

logdir="$(mktemp -d)"
trap 'rm -rf "$logdir"' EXIT

# OS-chosen port; the server prints `listening on tcp:...` once bound.
"$serve" --listen tcp:127.0.0.1:0 >"$logdir/serve.out" 2>&1 &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$logdir/serve.out" | head -n1)"
    [[ -n "$addr" ]] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve_smoke: server died before binding" >&2
        cat "$logdir/serve.out" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "serve_smoke: server never reported an address" >&2
    cat "$logdir/serve.out" >&2
    exit 1
fi
echo "serve_smoke: server at $addr (pid $server_pid)"

# Five sessions at once: different analyses, formats, windows and
# indexes, each fed event by event into its registry session. The hb
# and race demos contain races and the deadlock demo contains
# deadlocks, so those sessions (and the matching batch runs) exit 1 —
# the *expected* code, not a failure; the tso demo is consistent and
# exits 0. The vc session runs a dense representation windowed.
"$client" --connect "$addr" --analysis hb --index csst \
    --format binary --query events --query races --check-batch \
    >"$logdir/hb.out" 2>&1 &
hb_pid=$!
"$client" --connect "$addr" --analysis race --index csst \
    --format text --query races --check-batch \
    >"$logdir/race.out" 2>&1 &
race_pid=$!
"$client" --connect "$addr" --analysis tso --index csst --window 64 \
    --format binary --query events --check-batch \
    >"$logdir/tso.out" 2>&1 &
tso_pid=$!
"$client" --connect "$addr" --analysis deadlock --index csst --window 64 \
    --format rapid --query events --check-batch \
    >"$logdir/deadlock.out" 2>&1 &
deadlock_pid=$!
"$client" --connect "$addr" --analysis deadlock --index vc --window 64 \
    --format text --query events --check-batch \
    >"$logdir/deadlock_vc.out" 2>&1 &
deadlock_vc_pid=$!

hb_code=0; wait "$hb_pid" || hb_code=$?
race_code=0; wait "$race_pid" || race_code=$?
tso_code=0; wait "$tso_pid" || tso_code=$?
deadlock_code=0; wait "$deadlock_pid" || deadlock_code=$?
deadlock_vc_code=0; wait "$deadlock_vc_pid" || deadlock_vc_code=$?
hb_want=1; race_want=1; tso_want=0; deadlock_want=1; deadlock_vc_want=1

fail=0
for session in hb race tso deadlock deadlock_vc; do
    code_var="${session}_code"
    want_var="${session}_want"
    code="${!code_var}"
    want="${!want_var}"
    if [[ "$code" != "$want" ]]; then
        # The exit code is the analysis's verdict on its demo trace; a
        # different one means the demo lost its findings, 2+ is a
        # transport/usage error, and a --check-batch mismatch forces 1
        # but prints MISMATCH, checked below.
        echo "serve_smoke: $session session exited $code (want $want)" >&2
        fail=1
    fi
    if ! grep -q "check-batch: service report matches the batch analyzer" \
        "$logdir/$session.out"; then
        echo "serve_smoke: $session session did not pass --check-batch" >&2
        fail=1
    fi
    if grep -q "MISMATCH" "$logdir/$session.out"; then
        echo "serve_smoke: $session session reported a batch mismatch" >&2
        fail=1
    fi
done
if [[ "$fail" != "0" ]]; then
    for f in "$logdir"/*.out; do
        echo "--- $f" >&2
        cat "$f" >&2
    done
    exit 1
fi

# Unclean disconnect: a client that streams a prefix and vanishes
# without FINISH must not disturb the server — the next session (the
# shutdown driver below) still completes normally.
"$client" --connect "$addr" --analysis hb --format binary \
    --disconnect-after 50 >"$logdir/vanish.out" 2>&1 || {
    echo "serve_smoke: unclean-disconnect client exited $? (want 0)" >&2
    cat "$logdir/vanish.out" >&2
    exit 1
}

# Clean shutdown: the client's SHUTDOWN frame must stop the server,
# which must exit 0 after joining its session threads.
"$client" --connect "$addr" --analysis hb --format binary \
    --shutdown >"$logdir/shutdown.out" 2>&1 || {
    code=$?
    if [[ "$code" != "1" ]]; then
        echo "serve_smoke: shutdown driver exited $code (want 1: hb demo is racy)" >&2
        cat "$logdir/shutdown.out" >&2
        exit 1
    fi
}
server_code=0
wait "$server_pid" || server_code=$?
if [[ "$server_code" != "0" ]]; then
    echo "serve_smoke: server exited $server_code (want 0)" >&2
    cat "$logdir/serve.out" >&2
    exit 1
fi

echo "serve_smoke OK: five concurrent sessions matched the batch analyzer, unclean disconnect absorbed, clean shutdown"
