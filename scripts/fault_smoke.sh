#!/usr/bin/env bash
# Chaos suite for csst-serve: each scenario boots a fresh server with a
# deterministic fault (injected via --faults, or provoked by a
# misbehaving client), checks that exactly the targeted session fails
# with the expected structured error, proves the server
# still serves a healthy follow-up session, and finishes with a clean
# SHUTDOWN whose exit code (including the server's own) is checked.
#
#   scripts/fault_smoke.sh [--release]
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

fail=0
server_pid=""
addr=""

# start_server LOG [serve flags...] — boots a server on an OS-chosen
# port and waits for its address.
start_server() {
    local log="$1"
    shift
    "$serve" --listen tcp:127.0.0.1:0 "$@" >"$logdir/$log" 2>&1 &
    server_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$logdir/$log" | head -n1)"
        [[ -n "$addr" ]] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "fault_smoke: server died before binding ($log)" >&2
            cat "$logdir/$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "fault_smoke: server never reported an address ($log)" >&2
        exit 1
    fi
}

# stop_server LOG — clean SHUTDOWN; the server must exit 0.
stop_server() {
    local log="$1"
    local code=0
    "$client" --connect "$addr" --analysis hb --format binary \
        --shutdown >"$logdir/$log.shutdown" 2>&1 || code=$?
    if [[ "$code" != "1" ]]; then
        # The hb demo is racy, so the shutdown-driving session exits 1.
        echo "fault_smoke: shutdown driver exited $code (want 1) after $log" >&2
        cat "$logdir/$log.shutdown" >&2
        fail=1
    fi
    local server_code=0
    wait "$server_pid" || server_code=$?
    if [[ "$server_code" != "0" ]]; then
        echo "fault_smoke: server exited $server_code (want 0) after $log" >&2
        cat "$logdir/$log" >&2
        fail=1
    fi
}

# healthy_session LOG — a full hb session that must match the batch
# analyzer; proves the server survived the preceding fault.
healthy_session() {
    local log="$1"
    local code=0
    "$client" --connect "$addr" --analysis hb --index csst \
        --format binary --check-batch >"$logdir/$log" 2>&1 || code=$?
    if [[ "$code" != "1" ]] ||
        ! grep -q "service report matches the batch analyzer" "$logdir/$log"; then
        echo "fault_smoke: healthy session $log exited $code or mismatched" >&2
        cat "$logdir/$log" >&2
        fail=1
    fi
}

# --- Scenario 1: a panic inside one session -------------------------
# A healthy hb session opens first and stalls before streaming. The
# victim session then panics before its first EVENTS frame (the first
# frame the server sees) and must get a `panic:` ERROR, while the
# healthy session, once it streams, still matches the batch analyzer
# byte for byte.
echo "fault_smoke: scenario session-panic"
start_server panic.serve --faults panic-events=1
code=0
"$client" --connect "$addr" --analysis hb --index csst --format binary \
    --stall-ms 2000 --check-batch >"$logdir/panic.healthy" 2>&1 &
healthy_pid=$!
sleep 0.5
"$client" --connect "$addr" --analysis race --index csst \
    --format binary >"$logdir/panic.client" 2>&1 || code=$?
if [[ "$code" != "2" ]] || ! grep -q "panic:" "$logdir/panic.client"; then
    echo "fault_smoke: panicked session exited $code (want 2 with panic: error)" >&2
    cat "$logdir/panic.client" >&2
    fail=1
fi
code=0
wait "$healthy_pid" || code=$?
if [[ "$code" != "1" ]] ||
    ! grep -q "service report matches the batch analyzer" "$logdir/panic.healthy"; then
    echo "fault_smoke: healthy session exited $code or mismatched batch" >&2
    cat "$logdir/panic.healthy" >&2
    fail=1
fi
if ! grep -q "injected fault: session panic" "$logdir/panic.serve"; then
    echo "fault_smoke: the injected session panic never fired" >&2
    cat "$logdir/panic.serve" >&2
    fail=1
fi
stop_server panic.serve

# --- Scenario 2: corrupted EVENTS frame ------------------------------
# Frame corruption must surface as a structured `decode:` ERROR for
# that session only — never a panic, never a wedged server.
echo "fault_smoke: scenario corrupt-frame"
start_server corrupt.serve --faults corrupt-events=1
code=0
"$client" --connect "$addr" --analysis hb --format binary \
    >"$logdir/corrupt.client" 2>&1 || code=$?
if [[ "$code" != "2" ]] || ! grep -q "decode:" "$logdir/corrupt.client"; then
    echo "fault_smoke: corrupted session exited $code (want 2 with decode: error)" >&2
    cat "$logdir/corrupt.client" >&2
    fail=1
fi
healthy_session corrupt.healthy
stop_server corrupt.serve

# --- Scenario 3: slow client vs idle timeout -------------------------
# A client that stalls past the idle deadline is cut off with a typed
# `deadline:` ERROR; the server moves on.
echo "fault_smoke: scenario slow-client"
start_server slow.serve --idle-timeout-ms 300
code=0
"$client" --connect "$addr" --analysis hb --format binary \
    --stall-ms 1500 >"$logdir/slow.client" 2>&1 || code=$?
if [[ "$code" != "2" ]]; then
    echo "fault_smoke: stalled session exited $code (want 2)" >&2
    cat "$logdir/slow.client" >&2
    fail=1
fi
if ! grep -Eq "deadline|pipe|reset|closed" "$logdir/slow.client"; then
    echo "fault_smoke: stalled session died without a recognizable error" >&2
    cat "$logdir/slow.client" >&2
    fail=1
fi
healthy_session slow.healthy
stop_server slow.serve

# --- Scenario 4: unclean mid-stream disconnect -----------------------
# A client that vanishes after 50 events (no FINISH) must not disturb
# the server or subsequent sessions.
echo "fault_smoke: scenario mid-stream-disconnect"
start_server vanish.serve
code=0
"$client" --connect "$addr" --analysis hb --format binary \
    --disconnect-after 50 >"$logdir/vanish.client" 2>&1 || code=$?
if [[ "$code" != "0" ]] ||
    ! grep -q "disconnecting uncleanly" "$logdir/vanish.client"; then
    echo "fault_smoke: disconnecting client exited $code (want 0)" >&2
    cat "$logdir/vanish.client" >&2
    fail=1
fi
healthy_session vanish.healthy
stop_server vanish.serve

if [[ "$fail" != "0" ]]; then
    for f in "$logdir"/*; do
        echo "--- $f" >&2
        cat "$f" >&2
    done
    echo "fault_smoke FAILED" >&2
    exit 1
fi
echo "fault_smoke OK: session-panic, corrupt-frame, slow-client, mid-stream-disconnect all contained"
