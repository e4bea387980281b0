#!/usr/bin/env bash
# readme_smoke.sh — run README.md's commands: build every command once,
# then run each `go run ./cmd/...` line of README.md, in order, in a temp
# dir (README paths under /tmp/ moved into it), with a small -rows appended
# where the command takes one (the flag package keeps the last value). A
# non-zero exit or a validated=false line fails the smoke, so a misspelled
# flag in the README fails it too. Each coordinator line and the worker
# line after it run as one bounded pair, which must end validated=true;
# the sortd/sortctl lines are
# service_smoke.sh's. Every wait is bounded so CI can never hang here.
#
#   scripts/readme_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
ROWS=20000
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
    for p in "${PIDS[@]}"; do
        kill -TERM "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build the commands"
go build -o "$WORK/bin/" ./cmd/...

mapfile -t LINES < <(grep -E '^go run \./cmd/' README.md)
[[ ${#LINES[@]} -gt 0 ]] || { echo "no go run lines in README.md"; exit 1; }
COORD_PID=""
for line in "${LINES[@]}"; do
    read -ra words <<<"${line%%#*}"
    name="${words[2]#./cmd/}"
    if [[ "$name" == sortd || "$name" == sortctl ]]; then
        echo "== $name: run by service_smoke.sh"
        continue
    fi
    args=()
    for a in "${words[@]:3}"; do
        args+=("${a//\/tmp\//$WORK/}")
    done
    usage="$("$WORK/bin/$name" -h 2>&1 || true)"
    if grep -qE '^  -rows ' <<<"$usage"; then
        args+=(-rows "$ROWS")
    fi
    echo "== $name ${args[*]}"
    case "$name" in
    coordinator)
        (cd "$WORK" && exec timeout 120 "$WORK/bin/coordinator" "${args[@]}") >"$WORK/coord.log" 2>&1 &
        COORD_PID=$!
        PIDS+=("$COORD_PID")
        for _ in $(seq 1 100); do
            grep -q 'listening on' "$WORK/coord.log" && break
            kill -0 "$COORD_PID" 2>/dev/null || break
            sleep 0.1
        done
        grep -q 'listening on' "$WORK/coord.log" || {
            cat "$WORK/coord.log"; echo "FAILED: coordinator never listened"; exit 1; }
        ;;
    worker)
        [[ -n "$COORD_PID" ]] || { echo "FAILED: worker line without a coordinator line before it"; exit 1; }
        n=1
        times='# *x([0-9]+)'
        [[ "$line" =~ $times ]] && n="${BASH_REMATCH[1]}"
        WORKERS=()
        for i in $(seq 1 "$n"); do
            (cd "$WORK" && exec timeout 120 "$WORK/bin/worker" "${args[@]}") >"$WORK/worker$i.log" 2>&1 &
            WORKERS+=($!)
            PIDS+=($!)
        done
        FAIL=0
        for p in "${WORKERS[@]}"; do
            wait "$p" || FAIL=1
        done
        # A failed worker leaves the coordinator waiting for it.
        [[ "$FAIL" == 0 ]] || kill -TERM "$COORD_PID" 2>/dev/null || true
        wait "$COORD_PID" || FAIL=1
        cat "$WORK/coord.log"
        if [[ "$FAIL" != 0 ]] || ! grep -q 'validated=true' "$WORK/coord.log"; then
            cat "$WORK"/worker*.log; echo "FAILED: coordinator + $n workers"; exit 1
        fi
        COORD_PID=""
        ;;
    *)
        if ! (cd "$WORK" && timeout 300 "$WORK/bin/$name" "${args[@]}") >"$WORK/out.txt" 2>&1; then
            cat "$WORK/out.txt"; echo "FAILED: $name ${args[*]}"; exit 1
        fi
        cat "$WORK/out.txt"
        if grep -q 'validated=false' "$WORK/out.txt"; then
            echo "FAILED (unvalidated): $name ${args[*]}"; exit 1
        fi
        ;;
    esac
done
[[ -z "$COORD_PID" ]] || { echo "FAILED: coordinator line without worker lines after it"; exit 1; }
echo "readme smoke OK: ${#LINES[@]} lines"
