#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke of the sortd service: build the
# daemon and its client, start the daemon, submit concurrent jobs from two
# tenants (mixed engines, one with an injected mid-Map kill), verify every
# job finishes validated, scrape /metrics for the per-tenant counters and
# check that they balance, and drain with SIGTERM. Every wait is bounded so
# CI can never hang here.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
SORTD_PID=""

cleanup() {
    if [[ -n "$SORTD_PID" ]] && kill -0 "$SORTD_PID" 2>/dev/null; then
        kill -KILL "$SORTD_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build sortd + sortctl"
go build -o "$WORK/" ./cmd/sortd ./cmd/sortctl

echo "== start sortd"
"$WORK/sortd" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
    -slots 6 -spill "$WORK/spill" -drain-timeout 60s \
    -tenant acme:5 -tenant guest:1 >"$WORK/sortd.log" 2>&1 &
SORTD_PID=$!

# Bounded wait for the daemon to publish its address.
for _ in $(seq 1 100); do
    [[ -s "$WORK/addr" ]] && break
    kill -0 "$SORTD_PID" 2>/dev/null || { echo "sortd died at startup"; cat "$WORK/sortd.log"; exit 1; }
    sleep 0.1
done
[[ -s "$WORK/addr" ]] || { echo "sortd never wrote its address"; exit 1; }
ADDR="$(cat "$WORK/addr")"
echo "   sortd at $ADDR (pid $SORTD_PID)"

CTL=("$WORK/sortctl")
SUBMIT=("${CTL[@]}" submit -addr "$ADDR" -timeout 120s -wait)

echo "== submit 4 concurrent jobs from 2 tenants"
"${SUBMIT[@]}" -tenant acme -k 3 -rows 30000 >"$WORK/job1.json" 2>&1 &
P1=$!
"${SUBMIT[@]}" -tenant acme -k 3 -r 2 -rows 30000 >"$WORK/job2.json" 2>&1 &
P2=$!
"${SUBMIT[@]}" -tenant guest -k 3 -rows 20000 -membudget 65536 -spilldir "$WORK/spill" >"$WORK/job3.json" 2>&1 &
P3=$!
"${SUBMIT[@]}" -tenant guest -k 3 -r 2 -rows 20000 \
    -fault 1:Map:kill -deadline 500ms -max-attempts 2 >"$WORK/job4.json" 2>&1 &
P4=$!

FAIL=0
for p in "$P1" "$P2" "$P3" "$P4"; do
    wait "$p" || FAIL=1
done
if [[ "$FAIL" != 0 ]]; then
    echo "a submission failed:"; cat "$WORK"/job*.json; cat "$WORK/sortd.log"; exit 1
fi

echo "== verify every job finished validated"
for f in "$WORK"/job*.json; do
    grep -q '"state": "done"' "$f" || { echo "$f not done"; cat "$f"; exit 1; }
    grep -q '"validated": true' "$f" || { echo "$f not validated"; cat "$f"; exit 1; }
done
# The faulted job must show the supervisor's recovery.
grep -q '"attempts": 2' "$WORK/job4.json" || { echo "faulted job did not recover"; cat "$WORK/job4.json"; exit 1; }

echo "== scrape /metrics"
"${CTL[@]}" metrics -addr "$ADDR" -timeout 30s >"$WORK/metrics.txt"
for want in \
    'sortd_tenant_jobs_finished_total{tenant="acme",outcome="done"} 2' \
    'sortd_tenant_jobs_finished_total{tenant="guest",outcome="done"} 2' \
    'sortd_tenant_jobs_recovered_total{tenant="guest"} 1' \
    'sortd_stage_seconds_total{stage="Map"}' \
    'sortd_spilled_runs_total'
do
    grep -qF "$want" "$WORK/metrics.txt" || {
        echo "metrics missing: $want"; cat "$WORK/metrics.txt"; exit 1; }
done
# The books balance per tenant: with every job finished and none queued,
# admitted = running + done + failed + canceled, and submitted = admitted +
# rejected.
grep -qx 'sortd_jobs_queued 0' "$WORK/metrics.txt" || {
    echo "jobs still queued"; cat "$WORK/metrics.txt"; exit 1; }
awk '
    match($0, /^sortd_tenant_jobs_[a-z_]+\{tenant="[^"]+"/) {
        split($0, p, "\"")
        t = p[2]
        n = $NF
        if ($0 ~ /^sortd_tenant_jobs_submitted_total/) sub_[t] += n
        else if ($0 ~ /^sortd_tenant_jobs_admitted_total/) adm[t] += n
        else if ($0 ~ /^sortd_tenant_jobs_rejected_total/) rej[t] += n
        else if ($0 ~ /^sortd_tenant_jobs_(finished_total|running)/) held[t] += n
    }
    END {
        bad = 0
        for (t in adm) {
            if (adm[t] != held[t] || sub_[t] != adm[t] + rej[t]) {
                printf "tenant %s out of balance: submitted %d admitted %d rejected %d finished+running %d\n",
                    t, sub_[t], adm[t], rej[t], held[t]
                bad = 1
            }
        }
        exit bad
    }' "$WORK/metrics.txt" || { cat "$WORK/metrics.txt"; exit 1; }

echo "== SIGTERM drain"
kill -TERM "$SORTD_PID"
for _ in $(seq 1 300); do
    kill -0 "$SORTD_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SORTD_PID" 2>/dev/null; then
    echo "sortd did not exit within 30s of SIGTERM"; cat "$WORK/sortd.log"; exit 1
fi
wait "$SORTD_PID" 2>/dev/null || { echo "sortd exited nonzero"; cat "$WORK/sortd.log"; exit 1; }
SORTD_PID=""
grep -q "exit" "$WORK/sortd.log" || { echo "no clean exit logged"; cat "$WORK/sortd.log"; exit 1; }

echo "service smoke OK"
