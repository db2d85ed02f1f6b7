#!/bin/sh
# chaos_cluster.sh — cross-process chaos drill for the distributed tier.
#
# Boots three real cmd/server workers (identical synthetic corpora) and a
# cmd/router in front of them, arms probabilistic router.forward faults,
# drives mixed read/write load through the router with cmd/loadgen, and
# kill -9's one worker mid-run. The drill fails unless client-observed
# availability stays >= MIN_AVAIL (default 0.99).
#
# Every probabilistic decision derives from FAULTINJECT_SEED, printed up
# front — rerun with FAULTINJECT_SEED=<seed> scripts/chaos_cluster.sh to
# reproduce a failing draw sequence exactly (modulo scheduling).
set -eu

BASE_PORT=${BASE_PORT:-19800}
MIN_AVAIL=${MIN_AVAIL:-0.99}
RATES=${RATES:-50,100}
# 5s per rate stage: the kill lands in stage 1, and the availability gate
# needs enough requests there that the fixed handful lost in the kill
# window cannot alone breach 99% (at 50 req/s, 3s gave the stage only a
# 1.5-request error budget).
DURATION=${DURATION:-5s}
WRITE_RATIO=${WRITE_RATIO:-0.05}
FORWARD_FAULT=${FORWARD_FAULT:-router.forward=error@0.02}
SEED=${FAULTINJECT_SEED:-$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}

echo "chaos-cluster: FAULTINJECT_SEED=$SEED"
echo "chaos-cluster: forward fault spec: $FORWARD_FAULT"

workdir=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "chaos-cluster: building server, router, loadgen"
go build -o "$workdir/server" ./cmd/server
go build -o "$workdir/router" ./cmd/router
go build -o "$workdir/loadgen" ./cmd/loadgen

backends=""
worker_pids=""
i=1
while [ "$i" -le 3 ]; do
    port=$((BASE_PORT + i))
    "$workdir/server" -addr "127.0.0.1:$port" -synthetic -seed 7 -serve-snapshot \
        >"$workdir/worker$i.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    worker_pids="$worker_pids $pid"
    backends="$backends${backends:+,}http://127.0.0.1:$port"
    i=$((i + 1))
done

# The router carries the armed fault: every forward has a small chance of
# an injected error, on top of the real worker kill below.
FAULTINJECT="$FORWARD_FAULT" FAULTINJECT_SEED="$SEED" \
    "$workdir/router" -addr "127.0.0.1:$BASE_PORT" -backends "$backends" \
    >"$workdir/router.log" 2>&1 &
pids="$pids $!"

ready() {
    curl -fsS -o /dev/null "http://127.0.0.1:$1/readyz" 2>/dev/null
}
i=0
while [ "$i" -le 3 ]; do
    port=$((BASE_PORT + i))
    tries=0
    until ready "$port"; do
        tries=$((tries + 1))
        if [ "$tries" -gt 50 ]; then
            echo "chaos-cluster: 127.0.0.1:$port never became ready" >&2
            tail -5 "$workdir"/*.log >&2 || true
            exit 1
        fi
        sleep 0.2
    done
    i=$((i + 1))
done
echo "chaos-cluster: router + 3 workers ready on ports $BASE_PORT-$((BASE_PORT + 3))"

"$workdir/loadgen" -addr "http://127.0.0.1:$BASE_PORT" \
    -rates "$RATES" -duration "$DURATION" -write-ratio "$WRITE_RATIO" \
    -min-availability "$MIN_AVAIL" \
    >"$workdir/loadgen.log" 2>&1 &
load_pid=$!
pids="$pids $load_pid"

# Kill one worker abruptly (SIGKILL: no drain, no goodbye) once the load is
# well underway.
sleep 2
victim=$(echo $worker_pids | awk '{print $1}')
echo "chaos-cluster: kill -9 worker 1 (pid $victim) mid-load"
kill -9 "$victim" 2>/dev/null || true

if wait "$load_pid"; then
    grep -E "rate|avail" "$workdir/loadgen.log" || true
    echo "chaos-cluster: PASS — availability held >= $MIN_AVAIL through a worker kill (FAULTINJECT_SEED=$SEED)"
else
    echo "chaos-cluster: FAIL — reproduce with: FAULTINJECT_SEED=$SEED scripts/chaos_cluster.sh" >&2
    echo "--- loadgen.log ---" >&2
    tail -20 "$workdir/loadgen.log" >&2 || true
    echo "--- router.log ---" >&2
    tail -20 "$workdir/router.log" >&2 || true
    exit 1
fi
