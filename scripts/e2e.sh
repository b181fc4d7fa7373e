#!/usr/bin/env sh
# End-to-end smoke of the serving stack: build xbcd and xbcctl, start
# the daemon on a random port with a persistent store, prove a served
# job is bit-identical to a direct local run (xbcctl selfcheck, which
# also asserts the second submission is a cache hit), push a little
# concurrent load through it, check the Prometheus counters — then the
# crash-safety phase: SIGKILL the daemon (no drain, no flush beyond the
# write-behind already landed), restart it on the same store, and
# require every previously computed job to come back as a store hit
# with bit-identical metrics and zero re-simulations. Finally SIGTERM,
# require a clean drain within a bounded time, and run a figure on the
# drained daemon's store: every cell must be served from the daemon's
# results. Used by `make e2e` and the CI e2e job.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
XBCD_PID=
CL_PIDS=
trap 'status=$?
  [ -n "$XBCD_PID" ] && kill -9 "$XBCD_PID" 2>/dev/null || true
  for p in $CL_PIDS; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
  exit $status' EXIT INT TERM

echo "e2e: building xbcd, xbcctl and experiments"
$GO build -o "$WORK/xbcd" ./cmd/xbcd
$GO build -o "$WORK/xbcctl" ./cmd/xbcctl
$GO build -o "$WORK/experiments" ./cmd/experiments

# start_xbcd <addr-file> <log-file> [extra flags...]: launches the daemon
# and waits (max ~5s) for it to write its bound address.
start_xbcd() {
  addr_file=$1; log_file=$2; shift 2
  "$WORK/xbcd" -addr 127.0.0.1:0 -addr-file "$addr_file" \
    -store "$WORK/store" "$@" >"$log_file" 2>&1 &
  XBCD_PID=$!
  i=0
  while [ ! -s "$addr_file" ]; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
      echo "e2e: xbcd never wrote its address; log:" >&2
      cat "$log_file" >&2
      exit 1
    fi
    kill -0 "$XBCD_PID" 2>/dev/null || {
      echo "e2e: xbcd exited early; log:" >&2
      cat "$log_file" >&2
      exit 1
    }
    sleep 0.1
  done
  ADDR="http://$(cat "$addr_file")"
}

start_xbcd "$WORK/addr" "$WORK/xbcd.log"
echo "e2e: xbcd (pid $XBCD_PID) at $ADDR"

echo "e2e: selfcheck — served metrics must equal a direct local run"
"$WORK/xbcctl" selfcheck -addr "$ADDR" -fe xbc -trace gcc -uops 200000 -core default

echo "e2e: loadgen — 8 concurrent submitters"
"$WORK/xbcctl" loadgen -addr "$ADDR" -conc 8 -n 24 -uops 20000

echo "e2e: loadgen — sampled fidelity rung"
"$WORK/xbcctl" loadgen -addr "$ADDR" -conc 4 -n 12 -uops 120000 -fidelity sampled

echo "e2e: sweep — a duplicated grid must dedup and reuse loadgen's results"
SWEEP=$("$WORK/xbcctl" sweep -addr "$ADDR" -fe xbc \
  -traces straightline,loopnest,callheavy,straightline,loopnest,callheavy \
  -budgets 8192 -uops 20000 -wait)
echo "$SWEEP"
echo "$SWEEP" | grep -q 'planned=6 deduped=3 cache_hit=3 store_hit=0 coalesced=0 simulated=0' || {
  echo "e2e: sweep plan did not dedup and reuse as expected" >&2
  exit 1
}

echo "e2e: metrics sanity"
METRICS=$(curl -fsS "$ADDR/metrics")
echo "$METRICS" | grep -q '^xbcd_cache_hits_total [1-9]' || {
  echo "e2e: expected cache hits in /metrics:" >&2
  echo "$METRICS" >&2
  exit 1
}
echo "$METRICS" | grep -q 'xbcd_jobs_total{outcome="done"}' || {
  echo "e2e: expected completed jobs in /metrics:" >&2
  echo "$METRICS" >&2
  exit 1
}
# The selfcheck's fidelity phase ran gcc at two lengths; both capture warm
# state at the same 100k-uop point, so the second full run must have
# restored the first one's snapshot.
echo "$METRICS" | grep -q '^xbcd_snapshot_hits_total [1-9]' || {
  echo "e2e: expected a warm-state snapshot hit in /metrics:" >&2
  echo "$METRICS" >&2
  exit 1
}
echo "$METRICS" | grep -q 'xbcd_jobs_fidelity_total{fidelity="sampled"}' || {
  echo "e2e: expected sampled-fidelity completions in /metrics:" >&2
  echo "$METRICS" >&2
  exit 1
}

# Nine distinct results went through the daemon (selfcheck's three gcc
# cells plus loadgen's three workloads at two rungs), interleaved in the
# write-behind queue with corpus streams and snapshot blobs. Only flushed
# writes are promised to survive a SIGKILL under the default fsync mode,
# so wait until the single FIFO flusher goes quiet (two equal readings at
# or past the result count) before killing the process.
echo "e2e: waiting for the write-behind flush"
i=0
PREV=-1
while true; do
  WRITES=$(curl -fsS "$ADDR/metrics" | sed -n 's/^xbcd_store_writes_total //p')
  [ "${WRITES:-0}" -ge 9 ] && [ "${WRITES:-0}" -eq "$PREV" ] && break
  PREV=${WRITES:-0}
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "e2e: store writes never settled at >=9 (got ${WRITES:-0}); log:" >&2
    cat "$WORK/xbcd.log" >&2
    exit 1
  fi
  sleep 0.2
done

echo "e2e: SIGKILL (no drain) and warm restart on the same store"
kill -9 "$XBCD_PID"
while kill -0 "$XBCD_PID" 2>/dev/null; do sleep 0.1; done
XBCD_PID=

start_xbcd "$WORK/addr2" "$WORK/xbcd2.log"
echo "e2e: restarted xbcd (pid $XBCD_PID) at $ADDR"

echo "e2e: warm sweep — every cell must come back from the store"
SWEEP=$("$WORK/xbcctl" sweep -addr "$ADDR" -fe xbc \
  -traces straightline,loopnest,callheavy,straightline,loopnest,callheavy \
  -budgets 8192 -uops 20000 -wait)
echo "$SWEEP"
echo "$SWEEP" | grep -q 'planned=6 deduped=3 cache_hit=0 store_hit=3 coalesced=0 simulated=0' || {
  echo "e2e: warm sweep was not served from the store" >&2
  exit 1
}

echo "e2e: warm selfcheck — restored metrics must equal a direct local run"
"$WORK/xbcctl" selfcheck -addr "$ADDR" -fe xbc -trace gcc -uops 200000 -core default

echo "e2e: warm loadgen — every submission must be served from the store"
"$WORK/xbcctl" loadgen -addr "$ADDR" -conc 8 -n 24 -uops 20000

echo "e2e: warm sampled loadgen — persisted approximations must be served back"
"$WORK/xbcctl" loadgen -addr "$ADDR" -conc 4 -n 12 -uops 120000 -fidelity sampled

echo "e2e: warm-start metrics — zero re-simulations"
METRICS=$(curl -fsS "$ADDR/metrics")
echo "$METRICS" | grep -q '^xbcd_cache_misses_total 0$' || {
  echo "e2e: warm restart created new jobs (cache misses):" >&2
  echo "$METRICS" >&2
  exit 1
}
if echo "$METRICS" | grep -q 'xbcd_jobs_total{outcome="done"}'; then
  echo "e2e: warm restart re-executed a job:" >&2
  echo "$METRICS" >&2
  exit 1
fi
echo "$METRICS" | grep -q '^xbcd_store_hits_total [1-9]' || {
  echo "e2e: expected store hits after warm restart:" >&2
  echo "$METRICS" >&2
  exit 1
}

echo "e2e: TC sweep — with the XBC sweep above, Figure 8's cells are all served"
"$WORK/xbcctl" sweep -addr "$ADDR" -fe tc -traces straightline,loopnest,callheavy \
  -budgets 8192 -uops 20000 -wait

echo "e2e: graceful shutdown"
kill -TERM "$XBCD_PID"
i=0
while kill -0 "$XBCD_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 150 ]; then
    echo "e2e: xbcd did not drain within 15s; log:" >&2
    cat "$WORK/xbcd2.log" >&2
    exit 1
  fi
  sleep 0.1
done
XBCD_PID=
grep -q 'drained; bye' "$WORK/xbcd2.log" || {
  echo "e2e: xbcd exited without completing its drain; log:" >&2
  cat "$WORK/xbcd2.log" >&2
  exit 1
}

echo "e2e: Figure 8 on the drained daemon's store — nothing may simulate"
"$WORK/experiments" -store "$WORK/store" -fig 8 -traces straightline,loopnest,callheavy \
  -uops 20000 -budget 8192 >"$WORK/fig8.out" 2>"$WORK/fig8.err" || {
  echo "e2e: experiments failed on the daemon's store:" >&2
  cat "$WORK/fig8.err" >&2
  exit 1
}
cat "$WORK/fig8.err"
grep -q 'plan: .* 0 simulated' "$WORK/fig8.err" || {
  echo "e2e: Figure 8 re-simulated cells the daemon had stored" >&2
  exit 1
}

# ---------------------------------------------------------------------------
# Cluster phase: 3 nodes on one consistent-hash ring (fixed ports derived
# from the pid; -peer-poll is set long so routing never learns about the
# SIGKILL below — every owner-down interaction must take the counted
# fallback path rather than being quietly rerouted by health polling).
# ---------------------------------------------------------------------------
echo "e2e: cluster — starting 3 nodes"
P1=$((10000 + ($$ % 20000))); P2=$((P1 + 1)); P3=$((P1 + 2))
A1="http://127.0.0.1:$P1"; A2="http://127.0.0.1:$P2"; A3="http://127.0.0.1:$P3"
start_xbcd "$WORK/caddr1" "$WORK/cnode1.log" -store "$WORK/cstore1" \
  -addr "127.0.0.1:$P1" -peers "$A2,$A3" -peer-poll 30s
CL_PID1=$XBCD_PID
start_xbcd "$WORK/caddr2" "$WORK/cnode2.log" -store "$WORK/cstore2" \
  -addr "127.0.0.1:$P2" -peers "$A1,$A3" -peer-poll 30s
CL_PID2=$XBCD_PID
start_xbcd "$WORK/caddr3" "$WORK/cnode3.log" -store "$WORK/cstore3" \
  -addr "127.0.0.1:$P3" -peers "$A1,$A2" -peer-poll 30s
CL_PID3=$XBCD_PID
XBCD_PID=
CL_PIDS="$CL_PID1 $CL_PID2 $CL_PID3"
echo "e2e: cluster nodes $CL_PIDS at $A1 $A2 $A3"

curl -fsS "$A1/healthz" | grep -q '"cluster"' || {
  echo "e2e: /healthz carries no cluster ring state" >&2
  exit 1
}

echo "e2e: cluster selfcheck — same job id and bit-identical metrics on every node"
"$WORK/xbcctl" selfcheck -addr "$A1,$A2,$A3" -fe xbc -trace gcc -uops 50000 \
  | tee "$WORK/cselfcheck.out"
[ "$(grep -c 'selfcheck cluster ok' "$WORK/cselfcheck.out")" -eq 2 ] || {
  echo "e2e: cross-node selfcheck did not verify both other endpoints" >&2
  exit 1
}

echo "e2e: cluster sweep — the coordinator dedups, owners simulate once"
SWEEP=$("$WORK/xbcctl" sweep -addr "$A1" -fe xbc \
  -traces gcc,quake,doom,gcc,quake,doom -budgets 8192,16384 -uops 20000 -wait)
echo "$SWEEP"
echo "$SWEEP" | grep -q 'planned=12 deduped=6 cache_hit=0 store_hit=0 coalesced=0 simulated=6' || {
  echo "e2e: distributed sweep plan did not dedup as expected" >&2
  exit 1
}
FW=0
for a in "$A1" "$A2" "$A3"; do
  n=$(curl -fsS "$a/metrics" | sed -n 's/^xbcd_cluster_forwards_total //p')
  FW=$((FW + ${n:-0}))
done
[ "$FW" -ge 1 ] || {
  echo "e2e: no request was ever forwarded between nodes (forwards=$FW)" >&2
  exit 1
}
echo "e2e: cluster forwards=$FW"

echo "e2e: cluster loadgen with a SIGKILL mid-load — zero failed requests"
"$WORK/xbcctl" loadgen -addr "$A1,$A2,$A3" -conc 4 -n 60 -qps 80 -uops 20000 \
  >"$WORK/cloadgen.out" 2>&1 &
LG_PID=$!
sleep 0.3
kill -9 "$CL_PID3"
while kill -0 "$CL_PID3" 2>/dev/null; do sleep 0.05; done
wait "$LG_PID" || {
  echo "e2e: loadgen failed while a node was killed mid-load:" >&2
  cat "$WORK/cloadgen.out" >&2
  exit 1
}
cat "$WORK/cloadgen.out"
grep -q ' 0 failed' "$WORK/cloadgen.out" || {
  echo "e2e: loadgen reported failed requests after the mid-load kill" >&2
  exit 1
}
CL_PIDS="$CL_PID1 $CL_PID2"

echo "e2e: cluster fallback — dead-owner submissions execute locally, counted"
i=0
while :; do
  FB=0
  for a in "$A1" "$A2"; do
    n=$(curl -fsS "$a/metrics" | sed -n 's/^xbcd_cluster_fallbacks_total //p')
    FB=$((FB + ${n:-0}))
  done
  [ "$FB" -ge 1 ] && break
  i=$((i + 1))
  if [ "$i" -gt 30 ]; then
    echo "e2e: no fallback was ever counted with a node dead" >&2
    exit 1
  fi
  # Each distinct spec has a 1-in-3 chance of being owned by the dead
  # node; a handful of submissions makes a fallback all but certain.
  "$WORK/xbcctl" submit -addr "$A1" -fe xbc -trace straightline \
    -uops $((30000 + i)) -wait >/dev/null
done
echo "e2e: cluster fallbacks=$FB (degraded, counted, zero failed requests)"

echo "e2e: cluster shutdown"
kill -TERM "$CL_PID1" "$CL_PID2"
i=0
while kill -0 "$CL_PID1" 2>/dev/null || kill -0 "$CL_PID2" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 150 ]; then
    echo "e2e: cluster nodes did not drain within 15s" >&2
    cat "$WORK/cnode1.log" "$WORK/cnode2.log" >&2
    exit 1
  fi
  sleep 0.1
done
CL_PIDS=
echo "e2e: ok"
