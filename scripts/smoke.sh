#!/usr/bin/env bash
# The behavioural gates: real tcserver processes on loopback, driven
# through /v1, /stats, /readyz, /metrics, their logs and tcload's
# replay oracle. One command per scenario, identical locally and in CI
# (the workflow's smoke matrix runs each):
#
#   server     one 64x64 daemon: load and cache gates, /v1 query, batch
#              and update with typed errors, /metrics counters; then a
#              10%-write mix against a race-instrumented daemon
#   cluster    a 3-node ring: placement agreement, round-robin replay,
#              peer-RPC metrics, a write to a remote-owned fragment with
#              a coherent epoch swap
#   chaos      a scripted-fault rehearsal, then SIGKILL a member three
#              times: zero client errors, breakers open, re-close after
#              the restart
#   coldstart  text-built vs snapshot-loaded answers, SIGKILL recovery
#              to the exact epoch, a replay-free boot after SIGTERM
#   slo        30 s of 15%-write load held to SLO.json
#
# Binaries land in bin/, everything a run leaves (logs, pids, reports,
# scrapes) in smoke-out/. A failing gate exits non-zero naming its line,
# after printing every daemon log.
#
# Usage: scripts/smoke.sh server|cluster|chaos|coldstart|slo
set -eEuo pipefail
cd "$(dirname "$0")/.."
root=$PWD
PATH=$root/bin:$PATH

case "${1:-}/$#" in
server/1 | cluster/1 | chaos/1 | coldstart/1 | slo/1) scenario=$1 ;;
*)
    echo "usage: scripts/smoke.sh server|cluster|chaos|coldstart|slo" >&2
    exit 2
    ;;
esac

# boot NAME PORT ARGS... starts $daemon on 127.0.0.1:PORT, keeps
# NAME.pid and NAME.log, and returns once it answers /healthz.
daemon=tcserver
boot() {
    local name=$1 port=$2
    shift 2
    "$daemon" -listen "127.0.0.1:$port" "$@" > "$name.log" 2>&1 &
    echo $! > "$name.pid"
    "$root/scripts/wait-http.sh" "http://127.0.0.1:$port/healthz"
}

# metric URL FAMILY prints the sum of one /metrics family of the server
# at URL; a FAMILY with a label set names that one series.
metric() {
    curl -fsS "$1/metrics" | awk -v f="$2" '$1 == f || index($1, f "{") == 1 { n += $2 } END { print n + 0 }'
}

# The failing command's line is the gate's name; on the way out every
# daemon is stopped, and on failure every log is printed before it.
gate=
trap 'gate="line $LINENO: $BASH_COMMAND"' ERR
finish() {
    local status=$?
    kill $(jobs -p) 2> /dev/null || true
    wait 2> /dev/null || true
    if [ "$status" -ne 0 ]; then
        for log in "$root"/smoke-out/*.log; do
            [ -e "$log" ] && { echo "== $log"; cat "$log"; }
        done
        echo "FAIL: scripts/smoke.sh $scenario: $gate"
    fi
    exit "$status"
}
trap finish EXIT

server() {
    local s=http://127.0.0.1:8642 r=http://127.0.0.1:8643
    boot tcserver 8642 -grid 64x64 -fragments 8
    # The grid is connected, so an unreachable answer is a wrong one; a
    # replay must answer like the first pass and the leg cache must hit.
    tcload -addr $s -n 200 -parallel 8 -repeat 2 -expect-reachable -min-hit-rate 0.05
    tcload -addr $s -n 100 -parallel 8 -mode connected -engine bitset -expect-reachable
    # The planner names a concrete engine, a batch answers item by item,
    # an unknown node is a typed 404.
    curl -fsS $s/v1/query -d '{"sources":[0,1],"targets":[4095],"mode":"cost"}' | tee v1query.json |
        jq -e '.explain.engine != "auto" and .explain.engine != "" and (.answers | length) == 2 and (.answers | all(.reachable))' > /dev/null
    curl -fsS $s/v1/batch -d '{"requests":[{"sources":[0],"targets":[100],"mode":"connectivity"},{"sources":[0],"targets":[1],"engine":"nope"}]}' | tee v1batch.json |
        jq -e '.results[0].response.answers[0].reachable == true and .results[1].error.code == "unknown_engine"' > /dev/null
    test "$(curl -s -o v1err.json -w '%{http_code}' $s/v1/query -d '{"sources":[0],"targets":[999999],"mode":"cost"}')" = 404
    jq -e '.code == "unknown_node"' v1err.json > /dev/null
    # An update swaps the epoch under live queries.
    curl -fsS $s/v1/update -d '{"ops":[{"op":"insert","fragment":0,"from":0,"to":1,"weight":0.5}]}' | jq -e '.epoch == 1' > /dev/null
    tcload -addr $s -n 50 -parallel 8 -expect-reachable
    # A two-op transaction lands in one epoch; one with a bad op is
    # refused per op and applies nothing.
    curl -fsS $s/v1/update -d '{"ops":[{"op":"insert","fragment":0,"from":0,"to":2,"weight":0.25},{"op":"delete","fragment":0,"from":0,"to":2,"weight":0.25}]}' |
        jq -e '.epoch == 2 and .applied == 2' > /dev/null
    test "$(curl -s -o v1uerr.json -w '%{http_code}' $s/v1/update -d '{"ops":[{"op":"insert","fragment":0,"from":0,"to":3,"weight":1},{"op":"delete","fragment":0,"from":5,"to":6,"weight":123}]}')" = 404
    jq -e '.code == "batch_refused" and .ops[0].index == 1 and .ops[0].code == "edge_not_found"' v1uerr.json > /dev/null
    curl -fsS $s/stats | jq -e '.epoch == 2' > /dev/null
    # Every tcload run above parsed /metrics strictly; here the catalog
    # is non-trivial and the counters match the traffic just driven.
    curl -fsS $s/metrics > metrics.txt
    grep -q '^# HELP tc_query_duration_seconds ' metrics.txt
    grep -q '^# TYPE tc_query_duration_seconds histogram$' metrics.txt
    (($(grep -c '^tc_' metrics.txt) >= 10))
    (($(metric $s tc_query_duration_seconds_count) > 0))
    (($(grep -c 'engine="auto"' metrics.txt) == 0))
    (($(metric $s tc_update_ops_applied_total) >= 3))
    (($(metric $s tc_epoch_swaps_total) == 2))
    local requests
    requests=$(metric $s tc_http_requests_total)
    curl -fsS $s/v1/query -d '{"sources":[0],"targets":[100],"mode":"cost"}' > /dev/null
    (($(metric $s tc_http_requests_total) > requests))
    # A write transaction sweeps the leg cache: every entry is dropped
    # (its site was rebuilt) or kept (its site is still current).
    local swept
    swept=$(($(metric $s tc_legcache_invalidated_total) + $(metric $s tc_legcache_retained_total)))
    tcload -addr $s -n 50 -parallel 8 -repeat 2 -expect-reachable
    curl -fsS $s/v1/update -d '{"ops":[{"op":"insert","fragment":1,"from":600,"to":601,"weight":0.75},{"op":"delete","fragment":1,"from":600,"to":601,"weight":0.75}]}' > /dev/null
    (($(metric $s tc_legcache_invalidated_total) + $(metric $s tc_legcache_retained_total) > swept))
    curl -fsS $s/stats | jq -e '.metrics | has("tc_epoch") and has("tc_legcache_hits_total") and (length >= 10)' > /dev/null
    # Writes beside queries in a race-instrumented daemon: the
    # copy-on-write swap, pinned readers and the cache sweep all run
    # instrumented.
    daemon=tcserver-race
    boot tcserver-race 8643 -grid 32x32 -fragments 4
    tcload -addr $r -n 150 -parallel 8 -write-rate 0.1 -repeat 2 -expect-reachable
    curl -fsS $r/stats | jq -e '.errors == 0 and .updates > 0' > /dev/null
    (($(grep -c 'WARNING: DATA RACE' tcserver-race.log) == 0))
}

cluster() {
    local a=http://127.0.0.1:8651 all=http://127.0.0.1:8651,http://127.0.0.1:8652,http://127.0.0.1:8653
    # Every member builds the identical store from the same seed: the
    # ring shards leg work, not data, so any member coordinates any query.
    for m in a:8651 b:8652 c:8653; do
        boot ${m%:*} ${m#*:} -grid 64x64 -fragments 8 -node-id ${m%:*} -peers a=$a,b=http://127.0.0.1:8652,c=http://127.0.0.1:8653
    done
    for port in 8651 8652 8653; do
        curl -fsS http://127.0.0.1:$port/stats | jq -S .cluster > cluster-$port.json
    done
    # One membership, one placement on every member; every node owns
    # work and the eight sites are exactly covered.
    jq -e '.node_id == "a" and (.nodes | length) == 3' cluster-8651.json > /dev/null
    jq -e '.placement | to_entries | all(.value | length > 0)' cluster-8651.json > /dev/null
    jq -e '[.placement[]] | add | sort == [0, 1, 2, 3, 4, 5, 6, 7]' cluster-8651.json > /dev/null
    cmp <(jq .placement cluster-8651.json) <(jq .placement cluster-8652.json)
    cmp <(jq .placement cluster-8651.json) <(jq .placement cluster-8653.json)
    # Round-robin replay: every coordinator answers every pair alike.
    tcload -addrs $all -n 200 -parallel 8 -repeat 2 -expect-reachable
    curl -fsS http://127.0.0.1:8652/v1/query -d '{"sources":[0],"targets":[4095],"mode":"cost"}' | tee clquery.json |
        jq -e '(.answers | all(.reachable)) and (.explain.placement | length) > 0 and ([.explain.placement[].node] | unique | length) >= 2' > /dev/null
    # Legs crossed the wire, and some ran where they were owned.
    (($(metric $a tc_peer_rpc_duration_seconds_count) > 0))
    (($(metric $a tc_leg_fanout_total) > 0))
    (($(metric $a tc_legs_local_total) > 0))
    # A write through a rebuilds a fragment another node owns: it fans
    # out to both peers and every member lands on the same epoch.
    local frag
    frag=$(jq -r '.placement | to_entries | map(select(.key != "a")) | .[0].value[0]' cluster-8651.json)
    curl -fsS $a/v1/update -d "{\"ops\":[{\"op\":\"insert\",\"fragment\":$frag,\"from\":$((frag * 512)),\"to\":$((frag * 512 + 1)),\"weight\":0.25}]}" | tee clupdate.json |
        jq -e '.epoch == 1 and .applied == 1 and (.cluster | length) == 2 and (.cluster | all(.epoch == 1))' > /dev/null
    for port in 8651 8652 8653; do
        curl -fsS http://127.0.0.1:$port/stats | jq -e '.epoch == 1' > /dev/null
    done
    (($(metric $a tc_update_fanout_total) == 2))
    tcload -addrs $all -n 100 -parallel 8 -repeat 2 -expect-reachable
}

chaos() {
    local a=http://127.0.0.1:8661 brk=(-breaker-threshold 2 -breaker-open-interval 1s -leg-retries 1 -retry-backoff 10ms)
    # Rehearsal: a's transport to a healthy b is scripted dead. Every
    # query through a succeeds anyway (retries exhaust, the breaker
    # trips, b's legs fall back to a's snapshot), and a says so.
    boot fault-a 8661 -grid 32x32 -fragments 4 -node-id a -peers a=$a,b=http://127.0.0.1:8662 -fault-script 'b:down*' "${brk[@]}"
    boot fault-b 8662 -grid 32x32 -fragments 4 -node-id b -peers a=$a,b=http://127.0.0.1:8662
    tcload -addr $a -n 100 -parallel 8 -repeat 2 -expect-reachable -json chaos-scripted.json
    curl -fsS $a/readyz | tee fault-readyz.json | jq -e '.status == "degraded" and .breakers.b == "open"' > /dev/null
    curl -fsS $a/metrics > fault-metrics.txt
    (($(metric $a 'tc_cluster_leg_fallback_total{peer="b"}') > 0))
    (($(metric $a 'tc_peer_breaker_transitions_total{peer="b",to="open"}') >= 1))
    kill $(< fault-a.pid) $(< fault-b.pid)
    # The real kill, three times (one lucky pass proves nothing): a
    # fresh 3-node cluster, c SIGKILLed, a read-only replay through the
    # survivors with zero client errors. Read-only because these nodes
    # run without -store: a restarted c is back at epoch 0 (durable
    # recovery is the coldstart scenario). A rep passes only once c is
    # back and a's breaker for it has re-closed.
    a=http://127.0.0.1:8671
    local all=$a,http://127.0.0.1:8672,http://127.0.0.1:8673
    local node=(-grid 64x64 -fragments 8 -peers a=$a,b=http://127.0.0.1:8672,c=http://127.0.0.1:8673 -rpc-timeout 2s "${brk[@]}")
    for rep in 1 2 3; do
        for m in a:8671 b:8672 c:8673; do
            boot chaos-${m%:*} ${m#*:} -node-id ${m%:*} "${node[@]}"
        done
        tcload -addrs $all -n 60 -parallel 8 -expect-reachable
        curl -fsS $a/readyz | jq -e '.status == "ok"' > /dev/null
        kill -9 $(< chaos-c.pid)
        # -retry-transient rides through a 502 before the breaker trips.
        tcload -addrs $a,http://127.0.0.1:8672 -n 150 -parallel 8 -repeat 2 -expect-reachable -retry-transient 3 -json chaos-rep$rep.json
        curl -fsS $a/readyz | tee chaos-readyz-$rep.json | jq -e '.status == "degraded" and .breakers.c == "open"' > /dev/null
        curl -fsS $a/metrics > chaos-metrics-$rep.txt
        (($(metric $a 'tc_cluster_leg_fallback_total{peer="c"}') > 0))
        (($(metric $a 'tc_peer_breaker_transitions_total{peer="c",to="open"}') >= 1))
        local calls closed=0
        calls=$(metric $a 'tc_peer_rpc_success_total{peer="c"}')
        boot chaos-c 8673 -node-id c "${node[@]}"
        for _ in $(seq 40); do
            sleep 0.5
            tcload -addr $a -n 30 -parallel 4 -expect-reachable > /dev/null
            if (($(metric $a 'tc_peer_breaker_state{peer="c"}') == 0 && $(metric $a 'tc_peer_rpc_success_total{peer="c"}') > calls)); then
                closed=1
                break
            fi
        done
        test $closed = 1
        curl -fsS $a/readyz | jq -e '.status == "ok"' > /dev/null
        tcload -addrs $all -n 100 -parallel 8 -repeat 2 -expect-reachable
        kill $(< chaos-a.pid) $(< chaos-b.pid) $(< chaos-c.pid)
        wait
    done
}

coldstart() {
    local text=http://127.0.0.1:8681 tcs=http://127.0.0.1:8682 ref=http://127.0.0.1:8683 dur=http://127.0.0.1:8684
    # One seeded road network as text and as a TCSF snapshot: a server
    # that parses and builds and one that loads the image must serve the
    # same dataset and answer a replayed load alike.
    tcgen -type road -clusters 4 -nodes 256 -seed 7 -o road.txt -frag-o road.frag
    tcgen -type road -clusters 4 -nodes 256 -seed 7 -o road.tcs
    boot text 8681 -graph road.txt -frag road.frag
    boot tcs 8682 -tcs road.tcs
    grep -q 'loaded snapshot road.tcs' tcs.log
    cmp <(curl -fsS $text/stats | jq '{epoch, sites, nodes}') <(curl -fsS $tcs/stats | jq '{epoch, sites, nodes}')
    tcload -addrs $text,$tcs -n 200 -parallel 8 -repeat 2 -expect-reachable
    kill $(< text.pid) $(< tcs.pid)
    # A durable server and an in-memory reference take the same three
    # batches; the durable one is SIGKILLed (no shutdown checkpoint:
    # the journal is all it has) and restarted from its directory
    # alone. It must recover the exact epoch and answer like the
    # reference that never died.
    boot ref 8683 -grid 32x32 -fragments 4
    boot dur 8684 -grid 32x32 -fragments 4 -store coldstore
    grep -q 'store directory coldstore initialised at epoch 0' dur.log
    for i in 1 2 3; do
        local body="{\"ops\":[{\"op\":\"insert\",\"fragment\":0,\"from\":$i,\"to\":$((i + 10)),\"weight\":0.25}]}"
        curl -fsS $ref/v1/update -d "$body" | jq -e ".epoch == $i" > /dev/null
        curl -fsS $dur/v1/update -d "$body" | jq -e ".epoch == $i" > /dev/null
    done
    kill -9 $(< dur.pid)
    wait $(< dur.pid) || true
    boot rec 8684 -store coldstore
    grep 'recovered coldstore' rec.log
    grep -q '3 journal records -> epoch 3' rec.log
    curl -fsS $dur/stats | jq -e '.epoch == 3' > /dev/null
    tcload -addrs $ref,$dur -n 200 -parallel 8 -repeat 2 -expect-reachable
    # SIGTERM checkpoints the live generation: the next boot replays
    # nothing.
    kill -TERM $(< rec.pid)
    wait $(< rec.pid)
    boot rec2 8684 -store coldstore
    grep -q 'checkpoint epoch 3 + 0 journal records -> epoch 3' rec2.log
}

slo() {
    boot tcserver 8642 -grid 64x64 -fragments 8
    # 30 s of 15%-write load held to the committed budgets; the report
    # (client percentiles, verdict, a full /metrics scrape) is the
    # commit's perf record.
    tcload -addr http://127.0.0.1:8642 -n 200 -parallel 8 -write-rate 0.15 -duration 30s -expect-reachable \
        -slo-file "$root/SLO.json" -json slo-report.json
}

rm -rf smoke-out
mkdir smoke-out
case $scenario in
server) go build -race -o bin/tcserver-race ./cmd/tcserver ;;
coldstart) go build -o bin/ ./cmd/tcgen ;;
esac
go build -o bin/ ./cmd/tcserver ./cmd/tcload
cd smoke-out
"$scenario"
