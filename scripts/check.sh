#!/usr/bin/env bash
# Static-analysis and test gate for the repository. CI and pre-commit both run
# this; it must exit non-zero on any failure.
#
# The gates run fail-fast in cost order: formatting and stock static analysis
# first, then the custom tmi3dvet determinism/concurrency analyzers, then the
# race-detector test suite, then the end-to-end smokes (parallel determinism,
# formal equivalence, serving). Each gate opens with a named banner so a CI
# log identifies the failing stage at a glance.
set -euo pipefail
cd "$(dirname "$0")/.."

stage() {
    echo
    echo "==================================================================="
    echo "== stage: $1"
    echo "==================================================================="
}

stage gofmt
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

stage govet
go vet ./...

stage build
go build ./...

stage bench-build
# tmi3dbench is a nested module (its own go.mod, replacing tmi3d with this
# checkout), so the root build skips it. Vet and test it here: a change to an
# exported flow or stage helper its traced suite calls, a seed or key drift
# that moves its payload digests, or a serve change that breaks a workload
# smoke must fail CI, not the benchmark.
(cd tmi3dbench && go vet ./... && go test ./...)

stage tmi3dvet
# The repo's own analyzers: map-iteration order, lock ordering (RWMutex-mode
# aware), seed purity, per-stage key soundness (stagedeps, which also covers
# Config.Key, the report stage's artifact ID), global-state purity
# (globalmut), parallel-loop safety over the flow.ParLoops anchors (parsafe),
# goroutine discipline (godisc), wire-format totality over the flow.WireTypes
# manifest (wiresafe), and cancellation/resource discipline in the serving
# stack (ctxdisc). A single unsuppressed
# diagnostic fails the gate; the -counts tail prints one line per analyzer so
# the log shows every check ran. Run `go run ./cmd/tmi3dvet -list` for the
# suite and the suppression syntax.
go run ./cmd/tmi3dvet -counts ./...

stage race
go test -race ./...

stage parallel-determinism
# The experiment engine's contract: the report is byte-identical at any -j,
# and so is the work behind it. Run real (small) experiments serially and at
# -j 4 — Table 4, Table 13 (which re-reads Table 4's flows through the
# study's engine) and Table 16 — and diff the outputs and the logged count of
# flows executed.
pdir=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$pdir"
}
trap cleanup EXIT
go build -o "$pdir/experiments" ./cmd/experiments
for j in 1 4; do
    "$pdir/experiments" -scale 0.1 -only table4,table13,table16 -j "$j" \
        -out "$pdir/j$j.txt" >/dev/null 2>"$pdir/j$j.log"
done
if ! diff -u "$pdir/j1.txt" "$pdir/j4.txt"; then
    echo "experiments output differs between -j 1 and -j 4" >&2
    exit 1
fi
flows1=$(grep -o '[0-9]* flows executed)' "$pdir/j1.log")
flows4=$(grep -o '[0-9]* flows executed)' "$pdir/j4.log")
if [ "$flows1" != "$flows4" ]; then
    echo "experiments executed ($flows1 at -j 1 but ($flows4 at -j 4" >&2
    exit 1
fi

stage intraflow-determinism
# The intra-flow parallelism contract (ROADMAP item 3): the worker budget of
# the stage loops (flow.Config.Workers) must never reach one byte of the
# report or the Verilog/DEF artifacts. Run one flow with serial loops and
# with an 8-worker fleet and diff everything.
go run ./cmd/tmi3d -circuit FPU -scale 0.1 -mode tmi -byfunc -workers 1 \
    -dump "$pdir/w1" >"$pdir/w1.txt" 2>/dev/null
go run ./cmd/tmi3d -circuit FPU -scale 0.1 -mode tmi -byfunc -workers 8 \
    -dump "$pdir/w8" >"$pdir/w8.txt" 2>/dev/null
for f in txt v def; do
    if ! diff -u "$pdir/w1.$f" "$pdir/w8.$f"; then
        echo "flow .$f output differs between -workers 1 and -workers 8" >&2
        exit 1
    fi
done
# And the parallel stage loops must be race-clean at more than one
# GOMAXPROCS shape — the scheduler interleavings differ.
for procs in 2 8; do
    GOMAXPROCS=$procs go test -race -count=1 \
        -run 'WorkersMatchSerial|ParallelStampMatchesSerial|IntraFlowWorkersByteIdentity' \
        ./internal/place ./internal/sta ./internal/route ./internal/spice \
        ./internal/opt ./internal/flow
done

stage staged-identity
# The staged flow engine's contract: one DAG walk, and cache state never
# changes bytes. Run a 3-point clock sweep with no artifact cache, then
# through the cache with a cold store, fully warm (no stage bodies run at
# all), and partially warm (every report and power entry deleted from the
# warm store), then two cached processes at once on a fresh store; diff
# report + Verilog + DEF per point against the no-cache run.
go build -o "$pdir/tmi3d" ./cmd/tmi3d
staged() { # <clock> <store> <output prefix>
    "$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock "$1" -byfunc \
        -stagecache "$2" -dump "$3" >"$3.txt" 2>/dev/null
}
same_as_nocache() { # <clock> <output prefix> <label>
    for f in txt v def; do
        if ! diff -u "$pdir/nocache$1.$f" "$2.$f"; then
            echo "staged ($3, clock $1) .$f output differs from the no-cache run" >&2
            exit 1
        fi
    done
}
for clk in 0 2000 2400; do
    "$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock "$clk" -byfunc \
        -dump "$pdir/nocache$clk" >"$pdir/nocache$clk.txt" 2>/dev/null
done
for pass in cold warm partial; do
    if [ "$pass" = partial ]; then
        removed=0
        for f in "$pdir"/stagecache/*/*.entry; do
            if head -n 1 "$f" | grep -qE '"key":"stage\|(report|power)\|'; then
                rm "$f"
                removed=$((removed + 1))
            fi
        done
        if [ "$removed" -ne 6 ]; then
            echo "partial pass removed $removed report/power entries, want 6" >&2
            exit 1
        fi
    fi
    for clk in 0 2000 2400; do
        staged "$clk" "$pdir/stagecache" "$pdir/$pass$clk"
        same_as_nocache "$clk" "$pdir/$pass$clk" "$pass"
    done
done
staged 2000 "$pdir/sharedcache" "$pdir/shared2000" &
shared_pid=$!
staged 2400 "$pdir/sharedcache" "$pdir/shared2400"
wait "$shared_pid"
for clk in 2000 2400; do
    same_as_nocache "$clk" "$pdir/shared$clk" "concurrent"
done

stage wire-identity
# The runtime counterpart of the wiresafe proof: run one real flow through
# the staged engine, then replay every cached artifact's stored bytes
# through decode -> re-encode and diff (plus the library codec and a castore
# Put/Get round trip). Any divergence exits non-zero.
go run ./cmd/tmi3d wireid -circuit FPU -scale 0.1

stage equiv-smoke
# Formal sign-off must prove the smallest benchmark's mapped netlist and pass
# the switch-level library check — and must catch an injected logic defect.
go run ./cmd/tmi3d equiv -circuit FPU -scale 0.1 -lib -format text
if go run ./cmd/tmi3d equiv -circuit FPU -scale 0.1 -corrupt swapgate >/dev/null; then
    echo "equiv failed to detect injected swapgate corruption" >&2
    exit 1
fi

stage serve-smoke
# The serving layer's contract: a daemon answer is byte-identical to a direct
# flow.Run. Boot on an ephemeral port with only a store (every job runs
# through the stage engine over it), probe /healthz, fetch one flow result
# twice (cold then cached), and diff against the direct encoding via
# loadgen. Then a sequential clock sweep must show — via the stage metrics —
# that synthesis and placement executed exactly once, with staging on by
# default.
go build -o "$pdir/tmi3d" ./cmd/tmi3d
go build -o "$pdir/loadgen" ./cmd/loadgen
"$pdir/tmi3d" serve -addr 127.0.0.1:0 -store "$pdir/store" \
    -addrfile "$pdir/addr" 2>"$pdir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$pdir/addr" ] && break; sleep 0.1; done
if [ ! -s "$pdir/addr" ]; then
    echo "tmi3d serve never wrote its address:" >&2
    cat "$pdir/serve.log" >&2
    exit 1
fi
addr=$(tr -d '\n' <"$pdir/addr")
if command -v curl >/dev/null; then
    curl -sf "http://$addr/healthz" >/dev/null
fi
"$pdir/loadgen" -addr "$addr" -workers 8 -n 16 -circuit FPU -scale 0.1 \
    -verify -check
"$pdir/loadgen" -addr "$addr" -sweep 3 -circuit FPU -mode 2d -scale 0.1
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo
echo "check.sh: all clean"
