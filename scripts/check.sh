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
unformatted=$(gofmt -l cmd internal)
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
# checkout), so the root build skips it. Vet it here: a change to an exported
# flow or stage helper its traced suite calls must fail CI, not the benchmark.
(cd tmi3dbench && go vet ./...)

stage tmi3dvet
# The repo's own analyzers: map-iteration order, lock ordering (RWMutex-mode
# aware), seed purity, cache-key coverage, per-stage key soundness
# (stagedeps), global-state purity (globalmut), parallel-loop safety over the
# flow.ParLoops anchors (parsafe), goroutine discipline (godisc), wire-format
# totality over the flow.WireTypes manifest (wiresafe), and cancellation/
# resource discipline in the serving stack (ctxdisc). A single unsuppressed
# diagnostic fails the gate; the -counts tail prints one line per analyzer so
# the log shows every check ran. Run `go run ./cmd/tmi3dvet -list` for the
# suite and the suppression syntax.
go run ./cmd/tmi3dvet -counts ./...

stage race
go test -race ./...

stage parallel-determinism
# The experiment engine's contract: the report is byte-identical at any -j.
# Run a real (small) experiment serially and at -j 4 and diff the outputs.
pdir=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$pdir"
}
trap cleanup EXIT
go run ./cmd/experiments -scale 0.1 -only table16 -j 1 -out "$pdir/j1.txt" >/dev/null
go run ./cmd/experiments -scale 0.1 -only table16 -j 4 -out "$pdir/j4.txt" >/dev/null
if ! diff -u "$pdir/j1.txt" "$pdir/j4.txt"; then
    echo "experiments output differs between -j 1 and -j 4" >&2
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
# The staged flow engine's contract: byte-identical to the monolithic flow at
# any cache state. Run a 3-point clock sweep monolithically, then staged with
# a cold artifact store, then staged again fully warm (the second pass
# executes no stage bodies at all), and diff report + Verilog + DEF per point.
go build -o "$pdir/tmi3d" ./cmd/tmi3d
for clk in 0 2000 2400; do
    "$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock "$clk" -byfunc \
        -dump "$pdir/mono$clk" >"$pdir/mono$clk.txt" 2>/dev/null
done
for pass in cold warm; do
    for clk in 0 2000 2400; do
        "$pdir/tmi3d" -circuit FPU -scale 0.1 -mode tmi -clock "$clk" -byfunc \
            -stagecache "$pdir/stagecache" \
            -dump "$pdir/$pass$clk" >"$pdir/$pass$clk.txt" 2>/dev/null
        for f in txt v def; do
            if ! diff -u "$pdir/mono$clk.$f" "$pdir/$pass$clk.$f"; then
                echo "staged ($pass, clock $clk) .$f output differs from monolithic" >&2
                exit 1
            fi
        done
    done
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
