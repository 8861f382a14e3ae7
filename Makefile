# Convenience targets; scripts/check.sh is the canonical CI gate.
.PHONY: check test build fmt lint vet-custom equiv serve loadgen bench-serve bench-vet bench-parallel bench-stage

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w cmd internal

# Design-integrity lint over every benchmark, both libraries, and both
# layout sets (see internal/lint).
lint:
	@go run ./cmd/tmi3d lint -all

# The repo's own static analyzers (ctxdisc, globalmut, godisc, keycoverage,
# lockorder, maporder, parsafe, seedpurity, stagedeps, wiresafe) over every
# package with per-analyzer diagnostic counts (see internal/vet and
# cmd/tmi3dvet).
vet-custom:
	go run ./cmd/tmi3dvet -counts ./...

# Formal equivalence sign-off: LEC over every benchmark plus the
# switch-level check of the folded T-MI library (see internal/equiv).
equiv:
	@go run ./cmd/tmi3d equiv -all

# PPA-as-a-service daemon on :8080; every flow runs through the staged
# engine over the local store, which holds per-stage artifacts (the report
# artifact is the /v1/ppa payload) and experiment renders (see internal/serve
# and the serving-layer section of DESIGN.md).
serve:
	go run ./cmd/tmi3d serve -addr 127.0.0.1:8080 -store tmi3d-store

# Drive a running daemon: 64 workers, hot/cold mix, byte-identity check.
loadgen:
	go run ./cmd/loadgen -addr 127.0.0.1:8080 -workers 64 -n 256 \
		-scale 0.1 -cold 0.05 -verify -check

bench-serve:
	go test ./internal/serve -run '^$$' -bench BenchmarkServe -benchmem

bench-vet:
	go test ./internal/vet -run '^$$' -bench BenchmarkVet

# The parallel-driver benches: serial baseline, flow-pool fan-out (PR 3),
# and the intra-flow stage-loop fleet (ROADMAP item 3). Compare ns/op;
# BENCH_parallel.json holds the committed baseline.
bench-parallel:
	go test . -run '^$$' -bench 'BenchmarkStudy(Serial|Parallel|IntraFlow)' -benchtime 1x

# The staged flow engine's reuse on a clock sweep: monolithic vs cold vs
# warm staged runs, measured in stage-body executions per sweep point.
# BENCH_stage.json holds the committed baseline.
bench-stage:
	go test ./internal/stage -run '^$$' -bench BenchmarkStagedSweep -benchtime 1x
