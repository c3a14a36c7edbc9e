GO ?= go
COVER_FLOOR ?= 70

.PHONY: all build vet test race bench bench-smoke bench-json bench-compare perfbench-smoke pgo fuzz ci cover serve loadtest churn-replay slo-replay

all: ci

build:
	$(GO) build ./...

# vet also fails when gofmt would reformat any Go file in the tree.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark in the repository, including the internal
# package benchmarks (pattern, placer, pipeline, milp, numeric).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# bench-smoke runs every benchmark exactly once so CI notices when a
# benchmark rots (fails to compile or crashes) without paying for real
# measurements.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# perfbench-smoke runs the repository benchmark's own tests (perfbench
# is a separate module, so ./... above does not reach it): a tiny run of
# every workload must emit every declared metric, and its traced replay,
# which solves with a zero oracle Kind, must answer exactly as the
# server does (core.answer_mismatches == 0).
perfbench-smoke:
	cd perfbench && $(GO) test .

# bench-json snapshots the EPTAS hot-path benchmarks to BENCH_<date>.json,
# extending the performance trajectory. See cmd/benchjson.
bench-json:
	$(GO) run ./cmd/benchjson

# bench-compare runs the tracked hot-path benchmarks fresh and diffs them
# against the latest committed BENCH_*.json snapshot, failing on a >25%
# ns/op regression. CI runs it as a non-blocking report step (benchmark
# noise on shared runners must not fail the build).
bench-compare:
	$(GO) run ./cmd/benchjson -compare -benchtime 3x

# pgo regenerates the committed profile-guided-optimization profile,
# default.pgo, from a CPU profile of the hot-path benchmark suite (the
# same families benchjson snapshots). cmd/benchjson builds with the
# committed profile whenever it is present — go's -pgo=auto only applies
# default.pgo to main packages, so the tool passes the flag explicitly —
# which keeps snapshots, bench-compare in CI and production builds
# measuring the same optimized binary. Rerun after large hot-path
# refactors; the profile is data, not code, so a stale one degrades
# gracefully to smaller wins.
pgo:
	$(GO) test -run '^$$' -bench 'Benchmark(Ex[A-Z]|Oracle|SolveLarge|Family|Codec|Resolve|Planner)' \
		-cpuprofile pgo.cpu.out .
	mv pgo.cpu.out default.pgo
	rm -f repro.test bagsched.test

# fuzz runs each native fuzz target for a short burst (go test -fuzz
# takes one target per run): the solver's numeric boundary, the
# canonical-instance decoder against its encoding/json reference,
# deltas through ReadDelta and Apply, the /v1/solve request fast path
# against its encoding/json reference, /v1/solve, /v1/batch and
# /v1/resolve bodies through decode and the resolved spec, memo
# snapshot import, memo result payload decode, the simplex's bound
# rows against the row-slice reference, and planner cost-model
# snapshot import. FUZZTIME sets the burst per target (CI passes 10s).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSolveEPTAS -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzInstanceJSON -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzDelta$$' -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSolveRequest$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzSolveRequest -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzResolveRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzImport -fuzztime $(FUZZTIME) ./internal/memo
	$(GO) test -run '^$$' -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzSolveBounds -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzPlanImport$$' -fuzztime $(FUZZTIME) ./internal/plan

# cover is the CI coverage leg: the race-mode test run with an atomic
# coverage profile, failing when total statement coverage drops below
# COVER_FLOOR percent. The profile lands in coverage.out (uploaded as a
# CI artifact).
cover:
	$(GO) test -race -covermode=atomic -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < floor) { \
			printf "coverage %.1f%% is below the %d%% floor\n", $$3, floor; exit 1 } }'

# serve runs the long-running solve service on :8080; pair with
# `make loadtest` in another terminal. See the README's Serving section.
serve:
	$(GO) run ./cmd/bagsched serve -addr :8080

# loadtest replays the testdata corpus against a running `make serve`
# and reports the cold-vs-warm p50 from GET /v1/stats, failing unless
# the warm pass is at least 2x faster.
loadtest:
	$(GO) run ./examples/service -addr http://127.0.0.1:8080 -dir testdata

# churn-replay replays the committed churn traces against a running
# `make serve` through POST /v1/resolve, checks every incremental answer
# bit for bit against a cache-bypassed from-scratch solve, and fails
# unless incremental p50 beats from-scratch p50 by at least 5x on the
# low-churn trace. See the README's Incremental re-solve section.
churn-replay:
	$(GO) run ./examples/service -addr http://127.0.0.1:8080 -churn testdata

# slo-replay runs the SLO replay demo fully in process (it spins up its
# own server, unlike loadtest/churn-replay which need `make serve`):
# calibrate the latency cost model on the corpus, replay a Zipf trace of
# tight/medium/loose deadlines adaptively and at fixed eps, and fail
# unless the adaptive pass hits >= 95% of deadlines and beats the
# baseline. See the README's Adaptive solving section.
slo-replay:
	$(GO) run ./examples/service -slo -dir testdata -eps 0.25 -requests 120 -max-jobs 64

# ci is what .github/workflows/ci.yml runs (plus a non-blocking
# bench-compare step); the coverage matrix leg swaps race for cover.
ci: vet build race bench-smoke perfbench-smoke
