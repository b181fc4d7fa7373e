# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Where `make bench` records the frontend benchmark numbers. The checked-in
# frontend baseline is BENCH_PR4.json (the arena-backed storage); record
# the working tree into BENCH_CURRENT.json and diff against it:
#
#	make bench                                        # writes BENCH_CURRENT.json
#	make bench-compare OLD=BENCH_PR4.json NEW=BENCH_CURRENT.json
#	make bench-gate                                   # record + gate vs BENCH_PR4.json
#
BENCH_OUT ?= BENCH_CURRENT.json

# The throughput floor `make bench-gate` enforces against the checked-in
# baseline. Wider than the default 10% because CI runners (and this
# benchmark's 5-iteration budget) are noisy; the gate is for cliffs, not
# jitter.
MAXSLOW ?= 35

.PHONY: all check build test vet lint lint-flow lint-sarif race bench bench-smoke bench-compare bench-gate bench-sweep bench-fidelity bench-profile experiments calibrate fuzz serve e2e clean

all: check

# The verification gate: build, vet, the project linters, the full suite
# under the race detector, a one-iteration pass over every benchmark (so a
# broken bench cannot rot unnoticed), and short fuzz passes over the .xtr
# parser, the snapshot codec, every session's snapshot restore and the
# store's recovery. The session seeds are real snapshots of 0.15-1.6 MB:
# minimizing one such input would eat the whole pass, so it is capped.
check: build vet lint race bench-smoke
	$(GO) test ./internal/trace -fuzz FuzzRead -fuzztime 10s
	$(GO) test ./internal/snapshot -fuzz FuzzReader -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz FuzzSessionLoadState -fuzztime 10s -fuzzminimizetime 5x
	$(GO) test ./internal/store -fuzz FuzzScanRecords -fuzztime 10s
	$(GO) test ./internal/store -fuzz FuzzOpen -fuzztime 10s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/xbclint): determinism, hot-loop
# allocation discipline, enum exhaustiveness, dropped errors, float
# comparisons, and the flow-sensitive concurrency suite (lockorder,
# ctxflow, goroleak, atomicmix). `go run ./cmd/xbclint -list` describes
# the analyzers; suppress a finding with `//xbc:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/xbclint ./...

# Just the flow-sensitive concurrency analyzers, for focused runs while
# working on locking or goroutine code.
lint-flow:
	$(GO) run ./cmd/xbclint -run lockorder,ctxflow,goroleak,atomicmix ./...

# Machine-readable findings (suppressed ones included) for code-scanning
# upload; never fails the build by itself — `lint` is the gate.
lint-sarif:
	$(GO) run ./cmd/xbclint -sarif ./... > xbclint.sarif || true

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Frontend throughput + allocation benchmarks, recorded as JSON for
# regression tracking (uops/s and allocs/op per frontend).
bench:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkFrontend' -benchtime 5x -o $(BENCH_OUT)

# One iteration of every benchmark: a compile-and-run smoke, not a timing.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Diff two `make bench` recordings; fails on >10% allocs/op growth or
# >10% uops/s slowdown.
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# The speed floor: record the working tree and gate it against the
# checked-in PR 4 baseline — any frontend losing more than MAXSLOW% of
# its recorded uops/s (or growing allocs/op past 10%) fails the build.
bench-gate: bench
	$(GO) run ./cmd/benchjson -compare -maxslow $(MAXSLOW) BENCH_PR4.json $(BENCH_OUT)

# Sweep-planner reuse benchmark: a 90%-duplicate 100-cell grid through
# the naive path vs planner.Run, recording wall time and the custom
# simcells/op metric (simulations actually executed per sweep). Gated
# against the checked-in PR 7 baseline — simulated cells must never grow.
bench-sweep:
	$(GO) run ./cmd/benchjson -pkg ./internal/planner -bench 'BenchmarkSweep' -benchtime 3x -o BENCH_SWEEP_CURRENT.json
	$(GO) run ./cmd/benchjson -compare -maxslow $(MAXSLOW) BENCH_PR7.json BENCH_SWEEP_CURRENT.json

# Fidelity-ladder benchmark: one cell (gcc, 1M uops) at full, sampled,
# and estimate fidelity, recording effective uops/s and the deterministic
# simuops/op metric (uops simulated in detail). Gated against the
# checked-in PR 9 baseline: the sampled rung must stay at or under 10% of
# the full run's uops (asserted inside the benchmark itself) and must
# never simulate more uops than the recorded baseline. Each benchmark runs
# for half a second, five times over (benchjson records medians): a
# millisecond-scale rung timed over three iterations swung by 1.7x
# between back-to-back runs.
bench-fidelity:
	$(GO) run ./cmd/benchjson -pkg ./internal/service/jobspec -bench 'BenchmarkFidelity' -benchtime 0.5s -o BENCH_FIDELITY_CURRENT.json
	$(GO) run ./cmd/benchjson -compare -maxslow $(MAXSLOW) BENCH_PR9.json BENCH_FIDELITY_CURRENT.json

# Two-command profiling flow (see README): record a CPU profile of the
# XBC frontend benchmark, then open the interactive pprof viewer on it.
bench-profile:
	$(GO) test -run '^$$' -bench 'BenchmarkFrontendXBC$$' -benchtime 150x -cpuprofile cpu.prof -o xbc-bench.test .
	@echo "profile written: inspect with '$(GO) tool pprof xbc-bench.test cpu.prof'"

# Full reproduction of the paper's figures and the extension studies.
experiments:
	$(GO) run ./cmd/experiments -fig all -extra all -uops 2000000 -plot

calibrate:
	$(GO) run ./cmd/calibrate

fuzz:
	$(GO) test ./internal/trace -fuzz FuzzRead -fuzztime 30s
	$(GO) test ./internal/snapshot -fuzz FuzzReader -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzSessionLoadState -fuzztime 30s -fuzzminimizetime 5x
	$(GO) test ./internal/store -fuzz FuzzScanRecords -fuzztime 30s
	$(GO) test ./internal/store -fuzz FuzzReadExport -fuzztime 30s
	$(GO) test ./internal/store -fuzz FuzzOpen -fuzztime 30s
	$(GO) test ./internal/store -fuzz FuzzPutGet -fuzztime 30s

# The simulation daemon on :8321 (see the README's Serving section and
# docs/ARCHITECTURE.md). SIGTERM/Ctrl-C drains gracefully.
serve:
	$(GO) run ./cmd/xbcd

# End-to-end smoke of the serving stack: random port, xbcctl selfcheck
# (served metrics bit-identical to a direct run, resubmission cached),
# concurrent loadgen, Prometheus counter checks, clean SIGTERM drain.
e2e:
	sh ./scripts/e2e.sh

clean:
	$(GO) clean ./...
