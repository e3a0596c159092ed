# Development targets for the adatm reproduction.

GO ?= go

.PHONY: all build vet test test-race bench bench-smoke bench-kernels bench-mttkrp obs-smoke ckpt-smoke dist-smoke ci loc fuzz experiments experiments-quick examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bitrotted benchmark code in CI
# without paying for real measurements. (This sweep includes the
# scatter-vs-privatize MTTKRP benchmarks behind bench-mttkrp.)
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# End-to-end check of the observability wiring: run cpd with the live debug
# server, scrape /metrics + /healthz + /run, and validate the trace export.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end crash/resume check: SIGKILL a checkpointed cpd run mid-flight,
# resume it, and require the uninterrupted fit plus adatm_ckpt_* metrics.
ckpt-smoke:
	./scripts/ckpt_smoke.sh

# End-to-end distributed-solver check: a 2-process sharded run over the TCP
# loopback transport with the adatm_dist_* scrape and the ledger's
# dist.partition decision. See DESIGN.md §2j.
dist-smoke:
	./scripts/dist_smoke.sh

# Machine-readable microbenchmarks of the shared kernel layer. Written via
# temp file + rename so an interrupted run never truncates the committed file.
bench-kernels:
	$(GO) test -bench=Kernel -benchmem -json -run='^$$' ./internal/kernel/ > BENCH_kernels.json.tmp && mv BENCH_kernels.json.tmp BENCH_kernels.json

# Machine-readable MTTKRP accumulation benchmarks: scatter vs privatize vs
# auto, side by side, on a short-mode (contended) and a long-mode (sparse
# output) tensor. See DESIGN.md §2f for the expected crossover.
bench-mttkrp:
	$(GO) test -bench=MTTKRPAccum -benchmem -json -run='^$$' ./internal/engine/ > BENCH_6.json.tmp && mv BENCH_6.json.tmp BENCH_6.json

ci:
	./scripts/ci.sh

# Non-test Go lines of the tracked files, outside the e2ebench module: the
# size figure every change reports.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^e2ebench/' | xargs cat | wc -l

fuzz:
	$(GO) test -fuzz FuzzReadTNS -fuzztime 30s ./internal/tensor/

experiments:
	$(GO) run ./cmd/adabench

experiments-quick:
	$(GO) run ./cmd/adabench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/modelpick
	$(GO) run ./examples/recommender
	$(GO) run ./examples/healthcare
	$(GO) run ./examples/completion
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
