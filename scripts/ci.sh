#!/bin/sh
# CI entry point: the gate every change must pass. Kept to the tier-1
# targets so a full run stays fast enough for pre-merge use.
set -eux

cd "$(dirname "$0")/.."

make build
make vet
test -z "$(gofmt -l .)"

# The benchmark is its own Go module (e2ebench/go.mod replaces adatm with
# this checkout), so the root build never compiles it: vet it against the
# current API.
(cd e2ebench && go vet ./...)
make test
make test-race

# The CLI flag paths run under the race detector explicitly (they spawn the
# full decomposition pipeline), and every benchmark body executes once so
# bench code cannot bitrot silently.
go vet ./cmd/...
go test -race ./cmd/...

# The scatter-vs-privatize agreement suite runs again under the race detector
# at a forced multi-worker width: the privatized pool's epoch stamping and the
# tiled parallel reduction are the shared-state hot spots of the accum layer,
# and the high-contention short-mode tensor maximizes the interleavings.
GOMAXPROCS=4 go test -race -count=1 -run 'TestConformanceAccum' ./internal/engine/

# The estimator oracles run under the race detector at a forced multi-worker
# width, so the per-worker sketches, their merge and the shared bitmap's
# compare-and-swap counting are exercised concurrently even on a 2-CPU host.
GOMAXPROCS=4 go test -race -count=1 -run 'TestEstimator' ./internal/model/

# The swamp fixture drives the numerical-health probe with every sink wired
# (metrics, ledger, iteration stream) through a real CP-ALS run; the race run
# covers the probe's locking against the solver loop and the /iters readers.
go test -race -count=1 -run 'TestSwamp|TestServerIters' ./internal/health/ ./internal/obs/

# The distributed conformance suite (both transports, P in {2,4,7}, coo/csf/
# memo shard engines vs the single-node solver at 1e-12) and the transport
# fault-injection regressions run under the race detector: the SPMD workers,
# the TCP retransmit timers, and the shared metrics registry are all
# concurrent by construction.
go test -race -count=1 -run 'TestDistRun|TestDistFault|TestDistributedALS|TestTransport' ./internal/dist/

# Every example runs end to end: all but one drive the adaptive memo engine
# or the memory model, which no other step exercises through the public API.
make examples

make bench-smoke
make obs-smoke
make ckpt-smoke
make dist-smoke

# Each workload of the repo benchmark (BENCHMARK.json, e2ebench/README.md)
# runs for one second. e2ebench exits 0 even when a run's answer is wrong, so
# the gate is the "correct" field of its last (JSON) line.
for w in tns-to-model als-order5 dist-p2; do
    last=$(bash e2ebench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    case "$last" in
    *'"correct":true'*) ;;
    *) echo "ci: e2ebench $w incorrect: $last"; exit 1 ;;
    esac
done
