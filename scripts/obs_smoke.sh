#!/bin/sh
# Observability smoke test: boot cpd with the live debug server, scrape it
# while the server is held open after the run, and check the exposition
# carries the memo-engine counters. Exercises the full -listen/-hold/
# -tracefile wiring end to end on a tiny synthetic tensor.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/tensorgen" ./cmd/tensorgen
go build -o "$tmp/cpd" ./cmd/cpd

"$tmp/tensorgen" -dims 40x30x20x10 -nnz 4000 -skew 0.5,0.5,0.5,0.2 -seed 7 -out "$tmp/smoke.tns"

"$tmp/cpd" -in "$tmp/smoke.tns" -rank 4 -iters 3 -engine adaptive \
    -listen 127.0.0.1:0 -hold -tracefile "$tmp/trace.json" \
    -audit -auditfile "$tmp/audit.jsonl" \
    -health -healthfile "$tmp/health.jsonl" \
    >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!

# The resolved address is announced on stderr once the listener is up.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*debug server listening on http://##p' "$tmp/stderr" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "obs-smoke: cpd exited early"; cat "$tmp/stderr"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "obs-smoke: debug server never announced its address"; cat "$tmp/stderr"; exit 1; }

# Wait for the run to finish (-hold keeps the server up afterwards) so the
# scrape sees final counter values rather than a race with the run.
for _ in $(seq 1 300); do
    grep -q "holding debug server" "$tmp/stderr" && break
    kill -0 "$pid" 2>/dev/null || { echo "obs-smoke: cpd exited before holding"; cat "$tmp/stderr"; exit 1; }
    sleep 0.1
done

curl -fsS "http://$addr/healthz" | grep -q ok || { echo "obs-smoke: /healthz failed"; exit 1; }
curl -fsS "http://$addr/metrics" >"$tmp/metrics"
for series in adatm_memo_hits_total adatm_memo_misses_total \
    adatm_cpd_phase_seconds_bucket adatm_cpd_iterations_total \
    adatm_par_chunk_imbalance_ratio adatm_go_goroutines \
    adatm_build_info adatm_model_predicted_ops adatm_model_measured_ops \
    adatm_model_ops_relative_error adatm_model_top1_agreement \
    adatm_accum_strategy adatm_accum_reduce_seconds adatm_accum_pool_bytes \
    adatm_gc_pause_seconds_bucket adatm_gc_pause_seconds_count \
    adatm_health_state adatm_health_lambda_ratio adatm_health_max_kappa \
    adatm_health_max_congruence adatm_cpd_fit_delta_bucket; do
    grep -q "$series" "$tmp/metrics" || { echo "obs-smoke: /metrics missing $series"; cat "$tmp/metrics"; exit 1; }
done

# /timeseries must serve the background resource sampler's ring buffer with
# real samples (the run plus the hold window is far longer than one sampling
# interval).
curl -fsS "http://$addr/timeseries" >"$tmp/timeseries"
grep -q '"interval_ns"' "$tmp/timeseries" || { echo "obs-smoke: /timeseries missing interval"; cat "$tmp/timeseries"; exit 1; }
grep -q '"heap_alloc_bytes"' "$tmp/timeseries" || { echo "obs-smoke: /timeseries has no samples"; cat "$tmp/timeseries"; exit 1; }
grep -q '"goroutines"' "$tmp/timeseries" || { echo "obs-smoke: /timeseries samples missing goroutines"; cat "$tmp/timeseries"; exit 1; }
# The relative-error gauge must carry a finite value (the reconciler clamps
# degenerate measurements, so NaN/Inf in the exposition is a regression).
grep '^adatm_model_ops_relative_error' "$tmp/metrics" | grep -qiE 'nan|inf' \
    && { echo "obs-smoke: non-finite model relative error"; grep adatm_model "$tmp/metrics"; exit 1; }
curl -fsS "http://$addr/run" >"$tmp/run"
grep -q '"done": *true' "$tmp/run" || { echo "obs-smoke: /run missing final snapshot"; cat "$tmp/run"; exit 1; }
grep -q '"health"' "$tmp/run" || { echo "obs-smoke: /run missing health verdict"; cat "$tmp/run"; exit 1; }

# /iters must serve the retained per-iteration health stream: one sample per
# ALS iteration with the signal fields and a verdict.
curl -fsS "http://$addr/iters" >"$tmp/iters"
grep -q '"iter"' "$tmp/iters" || { echo "obs-smoke: /iters has no samples"; cat "$tmp/iters"; exit 1; }
grep -q '"state"' "$tmp/iters" || { echo "obs-smoke: /iters samples missing verdict"; cat "$tmp/iters"; exit 1; }
grep -q '"max_congruence"' "$tmp/iters" || { echo "obs-smoke: /iters samples missing signals"; cat "$tmp/iters"; exit 1; }

# /plan must serve the model-audit decision and its reconciliation: the
# predicted/measured ops pair with a finite relative error, and a verdict.
curl -fsS "http://$addr/plan" >"$tmp/plan"
grep -q '"chosen"' "$tmp/plan" || { echo "obs-smoke: /plan missing decision"; cat "$tmp/plan"; exit 1; }
grep -q '"name": *"ops_per_iter"' "$tmp/plan" || { echo "obs-smoke: /plan missing ops quantity"; cat "$tmp/plan"; exit 1; }
grep -q '"predicted"' "$tmp/plan" || { echo "obs-smoke: /plan missing predictions"; cat "$tmp/plan"; exit 1; }
grep -q '"measured"' "$tmp/plan" || { echo "obs-smoke: /plan missing measurements"; cat "$tmp/plan"; exit 1; }
grep -q '"rel_err"' "$tmp/plan" || { echo "obs-smoke: /plan missing relative errors"; cat "$tmp/plan"; exit 1; }
grep -q '"top1_agreement"' "$tmp/plan" || { echo "obs-smoke: /plan missing top-1 verdict"; cat "$tmp/plan"; exit 1; }
grep -q '"accum"' "$tmp/plan" || { echo "obs-smoke: /plan missing accumulation choices"; cat "$tmp/plan"; exit 1; }
grep -qiE '"rel_err": *"?(nan|-?inf)' "$tmp/plan" && { echo "obs-smoke: non-finite rel_err in /plan"; cat "$tmp/plan"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# The Chrome trace must be valid JSON with the expected envelope.
grep -q '"traceEvents"' "$tmp/trace.json" || { echo "obs-smoke: trace file malformed"; exit 1; }
grep -q '"displayTimeUnit"' "$tmp/trace.json" || { echo "obs-smoke: trace file malformed"; exit 1; }

# The -audit table must have reached stdout with a verdict line.
grep -q '^top-1: model' "$tmp/stdout" || { echo "obs-smoke: -audit table missing from stdout"; cat "$tmp/stdout"; exit 1; }

# The decision ledger must be valid JSONL (decision + chosen candidate per line).
go run ./scripts/jsonlcheck "$tmp/audit.jsonl" || { echo "obs-smoke: audit ledger invalid"; cat "$tmp/audit.jsonl"; exit 1; }

# The ledger must carry the probe's health.state lifecycle event (validated as
# JSONL by the jsonlcheck pass above).
grep -q '"health.state"' "$tmp/audit.jsonl" || { echo "obs-smoke: audit ledger missing health.state event"; cat "$tmp/audit.jsonl"; exit 1; }

# -healthfile must hold the per-iteration JSONL history with verdicts.
[ -s "$tmp/health.jsonl" ] || { echo "obs-smoke: healthfile empty"; exit 1; }
grep -q '"state"' "$tmp/health.jsonl" || { echo "obs-smoke: healthfile samples missing verdict"; cat "$tmp/health.jsonl"; exit 1; }

echo "obs-smoke: OK ($(wc -c <"$tmp/metrics") bytes of metrics, $(wc -c <"$tmp/trace.json") bytes of trace, $(wc -l <"$tmp/audit.jsonl") ledger records, $(wc -l <"$tmp/health.jsonl") health samples)"
