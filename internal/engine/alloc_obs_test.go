package engine_test

import (
	"testing"

	"adatm/internal/audit"
	"adatm/internal/csf"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/memo"
	"adatm/internal/model"
	"adatm/internal/obs"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// TestInstrumentedSteadyStateZeroAlloc extends the steady-state pin to the
// observability path: with a live tracer, metrics registry, and the global
// chunk-span hook all enabled, a warm MTTKRP sweep must still allocate
// nothing. Span starts are value types, counter updates are atomics, and
// ring writes reuse preallocated slots — none of it may escape to the heap.
func TestInstrumentedSteadyStateZeroAlloc(t *testing.T) {
	const r = 16
	x := tensor.RandomClustered(4, 12, 800, 0.7, 173)
	fs := factors(x, r, 179)
	outs := make([]*dense.Matrix, x.Order())
	for m := range outs {
		outs[m] = dense.New(x.Dims[m], r)
	}

	tr := obs.NewTracer(1 << 12)
	reg := obs.NewRegistry()
	par.SetChunkTracer(tr)
	defer par.SetChunkTracer(nil)

	// An audit recorder exporting its gauges into the same registry must not
	// disturb the hot path: the decision/reconciliation happens once, outside
	// the sweep, and the gauges it sets are plain registry series.
	rec := audit.NewRecorder(audit.Config{Metrics: reg})
	rec.RecordDecision(model.NewDecision(model.Select(x, model.Options{Rank: r})))
	rec.Reconcile(audit.Measured{Iters: 1, OpsPerIter: 1000, PeakValueBytes: 1 << 10, IndexBytes: 1 << 10})

	memoEng, err := memo.NewWithConfig(x, memo.Balanced(x.Order()), memo.Config{Workers: 1, Name: "memo"})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]engine.Engine{
		"memo":    memoEng,
		"csf":     csf.NewAllMode(x, 1),
		"csf-one": csf.NewSingle(x, 1),
	}
	for name, e := range engines {
		if in, ok := e.(engine.Instrumentable); ok {
			in.Instrument(tr, reg)
		} else {
			t.Fatalf("%s does not implement engine.Instrumentable", name)
		}
		sweepWithInvalidation(e, x, fs, outs)
		sweepWithInvalidation(e, x, fs, outs)
		allocs := testing.AllocsPerRun(5, func() {
			sweepWithInvalidation(e, x, fs, outs)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per instrumented steady-state sweep, want 0", name, allocs)
		}
	}
	if tr.Len() == 0 {
		t.Error("instrumented sweeps emitted no spans")
	}
}
