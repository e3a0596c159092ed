// Steady-state allocation regression suite: the kernel-layer rewrite pinned
// the memoized and CSF engines at zero allocations per MTTKRP once warm.
// Measured at workers = 1 so the par helpers run inline — goroutine spawning
// itself allocates and is outside the kernel contract.
package engine_test

import (
	"testing"

	"adatm/internal/accum"
	"adatm/internal/coo"
	"adatm/internal/csf"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/hicoo"
	"adatm/internal/memo"
	"adatm/internal/tensor"
)

// sweepWithInvalidation runs the ALS access pattern once: MTTKRP per mode
// followed by the invalidation of that mode's factor.
func sweepWithInvalidation(e engine.Engine, x *tensor.COO, fs []*dense.Matrix, outs []*dense.Matrix) {
	for mode := 0; mode < x.Order(); mode++ {
		e.MTTKRP(mode, fs, outs[mode])
		e.FactorUpdated(mode)
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	const r = 16
	x := tensor.RandomClustered(4, 12, 800, 0.7, 173)
	fs := factors(x, r, 179)
	outs := make([]*dense.Matrix, x.Order())
	for m := range outs {
		outs[m] = dense.New(x.Dims[m], r)
	}

	memoEng, err := memo.NewWithConfig(x, memo.Balanced(x.Order()), memo.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]engine.Engine{
		"memo":    memoEng,
		"csf":     csf.NewAllMode(x, 1),
		"csf-one": csf.NewSingle(x, 1),
	}
	for name, e := range engines {
		// Two warm-up sweeps: the first materializes caches and memo
		// value storage, the second settles any rank-dependent arena growth.
		sweepWithInvalidation(e, x, fs, outs)
		sweepWithInvalidation(e, x, fs, outs)
		allocs := testing.AllocsPerRun(5, func() {
			sweepWithInvalidation(e, x, fs, outs)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state sweep, want 0", name, allocs)
		}
	}
}

// TestSteadyStateZeroAllocPrivatized pins the privatized accumulation path
// at zero allocations per sweep once warm: the pool's backing arena is sized
// on the first call and every later Begin/Acquire/Reduce only re-slices it.
func TestSteadyStateZeroAllocPrivatized(t *testing.T) {
	const r = 16
	x := tensor.RandomClustered(4, 12, 800, 0.7, 173)
	fs := factors(x, r, 179)
	outs := make([]*dense.Matrix, x.Order())
	for m := range outs {
		outs[m] = dense.New(x.Dims[m], r)
	}

	acfg := accum.Config{Strategy: accum.Privatize, Workers: 1}
	memoEng, err := memo.NewWithConfig(x, memo.Balanced(x.Order()),
		memo.Config{Workers: 1, Accum: acfg})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]engine.Engine{
		"coo-priv":   coo.NewWithAccum(x, 1, acfg),
		"hicoo-priv": hicoo.NewWithAccum(x, 1, acfg),
		"memo-priv":  memoEng,
	}
	for name, e := range engines {
		sweepWithInvalidation(e, x, fs, outs) // sizes the privatized pool
		sweepWithInvalidation(e, x, fs, outs)
		allocs := testing.AllocsPerRun(5, func() {
			sweepWithInvalidation(e, x, fs, outs)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state privatized sweep, want 0", name, allocs)
		}
	}
}
