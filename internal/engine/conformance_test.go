// Cross-engine conformance suite: every MTTKRP engine in the repository
// must satisfy the same contract. Per-package tests cover engine-specific
// behaviour; this file is the single place that pins the shared semantics.
package engine_test

import (
	"math/rand"
	"testing"

	"adatm/internal/coo"
	"adatm/internal/csf"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/hicoo"
	"adatm/internal/memo"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

// allEngines builds one engine of every kind over x.
func allEngines(t testing.TB, x *tensor.COO, workers int) map[string]engine.Engine {
	t.Helper()
	out := map[string]engine.Engine{
		"coo":     coo.New(x, workers),
		"csf":     csf.NewAllMode(x, workers),
		"csf-one": csf.NewSingle(x, workers),
		"hicoo":   hicoo.New(x, workers),
	}
	n := x.Order()
	for name, s := range map[string]*memo.Strategy{
		"memo-flat":     memo.Flat(n),
		"memo-2group":   memo.TwoGroup(n, n/2),
		"memo-balanced": memo.Balanced(n),
	} {
		e, err := memo.New(x, s, workers, name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e
	}
	return out
}

func factors(x *tensor.COO, r int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]*dense.Matrix, x.Order())
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], r, rng)
	}
	return fs
}

// Contract 1: every engine computes the same MTTKRP as the independent
// reference, for every mode, at several orders.
func TestConformanceEquivalence(t *testing.T) {
	for _, order := range []int{3, 4, 5} {
		x := tensor.RandomClustered(order, 14, 600, 0.8, int64(order*101))
		fs := factors(x, 7, int64(order*103))
		for name, e := range allEngines(t, x, 3) {
			for mode := 0; mode < order; mode++ {
				out := dense.New(x.Dims[mode], 7)
				e.MTTKRP(mode, fs, out)
				want := ref.MTTKRPSparse(x, mode, fs)
				if d := out.MaxAbsDiff(want); d > 1e-8 {
					t.Errorf("%s order %d mode %d: diff %g", name, order, mode, d)
				}
			}
		}
	}
}

// Contract 1b: rank robustness — the kernel layer's specialized fast paths
// (R = 8, 16, 32) and the generic tail path (R = 17) must agree with the
// reference on a higher-order tensor, for every engine and mode.
func TestConformanceRankSweepOrder5(t *testing.T) {
	const order = 5
	x := tensor.RandomClustered(order, 11, 700, 0.75, 163)
	for _, r := range []int{8, 16, 17, 32} {
		fs := factors(x, r, int64(167+r))
		for name, e := range allEngines(t, x, 3) {
			for mode := 0; mode < order; mode++ {
				out := dense.New(x.Dims[mode], r)
				e.MTTKRP(mode, fs, out)
				want := ref.MTTKRPSparse(x, mode, fs)
				if d := out.MaxAbsDiff(want); d > 1e-8 {
					t.Errorf("%s rank %d mode %d: diff %g", name, r, mode, d)
				}
			}
		}
	}
}

// Contract 2: MTTKRP is repeatable — calling it twice with unchanged
// factors yields identical output (no hidden state corruption). Serial
// execution must be bitwise identical; parallel execution may reassociate
// the floating-point scatter sums of lock-striped engines depending on
// worker timing, so it gets an epsilon far below any real corruption but
// far above accumulation-order jitter.
func TestConformanceRepeatable(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 500, 0.6, 107)
	fs := factors(x, 5, 109)
	for _, workers := range []int{1, 2} {
		tol := 0.0
		if workers > 1 {
			tol = 1e-12
		}
		for name, e := range allEngines(t, x, workers) {
			a := dense.New(x.Dims[1], 5)
			b := dense.New(x.Dims[1], 5)
			e.MTTKRP(1, fs, a)
			e.MTTKRP(1, fs, b)
			if d := a.MaxAbsDiff(b); d > tol {
				t.Errorf("%s workers=%d: repeated MTTKRP differs by %g", name, workers, d)
			}
		}
	}
}

// Contract 3: the full ALS protocol (interleaved updates + invalidations)
// never serves stale values.
func TestConformanceALSProtocol(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 400, 0.9, 113)
	fs := factors(x, 4, 127)
	rng := rand.New(rand.NewSource(131))
	for name, e := range allEngines(t, x, 2) {
		for iter := 0; iter < 2; iter++ {
			for mode := 0; mode < 4; mode++ {
				out := dense.New(x.Dims[mode], 4)
				e.MTTKRP(mode, fs, out)
				want := ref.MTTKRPSparse(x, mode, fs)
				if d := out.MaxAbsDiff(want); d > 1e-8 {
					t.Fatalf("%s iter %d mode %d: stale result, diff %g", name, iter, mode, d)
				}
				fs[mode] = dense.Random(x.Dims[mode], 4, rng)
				e.FactorUpdated(mode)
			}
		}
	}
}

// Contract 4: Stats counters accumulate work, so a call's cost is the
// delta it adds; names are stable and non-empty.
func TestConformanceStats(t *testing.T) {
	x := tensor.RandomClustered(3, 10, 300, 0.5, 137)
	fs := factors(x, 4, 139)
	for name, e := range allEngines(t, x, 1) {
		if e.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
		out := dense.New(x.Dims[0], 4)
		e.MTTKRP(0, fs, out)
		before := e.Stats()
		if before.HadamardOps <= 0 {
			t.Errorf("%s: no ops recorded", name)
		}
		e.MTTKRP(1, fs, dense.New(x.Dims[1], 4))
		after := e.Stats()
		if after.MTTKRPCalls != before.MTTKRPCalls+1 || after.HadamardOps <= before.HadamardOps {
			t.Errorf("%s: second call moved calls %d→%d, ops %d→%d",
				name, before.MTTKRPCalls, after.MTTKRPCalls, before.HadamardOps, after.HadamardOps)
		}
	}
}

// Contract 5 (adjoint identity): the inner product ⟨X, ⟦U¹,…,Uᴺ⟧⟩ computed
// as Σ_ij M⁽ⁿ⁾(i,j)·U⁽ⁿ⁾(i,j) must be identical for every mode n — MTTKRP
// against any mode evaluates the same contraction. Catches subtle
// mode-handling asymmetries no single-mode test can see.
func TestConformanceAdjointIdentity(t *testing.T) {
	x := tensor.RandomClustered(5, 9, 400, 0.7, 151)
	fs := factors(x, 6, 157)
	for name, e := range allEngines(t, x, 2) {
		var ref float64
		for mode := 0; mode < 5; mode++ {
			out := dense.New(x.Dims[mode], 6)
			e.MTTKRP(mode, fs, out)
			inner := 0.0
			for i := 0; i < out.Rows; i++ {
				orow := out.Row(i)
				frow := fs[mode].Row(i)
				for j := range orow {
					inner += orow[j] * frow[j]
				}
			}
			if mode == 0 {
				ref = inner
				continue
			}
			if diff := inner - ref; diff > 1e-6*(1+absf(ref)) || diff < -1e-6*(1+absf(ref)) {
				t.Errorf("%s: mode-%d inner product %.10g != mode-0 %.10g", name, mode, inner, ref)
			}
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Contract 6: output buffers are fully overwritten, including rows with no
// corresponding nonzeros.
func TestConformanceOverwrite(t *testing.T) {
	x := tensor.NewCOO([]int{6, 4, 4}, 2)
	x.Append([]tensor.Index{1, 2, 3}, 1.5)
	x.Append([]tensor.Index{4, 0, 2}, -2.0)
	fs := factors(x, 3, 149)
	for name, e := range allEngines(t, x, 1) {
		out := dense.New(6, 3)
		out.Fill(777)
		e.MTTKRP(0, fs, out)
		for _, row := range []int{0, 2, 3, 5} {
			for j := 0; j < 3; j++ {
				if out.At(row, j) != 0 {
					t.Errorf("%s: empty row %d not zeroed: %v", name, row, out.Row(row))
				}
			}
		}
	}
}
