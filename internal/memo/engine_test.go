package memo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adatm/internal/dense"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

func randomFactors(x *tensor.COO, r int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]*dense.Matrix, x.Order())
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], r, rng)
	}
	return fs
}

func strategiesFor(n int) map[string]*Strategy {
	out := map[string]*Strategy{
		"flat":     Flat(n),
		"balanced": Balanced(n),
	}
	if n >= 3 {
		out["2group"] = TwoGroup(n, n/2)
	}
	return out
}

func TestSymbolicInvariants(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 800, 0.8, 51)
	e, err := New(x, Balanced(4), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.root.nelem != x.NNZ() {
		t.Fatalf("root elems = %d, want nnz %d", e.root.nelem, x.NNZ())
	}
	for _, nd := range e.all {
		if nd.parent == nil {
			continue
		}
		// Reduction sets partition [0, parent.nelem).
		if nd.redPtr[0] != 0 || nd.redPtr[len(nd.redPtr)-1] != int64(nd.parent.nelem) {
			t.Fatalf("node [%d,%d): reduction pointers do not span the parent", nd.lo, nd.hi)
		}
		if len(nd.redElems) != nd.parent.nelem {
			t.Fatalf("node [%d,%d): redElems length %d != parent elems %d", nd.lo, nd.hi, len(nd.redElems), nd.parent.nelem)
		}
		seen := make([]bool, nd.parent.nelem)
		for _, pe := range nd.redElems {
			if seen[pe] {
				t.Fatalf("node [%d,%d): parent element %d appears twice", nd.lo, nd.hi, pe)
			}
			seen[pe] = true
		}
		// Projected tuples strictly increasing (sorted + deduplicated).
		for i := 1; i < nd.nelem; i++ {
			cmp := 0
			for _, ind := range nd.inds {
				if ind[i-1] != ind[i] {
					if ind[i-1] < ind[i] {
						cmp = -1
					} else {
						cmp = 1
					}
					break
				}
			}
			if cmp >= 0 {
				t.Fatalf("node [%d,%d): tuples not strictly increasing at %d", nd.lo, nd.hi, i)
			}
		}
		// Each element's tuple matches every parent element in its set.
		for i := 0; i < nd.nelem; i++ {
			for e := nd.redPtr[i]; e < nd.redPtr[i+1]; e++ {
				pe := nd.redElems[e]
				for k, m := 0, nd.lo; m < nd.hi; k, m = k+1, m+1 {
					if nd.inds[k][i] != nd.parent.inds[m-nd.parent.lo][pe] {
						t.Fatalf("node [%d,%d): element %d reduction mismatch", nd.lo, nd.hi, i)
					}
				}
			}
		}
	}
}

func TestMatchesDenseReferenceAllStrategies(t *testing.T) {
	x := tensor.RandomUniform(4, 6, 80, 52)
	fs := randomFactors(x, 5, 53)
	for name, s := range strategiesFor(4) {
		e, err := New(x, s, 2, name)
		if err != nil {
			t.Fatal(err)
		}
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 5)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRP(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-9 {
				t.Errorf("%s mode %d: max diff %g vs dense reference", name, mode, d)
			}
		}
	}
}

func TestHigherOrderMatchesSparseReference(t *testing.T) {
	for _, order := range []int{3, 4, 5, 6, 8} {
		x := tensor.RandomClustered(order, 15, 700, 0.9, int64(order*11))
		fs := randomFactors(x, 8, int64(order*13))
		for name, s := range strategiesFor(order) {
			e, err := New(x, s, 4, name)
			if err != nil {
				t.Fatal(err)
			}
			for mode := 0; mode < order; mode++ {
				out := dense.New(x.Dims[mode], 8)
				e.MTTKRP(mode, fs, out)
				want := ref.MTTKRPSparse(x, mode, fs)
				if d := out.MaxAbsDiff(want); d > 1e-8 {
					t.Errorf("order %d %s mode %d: max diff %g", order, name, mode, d)
				}
			}
		}
	}
}

// The critical cache-coherence test: interleave factor updates with MTTKRPs
// the way CP-ALS does and verify no stale intermediate is ever used.
func TestInvalidationUnderALSSweep(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 600, 0.7, 61)
	fs := randomFactors(x, 6, 62)
	rng := rand.New(rand.NewSource(63))
	e, err := New(x, Balanced(4), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 3; iter++ {
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 6)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("iter %d mode %d: stale cache, diff %g", iter, mode, d)
			}
			// Overwrite the factor like the ALS update would.
			fs[mode] = dense.Random(x.Dims[mode], 6, rng)
			e.FactorUpdated(mode)
		}
	}
}

// Changing the rank between calls must drop every cached value matrix.
func TestRankChangeInvalidates(t *testing.T) {
	x := tensor.RandomUniform(3, 8, 100, 64)
	e, err := New(x, Balanced(3), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	fs4 := randomFactors(x, 4, 65)
	out4 := dense.New(x.Dims[0], 4)
	e.MTTKRP(0, fs4, out4)
	fs7 := randomFactors(x, 7, 66)
	out7 := dense.New(x.Dims[1], 7)
	e.MTTKRP(1, fs7, out7)
	want := ref.MTTKRPSparse(x, 1, fs7)
	if d := out7.MaxAbsDiff(want); d > 1e-8 {
		t.Errorf("rank change left stale caches: diff %g", d)
	}
}

func TestOpsAccountingMatchesPrediction(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 500, 0.8, 67)
	fs := randomFactors(x, 8, 68)
	for name, s := range strategiesFor(4) {
		e, err := New(x, s, 1, name)
		if err != nil {
			t.Fatal(err)
		}
		// One full sweep with the ALS protocol: every non-root node is
		// materialized exactly once.
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 8)
			e.MTTKRP(mode, fs, out)
			e.FactorUpdated(mode)
		}
		if got, want := e.Stats().HadamardOps, e.PerIterationOps(8); got != want {
			t.Errorf("%s: measured ops %d != predicted %d", name, got, want)
		}
	}
}

// A second sweep costs exactly the same as the first: steady-state reuse.
func TestSteadyStateOpsPerIteration(t *testing.T) {
	x := tensor.RandomClustered(5, 8, 400, 0.9, 69)
	fs := randomFactors(x, 4, 70)
	e, err := New(x, Balanced(5), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() int64 {
		before := e.Stats().HadamardOps
		for mode := 0; mode < 5; mode++ {
			out := dense.New(x.Dims[mode], 4)
			e.MTTKRP(mode, fs, out)
			e.FactorUpdated(mode)
		}
		return e.Stats().HadamardOps - before
	}
	first, second := sweep(), sweep()
	if first != second {
		t.Errorf("sweep ops differ: %d then %d", first, second)
	}
}

// Repeated MTTKRP on the same mode without factor updates must reuse the
// cache (no additional ops).
func TestReuseWithoutUpdates(t *testing.T) {
	x := tensor.RandomUniform(4, 8, 300, 71)
	fs := randomFactors(x, 4, 72)
	e, err := New(x, Balanced(4), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	out := dense.New(x.Dims[2], 4)
	e.MTTKRP(2, fs, out)
	opsAfterFirst := e.Stats().HadamardOps
	e.MTTKRP(2, fs, out)
	// Every ancestor stays cached; only the fused leaf-to-output contraction
	// re-runs (leaves are never materialized, so their work is repeated per
	// call by design).
	leaf := e.leaves[2]
	leafOps := int64(leaf.parent.nelem) * int64(len(leaf.delta)+1) * 4
	if got := e.Stats().HadamardOps - opsAfterFirst; got != leafOps {
		t.Errorf("second identical MTTKRP performed %d extra ops, want leaf-only %d", got, leafOps)
	}
}

func TestPeakValueBytesBounded(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 500, 0.5, 73)
	fs := randomFactors(x, 8, 74)
	e, err := New(x, Balanced(4), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 4; mode++ {
		out := dense.New(x.Dims[mode], 8)
		e.MTTKRP(mode, fs, out)
		e.FactorUpdated(mode)
	}
	// Upper bound: every node materialized simultaneously.
	var bound int64
	for _, nd := range e.all {
		if nd.parent != nil {
			bound += int64(nd.nelem) * 8 * 8
		}
	}
	s := e.Stats()
	if s.PeakValueBytes <= 0 || s.PeakValueBytes > bound {
		t.Errorf("peak %d outside (0, %d]", s.PeakValueBytes, bound)
	}
	if s.IndexBytes <= 0 {
		t.Error("index bytes not accounted")
	}
}

func TestNodeElemCounts(t *testing.T) {
	x := tensor.RandomClustered(3, 6, 300, 1.0, 75)
	e, err := New(x, Balanced(3), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	counts := e.NodeElemCounts()
	if counts[0].Elems != x.NNZ() {
		t.Errorf("root count %d != nnz %d", counts[0].Elems, x.NNZ())
	}
	// Leaf counts equal the number of distinct indices per mode.
	for _, c := range counts {
		if c.Hi-c.Lo != 1 {
			continue
		}
		set := map[tensor.Index]struct{}{}
		for _, i := range x.Inds[c.Lo] {
			set[i] = struct{}{}
		}
		if c.Elems != len(set) {
			t.Errorf("leaf %d: %d elems, want %d distinct", c.Lo, c.Elems, len(set))
		}
	}
}

func TestScatterLeavesAbsentRowsZero(t *testing.T) {
	x := tensor.NewCOO([]int{5, 3, 3}, 2)
	x.Append([]tensor.Index{0, 1, 2}, 1.0)
	x.Append([]tensor.Index{4, 0, 1}, 2.0)
	fs := randomFactors(x, 3, 76)
	e, err := New(x, Balanced(3), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	out := dense.New(5, 3)
	out.Fill(9) // stale garbage
	e.MTTKRP(0, fs, out)
	for _, i := range []int{1, 2, 3} {
		for j := 0; j < 3; j++ {
			if out.At(i, j) != 0 {
				t.Fatalf("row %d not zeroed: %v", i, out.Row(i))
			}
		}
	}
}

func TestInvalidStrategyRejected(t *testing.T) {
	x := tensor.RandomUniform(3, 5, 20, 77)
	if _, err := New(x, Flat(4), 1, ""); err == nil {
		t.Fatal("New accepted a strategy of the wrong order")
	}
}

func TestParallelConsistency(t *testing.T) {
	x := tensor.RandomClustered(5, 12, 2000, 0.8, 78)
	fs := randomFactors(x, 16, 79)
	a, _ := New(x, Balanced(5), 1, "")
	b, _ := New(x, Balanced(5), 8, "")
	for mode := 0; mode < 5; mode++ {
		oa := dense.New(x.Dims[mode], 16)
		ob := dense.New(x.Dims[mode], 16)
		a.MTTKRP(mode, fs, oa)
		b.MTTKRP(mode, fs, ob)
		if d := oa.MaxAbsDiff(ob); d > 1e-9 {
			t.Errorf("mode %d: parallel differs by %g", mode, d)
		}
	}
}

// Property: every strategy produces the same MTTKRP as the sparse reference
// on random tensors of random order, shape, and skew.
func TestEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(4)
		x := tensor.RandomClustered(order, 5+rng.Intn(8), 150+rng.Intn(200), rng.Float64()*1.2, seed)
		fs := randomFactors(x, 3+rng.Intn(5), seed+1)
		r := fs[0].Cols
		mode := rng.Intn(order)
		want := ref.MTTKRPSparse(x, mode, fs)
		for name, s := range strategiesFor(order) {
			e, err := New(x, s, 2, name)
			if err != nil {
				return false
			}
			out := dense.New(x.Dims[mode], r)
			e.MTTKRP(mode, fs, out)
			if out.MaxAbsDiff(want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
