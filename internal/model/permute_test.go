package model

import (
	"math/rand"
	"testing"

	"adatm/internal/dense"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

// correlated builds an order-4 tensor where modes 0 and 2 are nearly
// functionally dependent (idx2 = f(idx0) with small jitter), so the {0,2}
// projection compresses massively — but only a permutation can group them
// into one contiguous range.
func correlated(nnz int, seed int64) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	dims := []int{500, 400, 500, 300}
	x := tensor.NewCOO(dims, nnz)
	idx := make([]tensor.Index, 4)
	for k := 0; k < nnz; k++ {
		i0 := rng.Intn(dims[0])
		idx[0] = tensor.Index(i0)
		idx[1] = tensor.Index(rng.Intn(dims[1]))
		idx[2] = tensor.Index((i0*7 + rng.Intn(3)) % dims[2])
		idx[3] = tensor.Index(rng.Intn(dims[3]))
		x.Append(idx, rng.Float64()+0.5)
	}
	x.Dedup()
	return x
}

func TestEstimatorOrderedMatchesPermutedClone(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 500, 0.8, 501)
	perm := []int{3, 1, 0, 2}
	a := NewEstimatorOrdered(x, perm, 1<<14, 0)
	b := NewEstimator(x.PermuteModes(perm), 1<<14, 0)
	for lo := 0; lo < 4; lo++ {
		for hi := lo + 1; hi <= 4; hi++ {
			if a.Distinct(lo, hi) != b.Distinct(lo, hi) {
				t.Errorf("range [%d,%d): ordered %d vs clone %d", lo, hi, a.Distinct(lo, hi), b.Distinct(lo, hi))
			}
		}
	}
}

func TestHeuristicPermutationsValid(t *testing.T) {
	x := tensor.RandomClustered(5, 8, 300, 0.7, 502)
	perms := HeuristicPermutations(x)
	if len(perms) < 3 {
		t.Fatalf("only %d heuristics", len(perms))
	}
	for name, p := range perms {
		seen := make([]bool, 5)
		for _, m := range p {
			if m < 0 || m >= 5 || seen[m] {
				t.Fatalf("%s: invalid permutation %v", name, p)
			}
			seen[m] = true
		}
	}
	// dims-asc must actually sort by dimension.
	asc := perms["dims-asc"]
	for i := 1; i < len(asc); i++ {
		if x.Dims[asc[i-1]] > x.Dims[asc[i]] {
			t.Fatalf("dims-asc not sorted: %v (dims %v)", asc, x.Dims)
		}
	}
}

func TestSelectPermutedFindsCorrelatedGrouping(t *testing.T) {
	x := correlated(30000, 503)
	// Hand the selector a permutation that groups the correlated pair in
	// addition to the heuristics; it must beat the natural order's plan.
	perms := HeuristicPermutations(x)
	perms["group02"] = []int{0, 2, 1, 3}
	pp := SelectPermuted(x, Options{Rank: 16}, perms)

	var natural, chosen int64
	for _, c := range pp.Candidates {
		if c.Name == "natural" {
			natural = c.Plan.Chosen.Pred.Ops
		}
	}
	chosen = pp.Chosen.Plan.Chosen.Pred.Ops
	if chosen >= natural {
		t.Errorf("permuted selection (%s, %d ops) no better than natural (%d ops)", pp.Chosen.Name, chosen, natural)
	}
	// The winning permutation must place modes 0 and 2 adjacently.
	pos := make([]int, 4)
	for p, m := range pp.Chosen.Perm {
		pos[m] = p
	}
	if d := pos[0] - pos[2]; d != 1 && d != -1 {
		t.Errorf("chosen permutation %v does not group the correlated modes", pp.Chosen.Perm)
	}
}

func TestBuildChosenComputesCorrectMTTKRP(t *testing.T) {
	x := correlated(5000, 504)
	pp := SelectPermuted(x, Options{Rank: 4}, nil)
	eng, err := pp.BuildChosen(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(505))
	fs := make([]*dense.Matrix, 4)
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], 4, rng)
	}
	for mode := 0; mode < 4; mode++ {
		out := dense.New(x.Dims[mode], 4)
		eng.MTTKRP(mode, fs, out)
		want := ref.MTTKRPSparse(x, mode, fs)
		if d := out.MaxAbsDiff(want); d > 1e-8 {
			t.Errorf("mode %d: diff %g", mode, d)
		}
	}
}

func TestSelectPermutedDeterministicOrder(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 400, 0.6, 506)
	a := SelectPermuted(x, Options{Rank: 8}, nil)
	b := SelectPermuted(x, Options{Rank: 8}, nil)
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatal("nondeterministic candidate count")
	}
	for i := range a.Candidates {
		if a.Candidates[i].Name != b.Candidates[i].Name {
			t.Fatalf("nondeterministic candidate order: %s vs %s", a.Candidates[i].Name, b.Candidates[i].Name)
		}
	}
}
