package memo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adatm/internal/dense"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

func TestPermutedMatchesReference(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 600, 0.8, 401)
	fs := randomFactors(x, 5, 402)
	perm := []int{2, 0, 3, 1}
	e, err := NewPermuted(x, Balanced(4), perm, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 4; mode++ {
		out := dense.New(x.Dims[mode], 5)
		e.MTTKRP(mode, fs, out)
		want := ref.MTTKRPSparse(x, mode, fs)
		if d := out.MaxAbsDiff(want); d > 1e-8 {
			t.Errorf("mode %d: diff %g", mode, d)
		}
	}
}

func TestPermutedSweepProtocol(t *testing.T) {
	x := tensor.RandomClustered(5, 10, 500, 0.7, 403)
	fs := randomFactors(x, 4, 404)
	rng := rand.New(rand.NewSource(405))
	perm := []int{4, 1, 3, 0, 2}
	e, err := NewPermuted(x, Balanced(5), perm, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	order := e.SweepOrder()
	for iter := 0; iter < 2; iter++ {
		for _, mode := range order {
			out := dense.New(x.Dims[mode], 4)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("iter %d mode %d: diff %g", iter, mode, d)
			}
			fs[mode] = dense.Random(x.Dims[mode], 4, rng)
			e.FactorUpdated(mode)
		}
	}
}

// Sweeping in the permuted order must keep the once-per-iteration property:
// steady-state per-sweep ops equal PerIterationOps.
func TestPermutedOncePerIteration(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 400, 0.9, 406)
	fs := randomFactors(x, 8, 407)
	perm := []int{3, 1, 0, 2}
	e, err := NewPermuted(x, Balanced(4), perm, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(order []int) int64 {
		before := e.Stats().HadamardOps
		for _, mode := range order {
			out := dense.New(x.Dims[mode], 8)
			e.MTTKRP(mode, fs, out)
			e.FactorUpdated(mode)
		}
		return e.Stats().HadamardOps - before
	}
	sweep(e.SweepOrder()) // fill caches
	got := sweep(e.SweepOrder())
	if want := e.PerIterationOps(8); got != want {
		t.Errorf("permuted sweep ops %d != once-per-node %d", got, want)
	}
	// Sweeping in the WRONG (natural) order must cost at least as much.
	natural := []int{0, 1, 2, 3}
	sweep(natural)
	if wrong := sweep(natural); wrong < got {
		t.Errorf("natural-order sweep %d unexpectedly cheaper than permuted %d", wrong, got)
	}
}

func TestPermutedValidation(t *testing.T) {
	x := tensor.RandomUniform(3, 6, 50, 408)
	bad := [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}, {-1, 0, 1}}
	for _, perm := range bad {
		if _, err := NewPermuted(x, Balanced(3), perm, 1, ""); err == nil {
			t.Errorf("permutation %v accepted", perm)
		}
	}
}

func TestPermutedIdentityEqualsPlain(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 300, 0.6, 409)
	fs := randomFactors(x, 4, 410)
	plain, _ := New(x, Balanced(4), 1, "")
	permuted, err := NewPermuted(x, Balanced(4), []int{0, 1, 2, 3}, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 4; mode++ {
		a := dense.New(x.Dims[mode], 4)
		b := dense.New(x.Dims[mode], 4)
		plain.MTTKRP(mode, fs, a)
		permuted.MTTKRP(mode, fs, b)
		if d := a.MaxAbsDiff(b); d > 1e-12 {
			t.Errorf("mode %d: identity permutation differs by %g", mode, d)
		}
	}
}

// Property: random permutations with random strategies stay correct under
// the permuted-sweep ALS protocol.
func TestPermutedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(4)
		perm := rng.Perm(order)
		x := tensor.RandomClustered(order, 6+rng.Intn(8), 200, rng.Float64(), seed)
		fs := make([]*dense.Matrix, order)
		for m := range fs {
			fs[m] = dense.Random(x.Dims[m], 3, rng)
		}
		e, err := NewPermuted(x, randomBinary(order, rng), perm, 2, "")
		if err != nil {
			return false
		}
		for _, mode := range e.SweepOrder() {
			out := dense.New(x.Dims[mode], 3)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if out.MaxAbsDiff(want) > 1e-8 {
				return false
			}
			fs[mode] = dense.Random(x.Dims[mode], 3, rng)
			e.FactorUpdated(mode)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
