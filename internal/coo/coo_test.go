package coo

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

func TestMTTKRPMatchesDenseReference(t *testing.T) {
	x := tensor.RandomUniform(3, 8, 60, 1)
	fs := randomFactors(x, 5, 2)
	e := New(x, 2)
	for mode := 0; mode < 3; mode++ {
		out := dense.New(x.Dims[mode], 5)
		e.MTTKRP(mode, fs, out)
		want := ref.MTTKRP(x, mode, fs)
		if d := out.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("mode %d: max diff %g vs dense reference", mode, d)
		}
	}
}

func TestMTTKRPMatchesSparseReferenceHigherOrder(t *testing.T) {
	for _, order := range []int{3, 4, 5, 6} {
		x := tensor.RandomClustered(order, 20, 500, 0.8, int64(order))
		fs := randomFactors(x, 8, int64(order)*7)
		e := New(x, 4)
		for mode := 0; mode < order; mode++ {
			out := dense.New(x.Dims[mode], 8)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Errorf("order %d mode %d: max diff %g", order, mode, d)
			}
		}
	}
}

func TestMTTKRPOverwritesOutput(t *testing.T) {
	x := tensor.RandomUniform(3, 6, 40, 3)
	fs := randomFactors(x, 4, 4)
	e := New(x, 1)
	out := dense.New(x.Dims[0], 4)
	out.Fill(1e9) // stale garbage must be cleared
	e.MTTKRP(0, fs, out)
	want := ref.MTTKRPSparse(x, 0, fs)
	if d := out.MaxAbsDiff(want); d > 1e-8 {
		t.Errorf("stale output leaked through: diff %g", d)
	}
}

func TestParallelConsistency(t *testing.T) {
	x := tensor.RandomClustered(4, 15, 2000, 1.0, 9)
	fs := randomFactors(x, 16, 10)
	seq := New(x, 1)
	parl := New(x, 8)
	for mode := 0; mode < 4; mode++ {
		a := dense.New(x.Dims[mode], 16)
		b := dense.New(x.Dims[mode], 16)
		seq.MTTKRP(mode, fs, a)
		parl.MTTKRP(mode, fs, b)
		if d := a.MaxAbsDiff(b); d > 1e-9 {
			t.Errorf("mode %d: parallel differs from sequential by %g", mode, d)
		}
	}
}

func TestStatsCount(t *testing.T) {
	x := tensor.RandomUniform(3, 10, 100, 11)
	fs := randomFactors(x, 4, 12)
	e := New(x, 1)
	out := dense.New(x.Dims[0], 4)
	e.MTTKRP(0, fs, out)
	wantOps := int64(x.NNZ()) * 3 * 4 // N·R per nonzero
	if got := e.Stats().HadamardOps; got != wantOps {
		t.Errorf("ops = %d, want %d", got, wantOps)
	}
	e.MTTKRP(1, fs, dense.New(x.Dims[1], 4))
	if got := e.Stats().HadamardOps; got != 2*wantOps {
		t.Errorf("ops after a second call = %d, want %d", got, 2*wantOps)
	}
}

func TestWrongOutputShapeErrors(t *testing.T) {
	x := tensor.RandomUniform(3, 6, 20, 13)
	fs := randomFactors(x, 4, 14)
	e := New(x, 1)
	if err := e.MTTKRP(0, fs, dense.New(x.Dims[0]+1, 4)); err == nil {
		t.Fatal("want error for wrong output shape")
	}
}

// Property: MTTKRP is linear in the tensor values — scaling all nonzeros by
// c scales the result by c.
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64, cRaw uint8) bool {
		c := float64(cRaw%10) + 0.5
		x := tensor.RandomUniform(3, 6, 50, seed)
		fs := randomFactors(x, 3, seed+1)
		e := New(x, 2)
		a := dense.New(x.Dims[1], 3)
		e.MTTKRP(1, fs, a)
		y := x.Clone()
		for k := range y.Vals {
			y.Vals[k] *= c
		}
		e2 := New(y, 2)
		b := dense.New(y.Dims[1], 3)
		e2.MTTKRP(1, fs, b)
		a.Scale(c)
		return a.MaxAbsDiff(b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
