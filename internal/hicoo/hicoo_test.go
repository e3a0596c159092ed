package hicoo

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

func TestBuildRoundTrip(t *testing.T) {
	// Every (coords, value) must survive blocking: reconstruct COO from the
	// blocked form and compare as multisets via lookups.
	x := tensor.RandomClustered(3, 300, 1500, 0.6, 701)
	h := Build(x)
	if len(h.Vals) != x.NNZ() {
		t.Fatalf("blocked form holds %d of %d nonzeros", len(h.Vals), x.NNZ())
	}
	n := x.Order()
	idx := make([]tensor.Index, n)
	for b := 0; b < h.NBlocks(); b++ {
		for k := h.BPtr[b]; k < h.BPtr[b+1]; k++ {
			for m := 0; m < n; m++ {
				idx[m] = tensor.Index(int(h.BInds[m][b])<<blockBits | int(h.EInds[m][k]))
			}
			if got := x.At(idx); got != h.Vals[k] {
				t.Fatalf("block %d elem %d: value %g at %v, original has %g", b, k, h.Vals[k], idx, got)
			}
		}
	}
}

func TestBlocksAreCoherent(t *testing.T) {
	x := tensor.RandomClustered(4, 200, 2000, 0.8, 702)
	h := Build(x)
	if h.BPtr[0] != 0 || int(h.BPtr[h.NBlocks()]) != len(h.Vals) {
		t.Fatal("block pointers do not span the elements")
	}
	// Block coordinate tuples must be distinct and sorted.
	for b := 1; b < h.NBlocks(); b++ {
		cmp := 0
		for m := 0; m < x.Order(); m++ {
			if h.BInds[m][b-1] != h.BInds[m][b] {
				if h.BInds[m][b-1] < h.BInds[m][b] {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		if cmp >= 0 {
			t.Fatalf("blocks not strictly sorted at %d", b)
		}
	}
}

func TestIndexCompression(t *testing.T) {
	// With index locality, blocked indices must be well below COO's
	// 4-bytes-per-mode-per-nonzero.
	x := tensor.RandomClustered(3, 2000, 30000, 1.0, 703)
	h := Build(x)
	cooBytes := int64(x.NNZ()) * int64(4*x.Order())
	if h.IndexBytes() >= cooBytes {
		t.Errorf("blocked index %d not below COO %d", h.IndexBytes(), cooBytes)
	}
}

func TestMTTKRPMatchesDenseReference(t *testing.T) {
	x := tensor.RandomUniform(3, 9, 70, 704)
	fs := randomFactors(x, 5, 705)
	e := New(x, 2)
	for mode := 0; mode < 3; mode++ {
		out := dense.New(x.Dims[mode], 5)
		e.MTTKRP(mode, fs, out)
		want := ref.MTTKRP(x, mode, fs)
		if d := out.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("mode %d: diff %g", mode, d)
		}
	}
}

func TestMTTKRPHigherOrders(t *testing.T) {
	for _, order := range []int{3, 4, 5, 6} {
		// Dims above one block edge exercise multi-block paths.
		x := tensor.RandomClustered(order, 300, 800, 0.7, int64(order*707))
		fs := randomFactors(x, 6, int64(order*709))
		e := New(x, 4)
		for mode := 0; mode < order; mode++ {
			out := dense.New(x.Dims[mode], 6)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Errorf("order %d mode %d: diff %g", order, mode, d)
			}
		}
	}
}

func TestParallelConsistency(t *testing.T) {
	x := tensor.RandomClustered(4, 400, 4000, 0.9, 711)
	fs := randomFactors(x, 16, 712)
	seq := New(x, 1)
	parl := New(x, 8)
	for mode := 0; mode < 4; mode++ {
		a := dense.New(x.Dims[mode], 16)
		b := dense.New(x.Dims[mode], 16)
		seq.MTTKRP(mode, fs, a)
		parl.MTTKRP(mode, fs, b)
		if d := a.MaxAbsDiff(b); d > 1e-9 {
			t.Errorf("mode %d: parallel differs by %g", mode, d)
		}
	}
}

func TestStatsAndOps(t *testing.T) {
	x := tensor.RandomUniform(3, 200, 500, 713)
	fs := randomFactors(x, 4, 714)
	e := New(x, 1)
	out := dense.New(x.Dims[0], 4)
	e.MTTKRP(0, fs, out)
	if want := int64(x.NNZ()) * 3 * 4; e.Stats().HadamardOps != want {
		t.Errorf("ops %d, want %d", e.Stats().HadamardOps, want)
	}
	if e.Stats().IndexBytes <= 0 {
		t.Error("no index accounting")
	}
	e.MTTKRP(1, fs, dense.New(x.Dims[1], 4))
	if want := 2 * int64(x.NNZ()) * 3 * 4; e.Stats().HadamardOps != want {
		t.Errorf("ops after a second call %d, want %d", e.Stats().HadamardOps, want)
	}
}

func TestBlockBoundaryIndices(t *testing.T) {
	// Indices straddling block boundaries (127/128) must round-trip.
	x := tensor.NewCOO([]int{300, 300, 300}, 4)
	x.Append([]tensor.Index{127, 128, 255}, 1)
	x.Append([]tensor.Index{128, 127, 256}, 2)
	x.Append([]tensor.Index{0, 0, 0}, 3)
	x.Append([]tensor.Index{299, 299, 299}, 4)
	fs := randomFactors(x, 3, 715)
	e := New(x, 1)
	for mode := 0; mode < 3; mode++ {
		out := dense.New(300, 3)
		e.MTTKRP(mode, fs, out)
		want := ref.MTTKRPSparse(x, mode, fs)
		if d := out.MaxAbsDiff(want); d > 1e-12 {
			t.Errorf("mode %d: diff %g", mode, d)
		}
	}
}

// Property: HiCOO agrees with the sparse reference on random shapes.
func TestEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(3)
		dim := 50 + rng.Intn(500)
		x := tensor.RandomClustered(order, dim, 300, rng.Float64(), seed)
		fs := randomFactors(x, 4, seed+1)
		e := New(x, 2)
		mode := rng.Intn(order)
		out := dense.New(x.Dims[mode], 4)
		e.MTTKRP(mode, fs, out)
		want := ref.MTTKRPSparse(x, mode, fs)
		return out.MaxAbsDiff(want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
