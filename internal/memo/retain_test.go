package memo

import (
	"testing"

	"adatm/internal/dense"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

func TestRetainBuffersCorrectness(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 500, 0.8, 421)
	fs := randomFactors(x, 6, 422)
	e, err := NewWithConfig(x, Balanced(4), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 3; iter++ {
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 6)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("iter %d mode %d: diff %g (stale retained buffer?)", iter, mode, d)
			}
			e.FactorUpdated(mode)
		}
	}
}

func TestRetainBuffersNoReallocation(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 400, 0.7, 423)
	fs := randomFactors(x, 4, 424)
	e, err := NewWithConfig(x, Balanced(4), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 4)
			e.MTTKRP(mode, fs, out)
			e.FactorUpdated(mode)
		}
	}
	sweep()
	peakAfterFirst := e.Stats().PeakValueBytes
	// Buffers must be identical across sweeps (pointer-stable).
	bufs := make(map[*node]*float64)
	for _, nd := range e.all {
		if nd.vals.Data != nil {
			bufs[nd] = &nd.vals.Data[0]
		}
	}
	sweep()
	for _, nd := range e.all {
		if p, ok := bufs[nd]; ok && &nd.vals.Data[0] != p {
			t.Fatal("retained buffer was reallocated")
		}
	}
	if got := e.Stats().PeakValueBytes; got != peakAfterFirst {
		t.Errorf("peak grew across sweeps with retained buffers: %d -> %d", peakAfterFirst, got)
	}
}

func TestRetainBuffersRankChange(t *testing.T) {
	x := tensor.RandomClustered(3, 10, 300, 0.6, 425)
	e, err := NewWithConfig(x, Balanced(3), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{4, 8, 2} { // grow then shrink
		fs := randomFactors(x, r, int64(r))
		for mode := 0; mode < 3; mode++ {
			out := dense.New(x.Dims[mode], r)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("rank %d mode %d: diff %g", r, mode, d)
			}
			e.FactorUpdated(mode)
		}
	}
	if e.Stats().PeakValueBytes <= 0 {
		t.Error("no peak accounting")
	}
}

// Steady-state sweeps must allocate (almost) nothing: every node's value
// storage is allocated once and rebuilt in place.
func BenchmarkRetainBuffersAblation(b *testing.B) {
	x := tensor.RandomClustered(4, 4096, 100000, 0.8, 426)
	fs := randomFactors(x, 16, 427)
	e, err := NewWithConfig(x, Balanced(4), Config{})
	if err != nil {
		b.Fatal(err)
	}
	out := dense.New(x.Dims[0], 16)
	b.Run("retain-buffers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for mode := 0; mode < 4; mode++ {
				mm := &dense.Matrix{Rows: x.Dims[mode], Cols: 16, Data: out.Data[:x.Dims[mode]*16]}
				e.MTTKRP(mode, fs, mm)
				e.FactorUpdated(mode)
			}
		}
	})
}
