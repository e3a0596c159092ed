package model

import (
	"fmt"
	"testing"

	"adatm/internal/tensor"
)

func BenchmarkEstimatorBuild(b *testing.B) {
	for _, order := range []int{4, 6, 8} {
		x := tensor.RandomClustered(order, 4096, 100000, 0.8, int64(order))
		for _, k := range []int{256, 1024} {
			b.Run(fmt.Sprintf("order%d/k%d", order, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					NewEstimator(x, k, 0)
				}
				b.ReportMetric(float64(x.NNZ()), "nnz")
			})
		}
	}
	// The e2ebench als-order5 shape: Generate's mode-0-major order takes the
	// exact prefix path; the shuffled copy falls back to sketching.
	x := tensor.Generate(tensor.GenSpec{Dims: []int{4000, 4000, 4000, 4000, 500},
		Skew: []float64{.8, .8, .8, .8, .5}, NNZ: 360000, Seed: 4})
	for name, y := range map[string]*tensor.COO{"sorted": x, "shuffled": shuffled(x, 4)} {
		b.Run("als-order5/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewEstimator(y, 0, 0)
			}
			b.ReportMetric(float64(y.NNZ()), "nnz")
		})
	}
}

func BenchmarkSelect(b *testing.B) {
	x := tensor.RandomClustered(6, 4096, 100000, 0.8, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(x, Options{Rank: 16})
	}
}

func BenchmarkSelectPermuted(b *testing.B) {
	x := tensor.RandomClustered(5, 4096, 80000, 0.8, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectPermuted(x, Options{Rank: 16}, nil)
	}
}

func BenchmarkKMVOffer(b *testing.B) {
	s := newKMV(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.offer(mix64(uint64(i)))
	}
}
