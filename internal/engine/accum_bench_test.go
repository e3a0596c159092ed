// Scatter-vs-privatize MTTKRP benchmark (make bench-mttkrp -> BENCH_6.json).
// Two shapes bracket the accumulation trade-off:
//
//   - short: a 16-row mode shared by every nonzero — the scatter path pays a
//     striped lock round-trip per nonzero on perpetually hot rows, while the
//     privatized path streams lock-free and folds 16×R doubles at the end.
//   - long: a 256Ki-row mode — scatter locks are uncontended and cold, while
//     privatization must zero and reduce W full output copies.
//
// The "auto" variants show what the model resolves to; at GOMAXPROCS >= 4 it
// should privatize the short mode and keep scatter on the long one.
package engine_test

import (
	"fmt"
	"testing"

	"adatm/internal/accum"
	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/hicoo"
	"adatm/internal/memo"
	"adatm/internal/tensor"
)

type accumBenchShape struct {
	name string
	spec tensor.GenSpec
}

var accumBenchShapes = []accumBenchShape{
	{"short16", tensor.GenSpec{
		Name: "short16",
		Dims: []int{16, 2048, 2048},
		NNZ:  200000,
		Skew: []float64{0, 0.9, 0.9},
		Seed: 251,
	}},
	{"long256k", tensor.GenSpec{
		Name: "long256k",
		Dims: []int{1 << 18, 64, 64},
		NNZ:  200000,
		Skew: []float64{0.4, 0, 0},
		Seed: 257,
	}},
}

func accumBenchEngines(b *testing.B, x *tensor.COO, s accum.Strategy) []engine.Engine {
	b.Helper()
	cfg := accum.Config{Strategy: s}
	memoEng, err := memo.NewWithConfig(x, memo.Flat(x.Order()),
		memo.Config{Name: "memo-flat", Accum: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return []engine.Engine{
		coo.NewWithAccum(x, 0, cfg),
		hicoo.NewWithAccum(x, 0, cfg),
		memoEng,
	}
}

// BenchmarkMTTKRPAccum times mode-0 MTTKRP (the mode whose accumulation the
// shapes are built to stress) per shape x engine x strategy.
func BenchmarkMTTKRPAccum(b *testing.B) {
	const r = 16
	for _, sh := range accumBenchShapes {
		x := tensor.Generate(sh.spec)
		fs := factors(x, r, sh.spec.Seed+1)
		for _, s := range []accum.Strategy{accum.Scatter, accum.Privatize, accum.Auto} {
			for _, e := range accumBenchEngines(b, x, s) {
				name := fmt.Sprintf("%s/%s/%s", sh.name, e.Name(), s)
				b.Run(name, func(b *testing.B) {
					out := dense.New(x.Dims[0], r)
					if err := e.MTTKRP(0, fs, out); err != nil { // warm: pools, arenas, memo tree
						b.Fatal(err)
					}
					b.SetBytes(int64(x.NNZ()) * int64(x.Order()) * 8)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.MTTKRP(0, fs, out)
					}
				})
			}
		}
	}
}
