package model

import (
	"math/rand"
	"testing"

	"adatm/internal/dense"
	"adatm/internal/memo"
	"adatm/internal/tensor"
)

// With exact projection counts, the model's index-byte prediction must match
// the engine's measured symbolic storage EXACTLY (same formula, real
// counts), and the peak-value-byte prediction must match the engine's
// measured resident value storage under the ALS sweep protocol. Orders 6–8
// are where the resident total exceeds the live set of any two consecutive
// leaf paths, so they pin that the model budgets what the engine keeps.
func TestPredictMemoryMatchesEngine(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, order := range []int{3, 4, 5, 6, 7, 8} {
			x := tensor.RandomClustered(order, 12, 600, 0.8, seed*100+int64(order))
			est := NewExactEstimator(x)
			strategies := []*memo.Strategy{memo.Flat(order), memo.Balanced(order)}
			if order >= 3 {
				strategies = append(strategies, memo.TwoGroup(order, order/2))
			}
			for _, s := range strategies {
				rank := 8
				pred := Predict(est, s, rank)
				eng, err := memo.New(x, s, 1, "")
				if err != nil {
					t.Fatal(err)
				}
				// Drive two full ALS sweeps: the first materializes every
				// non-leaf node, the second must allocate nothing more.
				fs := make([]*dense.Matrix, order)
				rng := rand.New(rand.NewSource(seed))
				for m := range fs {
					fs[m] = dense.Random(x.Dims[m], rank, rng)
				}
				for iter := 0; iter < 2; iter++ {
					for mode := 0; mode < order; mode++ {
						out := dense.New(x.Dims[mode], rank)
						eng.MTTKRP(mode, fs, out)
						eng.FactorUpdated(mode)
					}
				}
				stats := eng.Stats()
				if pred.IndexBytes != stats.IndexBytes {
					t.Errorf("order %d %s: predicted index bytes %d != measured %d",
						order, s, pred.IndexBytes, stats.IndexBytes)
				}
				if pred.PeakValueBytes != stats.PeakValueBytes {
					t.Errorf("order %d %s: predicted peak value bytes %d != measured %d",
						order, s, pred.PeakValueBytes, stats.PeakValueBytes)
				}
			}
		}
	}
}
