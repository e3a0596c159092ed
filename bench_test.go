// Benchmark harness: one testing.B benchmark per experiment table/figure of
// the evaluation (see DESIGN.md §3). cmd/adabench produces the full
// paper-style tables; these benchmarks regenerate the same series under
// `go test -bench`, sized to finish quickly.
package adatm_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adatm"
	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/dist"
	"adatm/internal/engine"
	"adatm/internal/exp"
	"adatm/internal/memo"
	"adatm/internal/model"
	"adatm/internal/tensor"
)

// benchCfg keeps benchmark datasets small enough for CI while preserving
// the comparative shapes.
var benchCfg = exp.Config{Quick: true, Rank: 16}

var (
	datasetOnce  sync.Once
	benchTensors map[string]*tensor.COO
)

func dataset(name string) *tensor.COO {
	datasetOnce.Do(func() {
		benchTensors = map[string]*tensor.COO{}
		for _, ds := range exp.ProfileSuite(benchCfg, "delicious4d", "flickr4d", "netflix3d", "enron4d") {
			benchTensors[ds.Name] = ds.X
		}
		for _, ds := range exp.RandomOrderSuite(benchCfg, []int{3, 4, 6, 8}) {
			benchTensors[ds.Name] = ds.X
		}
	})
	return benchTensors[name]
}

func newEngine(b *testing.B, x *tensor.COO, kind adatm.EngineKind, rank, workers int) engine.Engine {
	b.Helper()
	e, err := adatm.NewEngine(x, kind, adatm.EngineConfig{Rank: rank, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchSweep times one full MTTKRP mode sweep per b.N iteration.
func benchSweep(b *testing.B, x *tensor.COO, e engine.Engine, rank int) {
	b.Helper()
	fs := make([]*dense.Matrix, x.Order())
	rng := rand.New(rand.NewSource(7))
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], rank, rng)
	}
	out := dense.New(maxDim(x.Dims), rank)
	exp.SweepOnce(e, x, fs, out) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.SweepOnce(e, x, fs, out)
	}
	b.ReportMetric(float64(x.NNZ()), "nnz")
}

// BenchmarkE1_MTTKRP regenerates table E1: sweep time per engine per tensor.
func BenchmarkE1_MTTKRP(b *testing.B) {
	for _, name := range []string{"netflix3d", "delicious4d", "flickr4d", "enron4d"} {
		x := dataset(name)
		for _, kind := range adatm.EngineKinds() {
			b.Run(fmt.Sprintf("%s/%s", name, kind), func(b *testing.B) {
				benchSweep(b, x, newEngine(b, x, kind, benchCfg.Rank, 0), benchCfg.Rank)
			})
		}
	}
}

// BenchmarkE2_CPALSIteration regenerates table E2: one full ALS iteration.
func BenchmarkE2_CPALSIteration(b *testing.B) {
	x := dataset("delicious4d")
	for _, kind := range adatm.EngineKinds() {
		b.Run(string(kind), func(b *testing.B) {
			eng := newEngine(b, x, kind, benchCfg.Rank, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := adatm.DecomposeWith(x, eng, adatm.Options{Rank: benchCfg.Rank, MaxIters: 1, Tol: 1e-12, Seed: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_OrderScaling regenerates figure E3: sweep time vs order.
func BenchmarkE3_OrderScaling(b *testing.B) {
	for _, order := range []int{3, 4, 6, 8} {
		x := dataset(fmt.Sprintf("random%dd", order))
		for _, kind := range []adatm.EngineKind{adatm.EngineCSF, adatm.EngineMemoBalanced, adatm.EngineAdaptive} {
			b.Run(fmt.Sprintf("order%d/%s", order, kind), func(b *testing.B) {
				benchSweep(b, x, newEngine(b, x, kind, benchCfg.Rank, 0), benchCfg.Rank)
			})
		}
	}
}

// BenchmarkE4_RankSweep regenerates figure E4: sweep time vs rank.
func BenchmarkE4_RankSweep(b *testing.B) {
	x := dataset("delicious4d")
	for _, rank := range []int{8, 16, 32, 64} {
		for _, kind := range []adatm.EngineKind{adatm.EngineCSF, adatm.EngineAdaptive} {
			b.Run(fmt.Sprintf("rank%d/%s", rank, kind), func(b *testing.B) {
				benchSweep(b, x, newEngine(b, x, kind, rank, 0), rank)
			})
		}
	}
}

// BenchmarkE5_ThreadScaling regenerates figure E5: sweep time vs workers.
func BenchmarkE5_ThreadScaling(b *testing.B) {
	x := dataset("flickr4d")
	for _, w := range []int{1, 2, 4, 8} {
		for _, kind := range []adatm.EngineKind{adatm.EngineCSF, adatm.EngineMemoBalanced} {
			b.Run(fmt.Sprintf("workers%d/%s", w, kind), func(b *testing.B) {
				benchSweep(b, x, newEngine(b, x, kind, benchCfg.Rank, w), benchCfg.Rank)
			})
		}
	}
}

// BenchmarkE6_MemoryFootprint regenerates table E6 as reported metrics:
// auxiliary bytes per engine after a sweep.
func BenchmarkE6_MemoryFootprint(b *testing.B) {
	x := dataset("enron4d")
	for _, kind := range adatm.EngineKinds() {
		b.Run(string(kind), func(b *testing.B) {
			eng := newEngine(b, x, kind, benchCfg.Rank, 0)
			benchSweep(b, x, eng, benchCfg.Rank)
			s := eng.Stats()
			b.ReportMetric(float64(s.IndexBytes), "index-bytes")
			b.ReportMetric(float64(s.PeakValueBytes), "peak-value-bytes")
		})
	}
}

// BenchmarkE7_ModelSelection regenerates experiment E7's cost: the full
// model-driven selection pass (sketching + candidate scoring + DP).
func BenchmarkE7_ModelSelection(b *testing.B) {
	for _, name := range []string{"delicious4d", "random6d"} {
		x := dataset(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := model.Select(x, model.Options{Rank: benchCfg.Rank})
				if plan.Chosen.Strategy == nil {
					b.Fatal("no strategy chosen")
				}
			}
		})
	}
}

// BenchmarkE8_BudgetedSelection regenerates experiment E8's selection under
// a shrinking budget.
func BenchmarkE8_BudgetedSelection(b *testing.B) {
	x := dataset("enron4d")
	full := adatm.PlanFor(x, benchCfg.Rank, 0)
	budget := (full.Chosen.Pred.IndexBytes + full.Chosen.Pred.PeakValueBytes) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := adatm.PlanFor(x, benchCfg.Rank, budget)
		if plan.Chosen.Strategy == nil {
			b.Fatal("no choice")
		}
	}
}

// BenchmarkE9_SymbolicPhase regenerates experiment E9's one-time cost: the
// symbolic tree construction.
func BenchmarkE9_SymbolicPhase(b *testing.B) {
	for _, name := range []string{"delicious4d", "random6d"} {
		x := dataset(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := memo.New(x, memo.Balanced(x.Order()), 0, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_EndToEnd regenerates experiment E10's end-to-end run: full
// CP-ALS to convergence with the adaptive engine.
func BenchmarkE10_EndToEnd(b *testing.B) {
	x := dataset("netflix3d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := adatm.Decompose(x, adatm.Options{Rank: 8, MaxIters: 10, Tol: 1e-6, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fit, "fit")
	}
}

// BenchmarkE16_PermutedSelection regenerates experiment E16's selection
// pass: permutation-aware model-driven planning.
func BenchmarkE16_PermutedSelection(b *testing.B) {
	x := dataset("random4d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp := adatm.PlanPermutedFor(x, benchCfg.Rank, 0)
		if pp.Chosen.Plan == nil {
			b.Fatal("no permuted choice")
		}
	}
}

// BenchmarkE17_NVecsInit regenerates experiment E17's one-time cost: the
// HOSVD-style initialization.
func BenchmarkE17_NVecsInit(b *testing.B) {
	x := dataset("netflix3d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adatm.NVecsInit(x, 8, 2, 1, 0)
	}
}

// BenchmarkE18_APRIteration regenerates experiment E18's kernel: one outer
// CP-APR iteration on count data.
func BenchmarkE18_APRIteration(b *testing.B) {
	x := dataset("enron4d").Clone()
	for k := range x.Vals {
		if x.Vals[k] < 0 {
			x.Vals[k] = -x.Vals[k]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adatm.DecomposeAPR(x, adatm.APROptions{Rank: 8, MaxIters: 1, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE21_Partitioners regenerates experiment E21's kernels: one
// partitioning + communication analysis per scheme.
func BenchmarkE21_Partitioners(b *testing.B) {
	x := dataset("delicious4d")
	schemes := map[string]func() *dist.Partition{
		"random":       func() *dist.Partition { return dist.RandomPartition(x, 16, 1) },
		"medium-grain": func() *dist.Partition { return dist.MediumGrainPartition(x, 16) },
		"fine-greedy":  func() *dist.Partition { return dist.FineGrainGreedyPartition(x, 16, 1) },
	}
	for name, build := range schemes {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := build()
				if _, stats := dist.AnalyzeComm(x, p); stats.TotalRows < 0 {
					b.Fatal("bad stats")
				}
			}
		})
	}
}

// BenchmarkE22_DistributedSweep is the measured counterpart of E22's
// α–β predictions: one sharded CP-ALS iteration of dist.Run over 8
// processes (fine-greedy partition, in-process transport, COO shards).
func BenchmarkE22_DistributedSweep(b *testing.B) {
	x := dataset("flickr4d")
	c := dist.NewCluster(x, dist.FineGrainGreedyPartition(x, 8, 1), func(s *tensor.COO) engine.Engine {
		return coo.New(s, 1)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := dist.NewChanTransport(8)
		_, err := dist.Run(x, c, tr, dist.RunOptions{Rank: benchCfg.Rank, MaxIters: 1, Seed: 1})
		tr.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(x.NNZ()), "nnz")
}

func maxDim(dims []int) int {
	m := 0
	for _, d := range dims {
		if d > m {
			m = d
		}
	}
	return m
}
