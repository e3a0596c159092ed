package exp

import (
	"fmt"
	"math"
	"time"

	"adatm"
	"adatm/internal/memo"
	"adatm/internal/model"
	"adatm/internal/tensor"
)

// E11SketchSensitivity ablates the KMV sketch size: estimation error of the
// projection counts, selection agreement with the exact model, and the cost
// of the estimation pass.
func E11SketchSensitivity(cfg Config) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "ablation: sketch size k vs estimation error, selection agreement, and cost",
		Columns: []string{"tensor", "k", "exact ranges", "max rel err", "mean rel err", "same pick as exact", "estimator time"},
	}
	for _, ds := range ProfileSuite(cfg, "delicious4d", "enron4d") {
		x := ds.X
		n := x.Order()
		exact := model.NewExactEstimator(x)
		exactPlan := model.SelectWithEstimator(exact, model.Options{Rank: cfg.rank()})
		for _, k := range []int{64, 256, 1024, 4096} {
			start := time.Now()
			est := model.NewEstimator(x, k, cfg.Workers)
			buildTime := time.Since(start)
			maxErr, sumErr, cnt := 0.0, 0.0, 0
			for lo := 0; lo < n; lo++ {
				for hi := lo + 1; hi <= n; hi++ {
					e := float64(exact.Distinct(lo, hi))
					g := float64(est.Distinct(lo, hi))
					rel := math.Abs(g-e) / e
					sumErr += rel
					cnt++
					if rel > maxErr {
						maxErr = rel
					}
				}
			}
			plan := model.SelectWithEstimator(est, model.Options{Rank: cfg.rank()})
			same := plan.Chosen.Strategy.Equal(exactPlan.Chosen.Strategy)
			exactRanges := 0
			for _, r := range plan.Ranges {
				if r.Exact {
					exactRanges++
				}
			}
			t.Add(ds.Name, k, fmt.Sprintf("%d/%d", exactRanges, cnt), fmt.Sprintf("%.1f%%", 100*maxErr), fmt.Sprintf("%.1f%%", 100*sumErr/float64(cnt)),
				fmt.Sprint(same), fmtDur(buildTime))
		}
	}
	t.Notes = append(t.Notes, "expected: error shrinks ~1/sqrt(k) on the sketched ranges; the selection stabilizes well before the counts do",
		"exact ranges: counted by run boundaries or a bitmap, so their error is 0 at every k")
	return t
}

// E12OverlapSensitivity sweeps the index skew of a synthetic tensor: the
// memoization advantage is a function of projection overlap, which skew
// controls directly.
func E12OverlapSensitivity(cfg Config) *Table {
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("ablation: memoization gain vs index skew (order-5 synthetic, R=%d)", cfg.rank()),
		Columns: []string{"skew", "comp(half)", "csf", "memo-balanced", "adaptive", "balanced/csf speedup"},
	}
	nnz := 150000
	if cfg.Quick {
		nnz = 25000
	}
	for _, skew := range []float64{0, 0.4, 0.8, 1.2} {
		x := tensor.RandomClustered(5, 4096, nnz, skew, 777+cfg.Seed)
		est := model.NewEstimator(x, 0, cfg.Workers)
		comp := float64(x.NNZ()) / float64(est.Distinct(0, 3))
		var times []time.Duration
		for _, kind := range []adatm.EngineKind{adatm.EngineCSF, adatm.EngineMemoBalanced, adatm.EngineAdaptive} {
			e, err := adatm.NewEngine(x, kind, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers})
			if err != nil {
				panic(err)
			}
			times = append(times, TimeSweeps(e, x, cfg.rank(), 2, 31))
		}
		t.Add(fmt.Sprintf("%.1f", skew), fmt.Sprintf("%.2f", comp),
			fmtDur(times[0]), fmtDur(times[1]), fmtDur(times[2]),
			fmt.Sprintf("%.2fx", float64(times[0])/float64(times[1])))
	}
	t.Notes = append(t.Notes, "higher skew => more index overlap after contraction => deeper trees pay off more")
	return t
}

// E13NNZScaling verifies the kernels scale linearly in the nonzero count.
func E13NNZScaling(cfg Config) *Table {
	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("sweep time vs nnz (order-4 synthetic, R=%d)", cfg.rank()),
		Columns: []string{"nnz", "coo", "csf", "adaptive", "adaptive us/knnz"},
	}
	sizes := []int{50000, 100000, 200000, 400000}
	if cfg.Quick {
		sizes = []int{20000, 40000, 80000}
	}
	for _, nnz := range sizes {
		x := tensor.RandomClustered(4, 8192, nnz, 0.7, 888+cfg.Seed)
		var times []time.Duration
		for _, kind := range []adatm.EngineKind{adatm.EngineCOO, adatm.EngineCSF, adatm.EngineAdaptive} {
			e, err := adatm.NewEngine(x, kind, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers})
			if err != nil {
				panic(err)
			}
			times = append(times, TimeSweeps(e, x, cfg.rank(), 2, 37))
		}
		perK := float64(times[2].Microseconds()) / (float64(x.NNZ()) / 1000)
		t.Add(x.NNZ(), fmtDur(times[0]), fmtDur(times[1]), fmtDur(times[2]), fmt.Sprintf("%.2f", perK))
	}
	t.Notes = append(t.Notes, "us/knnz should stay roughly flat: the kernels are linear in nnz")
	return t
}

// E14CompletionQuality reports the masked-completion extension: held-out
// RMSE vs the mean baseline and the zero-imputing decomposition.
func E14CompletionQuality(cfg Config) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "extension: masked completion vs zero-imputing CP on held-out entries",
		Columns: []string{"model", "train RMSE", "test RMSE", "vs mean baseline"},
	}
	nnz := 120000
	if cfg.Quick {
		nnz = 30000
	}
	full := tensor.Generate(tensor.GenSpec{
		Name: "ratings", Dims: []int{1200, 500, 40}, NNZ: nnz,
		Skew: []float64{0.3, 0.5, 0.1}, Rank: 5, Noise: 0.05, Seed: 555 + cfg.Seed,
	})
	train, testIdx, testVals := holdOut(full, 0.1)
	mu := 0.0
	for _, v := range train.Vals {
		mu += v
	}
	mu /= float64(train.NNZ())
	baseRMSE := rmseOver(testIdx, testVals, func([]tensor.Index) float64 { return mu })
	t.Add("predict-the-mean", "-", fmt.Sprintf("%.4f", baseRMSE), "1.00x")

	dec, err := adatm.Decompose(train, adatm.Options{Rank: 8, MaxIters: 20, Tol: 1e-6, Seed: 3, Workers: cfg.Workers})
	if err != nil {
		panic(err)
	}
	zeroRMSE := rmseOver(testIdx, testVals, func(idx []tensor.Index) float64 { return adatm.Reconstruct(dec, idx) })
	t.Add("zero-imputing CP r=8", "-", fmt.Sprintf("%.4f", zeroRMSE), fmt.Sprintf("%.2fx", baseRMSE/zeroRMSE))

	for _, r := range []int{4, 8} {
		res, err := adatm.Complete(train, adatm.CompleteOptions{Rank: r, MaxIters: 20, Seed: 3, Ridge: 0.05, Workers: cfg.Workers})
		if err != nil {
			panic(err)
		}
		rmse := rmseOver(testIdx, testVals, res.Predict)
		t.Add(fmt.Sprintf("masked completion r=%d", r), fmt.Sprintf("%.4f", res.RMSE),
			fmt.Sprintf("%.4f", rmse), fmt.Sprintf("%.2fx", baseRMSE/rmse))
	}
	t.Notes = append(t.Notes, "completion must beat the mean baseline; zero-imputing CP is expected to lose (bias toward zero)")
	return t
}

func holdOut(x *tensor.COO, frac float64) (train *tensor.COO, testIdx [][]tensor.Index, testVals []float64) {
	train = tensor.NewCOO(x.Dims, x.NNZ())
	idx := make([]tensor.Index, x.Order())
	for k := 0; k < x.NNZ(); k++ {
		for m := range idx {
			idx[m] = x.Inds[m][k]
		}
		// Deterministic pseudo-random split from the coordinate hash.
		h := uint64(2166136261)
		for _, i := range idx {
			h = (h ^ uint64(i)) * 16777619
		}
		if float64(h%1000)/1000 < frac {
			testIdx = append(testIdx, append([]tensor.Index(nil), idx...))
			testVals = append(testVals, x.Vals[k])
		} else {
			train.Append(idx, x.Vals[k])
		}
	}
	return train, testIdx, testVals
}

func rmseOver(idx [][]tensor.Index, vals []float64, predict func([]tensor.Index) float64) float64 {
	s := 0.0
	for i, coords := range idx {
		d := vals[i] - predict(coords)
		s += d * d
	}
	return math.Sqrt(s / float64(len(vals)))
}

// E15SymbolicThroughput compares the radix-based symbolic builder's
// throughput across strategies and orders (design-choice ablation).
func E15SymbolicThroughput(cfg Config) *Table {
	t := &Table{
		ID:      "E15",
		Title:   "ablation: symbolic-phase throughput (radix builder) by strategy and order",
		Columns: []string{"tensor", "strategy", "symbolic time", "Mnnz/s", "index bytes"},
	}
	suite := append(ProfileSuite(cfg, "delicious4d"), RandomOrderSuite(cfg, []int{6, 8})...)
	for _, ds := range suite {
		x := ds.X
		n := x.Order()
		for _, s := range []struct {
			name string
			str  *memo.Strategy
		}{{"flat", memo.Flat(n)}, {"balanced", memo.Balanced(n)}} {
			start := time.Now()
			e, err := memo.New(x, s.str, cfg.Workers, s.name)
			if err != nil {
				panic(err)
			}
			d := time.Since(start)
			mnnzs := float64(x.NNZ()) / 1e6 / d.Seconds()
			t.Add(ds.Name, s.name, fmtDur(d), fmt.Sprintf("%.1f", mnnzs), fmtMiB(e.Stats().IndexBytes))
		}
	}
	return t
}
