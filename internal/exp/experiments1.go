package exp

import (
	"fmt"
	"time"

	"adatm"
	"adatm/internal/model"
	"adatm/internal/par"
)

// T1DatasetTable reports the statistics of the dataset suite, including the
// root-split compression factors that drive memoization gains (nnz divided
// by the distinct-tuple count of each half of the mode range).
func T1DatasetTable(cfg Config) *Table {
	t := &Table{
		ID:      "T1",
		Title:   "dataset suite (synthetic, shape-matched to the literature's tensors)",
		Columns: []string{"tensor", "order", "dims", "nnz", "density", "comp(lo-half)", "comp(hi-half)"},
	}
	suite := append(ProfileSuite(cfg), RandomOrderSuite(cfg, []int{4, 6, 8})...)
	for _, ds := range suite {
		x := ds.X
		n := x.Order()
		est := model.NewEstimator(x, 0, cfg.Workers)
		mid := (n + 1) / 2
		compLo := float64(x.NNZ()) / float64(est.Distinct(0, mid))
		compHi := float64(x.NNZ()) / float64(est.Distinct(mid, n))
		t.Add(ds.Name, n, fmt.Sprint(x.Dims), x.NNZ(), fmt.Sprintf("%.2e", x.Density()),
			fmt.Sprintf("%.2f", compLo), fmt.Sprintf("%.2f", compHi))
	}
	t.Notes = append(t.Notes, "comp(·) = nnz / distinct tuples of that half of the modes; higher means more memoization reuse")
	return t
}

// E1MTTKRPTime compares one full MTTKRP sweep (all modes) across every
// engine on the profile suite. This is the paper's core kernel comparison.
func E1MTTKRPTime(cfg Config) *Table {
	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("MTTKRP sweep time per engine (R=%d), speedup vs csf in parens", cfg.rank()),
		Columns: []string{"tensor"},
	}
	suite := ProfileSuite(cfg)
	kinds := adatm.EngineKinds()
	for _, k := range kinds {
		t.Columns = append(t.Columns, string(k))
	}
	for _, ds := range suite {
		engines := EngineSet(ds.X, cfg)
		times := make([]time.Duration, len(engines))
		for i, e := range engines {
			times[i] = TimeSweeps(e, ds.X, cfg.rank(), 3, 7)
		}
		csfTime := times[1] // kinds[1] == csf
		row := []any{ds.Name}
		for i := range engines {
			row = append(row, fmt.Sprintf("%s (%.2fx)", fmtDur(times[i]), float64(csfTime)/float64(times[i])))
		}
		t.Add(row...)
	}
	return t
}

// E2CPALSIter compares full CP-ALS per-iteration time (MTTKRP + dense
// updates + fit) across engines.
func E2CPALSIter(cfg Config) *Table {
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("CP-ALS time per iteration (R=%d), speedup vs csf in parens", cfg.rank()),
		Columns: []string{"tensor"},
	}
	kinds := adatm.EngineKinds()
	for _, k := range kinds {
		t.Columns = append(t.Columns, string(k))
	}
	iters := 4
	for _, ds := range ProfileSuite(cfg) {
		row := []any{ds.Name}
		var csfPer time.Duration
		for i, k := range kinds {
			opt := adatm.Options{
				Rank: cfg.rank(), MaxIters: iters, Tol: 1e-12, Seed: 5, Workers: cfg.Workers, Engine: k,
			}
			if cfg.Health != nil {
				opt.Health = cfg.Health(ds.Name + "/" + string(k))
			}
			res, err := adatm.Decompose(ds.X, opt)
			if err != nil {
				panic(err)
			}
			per := res.TotalTime / time.Duration(res.Iters)
			if i == 1 {
				csfPer = per
			}
			if csfPer > 0 {
				row = append(row, fmt.Sprintf("%s (%.2fx)", fmtDur(per), float64(csfPer)/float64(per)))
			} else {
				row = append(row, fmtDur(per))
			}
		}
		t.Add(row...)
	}
	return t
}

// E3OrderScaling shows how the memoization advantage grows with tensor
// order on shape-controlled random tensors.
func E3OrderScaling(cfg Config) *Table {
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("MTTKRP sweep time vs tensor order (random clustered tensors, R=%d)", cfg.rank()),
		Columns: []string{"order"},
	}
	kinds := adatm.EngineKinds()
	for _, k := range kinds {
		t.Columns = append(t.Columns, string(k))
	}
	t.Columns = append(t.Columns, "best-memo/csf")
	orders := []int{3, 4, 5, 6, 8}
	if cfg.Quick {
		orders = []int{3, 4, 6}
	}
	for _, ds := range RandomOrderSuite(cfg, orders) {
		engines := EngineSet(ds.X, cfg)
		row := []any{ds.X.Order()}
		var csfTime, bestMemo time.Duration
		for i, e := range engines {
			d := TimeSweeps(e, ds.X, cfg.rank(), 3, 9)
			row = append(row, fmtDur(d))
			if i == 1 {
				csfTime = d
			}
			if i >= 2 && (bestMemo == 0 || d < bestMemo) {
				bestMemo = d
			}
		}
		row = append(row, fmt.Sprintf("%.2fx", float64(csfTime)/float64(bestMemo)))
		t.Add(row...)
	}
	t.Notes = append(t.Notes, "expected shape: memoized engines pull away from the baselines as order grows")
	return t
}

// E4RankSweep varies the decomposition rank on a 4-order tensor.
func E4RankSweep(cfg Config) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "MTTKRP sweep time vs rank (delicious4d profile)",
		Columns: []string{"rank"},
	}
	kinds := adatm.EngineKinds()
	for _, k := range kinds {
		t.Columns = append(t.Columns, string(k))
	}
	ds := ProfileSuite(cfg, "delicious4d")[0]
	ranks := []int{8, 16, 32, 64}
	if cfg.Quick {
		ranks = []int{8, 32}
	}
	for _, r := range ranks {
		row := []any{r}
		for _, k := range kinds {
			e, err := adatm.NewEngine(ds.X, k, adatm.EngineConfig{Rank: r, Workers: cfg.Workers})
			if err != nil {
				panic(err)
			}
			row = append(row, fmtDur(TimeSweeps(e, ds.X, r, 3, 11)))
		}
		t.Add(row...)
	}
	return t
}

// E5ThreadScaling measures the parallel speedup of each engine.
func E5ThreadScaling(cfg Config) *Table {
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("MTTKRP sweep time vs worker count (flickr4d profile, R=%d)", cfg.rank()),
		Columns: []string{"workers"},
	}
	kinds := []adatm.EngineKind{adatm.EngineCOO, adatm.EngineCSF, adatm.EngineMemoBalanced, adatm.EngineAdaptive}
	for _, k := range kinds {
		t.Columns = append(t.Columns, string(k))
	}
	ds := ProfileSuite(cfg, "flickr4d")[0]
	max := cfg.Workers
	if max <= 0 {
		max = defaultMaxWorkers()
	}
	if par.MaxWorkers() == 1 {
		t.Notes = append(t.Notes,
			"HOST LIMITATION: GOMAXPROCS=1 on this machine — parallel speedup cannot manifest; extra workers only measure scheduling overhead")
		if max < 4 {
			max = 4
		}
	}
	base := make(map[adatm.EngineKind]time.Duration)
	for w := 1; w <= max; w *= 2 {
		row := []any{w}
		for _, k := range kinds {
			e, err := adatm.NewEngine(ds.X, k, adatm.EngineConfig{Rank: cfg.rank(), Workers: w})
			if err != nil {
				panic(err)
			}
			d := TimeSweeps(e, ds.X, cfg.rank(), 2, 13)
			if w == 1 {
				base[k] = d
			}
			row = append(row, fmt.Sprintf("%s (%.2fx)", fmtDur(d), float64(base[k])/float64(d)))
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes, "parens: self-relative speedup over the engine's single-worker time")
	return t
}

// defaultMaxWorkers returns the largest power of two not exceeding
// GOMAXPROCS, so the scaling table halves cleanly.
func defaultMaxWorkers() int {
	w := 1
	for w*2 <= par.MaxWorkers() {
		w *= 2
	}
	return w
}
