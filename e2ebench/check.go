package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"adatm"
	"adatm/internal/cpd"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

const (
	fitTol   = 1e-6 // recomputed fit against the reported one
	agreeTol = 1e-9 // fits of two paths that compute the same thing
)

// checkOp verifies one op's output; it runs outside the timed interval.
func (w *workload) checkOp(in *input, out *outcome) error {
	res := out.res
	if !finite(res.Fit) {
		return fmt.Errorf("non-finite fit %v", res.Fit)
	}
	for _, l := range res.Lambda {
		if !finite(l) {
			return fmt.Errorf("non-finite lambda %v", l)
		}
	}
	if got := recomputeFit(out.x, res); !(math.Abs(got-res.Fit) <= fitTol) {
		return fmt.Errorf("reported fit %.12f, recomputed %.12f", res.Fit, got)
	}
	if w.kind != kindFile {
		return nil
	}
	if out.x.NNZ() != in.x.NNZ() {
		return fmt.Errorf("loaded %d nonzeros, generated %d", out.x.NNZ(), in.x.NNZ())
	}
	if d, ok := out.facts["tensor.dups_merged"]; ok && int(d) != in.splits {
		return fmt.Errorf("Dedup merged %d duplicates, the file split %d nonzeros", int(d), in.splits)
	}
	back, err := adatm.LoadModel(in.modelPath)
	if err != nil {
		return fmt.Errorf("read model back: %w", err)
	}
	return sameModel(res, back)
}

// recomputeFit evaluates 1 − ‖X − X̂‖/‖X‖ without the solver's code:
// ⟨X, X̂⟩ by reconstructing every (merged) nonzero, ‖X̂‖² from λ and the
// factor Grams computed here.
func recomputeFit(x *tensor.COO, res *cpd.Result) float64 {
	idx := make([]tensor.Index, x.Order())
	var normX2, inner float64
	for k, v := range x.Vals {
		for m := range idx {
			idx[m] = x.Inds[m][k]
		}
		normX2 += v * v
		inner += v * adatm.Reconstruct(res, idx)
	}
	r := len(res.Lambda)
	prod := make([]float64, r*r)
	for i := range prod {
		prod[i] = 1
	}
	gram := make([]float64, r*r)
	for _, f := range res.Factors {
		clear(gram)
		for i := 0; i < f.Rows; i++ {
			row := f.Data[i*f.Cols : i*f.Cols+r]
			for a, va := range row {
				g := gram[a*r : a*r+r]
				for b, vb := range row {
					g[b] += va * vb
				}
			}
		}
		for i, g := range gram {
			prod[i] *= g
		}
	}
	est2 := 0.0
	for a := 0; a < r; a++ {
		for b := 0; b < r; b++ {
			est2 += res.Lambda[a] * res.Lambda[b] * prod[a*r+b]
		}
	}
	res2 := math.Max(normX2+est2-2*inner, 0)
	return 1 - math.Sqrt(res2)/math.Sqrt(normX2)
}

// sameModel requires a bitwise match of λ and every factor.
func sameModel(a, b *cpd.Result) error {
	if !sameBits(a.Lambda, b.Lambda) || len(a.Factors) != len(b.Factors) {
		return fmt.Errorf("model read back differs in lambda or factor count")
	}
	for m := range a.Factors {
		fa, fb := a.Factors[m], b.Factors[m]
		if fa.Rows != fb.Rows || fa.Cols != fb.Cols || !sameBits(fa.Data, fb.Data) {
			return fmt.Errorf("model read back differs in factor %d", m)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sweepRatio times full MTTKRP sweeps (every mode in order, each followed
// by the invalidation ALS performs) over fixed random factors, alternating
// between e1 and e2 so that both see the same machine state. After one
// warm-up sweep each, it returns median(e1 sweep) / median(e2 sweep) over
// sweepPairs pairs.
func sweepRatio(e1, e2 engine.Engine, x *tensor.COO) (float64, error) {
	const sweepPairs = 10
	rng := rand.New(rand.NewSource(1))
	factors := make([]*dense.Matrix, x.Order())
	maxDim := 0
	for m, d := range x.Dims {
		factors[m] = dense.New(d, rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64()
		}
		maxDim = max(maxDim, d)
	}
	buf := dense.New(maxDim, rank)
	sweep := func(eng engine.Engine) (float64, error) {
		t0 := time.Now()
		for m, d := range x.Dims {
			out := &dense.Matrix{Rows: d, Cols: rank, Data: buf.Data[:d*rank]}
			if err := eng.MTTKRP(m, factors, out); err != nil {
				return 0, err
			}
			eng.FactorUpdated(m)
		}
		return time.Since(t0).Seconds(), nil
	}
	var t1, t2 []float64
	for s := 0; s <= sweepPairs; s++ {
		a, err := sweep(e1)
		if err != nil {
			return 0, err
		}
		b, err := sweep(e2)
		if err != nil {
			return 0, err
		}
		if s > 0 {
			t1, t2 = append(t1, a), append(t2, b)
		}
	}
	return median(t1) / median(t2), nil
}

// median interpolates between the middle order statistics; xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
