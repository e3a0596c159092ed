package cpd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"adatm/internal/dense"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Tensor completion: alternating least squares on the *observed* entries
// only. Unlike Run, which treats unobserved coordinates as zeros (the right
// semantics for count data), Complete solves the masked problem
//
//	min_{U} Σ_{(i₁..i_N) ∈ Ω} ( x_{i₁..i_N} − Σ_r Π_n U⁽ⁿ⁾(i_n, r) )² + λ‖U‖²
//
// which is the recommender-system semantics: missing entries are unknown,
// not zero. Each mode-n row update solves its own R×R normal system built
// from that row's observed entries, so the per-iteration cost is
// O(nnz·R² + rows·R³).

// CompleteOptions configures Complete.
type CompleteOptions struct {
	Rank     int
	MaxIters int     // default 30
	Tol      float64 // convergence threshold on observed RMSE change (default 1e-5)
	Seed     int64
	Workers  int
	Ridge    float64 // per-row Tikhonov term; default 1e-3 (0 keeps the default; use negative to force 0)
	// TrackRMSE retains the observed-entry RMSE after every iteration.
	TrackRMSE bool
}

// CompleteResult is a completion model: factors without the λ normalization
// (scale is left inside the factors, as is customary for completion).
type CompleteResult struct {
	Factors   []*dense.Matrix
	Iters     int
	RMSE      float64 // observed-entry RMSE after the final iteration
	Converged bool
	RMSETrace []float64
	TotalTime time.Duration
}

// rowIndex is a CSR-like view grouping nonzeros by their index in one mode.
type rowIndex struct {
	ptr   []int32 // len dims[mode]+1
	elems []int32 // nonzero ids grouped by row
}

func buildRowIndex(x *tensor.COO, mode int) rowIndex {
	ind := x.Inds[mode]
	ri := rowIndex{ptr: make([]int32, x.Dims[mode]+1), elems: make([]int32, x.NNZ())}
	for _, i := range ind {
		ri.ptr[i+1]++
	}
	for i := 1; i < len(ri.ptr); i++ {
		ri.ptr[i] += ri.ptr[i-1]
	}
	next := append([]int32(nil), ri.ptr[:len(ri.ptr)-1]...)
	for k := 0; k < x.NNZ(); k++ {
		i := ind[k]
		ri.elems[next[i]] = int32(k)
		next[i]++
	}
	return ri
}

// Complete fits a completion model to the observed entries of x.
func Complete(x *tensor.COO, opt CompleteOptions) (*CompleteResult, error) {
	// Validate before anything indexes by the declared dims: an out-of-range
	// index would otherwise panic deep in the loop (inside a worker
	// goroutine of the masked row update, where the caller cannot recover
	// it).
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("cpd: %w", err)
	}
	n := x.Order()
	if opt.Rank <= 0 {
		return nil, errors.New("cpd: Rank must be positive")
	}
	if x.NNZ() == 0 {
		return nil, errors.New("cpd: empty tensor")
	}
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 30
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-5
	}
	ridge := opt.Ridge
	if ridge == 0 {
		ridge = 1e-3
	} else if ridge < 0 {
		ridge = 0
	}
	r := opt.Rank

	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*dense.Matrix, n)
	for m := 0; m < n; m++ {
		factors[m] = dense.Random(x.Dims[m], r, rng)
		// Small magnitudes keep the first products near the data scale.
		factors[m].Scale(0.5)
	}
	rows := make([]rowIndex, n)
	for m := 0; m < n; m++ {
		rows[m] = buildRowIndex(x, m)
	}

	res := &CompleteResult{Factors: factors}
	start := time.Now()
	prev := math.Inf(1)
	for iter := 1; iter <= maxIters; iter++ {
		for mode := 0; mode < n; mode++ {
			updateModeMasked(x, factors, rows[mode], mode, ridge, opt.Workers)
		}
		rmse := observedRMSE(x, factors, opt.Workers)
		if opt.TrackRMSE {
			res.RMSETrace = append(res.RMSETrace, rmse)
		}
		res.Iters = iter
		res.RMSE = rmse
		if math.Abs(prev-rmse) < tol {
			res.Converged = true
			break
		}
		prev = rmse
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// updateModeMasked solves, for every row i of the mode's factor, the
// normal system built from the row's observed entries:
// ( Σ_k h_k h_kᵀ + λI ) u = Σ_k x_k h_k, where h_k is the Hadamard product
// of the other modes' factor rows at nonzero k. Rows are independent.
func updateModeMasked(x *tensor.COO, factors []*dense.Matrix, ri rowIndex, mode int, ridge float64, workers int) {
	n := x.Order()
	r := factors[mode].Cols
	par.ForBlocks(x.Dims[mode], 64, workers, func(lo, hi int) {
		h := make([]float64, r)
		a := dense.New(r, r)
		b := make([]float64, r)
		for i := lo; i < hi; i++ {
			k0, k1 := ri.ptr[i], ri.ptr[i+1]
			if k0 == k1 {
				continue // unobserved row: leave the prior factor row
			}
			a.Zero()
			for j := range b {
				b[j] = 0
			}
			for e := k0; e < k1; e++ {
				k := ri.elems[e]
				for j := range h {
					h[j] = 1
				}
				for m := 0; m < n; m++ {
					if m == mode {
						continue
					}
					f := factors[m].Row(int(x.Inds[m][k]))
					for j := range h {
						h[j] *= f[j]
					}
				}
				v := x.Vals[k]
				for p := 0; p < r; p++ {
					hp := h[p]
					b[p] += v * hp
					if hp == 0 {
						continue
					}
					arow := a.Row(p)
					for q := 0; q < r; q++ {
						arow[q] += hp * h[q]
					}
				}
			}
			for p := 0; p < r; p++ {
				a.Set(p, p, a.At(p, p)+ridge)
			}
			solveRowSystem(a, b, factors[mode].Row(i))
		}
	})
}

// solveRowSystem solves a·u = b for one factor row, falling back to the
// pseudoinverse when the per-row system is singular.
func solveRowSystem(a *dense.Matrix, b, out []float64) {
	l, ok := dense.Cholesky(a)
	if !ok {
		pinv := dense.PseudoInverseSym(a, 0)
		for p := range out {
			s := 0.0
			for q := range b {
				s += pinv.At(p, q) * b[q]
			}
			out[p] = s
		}
		return
	}
	r := len(b)
	y := make([]float64, r)
	for i := 0; i < r; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	for i := r - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < r; k++ {
			s -= l.At(k, i) * out[k]
		}
		out[i] = s / l.At(i, i)
	}
}

// observedRMSE evaluates the model on the observed entries.
func observedRMSE(x *tensor.COO, factors []*dense.Matrix, workers int) float64 {
	n := x.Order()
	r := factors[0].Cols
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	partial := make([]float64, w)
	par.ForWorker(x.NNZ(), w, func(worker, lo, hi int) {
		h := make([]float64, r)
		s := 0.0
		for k := lo; k < hi; k++ {
			for j := range h {
				h[j] = 1
			}
			for m := 0; m < n; m++ {
				f := factors[m].Row(int(x.Inds[m][k]))
				for j := range h {
					h[j] *= f[j]
				}
			}
			est := 0.0
			for _, v := range h {
				est += v
			}
			d := x.Vals[k] - est
			s += d * d
		}
		partial[worker] += s
	})
	total := 0.0
	for _, s := range partial {
		total += s
	}
	return math.Sqrt(total / float64(x.NNZ()))
}

// Predict evaluates a completion model at one coordinate.
func (c *CompleteResult) Predict(idx []tensor.Index) float64 {
	return evalCP(nil, c.Factors, idx)
}
