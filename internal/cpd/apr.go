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

// CP-APR: CANDECOMP/PARAFAC alternating Poisson regression (Chi & Kolda,
// 2012) with multiplicative updates. For count tensors, maximizing the
// Poisson log-likelihood
//
//	max Σ_i x_i·log(m_i) − m_i,   m = Σ_r λ_r u¹ᵣ ∘ … ∘ uᴺᵣ,  U ≥ 0
//
// is the statistically right objective (CP-ALS minimizes a Gaussian loss).
// The multiplicative update only evaluates the model at the *nonzero*
// coordinates, so each inner iteration streams the nonzeros once per mode —
// the same data-access pattern as MTTKRP with the same row-grouping reuse.

// APROptions configures RunAPR.
type APROptions struct {
	Rank      int
	MaxIters  int     // outer iterations (default 25)
	InnerIter int     // multiplicative updates per mode per outer iteration (default 5)
	Tol       float64 // convergence threshold on log-likelihood change per nonzero (default 1e-6)
	Seed      int64
	Workers   int
	// TrackLL retains the per-outer-iteration average log-likelihood.
	TrackLL bool
}

// APRResult is a fitted Poisson CP model.
type APRResult struct {
	Lambda    []float64
	Factors   []*dense.Matrix // column-stochastic up to Lambda (columns sum to Lambda)
	Iters     int
	LogLik    float64 // final Σ x·log(m) − m (up to the constant Σ log(x!))
	Converged bool
	LLTrace   []float64
	TotalTime time.Duration
}

// RunAPR fits a Poisson CP model to a non-negative (count) tensor.
func RunAPR(x *tensor.COO, opt APROptions) (*APRResult, error) {
	// Validate before anything indexes by the declared dims: an out-of-range
	// index would otherwise panic deep in the loop (inside a worker
	// goroutine for APR, where the caller cannot recover it).
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
	for _, v := range x.Vals {
		if v < 0 {
			return nil, errors.New("cpd: CP-APR requires a non-negative tensor")
		}
	}
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 25
	}
	inner := opt.InnerIter
	if inner <= 0 {
		inner = 5
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	r := opt.Rank

	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*dense.Matrix, n)
	for m := 0; m < n; m++ {
		factors[m] = dense.Random(x.Dims[m], r, rng)
		for i := range factors[m].Data {
			factors[m].Data[i] += 0.1 // bound away from zero
		}
		normalizeColumnsL1(factors[m], nil)
	}
	// The update derivation requires every non-working factor to be
	// column-stochastic; the scale lives in lambda.
	lambda := make([]float64, r)
	scale := float64(sumVals(x)) / float64(r)
	for j := range lambda {
		lambda[j] = scale
	}

	res := &APRResult{Factors: factors}
	start := time.Now()
	prevLL := math.Inf(-1)
	// pi[k][j] = Π_{m≠mode} U⁽ᵐ⁾(i_m(k), j): the Khatri-Rao row product per
	// nonzero, recomputed per mode (the analogue of the MTTKRP inner rows).
	pi := dense.New(x.NNZ(), r)
	for iter := 1; iter <= maxIters; iter++ {
		for mode := 0; mode < n; mode++ {
			// Absorb lambda into the working factor so the update is plain
			// multiplicative (standard CP-APR formulation).
			b := factors[mode]
			for i := 0; i < b.Rows; i++ {
				row := b.Row(i)
				for j := range row {
					row[j] *= lambda[j]
				}
			}
			computePi(x, factors, mode, pi, opt.Workers)
			for it := 0; it < inner; it++ {
				multiplicativeUpdate(x, mode, b, pi, opt.Workers)
			}
			// Pull the column sums back out as the new lambda.
			normalizeColumnsL1(b, lambda)
		}
		ll := logLikelihood(x, factors, lambda, pi, opt.Workers)
		if opt.TrackLL {
			res.LLTrace = append(res.LLTrace, ll)
		}
		res.Iters = iter
		res.LogLik = ll
		if math.Abs(ll-prevLL)/float64(x.NNZ()) < tol {
			res.Converged = true
			break
		}
		prevLL = ll
	}
	res.Lambda = lambda
	res.TotalTime = time.Since(start)
	return res, nil
}

// computePi fills pi[k,:] with the Hadamard product of the non-target
// factor rows at nonzero k.
func computePi(x *tensor.COO, factors []*dense.Matrix, mode int, pi *dense.Matrix, workers int) {
	n := x.Order()
	par.ForRange(x.NNZ(), workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			row := pi.Row(k)
			for j := range row {
				row[j] = 1
			}
			for m := 0; m < n; m++ {
				if m == mode {
					continue
				}
				f := factors[m].Row(int(x.Inds[m][k]))
				for j := range row {
					row[j] *= f[j]
				}
			}
		}
	})
}

// multiplicativeUpdate applies one CP-APR multiplicative step to the
// working factor b (with lambda absorbed):
//
//	B ← B ∘ ( Φ ⁄ (1·Πᵀ1-row-sums) ),  Φ(i,:) = Σ_{k: row k = i} (x_k/m_k)·π_k
//
// where m_k = ⟨b(i_k,:), π_k⟩ is the model value at nonzero k. The
// denominator Σ_k π_k over *all* columns of the matricization reduces, for
// each row, to the column sums of Π restricted to... since Π rows for
// absent coordinates contribute too; CP-APR's standard trick is that the
// denominator is eᵀΠ per column, independent of the row, computed over all
// possible index combinations — which factorizes into the product of the
// other factors' column sums (each column of every factor is
// column-stochastic except the working one). Here the non-working factors
// are kept column-normalized, so the denominator is exactly 1 per
// component and the update is Φ itself.
func multiplicativeUpdate(x *tensor.COO, mode int, b *dense.Matrix, pi *dense.Matrix, workers int) {
	r := b.Cols
	ind := x.Inds[mode]
	phi := dense.New(b.Rows, r)
	stripes := par.NewStripes(1024)
	par.ForRange(x.NNZ(), workers, func(lo, hi int) {
		tmp := make([]float64, r)
		for k := lo; k < hi; k++ {
			i := ind[k]
			brow := b.Row(int(i))
			prow := pi.Row(k)
			m := 0.0
			for j := 0; j < r; j++ {
				m += brow[j] * prow[j]
			}
			if m < 1e-300 {
				m = 1e-300
			}
			w := x.Vals[k] / m
			for j := 0; j < r; j++ {
				tmp[j] = w * prow[j]
			}
			stripes.Lock(i)
			ph := phi.Row(int(i))
			for j := 0; j < r; j++ {
				ph[j] += tmp[j]
			}
			stripes.Unlock(i)
		}
	})
	dense.Hadamard(b, phi, b)
}

// normalizeColumnsL1 rescales every column of m to sum 1, writing the
// original sums into lambda when non-nil. Zero columns are left untouched
// (their lambda entry reports 0).
func normalizeColumnsL1(m *dense.Matrix, lambda []float64) {
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for i := 0; i < m.Rows; i++ {
			s += m.At(i, j)
		}
		if lambda != nil {
			lambda[j] = s
		}
		if s > 0 {
			inv := 1 / s
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, m.At(i, j)*inv)
			}
		}
	}
}

func sumVals(x *tensor.COO) float64 {
	s := 0.0
	for _, v := range x.Vals {
		s += v
	}
	return s
}

// logLikelihood evaluates Σ_nz x·log(m) − Σ_full m. The full-model mass
// Σ m factorizes as Σ_j λ_j Π_m (column sums of U⁽ᵐ⁾) = Σ_j λ_j (factors
// column-stochastic), and the first term streams the nonzeros using the
// last computed pi (mode n−1), whose model value needs the mode-(n−1)
// factor with lambda applied.
func logLikelihood(x *tensor.COO, factors []*dense.Matrix, lambda []float64, pi *dense.Matrix, workers int) float64 {
	n := x.Order()
	r := len(lambda)
	last := factors[n-1]
	ind := x.Inds[n-1]
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	partial := make([]float64, w)
	par.ForWorker(x.NNZ(), w, func(worker, lo, hi int) {
		s := 0.0
		for k := lo; k < hi; k++ {
			brow := last.Row(int(ind[k]))
			prow := pi.Row(k)
			m := 0.0
			for j := 0; j < r; j++ {
				m += lambda[j] * brow[j] * prow[j]
			}
			if m < 1e-300 {
				m = 1e-300
			}
			s += x.Vals[k] * math.Log(m)
		}
		partial[worker] += s
	})
	ll := 0.0
	for _, s := range partial {
		ll += s
	}
	for _, l := range lambda {
		ll -= l
	}
	return ll
}

// PredictAPR evaluates the Poisson model rate at one coordinate.
func PredictAPR(res *APRResult, idx []tensor.Index) float64 {
	return evalCP(res.Lambda, res.Factors, idx)
}
