// Package cpd implements the CP-ALS (alternating least squares) driver for
// sparse CANDECOMP/PARAFAC decomposition. The MTTKRP bottleneck is delegated
// to a pluggable engine (streaming COO, CSF, or a memoized semi-sparse
// strategy tree), so everything outside that kernel — Gram precomputation,
// the pseudoinverse solve, column normalization, and the fast fit — is
// shared code across every engine comparison in the evaluation. The
// sharded solver (internal/dist) runs this same loop on every process; a
// Layout supplies only which factor rows the process solves and the
// collectives that combine its partial sums.
package cpd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"adatm/internal/audit"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/health"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// Options configures a decomposition run.
type Options struct {
	Rank     int     // number of rank-one components (R)
	MaxIters int     // maximum ALS iterations (default 50)
	Tol      float64 // convergence threshold on the fit change (default 1e-5)
	Seed     int64   // RNG seed for factor initialization
	Workers  int     // parallel width for dense kernels (<= 0: GOMAXPROCS)
	// Init provides initial factor matrices (one I_n × Rank matrix per
	// mode); nil selects random initialization from Seed.
	Init []*dense.Matrix
	// TrackFit records the fit after every iteration in Result.FitTrace.
	// The fit is always computed for the convergence test; this only
	// controls whether the trajectory is retained.
	TrackFit bool
	// Ridge adds λ·I to the Gram-Hadamard system before each solve
	// (Tikhonov regularization), stabilizing ill-conditioned updates and
	// damping overfitting in completion-style uses.
	Ridge float64
	// NonNegative switches the factor update from the least-squares solve
	// to the Lee–Seung multiplicative rule U ← U ∘ M ⁄ (U·H + ε), keeping
	// every factor entry non-negative. Requires a non-negative tensor.
	NonNegative bool
	// ModeOrder is the order the sub-iterations visit the modes (a
	// permutation of 0..N-1; nil = natural). Mode-permuted memoization
	// engines need the sweep to follow their permutation so every
	// intermediate is materialized exactly once per iteration.
	ModeOrder []int
	// Ctx, when non-nil, is checked between mode sub-iterations. On
	// cancellation Run stops within one sub-iteration and returns the
	// partial Result (factors normalized, Stopped set) together with
	// ctx.Err().
	Ctx context.Context
	// Progress, when non-nil, is invoked after every completed iteration.
	// Returning false stops the run early with a valid Result (Stopped
	// set, no error).
	Progress func(IterStats) bool
	// CollectStats attaches a per-phase RunStats breakdown to the Result.
	// When false (the default) only the coarse MTTKRPTime/TotalTime
	// stopwatches run and the overhead is near zero.
	CollectStats bool
	// Tracer, when non-nil, receives one span per ALS phase interval and per
	// per-mode MTTKRP call, exportable as Chrome trace-event JSON.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives per-phase latency histograms and the
	// iteration/fit run gauges (metric names adatm_cpd_*).
	Metrics *obs.Registry
	// Audit, when non-nil, reconciles the cost model's selection decision
	// against the run's measured counters at run end (adaptive engines
	// deposit their Decision at construction time). The uninstrumented path
	// is one pointer test; all audit work happens outside the iteration
	// loop, so the steady state stays allocation-free.
	Audit *audit.Recorder
	// Checkpoint, when non-nil, makes the run durable: iteration-boundary
	// state is written crash-atomically to Checkpoint.Dir on the configured
	// cadence (and on every exit path), and Resume continues the run from
	// the newest checkpoint with an identical trajectory. The disabled path
	// is one pointer test per iteration.
	Checkpoint *CheckpointConfig
	// Health, when non-nil, observes every completed iteration's numerical
	// state (fit delta, λ dynamics, Gram-Hadamard conditioning, factor
	// congruence) and maintains a debounced healthy/stalled/swamp-suspect/
	// ill-conditioned verdict. The probe reads only state already resident
	// in the loop — no extra MTTKRPs — and is allocation-free in steady
	// state; the disabled path is one pointer test per iteration.
	Health *health.Probe
}

// epsMU guards the multiplicative-update denominator against division by
// zero (the customary NMF epsilon).
const epsMU = 1e-12

// Result holds the decomposition [λ; U¹, …, Uᴺ] and run statistics.
type Result struct {
	Lambda  []float64       // component weights, one per rank
	Factors []*dense.Matrix // column-normalized factor matrices
	Iters   int
	// Fit is 1 − ‖X − X̂‖/‖X‖ after the final iteration. NaN when the run
	// was stopped (ctx cancellation) before any iteration completed, i.e.
	// before the first fit was ever computed — check Iters > 0 or
	// math.IsNaN before consuming it.
	Fit float64
	// Converged reports whether the fit change dropped below Tol before
	// MaxIters.
	Converged bool
	FitTrace  []float64
	// Stopped reports that the run ended early — Ctx was cancelled or a
	// Progress callback returned false — rather than by convergence or the
	// iteration cap.
	Stopped bool
	// Timing breakdown.
	MTTKRPTime time.Duration
	TotalTime  time.Duration
	// Stats holds the per-phase breakdown; nil unless Options.CollectStats.
	Stats *RunStats
}

// Layout is the row distribution of one ALS process. The loop solves,
// normalizes and measures only the factor rows its layout hands it and
// combines the per-process partial sums (column norms, Gram, fit inner
// product) through AllReduce, so the single-node solver and every process
// of the sharded solver run this same loop. Run and Resume use the
// single-node layout: the process owns every row, and Publish and
// AllReduce do nothing.
type Layout interface {
	// Engine is the MTTKRP engine over this process's nonzeros.
	Engine() engine.Engine
	// MTTKRP computes the mode's MTTKRP and returns the pre-solve rows this
	// process solves, and dst: the matrix the update overwrites, holding
	// the current factor values of those rows (same shape as rows). rows
	// must stay intact until the next MTTKRP call: the fit reads the last
	// mode's rows.
	MTTKRP(mode int, factors []*dense.Matrix) (rows, dst *dense.Matrix, err error)
	// Publish writes the updated, normalized dst rows back to
	// factors[mode] wherever this process's next MTTKRPs read them.
	Publish(mode int, dst *dense.Matrix, factors []*dense.Matrix) error
	// AllReduce replaces v with its element-wise sum over all processes.
	AllReduce(v []float64) error
}

// singleNode is the layout of a one-process run: the MTTKRP output is the
// full matrix and the update overwrites the factor in place.
type singleNode struct {
	eng  engine.Engine
	dims []int
	buf  []float64 // MTTKRP output, maxDim × R, reused across modes
}

func (s *singleNode) Engine() engine.Engine { return s.eng }

func (s *singleNode) MTTKRP(mode int, factors []*dense.Matrix) (*dense.Matrix, *dense.Matrix, error) {
	r := factors[mode].Cols
	if s.buf == nil {
		s.buf = make([]float64, maxDim(s.dims)*r)
	}
	mm := &dense.Matrix{Rows: s.dims[mode], Cols: r, Data: s.buf[:s.dims[mode]*r]}
	return mm, factors[mode], s.eng.MTTKRP(mode, factors, mm)
}

func (s *singleNode) Publish(int, *dense.Matrix, []*dense.Matrix) error { return nil }

func (s *singleNode) AllReduce([]float64) error { return nil }

// Run decomposes x at the configured rank using the given MTTKRP engine.
func Run(x *tensor.COO, eng engine.Engine, opt Options) (*Result, error) {
	return RunLayout(x, &singleNode{eng: eng, dims: x.Dims}, opt)
}

// RunLayout runs the ALS loop as one process of layout l. Every process
// of a sharded run calls it with identical options, so each draws the same
// initial factors and, from the all-reduced sums, takes the same
// convergence decision. Result.Factors is this process's replica: only the
// rows its layout solves and publishes are current.
func RunLayout(x *tensor.COO, l Layout, opt Options) (*Result, error) {
	return run(x, l, opt, nil)
}

// run is the ALS loop shared by RunLayout (rs == nil) and Resume (rs
// carries the checkpointed loop state; opt.Init holds the checkpointed
// factors).
func run(x *tensor.COO, l Layout, opt Options, rs *resumeState) (*Result, error) {
	n := x.Order()
	if opt.Rank <= 0 {
		return nil, errors.New("cpd: Rank must be positive")
	}
	if n < 2 {
		return nil, errors.New("cpd: tensor order must be at least 2")
	}
	if x.NNZ() == 0 {
		return nil, errors.New("cpd: empty tensor")
	}
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 50
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-5
	}
	r := opt.Rank

	if opt.NonNegative {
		for _, v := range x.Vals {
			if v < 0 {
				return nil, errors.New("cpd: NonNegative requires a non-negative tensor")
			}
		}
	}

	sweep, err := sweepOrder(opt.ModeOrder, n)
	if err != nil {
		return nil, err
	}

	factors, err := initFactors(x, opt)
	if err != nil {
		return nil, err
	}
	eng := l.Engine()

	lambda := make([]float64, r)
	// Fit starts at NaN, not 0: a run cancelled before the first fit
	// computation must not report a (perfect-looking for an exact model)
	// fit of zero. The first completed iteration overwrites it.
	res := &Result{Factors: factors, Fit: math.NaN()}
	startIter := 1
	prevFit := math.Inf(-1)
	if rs != nil {
		startIter = rs.startIter
		prevFit = rs.prevFit
		copy(lambda, rs.lambda)
		res.Iters = startIter - 1
		res.Fit = rs.prevFit
		if opt.TrackFit {
			res.FitTrace = append([]float64(nil), rs.fitTrace...)
		}
	}
	cw, err := newCheckpointer(x, opt, sweep)
	if err != nil {
		return nil, err
	}
	if cw != nil {
		cw.written = startIter - 1
	}
	if opt.CollectStats {
		res.Stats = &RunStats{ModeMTTKRP: make([]PhaseStats, n)}
	}
	clock := newPhaseClock(res.Stats, opt.Tracer, opt.Metrics, n)

	start := time.Now()

	// Precompute the Gram matrices W⁽ⁿ⁾ = U⁽ⁿ⁾ᵀU⁽ⁿ⁾. Every process holds
	// the full initial factors, so no reduction is needed yet.
	clock.start()
	grams := make([]*dense.Matrix, n)
	for m := 0; m < n; m++ {
		grams[m] = dense.Gram(factors[m], nil, opt.Workers)
	}
	clock.tick(PhaseGram)

	normX := x.Norm()
	clock.tick(PhaseFit)
	h := dense.New(r, r)
	inv := make([]float64, r) // reciprocal column norms
	inner := make([]float64, 1)

	// auditBase snapshots the engine counters before the first iteration so
	// reconciliation works on this run's deltas even when the caller reuses
	// an engine across runs.
	var auditBase engine.Stats
	if opt.Audit != nil {
		auditBase = eng.Stats()
	}

	// finish seals the result on every exit path: the λ vector, the total
	// stopwatch, and (when collecting) the symbolic phase copied from the
	// engine plus the steady-state allocation counters. The audit
	// reconciliation runs last, after the steady-state memstats read, so its
	// (one-time, end-of-run) allocations never pollute the steady counters.
	var memBase runtime.MemStats
	memBased := false
	finish := func() {
		res.Lambda = lambda
		res.TotalTime = time.Since(start)
		if res.Stats != nil {
			res.Stats.Phases[PhaseSymbolic].Time = time.Duration(eng.Stats().SymbolicNS)
			res.Stats.Phases[PhaseSymbolic].Count = 1
			if memBased && res.Iters > 1 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				res.Stats.SteadyAllocs = int64(ms.Mallocs - memBase.Mallocs)
				res.Stats.SteadyAllocBytes = int64(ms.TotalAlloc - memBase.TotalAlloc)
				res.Stats.SteadyIters = int64(res.Iters) - 1
			}
		}
		if opt.Audit != nil && res.Iters > 0 {
			opt.Audit.Reconcile(measuredFrom(eng.Stats(), auditBase, res))
		}
	}

	var prevOps int64
	if clock != nil {
		prevOps = eng.Stats().HadamardOps
	}
	lastMode := sweep[n-1]
	for iter := startIter; iter <= maxIters; iter++ {
		if res.Stats != nil && iter == startIter+1 {
			// Iteration 1 warms scratch buffers; steady state starts here.
			runtime.ReadMemStats(&memBase)
			memBased = true
		}
		var lastRows, lastDst *dense.Matrix
		for _, mode := range sweep {
			if opt.Ctx != nil {
				select {
				case <-opt.Ctx.Done():
					res.Stopped = true
					finish()
					// The snapshot from the last completed iteration is
					// boundary-consistent even though this sweep is mid-
					// flight; persist it so the cancellation (e.g. a
					// SIGTERM routed through Ctx) loses no finished work.
					if werr := cw.finalWrite(); werr != nil {
						return res, errors.Join(opt.Ctx.Err(), werr)
					}
					return res, opt.Ctx.Err()
				default:
				}
			}
			t0 := time.Now()
			rows, dst, err := l.MTTKRP(mode, factors)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			res.MTTKRPTime += d
			if clock != nil {
				ops := eng.Stats().HadamardOps
				clock.mttkrp(mode, d, ops-prevOps)
				prevOps = ops
			}

			// H = ∘_{i≠mode} W⁽ⁱ⁾.
			clock.start()
			h.Fill(1)
			for i := 0; i < n; i++ {
				if i != mode {
					dense.Hadamard(h, grams[i], h)
				}
			}
			clock.tick(PhaseGram)
			if opt.NonNegative {
				// Multiplicative rule: U ← U ∘ M ⁄ (U·H + ridge·U + ε).
				denom := dense.MatMul(dst, h, nil, opt.Workers)
				for i := range dst.Data {
					d := denom.Data[i] + opt.Ridge*dst.Data[i] + epsMU
					dst.Data[i] *= rows.Data[i] / d
				}
			} else {
				// Least squares: U⁽ᵐᵒᵈᵉ⁾ = M·(H + ridge·I)⁺. Rows are
				// independent given the Cholesky factor of H, so a process
				// solving only its rows matches the full solve row for row.
				if opt.Ridge > 0 {
					for i := 0; i < r; i++ {
						h.Set(i, i, h.At(i, i)+opt.Ridge)
					}
				}
				dst.CopyFrom(rows)
				dense.SolveSPDInPlace(h, dst, opt.Workers)
			}
			clock.tick(PhaseSolve)

			// λ = column norms: sums of squares over this process's rows,
			// all-reduced, then scaled by the reciprocal exactly as
			// dense.NormalizeColumns does (zero columns stay as they are).
			for j := range lambda {
				lambda[j] = 0
			}
			for i := 0; i < dst.Rows; i++ {
				for j, v := range dst.Row(i) {
					lambda[j] += v * v
				}
			}
			if err := l.AllReduce(lambda); err != nil {
				return nil, err
			}
			for j, s := range lambda {
				lambda[j] = math.Sqrt(s)
				inv[j] = 1
				if lambda[j] > 0 {
					inv[j] = 1 / lambda[j]
				}
			}
			for i := 0; i < dst.Rows; i++ {
				row := dst.Row(i)
				for j := range row {
					row[j] *= inv[j]
				}
			}
			if err := l.Publish(mode, dst, factors); err != nil {
				return nil, err
			}
			clock.tick(PhaseNormalize)
			dense.Gram(dst, grams[mode], opt.Workers)
			if err := l.AllReduce(grams[mode].Data); err != nil {
				return nil, err
			}
			eng.FactorUpdated(mode)
			clock.tick(PhaseGram)
			if mode == lastMode {
				lastRows, lastDst = rows, dst
			}
		}

		clock.start()
		inner[0] = innerProduct(lambda, lastRows, lastDst)
		if err := l.AllReduce(inner); err != nil {
			return nil, err
		}
		fit := computeFit(normX, lambda, inner[0], grams)
		clock.tick(PhaseFit)
		if opt.TrackFit {
			res.FitTrace = append(res.FitTrace, fit)
		}
		res.Iters = iter
		res.Fit = fit
		clock.iteration(fit)
		opt.Health.Observe(health.Input{
			Iter: iter, Fit: fit, PrevFit: prevFit, Tol: tol,
			Lambda: lambda, Grams: grams,
		})
		if cw != nil {
			if cerr := cw.boundary(iter, fit, lambda, factors, res.FitTrace); cerr != nil {
				finish()
				return res, cerr
			}
		}
		if math.Abs(fit-prevFit) < tol {
			res.Converged = true
			break
		}
		if opt.Progress != nil {
			stop := !opt.Progress(IterStats{
				Iter:       iter,
				Fit:        fit,
				FitDelta:   fit - prevFit,
				Elapsed:    time.Since(start),
				MTTKRPTime: res.MTTKRPTime,
			})
			if stop {
				res.Stopped = true
				break
			}
		}
		prevFit = fit
	}
	finish()
	if werr := cw.finalWrite(); werr != nil {
		return res, werr
	}
	return res, nil
}

// measuredFrom converts the run's engine-counter deltas and per-phase
// breakdown into the audit layer's Measured record: totals averaged per
// completed iteration so they are comparable with the model's per-iteration
// predictions.
func measuredFrom(s, base engine.Stats, res *Result) audit.Measured {
	iters := float64(res.Iters)
	m := audit.Measured{
		Iters:                res.Iters,
		OpsPerIter:           float64(s.HadamardOps-base.HadamardOps) / iters,
		MTTKRPSecondsPerIter: float64(s.MTTKRPNS-base.MTTKRPNS) / 1e9 / iters,
		PeakValueBytes:       s.PeakValueBytes,
		IndexBytes:           s.IndexBytes,
	}
	if res.Stats != nil {
		m.PhaseSeconds = make(map[string]float64, NumPhases)
		for p := Phase(0); p < NumPhases; p++ {
			m.PhaseSeconds[p.String()] = res.Stats.Phases[p].Time.Seconds()
		}
		m.ModeMTTKRPSeconds = make([]float64, len(res.Stats.ModeMTTKRP))
		for mode, mp := range res.Stats.ModeMTTKRP {
			m.ModeMTTKRPSeconds[mode] = mp.Time.Seconds() / iters
		}
	}
	return m
}

// sweepOrder validates the sub-iteration mode order (nil = natural).
func sweepOrder(order []int, n int) ([]int, error) {
	if order == nil {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	if len(order) != n {
		return nil, fmt.Errorf("cpd: ModeOrder has %d entries for order-%d tensor", len(order), n)
	}
	seen := make([]bool, n)
	for _, m := range order {
		if m < 0 || m >= n || seen[m] {
			return nil, fmt.Errorf("cpd: ModeOrder %v is not a permutation", order)
		}
		seen[m] = true
	}
	return order, nil
}

// initFactors builds the initial factor matrices.
func initFactors(x *tensor.COO, opt Options) ([]*dense.Matrix, error) {
	n := x.Order()
	if opt.Init != nil {
		if len(opt.Init) != n {
			return nil, fmt.Errorf("cpd: %d initial factors for order-%d tensor", len(opt.Init), n)
		}
		factors := make([]*dense.Matrix, n)
		for m, f := range opt.Init {
			if f.Rows != x.Dims[m] || f.Cols != opt.Rank {
				return nil, fmt.Errorf("cpd: initial factor %d is %dx%d, want %dx%d", m, f.Rows, f.Cols, x.Dims[m], opt.Rank)
			}
			factors[m] = f.Clone()
		}
		return factors, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*dense.Matrix, n)
	for m := 0; m < n; m++ {
		factors[m] = dense.Random(x.Dims[m], opt.Rank, rng)
	}
	return factors, nil
}

// innerProduct is this process's share of ⟨X, X̂⟩ = Σᵣ λᵣ Σᵢ M⁽ᴺ⁾(i,r)·U⁽ᴺ⁾(i,r),
// where M⁽ᴺ⁾ holds the final mode's pre-solve MTTKRP rows and U⁽ᴺ⁾ the
// same rows of the freshly normalized factor.
func innerProduct(lambda []float64, lastM, lastFactor *dense.Matrix) float64 {
	r := len(lambda)
	inner := 0.0
	for i := 0; i < lastM.Rows; i++ {
		mrow := lastM.Row(i)
		frow := lastFactor.Row(i)
		for j := 0; j < r; j++ {
			inner += lambda[j] * mrow[j] * frow[j]
		}
	}
	return inner
}

// computeFit evaluates fit = 1 − ‖X − X̂‖/‖X‖ without touching the tensor:
// ‖X̂‖² = λᵀ(∘ₙ W⁽ⁿ⁾)λ and inner = ⟨X, X̂⟩ (see innerProduct).
func computeFit(normX float64, lambda []float64, inner float64, grams []*dense.Matrix) float64 {
	r := len(lambda)
	hadAll := dense.HadamardAll(grams)
	normEst2 := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			normEst2 += lambda[i] * lambda[j] * hadAll.At(i, j)
		}
	}
	res2 := normX*normX + normEst2 - 2*inner
	if res2 < 0 {
		res2 = 0
	}
	if normX == 0 {
		return 0
	}
	return 1 - math.Sqrt(res2)/normX
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

// Reconstruct evaluates the CP model Σᵣ λᵣ · u¹ᵣ ∘ … ∘ uᴺᵣ at one coordinate.
func Reconstruct(res *Result, idx []tensor.Index) float64 {
	return evalCP(res.Lambda, res.Factors, idx)
}

// evalCP is the one CP-model evaluator behind Reconstruct, PredictAPR and
// CompleteResult.Predict: Σᵣ λᵣ · u¹ᵣ(i₁) ⋯ uᴺᵣ(i_N), with λ = 1 when
// lambda is nil.
func evalCP(lambda []float64, factors []*dense.Matrix, idx []tensor.Index) float64 {
	v := 0.0
	for r := 0; r < factors[0].Cols; r++ {
		p := 1.0
		if lambda != nil {
			p = lambda[r]
		}
		for m, f := range factors {
			p *= f.At(int(idx[m]), r)
		}
		v += p
	}
	return v
}

// ResidualNorm computes ‖X − X̂‖ exactly by streaming the nonzeros and
// accounting for the model mass off the sparsity pattern:
// ‖X−X̂‖² = Σ_{nz} (x−x̂)² − Σ_{nz} x̂² + ‖X̂‖². Exact and O(nnz·N·R);
// used in tests to validate the fast fit formula.
func ResidualNorm(x *tensor.COO, res *Result) float64 {
	grams := make([]*dense.Matrix, len(res.Factors))
	for m, f := range res.Factors {
		grams[m] = dense.Gram(f, nil, 0)
	}
	hadAll := dense.HadamardAll(grams)
	normEst2 := 0.0
	r := len(res.Lambda)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			normEst2 += res.Lambda[i] * res.Lambda[j] * hadAll.At(i, j)
		}
	}
	onPattern := 0.0
	estOnPattern := 0.0
	idx := make([]tensor.Index, x.Order())
	for k := 0; k < x.NNZ(); k++ {
		for m := range idx {
			idx[m] = x.Inds[m][k]
		}
		est := Reconstruct(res, idx)
		d := x.Vals[k] - est
		onPattern += d * d
		estOnPattern += est * est
	}
	res2 := onPattern - estOnPattern + normEst2
	if res2 < 0 {
		res2 = 0
	}
	return math.Sqrt(res2)
}
