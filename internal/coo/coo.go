// Package coo implements the element-streaming MTTKRP baseline: for every
// nonzero, the Hadamard product of the N−1 non-target factor rows is
// accumulated into the output row selected by the target-mode index. This is
// the algorithm used by coordinate-format tensor libraries (Tensor Toolbox
// style) and is the "no reuse, no compression" end of the design space the
// paper improves on: N·(N−1)·R·nnz multiply–adds per ALS iteration.
package coo

import (
	"time"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/kernel"
	"adatm/internal/obs"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Engine is the streaming-COO MTTKRP kernel.
type Engine struct {
	x       *tensor.COO
	workers int
	stripes *par.Stripes
	arena   *kernel.Arena
	res     *accum.Resolver
	pool    *accum.Pool
	ctr     engine.Counters
	// body is the bound worker body (allocated once so MTTKRP passes a stored
	// func value, not a per-call closure — the zero-alloc steady state); the
	// cur* fields are its call-scoped inputs, set before the parallel region
	// and cleared after.
	body       func(worker, lo, hi int)
	curMode    int
	curFactors []*dense.Matrix
	curOut     *dense.Matrix
	curPool    *accum.Pool
}

// New builds a COO engine over x. workers <= 0 selects GOMAXPROCS. The
// accumulation backend is model-resolved per mode (accum.Auto).
func New(x *tensor.COO, workers int) *Engine {
	return NewWithAccum(x, workers, accum.Config{})
}

// NewWithAccum is New with an explicit accumulation policy.
func NewWithAccum(x *tensor.COO, workers int, cfg accum.Config) *Engine {
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	e := &Engine{
		x:       x,
		workers: workers,
		arena:   kernel.NewArena(w, 1),
		res:     accum.NewResolver(x.Order(), cfg),
		pool:    accum.NewPool(w),
	}
	e.body = e.runChunk
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "coo" }

// FactorUpdated implements engine.Engine; the COO kernel caches nothing.
func (e *Engine) FactorUpdated(int) {}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	var s engine.Stats
	e.ctr.Fill(&s)
	return s
}

// Instrument implements engine.Instrumentable. The COO kernel splits
// nonzeros evenly across workers, so its chunk-imbalance gauge is the
// definitional 1.0 — exported anyway so dashboards see every engine on the
// same axis.
func (e *Engine) Instrument(_ *obs.Tracer, reg *obs.Registry) {
	if reg == nil {
		return
	}
	engine.RegisterCommonMetrics(reg, e.Name(), &e.ctr)
	l := obs.Labels{"engine": e.Name()}
	reg.GaugeFunc("adatm_kernel_arena_bytes",
		"Per-worker scratch arena backing bytes.", l,
		func() float64 { return float64(e.arena.Bytes()) })
	reg.CounterFunc("adatm_kernel_arena_grows_total",
		"Arena backing-store reallocations.", l,
		func() float64 { return float64(e.arena.Grows()) })
	reg.GaugeFunc("adatm_par_chunk_imbalance_ratio",
		"Worst heaviest-chunk/ideal-share ratio of the weighted schedules.", l,
		func() float64 { return 1 })
	engine.RegisterAccumMetrics(reg, e.Name(), e.x.Order(), e.res, e.pool)
}

// MTTKRP implements engine.Engine. Parallelizes over nonzero blocks; output
// rows are accumulated through the mode's resolved backend — striped-lock
// scatter into the shared output, or per-worker private copies folded by a
// parallel reduction (see internal/accum).
func (e *Engine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(e.x.Dims, mode, factors, out); err != nil {
		return err
	}
	start := time.Now()
	x := e.x
	r := out.Cols
	e.arena.EnsureRank(r)
	workers := e.workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	var pool *accum.Pool
	if e.res.Resolve(mode, out.Rows, int64(x.NNZ()), r, workers) == accum.Privatize {
		pool = e.pool
		pool.Begin(out.Rows, r)
	} else {
		e.stripes = par.EnsureStripes(e.stripes, out.Rows)
		out.Zero()
	}
	e.curMode, e.curFactors, e.curOut, e.curPool = mode, factors, out, pool
	par.ForWorker(x.NNZ(), e.workers, e.body)
	e.curFactors, e.curOut, e.curPool = nil, nil, nil
	if pool != nil {
		pool.Reduce(out, workers)
	}
	e.ctr.Observe(start)
	return nil
}

// runChunk streams nonzeros [lo, hi) through the Hadamard kernel and
// accumulates them into the output — privatized copy when curPool is set,
// striped-lock scatter otherwise.
func (e *Engine) runChunk(worker, lo, hi int) {
	x := e.x
	mode, factors, out := e.curMode, e.curFactors, e.curOut
	n := x.Order()
	target := x.Inds[mode]
	stripes := e.stripes
	row := e.arena.Buf(worker, 0)
	var priv *dense.Matrix
	if e.curPool != nil {
		priv = e.curPool.Acquire(worker)
	}
	for k := lo; k < hi; k++ {
		// Fold the first non-target factor row in with the value broadcast,
		// then Hadamard-multiply the remaining rows.
		first := true
		for m := 0; m < n; m++ {
			if m == mode {
				continue
			}
			f := factors[m].Row(int(x.Inds[m][k]))
			if first {
				kernel.Scale(row, f, x.Vals[k])
				first = false
			} else {
				kernel.MulInto(row, f)
			}
		}
		if first { // degenerate order-1 tensor: bare value broadcast
			for j := range row {
				row[j] = x.Vals[k]
			}
		}
		i := target[k]
		if priv != nil {
			kernel.AddInto(priv.Row(int(i)), row)
		} else {
			stripes.Lock(i)
			kernel.AddInto(out.Row(int(i)), row)
			stripes.Unlock(i)
		}
	}
	e.ctr.AddOps(int64(hi-lo) * int64(n) * int64(len(row)))
}

var _ engine.Engine = (*Engine)(nil)
