// Package hicoo implements a HiCOO-style blocked sparse tensor format and
// its MTTKRP kernel — the memory-compact baseline from the same research
// line as the target paper. Nonzeros are grouped into B×…×B index blocks
// (B = 128): each block stores its coordinates once as int32s while the
// elements inside carry only uint8 offsets, cutting index storage roughly
// 4x against COO for tensors with index locality.
//
// Simplifications against the published format: blocks are ordered
// lexicographically by block coordinates rather than by a space-filling
// curve, and there is no superblock scheduling level — parallelism comes
// from dynamic block batches with striped output locks.
package hicoo

import (
	"sort"
	"time"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/kernel"
	"adatm/internal/obs"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// blockBits is log2 of the block edge length.
const blockBits = 7

// BlockEdge is the block size per mode (128).
const BlockEdge = 1 << blockBits

// Tensor is the blocked representation.
type Tensor struct {
	Dims []int
	// Per block: start of its elements in the element arrays, and its
	// block coordinate per mode.
	BPtr  []int32   // len nblocks+1
	BInds [][]int32 // BInds[m][b] = block coordinate of block b in mode m
	// Per element: offset within the block per mode, and the value.
	EInds [][]uint8 // EInds[m][k]
	Vals  []float64
}

// Build blocks a deduplicated COO tensor.
func Build(x *tensor.COO) *Tensor {
	n := x.Order()
	nnz := x.NNZ()
	perm := make([]int32, nnz)
	for i := range perm {
		perm[i] = int32(i)
	}
	// Sort by (block coords…, offsets…) lexicographically; grouping by the
	// block tuple is all that matters for block extraction.
	sort.Slice(perm, func(a, b int) bool {
		ka, kb := perm[a], perm[b]
		for m := 0; m < n; m++ {
			ba, bb := x.Inds[m][ka]>>blockBits, x.Inds[m][kb]>>blockBits
			if ba != bb {
				return ba < bb
			}
		}
		for m := 0; m < n; m++ {
			if x.Inds[m][ka] != x.Inds[m][kb] {
				return x.Inds[m][ka] < x.Inds[m][kb]
			}
		}
		return false
	})
	t := &Tensor{
		Dims:  append([]int(nil), x.Dims...),
		BInds: make([][]int32, n),
		EInds: make([][]uint8, n),
		Vals:  make([]float64, 0, nnz),
	}
	for m := 0; m < n; m++ {
		t.EInds[m] = make([]uint8, 0, nnz)
	}
	sameBlock := func(a, b int32) bool {
		for m := 0; m < n; m++ {
			if x.Inds[m][a]>>blockBits != x.Inds[m][b]>>blockBits {
				return false
			}
		}
		return true
	}
	for i, k := range perm {
		if i == 0 || !sameBlock(perm[i-1], k) {
			t.BPtr = append(t.BPtr, int32(len(t.Vals)))
			for m := 0; m < n; m++ {
				t.BInds[m] = append(t.BInds[m], int32(x.Inds[m][k]>>blockBits))
			}
		}
		for m := 0; m < n; m++ {
			t.EInds[m] = append(t.EInds[m], uint8(x.Inds[m][k]&(BlockEdge-1)))
		}
		t.Vals = append(t.Vals, x.Vals[k])
	}
	t.BPtr = append(t.BPtr, int32(len(t.Vals)))
	return t
}

// NBlocks returns the number of nonzero blocks.
func (t *Tensor) NBlocks() int { return len(t.BPtr) - 1 }

// IndexBytes returns the blocked index storage: 4 bytes per mode per block
// plus 1 byte per mode per nonzero plus the block pointer array.
func (t *Tensor) IndexBytes() int64 {
	n := int64(len(t.Dims))
	return int64(t.NBlocks())*n*4 + int64(len(t.Vals))*n + int64(len(t.BPtr))*4
}

// Engine is the HiCOO MTTKRP kernel.
type Engine struct {
	t       *Tensor
	workers int
	stripes *par.Stripes
	arena   *kernel.Arena
	// chunks holds equal-nnz chunk boundaries over the blocks (blocks have
	// skewed occupancy, so element-weighted chunking balances the load);
	// base holds per-worker decoded block-origin scratch.
	chunks []int
	base   [][]int
	res    *accum.Resolver
	pool   *accum.Pool
	ctr    engine.Counters
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

// New builds the blocked engine over x. The accumulation backend is
// model-resolved per mode (accum.Auto).
func New(x *tensor.COO, workers int) *Engine {
	return NewWithAccum(x, workers, accum.Config{})
}

// NewWithAccum is New with an explicit accumulation policy.
func NewWithAccum(x *tensor.COO, workers int, cfg accum.Config) *Engine {
	t := Build(x)
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	// Per-block nonzero counts as a prefix sum (BPtr already is one).
	prefix := make([]int64, len(t.BPtr))
	for i, p := range t.BPtr {
		prefix[i] = int64(p)
	}
	e := &Engine{
		t:       t,
		workers: workers,
		arena:   kernel.NewArena(w, 1),
		chunks:  par.WeightedBounds(prefix, w*8),
		base:    make([][]int, w),
		res:     accum.NewResolver(len(t.Dims), cfg),
		pool:    accum.NewPool(w),
	}
	for i := range e.base {
		e.base[i] = make([]int, len(t.Dims))
	}
	e.body = e.runChunk
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "hicoo" }

// FactorUpdated implements engine.Engine; no factor-dependent caches.
func (e *Engine) FactorUpdated(int) {}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	s := engine.Stats{
		IndexBytes: e.t.IndexBytes(),
		ValueBytes: int64(len(e.t.Vals)) * 8,
	}
	e.ctr.Fill(&s)
	return s
}

// Instrument implements engine.Instrumentable. The block schedule is
// immutable after construction, so the imbalance of the element-weighted
// block chunking is computed once here and exported as a constant gauge.
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
	prefix := make([]int64, len(e.t.BPtr))
	for i, p := range e.t.BPtr {
		prefix[i] = int64(p)
	}
	imb := par.ImbalanceRatio(prefix, e.chunks)
	reg.GaugeFunc("adatm_par_chunk_imbalance_ratio",
		"Worst heaviest-chunk/ideal-share ratio of the weighted schedules.", l,
		func() float64 { return imb })
	engine.RegisterAccumMetrics(reg, e.Name(), len(e.t.Dims), e.res, e.pool)
}

// MTTKRP implements engine.Engine. Within a block, every element's factor
// row lives inside one 128-row window per mode, which is where the format's
// cache locality comes from. Blocks run in dynamic parallel batches; the
// target-mode rows go through the mode's resolved accumulation backend —
// striped locks (distinct blocks can share mode-n block coordinates) or
// per-worker privatized copies folded by a parallel reduction.
func (e *Engine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(e.t.Dims, mode, factors, out); err != nil {
		return err
	}
	start := time.Now()
	t := e.t
	r := out.Cols
	e.arena.EnsureRank(r)
	workers := e.workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	var pool *accum.Pool
	if e.res.Resolve(mode, out.Rows, int64(len(t.Vals)), r, workers) == accum.Privatize {
		pool = e.pool
		pool.Begin(out.Rows, r)
	} else {
		e.stripes = par.EnsureStripes(e.stripes, out.Rows)
		out.Zero()
	}
	e.curMode, e.curFactors, e.curOut, e.curPool = mode, factors, out, pool
	par.ForChunks(e.chunks, e.workers, e.body)
	e.curFactors, e.curOut, e.curPool = nil, nil, nil
	if pool != nil {
		pool.Reduce(out, workers)
	}
	e.ctr.Observe(start)
	return nil
}

// runChunk processes blocks [lo, hi): decodes each block origin once, streams
// its elements through the Hadamard kernel, and accumulates into the output —
// privatized copy when curPool is set, striped-lock scatter otherwise.
func (e *Engine) runChunk(worker, lo, hi int) {
	t := e.t
	mode, factors, out := e.curMode, e.curFactors, e.curOut
	n := len(t.Dims)
	stripes := e.stripes
	row := e.arena.Buf(worker, 0)
	base := e.base[worker]
	var priv *dense.Matrix
	if e.curPool != nil {
		priv = e.curPool.Acquire(worker)
	}
	var local int64
	for b := lo; b < hi; b++ {
		for m := 0; m < n; m++ {
			base[m] = int(t.BInds[m][b]) << blockBits
		}
		k0, k1 := t.BPtr[b], t.BPtr[b+1]
		for k := k0; k < k1; k++ {
			first := true
			for m := 0; m < n; m++ {
				if m == mode {
					continue
				}
				f := factors[m].Row(base[m] + int(t.EInds[m][k]))
				if first {
					kernel.Scale(row, f, t.Vals[k])
					first = false
				} else {
					kernel.MulInto(row, f)
				}
			}
			i := int32(base[mode] + int(t.EInds[mode][k]))
			if priv != nil {
				kernel.AddInto(priv.Row(int(i)), row)
			} else {
				stripes.Lock(i)
				kernel.AddInto(out.Row(int(i)), row)
				stripes.Unlock(i)
			}
		}
		local += int64(k1-k0) * int64(n) * int64(len(row))
	}
	e.ctr.AddOps(local)
}

var _ engine.Engine = (*Engine)(nil)
