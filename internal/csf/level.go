package csf

import (
	"sort"
	"time"

	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/kernel"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// levelWalker is the reusable per-worker state of the general level kernel:
// arena-backed upward-reduction and downward-product scratch plus the
// call-scoped inputs, structured as methods (not closures) so the
// steady-state kernel performs no allocation.
type levelWalker struct {
	t       *Tensor
	factors []*dense.Matrix
	out     *dense.Matrix
	stripes *par.Stripes
	level   int
	up      [][]float64 // one R-vector per level
	down    [][]float64 // one R-vector per level above the target
	local   int64
	r       int
}

// walkUp computes the subtree TTV of node (l, id) over the modes of levels
// l+1..n-1 (excluding level l's own factor row).
func (w *levelWalker) walkUp(l int, id int64) []float64 {
	t := w.t
	n := len(t.ModeOrder)
	buf := w.up[l]
	if l == n-1 {
		v := t.Vals[id]
		for j := range buf {
			buf[j] = v
		}
		return buf
	}
	for j := range buf {
		buf[j] = 0
	}
	c0, c1 := t.children(l, id)
	f := w.factors[t.ModeOrder[l+1]]
	for c := c0; c < c1; c++ {
		kernel.FMAInto(buf, w.walkUp(l+1, c), f.Row(int(t.Fids[l+1][c])))
		w.local += 2 * int64(w.r)
	}
	return buf
}

// walkDown carries the Hadamard product of the factor rows at levels
// 0..l-1 and fires the accumulation at the target level.
func (w *levelWalker) walkDown(l int, id int64) {
	t := w.t
	if l == w.level {
		res := w.walkUp(l, id)
		d := w.down[l-1]
		fid := t.Fids[l][id]
		w.stripes.Lock(fid)
		kernel.FMAInto(w.out.Row(int(fid)), res, d)
		w.stripes.Unlock(fid)
		w.local += int64(w.r)
		return
	}
	// Extend the downward product with this level's factor row.
	buf := w.down[l]
	frow := w.factors[t.ModeOrder[l]].Row(int(t.Fids[l][id]))
	if l == 0 {
		copy(buf, frow)
	} else {
		kernel.Mul(buf, w.down[l-1], frow)
	}
	w.local += int64(w.r)
	c0, c1 := t.children(l, id)
	for c := c0; c < c1; c++ {
		w.walkDown(l+1, c)
	}
}

// levelState bundles the preallocated scheduling and scratch state of the
// level kernel for one tree: equal-nnz chunk bounds over root fibers and
// one walker per worker (up and down scratch live in one arena, 2n slots
// per worker).
type levelState struct {
	bounds  []int
	walkers []levelWalker
	arena   *kernel.Arena
	// body is bound once at construction so each call passes the same func
	// value to the scheduler (no per-call closure allocation).
	body func(worker, lo, hi int)
}

func newLevelState(t *Tensor, workers int) *levelState {
	s := &levelState{
		bounds:  par.WeightedBounds(t.RootLeafPtr, workers*rootChunksPerWorker),
		walkers: make([]levelWalker, workers),
		arena:   kernel.NewArena(workers, 2*len(t.ModeOrder)),
	}
	s.body = s.runChunk
	return s
}

// runChunk processes one scheduled chunk of root fibers.
func (s *levelState) runChunk(worker, lo, hi int) {
	wk := &s.walkers[worker]
	for root := lo; root < hi; root++ {
		wk.walkDown(0, int64(root))
	}
}

func (s *levelState) prepare(t *Tensor, factors []*dense.Matrix, out *dense.Matrix, level, r int, stripes *par.Stripes) {
	n := len(t.ModeOrder)
	s.arena.EnsureRank(r)
	for w := range s.walkers {
		wk := &s.walkers[w]
		wk.t = t
		wk.factors = factors
		wk.out = out
		wk.stripes = stripes
		wk.level = level
		wk.r = r
		wk.local = 0
		if wk.up == nil {
			wk.up = make([][]float64, n)
			wk.down = make([][]float64, n)
		}
		for l := 0; l < n; l++ {
			wk.up[l] = s.arena.Buf(w, l)
			wk.down[l] = s.arena.Buf(w, n+l)
		}
	}
}

// mttkrpLevel is the engine-facing level kernel (level >= 1):
// load-balanced over equal-nnz root-fiber chunks, allocation-free in
// steady state.
func (t *Tensor) mttkrpLevel(level int, factors []*dense.Matrix, out *dense.Matrix, workers int, stripes *par.Stripes, s *levelState) int64 {
	out.Zero()
	s.prepare(t, factors, out, level, out.Cols, stripes)
	par.ForChunks(s.bounds, workers, s.body)
	var ops int64
	for w := range s.walkers {
		ops += s.walkers[w].local
	}
	return ops
}

// MTTKRPLevel computes the MTTKRP for the mode stored at the given CSF
// level, using the general two-direction kernel: the product of the factor
// rows on the path *above* the target level is pushed down, the tensor-
// times-vector reduction of the subtree *below* is pulled up, and their
// Hadamard product accumulates into the output row of the target node.
//
// level == 0 degenerates to the root kernel (no push-down, race-free
// accumulation); deeper levels use striped row locks because nodes in
// different root subtrees can share an output row. Returns the Hadamard op
// unit count.
//
// This standalone form builds transient scheduling state per call; the
// Single engine holds persistent state instead and stays allocation-free.
func (t *Tensor) MTTKRPLevel(level int, factors []*dense.Matrix, out *dense.Matrix, workers int, stripes *par.Stripes) int64 {
	if level == 0 {
		return t.MTTKRPRoot(factors, out, workers)
	}
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	return t.mttkrpLevel(level, factors, out, workers, stripes, newLevelState(t, w))
}

// Single is the single-tree CSF engine (SPLATT's memory-lean ONEMODE
// configuration): one CSF ordered smallest-dimension-first, serving every
// mode's MTTKRP through the level kernel above. It trades kernel speed on
// deep modes for an N-fold reduction in index storage versus AllMode.
type Single struct {
	tree    *Tensor
	levelOf []int // levelOf[mode] = CSF level holding that mode
	workers int
	stripes *par.Stripes
	root    *rootState
	deep    *levelState
	ctr     engine.Counters
}

// NewSingle builds the single-tree engine over x.
func NewSingle(x *tensor.COO, workers int) *Single {
	n := x.Order()
	order := make([]int, n)
	for m := range order {
		order[m] = m
	}
	sort.Slice(order, func(a, b int) bool {
		if x.Dims[order[a]] != x.Dims[order[b]] {
			return x.Dims[order[a]] < x.Dims[order[b]]
		}
		return order[a] < order[b]
	})
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	maxDim := 0
	for _, d := range x.Dims {
		if d > maxDim {
			maxDim = d
		}
	}
	e := &Single{
		tree:    mustBuild(x, order),
		workers: workers,
		stripes: par.StripesFor(maxDim),
	}
	e.root = newRootState(e.tree, w)
	e.deep = newLevelState(e.tree, w)
	e.levelOf = make([]int, n)
	for l, m := range order {
		e.levelOf[m] = l
	}
	return e
}

// Name implements engine.Engine.
func (e *Single) Name() string { return "csf-one" }

// FactorUpdated implements engine.Engine; no factor-dependent caches.
func (e *Single) FactorUpdated(int) {}

// Stats implements engine.Engine.
func (e *Single) Stats() engine.Stats {
	vb := int64(len(e.tree.Vals)) * 8
	s := engine.Stats{IndexBytes: e.tree.IndexBytes(), ValueBytes: vb, PeakValueBytes: vb}
	e.ctr.Fill(&s)
	return s
}

// MTTKRP implements engine.Engine.
func (e *Single) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(e.tree.Dims, mode, factors, out); err != nil {
		return err
	}
	start := time.Now()
	level := e.levelOf[mode]
	if level == 0 {
		e.ctr.AddOps(e.tree.mttkrpRoot(factors, out, e.workers, e.root))
	} else {
		e.ctr.AddOps(e.tree.mttkrpLevel(level, factors, out, e.workers, e.stripes, e.deep))
	}
	e.ctr.Observe(start)
	return nil
}

var _ engine.Engine = (*Single)(nil)
