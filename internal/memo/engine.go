package memo

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/kernel"
	"adatm/internal/obs"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Engine is the memoized MTTKRP engine: a strategy tree of semi-sparse
// intermediate tensors over a fixed input tensor. The symbolic phase runs
// once at construction; every MTTKRP materializes (or reuses) the value
// matrices along the path from the root to the requested mode's leaf, and
// FactorUpdated invalidates exactly the nodes contracted with the factor
// that changed. A node's value storage is allocated on its first
// materialization (or when R grows) and kept for the engine's life:
// invalidation only marks it stale, and the next rebuild overwrites it in
// place, so the resident footprint is every non-leaf node's nelem·R·8 bytes
// — the figure the cost model budgets — and steady-state sweeps allocate
// nothing.
type Engine struct {
	x       *tensor.COO
	strat   *Strategy
	name    string
	workers int

	root   *node
	all    []*node
	leaves []*node

	rank int // R of the cached value matrices; 0 until the first MTTKRP

	// Per-worker factor-row scratch for the fused Hadamard-accumulate
	// kernel, sized workers × maxDelta at construction so the numeric
	// phase allocates nothing.
	rowsBuf [][][]float64
	// Call-scoped compute inputs plus a method value bound once at
	// construction: every compute passes the same func value to the
	// scheduler instead of a fresh closure, keeping steady state at zero
	// allocations.
	curNode     *node
	curDst      *dense.Matrix
	curScatter  []tensor.Index
	curFromRoot bool
	body        func(worker, lo, hi int)

	// Privatized leaf accumulation: the scatter path above is already
	// lock-free (distinct leaf elements own distinct output rows), but its
	// parallel width is capped by the leaf element count — a short target
	// mode starves it. The privatized path parallelizes over the flattened
	// reduction entries instead, each worker accumulating into a private
	// output copy folded afterwards by pool.Reduce. privBody is the bound
	// method value mirroring body, for the same zero-alloc reason.
	res      *accum.Resolver
	pool     *accum.Pool
	privBody func(worker, lo, hi int)

	ctr      engine.Counters
	idxBytes int64
	// valB is the value storage the nodes hold. It only grows (a rank
	// increase swaps a buffer for a larger one), so it is both the resident
	// and the peak figure.
	valB       atomic.Int64
	symbolicNS int64

	// Memoization effectiveness counters: a hit is an ensure request served
	// by a node holding current values, a miss is a node (re)build, an
	// eviction is a current node marked stale by invalidation. Atomic so a live
	// /metrics scrape can read them mid-run; the mutating paths are the
	// single-threaded kernel entry, so the adds never contend.
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64

	// tr, when non-nil, receives one span per node rebuild (named at
	// instrumentation time in spanNames, indexed like all).
	tr        *obs.Tracer
	spanNames []string
}

// New builds the engine for the given strategy. name labels the engine in
// reports (e.g. "memo-binary"); an empty name defaults to "memo".
func New(x *tensor.COO, strat *Strategy, workers int, name string) (*Engine, error) {
	return NewWithConfig(x, strat, Config{Workers: workers, Name: name})
}

// Config holds the optional knobs of the memoized engine.
type Config struct {
	Workers int
	Name    string
	// Accum is the output-accumulation policy for the leaf contraction
	// (LockFree is forced on — the scatter baseline here takes no locks).
	Accum accum.Config
}

// NewWithConfig is New with the full configuration surface.
func NewWithConfig(x *tensor.COO, strat *Strategy, cfg Config) (*Engine, error) {
	if err := strat.Validate(x.Order()); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = "memo"
	}
	e := &Engine{x: x, strat: strat, name: name, workers: cfg.Workers}
	start := time.Now()
	e.root, e.all, e.leaves = buildTree(x, strat, cfg.Workers)
	e.symbolicNS = time.Since(start).Nanoseconds()
	maxDelta := 0
	for _, t := range e.all {
		e.idxBytes += t.indexBytes()
		if len(t.delta) > maxDelta {
			maxDelta = len(t.delta)
		}
	}
	w := cfg.Workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	e.rowsBuf = make([][][]float64, w)
	for i := range e.rowsBuf {
		e.rowsBuf[i] = make([][]float64, maxDelta)
	}
	e.body = e.runChunk
	acfg := cfg.Accum
	acfg.LockFree = true
	e.res = accum.NewResolver(x.Order(), acfg)
	e.pool = accum.NewPool(w)
	e.privBody = e.runPrivChunk
	return e, nil
}

// Strategy returns the strategy tree the engine was built with.
func (e *Engine) Strategy() *Strategy { return e.strat }

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	s := engine.Stats{
		IndexBytes:     e.idxBytes,
		ValueBytes:     e.valB.Load(),
		PeakValueBytes: e.valB.Load(),
		SymbolicNS:     e.symbolicNS,
	}
	e.ctr.Fill(&s)
	return s
}

// MemoStats reports the memoization effectiveness counters: ensure requests
// served from cache (hits), node (re)builds (misses), and cached nodes
// marked stale by invalidation (evictions).
func (e *Engine) MemoStats() (hits, misses, evictions int64) {
	return e.hits.Load(), e.misses.Load(), e.evicts.Load()
}

// Instrument implements engine.Instrumentable: the memoization counters and
// value-storage gauges go to the registry, and node rebuilds are spanned
// in the tracer (named memo.rebuild[lo:hi) after each node's mode range).
// The worst per-node chunk imbalance of the reduction schedule is exported
// as a gauge — the number the weighted scheduler exists to keep near 1.
func (e *Engine) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if tr != nil {
		e.spanNames = make([]string, len(e.all))
		for i, t := range e.all {
			e.spanNames[i] = "memo.rebuild[" + strconv.Itoa(t.lo) + ":" + strconv.Itoa(t.hi) + ")"
			t.id = i
		}
		e.tr = tr
	}
	if reg == nil {
		return
	}
	engine.RegisterCommonMetrics(reg, e.name, &e.ctr)
	l := obs.Labels{"engine": e.name}
	reg.CounterFunc("adatm_memo_hits_total",
		"Memoized-node requests served from cache.", l,
		func() float64 { return float64(e.hits.Load()) })
	reg.CounterFunc("adatm_memo_misses_total",
		"Memoized-node requests that (re)built the node.", l,
		func() float64 { return float64(e.misses.Load()) })
	reg.CounterFunc("adatm_memo_evictions_total",
		"Cached nodes marked stale by factor invalidation.", l,
		func() float64 { return float64(e.evicts.Load()) })
	valueBytes := func() float64 { return float64(e.valB.Load()) }
	reg.GaugeFunc("adatm_memo_value_bytes",
		"Resident semi-sparse value storage of the strategy tree.", l, valueBytes)
	reg.GaugeFunc("adatm_memo_peak_value_bytes",
		"Peak resident value storage (equal to the resident figure: value storage only grows).", l, valueBytes)
	worst := 1.0
	for _, t := range e.all {
		if t.parent == nil {
			continue
		}
		if v := par.ImbalanceRatio(t.redPtr, t.chunks); v > worst {
			worst = v
		}
	}
	reg.GaugeFunc("adatm_par_chunk_imbalance_ratio",
		"Worst heaviest-chunk/ideal-share ratio of the weighted schedules.", l,
		func() float64 { return worst })
	engine.RegisterAccumMetrics(reg, e.name, len(e.x.Dims), e.res, e.pool)
}

// FactorUpdated implements engine.Engine: every cached node contracted with
// factors[mode] becomes stale; its storage stays for the next rebuild.
func (e *Engine) FactorUpdated(mode int) {
	for _, t := range e.all {
		if t.valid && t.dependsOn(mode) {
			e.invalidate(t)
		}
	}
}

// invalidateAll marks every cached value matrix stale (used when R changes).
func (e *Engine) invalidateAll() {
	for _, t := range e.all {
		if t.valid {
			e.invalidate(t)
		}
	}
}

func (e *Engine) invalidate(t *node) {
	t.valid = false
	e.evicts.Add(1)
}

// alloc shapes t.vals as nelem × r over the node's storage, allocating only
// when the storage is too small (first materialization, or R grew).
func (e *Engine) alloc(t *node, r int) {
	need := t.nelem * r
	if have := cap(t.vals.Data); have < need {
		e.valB.Add(int64(need-have) * 8)
		t.vals.Data = make([]float64, need)
	}
	t.vals = dense.Matrix{Rows: t.nelem, Cols: r, Data: t.vals.Data[:need]}
}

// MTTKRP implements engine.Engine.
func (e *Engine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(e.x.Dims, mode, factors, out); err != nil {
		return err
	}
	start := time.Now()
	r := out.Cols
	if e.rank != r {
		e.invalidateAll()
		e.rank = r
	}
	leaf := e.leaves[mode]
	e.ensure(leaf.parent, factors, r)
	// The leaf contraction is fused with the output scatter: each leaf
	// element's row is accumulated straight into the output row of its mode
	// index instead of being materialized and then copied. Mode indices
	// absent from the tensor keep zero rows. The accumulation backend is
	// resolved per mode: element-parallel in-place scatter (lock-free but
	// starved when the mode has few distinct indices), or entry-parallel
	// privatized accumulation with a folding reduction.
	workers := e.workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	if e.res.Resolve(mode, out.Rows, int64(len(leaf.redElems)), r, workers) == accum.Privatize {
		e.computePrivatized(leaf, factors, r, out, workers)
	} else {
		out.Zero()
		e.compute(leaf, factors, r, out, leaf.inds[0])
	}
	e.ctr.Observe(start)
	return nil
}

// ensure brings t.vals up to date (recursively ensuring ancestors first),
// counting cache hits and (re)build misses and spanning each rebuild.
func (e *Engine) ensure(t *node, factors []*dense.Matrix, r int) {
	if t.parent == nil {
		return
	}
	if t.valid {
		e.hits.Add(1)
		return
	}
	e.misses.Add(1)
	p := t.parent
	e.ensure(p, factors, r)
	e.alloc(t, r)
	t.valid = true
	if e.tr != nil {
		sp := e.tr.StartSpan(e.spanNames[t.id], 0)
		e.compute(t, factors, r, &t.vals, nil)
		sp.End()
		return
	}
	e.compute(t, factors, r, &t.vals, nil)
}

// compute evaluates the contraction of the parent's semi-sparse tensor with
// the delta-mode factor rows, reduced into t's elements. The inner loop is
// the paper's TTM-through-Hadamard kernel, run through the shared fused
// primitives: for each parent element, its R-row (or the broadcast scalar
// nonzero value when the parent is the root) is multiplied by one factor
// row per removed mode and accumulated into the owning destination row in
// a single pass, with no temporary R-vector. When scatter is nil, element
// i's row is dst.Row(i) (materializing t.vals); otherwise it is
// dst.Row(scatter[i]) (the fused leaf-to-output scatter). Elements are
// scheduled in reduction-weighted chunks; distinct elements own distinct
// destination rows, so no synchronization is needed.
func (e *Engine) compute(t *node, factors []*dense.Matrix, r int, dst *dense.Matrix, scatter []tensor.Index) {
	p := t.parent
	for k, d := range t.delta {
		t.facBuf[k] = factors[d]
	}
	e.curNode, e.curDst, e.curScatter, e.curFromRoot = t, dst, scatter, p.parent == nil
	par.ForChunks(t.chunks, e.workers, e.body)
	e.curNode, e.curDst, e.curScatter = nil, nil, nil
	e.ctr.AddOps(int64(p.nelem) * int64(len(t.delta)+1) * int64(r))
}

// runChunk processes one scheduled chunk of the current compute's child
// elements on the given worker.
func (e *Engine) runChunk(worker, lo, hi int) {
	t := e.curNode
	p := t.parent
	dst, scatter, fromRoot := e.curDst, e.curScatter, e.curFromRoot
	vals := e.x.Vals
	rows := e.rowsBuf[worker]
	k := len(t.delta)
	for i := lo; i < hi; i++ {
		var out []float64
		if scatter == nil {
			out = dst.Row(i)
		} else {
			out = dst.Row(int(scatter[i]))
		}
		for j := range out {
			out[j] = 0
		}
		for ei := t.redPtr[i]; ei < t.redPtr[i+1]; ei++ {
			pe := int(t.redElems[ei])
			for kk := 0; kk < k; kk++ {
				rows[kk] = t.facBuf[kk].Row(int(t.deltaIdx[kk][pe]))
			}
			if fromRoot {
				// Single-pass v · Πf accumulate; with a single removed
				// mode this is a bare out[j] += v·f[j] (no broadcast).
				kernel.HadamardAccum(out, vals[pe], rows[:k])
			} else {
				kernel.HadamardAccumVec(out, p.vals.Row(pe), rows[:k])
			}
		}
	}
}

// computePrivatized is the privatized-accumulation variant of the fused
// leaf contraction: workers split the flattened reduction entries (full
// parallel width even when the leaf has fewer elements than workers) and
// accumulate into per-worker output copies, folded into out by a parallel
// tiled reduction. Mirrors compute's call-scoped-field pattern so the
// steady state stays allocation-free.
func (e *Engine) computePrivatized(t *node, factors []*dense.Matrix, r int, out *dense.Matrix, workers int) {
	p := t.parent
	for k, d := range t.delta {
		t.facBuf[k] = factors[d]
	}
	e.pool.Begin(out.Rows, r)
	e.curNode, e.curScatter, e.curFromRoot = t, t.inds[0], p.parent == nil
	par.ForWorker(len(t.redElems), e.workers, e.privBody)
	e.pool.Reduce(out, workers)
	e.curNode, e.curScatter = nil, nil
	e.ctr.AddOps(int64(p.nelem) * int64(len(t.delta)+1) * int64(r))
}

// runPrivChunk processes reduction entries [lo, hi) of the current
// privatized leaf contraction on the given worker. The owning leaf element
// of entry lo is found by binary search on the reduction pointer (hand
// rolled: sort.Search's closure would allocate in this zero-alloc path) and
// then advanced in step with the entries.
func (e *Engine) runPrivChunk(worker, lo, hi int) {
	t := e.curNode
	p := t.parent
	scatter, fromRoot := e.curScatter, e.curFromRoot
	vals := e.x.Vals
	rows := e.rowsBuf[worker]
	k := len(t.delta)
	priv := e.pool.Acquire(worker)
	// Greatest i with redPtr[i] <= lo: invariant redPtr[a] <= lo < redPtr[b].
	a, b := 0, len(t.redPtr)-1
	for a+1 < b {
		mid := int(uint(a+b) >> 1)
		if t.redPtr[mid] <= int64(lo) {
			a = mid
		} else {
			b = mid
		}
	}
	i := a
	for ei := lo; ei < hi; ei++ {
		for int64(ei) >= t.redPtr[i+1] {
			i++
		}
		out := priv.Row(int(scatter[i]))
		pe := int(t.redElems[ei])
		for kk := 0; kk < k; kk++ {
			rows[kk] = t.facBuf[kk].Row(int(t.deltaIdx[kk][pe]))
		}
		if fromRoot {
			kernel.HadamardAccum(out, vals[pe], rows[:k])
		} else {
			kernel.HadamardAccumVec(out, p.vals.Row(pe), rows[:k])
		}
	}
}

// NodeElemCounts returns, for every node in pre-order, its mode range and
// the number of distinct projected tuples — the quantities the cost model
// estimates. Used to validate the model against the exact symbolic phase.
func (e *Engine) NodeElemCounts() []NodeCount {
	out := make([]NodeCount, 0, len(e.all))
	for _, t := range e.all {
		out = append(out, NodeCount{Lo: t.lo, Hi: t.hi, Elems: t.nelem})
	}
	return out
}

// NodeCount reports the element count of one tree node.
type NodeCount struct {
	Lo, Hi int
	Elems  int
}

// PerIterationOps returns the exact number of Hadamard op units one full
// CP-ALS iteration (one MTTKRP per mode, in order, with the standard
// invalidation pattern) costs at rank r: every non-root node is computed
// exactly once per iteration, costing parentElems·(|δ|+1)·r.
func (e *Engine) PerIterationOps(r int) int64 {
	var ops int64
	for _, t := range e.all {
		if t.parent == nil {
			continue
		}
		ops += int64(t.parent.nelem) * int64(len(t.delta)+1) * int64(r)
	}
	return ops
}

var _ engine.Engine = (*Engine)(nil)

// Describe returns a short human-readable summary of the tree: node count,
// depth, and per-node element counts relative to nnz.
func (e *Engine) Describe() string {
	return fmt.Sprintf("%s depth=%d nodes=%d nnz=%d", e.strat, e.strat.Depth(), e.strat.CountNodes(), e.x.NNZ())
}
