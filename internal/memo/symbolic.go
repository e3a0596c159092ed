package memo

import (
	"adatm/internal/dense"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// node is the runtime form of a strategy-tree node: the symbolic structure
// (distinct projected index tuples plus the reduction mapping from the
// parent's elements) computed once, and the numeric value matrix
// materialized and invalidated as CP-ALS sweeps the modes.
type node struct {
	lo, hi   int // mode range [lo, hi)
	parent   *node
	children []*node

	// delta is the set of modes contracted away when computing this node
	// from its parent: parent range minus [lo, hi).
	delta []int

	// Symbolic structure. inds[m-lo] is the index array of mode m over the
	// node's nelem distinct projected tuples; for the root these alias the
	// input tensor's arrays. redPtr/redElems (nil for the root) group the
	// parent's element ids by the tuple of this node they project onto:
	// parent elements redElems[redPtr[i]:redPtr[i+1]] reduce into element i.
	nelem    int
	inds     [][]tensor.Index
	redPtr   []int64
	redElems []int32

	// vals is the nelem × R semi-sparse value matrix, allocated on first
	// materialization and kept across invalidations; valid reports whether
	// it holds the values of the current factors. Leaf nodes never
	// materialize vals: their contraction is fused with the MTTKRP output
	// scatter.
	vals  dense.Matrix
	valid bool

	// Kernel-layer state resolved once at build time so the numeric phase
	// performs no per-call setup allocation: deltaIdx[k] is the parent's
	// index array for mode delta[k], facBuf is the per-call factor-matrix
	// scratch (filled at the top of each compute), and chunks holds the
	// equal-weight chunk boundaries over this node's elements (weighted by
	// reduction-group size via the redPtr prefix sums — the load-balanced
	// schedule for skewed reductions).
	deltaIdx [][]tensor.Index
	facBuf   []*dense.Matrix
	chunks   []int

	// id is the node's index in the engine's pre-order list, assigned at
	// instrumentation time to address the per-node rebuild span names.
	id int
}

// buildTree materializes the symbolic structure for every strategy node,
// processing each tree level's nodes concurrently (a node depends only on
// its parent, so breadth-first order exposes the natural coarse parallelism
// of the preprocessing). Returns the root, all nodes in breadth-first
// order, and the leaf for each mode.
func buildTree(x *tensor.COO, strat *Strategy, workers int) (root *node, all []*node, leaves []*node) {
	n := x.Order()
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	leaves = make([]*node, n)
	root = &node{lo: 0, hi: n, nelem: x.NNZ(), inds: x.Inds}
	all = append(all, root)

	type task struct {
		s  *Strategy
		pn *node
	}
	level := []task{{strat, root}}
	for len(level) > 0 {
		// Wire up the level's skeleton nodes sequentially, then fill their
		// symbolic structure in parallel.
		var nodes []*node
		var next []task
		for _, tk := range level {
			for _, cs := range tk.s.Children {
				cn := &node{lo: cs.Lo, hi: cs.Hi, parent: tk.pn}
				for m := tk.pn.lo; m < tk.pn.hi; m++ {
					if m < cs.Lo || m >= cs.Hi {
						cn.delta = append(cn.delta, m)
					}
				}
				tk.pn.children = append(tk.pn.children, cn)
				all = append(all, cn)
				nodes = append(nodes, cn)
				if cs.IsLeaf() {
					leaves[cs.Lo] = cn
				} else {
					next = append(next, task{cs, cn})
				}
			}
		}
		par.For(len(nodes), workers, func(i int) {
			buildSymbolic(nodes[i], x.Dims)
			finalizeNode(nodes[i], w)
		})
		level = next
	}
	return root, all, leaves
}

// finalizeNode resolves the kernel-layer state of a freshly built node: the
// delta-mode index arrays (stable for the life of the engine — parent inds
// are built once and never reallocated), the factor scratch, and the
// nnz-weighted chunk boundaries used by the load-balanced scheduler
// (workers × 8 chunks of roughly equal reduction weight).
func finalizeNode(c *node, workers int) {
	p := c.parent
	c.deltaIdx = make([][]tensor.Index, len(c.delta))
	for k, d := range c.delta {
		c.deltaIdx[k] = p.inds[d-p.lo]
	}
	c.facBuf = make([]*dense.Matrix, len(c.delta))
	c.chunks = par.WeightedBounds(c.redPtr, workers*8)
}

// buildSymbolic computes the symbolic projection of c's parent onto
// [c.lo, c.hi): sort the parent's elements by their projected index tuple
// (LSD radix), collapse duplicates into distinct child elements, and record
// the grouping as the reduction mapping.
func buildSymbolic(c *node, dims []int) {
	p := c.parent
	lo, hi := c.lo, c.hi
	// Key arrays: the parent's index arrays for the child's modes.
	keys := make([][]tensor.Index, hi-lo)
	for m := lo; m < hi; m++ {
		keys[m-lo] = p.inds[m-p.lo]
	}
	perm := make([]int32, p.nelem)
	for i := range perm {
		perm[i] = int32(i)
	}
	sortByKeys(perm, keys, dims[lo:hi])
	sameKey := func(a, b int32) bool {
		for _, key := range keys {
			if key[a] != key[b] {
				return false
			}
		}
		return true
	}
	c.inds = make([][]tensor.Index, hi-lo)
	c.redElems = perm
	c.redPtr = append(c.redPtr, 0)
	for i := 0; i < len(perm); i++ {
		if i == 0 || !sameKey(perm[i-1], perm[i]) {
			if i > 0 {
				c.redPtr = append(c.redPtr, int64(i))
			}
			for k, key := range keys {
				c.inds[k] = append(c.inds[k], key[perm[i]])
			}
		}
	}
	c.redPtr = append(c.redPtr, int64(len(perm)))
	c.nelem = len(c.inds[0])
}

// indexBytes returns the symbolic storage of the node (index arrays plus
// reduction mapping); the root costs nothing because it aliases the input.
func (t *node) indexBytes() int64 {
	if t.parent == nil {
		return 0
	}
	var b int64
	for _, ind := range t.inds {
		b += int64(len(ind)) * 4
	}
	b += int64(len(t.redPtr))*8 + int64(len(t.redElems))*4
	return b
}

// isLeaf reports whether the node covers a single mode.
func (t *node) isLeaf() bool { return t.hi-t.lo == 1 }

// dependsOn reports whether the node's semi-sparse values depend on the
// factor matrix of the given mode (i.e. the mode was contracted away
// somewhere on the path from the root).
func (t *node) dependsOn(mode int) bool {
	return t.parent != nil && (mode < t.lo || mode >= t.hi)
}
