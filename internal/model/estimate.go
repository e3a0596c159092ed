package model

import (
	"slices"
	"sync/atomic"

	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Estimator provides (estimated or exact) distinct-tuple counts for every
// contiguous mode range [lo, hi) of a tensor — the element counts of the
// candidate semi-sparse intermediates. Each count records whether it is
// exact or carries sketch error.
type Estimator struct {
	order int
	nnz   int64
	dims  []int
	// counts[rangeID(lo,hi)] = distinct tuples of modes [lo,hi);
	// exact[rangeID(lo,hi)] reports whether that count is exact.
	counts []int64
	exact  []bool
}

// rangeID maps [lo, hi) with 0 <= lo < hi <= n to a dense table index.
func rangeID(lo, hi, n int) int { return lo*n + hi - 1 }

// The rolling range hash: h([lo,hi)) = mix64(h([lo,hi-1)) ^ (i[hi-1] + hashAdd))
// starting from hashSeed. Every estimator and sketch in the package uses it.
const (
	hashSeed = uint64(0x9e3779b97f4a7c15)
	hashAdd  = uint64(0x632be59bd9b4e019)
)

// How a range is counted.
const (
	countSkip   = iota // not requested
	countPrefix        // [0,hi) on mode-0-major sorted input: run boundaries
	countBitmap        // dense index space fits a small bitmap
	countSketch        // bottom-k sketch
)

// NewEstimator builds the full range table. Prefix ranges of sorted input
// and small ranges are counted exactly; the rest use bottom-k sketches of
// size k (k <= 0 selects the default 1024), fed in one pass split across
// workers (<= 0 → GOMAXPROCS). The estimates do not depend on workers.
func NewEstimator(x *tensor.COO, k, workers int) *Estimator {
	return newEstimator(x, k, workers, func(lo, hi int) bool { return true })
}

// newEstimator fills the table for the ranges want accepts (others read 0).
func newEstimator(x *tensor.COO, k, workers int, want func(lo, hi int) bool) *Estimator {
	if k <= 0 {
		k = 1024
	}
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	n, nnz := x.Order(), x.NNZ()
	e := &Estimator{order: n, nnz: int64(nnz), dims: append([]int(nil), x.Dims...),
		counts: make([]int64, n*n), exact: make([]bool, n*n)}
	// Prefix ranges (the full range included) first try the run-boundary
	// count, which costs one cheap pass for all of them together.
	how := make([]int, n*n)
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			id := rangeID(lo, hi, n)
			switch {
			case !want(lo, hi):
			case nnz == 0:
				e.exact[id] = true
			case lo == 0:
				how[id] = countPrefix
			case bitmapFits(x.Dims[lo:hi], nnz):
				how[id] = countBitmap
			default:
				how[id] = countSketch
			}
		}
	}
	full := rangeID(0, n, n)
	if how[full] == countPrefix {
		// The full-range projection is the nonzero count itself for a
		// deduplicated tensor; it is flagged exact once a count confirms it.
		e.counts[full] = int64(nnz)
	}
	if slices.Contains(how, countPrefix) {
		runs, sorted := prefixCounts(x, workers)
		for hi := 1; hi <= n; hi++ {
			id := rangeID(0, hi, n)
			switch {
			case how[id] != countPrefix:
			case sorted:
				setCount(e, id, runs[hi-1], hi == n)
			case bitmapFits(x.Dims[:hi], nnz):
				how[id] = countBitmap
			case hi < n:
				how[id] = countSketch
			}
		}
	}
	if slices.Contains(how, countSketch) {
		sketchRanges(e, x, how, k, workers)
	}
	if slices.Contains(how, countBitmap) {
		bitmapRanges(e, x, how, workers)
	}
	return e
}

// setCount records an exact count. The full range stays pinned to nnz and
// is flagged exact only when the count agrees with it.
func setCount(e *Estimator, id int, count int64, full bool) {
	if full {
		e.exact[id] = count == e.nnz
		return
	}
	e.counts[id], e.exact[id] = count, true
}

// bitmapFits reports whether the dense index space of modes with the given
// dims fits in a bitmap no larger than their index arrays (4·nnz bytes per
// mode, i.e. 32·nnz bits per mode).
func bitmapFits(dims []int, nnz int) bool {
	limit := uint64(32) * uint64(nnz) * uint64(len(dims))
	p := uint64(1)
	for _, d := range dims {
		if d <= 0 || uint64(d) > limit/p {
			return false
		}
		p *= uint64(d)
	}
	return true
}

// prefixCounts counts the distinct tuples of every prefix range [0,hi) from
// run boundaries, checking in the same pass that the nonzeros are sorted
// mode-0-major. runs[hi-1] is the count of [0,hi); sorted is false (and
// runs nil) on unsorted input.
func prefixCounts(x *tensor.COO, workers int) (runs []int64, sorted bool) {
	n, nnz := x.Order(), x.NNZ()
	workers = min(workers, nnz)
	// firsts[w*n+m] counts worker w's nonzeros whose first mode differing
	// from their predecessor is m: each opens a new tuple of [0,hi) for
	// every hi > m.
	firsts := make([]int64, workers*n)
	var unsorted atomic.Bool
	par.ForWorker(nnz, workers, func(w, a, b int) {
		f := firsts[w*n : (w+1)*n]
		for t := max(a, 1); t < b; t++ {
			m := 0
			for m < n && x.Inds[m][t] == x.Inds[m][t-1] {
				m++
			}
			if m == n {
				continue // a duplicate coordinate opens no tuple
			}
			if x.Inds[m][t] < x.Inds[m][t-1] {
				unsorted.Store(true)
				return
			}
			f[m]++
		}
	})
	if unsorted.Load() {
		return nil, false
	}
	runs = make([]int64, n)
	open := int64(1) // the first nonzero opens a tuple of every prefix
	for m := 0; m < n; m++ {
		for w := 0; w < workers; w++ {
			open += firsts[w*n+m]
		}
		runs[m] = open
	}
	return runs, true
}

// rangeSketches is one worker's sketches, grouped by range start: the
// rolling hash of start lo runs up to the last sketched hi of that start.
type rangeSketches struct {
	lo int
	at []*kmv // at[hi-lo-1] sketches [lo,hi); nil where not sketched
}

// sketchRanges fills every countSketch range with one pass over the
// nonzeros split across workers, merging the per-worker sketches in worker
// order.
func sketchRanges(e *Estimator, x *tensor.COO, how []int, k, workers int) {
	n, nnz := x.Order(), x.NNZ()
	workers = min(workers, nnz)
	newSet := func() []rangeSketches {
		var set []rangeSketches
		for lo := 0; lo < n; lo++ {
			var at []*kmv
			for hi := lo + 1; hi <= n; hi++ {
				if how[rangeID(lo, hi, n)] == countSketch {
					at = append(at, make([]*kmv, hi-lo-len(at))...)
					at[hi-lo-1] = newKMV(k)
				}
			}
			if at != nil {
				set = append(set, rangeSketches{lo: lo, at: at})
			}
		}
		return set
	}
	sets := make([][]rangeSketches, workers)
	for w := range sets {
		sets[w] = newSet()
	}
	par.ForWorker(nnz, workers, func(w, a, b int) {
		set := sets[w]
		for t := a; t < b; t++ {
			for _, rs := range set {
				h := hashSeed
				for j, s := range rs.at {
					h = mix64(h ^ (uint64(uint32(x.Inds[rs.lo+j][t])) + hashAdd))
					if s != nil {
						s.offer(h)
					}
				}
			}
		}
	})
	for i, rs := range sets[0] {
		for j, s := range rs.at {
			if s == nil {
				continue
			}
			for w := 1; w < workers; w++ {
				s.merge(sets[w][i].at[j])
			}
			id := rangeID(rs.lo, rs.lo+j+1, n)
			e.counts[id], e.exact[id] = s.estimate(), s.exact
		}
	}
}

// bitmapRanges counts every countBitmap range exactly, one range at a time
// through one reused bitmap; each range's pass is split across workers,
// which set bits with compare-and-swap and count the bits they set.
func bitmapRanges(e *Estimator, x *tensor.COO, how []int, workers int) {
	n, nnz := x.Order(), x.NNZ()
	words := func(lo, hi int) int {
		p := 1
		for _, d := range x.Dims[lo:hi] {
			p *= d
		}
		return (p + 63) / 64
	}
	size := 0
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			if how[rangeID(lo, hi, n)] == countBitmap {
				size = max(size, words(lo, hi))
			}
		}
	}
	bm := make([]atomic.Uint64, size)
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			id := rangeID(lo, hi, n)
			if how[id] != countBitmap {
				continue
			}
			b := bm[:words(lo, hi)]
			clear(b)
			inds, dims := x.Inds[lo:hi], x.Dims[lo:hi]
			var total atomic.Int64
			par.ForRange(nnz, workers, func(a, z int) {
				c := int64(0)
				for t := a; t < z; t++ {
					idx := int(inds[0][t])
					for m := 1; m < len(inds); m++ {
						idx = idx*dims[m] + int(inds[m][t])
					}
					word, bit := &b[idx>>6], uint64(1)<<(idx&63)
					for {
						old := word.Load()
						if old&bit != 0 {
							break
						}
						if word.CompareAndSwap(old, old|bit) {
							c++
							break
						}
					}
				}
				total.Add(c)
			})
			setCount(e, id, total.Load(), lo == 0 && hi == n)
		}
	}
}

// NewExactEstimator computes the same table exactly with hash sets, for
// model-validation experiments. Cost: O(nnz · N²) time and up to
// O(nnz · N²) transient memory.
func NewExactEstimator(x *tensor.COO) *Estimator {
	n := x.Order()
	e := &Estimator{order: n, nnz: int64(x.NNZ()), dims: append([]int(nil), x.Dims...),
		counts: make([]int64, n*n), exact: make([]bool, n*n)}
	for lo := 0; lo < n; lo++ {
		set := make(map[uint64]struct{})
		for hi := lo + 1; hi <= n; hi++ {
			// Recompute the rolling hash per (lo, hi) prefix; reuse the set
			// across hi is not possible since keys differ, so clear it.
			clear(set)
			for t := 0; t < x.NNZ(); t++ {
				h := hashSeed
				for m := lo; m < hi; m++ {
					h = mix64(h ^ (uint64(uint32(x.Inds[m][t])) + hashAdd))
				}
				set[h] = struct{}{}
			}
			id := rangeID(lo, hi, n)
			e.counts[id], e.exact[id] = int64(len(set)), true
		}
	}
	return e
}

// Order returns the tensor order the estimator was built for.
func (e *Estimator) Order() int { return e.order }

// Dims returns the mode dimensions of the underlying tensor (in the
// estimator's mode order).
func (e *Estimator) Dims() []int { return e.dims }

// RangeCount is one entry of the estimator's distinct-tuple table: the
// number of distinct index tuples of modes [Lo, Hi), and whether that
// count is exact or a sketch estimate.
type RangeCount struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Count int64 `json:"count"`
	Exact bool  `json:"exact"`
}

// Ranges returns the full distinct-tuple table — every contiguous mode range
// [lo, hi), in (lo, hi) order. These counts are the inputs of the op and
// memory models, so the audit layer records them with each decision.
func (e *Estimator) Ranges() []RangeCount {
	out := make([]RangeCount, 0, e.order*(e.order+1)/2)
	for lo := 0; lo < e.order; lo++ {
		for hi := lo + 1; hi <= e.order; hi++ {
			id := rangeID(lo, hi, e.order)
			out = append(out, RangeCount{Lo: lo, Hi: hi, Count: e.counts[id], Exact: e.exact[id]})
		}
	}
	return out
}

// NNZ returns the nonzero count of the underlying tensor.
func (e *Estimator) NNZ() int64 { return e.nnz }

// Exact reports whether every count in the table is exact.
func (e *Estimator) Exact() bool {
	for lo := 0; lo < e.order; lo++ {
		for hi := lo + 1; hi <= e.order; hi++ {
			if !e.exact[rangeID(lo, hi, e.order)] {
				return false
			}
		}
	}
	return true
}

// Distinct returns the (estimated) number of distinct index tuples of the
// tensor projected onto modes [lo, hi).
func (e *Estimator) Distinct(lo, hi int) int64 {
	if lo < 0 || hi <= lo || hi > e.order {
		panic("model: Distinct range out of bounds")
	}
	return e.counts[rangeID(lo, hi, e.order)]
}
