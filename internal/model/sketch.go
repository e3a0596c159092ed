// Package model implements the paper's model-driven strategy selection: it
// predicts, for every candidate memoization strategy, the per-iteration
// operation count and the memory footprint — without materializing any
// intermediate tensor — and picks the cheapest strategy that fits a memory
// budget.
//
// The predictions need one nontrivial input: the number of *distinct* index
// tuples of the tensor projected onto each contiguous mode range (that is
// the element count of the corresponding semi-sparse intermediate). The
// estimator counts a range exactly wherever that is cheap: prefix ranges
// [0,hi) from run boundaries when the nonzeros are sorted mode-0-major, and
// any range whose dense index space fits a bitmap no larger than the range's
// own index arrays (every single mode, in practice). The remaining ranges get
// a bottom-k (KMV) distinct-count sketch each, fed in one parallel pass over
// the nonzeros; per-worker sketches merge into the same bits a serial pass
// would produce, so the estimates do not depend on the worker count.
package model

// mix64 is the splitmix64 finalizer, a strong 64-bit mixing function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// kmv is a bottom-k sketch over a stream of 64-bit hashes: it retains the k
// smallest distinct hash values and estimates the distinct count of the
// stream as (k-1)/kth-smallest-normalized-hash. With k=1024 the standard
// error is about 1/√k ≈ 3%.
//
// The retained hashes live in an open-addressed set of 4k slots (load at
// most 1/2 before the set is trimmed back to k), so offering a hash never
// allocates. Slots hold h+1 so that zero marks an empty slot; h = 2^64-1 is
// never retained because it fails the initial threshold test.
type kmv struct {
	k       int
	thresh  uint64 // hashes >= thresh are ignored (cannot be in the bottom k)
	n       int    // retained hashes
	exact   bool   // true while the sketch has never been trimmed
	table   []uint64
	mask    uint64
	scratch []uint64 // trim/estimate buffer, allocated on first use
}

func newKMV(k int) *kmv {
	if k < 16 {
		k = 16
	}
	size := 1
	for size < 4*k {
		size <<= 1
	}
	return &kmv{k: k, thresh: ^uint64(0), exact: true, table: make([]uint64, size), mask: uint64(size - 1)}
}

// offer adds one hash to the sketch. The threshold test is the inlined fast
// path: once the sketch has filled, most hashes of a long stream stop there.
func (s *kmv) offer(h uint64) {
	if h < s.thresh {
		s.insert(h)
	}
}

// insert adds a hash below the threshold, trimming the set back to the k
// smallest once it holds more than 2k.
func (s *kmv) insert(h uint64) {
	if s.put(h) && s.n > 2*s.k {
		s.trim()
	}
}

// put adds h to the set and reports whether it was new. The probe starts at
// h's low bits, which stay uniform however small the retained hashes get.
func (s *kmv) put(h uint64) bool {
	v := h + 1
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		switch s.table[i] {
		case 0:
			s.table[i] = v
			s.n++
			return true
		case v:
			return false
		}
	}
}

// smallest returns the retained hashes in s.scratch, reordered so that the
// first k are the k smallest and the k-th of them is the largest of those.
// Quickselect is enough: the threshold and the estimate need only the k-th
// smallest hash, and the trimmed set does not need to be ordered.
func (s *kmv) smallest() []uint64 {
	if s.scratch == nil {
		s.scratch = make([]uint64, 0, 2*s.k+1)
	}
	hs := s.scratch[:0]
	for _, v := range s.table {
		if v != 0 {
			hs = append(hs, v-1)
		}
	}
	s.scratch = hs
	// Wirth's selection of index k-1; the retained hashes are distinct.
	want := s.k - 1
	l, r := 0, len(hs)-1
	for l < r {
		p := hs[want]
		i, j := l, r
		for i <= j {
			for hs[i] < p {
				i++
			}
			for p < hs[j] {
				j--
			}
			if i <= j {
				hs[i], hs[j] = hs[j], hs[i]
				i++
				j--
			}
		}
		if j < want {
			l = i
		}
		if want < i {
			r = j
		}
	}
	return hs
}

// trim cuts the retained set back to the k smallest hashes.
func (s *kmv) trim() {
	hs := s.smallest()[:s.k]
	s.thresh = hs[s.k-1] + 1
	clear(s.table)
	s.n = 0
	for _, h := range hs {
		s.put(h)
	}
	s.exact = false
}

// merge folds o into s, leaving s the sketch of both streams. Because a
// sketch's estimate depends only on the distinct hashes of its stream (their
// number while it is at most 2k, else the k-th smallest), merging per-worker
// sketches gives exactly the estimate of one sketch fed every hash.
func (s *kmv) merge(o *kmv) {
	for _, v := range o.table {
		if v != 0 {
			s.offer(v - 1)
		}
	}
	s.exact = s.exact && o.exact
}

// estimate returns the estimated number of distinct hashes offered.
func (s *kmv) estimate() int64 {
	if s.exact || s.n < s.k {
		return int64(s.n)
	}
	kth := s.smallest()[s.k-1]
	if kth == 0 {
		return int64(s.k)
	}
	// D ≈ (k-1) / U(k) with U(k) the k-th smallest hash normalized to (0,1).
	frac := float64(kth) / float64(^uint64(0))
	return int64(float64(s.k-1) / frac)
}
