package model

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"adatm/internal/tensor"
)

// refKMV is the original serial, map-backed bottom-k sketch, kept as the
// oracle for the open-addressed kmv: both must give bit-identical estimates.
type refKMV struct {
	k      int
	seen   map[uint64]struct{}
	thresh uint64
	exact  bool
}

func newRefKMV(k int) *refKMV {
	if k < 16 {
		k = 16
	}
	return &refKMV{k: k, seen: make(map[uint64]struct{}, 2*k), thresh: ^uint64(0), exact: true}
}

func (s *refKMV) offer(h uint64) {
	if h >= s.thresh {
		return
	}
	if _, ok := s.seen[h]; ok {
		return
	}
	s.seen[h] = struct{}{}
	if len(s.seen) > 2*s.k {
		hs := s.sortedHashes()[:s.k]
		s.thresh = hs[len(hs)-1] + 1
		s.seen = make(map[uint64]struct{}, 2*s.k)
		for _, h := range hs {
			s.seen[h] = struct{}{}
		}
		s.exact = false
	}
}

func (s *refKMV) sortedHashes() []uint64 {
	hs := make([]uint64, 0, len(s.seen))
	for h := range s.seen {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(a, b int) bool { return hs[a] < hs[b] })
	return hs
}

func (s *refKMV) estimate() int64 {
	if s.exact || len(s.seen) < s.k {
		return int64(len(s.seen))
	}
	kth := s.sortedHashes()[s.k-1]
	if kth == 0 {
		return int64(s.k)
	}
	frac := float64(kth) / float64(^uint64(0))
	return int64(float64(s.k-1) / frac)
}

// refSketchCounts is the original estimator: one serial pass offering every
// nonzero's rolling hash to a refKMV per range.
func refSketchCounts(x *tensor.COO, k int) []int64 {
	n := x.Order()
	sketches := make([]*refKMV, n*n)
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			sketches[rangeID(lo, hi, n)] = newRefKMV(k)
		}
	}
	for t := 0; t < x.NNZ(); t++ {
		for lo := 0; lo < n; lo++ {
			h := hashSeed
			for hi := lo + 1; hi <= n; hi++ {
				h = mix64(h ^ (uint64(uint32(x.Inds[hi-1][t])) + hashAdd))
				sketches[rangeID(lo, hi, n)].offer(h)
			}
		}
	}
	counts := make([]int64, n*n)
	for id, s := range sketches {
		if s != nil {
			counts[id] = s.estimate()
		}
	}
	return counts
}

// shuffled returns x with its nonzeros in a seeded random order.
func shuffled(x *tensor.COO, seed int64) *tensor.COO {
	perm := rand.New(rand.NewSource(seed)).Perm(x.NNZ())
	y := tensor.NewCOO(x.Dims, x.NNZ())
	idx := make([]tensor.Index, x.Order())
	for _, p := range perm {
		for m := range idx {
			idx[m] = x.Inds[m][p]
		}
		y.Append(idx, x.Vals[p])
	}
	return y
}

// oracleTensor draws a random deduplicated tensor of the given order with
// the edge cases the estimator's paths branch on: singleton modes, a mode of
// dim >= 2^24 (too large for any bitmap), and sparse modes with empty slices.
func oracleTensor(rng *rand.Rand, order, nnz int) *tensor.COO {
	dims := make([]int, order)
	for m := range dims {
		switch rng.Intn(6) {
		case 0:
			dims[m] = 1
		case 1:
			dims[m] = 1<<24 + rng.Intn(1000)
		default:
			dims[m] = 2 + rng.Intn(60)
		}
	}
	x := tensor.NewCOO(dims, nnz)
	idx := make([]tensor.Index, order)
	skew := rng.Float64()
	for k := 0; k < nnz; k++ {
		for m, d := range dims {
			// Squaring a uniform draw crowds the low indices, leaving many
			// high slices empty when skew is large.
			u := rng.Float64()
			if rng.Float64() < skew {
				u *= u
			}
			idx[m] = tensor.Index(u * float64(d))
		}
		x.Append(idx, 1)
	}
	x.Dedup()
	return x
}

// TestEstimatorOracles checks every range of NewEstimator against two
// oracles: exact-flagged counts must equal NewExactEstimator, sketched ones
// must be bit-identical to the original serial sketch at every worker
// count. The full range stays pinned to nnz.
func TestEstimatorOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// A small k makes sketches overflow and trim on modest tensors.
	const k = 64
	checked := map[bool]int{} // ranges compared, by exactness
	for trial := 0; trial < 40; trial++ {
		order := 2 + trial%7
		nnz := []int{0, 1, 7, 300, 1500}[rng.Intn(5)]
		sorted := oracleTensor(rng, order, nnz)
		for _, x := range []*tensor.COO{sorted, shuffled(sorted, int64(trial))} {
			exact := NewExactEstimator(x)
			ref := refSketchCounts(x, k)
			for _, w := range []int{1, 2, 3, 7} {
				name := fmt.Sprintf("trial %d order %d nnz %d dims %v workers %d", trial, order, x.NNZ(), x.Dims, w)
				est := NewEstimator(x, k, w)
				if got := est.Distinct(0, order); got != int64(x.NNZ()) {
					t.Errorf("%s: full range %d, want nnz %d", name, got, x.NNZ())
				}
				for _, r := range est.Ranges() {
					id := rangeID(r.Lo, r.Hi, order)
					checked[r.Exact]++
					if r.Exact && r.Count != exact.counts[id] {
						t.Errorf("%s: exact range [%d,%d) = %d, exact estimator %d", name, r.Lo, r.Hi, r.Count, exact.counts[id])
					}
					full := r.Lo == 0 && r.Hi == order
					if !r.Exact && !full && r.Count != ref[id] {
						t.Errorf("%s: sketched range [%d,%d) = %d, serial sketch %d", name, r.Lo, r.Hi, r.Count, ref[id])
					}
				}
			}
		}
	}
	if checked[true] == 0 || checked[false] == 0 {
		t.Errorf("oracle coverage: %d exact and %d sketched ranges compared", checked[true], checked[false])
	}
}

// The exact paths must cover what they promise: every single-mode range
// whose bitmap fits, and every prefix range of sorted input.
func TestEstimatorExactCoverage(t *testing.T) {
	x := tensor.RandomClustered(5, 4000, 20000, 0.8, 7) // sorted by Generate
	for name, y := range map[string]*tensor.COO{"sorted": x, "shuffled": shuffled(x, 7)} {
		est := NewEstimator(y, 256, 2)
		for _, r := range est.Ranges() {
			wantExact := r.Hi == r.Lo+1 || (name == "sorted" && r.Lo == 0)
			if wantExact && !r.Exact {
				t.Errorf("%s: range [%d,%d) sketched, want exact", name, r.Lo, r.Hi)
			}
		}
	}
}

func TestKMVMergeMatchesSerial(t *testing.T) {
	for _, d := range []int{10, 100, 5000} {
		serial, a, b := newKMV(64), newKMV(64), newKMV(64)
		ref := newRefKMV(64)
		for i := 0; i < d; i++ {
			h := mix64(uint64(i))
			serial.offer(h)
			ref.offer(h)
			if i%3 == 0 {
				a.offer(h)
			} else {
				b.offer(h)
			}
		}
		a.merge(b)
		if got, want := a.estimate(), ref.estimate(); got != want || serial.estimate() != want {
			t.Errorf("d=%d: merged %d, serial %d, reference %d", d, got, serial.estimate(), want)
		}
	}
}
