package model

import (
	"sort"

	"adatm/internal/memo"
	"adatm/internal/tensor"
)

// Mode permutation support: strategy trees group contiguous mode ranges, so
// grouping non-adjacent modes requires permuting the modes first. The
// functions here score candidate permutations (each with its own projection
// estimator over the permuted order) and pick the best (permutation,
// strategy) pair.

// NewEstimatorOrdered is NewEstimator over a permuted mode order: range
// [lo, hi) refers to permuted positions, i.e. original modes
// perm[lo..hi-1].
func NewEstimatorOrdered(x *tensor.COO, perm []int, k, workers int) *Estimator {
	if len(perm) != x.Order() {
		panic("model: permutation arity mismatch")
	}
	return NewEstimator(permutedView(x, perm), k, workers)
}

// PermCandidate is one scored (permutation, plan) pair.
type PermCandidate struct {
	Name string
	Perm []int
	Plan *Plan
}

// PermPlan is the outcome of permutation-aware selection.
type PermPlan struct {
	Candidates []PermCandidate
	Chosen     PermCandidate
}

// HeuristicPermutations returns the candidate mode orders the selector
// scores: natural, dimensions ascending, dimensions descending, and
// per-mode distinct-count ascending (most compressible modes first, so they
// sink deep into the tree where they are contracted last).
func HeuristicPermutations(x *tensor.COO) map[string][]int {
	n := x.Order()
	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	byDims := func(less func(a, b int) bool) []int {
		p := append([]int(nil), natural...)
		sort.SliceStable(p, func(a, b int) bool { return less(p[a], p[b]) })
		return p
	}
	// Single-mode ranges are counted exactly wherever a bitmap of the mode
	// fits (mode dim <= 32·nnz); only the rest are sketched.
	est := newEstimator(x, 512, 0, func(lo, hi int) bool { return hi == lo+1 })
	distinct := make([]int64, n)
	for m := 0; m < n; m++ {
		distinct[m] = est.Distinct(m, m+1)
	}
	return map[string][]int{
		"natural":      natural,
		"dims-asc":     byDims(func(a, b int) bool { return x.Dims[a] < x.Dims[b] }),
		"dims-desc":    byDims(func(a, b int) bool { return x.Dims[a] > x.Dims[b] }),
		"distinct-asc": byDims(func(a, b int) bool { return distinct[a] < distinct[b] }),
	}
}

// SelectPermuted scores every candidate permutation (each with a fresh
// estimator over its order) and returns the (permutation, strategy) pair
// with the lowest predicted op count among feasible plans. perms may be
// nil, in which case HeuristicPermutations is used.
func SelectPermuted(x *tensor.COO, opt Options, perms map[string][]int) *PermPlan {
	if perms == nil {
		perms = HeuristicPermutations(x)
	}
	out := &PermPlan{}
	for name, perm := range perms {
		var est *Estimator
		if opt.Exact {
			est = NewExactEstimator(permutedView(x, perm))
		} else {
			est = NewEstimatorOrdered(x, perm, opt.SketchK, opt.Workers)
		}
		plan := SelectWithEstimator(est, opt)
		out.Candidates = append(out.Candidates, PermCandidate{Name: name, Perm: perm, Plan: plan})
	}
	// Deterministic order (map iteration is random).
	sort.Slice(out.Candidates, func(a, b int) bool { return out.Candidates[a].Name < out.Candidates[b].Name })
	best := -1
	for i, c := range out.Candidates {
		if best < 0 {
			best = i
			continue
		}
		bi, ci := out.Candidates[best], c
		// Prefer feasible plans, then lower predicted ops.
		if (ci.Plan.Chosen.Feasible && !bi.Plan.Chosen.Feasible) ||
			(ci.Plan.Chosen.Feasible == bi.Plan.Chosen.Feasible && ci.Plan.Chosen.Pred.Ops < bi.Plan.Chosen.Pred.Ops) {
			best = i
		}
	}
	out.Chosen = out.Candidates[best]
	return out
}

// permutedView aliases x's index arrays in the order perm; estimators only
// read them.
func permutedView(x *tensor.COO, perm []int) *tensor.COO {
	px := &tensor.COO{Dims: make([]int, len(perm)), Inds: make([][]tensor.Index, len(perm)), Vals: x.Vals}
	for p, m := range perm {
		px.Dims[p] = x.Dims[m]
		px.Inds[p] = x.Inds[m]
	}
	return px
}

// BuildChosen constructs the permuted memoized engine for the selection.
func (pp *PermPlan) BuildChosen(x *tensor.COO, workers int) (*memo.Permuted, error) {
	return memo.NewPermuted(x, pp.Chosen.Plan.Chosen.Strategy, pp.Chosen.Perm, workers,
		"adaptive-perm["+pp.Chosen.Name+"/"+pp.Chosen.Plan.Chosen.Name+"]")
}
