package memo

import (
	"fmt"

	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// Permuted wraps a memoized engine built over a mode-permuted copy of the
// tensor, translating between the caller's (original) mode numbering and
// the permuted numbering. This unlocks the remaining dimension of the
// strategy space: grouping modes that are *not* adjacent in the original
// ordering (strategy trees always cover contiguous ranges, so the grouping
// is chosen by permuting first).
//
// For the once-per-iteration reuse property to hold, CP-ALS must sweep the
// modes in the permuted order — pass SweepOrder to the driver's ModeOrder
// option.
type Permuted struct {
	inner *Engine
	perm  []int // perm[p] = original mode at permuted position p
	pos   []int // pos[m]  = permuted position of original mode m
	// scratch for the factor-reordering view
	pfactors []*dense.Matrix
}

// NewPermuted builds a memoized engine over x with the given mode
// permutation (perm[p] is the original mode placed at position p) and a
// strategy tree over the permuted positions.
func NewPermuted(x *tensor.COO, strat *Strategy, perm []int, workers int, name string) (*Permuted, error) {
	n := x.Order()
	if len(perm) != n {
		return nil, fmt.Errorf("memo: permutation of length %d for order-%d tensor", len(perm), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for p, m := range perm {
		if m < 0 || m >= n || pos[m] != -1 {
			return nil, fmt.Errorf("memo: invalid mode permutation %v", perm)
		}
		pos[m] = p
	}
	if name == "" {
		name = "memo-perm"
	}
	px := x.PermuteModes(perm)
	inner, err := New(px, strat, workers, name)
	if err != nil {
		return nil, err
	}
	return &Permuted{
		inner:    inner,
		perm:     append([]int(nil), perm...),
		pos:      pos,
		pfactors: make([]*dense.Matrix, n),
	}, nil
}

// SweepOrder returns the original-mode order CP-ALS should use so that
// every tree node is materialized exactly once per iteration (the permuted
// positions visited 0,1,…,N−1).
func (e *Permuted) SweepOrder() []int { return append([]int(nil), e.perm...) }

// Permutation returns perm (original mode at each permuted position).
func (e *Permuted) Permutation() []int { return append([]int(nil), e.perm...) }

// Strategy returns the inner strategy tree (over permuted positions).
func (e *Permuted) Strategy() *Strategy { return e.inner.Strategy() }

// Name implements engine.Engine.
func (e *Permuted) Name() string { return e.inner.Name() }

// Stats implements engine.Engine.
func (e *Permuted) Stats() engine.Stats { return e.inner.Stats() }

// FactorUpdated implements engine.Engine.
func (e *Permuted) FactorUpdated(mode int) { e.inner.FactorUpdated(e.pos[mode]) }

// MTTKRP implements engine.Engine: mode and factors are in the original
// numbering.
func (e *Permuted) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if mode < 0 || mode >= len(e.perm) {
		return fmt.Errorf("memo: MTTKRP mode %d out of range for order-%d tensor", mode, len(e.perm))
	}
	if len(factors) != len(e.perm) {
		return fmt.Errorf("memo: MTTKRP got %d factors for order-%d tensor", len(factors), len(e.perm))
	}
	for p, m := range e.perm {
		e.pfactors[p] = factors[m]
	}
	return e.inner.MTTKRP(e.pos[mode], e.pfactors, out)
}

// PerIterationOps forwards to the inner engine.
func (e *Permuted) PerIterationOps(r int) int64 { return e.inner.PerIterationOps(r) }

var _ engine.Engine = (*Permuted)(nil)
