package model

import (
	"adatm/internal/memo"
)

// Prediction is the model's forecast for one strategy at a given rank.
type Prediction struct {
	// Ops is the predicted Hadamard op units (scalar multiply–adds on
	// length-R rows) of one full CP-ALS iteration: every non-root node is
	// materialized exactly once per iteration at a cost of
	// parentElems · (|δ|+1) · R.
	Ops int64
	// IndexBytes is the predicted symbolic storage: per non-root node, its
	// index arrays (4 bytes × span × elems), the reduction element array
	// (4 bytes × parentElems) and the reduction pointer array (8 bytes ×
	// (elems+1)).
	IndexBytes int64
	// PeakValueBytes is the predicted resident semi-sparse value storage:
	// every non-leaf node's elems · R · 8 bytes. The engine allocates a
	// node's value matrix on first materialization and keeps it across
	// invalidations, so after the first sweep all of them are live at once.
	// Leaf nodes are excluded — the engine fuses their contraction with the
	// output scatter and never materializes them.
	PeakValueBytes int64
}

// Predict evaluates the cost model for a strategy at the given rank, using
// distinct-tuple counts from est.
func Predict(est *Estimator, s *memo.Strategy, rank int) Prediction {
	var p Prediction
	var walk func(node *memo.Strategy, parentElems int64)
	walk = func(node *memo.Strategy, parentElems int64) {
		for _, c := range node.Children {
			ce := est.Distinct(c.Lo, c.Hi)
			delta := int64(node.Span() - c.Span())
			p.Ops += parentElems * (delta + 1) * int64(rank)
			p.IndexBytes += ce*int64(c.Span())*4 + parentElems*4 + (ce+1)*8
			if !c.IsLeaf() {
				p.PeakValueBytes += ce * int64(rank) * 8
			}
			walk(c, ce)
		}
	}
	walk(s, est.Distinct(s.Lo, s.Hi))
	return p
}

// PredictBaselineCOO returns the per-iteration op count of the streaming
// COO kernel: N·R ops per nonzero per mode, N modes.
func PredictBaselineCOO(est *Estimator, rank int) int64 {
	n := int64(est.Order())
	return est.NNZ() * n * n * int64(rank)
}
