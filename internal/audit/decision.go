// Package audit is the model-audit layer: it records every model-driven
// selection decision (the scored candidates, their predictions, and why the
// winner won) and reconciles it against the measured counters of the
// finished run. The paper validates its cost model offline (predicted vs
// measured op counts, top-1 strategy agreement); this package turns that
// validation into an always-on observability surface — Prometheus series,
// a /plan debug endpoint, structured log events, and a JSONL decision
// ledger — so a mis-calibrated model or a drifting sketch estimate is
// visible in production instead of silently degrading strategy choices.
package audit

import "time"

// Selection reasons recorded in Decision.Reason.
const (
	// ReasonOpOptimal: the chosen candidate had the lowest predicted op
	// count among budget-feasible candidates.
	ReasonOpOptimal = "op-optimal"
	// ReasonTimeOptimal: the chosen candidate had the lowest roofline
	// time-model forecast among budget-feasible candidates.
	ReasonTimeOptimal = "time-optimal"
	// ReasonBudgetFallback: no candidate fit the memory budget; the
	// smallest-footprint candidate was forced instead of the optimal one.
	ReasonBudgetFallback = "budget-fallback"
)

// CandidateRecord is one scored strategy in a Decision — the model's full
// forecast for it, flattened to plain data so the ledger is self-contained
// without the strategy-tree types.
type CandidateRecord struct {
	Name string `json:"name"`
	// Tree is the strategy's rendered shape, e.g. "((0 1) (2 3))".
	Tree               string `json:"tree"`
	PredOps            int64  `json:"pred_ops"`
	PredIndexBytes     int64  `json:"pred_index_bytes"`
	PredPeakValueBytes int64  `json:"pred_peak_value_bytes"`
	// PredTimeNS is the roofline time-model forecast; zero unless the
	// selection ranked by predicted time.
	PredTimeNS int64 `json:"pred_time_ns,omitempty"`
	Feasible   bool  `json:"feasible"`
}

// RangeCount mirrors model.RangeCount: the distinct-tuple count of the
// contiguous mode range [Lo, Hi) — one input of the cost model — and
// whether it is exact or a sketch estimate.
type RangeCount struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Count int64 `json:"count"`
	Exact bool  `json:"exact"`
}

// AccumRecord is one per-mode output-accumulation decision: the chosen
// backend plus the model's evidence (both forecasts, the privatized
// footprint, and whether it fit the budget slack).
type AccumRecord struct {
	Mode            int     `json:"mode"`
	Rows            int     `json:"rows"`
	Strategy        string  `json:"strategy"`
	PredScatterNS   float64 `json:"pred_scatter_ns"`
	PredPrivatizeNS float64 `json:"pred_privatize_ns"`
	FootprintBytes  int64   `json:"footprint_bytes"`
	Feasible        bool    `json:"feasible"`
}

// Decision is one model-driven selection, captured at Select time: the
// tensor shape, the budget, every scored candidate with its predictions,
// the sketch-estimated distinct-tuple table the predictions came from, and
// the chosen strategy with the reason it won.
type Decision struct {
	Time   time.Time `json:"time"`
	Dims   []int     `json:"dims"`
	NNZ    int64     `json:"nnz"`
	Rank   int       `json:"rank"`
	Budget int64     `json:"budget_bytes"`
	// Kind distinguishes decision flavors in the ledger: "" (the default)
	// is a format/strategy selection, "partition" is a distributed-layer
	// partitioner selection (see partition.go).
	Kind string `json:"decision_kind,omitempty"`
	// Procs and Transport describe the distributed run a partition decision
	// was made for.
	Procs     int    `json:"procs,omitempty"`
	Transport string `json:"transport,omitempty"`
	// Partition holds the scored partitioner candidates of a partition
	// decision (Candidates stays empty for those).
	Partition []PartitionCandidateRecord `json:"partition_candidates,omitempty"`
	// Exact reports every distinct count was computed exactly; Ranges says
	// which ones were sketched otherwise.
	Exact bool `json:"exact_counts,omitempty"`
	// ByTime reports the candidates were ranked by the roofline time model
	// rather than raw op counts.
	ByTime     bool              `json:"by_time,omitempty"`
	Candidates []CandidateRecord `json:"candidates"`
	Chosen     string            `json:"chosen"`
	Reason     string            `json:"reason"`
	// Ranges is the estimator's distinct-tuple table, each entry flagged
	// exact or sketched, recorded so estimate drift is diagnosable after
	// the fact.
	Ranges []RangeCount `json:"distinct_ranges,omitempty"`
	// Workers is the parallel width the accumulation table assumed.
	Workers int `json:"workers,omitempty"`
	// Accum is the per-mode output-accumulation decision table.
	Accum []AccumRecord `json:"accum,omitempty"`
}

// Candidate returns the named candidate record, or nil.
func (d *Decision) Candidate(name string) *CandidateRecord {
	for i := range d.Candidates {
		if d.Candidates[i].Name == name {
			return &d.Candidates[i]
		}
	}
	return nil
}
