package model

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"adatm/internal/accum"
	"adatm/internal/audit"
	"adatm/internal/memo"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Candidate is one strategy considered by the selector, with its
// predictions and feasibility under the memory budget.
type Candidate struct {
	Name     string
	Strategy *memo.Strategy
	Pred     Prediction
	// PredTime is the roofline time-model forecast; zero unless selection
	// ranked by predicted time (SelectByTime).
	PredTime time.Duration
	Feasible bool
}

// Plan is the selector's full output: every candidate it scored (sorted by
// predicted ops) and the chosen one. Beyond the choice itself, the plan
// records everything the audit layer needs to reconcile the decision against
// measurements later: the tensor shape, the estimator's distinct-tuple table
// (the model's inputs), and why the chosen candidate won.
type Plan struct {
	Order  int
	Rank   int
	Budget int64 // bytes; <= 0 means unbounded
	Dims   []int // mode dimensions (selector's mode order)
	NNZ    int64
	Exact  bool // every distinct count was exact (Ranges flags each one)
	ByTime bool // ranked by the roofline time model, not op counts
	// BudgetFallback reports that no candidate fit the budget and the
	// smallest-footprint candidate was chosen instead of the op-optimal one.
	BudgetFallback bool
	// Ranges is the estimator's distinct-tuple table (all contiguous mode
	// ranges) — the raw inputs the predictions were computed from.
	Ranges     []RangeCount
	Candidates []Candidate
	Chosen     Candidate
	// Workers is the parallel width the accumulation table was computed
	// for (from Options.Workers, defaulting to GOMAXPROCS).
	Workers int
	// Accum is the per-target-mode output-accumulation decision: privatized
	// per-worker copies versus in-place scatter, with the model's evidence.
	Accum []AccumChoice
}

// Options configures Select.
type Options struct {
	Rank int
	// Budget caps predicted auxiliary memory (index + peak value bytes);
	// <= 0 disables the cap.
	Budget int64
	// SketchK is the bottom-k sketch size (<= 0 → 1024). Ignored when
	// Exact is set.
	SketchK int
	// Exact uses exact distinct counting instead of sketching (slower; for
	// validation).
	Exact bool
	// Workers is the parallel width the kernels will run with; used by the
	// accumulation model and by the estimator's pass (<= 0 → GOMAXPROCS).
	Workers int
	// Accum forces one accumulation backend for every mode; accum.Auto
	// (the zero value) lets the model decide per mode.
	Accum accum.Strategy
}

// Select runs the model-driven selection for x: estimate the projection
// sizes, enumerate the candidate strategy family (flat, every two-group
// split, balanced binary, and the DP-optimal binary tree), score each with
// the cost model, and choose the cheapest feasible candidate.
func Select(x *tensor.COO, opt Options) *Plan {
	var est *Estimator
	if opt.Exact {
		est = NewExactEstimator(x)
	} else {
		est = NewEstimator(x, opt.SketchK, opt.Workers)
	}
	return SelectWithEstimator(est, opt)
}

// SelectWithEstimator is Select with a prebuilt estimator (so callers can
// reuse one estimator across ranks and budgets).
func SelectWithEstimator(est *Estimator, opt Options) *Plan {
	n := est.Order()
	rank := opt.Rank
	if rank <= 0 {
		rank = 16
	}
	plan := &Plan{
		Order: n, Rank: rank, Budget: opt.Budget,
		Dims: est.Dims(), NNZ: est.NNZ(), Exact: est.Exact(), Ranges: est.Ranges(),
	}

	add := func(name string, s *memo.Strategy) {
		pred := Predict(est, s, rank)
		feasible := opt.Budget <= 0 || pred.IndexBytes+pred.PeakValueBytes <= opt.Budget
		plan.Candidates = append(plan.Candidates, Candidate{Name: name, Strategy: s, Pred: pred, Feasible: feasible})
	}

	add("flat", memo.Flat(n))
	for s := 1; s < n; s++ {
		add(fmt.Sprintf("2group@%d", s), memo.TwoGroup(n, s))
	}
	if n >= 3 {
		add("balanced", memo.Balanced(n))
	}
	if n >= 3 {
		if dp := dpBinary(est, rank); dp != nil {
			add("dp-binary", dp)
		}
	}

	// Deduplicate structurally identical candidates (e.g. balanced ==
	// dp-binary, or 2group == balanced at n=3), keeping the first name.
	plan.Candidates = dedupCandidates(plan.Candidates)

	sort.SliceStable(plan.Candidates, func(a, b int) bool {
		return plan.Candidates[a].Pred.Ops < plan.Candidates[b].Pred.Ops
	})
	chosen := -1
	for i, c := range plan.Candidates {
		if c.Feasible {
			chosen = i
			break
		}
	}
	if chosen < 0 {
		// Nothing fits the budget: fall back to the candidate with the
		// smallest footprint (flat is typically the floor).
		plan.BudgetFallback = true
		best := 0
		for i, c := range plan.Candidates {
			if c.Pred.IndexBytes+c.Pred.PeakValueBytes <
				plan.Candidates[best].Pred.IndexBytes+plan.Candidates[best].Pred.PeakValueBytes {
				best = i
			}
		}
		chosen = best
	}
	plan.Chosen = plan.Candidates[chosen]
	plan.Workers = opt.Workers
	if plan.Workers <= 0 {
		plan.Workers = par.MaxWorkers()
	}
	fillAccum(plan, plan.Workers, accum.DefaultCosts)
	applyAccumOverride(plan, opt.Accum)
	return plan
}

// applyAccumOverride pins every mode's accumulation strategy to a forced
// backend, keeping the model's predictions as evidence in the plan.
func applyAccumOverride(p *Plan, s accum.Strategy) {
	if s == accum.Auto {
		return
	}
	for i := range p.Accum {
		p.Accum[i].Strategy = s
	}
}

func dedupCandidates(cs []Candidate) []Candidate {
	out := cs[:0]
	for _, c := range cs {
		dup := false
		for _, kept := range out {
			if kept.Strategy.Equal(c.Strategy) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// dpBinary finds the binary strategy minimizing predicted ops by dynamic
// programming over contiguous mode ranges. The cost of materializing the
// two children of a node covering [i, j) is elems(i,j)·(span+2)·R
// regardless of the split, so the DP chooses splits to minimize the
// descendants' costs.
func dpBinary(est *Estimator, rank int) *memo.Strategy {
	n := est.Order()
	cost := make([][]int64, n+1)
	split := make([][]int, n+1)
	for i := range cost {
		cost[i] = make([]int64, n+1)
		split[i] = make([]int, n+1)
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length <= n; i++ {
			j := i + length
			own := est.Distinct(i, j) * int64(length+2) * int64(rank)
			best := int64(math.MaxInt64)
			bestS := -1
			for s := i + 1; s < j; s++ {
				c := cost[i][s] + cost[s][j]
				if c < best {
					best = c
					bestS = s
				}
			}
			cost[i][j] = own + best
			split[i][j] = bestS
		}
	}
	if n < 2 {
		return nil
	}
	return memo.BinaryFromSplits(n, func(lo, hi int) int { return split[lo][hi] })
}

// Reason names why the chosen candidate won, in the vocabulary the audit
// ledger records: "op-optimal" (cheapest feasible by predicted ops),
// "time-optimal" (cheapest feasible by the roofline time model), or
// "budget-fallback" (nothing fit; smallest footprint chosen).
func (p *Plan) Reason() string {
	switch {
	case p.BudgetFallback:
		return audit.ReasonBudgetFallback
	case p.ByTime:
		return audit.ReasonTimeOptimal
	default:
		return audit.ReasonOpOptimal
	}
}

// String renders the plan as a small report table.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: order=%d rank=%d budget=%s\n", p.Order, p.Rank, fmtBytes(p.Budget))
	fmt.Fprintf(&b, "%-12s %-28s %14s %12s %12s %s\n", "candidate", "tree", "pred ops", "index", "peak vals", "feasible")
	for _, c := range p.Candidates {
		mark := ""
		if c.Strategy.Equal(p.Chosen.Strategy) && c.Name == p.Chosen.Name {
			mark = "  <= chosen"
		}
		fmt.Fprintf(&b, "%-12s %-28s %14d %12s %12s %-5v%s\n",
			c.Name, c.Strategy, c.Pred.Ops, fmtBytes(c.Pred.IndexBytes), fmtBytes(c.Pred.PeakValueBytes), c.Feasible, mark)
	}
	if p.BudgetFallback {
		fmt.Fprintf(&b, "budget fallback: no candidate fits %s; chose the smallest footprint\n", fmtBytes(p.Budget))
	}
	if len(p.Accum) > 0 {
		fmt.Fprintf(&b, "accum (workers=%d):\n", p.Workers)
		fmt.Fprintf(&b, "  %-6s %10s %-10s %12s %12s %12s %s\n",
			"mode", "rows", "strategy", "scatter", "privatize", "footprint", "feasible")
		for _, a := range p.Accum {
			fmt.Fprintf(&b, "  %-6d %10d %-10s %12s %12s %12s %v\n",
				a.Mode, a.Rows, a.Strategy,
				time.Duration(a.ScatterNS), time.Duration(a.PrivatizeNS),
				fmtBytes(a.FootprintBytes), a.Feasible)
		}
	}
	return b.String()
}

func fmtBytes(b int64) string {
	switch {
	case b <= 0:
		return "-"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	}
}
