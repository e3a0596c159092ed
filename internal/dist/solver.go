package dist

import (
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Simulated distributed MTTKRP: every process computes the MTTKRP of its
// shard with its own engine (goroutine-concurrent), and the fold step sums
// the per-process partial outputs — exactly what an MPI reduce-by-owner
// performs, so the result is bit-for-bit what the owners would assemble
// (up to floating-point reassociation across processes, which we make
// deterministic by summing in process order).

// Cluster is a set of simulated processes over one tensor.
type Cluster struct {
	X      *tensor.COO
	Part   *Partition
	Owners *RowOwners
	Comm   CommStats
	// Engines holds one MTTKRP engine per process over its shard.
	Engines []engine.Engine
	shards  []*tensor.COO
	// partials[p] is process p's local MTTKRP output buffer.
	partials []*dense.Matrix
}

// NewCluster shards the tensor and builds one engine per process via the
// factory (shard) -> engine.
func NewCluster(x *tensor.COO, p *Partition, factory func(shard *tensor.COO) engine.Engine) *Cluster {
	owners, stats := AnalyzeComm(x, p)
	shards := Shards(x, p)
	c := &Cluster{X: x, Part: p, Owners: owners, Comm: stats, shards: shards}
	c.Engines = make([]engine.Engine, p.P)
	for i, s := range shards {
		c.Engines[i] = factory(s)
	}
	return c
}

// MTTKRP computes the global MTTKRP for the mode by local shard MTTKRPs
// (concurrent across processes) followed by the fold reduction into out.
// Empty shards contribute zero. The first shard error (in process order)
// is returned and the fold is skipped.
func (c *Cluster) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(c.X.Dims, mode, factors, out); err != nil {
		return err
	}
	r := out.Cols
	// The partials cache is keyed on (P, rank): a cluster whose process
	// count changed (repartitioning in place) must not reuse buffers sized
	// for the old P — indexing partials[p] for p >= len(partials) panics,
	// and a shrunken P would silently fold stale partials.
	if c.partials == nil || len(c.partials) != c.Part.P || c.partials[0].Cols != r {
		c.partials = make([]*dense.Matrix, c.Part.P)
		for i := range c.partials {
			c.partials[i] = dense.New(maxDim(c.X.Dims), r)
		}
	}
	errs := make([]error, c.Part.P)
	par.For(c.Part.P, 0, func(p int) {
		if c.shards[p].NNZ() == 0 {
			return
		}
		mm := &dense.Matrix{Rows: c.X.Dims[mode], Cols: r, Data: c.partials[p].Data[:c.X.Dims[mode]*r]}
		errs[p] = c.Engines[p].MTTKRP(mode, factors, mm)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Fold: deterministic sum in process order (an MPI reduction would be
	// order-dependent too; fixing the order keeps runs reproducible).
	out.Zero()
	rows := c.X.Dims[mode]
	par.ForRange(rows, 0, func(lo, hi int) {
		for p := 0; p < c.Part.P; p++ {
			if c.shards[p].NNZ() == 0 {
				continue
			}
			src := c.partials[p].Data[lo*r : hi*r]
			dst := out.Data[lo*r : hi*r]
			for j := range src {
				dst[j] += src[j]
			}
		}
	})
	return nil
}

// FactorUpdated forwards the invalidation to every process engine.
func (c *Cluster) FactorUpdated(mode int) {
	for _, e := range c.Engines {
		e.FactorUpdated(mode)
	}
}

// Name implements engine.Engine.
func (c *Cluster) Name() string { return "dist[" + c.Part.Name + "]" }

// Stats implements engine.Engine by summing the per-process engine
// counters.
func (c *Cluster) Stats() engine.Stats {
	var s engine.Stats
	for _, e := range c.Engines {
		es := e.Stats()
		s.HadamardOps += es.HadamardOps
		s.MTTKRPCalls += es.MTTKRPCalls
		s.MTTKRPNS += es.MTTKRPNS
		s.IndexBytes += es.IndexBytes
		s.ValueBytes += es.ValueBytes
		s.PeakValueBytes += es.PeakValueBytes
		if es.SymbolicNS > s.SymbolicNS {
			s.SymbolicNS = es.SymbolicNS
		}
	}
	return s
}

// ResetStats implements engine.Engine.
func (c *Cluster) ResetStats() {
	for _, e := range c.Engines {
		e.ResetStats()
	}
}

var _ engine.Engine = (*Cluster)(nil)

// CostModel is the α–β machine model used to predict one iteration of a
// sharded CP-ALS run.
type CostModel struct {
	NsPerOp    float64 // per Hadamard op unit on a process
	AlphaNs    float64 // per message latency
	BetaNsByte float64 // per byte of communication
}

// PredictIteration estimates one CP-ALS iteration of partition p at the
// given tensor order and rank: computeNS is the slowest process's compute
// (its nonzero count times N² rank-length Hadamard steps), commNS the α–β
// cost of the fold+expand traffic comm describes (each fold message has a
// mirrored expand, hence 2·Messages). comm must be p's AnalyzeComm result.
func (m CostModel) PredictIteration(p *Partition, comm CommStats, order, rank int) (computeNS, commNS float64) {
	maxLoad := 0
	for _, l := range p.Loads() {
		maxLoad = max(maxLoad, l)
	}
	computeNS = float64(maxLoad) * float64(order*order*rank) * m.NsPerOp
	commNS = m.AlphaNs*float64(2*comm.Messages) + m.BetaNsByte*float64(comm.VolumeBytes(rank))
	return computeNS, commNS
}

func maxDim(dims []int) int {
	max := 0
	for _, d := range dims {
		if d > max {
			max = d
		}
	}
	return max
}
