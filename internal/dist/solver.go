package dist

import (
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// Cluster is a set of simulated processes over one tensor: the partition,
// its row owners and communication accounting, and one MTTKRP engine per
// shard. Run executes it.
type Cluster struct {
	X      *tensor.COO
	Part   *Partition
	Owners *RowOwners
	Comm   CommStats
	// Engines holds one MTTKRP engine per process over its shard.
	Engines []engine.Engine
	shards  []*tensor.COO
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

// Stats sums the per-process engine counters; SymbolicNS is the slowest
// process's preprocessing time.
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
