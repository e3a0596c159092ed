package exp

import (
	"fmt"
	"time"

	"adatm/internal/dist"
)

// E21PartitionerQuality compares the distributed-simulation partitioners on
// the communication metrics the distributed-CP literature reports: total
// volume, max per-process volume, message count, and load balance.
func E21PartitionerQuality(cfg Config) *Table {
	t := &Table{
		ID:      "E21",
		Title:   fmt.Sprintf("extension: partitioner quality for simulated distributed CP-ALS (R=%d)", cfg.rank()),
		Columns: []string{"tensor", "P", "partitioner", "total vol", "max proc vol", "messages", "imbalance"},
	}
	suite := ProfileSuite(cfg, "delicious4d", "nell2")
	for _, ds := range suite {
		x := ds.X
		for _, procs := range []int{16, 64} {
			parts := []*dist.Partition{
				dist.RandomPartition(x, procs, 11),
				dist.MediumGrainPartition(x, procs),
				dist.FineGrainGreedyPartition(x, procs, 13),
			}
			for _, p := range parts {
				_, stats := dist.AnalyzeComm(x, p)
				t.Add(ds.Name, procs, p.Name,
					fmtMiB(stats.VolumeBytes(cfg.rank())),
					fmt.Sprintf("%d rows", stats.MaxProcRows),
					stats.Messages,
					fmt.Sprintf("%.2f", p.Imbalance()))
			}
		}
	}
	t.Notes = append(t.Notes,
		"fold+expand bytes per iteration at the table's rank",
		"expected trade-off: medium-grain minimizes messages but can load-imbalance on clustered tensors; fine-greedy balances load with volume between medium-grain and random")
	return t
}

// E22SimulatedScaling reports strong-scaling predictions of the α–β cost
// model (dist.CostModel.PredictIteration) per process count and
// partitioner. It builds no shard engines: a prediction needs only the
// partition and its AnalyzeComm accounting.
func E22SimulatedScaling(cfg Config) *Table {
	t := &Table{
		ID:      "E22",
		Title:   fmt.Sprintf("extension: simulated strong scaling under an α–β cost model (flickr4d, R=%d)", cfg.rank()),
		Columns: []string{"P", "partitioner", "predicted iter", "speedup vs P=1", "comm share"},
	}
	ds := ProfileSuite(cfg, "flickr4d")[0]
	x := ds.X
	// A plausible commodity-cluster machine model: 1 ns/op on each process,
	// 1 µs message latency, 10 GB/s links.
	cm := dist.CostModel{NsPerOp: 1, AlphaNs: 1000, BetaNsByte: 0.1}
	predict := func(p *dist.Partition) (pred time.Duration, commNs float64) {
		_, stats := dist.AnalyzeComm(x, p)
		computeNs, commNs := cm.PredictIteration(p, stats, x.Order(), cfg.rank())
		return time.Duration(computeNs + commNs), commNs
	}
	baseTime, _ := predict(dist.MediumGrainPartition(x, 1))
	for _, procs := range []int{4, 16, 64} {
		parts := []*dist.Partition{
			dist.RandomPartition(x, procs, 17),
			dist.MediumGrainPartition(x, procs),
			dist.FineGrainGreedyPartition(x, procs, 19),
		}
		for _, p := range parts {
			pred, commNs := predict(p)
			t.Add(procs, p.Name, pred.Round(1000).String(),
				fmt.Sprintf("%.1fx", float64(baseTime)/float64(pred)),
				fmt.Sprintf("%.0f%%", 100*commNs/float64(pred)))
		}
	}
	t.Notes = append(t.Notes,
		"predictions only: compute = max-loaded process, comm = α·messages + β·bytes — the same arithmetic model.SelectPartition ranks candidates with",
		"these predictions are executable: `cpd -procs N -transport tcp` runs the sharded solver over real loopback sockets, conformant to the single-node solver at 1e-12 (DESIGN.md §2j)")
	return t
}
