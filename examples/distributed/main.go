// Distributed simulation: partition a tensor across simulated processes,
// compare the partitioners' communication footprints under the α–β cost
// model, and verify that the sharded CP-ALS solver reaches the same solution
// as the shared-memory solver (extension beyond the shared-memory target
// paper).
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"adatm"
	"adatm/internal/dist"
)

func main() {
	x := adatm.Generate(adatm.GenSpec{
		Name: "web", Dims: []int{5000, 4000, 800, 365}, NNZ: 200000,
		Skew: []float64{0.6, 0.6, 0.8, 0.1}, Seed: 31,
	})
	fmt.Println("tensor:", x)
	const procs = 16
	rank := 16

	fmt.Printf("\n%-14s %12s %12s %10s %10s\n", "partitioner", "volume/iter", "messages", "imbalance", "pred iter")
	cm := dist.CostModel{NsPerOp: 1, AlphaNs: 1000, BetaNsByte: 0.1}
	for _, p := range []*dist.Partition{
		dist.RandomPartition(x, procs, 1),
		dist.MediumGrainPartition(x, procs),
		dist.FineGrainGreedyPartition(x, procs, 2),
	} {
		_, c := dist.AnalyzeComm(x, p)
		compute, comm := cm.PredictIteration(p, c, x.Order(), rank)
		fmt.Printf("%-14s %12s %12d %10.2f %10v\n", p.Name,
			fmt.Sprintf("%.1fMiB", float64(c.VolumeBytes(rank))/(1<<20)),
			c.Messages, p.Imbalance(), time.Duration(compute+comm).Round(1000))
	}

	// Run the same decomposition shared-memory and sharded over the
	// fine-grain partition (one SPMD worker per process, fold/expand rows
	// exchanged as messages), same seed, and compare.
	shared, err := adatm.Decompose(x, adatm.Options{Rank: rank, MaxIters: 6, Tol: 1e-12, Seed: 7, Engine: adatm.EngineCSF})
	if err != nil {
		log.Fatal(err)
	}
	distributed, err := adatm.DecomposeDist(x, adatm.DistOptions{
		Rank: rank, MaxIters: 6, Tol: 1e-12, Seed: 7,
		Procs: procs, Partition: adatm.PartitionFineGreedy,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshared-memory fit:  %.10f   (%d iterations)\n", shared.Fit, shared.Iters)
	fmt.Printf("distributed fit:    %.10f   (%d iterations, %d messages; difference %.2e — FP reassociation only)\n",
		distributed.Fit, distributed.Iters, distributed.Messages, shared.Fit-distributed.Fit)
}
