package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

func partitioners(x *tensor.COO, procs int) []*Partition {
	return []*Partition{
		RandomPartition(x, procs, 1),
		MediumGrainPartition(x, procs),
		FineGrainGreedyPartition(x, procs, 2),
	}
}

func cooFactory(shard *tensor.COO) engine.Engine { return coo.New(shard, 1) }

func TestPartitionsValid(t *testing.T) {
	x := tensor.RandomClustered(4, 20, 1500, 0.7, 601)
	for _, procs := range []int{1, 3, 8, 16} {
		for _, p := range partitioners(x, procs) {
			if err := p.Validate(x); err != nil {
				t.Errorf("%s P=%d: %v", p.Name, procs, err)
			}
			if imb := p.Imbalance(); p.Name != "medium-grain" && imb > 1.3 {
				t.Errorf("%s P=%d: imbalance %.2f", p.Name, procs, imb)
			}
		}
	}
}

func TestShardsPartitionNonzeros(t *testing.T) {
	x := tensor.RandomClustered(3, 15, 800, 0.5, 602)
	p := FineGrainGreedyPartition(x, 5, 3)
	shards := Shards(x, p)
	total := 0
	sum := 0.0
	for _, s := range shards {
		total += s.NNZ()
		for _, v := range s.Vals {
			sum += v
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if total != x.NNZ() {
		t.Fatalf("shards hold %d of %d nonzeros", total, x.NNZ())
	}
	want := 0.0
	for _, v := range x.Vals {
		want += v
	}
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("value mass changed: %g vs %g", sum, want)
	}
}

// The distributive law: the fold of per-shard MTTKRP partials must equal
// the global MTTKRP, for every partitioner and mode.
func TestClusterMTTKRPEquivalence(t *testing.T) {
	x := tensor.RandomClustered(4, 15, 900, 0.8, 603)
	rng := rand.New(rand.NewSource(604))
	fs := make([]*dense.Matrix, 4)
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], 5, rng)
	}
	for _, p := range partitioners(x, 7) {
		c := NewCluster(x, p, cooFactory)
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 5)
			c.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Errorf("%s mode %d: diff %g", p.Name, mode, d)
			}
		}
	}
}

func TestCommStatsOrdering(t *testing.T) {
	// On a clustered tensor, the structure-aware partitioners must move
	// less data than random.
	x := tensor.RandomClustered(3, 64, 6000, 1.0, 607)
	procs := 8
	vol := map[string]int64{}
	for _, p := range partitioners(x, procs) {
		_, stats := AnalyzeComm(x, p)
		vol[p.Name] = stats.TotalRows
		if stats.MaxRowConnectivity > procs {
			t.Fatalf("%s: connectivity %d exceeds P", p.Name, stats.MaxRowConnectivity)
		}
		if stats.TotalRows < 0 || stats.Messages < 0 {
			t.Fatalf("%s: negative stats", p.Name)
		}
	}
	if vol["fine-greedy"] >= vol["random"] {
		t.Errorf("fine-greedy volume %d not below random %d", vol["fine-greedy"], vol["random"])
	}
	if vol["medium-grain"] >= vol["random"] {
		t.Errorf("medium-grain volume %d not below random %d", vol["medium-grain"], vol["random"])
	}
}

func TestSingleProcessNoComm(t *testing.T) {
	x := tensor.RandomClustered(3, 10, 300, 0.5, 608)
	p := MediumGrainPartition(x, 1)
	_, stats := AnalyzeComm(x, p)
	if stats.TotalRows != 0 || stats.Messages != 0 {
		t.Errorf("P=1 should need no communication: %+v", stats)
	}
}

func TestRowOwnersTouchTheirRows(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 500, 0.7, 609)
	p := RandomPartition(x, 4, 5)
	owners, _ := AnalyzeComm(x, p)
	// Every owner must actually touch the row it owns.
	for m := 0; m < 3; m++ {
		touch := map[tensor.Index]map[int32]bool{}
		for k := 0; k < x.NNZ(); k++ {
			i := x.Inds[m][k]
			if touch[i] == nil {
				touch[i] = map[int32]bool{}
			}
			touch[i][p.Owner[k]] = true
		}
		for i, o := range owners.Owner[m] {
			if o < 0 {
				if touch[tensor.Index(i)] != nil {
					t.Fatalf("mode %d row %d unowned but touched", m, i)
				}
				continue
			}
			if !touch[tensor.Index(i)][o] {
				t.Fatalf("mode %d row %d owned by non-touching process %d", m, i, o)
			}
		}
	}
}

func TestFactorGrid(t *testing.T) {
	grid := factorGrid(12, []int{1000, 10, 100})
	prod := 1
	for _, g := range grid {
		prod *= g
	}
	if prod != 12 {
		t.Fatalf("grid %v does not multiply to 12", grid)
	}
	// The longest mode must get at least as many slices as any other.
	if grid[0] < grid[1] || grid[0] < grid[2] {
		t.Errorf("grid %v does not favor the longest mode", grid)
	}
}

func TestPredictIterationPositive(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 610)
	p := MediumGrainPartition(x, 4)
	_, stats := AnalyzeComm(x, p)
	compute, comm := CostModel{NsPerOp: 1, AlphaNs: 1000, BetaNsByte: 0.1}.PredictIteration(p, stats, 3, 16)
	if compute <= 0 || comm <= 0 {
		t.Fatalf("non-positive predicted iteration: compute %v, comm %v", compute, comm)
	}
	maxLoad := 0
	for _, l := range p.Loads() {
		maxLoad = max(maxLoad, l)
	}
	if want := float64(maxLoad * 3 * 3 * 16); compute != want {
		t.Errorf("compute = %v, want max load × N² × R = %v", compute, want)
	}
}

// Property: the fold equals the global MTTKRP for random partitions of
// random tensors.
func TestClusterEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(3)
		procs := 2 + rng.Intn(9)
		x := tensor.RandomClustered(order, 6+rng.Intn(10), 250, rng.Float64(), seed)
		fs := make([]*dense.Matrix, order)
		for m := range fs {
			fs[m] = dense.Random(x.Dims[m], 3, rng)
		}
		c := NewCluster(x, RandomPartition(x, procs, seed+1), cooFactory)
		mode := rng.Intn(order)
		out := dense.New(x.Dims[mode], 3)
		c.MTTKRP(mode, fs, out)
		want := ref.MTTKRPSparse(x, mode, fs)
		return out.MaxAbsDiff(want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestClusterRepartitionReusesCacheSafely pins the partials-cache key: the
// cache must be invalidated when the process count changes, not only when
// the rank does. Before the (P, rank) key, repartitioning a cluster in
// place from P=2 to P=6 panicked indexing partials[p] past the old length
// (and a shrink would have silently folded stale partials).
func TestClusterRepartitionReusesCacheSafely(t *testing.T) {
	x := tensor.RandomClustered(3, 15, 900, 0.6, 611)
	rng := rand.New(rand.NewSource(612))
	fs := make([]*dense.Matrix, 3)
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], 5, rng)
	}
	c := NewCluster(x, RandomPartition(x, 2, 1), cooFactory)
	out := dense.New(x.Dims[0], 5)
	if err := c.MTTKRP(0, fs, out); err != nil {
		t.Fatal(err)
	}

	// Repartition in place to more processes, warming the same cache.
	for _, procs := range []int{6, 3} {
		p := RandomPartition(x, procs, 1)
		owners, stats := AnalyzeComm(x, p)
		shards := Shards(x, p)
		c.Part, c.Owners, c.Comm, c.shards = p, owners, stats, shards
		c.Engines = make([]engine.Engine, procs)
		for i, s := range shards {
			c.Engines[i] = cooFactory(s)
		}
		for mode := 0; mode < 3; mode++ {
			got := dense.New(x.Dims[mode], 5)
			if err := c.MTTKRP(mode, fs, got); err != nil {
				t.Fatalf("P=%d mode %d: %v", procs, mode, err)
			}
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := got.MaxAbsDiff(want); d > 1e-8 {
				t.Errorf("P=%d mode %d: diff %g", procs, mode, d)
			}
		}
	}
}
