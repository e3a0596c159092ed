package model

import (
	"strings"
	"testing"

	"adatm/internal/dist"
	"adatm/internal/tensor"
)

func TestSelectPartitionPrefersStructure(t *testing.T) {
	// On a clustered tensor the structure-aware partitioners move far less
	// data than random placement, so with any sane coefficients the model
	// must not choose random.
	x := tensor.RandomClustered(3, 64, 6000, 1.0, 630)
	plan, err := SelectPartition(x, PartitionOptions{Procs: 8, Rank: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen.Name == "random" {
		t.Errorf("model chose random placement on a clustered tensor:\n%s", plan)
	}
	if len(plan.Candidates) != 3 {
		t.Errorf("want 3 scored candidates, got %d", len(plan.Candidates))
	}
	// Candidates are sorted by predicted time ascending and carry their
	// evidence.
	for i, c := range plan.Candidates {
		if c.Part == nil || c.PredNS != c.ComputeNS+c.CommNS {
			t.Errorf("candidate %s: inconsistent record %+v", c.Name, c)
		}
		if i > 0 && c.PredNS < plan.Candidates[i-1].PredNS {
			t.Errorf("candidates not sorted by PredNS at %d", i)
		}
	}
	if plan.Chosen.PredNS > plan.Candidates[len(plan.Candidates)-1].PredNS {
		t.Error("chosen candidate is not the cheapest")
	}
	if got := plan.Partitioner("random"); got == nil || got.Comm.TotalRows == 0 {
		t.Error("random candidate missing or with zero recorded volume")
	}
	if s := plan.String(); !strings.Contains(s, "<= chosen") || !strings.Contains(s, plan.Chosen.Name) {
		t.Errorf("plan report does not mark the choice:\n%s", s)
	}
}

// The score must be dist.CostModel.PredictIteration over the candidate's
// partition and communication, so audit reconciliation compares prediction
// to measurement under the one cost formula.
func TestSelectPartitionMirrorsCostModel(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 631)
	plan, err := SelectPartition(x, PartitionOptions{Procs: 4, Rank: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cm := dist.CostModel{NsPerOp: plan.NsPerOp, AlphaNs: plan.AlphaNS, BetaNsByte: plan.NsPerByte}
	for _, cand := range plan.Candidates {
		_, stats := dist.AnalyzeComm(x, cand.Part)
		if stats != cand.Comm {
			t.Errorf("%s: plan records comm %+v, AnalyzeComm gives %+v", cand.Name, cand.Comm, stats)
		}
		compute, comm := cm.PredictIteration(cand.Part, stats, x.Order(), plan.Rank)
		if cand.ComputeNS != compute || cand.CommNS != comm || cand.PredNS != compute+comm {
			t.Errorf("%s: plan predicts %v+%v, dist.CostModel predicts %v+%v",
				cand.Name, cand.ComputeNS, cand.CommNS, compute, comm)
		}
	}

	// Degenerate inputs are rejected, not scored.
	if _, err := SelectPartition(x, PartitionOptions{Procs: 0}); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := SelectPartition(tensor.NewCOO([]int{2, 2}, 0), PartitionOptions{Procs: 2}); err == nil {
		t.Error("empty tensor accepted")
	}
}
