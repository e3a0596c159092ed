package audit_test

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"adatm/internal/audit"
	"adatm/internal/model"
	"adatm/internal/tensor"
)

// Tests that build decisions from real plans live in the external test
// package: model imports audit to flatten its plans into Decisions.

func TestNewDecisionFromPlan(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 800, 0.6, 41)
	plan := model.Select(x, model.Options{Rank: 8})
	d := model.NewDecision(plan)
	if d.Rank != 8 || d.NNZ != int64(x.NNZ()) || len(d.Dims) != 4 {
		t.Errorf("decision header = %+v", d)
	}
	if d.Chosen != plan.Chosen.Name || d.Reason != audit.ReasonOpOptimal {
		t.Errorf("chosen=%q reason=%q, plan chose %q", d.Chosen, d.Reason, plan.Chosen.Name)
	}
	if len(d.Candidates) != len(plan.Candidates) {
		t.Fatalf("%d candidates, plan had %d", len(d.Candidates), len(plan.Candidates))
	}
	c := d.Candidate(d.Chosen)
	if c == nil || c.PredOps != plan.Chosen.Pred.Ops || c.Tree == "" {
		t.Errorf("chosen record = %+v", c)
	}
	if len(d.Ranges) != len(plan.Ranges) {
		t.Fatalf("decision has %d distinct-tuple ranges, plan had %d", len(d.Ranges), len(plan.Ranges))
	}
	exact := 0
	for i, r := range plan.Ranges {
		if want := (audit.RangeCount{Lo: r.Lo, Hi: r.Hi, Count: r.Count, Exact: r.Exact}); d.Ranges[i] != want {
			t.Errorf("range %d = %+v, want %+v", i, d.Ranges[i], want)
		}
		if r.Exact {
			exact++
		}
	}
	if exact == 0 {
		t.Error("no range flagged exact; single-mode ranges of a dim-12 tensor fit a bitmap")
	}
	if d.Candidate("nonexistent") != nil {
		t.Error("Candidate(nonexistent) != nil")
	}

	// Budget-forced fallback must be recorded as such.
	forced := model.Select(x, model.Options{Rank: 8, Budget: 1})
	fd := model.NewDecision(forced)
	if fd.Reason != audit.ReasonBudgetFallback {
		t.Errorf("tiny budget: reason = %q, want %q", fd.Reason, audit.ReasonBudgetFallback)
	}
}

func TestRecordPartitionLedgerAndHooks(t *testing.T) {
	x := tensor.RandomClustered(3, 24, 1200, 0.8, 640)
	plan, err := model.SelectPartition(x, model.PartitionOptions{Procs: 4, Rank: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var ledger, logs bytes.Buffer
	var hook audit.Record
	r := audit.NewRecorder(audit.Config{
		Logger:   slog.New(slog.NewJSONHandler(&logs, nil)),
		Ledger:   &ledger,
		OnUpdate: func(rec audit.Record) { hook = rec },
	})

	d := model.NewPartitionDecision(plan, "tcp")
	if d.Kind != "partition" || d.Chosen != plan.Chosen.Name || len(d.Partition) != len(plan.Candidates) {
		t.Fatalf("bad partition decision: %+v", d)
	}
	if c := d.PartitionCandidate(d.Chosen); c == nil || c.VolumeBytes != plan.Chosen.Comm.VolumeBytes(plan.Rank) {
		t.Fatalf("chosen candidate record missing or wrong: %+v", c)
	}
	r.RecordPartition(d)

	// The ledger line must validate and carry the dist.partition event.
	n, err := audit.ValidateLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil || n != 1 {
		t.Fatalf("ledger invalid: n=%d err=%v\n%s", n, err, ledger.String())
	}
	if !strings.Contains(ledger.String(), `"kind":"dist.partition"`) {
		t.Errorf("ledger record lacks the dist.partition event:\n%s", ledger.String())
	}
	if !strings.Contains(logs.String(), "run.dist.partition") {
		t.Errorf("no structured log event emitted:\n%s", logs.String())
	}
	if hook.Decision != d || hook.Event == nil || hook.Event.Kind != audit.EventPartition {
		t.Errorf("OnUpdate hook record wrong: %+v", hook)
	}

	// RecordPartition must not disturb the pending format decision:
	// Reconcile still returns nil because none was recorded.
	if rep := r.Reconcile(audit.Measured{Iters: 1}); rep != nil {
		t.Errorf("partition decision leaked into reconciliation: %+v", rep)
	}

	// Nil receiver and nil decision are no-ops.
	var nilRec *audit.Recorder
	nilRec.RecordPartition(d)
	r.RecordPartition(nil)
}
