package adatm_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"adatm"
)

func testTensor(t *testing.T) *adatm.Tensor {
	t.Helper()
	return adatm.Generate(adatm.GenSpec{
		Name: "facade", Dims: []int{40, 30, 20, 10}, NNZ: 5000,
		Skew: []float64{0.5, 0.5, 0.5, 0.2}, Rank: 3, Noise: 0.05, Seed: 5,
	})
}

func TestEngineKindsConstructible(t *testing.T) {
	x := testTensor(t)
	for _, kind := range adatm.EngineKinds() {
		e, err := adatm.NewEngine(x, kind, adatm.EngineConfig{Rank: 8})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if e.Name() == "" {
			t.Errorf("%s: empty engine name", kind)
		}
	}
}

func TestNewEngineUnknownKind(t *testing.T) {
	x := testTensor(t)
	if _, err := adatm.NewEngine(x, "warp-drive", adatm.EngineConfig{}); err == nil {
		t.Fatal("unknown engine kind accepted")
	}
}

func TestDecomposeAllEnginesAgree(t *testing.T) {
	x := testTensor(t)
	var ref float64
	for i, kind := range adatm.EngineKinds() {
		res, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 5, Tol: 1e-12, Seed: 9, Engine: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if i == 0 {
			ref = res.Fit
			continue
		}
		if math.Abs(res.Fit-ref) > 1e-8 {
			t.Errorf("%s: fit %.10f != reference %.10f", kind, res.Fit, ref)
		}
	}
}

func TestDecomposeDefaultsToAdaptive(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Errorf("iters = %d", res.Iters)
	}
}

func TestPlanForBudget(t *testing.T) {
	x := testTensor(t)
	plan := adatm.PlanFor(x, 16, 0)
	if plan.Chosen.Strategy == nil || len(plan.Candidates) < 3 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	if !strings.Contains(plan.String(), "chosen") {
		t.Error("plan report does not mark the chosen candidate")
	}
	// The adaptive engine built from a custom strategy must honor it.
	e, err := adatm.NewEngine(x, adatm.EngineAdaptive, adatm.EngineConfig{Rank: 16, Strategy: plan.Candidates[len(plan.Candidates)-1].Strategy})
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("nil engine")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x := testTensor(t)
	path := filepath.Join(t.TempDir(), "x.tns.gz")
	if err := adatm.Save(path, x); err != nil {
		t.Fatal(err)
	}
	y, err := adatm.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != x.NNZ() {
		t.Fatalf("nnz %d != %d after round trip", y.NNZ(), x.NNZ())
	}
}

func TestProfilesExposed(t *testing.T) {
	if len(adatm.Profiles()) == 0 {
		t.Fatal("no profiles")
	}
	if _, err := adatm.Profile("flickr4d"); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructExposed(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 4, Seed: 2, Engine: adatm.EngineCSF})
	if err != nil {
		t.Fatal(err)
	}
	v := adatm.Reconstruct(res, []adatm.Index{1, 2, 3, 4})
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("non-finite reconstruction %v", v)
	}
}

func TestDecomposePermutedMatchesOthers(t *testing.T) {
	x := testTensor(t)
	ref, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 6, Tol: 1e-12, Seed: 21, Engine: adatm.EngineCSF})
	if err != nil {
		t.Fatal(err)
	}
	res, err := adatm.DecomposePermuted(x, adatm.Options{Rank: 4, MaxIters: 6, Tol: 1e-12, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// A permuted sweep order changes the ALS trajectory, so the fits need
	// not match exactly — but both must be finite, plausible fits of the
	// same data from the same seed.
	if math.IsNaN(res.Fit) || res.Fit <= -1 || res.Fit > 1 {
		t.Fatalf("implausible permuted fit %v", res.Fit)
	}
	if math.Abs(res.Fit-ref.Fit) > 0.2 {
		t.Errorf("permuted fit %.4f far from csf fit %.4f", res.Fit, ref.Fit)
	}
}

func TestPlanPermutedFor(t *testing.T) {
	x := testTensor(t)
	pp := adatm.PlanPermutedFor(x, 8, 0)
	if len(pp.Candidates) < 3 || pp.Chosen.Plan == nil {
		t.Fatalf("degenerate permuted plan: %+v", pp)
	}
}

func TestModeOrderOption(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 3, Seed: 2, Engine: adatm.EngineCSF, ModeOrder: []int{3, 1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Errorf("iters = %d", res.Iters)
	}
	if _, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 1, Engine: adatm.EngineCSF, ModeOrder: []int{0, 0, 1, 2}}); err == nil {
		t.Error("invalid ModeOrder accepted")
	}
}

func TestModelSaveLoadFacade(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 3, Seed: 4, Engine: adatm.EngineCSF})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := adatm.SaveModel(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := adatm.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := []adatm.Index{1, 2, 3, 4}
	if a, b := adatm.Reconstruct(res, idx), adatm.Reconstruct(got, idx); a != b {
		t.Errorf("reloaded model reconstructs %g, original %g", b, a)
	}
}

func TestDecomposeAPRFacade(t *testing.T) {
	x := testTensor(t)
	for k := range x.Vals {
		if x.Vals[k] < 0 {
			x.Vals[k] = -x.Vals[k]
		}
	}
	res, err := adatm.DecomposeAPR(x, adatm.APROptions{Rank: 3, MaxIters: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LogLik) {
		t.Fatal("NaN log-likelihood")
	}
	if v := adatm.PredictAPR(res, []adatm.Index{0, 0, 0, 0}); v < 0 || math.IsNaN(v) {
		t.Errorf("implausible APR rate %g", v)
	}
}

func TestNVecsInitFacade(t *testing.T) {
	x := testTensor(t)
	init := adatm.NVecsInit(x, 3, 2, 1, 0)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 3, Engine: adatm.EngineCSF, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Errorf("iters = %d", res.Iters)
	}
}

func TestMemoryBudgetPlumbing(t *testing.T) {
	x := testTensor(t)
	// A tiny budget must still produce a working engine (fallback strategy).
	res, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 2, Engine: adatm.EngineAdaptive, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 2 {
		t.Errorf("iters = %d", res.Iters)
	}
}

func TestResumeFromCheckpoint(t *testing.T) {
	x := testTensor(t)
	opt := adatm.Options{Rank: 4, MaxIters: 10, Tol: 1e-300, Seed: 2, Engine: adatm.EngineCOO, TrackFit: true}
	ref, err := adatm.Decompose(x, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ck")
	stopped := opt
	stopped.Checkpoint = &adatm.CheckpointConfig{Dir: dir, Every: 1, Retain: 3}
	n := 0
	stopped.Progress = func(adatm.IterStats) bool { n++; return n < 4 }
	if _, err := adatm.Decompose(x, stopped); err != nil {
		t.Fatal(err)
	}

	var ledger strings.Builder
	resumed := opt
	resumed.Checkpoint = &adatm.CheckpointConfig{Dir: dir, Every: 1, Retain: 3}
	resumed.Audit = adatm.NewAuditRecorder(adatm.AuditConfig{Ledger: &ledger})
	res, err := adatm.Resume(x, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != ref.Iters || math.Abs(res.Fit-ref.Fit) > 1e-12 {
		t.Fatalf("resumed iters=%d fit=%v, want iters=%d fit=%v", res.Iters, res.Fit, ref.Iters, ref.Fit)
	}
	if !strings.Contains(ledger.String(), "resume") {
		t.Errorf("audit ledger missing resume event: %q", ledger.String())
	}

	// Resume demands a configured checkpoint directory...
	if _, err := adatm.Resume(x, opt); err == nil {
		t.Error("Resume without Checkpoint.Dir accepted")
	}
	// ...and at least one checkpoint in it.
	empty := opt
	empty.Checkpoint = &adatm.CheckpointConfig{Dir: filepath.Join(t.TempDir(), "none")}
	if _, err := adatm.Resume(x, empty); err == nil {
		t.Error("Resume from empty directory accepted")
	}
}

// TestAdaptiveSteadyAllocScale pins the memo engine's storage policy at a
// scale where per-iteration reallocation would dominate: once every node's
// value storage exists, an adaptive run allocates per iteration no more
// than twice what the streaming COO engine does on the same tensor.
func TestAdaptiveSteadyAllocScale(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{
		Name: "alloc-scale", Dims: []int{400, 300, 200, 100}, NNZ: 120000,
		Skew: []float64{0.8, 0.6, 0.4, 0.2}, Rank: 4, Noise: 0.1, Seed: 31,
	})
	if x.NNZ() < 100000 {
		t.Fatalf("generated %d nonzeros, want >= 100000", x.NNZ())
	}
	perIter := map[adatm.EngineKind]float64{}
	for _, kind := range []adatm.EngineKind{adatm.EngineCOO, adatm.EngineAdaptive} {
		res, err := adatm.Decompose(x, adatm.Options{
			Rank: 16, MaxIters: 6, Tol: 1e-15, Seed: 3, Workers: 2,
			Engine: kind, CollectStats: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != 6 || res.Stats.SteadyIters == 0 {
			t.Fatalf("%s: ran %d iterations (%d steady), want 6", kind, res.Iters, res.Stats.SteadyIters)
		}
		perIter[kind] = float64(res.Stats.SteadyAllocBytes) / float64(res.Stats.SteadyIters)
	}
	if a, c := perIter[adatm.EngineAdaptive], perIter[adatm.EngineCOO]; a > 2*c {
		t.Errorf("adaptive allocates %.0f B/iter in steady state, more than 2x COO's %.0f", a, c)
	}
}

// TestMalformedTensorRejected: every solver entry point validates its input
// and returns an error for an out-of-range index instead of panicking.
func TestMalformedTensorRejected(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{
		Name: "malformed", Dims: []int{12, 10, 8}, NNZ: 300, Seed: 41,
	})
	x.Inds[1][5] = adatm.Index(x.Dims[1])
	cases := []struct {
		name string
		run  func() error
	}{
		{"Decompose", func() error {
			_, err := adatm.Decompose(x, adatm.Options{Rank: 2, MaxIters: 2})
			return err
		}},
		{"DecomposeDist", func() error {
			_, err := adatm.DecomposeDist(x, adatm.DistOptions{Rank: 2, MaxIters: 2})
			return err
		}},
		{"DecomposeAPR", func() error {
			_, err := adatm.DecomposeAPR(x, adatm.APROptions{Rank: 2, MaxIters: 2})
			return err
		}},
		{"Complete", func() error {
			_, err := adatm.Complete(x, adatm.CompleteOptions{Rank: 2, MaxIters: 2})
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s accepted an out-of-range index", c.name)
		}
	}
}
