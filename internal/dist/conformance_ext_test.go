package dist_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"adatm/internal/coo"
	"adatm/internal/cpd"
	"adatm/internal/csf"
	"adatm/internal/dense"
	"adatm/internal/dist"
	"adatm/internal/engine"
	"adatm/internal/memo"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

// This file is an external test package: it exercises dist through its
// exported API only, against cpd.Run baselines.

func partitioners(x *tensor.COO, procs int) []*dist.Partition {
	return []*dist.Partition{
		dist.RandomPartition(x, procs, 1),
		dist.MediumGrainPartition(x, procs),
		dist.FineGrainGreedyPartition(x, procs, 2),
	}
}

func cooFactory(shard *tensor.COO) engine.Engine { return coo.New(shard, 1) }

// foldRef is the conformance reference: an engine whose MTTKRP runs one
// engine per nonempty shard of a partition and sums the partials in
// ascending process order, the order dist.Run's row owners fold in.
// cpd.Run over it is the single-node loop over the same shard summation.
type foldRef struct {
	shards []engine.Engine // nil for an empty shard
}

func newFoldRef(x *tensor.COO, part *dist.Partition, factory func(*tensor.COO) engine.Engine) *foldRef {
	r := &foldRef{}
	for _, s := range dist.Shards(x, part) {
		var e engine.Engine
		if s.NNZ() > 0 {
			e = factory(s)
		}
		r.shards = append(r.shards, e)
	}
	return r
}

func (r *foldRef) Name() string { return "fold-ref" }

func (r *foldRef) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	partial := dense.New(out.Rows, out.Cols)
	out.Zero()
	for _, e := range r.shards {
		if e == nil {
			continue
		}
		if err := e.MTTKRP(mode, factors, partial); err != nil {
			return err
		}
		for j, v := range partial.Data {
			out.Data[j] += v
		}
	}
	return nil
}

func (r *foldRef) FactorUpdated(mode int) {
	for _, e := range r.shards {
		if e != nil {
			e.FactorUpdated(mode)
		}
	}
}

func (r *foldRef) Stats() engine.Stats { return engine.Stats{} }

// The distributive law: the fold of per-shard MTTKRP partials must equal
// the global MTTKRP, for every partitioner and mode. This verifies the
// reference the conformance tests below compare dist.Run against.
func TestClusterMTTKRPEquivalence(t *testing.T) {
	x := tensor.RandomClustered(4, 15, 900, 0.8, 603)
	rng := rand.New(rand.NewSource(604))
	fs := make([]*dense.Matrix, 4)
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], 5, rng)
	}
	for _, p := range partitioners(x, 7) {
		r := newFoldRef(x, p, cooFactory)
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 5)
			if err := r.MTTKRP(mode, fs, out); err != nil {
				t.Fatal(err)
			}
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Errorf("%s mode %d: diff %g", p.Name, mode, d)
			}
		}
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
		r := newFoldRef(x, dist.RandomPartition(x, procs, seed+1), cooFactory)
		mode := rng.Intn(order)
		out := dense.New(x.Dims[mode], 3)
		if err := r.MTTKRP(mode, fs, out); err != nil {
			return false
		}
		want := ref.MTTKRPSparse(x, mode, fs)
		return out.MaxAbsDiff(want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Full sharded CP-ALS (dist.Run over memo shard engines) must match the
// shared-memory solver's trajectory from identical initial factors.
func TestDistributedALSMatchesShared(t *testing.T) {
	x := tensor.RandomClustered(3, 18, 1200, 0.6, 605)
	rng := rand.New(rand.NewSource(606))
	init := make([]*dense.Matrix, 3)
	for m := range init {
		init[m] = dense.Random(x.Dims[m], 4, rng)
	}
	shared, err := cpd.Run(x, csf.NewAllMode(x, 1), cpd.Options{Rank: 4, MaxIters: 6, Tol: 1e-14, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range partitioners(x, 6) {
		c := dist.NewCluster(x, p, shardEngines(t, "memo", x.Order()))
		tr := dist.NewChanTransport(p.P)
		got, err := dist.Run(x, c, tr, dist.RunOptions{Rank: 4, MaxIters: 6, Tol: 1e-14, Init: init})
		tr.Close()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if math.Abs(got.Fit-shared.Fit) > 1e-8 {
			t.Errorf("%s: distributed fit %.12f vs shared %.12f", p.Name, got.Fit, shared.Fit)
		}
	}
}

// conformanceTol is the agreement bound the tentpole promises: the
// distributed solver's fold/reduce trees are fixed in process order and the
// owner-side solves are row-identical to the single-node path, so the only
// divergence from the single-node loop over the same shard summation is
// float reassociation of the norm/Gram partial sums (~1e-16 per entry,
// amplified once per sweep by the conditioning of the Gram-Hadamard system).
const conformanceTol = 1e-12

// crossEngineFitTol bounds the fit against a single-node run with an
// *independent* full-tensor engine: engine-level MTTKRP summation orders
// differ, and the solve amplifies that reassociation by κ(H), so raw factor
// entries only agree to ~κ·ε. The fit, a normalized global functional,
// cancels most of it.
const crossEngineFitTol = 1e-9

func shardEngines(t *testing.T, kind string, order int) func(*tensor.COO) engine.Engine {
	t.Helper()
	return func(s *tensor.COO) engine.Engine {
		if s.NNZ() == 0 {
			return coo.New(s, 1)
		}
		switch kind {
		case "coo":
			return coo.New(s, 1)
		case "csf":
			return csf.NewAllMode(s, 1)
		case "memo":
			e, err := memo.New(s, memo.Balanced(order), 1, "")
			if err != nil {
				t.Fatal(err)
			}
			return e
		default:
			t.Fatalf("unknown shard engine %q", kind)
			return nil
		}
	}
}

// checkConformance runs cpd.Run once per fixture (memoized by the caller)
// and asserts the distributed result matches fit, λ, and every factor
// entry within conformanceTol.
func checkConformance(t *testing.T, label string, want *cpd.Result, got *dist.Result) {
	t.Helper()
	if math.Abs(got.Fit-want.Fit) > conformanceTol {
		t.Errorf("%s: fit %.15f vs single-node %.15f", label, got.Fit, want.Fit)
	}
	if got.Iters != want.Iters || got.Converged != want.Converged {
		t.Errorf("%s: trajectory diverged: iters %d/%v vs %d/%v",
			label, got.Iters, got.Converged, want.Iters, want.Converged)
	}
	for j := range want.Lambda {
		if math.Abs(got.Lambda[j]-want.Lambda[j]) > conformanceTol*(1+math.Abs(want.Lambda[j])) {
			t.Errorf("%s: lambda[%d] %g vs %g", label, j, got.Lambda[j], want.Lambda[j])
		}
	}
	for m, f := range want.Factors {
		if d := got.Factors[m].MaxAbsDiff(f); d > conformanceTol {
			t.Errorf("%s: factor %d max diff %g", label, m, d)
		}
	}
}

func conformanceFixture(t *testing.T) (*tensor.COO, cpd.Options, dist.RunOptions) {
	t.Helper()
	x := tensor.RandomClustered(3, 16, 700, 0.6, 701)
	// Zero-mean initial factors keep the Gram-Hadamard system well away
	// from rank-one (the all-positive dense.Random init makes every column
	// nearly parallel, so κ(H) blows up and amplifies even 1-ulp
	// reassociation differences past the conformance bound).
	rng := rand.New(rand.NewSource(702))
	init := make([]*dense.Matrix, x.Order())
	for m := range init {
		init[m] = dense.New(x.Dims[m], 4)
		for i := range init[m].Data {
			init[m].Data[i] = rng.NormFloat64()
		}
	}
	copt := cpd.Options{Rank: 4, MaxIters: 6, Tol: 1e-14, Init: init, TrackFit: true}
	dopt := dist.RunOptions{Rank: 4, MaxIters: 6, Tol: 1e-14, Init: init, TrackFit: true}
	return x, copt, dopt
}

// singleNodeBaseline runs the shared-memory cpd.Run over the *same* shard
// summation (foldRef sums per-shard partials in process order, which is
// what dist.Run's owners do) so the comparison isolates the distributed
// protocol — fold routing, owner-side solves, reduce trees — from
// engine-level MTTKRP summation order.
func singleNodeBaseline(t *testing.T, x *tensor.COO, part *dist.Partition, kind string, copt cpd.Options) *cpd.Result {
	t.Helper()
	want, err := cpd.Run(x, newFoldRef(x, part, shardEngines(t, kind, x.Order())), copt)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDistRunConformance: dist.Run over 1/2/4/7 processes × {coo,csf,memo}
// shard engines on the in-process transport reproduces the single-node
// cpd.Run trajectory within 1e-12, for every partitioner. The fit is also
// checked against a single-node run with an independent full-tensor engine.
func TestDistRunConformance(t *testing.T) {
	x, copt, dopt := conformanceFixture(t)
	indep, err := cpd.Run(x, coo.New(x, 1), copt)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 7} {
		parts := partitioners(x, procs)
		for ki, kind := range []string{"coo", "csf", "memo"} {
			part := parts[ki%len(parts)]
			want := singleNodeBaseline(t, x, part, kind, copt)
			c := dist.NewCluster(x, part, shardEngines(t, kind, x.Order()))
			tr := dist.NewChanTransport(procs)
			got, err := dist.Run(x, c, tr, dopt)
			tr.Close()
			if err != nil {
				t.Fatalf("P=%d %s %s: %v", procs, kind, part.Name, err)
			}
			label := fmt.Sprintf("P=%d %s %s", procs, kind, part.Name)
			checkConformance(t, label, want, got)
			if d := math.Abs(got.Fit - indep.Fit); d > crossEngineFitTol {
				t.Errorf("%s: fit %.15f vs independent engine %.15f (diff %g)", label, got.Fit, indep.Fit, d)
			}
			if procs > 1 && got.Messages == 0 {
				t.Errorf("P=%d %s: no messages sent", procs, kind)
			}
		}
	}
}

// TestDistRunConformanceTCP: the loopback TCP transport carries the same
// fixed reduction trees, so the trajectory stays within 1e-12 of the
// single-node run for P∈{2,4,7}.
func TestDistRunConformanceTCP(t *testing.T) {
	x, copt, dopt := conformanceFixture(t)
	kinds := []string{"coo", "csf", "memo"}
	for pi, procs := range []int{2, 4, 7} {
		kind := kinds[pi]
		part := dist.FineGrainGreedyPartition(x, procs, 2)
		want := singleNodeBaseline(t, x, part, kind, copt)
		c := dist.NewCluster(x, part, shardEngines(t, kind, x.Order()))
		tr, err := dist.NewTCPTransport(procs, dist.TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := dist.Run(x, c, tr, dopt)
		tr.Close()
		if err != nil {
			t.Fatalf("P=%d %s: %v", procs, kind, err)
		}
		checkConformance(t, fmt.Sprintf("tcp P=%d %s", procs, kind), want, got)
	}
}

// TestDistRunTransportsAgree: the chan and TCP transports must produce
// bit-identical results — the reduction order is fixed by the protocol,
// not by message arrival.
func TestDistRunTransportsAgree(t *testing.T) {
	x, _, dopt := conformanceFixture(t)
	part := dist.MediumGrainPartition(x, 4)
	run := func(tr dist.Transport) *dist.Result {
		t.Helper()
		c := dist.NewCluster(x, part, shardEngines(t, "coo", x.Order()))
		got, err := dist.Run(x, c, tr, dopt)
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := run(dist.NewChanTransport(4))
	tcp, err := dist.NewTCPTransport(4, dist.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b := run(tcp)
	if a.Fit != b.Fit {
		t.Errorf("fit differs across transports: %.17g vs %.17g", a.Fit, b.Fit)
	}
	for m := range a.Factors {
		if d := a.Factors[m].MaxAbsDiff(b.Factors[m]); d != 0 {
			t.Errorf("factor %d differs across transports by %g", m, d)
		}
	}
}

// TestDistRunFitTraceMatches: with TrackFit the whole per-iteration fit
// trajectory must match the single-node trace, not only the endpoint.
func TestDistRunFitTraceMatches(t *testing.T) {
	x, copt, dopt := conformanceFixture(t)
	part := dist.RandomPartition(x, 4, 1)
	want := singleNodeBaseline(t, x, part, "coo", copt)
	c := dist.NewCluster(x, part, shardEngines(t, "coo", x.Order()))
	tr := dist.NewChanTransport(4)
	defer tr.Close()
	got, err := dist.Run(x, c, tr, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.FitTrace) != len(want.FitTrace) {
		t.Fatalf("trace length %d vs %d", len(got.FitTrace), len(want.FitTrace))
	}
	for i := range want.FitTrace {
		if math.Abs(got.FitTrace[i]-want.FitTrace[i]) > conformanceTol {
			t.Errorf("iter %d: fit %.15f vs %.15f", i+1, got.FitTrace[i], want.FitTrace[i])
		}
	}
}

// TestDistRunValidation: the argument contract errors, including a
// transport/cluster process-count mismatch.
func TestDistRunValidation(t *testing.T) {
	x := tensor.RandomClustered(3, 8, 200, 0.5, 703)
	c := dist.NewCluster(x, dist.RandomPartition(x, 2, 1), cooFactory)
	tr := dist.NewChanTransport(3)
	defer tr.Close()
	if _, err := dist.Run(x, c, tr, dist.RunOptions{Rank: 4}); err == nil {
		t.Error("P mismatch not rejected")
	}
	tr2 := dist.NewChanTransport(2)
	defer tr2.Close()
	if _, err := dist.Run(x, c, tr2, dist.RunOptions{Rank: 0}); err == nil {
		t.Error("zero rank not rejected")
	}
	// A tensor other than the cluster's: the exchange plan would index the
	// partition's owner table past its end.
	y := tensor.RandomClustered(3, 8, 400, 0.5, 704)
	if _, err := dist.Run(y, c, tr2, dist.RunOptions{Rank: 4, MaxIters: 2}); err == nil {
		t.Error("tensor other than the cluster's not rejected")
	}
}

// TestArgumentContract feeds every argument error cpd.Run rejects through
// both solvers: each must return an error, not panic.
func TestArgumentContract(t *testing.T) {
	x := tensor.RandomClustered(3, 8, 200, 0.5, 705)
	order1 := tensor.NewCOO([]int{6}, 0)
	for i := 0; i < 6; i++ {
		order1.Append([]tensor.Index{tensor.Index(i)}, float64(i+1))
	}
	factors := func(dims []int, rank int) []*dense.Matrix {
		out := make([]*dense.Matrix, len(dims))
		for m, d := range dims {
			out[m] = dense.New(d, rank)
		}
		return out
	}
	cases := []struct {
		name string
		x    *tensor.COO
		opt  cpd.Options
	}{
		{"zero rank", x, cpd.Options{Rank: 0}},
		{"negative rank", x, cpd.Options{Rank: -2}},
		{"order 1", order1, cpd.Options{Rank: 2}},
		{"empty tensor", tensor.NewCOO([]int{4, 5, 6}, 0), cpd.Options{Rank: 2}},
		{"init count", x, cpd.Options{Rank: 2, Init: factors(x.Dims[:2], 2)}},
		{"init rows", x, cpd.Options{Rank: 2, Init: factors([]int{8, 8, 7}, 2)}},
		{"init rank", x, cpd.Options{Rank: 2, Init: factors(x.Dims, 3)}},
	}
	noPanic := func(t *testing.T, solver string, f func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", solver, r)
			}
		}()
		if err := f(); err == nil {
			t.Errorf("%s accepted the arguments", solver)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.MaxIters = 2
			noPanic(t, "cpd.Run", func() error {
				_, err := cpd.Run(tc.x, coo.New(tc.x, 1), opt)
				return err
			})
			noPanic(t, "dist.Run", func() error {
				c := dist.NewCluster(tc.x, dist.RandomPartition(tc.x, 2, 1), cooFactory)
				tr := dist.NewChanTransport(2)
				defer tr.Close()
				_, err := dist.Run(tc.x, c, tr, dist.RunOptions{
					Rank: opt.Rank, MaxIters: opt.MaxIters, Init: opt.Init,
				})
				return err
			})
		})
	}
}

// TestDistFaultRecoveryConverges: dropped, duplicated, and delayed fold
// messages are recovered by acknowledged retransmission and sequence
// dedup, so the run still reproduces the single-node trajectory exactly —
// faults cost retries, never numerics.
func TestDistFaultRecoveryConverges(t *testing.T) {
	x, copt, dopt := conformanceFixture(t)
	part := dist.FineGrainGreedyPartition(x, 2, 2)
	want := singleNodeBaseline(t, x, part, "coo", copt)
	c := dist.NewCluster(x, part, shardEngines(t, "coo", x.Order()))
	tr, err := dist.NewTCPTransport(2, dist.TCPConfig{
		AckTimeout: 25 * time.Millisecond,
		MaxRetries: 20,
		Fault: dist.FaultConfig{
			DropProb:  0.15,
			DupProb:   0.15,
			DelayProb: 0.10,
			Delay:     40 * time.Millisecond, // beyond AckTimeout: forces retransmit + dedup
			Seed:      704,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.Run(x, c, tr, dopt)
	tr.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkConformance(t, "faulty tcp P=2", want, got)
	if got.Retries == 0 {
		t.Error("fault injection produced no retransmissions — the test exercised nothing")
	}
}

// TestDistFaultRetryExhausted: with every data frame dropped, Send must
// give up after MaxRetries with the typed error — bounded by the backoff
// schedule, not a hang.
func TestDistFaultRetryExhausted(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 400, 0.5, 705)
	c := dist.NewCluster(x, dist.RandomPartition(x, 2, 1), cooFactory)
	tr, err := dist.NewTCPTransport(2, dist.TCPConfig{
		AckTimeout: 10 * time.Millisecond,
		MaxRetries: 3,
		Fault:      dist.FaultConfig{DropProb: 1, Seed: 706},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := time.Now()
	_, err = dist.Run(x, c, tr, dist.RunOptions{Rank: 3, MaxIters: 3, Seed: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("total message loss did not fail the run")
	}
	var re *dist.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want dist.RetryExhaustedError, got %v", err)
	}
	if re.Attempts <= 3 {
		t.Errorf("exhausted after %d attempts, want > MaxRetries", re.Attempts)
	}
	// 10+20+40+80 ms of backoff per failed send, a handful of concurrent
	// senders: well under ten seconds unless something actually hung.
	if elapsed > 10*time.Second {
		t.Errorf("retry exhaustion took %v — looks like a hang", elapsed)
	}
}

// TestTransportBasics: FIFO per sender and payload integrity on both
// transports, including the binary codec round trip.
func TestTransportBasics(t *testing.T) {
	tcp, err := dist.NewTCPTransport(3, dist.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []dist.Transport{dist.NewChanTransport(3), tcp} {
		for s := 1; s <= 9; s++ {
			msg := &dist.Message{
				From: s % 2, To: 2, Kind: dist.MsgFold, Tag: dist.TagGram, Mode: s % 3, Iter: s,
				Rows: []int32{int32(s), int32(s + 1)},
				Data: []float64{float64(s) * 1.5, -float64(s), 0.25},
			}
			if err := tr.Send(msg); err != nil {
				t.Fatalf("%s send: %v", tr.Name(), err)
			}
		}
		lastBySender := map[int]int{}
		for n := 0; n < 9; n++ {
			m, err := tr.Recv(2)
			if err != nil {
				t.Fatalf("%s recv: %v", tr.Name(), err)
			}
			if m.Iter <= lastBySender[m.From] {
				t.Errorf("%s: per-sender FIFO violated: iter %d after %d from %d",
					tr.Name(), m.Iter, lastBySender[m.From], m.From)
			}
			lastBySender[m.From] = m.Iter
			s := m.Iter
			if m.Mode != s%3 || m.Tag != dist.TagGram || len(m.Rows) != 2 || m.Rows[0] != int32(s) ||
				len(m.Data) != 3 || m.Data[0] != float64(s)*1.5 || m.Data[2] != 0.25 {
				t.Errorf("%s: payload corrupted: %+v", tr.Name(), m)
			}
		}
		tr.Close()
		if _, err := tr.Recv(2); !errors.Is(err, dist.ErrClosed) {
			t.Errorf("%s: Recv after Close: %v", tr.Name(), err)
		}
	}
}

// TestTransportCloseUnblocksRecv: a blocked Recv must return dist.ErrClosed
// promptly when the transport closes (the abort path of a failed run).
func TestTransportCloseUnblocksRecv(t *testing.T) {
	tr := dist.NewChanTransport(2)
	done := make(chan error, 1)
	go func() {
		_, err := tr.Recv(1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tr.Close()
	select {
	case err := <-done:
		if !errors.Is(err, dist.ErrClosed) {
			t.Fatalf("want dist.ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}
