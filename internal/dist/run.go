package dist

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adatm/internal/cpd"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// RunOptions configures one distributed CP-ALS run. The numerical knobs
// are passed to cpd's ALS loop unchanged, so a distributed run with the
// same Rank/MaxIters/Tol/Seed reproduces the single-node trajectory (see
// the determinism argument in DESIGN.md §2j).
type RunOptions struct {
	Rank     int     // number of rank-one components (R)
	MaxIters int     // maximum ALS iterations (default 50)
	Tol      float64 // convergence threshold on the fit change (default 1e-5)
	Seed     int64   // RNG seed for factor initialization
	Workers  int     // per-process parallel width for dense kernels
	// Init provides initial factor matrices (one I_n × Rank matrix per
	// mode); nil selects cpd's random initialization from Seed.
	Init []*dense.Matrix
	// TrackFit retains the per-iteration fit trajectory in Result.FitTrace.
	TrackFit bool
	// Metrics, when non-nil, receives the adatm_dist_* series (volume,
	// messages, fold time, transport retries), labeled by partition and
	// transport name.
	Metrics *obs.Registry
}

// Result holds a distributed decomposition: process 0's cpd.Result, with
// Factors assembled from the row owners, MTTKRPTime (shard MTTKRP plus
// fold) summed across processes and TotalTime covering the whole run, plus
// the communication actually performed.
type Result struct {
	cpd.Result
	// Comm is the partition's predicted per-iteration communication.
	Comm CommStats
	// Messages counts transport messages actually sent (folds, expands,
	// reduces, broadcasts) over the whole run.
	Messages int64
	// Retries counts transport-level retransmissions (TCP transport only).
	Retries int64
}

// retrier is the optional transport facet reporting retransmissions.
type retrier interface{ Retries() int64 }

// Run executes the full CP-ALS loop over the cluster with one SPMD worker
// goroutine per process, all communication through tr. Each worker runs
// cpd's ALS loop with itself as the cpd.Layout. Per mode: local shard
// MTTKRP → fold partial rows to their owners (summed in ascending process
// order, so the reduction tree is fixed) → owner-side solve and normalize
// against the replicated Gram-Hadamard system → expand updated rows back
// to every process touching them. The column norms, the Gram and the fit's
// inner product are all-reduced, so every process evaluates the identical
// fit and takes the same convergence decision with no extra
// synchronization. x must be the tensor the cluster was built over.
func Run(x *tensor.COO, c *Cluster, tr Transport, opt RunOptions) (*Result, error) {
	if c.X != x {
		return nil, errors.New("dist: x is not the cluster's tensor")
	}
	if tr == nil {
		return nil, errors.New("dist: nil transport")
	}
	if tr.P() != c.Part.P {
		return nil, fmt.Errorf("dist: transport connects %d processes, cluster has %d", tr.P(), c.Part.P)
	}
	plan := buildExchangePlan(x, c.Part, c.Owners)
	shared := &runShared{}
	registerDistMetrics(opt.Metrics, c, tr, opt.Rank, shared)
	copt := cpd.Options{
		Rank: opt.Rank, MaxIters: opt.MaxIters, Tol: opt.Tol, Seed: opt.Seed,
		Workers: opt.Workers, Init: opt.Init, TrackFit: opt.TrackFit,
	}

	start := time.Now()
	P := c.Part.P
	results := make([]*cpd.Result, P)
	errs := make([]error, P)
	var closeOnce sync.Once
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		w := &distWorker{
			id: p, eng: c.Engines[p], shard: c.shards[p], plan: plan, tr: tr, shared: shared,
			inbox: &inbox{tr: tr, me: p},
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = cpd.RunLayout(x, w, copt)
			if errs[p] != nil {
				// Unblock every peer stuck in Recv or Send: the transport
				// close turns their blocking calls into ErrClosed.
				closeOnce.Do(func() { tr.Close() })
			}
		}(p)
	}
	wg.Wait()
	// Prefer the root-cause error (in process order) over the ErrClosed
	// cascade it triggered in the other workers.
	for p := 0; p < P; p++ {
		if errs[p] != nil && !errors.Is(errs[p], ErrClosed) {
			return nil, fmt.Errorf("dist: process %d: %w", p, errs[p])
		}
	}
	for p := 0; p < P; p++ {
		if errs[p] != nil {
			return nil, fmt.Errorf("dist: process %d: %w", p, errs[p])
		}
	}

	// Every process holds identical scalar results; process 0 reports
	// them. The factors are assembled from the owners: each owner's
	// replica holds the authoritative rows it updated; rows no process
	// owns are empty rows, zero after the first update (matching the
	// single-node solver, whose zero MTTKRP rows solve and normalize to
	// zero).
	res := &Result{Result: *results[0], Comm: c.Comm, Messages: shared.msgs.Load()}
	res.Factors = make([]*dense.Matrix, x.Order())
	res.TotalTime = time.Since(start)
	for _, rp := range results[1:] { // process 0's time is already in res
		res.MTTKRPTime += rp.MTTKRPTime
	}
	if rt, ok := tr.(retrier); ok {
		res.Retries = rt.Retries()
	}
	for m := range res.Factors {
		out := dense.New(x.Dims[m], opt.Rank)
		for q, rq := range results {
			for _, i := range plan.own[m][q] {
				copy(out.Row(int(i)), rq.Factors[m].Row(int(i)))
			}
		}
		res.Factors[m] = out
	}
	return res, nil
}

// runShared is the cross-worker accounting the drivers and metric
// callbacks read.
type runShared struct {
	msgs   atomic.Int64
	foldNS atomic.Int64
}

// registerDistMetrics wires the adatm_dist_* series. Function metrics are
// registered once per (name, labels) pair, so repeated runs over the same
// registry with the same partition/transport labels keep reporting the
// first run's state; the CLI builds one registry per run.
func registerDistMetrics(reg *obs.Registry, c *Cluster, tr Transport, rank int, shared *runShared) {
	if reg == nil {
		return
	}
	labels := obs.Labels{"partition": c.Part.Name, "transport": tr.Name()}
	vol := c.Comm.VolumeBytes(rank)
	reg.GaugeFunc("adatm_dist_volume_bytes",
		"Predicted fold+expand communication volume per iteration (bytes) under the chosen partition.",
		labels, func() float64 { return float64(vol) })
	reg.CounterFunc("adatm_dist_messages_total",
		"Transport messages sent by the distributed solver (folds, expands, reduces, broadcasts).",
		labels, func() float64 { return float64(shared.msgs.Load()) })
	reg.CounterFunc("adatm_dist_fold_seconds_total",
		"Time spent gathering and summing fold partials, across all processes.",
		labels, func() float64 { return float64(shared.foldNS.Load()) / 1e9 })
	retries := func() float64 { return 0 }
	if rt, ok := tr.(retrier); ok {
		retries = func() float64 { return float64(rt.Retries()) }
	}
	reg.CounterFunc("adatm_dist_retries_total",
		"Transport-level retransmissions (TCP transport; 0 for the in-process transport).",
		labels, retries)
}

// exchangePlan is the symbolic communication schedule, computed once from
// the partition and row ownership and shared read-only by every worker.
type exchangePlan struct {
	// own[m][q] lists the rows process q owns in mode m, ascending.
	own [][][]int32
	// fold[m][p][q] lists the rows process p touches that q owns (p ≠ q),
	// ascending: p sends exactly these rows' partials to q in mode m's
	// fold, and q returns the same rows updated in the expand.
	fold [][][][]int32
	// self[m][p] lists the rows p both touches and owns, ascending: the
	// local contribution to p's fold sum.
	self [][][]int32
}

func buildExchangePlan(x *tensor.COO, part *Partition, owners *RowOwners) *exchangePlan {
	n := x.Order()
	P := part.P
	plan := &exchangePlan{
		own:  make([][][]int32, n),
		fold: make([][][][]int32, n),
		self: make([][][]int32, n),
	}
	for m := 0; m < n; m++ {
		touched := make([]map[int32]struct{}, P)
		for p := range touched {
			touched[p] = make(map[int32]struct{})
		}
		for k := 0; k < x.NNZ(); k++ {
			touched[part.Owner[k]][int32(x.Inds[m][k])] = struct{}{}
		}
		plan.own[m] = make([][]int32, P)
		for i, q := range owners.Owner[m] {
			if q >= 0 {
				plan.own[m][q] = append(plan.own[m][q], int32(i))
			}
		}
		plan.fold[m] = make([][][]int32, P)
		plan.self[m] = make([][]int32, P)
		for p := 0; p < P; p++ {
			plan.fold[m][p] = make([][]int32, P)
			rows := make([]int32, 0, len(touched[p]))
			for i := range touched[p] {
				rows = append(rows, i)
			}
			sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
			for _, i := range rows {
				q := owners.Owner[m][i]
				if int(q) == p {
					plan.self[m][p] = append(plan.self[m][p], i)
				} else {
					plan.fold[m][p][q] = append(plan.fold[m][p][q], i)
				}
			}
		}
	}
	return plan
}

// inbox wraps the transport's Recv with selective receive: messages for a
// later protocol phase are stashed until their phase asks for them. Safe
// because the transport preserves per-sender FIFO order and each worker's
// phases are totally ordered.
type inbox struct {
	tr      Transport
	me      int
	pending []*Message
}

func (b *inbox) recvMatch(kind MsgKind, tag uint8, mode, iter, from int) (*Message, error) {
	match := func(m *Message) bool {
		return m.Kind == kind && m.Tag == tag && m.Mode == mode && m.Iter == iter && m.From == from
	}
	for idx, m := range b.pending {
		if match(m) {
			b.pending = append(b.pending[:idx], b.pending[idx+1:]...)
			return m, nil
		}
	}
	for {
		m, err := b.tr.Recv(b.me)
		if err != nil {
			return nil, err
		}
		if match(m) {
			return m, nil
		}
		b.pending = append(b.pending, m)
	}
}

// distWorker is one SPMD process as a cpd.Layout: it solves the factor
// rows it owns, and its MTTKRP, Publish and AllReduce carry the
// fold/expand and reduce/broadcast traffic of the process.
type distWorker struct {
	id     int
	eng    engine.Engine
	shard  *tensor.COO
	plan   *exchangePlan
	tr     Transport
	shared *runShared
	inbox  *inbox

	// Scratch reused across modes, allocated on the first MTTKRP: the
	// local shard MTTKRP output, the folded sums of the owned rows, the
	// owned rows the update overwrites, and the outgoing payload.
	local, fold, own, sendBuf []float64

	// Protocol position, advanced by the loop's calls: messages carry the
	// mode and iteration they belong to, reduces their phase tag.
	mode, iter, steps, reduces int
}

var _ cpd.Layout = (*distWorker)(nil)

func (w *distWorker) Engine() engine.Engine { return w.eng }

func (w *distWorker) send(m *Message) error {
	m.From = w.id
	w.shared.msgs.Add(1)
	return w.tr.Send(m)
}

// pack copies the named rows of src into the worker's send buffer. A
// transport is done with a payload when Send returns, so one buffer serves
// every message.
func (w *distWorker) pack(rows []int32, src *dense.Matrix) []float64 {
	r := src.Cols
	if cap(w.sendBuf) < len(rows)*r {
		w.sendBuf = make([]float64, len(rows)*r)
	}
	data := w.sendBuf[:len(rows)*r]
	for j, i := range rows {
		copy(data[j*r:(j+1)*r], src.Row(int(i)))
	}
	return data
}

// MTTKRP runs the shard MTTKRP and folds the partial rows to their owners.
// It returns the summed owned rows and a copy of their current factor
// values for the update to overwrite.
func (w *distWorker) MTTKRP(mode int, factors []*dense.Matrix) (*dense.Matrix, *dense.Matrix, error) {
	r := factors[mode].Cols
	if w.local == nil {
		maxRows, maxOwn := 0, 0
		for m, f := range factors {
			maxRows = max(maxRows, f.Rows)
			maxOwn = max(maxOwn, len(w.plan.own[m][w.id]))
		}
		w.local = make([]float64, maxRows*r)
		w.fold = make([]float64, maxOwn*r)
		w.own = make([]float64, maxOwn*r)
	}
	if w.steps%len(factors) == 0 {
		w.iter++
	}
	w.steps++
	w.mode, w.reduces = mode, 0
	P := len(w.plan.own[mode])
	ownRows := w.plan.own[mode][w.id]
	dim, k := factors[mode].Rows, len(ownRows)
	local := &dense.Matrix{Rows: dim, Cols: r, Data: w.local[:dim*r]}
	fold := &dense.Matrix{Rows: k, Cols: r, Data: w.fold[:k*r]}
	own := &dense.Matrix{Rows: k, Cols: r, Data: w.own[:k*r]}
	if w.shard.NNZ() > 0 {
		if err := w.eng.MTTKRP(mode, factors, local); err != nil {
			return nil, nil, err
		}
	}
	// Fold sends: partial rows to their owners.
	for q := 0; q < P; q++ {
		rows := w.plan.fold[mode][w.id][q]
		if len(rows) == 0 {
			continue
		}
		if err := w.send(&Message{To: q, Kind: MsgFold, Mode: mode, Iter: w.iter, Rows: rows, Data: w.pack(rows, local)}); err != nil {
			return nil, nil, err
		}
	}
	// Fold gather: receive every expected partial, then sum in ascending
	// process order — the fixed reduction tree that makes the run
	// transport-independent and reproducible.
	t0 := time.Now()
	fold.Zero()
	incoming := make([]*Message, P)
	for p := 0; p < P; p++ {
		if p == w.id || len(w.plan.fold[mode][p][w.id]) == 0 {
			continue
		}
		msg, err := w.inbox.recvMatch(MsgFold, 0, mode, w.iter, p)
		if err != nil {
			return nil, nil, err
		}
		incoming[p] = msg
	}
	for p := 0; p < P; p++ {
		if p == w.id {
			for _, i := range w.plan.self[mode][w.id] {
				addRow(fold.Row(rowPos(ownRows, i)), local.Row(int(i)))
			}
		} else if msg := incoming[p]; msg != nil {
			for k, i := range msg.Rows {
				addRow(fold.Row(rowPos(ownRows, i)), msg.Data[k*r:(k+1)*r])
			}
		}
	}
	w.shared.foldNS.Add(time.Since(t0).Nanoseconds())

	for j, i := range ownRows {
		copy(own.Row(j), factors[mode].Row(int(i)))
	}
	return fold, own, nil
}

func addRow(dst, src []float64) {
	for k := range dst {
		dst[k] += src[k]
	}
}

// Publish writes the updated owned rows into this replica and expands
// them: owners return the updated rows to every process that touches them
// (the mirror of the fold edges).
func (w *distWorker) Publish(mode int, dst *dense.Matrix, factors []*dense.Matrix) error {
	f := factors[mode]
	r := f.Cols
	for j, i := range w.plan.own[mode][w.id] {
		copy(f.Row(int(i)), dst.Row(j))
	}
	P := len(w.plan.own[mode])
	for p := 0; p < P; p++ {
		rows := w.plan.fold[mode][p][w.id]
		if len(rows) == 0 {
			continue
		}
		if err := w.send(&Message{To: p, Kind: MsgExpand, Mode: mode, Iter: w.iter, Rows: rows, Data: w.pack(rows, f)}); err != nil {
			return err
		}
	}
	for q := 0; q < P; q++ {
		if len(w.plan.fold[mode][w.id][q]) == 0 {
			continue
		}
		msg, err := w.inbox.recvMatch(MsgExpand, 0, mode, w.iter, q)
		if err != nil {
			return err
		}
		for k, i := range msg.Rows {
			copy(f.Row(int(i)), msg.Data[k*r:(k+1)*r])
		}
	}
	return nil
}

// AllReduce sums v element-wise across all processes with a fixed
// association: process 0 gathers partials in ascending process order
// (its own partial first) and broadcasts the total. Every transport
// therefore produces bit-identical sums. After each MTTKRP the loop
// all-reduces the column norms, then the Gram, and after the last mode of
// the sweep the fit's inner product: the call's position gives its tag.
func (w *distWorker) AllReduce(v []float64) error {
	tag, mode := uint8(w.reduces), w.mode // TagNorm, TagGram, TagFit
	if tag == TagFit {
		mode = -1
	}
	w.reduces++
	P := len(w.plan.own[0])
	if P == 1 {
		return nil
	}
	if w.id != 0 {
		if err := w.send(&Message{To: 0, Kind: MsgReduce, Tag: tag, Mode: mode, Iter: w.iter, Data: v}); err != nil {
			return err
		}
		msg, err := w.inbox.recvMatch(MsgBcast, tag, mode, w.iter, 0)
		if err != nil {
			return err
		}
		copy(v, msg.Data)
		return nil
	}
	for p := 1; p < P; p++ {
		msg, err := w.inbox.recvMatch(MsgReduce, tag, mode, w.iter, p)
		if err != nil {
			return err
		}
		for j := range v {
			v[j] += msg.Data[j]
		}
	}
	for p := 1; p < P; p++ {
		if err := w.send(&Message{To: p, Kind: MsgBcast, Tag: tag, Mode: mode, Iter: w.iter, Data: v}); err != nil {
			return err
		}
	}
	return nil
}

// rowPos locates row i in the sorted owned-row list.
func rowPos(rows []int32, i int32) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
