package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"

	"adatm"
	"adatm/internal/accum"
	"adatm/internal/ckpt"
	"adatm/internal/coo"
	"adatm/internal/cpd"
	"adatm/internal/dist"
	"adatm/internal/engine"
	"adatm/internal/memo"
	"adatm/internal/model"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

const (
	rank       = 16
	plantRank  = 8
	plantNoise = 0.1
	// tinyTol keeps every op at its fixed iteration count: the solvers stop
	// early only when the fit change drops below Tol.
	tinyTol = 1e-300
	// splitFrac is the share of nonzeros the .tns file writes as two lines
	// whose values sum to the original, so Load's sort and merge do work.
	splitFrac = 0.02
	// inputsPerRun tensors of the workload's shape are generated per run and
	// the ops cycle through them. The fit and the op time depend on the
	// tensor drawn (its hot Zipf rows), so averaging over several tensors
	// keeps run-to-run spread across seeds small.
	inputsPerRun = 4
)

type kind int

const (
	kindFile kind = iota // .tns file → Load → Decompose → SaveModel
	kindALS              // Decompose of an in-memory tensor
	kindDist             // DecomposeDist over simulated processes
)

// workload is one seeded input shape and the op run on it.
type workload struct {
	name    string
	kind    kind
	dims    []int
	skew    []float64
	nnz     int
	iters   int
	workers int // parallel width per process
	procs   int // simulated processes (kindDist)
}

// workloads are the benchmark's inputs; README.md says why each was chosen.
var workloads = []workload{
	{name: "tns-to-model", kind: kindFile, dims: []int{20000, 20000, 20000, 2000},
		skew: []float64{.8, .8, .8, .5}, nnz: 200000, iters: 2, workers: 2},
	{name: "als-order5", kind: kindALS, dims: []int{4000, 4000, 4000, 4000, 500},
		skew: []float64{.8, .8, .8, .8, .5}, nnz: 360000, iters: 5, workers: 2},
	{name: "dist-p2", kind: kindDist, dims: []int{50000, 20000, 64},
		skew: []float64{.5, .5, .2}, nnz: 210000, iters: 5, workers: 1, procs: 2},
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// input is one tensor the ops of a run decompose.
type input struct {
	seed      int64       // generator and factor-initialization seed
	x         *tensor.COO // the generated tensor
	path      string      // the .tns file (kindFile)
	modelPath string      // where the op writes the model (kindFile)
	fileBytes int64
	splits    int // nonzeros written as two lines (kindFile)
}

// setup generates input j of the run with the given seed and, for
// kindFile, writes it as a shuffled .tns file into dir. Runs with
// different seeds get disjoint sets of inputs.
func (w *workload) setup(seed int64, j int, dir string) (*input, error) {
	sub := seed*inputsPerRun + int64(j)
	x := tensor.Generate(tensor.GenSpec{Dims: w.dims, NNZ: w.nnz, Skew: w.skew,
		Rank: plantRank, Noise: plantNoise, Seed: sub})
	in := &input{seed: sub, x: x}
	if w.kind != kindFile {
		return in, nil
	}
	in.path = filepath.Join(dir, fmt.Sprintf("x%d.tns", j))
	in.modelPath = filepath.Join(dir, fmt.Sprintf("model%d.txt", j))
	var err error
	if in.splits, err = writeShuffledTNS(in.path, x, sub); err != nil {
		return nil, err
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return nil, err
	}
	in.fileBytes = st.Size()
	return in, nil
}

// writeShuffledTNS writes x in FROSTT format with the lines in a seeded
// random order, splitting about splitFrac of the nonzeros into two lines.
// It returns the number of split nonzeros, which is what Dedup must merge.
func writeShuffledTNS(path string, x *tensor.COO, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	type line struct {
		k int
		v float64
	}
	lines := make([]line, 0, x.NNZ()+x.NNZ()/20)
	splits := 0
	for k, v := range x.Vals {
		if rng.Float64() < splitFrac {
			a := v * (0.25 + 0.5*rng.Float64())
			lines = append(lines, line{k, a}, line{k, v - a})
			splits++
			continue
		}
		lines = append(lines, line{k, v})
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	file := tensor.NewCOO(x.Dims, len(lines))
	idx := make([]tensor.Index, x.Order())
	for _, l := range lines {
		for m := range idx {
			idx[m] = x.Inds[m][l.k]
		}
		file.Append(idx, l.v)
	}

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := tensor.WriteTNS(f, file); err != nil {
		f.Close()
		return 0, err
	}
	return splits, f.Close()
}

// outcome is what one op produced.
type outcome struct {
	x    *tensor.COO // the tensor decomposed (for kindFile, the loaded one)
	res  *cpd.Result
	msgs int64 // DistResult.Messages (kindDist)
	// Filled when the path exposes them: the chosen memo strategy or
	// partition, and the Hadamard op units executed.
	strategy string
	ops      int64
	// facts holds the traced path's per-op counts, bytes and phase times,
	// keyed by per-layer metric name.
	facts map[string]float64
}

var (
	engineLabel    = regexp.MustCompile(`adatm_engine_hadamard_ops_total\{engine="adaptive\[([^"]*)\]"\}`)
	partitionLabel = regexp.MustCompile(`adatm_dist_volume_bytes\{partition="([^"]*)"`)
)

// runPublic is one op through the public entry points only. With a
// non-nil registry the op also reports, from the registry, the strategy it
// chose and (single-node) the Hadamard ops it ran; the timed ops pass nil.
func (w *workload) runPublic(in *input, reg *obs.Registry) (*outcome, error) {
	out := &outcome{x: in.x, ops: -1}
	switch w.kind {
	case kindFile, kindALS:
		if w.kind == kindFile {
			x, err := adatm.Load(in.path)
			if err != nil {
				return nil, err
			}
			out.x = x
		}
		res, err := adatm.Decompose(out.x, adatm.Options{Rank: rank, MaxIters: w.iters, Tol: tinyTol,
			Seed: in.seed, Workers: w.workers, Metrics: reg})
		if err != nil {
			return nil, err
		}
		out.res = res
		if w.kind == kindFile {
			if err := adatm.SaveModel(in.modelPath, res); err != nil {
				return nil, err
			}
		}
	case kindDist:
		dr, err := adatm.DecomposeDist(in.x, adatm.DistOptions{Rank: rank, MaxIters: w.iters, Tol: tinyTol,
			Seed: in.seed, Workers: w.workers, Procs: w.procs, Partition: adatm.PartitionAuto,
			Transport: adatm.TransportChan, Engine: adatm.EngineCOO, Metrics: reg})
		if err != nil {
			return nil, err
		}
		out.res = adatm.DistResultToResult(dr)
		out.msgs = dr.Messages
	}
	for key, v := range reg.Snapshot() {
		if m := engineLabel.FindStringSubmatch(key); m != nil {
			out.strategy, out.ops = m[1], int64(v)
		} else if m := partitionLabel.FindStringSubmatch(key); m != nil {
			out.strategy = m[1]
		}
	}
	return out, nil
}

// runTraced replays runPublic's op by calling each layer's own exported
// functions in the order the public entry points call them, with a span
// around each call. The root span "op" covers the whole op.
func (w *workload) runTraced(in *input, rec *recorder, op int) (*outcome, error) {
	root := rec.open(op, -1, "op")
	defer rec.close(root)
	out := &outcome{x: in.x, facts: map[string]float64{}}
	var err error
	switch w.kind {
	case kindFile:
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := rec.open(op, root, "tensor.read")
		out.x, err = tensor.LoadFile(in.path)
		rec.close(id)
		if err != nil {
			return nil, err
		}
		id = rec.open(op, root, "tensor.dedup")
		out.facts["tensor.dups_merged"] = float64(out.x.Dedup())
		rec.close(id)
		id = rec.open(op, root, "tensor.validate")
		err = out.x.Validate()
		rec.close(id)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		out.facts["tensor.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		if err := w.tracedSingle(in, out, rec, op, root); err != nil {
			return nil, err
		}
		id = rec.open(op, root, "ckpt.save")
		err = ckpt.WriteFileAtomic(in.modelPath, func(f io.Writer) error {
			return cpd.WriteModel(f, out.res.Lambda, out.res.Factors)
		})
		rec.close(id)
		if err != nil {
			return nil, err
		}
		st, err := os.Stat(in.modelPath)
		if err != nil {
			return nil, err
		}
		out.facts["ckpt.save_mb"] = float64(st.Size()) / 1e6
	case kindALS:
		err = w.tracedSingle(in, out, rec, op, root)
	case kindDist:
		err = w.tracedDist(in, out, rec, op, root)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// tracedSingle is adatm.Decompose with the adaptive engine, layer by layer.
func (w *workload) tracedSingle(in *input, out *outcome, rec *recorder, op, root int) error {
	x := out.x
	id := rec.open(op, root, "tensor.validate")
	err := x.Validate()
	rec.close(id)
	if err != nil {
		return err
	}
	id = rec.open(op, root, "model.select")
	plan := model.Select(x, model.Options{Rank: rank, Workers: w.workers})
	rec.close(id)
	id = rec.open(op, root, "engine.build")
	eng, err := buildMemo(x, plan, w.workers)
	rec.close(id)
	if err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = rec.open(op, root, "cpd.run")
	res, err := cpd.Run(x, &tracedEngine{Engine: eng, rec: rec, op: op, parent: id, proc: -1, weight: 1},
		cpd.Options{Rank: rank, MaxIters: w.iters, Tol: tinyTol, Seed: in.seed, Workers: w.workers, CollectStats: true})
	rec.close(id)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	out.res = res

	st := eng.Stats()
	hits, misses, _ := eng.MemoStats()
	out.strategy, out.ops = plan.Chosen.Name, st.HadamardOps
	f := out.facts
	f["engine.hadamard_ops"] = float64(st.HadamardOps)
	f["engine.memo_hit_ratio"] = float64(hits) / float64(hits+misses)
	f["engine.peak_value_mb"] = float64(st.PeakValueBytes) / 1e6
	f["engine.index_mb"] = float64(st.IndexBytes) / 1e6
	f["engine.alloc_mb_per_iter"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(res.Iters)
	f["model.ops_pred_ratio"] = float64(st.HadamardOps) / (float64(plan.Chosen.Pred.Ops) * float64(res.Iters))
	f["cpd.iters"] = float64(res.Iters)
	f["cpd.gram_s"] = res.Stats.Phases[cpd.PhaseGram].Time.Seconds()
	f["cpd.solve_s"] = res.Stats.Phases[cpd.PhaseSolve].Time.Seconds()
	f["cpd.fit_s"] = res.Stats.Phases[cpd.PhaseFit].Time.Seconds()
	return nil
}

// buildMemo builds the adaptive engine exactly as adatm.NewEnginePlanned
// does for a plan: the chosen tree, the plan's per-mode accumulation table.
func buildMemo(x *tensor.COO, plan *model.Plan, workers int) (*memo.Engine, error) {
	return memo.NewWithConfig(x, plan.Chosen.Strategy, memo.Config{
		Workers: workers, Name: "adaptive[" + plan.Chosen.Name + "]",
		Accum: accum.Config{PerMode: plan.AccumPerMode(), Workers: workers},
	})
}

// tracedDist is adatm.DecomposeDist (auto partition, chan transport, COO
// shards), layer by layer, with the shard engines and the transport wrapped.
func (w *workload) tracedDist(in *input, out *outcome, rec *recorder, op, root int) error {
	x := in.x
	id := rec.open(op, root, "tensor.validate")
	err := x.Validate()
	rec.close(id)
	if err != nil {
		return err
	}
	id = rec.open(op, root, "model.partition")
	plan, err := model.SelectPartition(x, model.PartitionOptions{Procs: w.procs, Rank: rank, Seed: in.seed})
	rec.close(id)
	if err != nil {
		return err
	}
	build := rec.open(op, root, "dist.build")
	var shardErr error
	cluster := dist.NewCluster(x, plan.Chosen.Part, func(shard *tensor.COO) engine.Engine {
		id := rec.open(op, build, "tensor.validate")
		if err := shard.Validate(); err != nil && shardErr == nil {
			shardErr = err
		}
		rec.close(id)
		id = rec.open(op, build, "engine.build")
		eng := coo.NewWithAccum(shard, w.workers, accum.Config{Workers: w.workers})
		rec.close(id)
		return eng
	})
	rec.close(build)
	if shardErr != nil {
		return shardErr
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run := rec.open(op, root, "dist.run")
	weight := 1 / float64(w.procs)
	for p, e := range cluster.Engines {
		cluster.Engines[p] = &tracedEngine{Engine: e, rec: rec, op: op, parent: run, proc: p, weight: weight}
	}
	tr := &tracedTransport{Transport: dist.NewChanTransport(w.procs), rec: rec, op: op, parent: run, weight: weight}
	dr, err := dist.Run(x, cluster, tr, dist.RunOptions{Rank: rank, MaxIters: w.iters, Tol: tinyTol,
		Seed: in.seed, Workers: w.workers})
	rec.close(run)
	tr.Close()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	out.res = adatm.DistResultToResult(dr)
	out.msgs = dr.Messages
	st := cluster.Stats()
	out.strategy, out.ops = plan.Chosen.Name, st.HadamardOps

	f := out.facts
	f["engine.hadamard_ops"] = float64(out.ops)
	f["engine.peak_value_mb"] = float64(st.PeakValueBytes) / 1e6
	f["engine.index_mb"] = float64(st.IndexBytes) / 1e6
	f["engine.alloc_mb_per_iter"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(dr.Iters)
	f["cpd.iters"] = float64(dr.Iters)
	f["dist.msgs"] = float64(tr.msgs)
	f["dist.fold_mb"] = float64(tr.foldB) / 1e6
	f["dist.expand_mb"] = float64(tr.expandB) / 1e6
	f["dist.reduce_mb"] = float64(tr.reduceB) / 1e6
	f["dist.volume_pred_ratio"] = float64(tr.foldB+tr.expandB) /
		(float64(dr.Comm.VolumeBytes(rank)) * float64(dr.Iters))
	if tr.msgs != dr.Messages {
		return fmt.Errorf("wrapped transport counted %d messages, DistResult.Messages is %d", tr.msgs, dr.Messages)
	}
	return nil
}
