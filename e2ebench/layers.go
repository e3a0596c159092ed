package main

import (
	"fmt"
	"math"
	"time"

	"adatm/internal/accum"
	"adatm/internal/coo"
	"adatm/internal/cpd"
	"adatm/internal/engine"
	"adatm/internal/memo"
	"adatm/internal/model"
)

// measureTraced runs the traced loop. The warm-up ops are the references
// the traced ops must agree with (fit, chosen strategy, Hadamard ops,
// messages). Then public and traced ops alternate, each pair on the same
// input, until dur has passed, so that both see the same machine state and
// their medians give the tracing overhead.
func (w *workload) measureTraced(inputs []*input, dur time.Duration, rec *recorder, t *tally) map[string]float64 {
	refs := w.warmUp(inputs, t)
	if refs == nil {
		return map[string]float64{}
	}
	var plain, traced []float64
	var vals []map[string]float64
	// first[j] holds the per-layer values of input j's first traced op; the
	// exact counts of later ops on j must repeat them.
	first := make([]map[string]float64, len(inputs))
	start := time.Now()
	for op := 0; (time.Since(start) < dur || len(vals) < max(minOps, len(inputs))) && !t.broken(); op++ {
		j := op / 2 % len(inputs)
		in := inputs[j]
		if op%2 == 0 {
			t0 := time.Now()
			out, err := w.runPublic(in, nil)
			d := time.Since(t0).Seconds()
			if err == nil {
				err = w.checkOp(in, out)
			}
			if err == nil {
				err = sameFit(refs[j], out)
			}
			if t.op(err) {
				plain = append(plain, d)
			}
			continue
		}
		out, err := w.runTraced(in, rec, op)
		if err == nil {
			err = w.checkOp(in, out)
		}
		if err == nil {
			err = agree(refs[j], out)
		}
		if !t.op(err) {
			continue
		}
		prof := profile(rec.opSpans(op))
		v := w.layerValues(in, out, prof)
		traced = append(traced, prof.wall)
		vals = append(vals, v)
		if first[j] == nil {
			first[j] = v
			continue
		}
		for _, name := range exactCounts {
			if v[name] != first[j][name] {
				t.problem("%s read %v and %v on two ops on one input", name, first[j][name], v[name])
			}
		}
	}
	if len(vals) == 0 {
		return map[string]float64{}
	}

	m := map[string]float64{}
	for _, d := range perLayer {
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = v[d.name]
		}
		m[d.name] = median(xs)
	}
	// Exact counts are averaged over the inputs' first traced ops, so they
	// do not depend on how many ops of each input the run fitted in.
	for _, name := range exactCounts {
		m[name] = 0
		for _, f := range first {
			m[name] += f[name] / float64(len(first))
		}
	}
	if len(plain) > 0 {
		m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	}
	var err error
	if m["engine.par_eff"], err = w.parEff(inputs[0]); err != nil {
		t.problem("engine.par_eff sweep: %v", err)
	}
	if w.kind == kindDist {
		ops, err := w.crossDist(inputs[0], refs[0].res.Fit)
		if err != nil {
			t.problem("%v", err)
		} else if float64(ops) != first[0]["engine.hadamard_ops"] {
			t.problem("shard engines ran %v Hadamard ops, single-node COO ran %d", first[0]["engine.hadamard_ops"], ops)
		}
	}
	return m
}

// agree compares a traced op with the reference public op.
func agree(ref, out *outcome) error {
	if !(math.Abs(out.res.Fit-ref.res.Fit) <= agreeTol) {
		return fmt.Errorf("traced fit %.15f, public fit %.15f", out.res.Fit, ref.res.Fit)
	}
	if out.strategy != ref.strategy {
		return fmt.Errorf("traced path chose %q, public path %q", out.strategy, ref.strategy)
	}
	if ref.ops >= 0 && out.ops != ref.ops {
		return fmt.Errorf("traced path ran %d Hadamard ops, public path %d", out.ops, ref.ops)
	}
	if out.msgs != ref.msgs {
		return fmt.Errorf("traced path sent %d messages, public path %d", out.msgs, ref.msgs)
	}
	return nil
}

// layerValues turns one traced op's spans and facts into per-layer metric
// values. Layers the workload does not call read 0.
func (w *workload) layerValues(in *input, out *outcome, p opProfile) map[string]float64 {
	v := map[string]float64{}
	for k, f := range out.facts {
		v[k] = f
	}
	tot := p.total
	v["tensor.read_s"] = tot["tensor.read"]
	if tot["tensor.read"] > 0 {
		v["tensor.read_mb_per_s"] = float64(in.fileBytes) / 1e6 / tot["tensor.read"]
	}
	v["tensor.dedup_s"] = tot["tensor.dedup"]
	v["tensor.validate_s"] = tot["tensor.validate"]
	v["model.select_s"] = tot["model.select"]
	v["model.partition_s"] = tot["model.partition"]
	v["engine.build_s"] = tot["engine.build"]
	v["engine.mttkrp_s"] = tot["engine.mttkrp"]
	for m := 0; m < 5; m++ {
		v[fmt.Sprintf("engine.mttkrp_s.m%d", m)] = p.modeTotal[m]
	}
	if tot["engine.mttkrp"] > 0 {
		// One Hadamard op unit is one multiply-add: two flops.
		v["engine.gflops"] = 2 * v["engine.hadamard_ops"] / tot["engine.mttkrp"] / 1e9
	}
	v["cpd.run_s"] = tot["cpd.run"]
	v["cpd.self_s"] = p.self["cpd"]
	v["ckpt.save_s"] = tot["ckpt.save"]
	if w.kind == kindDist {
		v["dist.build_s"] = tot["dist.build"]
		v["dist.run_s"] = tot["dist.run"]
		v["dist.shard_mttkrp_s"] = tot["engine.mttkrp"]
		v["dist.recv_wait_s"] = tot["dist.recv"]
		v["dist.send_s"] = tot["dist.send"]
		v["dist.self_s"] = p.self["dist"] - tot["dist.recv"] - tot["dist.send"]
		var maxProc, sum float64
		for _, s := range p.procTotal {
			maxProc = max(maxProc, s)
			sum += s
		}
		if sum > 0 {
			v["dist.shard_imbalance"] = maxProc / (sum / float64(len(p.procTotal)))
		}
	}
	covered := 0.0
	for _, s := range p.self {
		covered += s
	}
	v["trace.coverage"] = covered / p.wall
	return v
}

// parEff is the Workers=1 sweep time over twice the Workers=2 sweep time
// for the workload's single-node engine: the adaptive memo engine on the
// plan's tree, or COO for the sharded workload.
func (w *workload) parEff(in *input) (float64, error) {
	x := in.x
	var e1, e2 engine.Engine
	if w.kind == kindDist {
		e1 = coo.NewWithAccum(x, 1, accum.Config{Workers: 1})
		e2 = coo.NewWithAccum(x, 2, accum.Config{Workers: 2})
	} else {
		plan := model.Select(x, model.Options{Rank: rank, Workers: 2})
		m1, err := memo.NewWithConfig(x, plan.Chosen.Strategy, memo.Config{Workers: 1, Accum: accum.Config{Workers: 1}})
		if err != nil {
			return 0, err
		}
		m2, err := buildMemo(x, plan, 2)
		if err != nil {
			return 0, err
		}
		e1, e2 = m1, m2
	}
	r, err := sweepRatio(e1, e2, x)
	return r / 2, err
}

// crossDist decomposes the sharded workload's tensor on a single node (COO
// engine, same seed and options) and requires the sharded fit within
// agreeTol. It returns the single-node Hadamard op count.
func (w *workload) crossDist(in *input, distFit float64) (int64, error) {
	eng := coo.NewWithAccum(in.x, 2, accum.Config{Workers: 2})
	res, err := cpd.Run(in.x, eng, cpd.Options{Rank: rank, MaxIters: w.iters, Tol: tinyTol, Seed: in.seed, Workers: 2})
	if err != nil {
		return 0, fmt.Errorf("single-node cross-check: %w", err)
	}
	if !(math.Abs(res.Fit-distFit) <= agreeTol) {
		return 0, fmt.Errorf("sharded fit %.15f, single-node COO fit %.15f", distFit, res.Fit)
	}
	return eng.Stats().HadamardOps, nil
}
