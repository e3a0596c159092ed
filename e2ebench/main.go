// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload as a closed loop (one client, one op at a time, in one
// process) for a fixed time and prints one JSON result line last.
//
// With --trace 0 every op goes through the public entry points only and
// the result carries the end-to-end metrics. With --trace 1 the run
// alternates public ops with traced ops that call each layer's own
// functions under spans, and the result carries the per-layer metrics.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adatm/internal/obs"
	"adatm/internal/perf"
)

const (
	workDir = ".bench_build" // everything a run writes goes under here
	minOps  = 5              // a run measures at least this many ops
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"op_s_p50", "s"}, {"ops_per_s", "1/s"}, {"fit", "ratio"},
	{"success_rate", "ratio"}, {"peak_rss_mb", "MB"}, {"alloc_mb_per_op", "MB"}, {"setup_s", "s"},
}

var perLayer = []metricDef{
	{"tensor.read_s", "s"}, {"tensor.read_mb_per_s", "MB/s"}, {"tensor.dedup_s", "s"},
	{"tensor.validate_s", "s"}, {"tensor.dups_merged", "count"}, {"tensor.alloc_mb", "MB"},
	{"model.select_s", "s"}, {"model.partition_s", "s"}, {"model.ops_pred_ratio", "ratio"},
	{"engine.build_s", "s"}, {"engine.mttkrp_s", "s"},
	{"engine.mttkrp_s.m0", "s"}, {"engine.mttkrp_s.m1", "s"}, {"engine.mttkrp_s.m2", "s"},
	{"engine.mttkrp_s.m3", "s"}, {"engine.mttkrp_s.m4", "s"},
	{"engine.hadamard_ops", "count"}, {"engine.gflops", "GFLOP/s"}, {"engine.memo_hit_ratio", "ratio"},
	{"engine.par_eff", "ratio"}, {"engine.peak_value_mb", "MB_computed"}, {"engine.index_mb", "MB_computed"},
	{"engine.alloc_mb_per_iter", "MB"},
	{"cpd.run_s", "s"}, {"cpd.self_s", "s"}, {"cpd.gram_s", "s"}, {"cpd.solve_s", "s"}, {"cpd.fit_s", "s"},
	{"cpd.iters", "count"},
	{"ckpt.save_s", "s"}, {"ckpt.save_mb", "MB"},
	{"dist.build_s", "s"}, {"dist.run_s", "s"}, {"dist.shard_mttkrp_s", "s"}, {"dist.shard_imbalance", "ratio"},
	{"dist.recv_wait_s", "s"}, {"dist.send_s", "s"}, {"dist.self_s", "s"},
	{"dist.msgs", "count"}, {"dist.fold_mb", "MB"}, {"dist.expand_mb", "MB"}, {"dist.reduce_mb", "MB"},
	{"dist.volume_pred_ratio", "ratio"},
	{"trace.coverage", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// exactCounts must read the same on every traced op of a run (and, for a
// given seed, on every run).
var exactCounts = []string{"engine.hadamard_ops", "dist.msgs", "tensor.dups_merged", "cpd.iters"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// tally counts ops and collects the failures and cross-path disagreements
// that make a run incorrect.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.problem("op %d: %v", t.attempted, err)
	}
	return err == nil
}

// broken reports that most ops fail, so the run stops early instead of
// looping for its full length.
func (t *tally) broken() bool { return t.failed > 3 && t.failed*2 > t.attempted }

func (t *tally) problem(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	t.problems = append(t.problems, msg)
	fmt.Fprintln(os.Stderr, "e2ebench: check failed:", msg)
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "seed for the generated inputs and the factor initialization")
	seconds := fl.Int("seconds", 25, "how long the op loop measures")
	trace := fl.Int("trace", 0, "0: public entry points, end-to-end metrics; 1: traced layers, per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	env, err := json.Marshal(struct {
		perf.Env
		Source string `json:"source_sha256"`
	}{perf.Fingerprint(), sourceHash()})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", env)

	var inputs []*input
	var setups []float64
	for j := 0; j < inputsPerRun; j++ {
		t0 := time.Now()
		in, err := w.setup(*seed, j, dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inputs = append(inputs, in)
	}
	runtime.GC()

	dur := time.Duration(*seconds) * time.Second
	cpu0 := cpuTicks()
	var t tally
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 0 {
		metrics, defs = w.measure(inputs, dur, &t), endToEnd
		metrics["setup_s"] = median(setups)
	} else {
		rec := newRecorder()
		metrics, defs = w.measureTraced(inputs, dur, rec, &t), perLayer
		traceDir := filepath.Join(workDir, "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := rec.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
	}

	res := result{Correct: len(t.problems) == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d: %d ops attempted, %d failed, error_rate %g, cpu steal %.1f%%\n",
		w.name, *seed, *trace, t.attempted, t.failed, float64(t.failed)/float64(max(t.attempted, 1)),
		100*stealShare(cpu0, cpuTicks()))
	for _, d := range defs {
		v := metrics[d.name]
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// warmUp runs one untimed public op per input, with a metrics registry
// attached, and returns them as the references later ops must reproduce.
func (w *workload) warmUp(inputs []*input, t *tally) []*outcome {
	refs := make([]*outcome, len(inputs))
	for j, in := range inputs {
		out, err := w.runPublic(in, obs.NewRegistry())
		if err == nil {
			err = w.checkOp(in, out)
		}
		if !t.op(err) {
			return nil
		}
		refs[j] = out
	}
	return refs
}

// measure runs the untraced loop: after the warm-up, timed public ops
// cycle through the inputs until dur has passed, each checked outside its
// timed interval.
func (w *workload) measure(inputs []*input, dur time.Duration, t *tally) map[string]float64 {
	refs := w.warmUp(inputs, t)
	if refs == nil {
		return map[string]float64{}
	}
	var times, allocs []float64
	var a, b runtime.MemStats
	start := time.Now()
	for op := 0; (time.Since(start) < dur || len(times) < minOps) && !t.broken(); op++ {
		j := op % len(inputs)
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		out, err := w.runPublic(inputs[j], nil)
		d := time.Since(t0).Seconds()
		runtime.ReadMemStats(&b)
		if err == nil {
			err = w.checkOp(inputs[j], out)
		}
		if err == nil {
			err = sameFit(refs[j], out)
		}
		if t.op(err) {
			times = append(times, d)
			allocs = append(allocs, float64(b.TotalAlloc-a.TotalAlloc)/1e6)
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.problem("getrusage: %v", err)
	}
	if w.kind == kindDist {
		if _, err := w.crossDist(inputs[0], refs[0].res.Fit); err != nil {
			t.problem("%v", err)
		}
	}
	sum, fit := 0.0, 0.0
	for _, d := range times {
		sum += d
	}
	for _, r := range refs {
		fit += r.res.Fit / float64(len(refs))
	}
	m := map[string]float64{
		"op_s_p50":        median(times),
		"fit":             fit,
		"success_rate":    float64(t.attempted-t.failed) / float64(t.attempted),
		"peak_rss_mb":     float64(ru.Maxrss) * 1024 / 1e6, // Linux reports KiB
		"alloc_mb_per_op": median(allocs),
	}
	if sum > 0 {
		m["ops_per_s"] = float64(len(times)) / sum
	}
	return m
}

// sameFit requires an op to reproduce the reference op's fit on its input.
func sameFit(ref, out *outcome) error {
	if !(math.Abs(out.res.Fit-ref.res.Fit) <= agreeTol) {
		return fmt.Errorf("fit %.15f, the input's first op reached %.15f", out.res.Fit, ref.res.Fit)
	}
	return nil
}

// cpuTicks reads the machine-wide CPU time counters (user, nice, system,
// idle, iowait, irq, softirq, steal) from /proc/stat; nil where there is
// none.
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	ticks := make([]int64, 8)
	for i := range ticks {
		if ticks[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return nil
		}
	}
	return ticks
}

// stealShare is the share of CPU time between two cpuTicks readings that
// the hypervisor gave to other guests. It is printed with every result: a
// run with high steal measured the host's load, not the program.
func stealShare(a, b []int64) float64 {
	if a == nil || b == nil {
		return 0
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}

// sourceHash identifies the measured code when the checkout carries no VCS
// metadata: a SHA-256 over the module's Go sources and go.mod files.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
