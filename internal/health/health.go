// Package health implements the per-iteration numerical-health probe for
// CP-ALS runs: from state already resident in the solver loop (the factor
// Gram matrices, the λ vector, and the fit trajectory — no extra MTTKRPs) it
// derives the fit delta, the λ max/min component-weight ratio, a cheap
// power-iteration condition estimate κ̂ of each mode's Gram-Hadamard system,
// and the factor column congruence (max off-diagonal of the normalized
// cross-Gram — the standard swamp indicator). A rule layer turns the signals
// into typed verdicts with debounced transitions, fanned out to three sinks:
// health.state audit-ledger events, adatm_health_* metrics, and an
// obs.IterLog ring served at the debug server's /iters endpoint.
//
// Everything is nil-safe (a nil *Probe no-ops, so the disabled path is one
// pointer test in the solver loop) and allocation-free in steady state:
// scratch is sized at the first Observe, and only verdict transitions — rare
// by construction — format strings.
package health

import (
	"fmt"
	"math"
	"sync"

	"adatm/internal/audit"
	"adatm/internal/dense"
	"adatm/internal/obs"
)

// State is the probe's typed verdict about a run's numerical condition.
type State int

const (
	// Healthy: the fit is improving at a rate consistent with its own
	// history and no structural warning signal is raised.
	Healthy State = iota
	// Stalled: the fit delta has collapsed far below the run's own typical
	// progress without being close enough to Tol to count as convergence.
	Stalled
	// SwampSuspect: two or more factor columns are near-collinear (high
	// congruence) — the classic CP swamp, where ALS crawls along a
	// degenerate ridge.
	SwampSuspect
	// IllConditioned: some mode's Gram-Hadamard system has an estimated
	// condition number beyond the threshold; factor updates amplify noise.
	IllConditioned

	numStates = 4
)

var stateNames = [numStates]string{"healthy", "stalled", "swamp-suspect", "ill-conditioned"}

// String returns the verdict's wire name ("healthy", "stalled",
// "swamp-suspect", "ill-conditioned").
func (s State) String() string {
	if s < 0 || int(s) >= numStates {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalJSON renders the verdict as its wire name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ParseState maps a wire name back to its State.
func ParseState(name string) (State, bool) {
	for i, n := range stateNames {
		if n == name {
			return State(i), true
		}
	}
	return Healthy, false
}

// Thresholds tunes the rule layer. The zero value of any field selects its
// default, so callers set only what they mean to override.
type Thresholds struct {
	// Kappa is the Gram-Hadamard condition estimate at or above which a mode
	// counts as ill-conditioned. Default 1e8 — half of float64's digits
	// gone, the customary alarm line for normal-equations solves.
	Kappa float64
	// Congruence is the max normalized cross-Gram off-diagonal at or above
	// which factors count as swamp-suspect. Default 0.97 (columns within
	// ~14° of collinear), per the CP degeneracy literature.
	Congruence float64
	// StallFraction: an iteration counts as stalled when |Δfit| drops below
	// this fraction of the run's own median |Δfit| (from the probe's
	// fit-delta histogram) while still above Tol. Default 0.02.
	StallFraction float64
	// StallMinIters is the first iteration at which the stall rule may
	// fire, so the median has history behind it. Default 6.
	StallMinIters int
	// Debounce is the number of consecutive iterations a new raw verdict
	// must persist before the reported state transitions (<= 1 transitions
	// immediately). Default 2.
	Debounce int
}

const (
	defaultKappa         = 1e8
	defaultCongruence    = 0.97
	defaultStallFraction = 0.02
	defaultStallMinIters = 6
	defaultDebounce      = 2
)

func (t Thresholds) withDefaults() Thresholds {
	if t.Kappa <= 0 {
		t.Kappa = defaultKappa
	}
	if t.Congruence <= 0 {
		t.Congruence = defaultCongruence
	}
	if t.StallFraction <= 0 {
		t.StallFraction = defaultStallFraction
	}
	if t.StallMinIters <= 0 {
		t.StallMinIters = defaultStallMinIters
	}
	if t.Debounce <= 0 {
		t.Debounce = defaultDebounce
	}
	return t
}

// Config wires a probe to its sinks. Every sink is optional.
type Config struct {
	// Run labels this run's samples in a shared IterLog (e.g. an experiment
	// sweep writing one stream).
	Run string
	// Metrics, when non-nil, receives the adatm_health_* gauges, the
	// adatm_health_transitions_total counter, and the adatm_cpd_fit_delta
	// histogram.
	Metrics *obs.Registry
	// Audit, when non-nil, receives one health.state ledger event at the
	// first observation and one per debounced verdict transition.
	Audit *audit.Recorder
	// Log, when non-nil, receives one IterSample per observation (the
	// /iters ring).
	Log *obs.IterLog
	// Thresholds tunes the rule layer; zero fields select defaults.
	Thresholds Thresholds
}

// Input is one iteration's raw solver state, handed to Observe. Slices are
// read, never retained.
type Input struct {
	Iter int
	Fit  float64
	// PrevFit is the previous iteration's fit; non-finite (the solver seeds
	// it with -Inf) marks the first iteration, whose delta is excluded from
	// the stall baseline.
	PrevFit float64
	// Tol is the run's convergence threshold: a delta below it means the
	// run is about to converge, which the stall rule must not flag.
	Tol float64
	// Lambda is the component weight vector.
	Lambda []float64
	// Grams holds each mode's factor Gram matrix W⁽ⁿ⁾ = U⁽ⁿ⁾ᵀU⁽ⁿ⁾ (R×R),
	// exactly as the solver maintains them.
	Grams []*dense.Matrix
}

// Probe computes the health signals and drives the verdict state machine.
// Safe for concurrent use; a nil *Probe no-ops everywhere.
type Probe struct {
	mu  sync.Mutex
	cfg Config
	thr Thresholds

	// Lazily sized scratch (first Observe fixes modes and rank).
	hbuf  *dense.Matrix // Gram-Hadamard accumulator, R×R
	kappa []float64     // per-mode κ̂
	congr []float64     // per-mode congruence
	est   condEstimator
	smp   obs.IterSample // reused sample; Log.Append copies it

	// deltaHist is the run's own |Δfit| distribution, the stall rule's
	// baseline. Private (always present) so the rule works without a
	// metrics registry; mirrored to adatm_cpd_fit_delta when one is wired.
	deltaHist *obs.Histogram

	m machine

	// Metric series, registered once in New (nil without a registry).
	stateG *obs.Gauge
	deltaG *obs.Gauge
	ratioG *obs.Gauge
	kappaG *obs.Gauge
	congrG *obs.Gauge
	transC *obs.Counter
	deltaH *obs.Histogram

	// Run aggregates for Summary.
	iters      int
	maxKappa   float64
	maxCongr   float64
	lastDelta  float64
	stateIters [numStates]int
	emitted    bool // initial health.state event sent
}

// FitDeltaBuckets returns the log2 bucket bounds for |Δfit| histograms:
// powers of two from 2⁻⁴⁰ (≈9e-13, well under any practical Tol) up to 1
// (fit is bounded by 1, so deltas beyond that land in +Inf). Log2 spacing
// makes Histogram.Quantile's geometric interpolation accurate to within one
// bucket ratio (2×).
func FitDeltaBuckets() []float64 {
	out := make([]float64, 41)
	b := math.Ldexp(1, -40)
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// New builds a probe. All metric registration happens here, never in
// Observe, so the steady state takes no registry locks and allocates
// nothing.
func New(cfg Config) *Probe {
	p := &Probe{
		cfg:       cfg,
		thr:       cfg.Thresholds.withDefaults(),
		deltaHist: obs.NewHistogram(FitDeltaBuckets()),
	}
	p.m.debounce = p.thr.Debounce
	if reg := cfg.Metrics; reg != nil {
		p.stateG = reg.Gauge("adatm_health_state",
			"Debounced numerical-health verdict (0 healthy, 1 stalled, 2 swamp-suspect, 3 ill-conditioned).", nil)
		p.deltaG = reg.Gauge("adatm_health_fit_delta",
			"Signed fit change of the latest ALS iteration.", nil)
		p.ratioG = reg.Gauge("adatm_health_lambda_ratio",
			"Max/min component weight ratio of the latest iteration.", nil)
		p.kappaG = reg.Gauge("adatm_health_max_kappa",
			"Worst per-mode condition estimate of the Gram-Hadamard systems.", nil)
		p.congrG = reg.Gauge("adatm_health_max_congruence",
			"Worst per-mode factor column congruence (swamp indicator).", nil)
		p.transC = reg.Counter("adatm_health_transitions_total",
			"Debounced health-state transitions.", nil)
		p.deltaH = reg.Histogram("adatm_cpd_fit_delta",
			"Distribution of |Δfit| per ALS iteration.", nil, FitDeltaBuckets())
	}
	return p
}

// size (re)fits the scratch to the observed mode count and rank.
func (p *Probe) size(modes, rank int) {
	if p.hbuf != nil && len(p.kappa) == modes && p.hbuf.Rows == rank {
		return
	}
	p.hbuf = dense.New(rank, rank)
	p.kappa = make([]float64, modes)
	p.congr = make([]float64, modes)
	p.smp.Kappa = p.kappa
	p.smp.Congruence = p.congr
}

// clampFinite bounds a signal for storage: NaN → 0, magnitude capped at
// KappaCeil so every sink (JSON endpoints included) sees finite values.
func clampFinite(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if v > KappaCeil {
		return KappaCeil
	}
	if v < -KappaCeil {
		return -KappaCeil
	}
	return v
}

// Observe ingests one iteration's state: computes the signals, advances the
// debounced verdict machine, and fans out to the configured sinks.
// Allocation-free after the first call except on verdict transitions.
func (p *Probe) Observe(in Input) {
	if p == nil {
		return
	}
	modes := len(in.Grams)
	if modes == 0 || len(in.Lambda) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rank := in.Grams[0].Rows
	p.size(modes, rank)

	delta := in.Fit - in.PrevFit
	deltaOK := !math.IsNaN(delta) && !math.IsInf(delta, 0)
	absDelta := math.Abs(delta)
	if deltaOK {
		p.deltaHist.Observe(absDelta)
		p.deltaH.Observe(absDelta)
	}
	ratio := lambdaRatio(in.Lambda)

	maxK, maxC := 0.0, 0.0
	for mode := 0; mode < modes; mode++ {
		p.hbuf.Fill(1)
		for i, g := range in.Grams {
			if i != mode {
				dense.Hadamard(p.hbuf, g, p.hbuf)
			}
		}
		k := p.est.estimate(p.hbuf)
		c := congruence(in.Grams[mode])
		p.kappa[mode] = k
		p.congr[mode] = c
		if k > maxK {
			maxK = k
		}
		if c > maxC {
			maxC = c
		}
	}

	// Rule layer, most severe wins: a genuinely ill-conditioned system
	// subsumes the swamp signal it usually also produces, and both subsume
	// a stall.
	raw := Healthy
	switch {
	case maxK >= p.thr.Kappa:
		raw = IllConditioned
	case maxC >= p.thr.Congruence:
		raw = SwampSuspect
	case deltaOK && in.Iter >= p.thr.StallMinIters && absDelta >= in.Tol:
		if med := p.deltaHist.Quantile(0.5); med > 0 && absDelta < p.thr.StallFraction*med {
			raw = Stalled
		}
	}

	prev := p.m.state
	st, changed := p.m.step(raw)

	// Aggregates.
	p.iters++
	p.stateIters[st]++
	if deltaOK {
		p.lastDelta = delta
	} else {
		p.lastDelta = 0
	}
	if maxK > p.maxKappa {
		p.maxKappa = maxK
	}
	if maxC > p.maxCongr {
		p.maxCongr = maxC
	}

	// Metrics.
	p.stateG.Set(float64(st))
	if deltaOK {
		p.deltaG.Set(delta)
	}
	p.ratioG.Set(ratio)
	p.kappaG.Set(maxK)
	p.congrG.Set(maxC)

	// Iteration stream.
	if p.cfg.Log != nil {
		p.smp.Run = p.cfg.Run
		p.smp.Iter = in.Iter
		p.smp.Fit = clampFinite(in.Fit)
		p.smp.FitDelta = clampFinite(p.lastDelta)
		p.smp.LambdaRatio = clampFinite(ratio)
		p.smp.MaxKappa = clampFinite(maxK)
		p.smp.MaxCongruence = clampFinite(maxC)
		p.smp.State = st.String()
		p.cfg.Log.Append(p.smp)
	}

	// Ledger: one event when monitoring starts, one per transition. Both
	// are rare, so the formatting cost stays off the steady-state path.
	if !p.emitted {
		p.emitted = true
		p.cfg.Audit.RecordEvent(audit.Event{
			Kind: "health.state", Iter: in.Iter,
			Detail: fmt.Sprintf("state=%s (monitoring started, run=%s)", st, p.cfg.Run),
		})
	} else if changed {
		p.transC.Inc()
		p.cfg.Audit.RecordEvent(audit.Event{
			Kind: "health.state", Iter: in.Iter,
			Detail: fmt.Sprintf("%s -> %s: fit_delta=%.3g lambda_ratio=%.3g max_kappa=%.3g max_congruence=%.3g",
				prev, st, p.lastDelta, ratio, maxK, maxC),
		})
	}
}

// machine debounces verdict transitions: a candidate state must persist for
// debounce consecutive observations before it is reported, so one noisy
// iteration cannot flap the verdict.
type machine struct {
	state       State
	cand        State
	streak      int
	debounce    int
	transitions int
}

func (m *machine) step(raw State) (State, bool) {
	if raw == m.state {
		m.cand = raw
		m.streak = 0
		return m.state, false
	}
	if raw == m.cand {
		m.streak++
	} else {
		m.cand = raw
		m.streak = 1
	}
	if m.streak >= m.debounce {
		m.state = raw
		m.streak = 0
		m.transitions++
		return m.state, true
	}
	return m.state, false
}

// lambdaRatio returns max|λ|/min|λ|, clamped to [1, KappaCeil]; a zero
// component reports the ceiling (the component is dead).
func lambdaRatio(lambda []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, v := range lambda {
		a := math.Abs(v)
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if lo <= 0 || hi == 0 {
		return KappaCeil
	}
	r := hi / lo
	if r < 1 {
		r = 1
	}
	if r > KappaCeil || math.IsNaN(r) {
		return KappaCeil
	}
	return r
}

// congruence returns the largest off-diagonal of the column-normalized Gram
// matrix, |G[i,j]|/√(G[i,i]·G[j,j]) — how close the two closest factor
// columns are to collinear. Dead columns (zero diagonal) are skipped.
func congruence(g *dense.Matrix) float64 {
	r := g.Rows
	max := 0.0
	for i := 0; i < r; i++ {
		di := g.At(i, i)
		if di <= 0 {
			continue
		}
		for j := i + 1; j < r; j++ {
			dj := g.At(j, j)
			if dj <= 0 {
				continue
			}
			c := math.Abs(g.At(i, j)) / math.Sqrt(di*dj)
			if c > max {
				max = c
			}
		}
	}
	if max > 1 || math.IsNaN(max) {
		// FP noise can push a truly collinear pair infinitesimally past 1.
		max = 1
	}
	return max
}

// Summary is the probe's end-of-run verdict, JSON-marshalable for the CLI
// -json report and the /run snapshot.
type Summary struct {
	State       State   `json:"state"`
	Iters       int     `json:"iters"`
	Transitions int     `json:"transitions"`
	MaxKappa    float64 `json:"max_kappa"`
	// MaxCongruence is the worst factor column congruence seen.
	MaxCongruence float64 `json:"max_congruence"`
	// LastFitDelta is the final iteration's signed fit change.
	LastFitDelta float64 `json:"last_fit_delta"`
	// StateIters counts observed iterations per verdict.
	StateIters map[string]int `json:"state_iters,omitempty"`
}

// String renders the one-line verdict for terminal output.
func (s Summary) String() string {
	return fmt.Sprintf("health=%s (iters=%d, transitions=%d, max_kappa=%.3g, max_congruence=%.3g, last_fit_delta=%.3g)",
		s.State, s.Iters, s.Transitions, s.MaxKappa, s.MaxCongruence, s.LastFitDelta)
}

// Summary returns the current verdict and run aggregates. Nil-safe (a nil
// probe reports a zero healthy summary).
func (p *Probe) Summary() Summary {
	if p == nil {
		return Summary{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Summary{
		State:         p.m.state,
		Iters:         p.iters,
		Transitions:   p.m.transitions,
		MaxKappa:      clampFinite(p.maxKappa),
		MaxCongruence: clampFinite(p.maxCongr),
		LastFitDelta:  clampFinite(p.lastDelta),
	}
	if p.iters > 0 {
		s.StateIters = make(map[string]int, numStates)
		for i, n := range p.stateIters {
			if n > 0 {
				s.StateIters[State(i).String()] = n
			}
		}
	}
	return s
}

// State returns the current debounced verdict. Nil-safe.
func (p *Probe) State() State {
	if p == nil {
		return Healthy
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.state
}
