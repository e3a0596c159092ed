package cpd

import (
	"errors"
	"fmt"
	"time"

	"adatm/internal/audit"
	"adatm/internal/ckpt"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// CheckpointConfig enables durable, resumable state for a run: the loop
// snapshots its boundary state every iteration and atomically writes a
// checkpoint file whenever a trigger fires, keeping a rolling window of the
// newest files. A crash, OOM-kill, or SIGTERM then costs at most the work
// since the last write instead of the whole run; Resume continues from the
// newest checkpoint and reaches the same fit the uninterrupted run would
// have (bit-for-bit — the checkpoint captures the exact factor state and
// JSON float64 round-trips are exact).
type CheckpointConfig struct {
	// Dir is the checkpoint directory (required; created if absent).
	Dir string
	// Every writes a checkpoint after every N completed iterations.
	// When both Every and Interval are unset, Every defaults to 1.
	Every int
	// Interval writes a checkpoint when this much wall-clock time has
	// passed since the previous write (0 disables the wall-clock trigger).
	Interval time.Duration
	// Retain keeps the newest K checkpoint files (<= 0: ckpt.DefaultRetain).
	Retain int
	// fault arms deterministic write failures for crash-safety tests.
	fault *ckpt.Fault
}

// checkpointer runs the checkpoint protocol inside the ALS loop. The
// boundary snapshot reuses its buffers, so steady-state iterations with
// checkpointing disabled cost one pointer test and enabled ones allocate
// only inside the periodic write itself.
type checkpointer struct {
	mgr       *ckpt.Manager
	every     int
	interval  time.Duration
	snap      ckpt.Checkpoint
	snapValid bool
	written   int // iteration of the last committed checkpoint
	lastWrite time.Time
}

// newCheckpointer builds the loop's checkpointer; a nil config yields a nil
// checkpointer (the free path). sweep is the resolved mode order, so the
// fingerprint is identical whether the caller passed nil or the explicit
// natural order.
func newCheckpointer(x *tensor.COO, opt Options, sweep []int) (*checkpointer, error) {
	cfg := opt.Checkpoint
	if cfg == nil {
		return nil, nil
	}
	mgr, err := ckpt.NewManager(cfg.Dir, cfg.Retain)
	if err != nil {
		return nil, err
	}
	if cfg.fault != nil {
		mgr.SetFault(cfg.fault)
	}
	mgr.Instrument(opt.Metrics)
	every := cfg.Every
	if every <= 0 && cfg.Interval <= 0 {
		every = 1
	}
	c := &checkpointer{mgr: mgr, every: every, interval: cfg.Interval, lastWrite: time.Now()}
	c.snap.Seed = opt.Seed
	c.snap.Fingerprint = fingerprintFor(x, opt, sweep)
	return c, nil
}

// fingerprintFor hashes the tensor plus the trajectory-determining options
// into the identity checkpoints are bound to.
func fingerprintFor(x *tensor.COO, opt Options, sweep []int) string {
	return ckpt.Fingerprint(x.Dims, x.Inds, x.Vals, ckpt.Meta{
		Rank:        opt.Rank,
		Ridge:       opt.Ridge,
		NonNegative: opt.NonNegative,
		ModeOrder:   sweep,
	})
}

// snapshot copies the iteration-boundary state into the pending checkpoint,
// reusing the previous snapshot's buffers.
func (c *checkpointer) snapshot(iter int, fit float64, lambda []float64, factors []*dense.Matrix, trace []float64) {
	c.snap.Iter = iter
	c.snap.Fit = fit
	c.snap.Lambda = append(c.snap.Lambda[:0], lambda...)
	if c.snap.Factors == nil {
		c.snap.Factors = make([]*dense.Matrix, len(factors))
	}
	for m, f := range factors {
		if c.snap.Factors[m] == nil {
			c.snap.Factors[m] = dense.New(f.Rows, f.Cols)
		}
		c.snap.Factors[m].CopyFrom(f)
	}
	c.snap.FitTrace = append(c.snap.FitTrace[:0], trace...)
	c.snapValid = true
}

// boundary is called after every completed iteration: it refreshes the
// snapshot and writes a checkpoint when a trigger is due. A write failure
// aborts the run — the caller asked for durability and is not getting it.
func (c *checkpointer) boundary(iter int, fit float64, lambda []float64, factors []*dense.Matrix, trace []float64) error {
	c.snapshot(iter, fit, lambda, factors, trace)
	if c.due(iter) {
		return c.write()
	}
	return nil
}

func (c *checkpointer) due(iter int) bool {
	if c.every > 0 && iter-c.written >= c.every {
		return true
	}
	return c.interval > 0 && time.Since(c.lastWrite) >= c.interval
}

func (c *checkpointer) write() error {
	if _, err := c.mgr.Save(&c.snap); err != nil {
		return fmt.Errorf("cpd: checkpoint: %w", err)
	}
	c.written = c.snap.Iter
	c.lastWrite = time.Now()
	return nil
}

// finalWrite persists the newest boundary state on any exit path —
// convergence, iteration cap, cancellation (SIGTERM via Ctx), or an early
// Progress stop — so a resume never replays work the run already finished.
func (c *checkpointer) finalWrite() error {
	if c == nil || !c.snapValid || c.snap.Iter <= c.written {
		return nil
	}
	return c.write()
}

// Resume continues a checkpointed run: it validates that the checkpoint was
// taken for exactly this tensor and these options (fingerprint match),
// seeds the loop with the checkpointed factors, λ, fit history, and
// convergence state, and runs the remaining iterations up to opt.MaxIters.
// The trajectory is identical to the uninterrupted run's, so the final fit
// matches to machine precision. Set opt.Checkpoint to keep checkpointing
// the resumed run (usually with the same directory).
func Resume(x *tensor.COO, eng engine.Engine, c *ckpt.Checkpoint, opt Options) (*Result, error) {
	if c == nil {
		return nil, errors.New("cpd: nil checkpoint")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opt.Rank <= 0 {
		return nil, errors.New("cpd: Rank must be positive")
	}
	sweep, err := sweepOrder(opt.ModeOrder, x.Order())
	if err != nil {
		return nil, err
	}
	if fp := fingerprintFor(x, opt, sweep); fp != c.Fingerprint {
		return nil, fmt.Errorf("cpd: checkpoint fingerprint %s does not match this tensor+options (%s): different tensor, rank, ridge, non-negativity, or mode order", c.Fingerprint, fp)
	}
	if len(c.Factors) != x.Order() {
		return nil, fmt.Errorf("cpd: checkpoint has %d factors for order-%d tensor", len(c.Factors), x.Order())
	}
	// initFactors clones Init, so the checkpoint stays untouched by the run.
	opt.Init = c.Factors
	opt.Seed = c.Seed
	if opt.Audit != nil {
		opt.Audit.RecordEvent(audit.Event{Kind: "resume", Iter: c.Iter, Fingerprint: c.Fingerprint})
	}
	return run(x, &singleNode{eng: eng, dims: x.Dims}, opt, &resumeState{
		startIter: c.Iter + 1,
		prevFit:   c.Fit,
		lambda:    c.Lambda,
		fitTrace:  c.FitTrace,
	})
}

// resumeState carries a checkpoint's loop state into run.
type resumeState struct {
	startIter int
	prevFit   float64
	lambda    []float64
	fitTrace  []float64
}
