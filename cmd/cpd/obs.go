package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"adatm"
	"adatm/internal/obs"
)

// obsConfig collects the observability flags of one CLI run.
type obsConfig struct {
	tracePath  string  // -tracefile: Chrome trace-event output
	listen     string  // -listen: debug server address
	hold       bool    // -hold: keep the server up after the run
	workers    int     // parallel width (names the tracer tracks)
	audit      bool    // -audit: print the reconciliation table
	auditFile  string  // -auditfile: JSONL decision ledger
	auditWarn  float64 // -auditwarn: |rel err| warning threshold
	logJSON    bool    // -logjson: structured JSON log events to stderr
	logFile    string  // -logfile: structured JSON log events to this file
	health     bool    // -health: numerical-health probe + final verdict
	healthFile string  // -healthfile: per-iteration health history (JSONL)
}

// enabled reports whether any observability feature was requested.
func (c obsConfig) enabled() bool {
	return c.tracePath != "" || c.listen != "" || c.wantAudit() || c.wantHealth()
}

// wantAudit reports whether the run needs a model-audit recorder: any audit
// or logging flag, or a debug server (which serves the decision at /plan and
// the adatm_model_* gauges at /metrics).
func (c obsConfig) wantAudit() bool {
	return c.audit || c.auditFile != "" || c.logJSON || c.logFile != "" || c.listen != ""
}

// wantHealth reports whether the run needs a numerical-health probe: either
// health flag, or a debug server (which serves the iteration stream at
// /iters and the adatm_health_* gauges at /metrics).
func (c obsConfig) wantHealth() bool {
	return c.health || c.healthFile != "" || c.listen != ""
}

// obsState bundles the optional observability wiring of one CLI run: the
// span tracer behind -tracefile, the metrics registry + live debug server
// behind -listen, and the model-audit recorder behind -audit/-auditfile/
// -logjson/-logfile.
type obsState struct {
	tracer     *adatm.Tracer
	metrics    *adatm.Metrics
	server     *adatm.DebugServer
	sampler    *obs.Sampler
	audit      *adatm.AuditRecorder
	auditFile  *os.File
	logFile    *os.File
	health     *adatm.HealthProbe
	iterLog    *adatm.IterLog
	healthPath string
	tracePath  string
	hold       bool
	started    time.Time
	done       bool // finish already ran (it is called from both the normal exit and fatal)
}

// runSnapshot is the JSON payload served at /run, refreshed after every
// completed ALS iteration and finalized when the run ends.
type runSnapshot struct {
	Engine string `json:"engine"`
	Rank   int    `json:"rank"`
	Iter   int    `json:"iter"`
	// Fit is omitted (not zero) when no iteration ever computed one — a
	// NaN fit cannot be JSON-marshaled and a fake 0 would be misleading.
	Fit       *float64 `json:"fit,omitempty"`
	FitDelta  float64  `json:"fit_delta"`
	ElapsedMS int64    `json:"elapsed_ms"`
	MTTKRPMS  int64    `json:"mttkrp_ms"`
	Done      bool     `json:"done"`
	Converged bool     `json:"converged"`
	// Audit carries the model-audit decision and reconciliation in the final
	// snapshot of an audited run.
	Audit *adatm.AuditRecord `json:"audit,omitempty"`
	// Health carries the final numerical-health verdict of a -health run.
	Health *adatm.HealthSummary `json:"health,omitempty"`
}

// finiteFitPtr boxes a fit for JSON output, mapping NaN (a run stopped
// before its first fit computation) to nil/omitted — encoding/json cannot
// marshal NaN.
func finiteFitPtr(fit float64) *float64 {
	if math.IsNaN(fit) {
		return nil
	}
	return &fit
}

// setupObs builds the tracer/registry/server/audit-recorder requested by the
// flags. Any feature may be absent; a nil *obsState (no flags set) disables
// everything.
func setupObs(cfg obsConfig) (*obsState, error) {
	if !cfg.enabled() {
		return nil, nil
	}
	o := &obsState{tracePath: cfg.tracePath, hold: cfg.hold, started: time.Now()}
	if cfg.tracePath != "" {
		o.tracer = adatm.NewTracer(0)
		o.tracer.SetTrackName(0, "main")
		w := cfg.workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		for i := 1; i <= w; i++ {
			o.tracer.SetTrackName(int32(i), fmt.Sprintf("worker %d", i))
		}
		adatm.TraceChunks(o.tracer)
	}
	if cfg.listen != "" {
		o.metrics = adatm.NewMetrics()
		obs.RegisterRuntimeMetrics(o.metrics)
		srv, err := adatm.ServeDebug(cfg.listen, o.metrics)
		if err != nil {
			return nil, fmt.Errorf("debug server: %w", err)
		}
		o.server = srv
		o.metrics.PublishExpvar("adatm")
		// Background resource sampler behind /timeseries: heap, GC pauses,
		// and goroutine count over the run's lifetime.
		o.sampler = obs.NewSampler(0, 0)
		o.sampler.Start()
		srv.SetSampler(o.sampler)
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s\n", srv.Addr())
	}
	if cfg.wantAudit() {
		if err := o.setupAudit(cfg); err != nil {
			o.closeFiles()
			if o.server != nil {
				o.server.Close()
			}
			return nil, err
		}
	}
	if cfg.wantHealth() {
		// Built after the audit recorder so the probe's health.state events
		// land in the same ledger/log sinks as the model-audit records.
		o.iterLog = adatm.NewIterLog(0)
		o.health = adatm.NewHealthProbe(adatm.HealthConfig{
			Metrics: o.metrics, Audit: o.audit, Log: o.iterLog,
		})
		o.healthPath = cfg.healthFile
		if o.server != nil {
			o.server.SetIterLog(o.iterLog)
		}
	}
	return o, nil
}

// setupAudit wires the model-audit recorder: JSON logger (stderr or -logfile),
// JSONL ledger (-auditfile), the metrics registry, and the /plan publisher.
func (o *obsState) setupAudit(cfg obsConfig) error {
	acfg := adatm.AuditConfig{WarnThreshold: cfg.auditWarn, Metrics: o.metrics}
	if cfg.logJSON || cfg.logFile != "" {
		dest := io.Writer(os.Stderr)
		if cfg.logFile != "" {
			f, err := os.Create(cfg.logFile)
			if err != nil {
				return fmt.Errorf("logfile: %w", err)
			}
			o.logFile = f
			dest = f
		}
		acfg.Logger = slog.New(slog.NewJSONHandler(dest, nil))
	}
	if cfg.auditFile != "" {
		f, err := os.Create(cfg.auditFile)
		if err != nil {
			return fmt.Errorf("auditfile: %w", err)
		}
		o.auditFile = f
		acfg.Ledger = f
	}
	if srv := o.server; srv != nil {
		acfg.OnUpdate = func(rec adatm.AuditRecord) { srv.SetPlan(rec) }
	}
	o.audit = adatm.NewAuditRecorder(acfg)
	return nil
}

// options fills the Tracer/Metrics/Audit fields of opt.
func (o *obsState) options(opt *adatm.Options) {
	if o == nil {
		return
	}
	opt.Tracer = o.tracer
	opt.Metrics = o.metrics
	opt.Audit = o.audit
	opt.Health = o.health
}

// distOptions fills the Metrics/Audit fields of a sharded run's options.
func (o *obsState) distOptions(opt *adatm.DistOptions) {
	if o == nil {
		return
	}
	opt.Metrics = o.metrics
	opt.Audit = o.audit
}

// healthSummary returns the run's final health verdict, or nil when no
// probe was wired.
func (o *obsState) healthSummary() *adatm.HealthSummary {
	if o == nil || o.health == nil {
		return nil
	}
	s := o.health.Summary()
	return &s
}

// latestAudit returns the run's audit record, or nil when no decision was
// recorded (no recorder, or a non-adaptive engine ran).
func (o *obsState) latestAudit() *adatm.AuditRecord {
	if o == nil || o.audit == nil {
		return nil
	}
	rec := o.audit.Latest()
	if rec.Decision == nil {
		return nil
	}
	return &rec
}

// progress wraps the per-iteration callback so /run always serves a live
// snapshot, chaining to inner (which may be nil).
func (o *obsState) progress(engName string, rank int, inner func(adatm.IterStats) bool) func(adatm.IterStats) bool {
	if o == nil || o.server == nil {
		return inner
	}
	return func(s adatm.IterStats) bool {
		o.server.SetRun(runSnapshot{
			Engine: engName, Rank: rank, Iter: s.Iter, Fit: finiteFitPtr(s.Fit), FitDelta: s.FitDelta,
			ElapsedMS: s.Elapsed.Milliseconds(), MTTKRPMS: s.MTTKRPTime.Milliseconds(),
		})
		if inner != nil {
			return inner(s)
		}
		return true
	}
}

// finish writes the Chrome trace file, publishes the final /run snapshot,
// optionally holds the debug server open until SIGINT/SIGTERM, shuts the
// server down, and closes the audit/log files. Idempotent and safe on a nil
// receiver. A nil result marks an error exit: the trace is still flushed
// (failed runs are exactly the ones worth tracing) but -hold is skipped so
// scripted runs don't hang on failure.
func (o *obsState) finish(engName string, rank int, res *adatm.Result) {
	if o == nil || o.done {
		return
	}
	o.done = true
	// Seal the iteration stream first so /iters?follow=1 clients terminate
	// (the snapshot stays served through any -hold window), then dump the
	// retained history to -healthfile — on error exits too, since a sick
	// run's trajectory is exactly what the file is for.
	o.iterLog.Close()
	if o.healthPath != "" && o.iterLog != nil {
		if err := writeIterLog(o.healthPath, o.iterLog); err != nil {
			fmt.Fprintln(os.Stderr, "cpd: healthfile:", err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %d health samples to %s\n", o.iterLog.Seq(), o.healthPath)
		}
	}
	if o.tracer != nil {
		adatm.TraceChunks(nil)
		if err := writeTraceFile(o.tracePath, o.tracer); err != nil {
			fmt.Fprintln(os.Stderr, "cpd: trace export:", err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (load in Perfetto)\n", o.tracer.Len(), o.tracePath)
		}
	}
	if o.server != nil {
		if res != nil {
			o.server.SetRun(runSnapshot{
				Engine: engName, Rank: rank, Iter: res.Iters, Fit: finiteFitPtr(res.Fit),
				ElapsedMS: time.Since(o.started).Milliseconds(), MTTKRPMS: res.MTTKRPTime.Milliseconds(),
				Done: true, Converged: res.Converged,
				Audit:  o.latestAudit(),
				Health: o.healthSummary(),
			})
		}
		if o.hold && res != nil {
			fmt.Fprintf(os.Stderr, "run finished; holding debug server on http://%s (interrupt to exit)\n", o.server.Addr())
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			<-ch
		}
		// Stop after -hold so /timeseries keeps sampling while held.
		o.sampler.Stop()
		o.server.Close()
	}
	o.closeFiles()
}

// closeFiles closes the -auditfile and -logfile handles (nil-safe).
func (o *obsState) closeFiles() {
	if o.auditFile != nil {
		o.auditFile.Close()
		o.auditFile = nil
	}
	if o.logFile != nil {
		o.logFile.Close()
		o.logFile = nil
	}
}

// writeIterLog dumps the retained iteration-health history as JSONL, one
// IterSample per line (the same schema the /iters stream serves).
func writeIterLog(path string, l *adatm.IterLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.Snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func writeTraceFile(path string, tr *adatm.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
