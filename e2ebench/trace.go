package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"adatm/internal/dense"
	"adatm/internal/dist"
	"adatm/internal/engine"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span whose call caused this one (-1 for the op's root).
// Spans recorded on a simulated process's goroutine carry Proc >= 0 and a
// weight of 1/P, so that summing weighted durations of concurrent children
// gives a wall-clock equivalent instead of P times it.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Proc   int     `json:"proc"`
	Mode   int     `json:"mode"`
	Weight float64 `json:"w"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// layer is the name up to the first dot: "engine.mttkrp" → "engine".
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps every span in memory; they are written out once, when the
// run ends. open/close take a lock because the simulated processes of the
// sharded solver record spans concurrently.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) open(op, parent int, name string) int {
	return r.openProc(op, parent, name, -1, -1, 1)
}

func (r *recorder) openProc(op, parent int, name string, proc, mode int, w float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Proc: proc, Mode: mode, Weight: w,
		Start: time.Since(r.epoch).Nanoseconds()})
	return id
}

func (r *recorder) close(id int) {
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// opSpans returns the spans of one op, root first.
func (r *recorder) opSpans(op int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every recorded span, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opProfile is the layer breakdown of one traced op.
type opProfile struct {
	wall float64 // root span duration
	// total[name] sums weighted span durations by span name; self[layer]
	// sums weighted self times (duration minus the weighted children) by
	// layer, excluding the root.
	total map[string]float64
	self  map[string]float64
	// modeTotal[m] is the weighted engine.mttkrp time for mode m;
	// procTotal[p] the unweighted engine.mttkrp time on process p.
	modeTotal map[int]float64
	procTotal map[int]float64
}

func profile(spans []span) opProfile {
	p := opProfile{total: map[string]float64{}, self: map[string]float64{},
		modeTotal: map[int]float64{}, procTotal: map[int]float64{}}
	children := make(map[int]float64)
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 {
			children[s.Parent] += s.dur() * s.Weight
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 {
			p.wall = s.dur()
			continue
		}
		p.total[s.Name] += s.dur() * s.Weight
		p.self[s.layer()] += (s.dur() - children[s.ID]) * s.Weight
		if s.Name == "engine.mttkrp" {
			p.modeTotal[s.Mode] += s.dur() * s.Weight
			if s.Proc >= 0 {
				p.procTotal[s.Proc] += s.dur()
			}
		}
	}
	return p
}

// tracedEngine times each MTTKRP call of the engine it wraps as an
// engine.mttkrp span under the span set in parent. Everything else passes
// through unchanged.
type tracedEngine struct {
	engine.Engine
	rec        *recorder
	op, parent int
	proc       int
	weight     float64
}

func (e *tracedEngine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	id := e.rec.openProc(e.op, e.parent, "engine.mttkrp", e.proc, mode, e.weight)
	err := e.Engine.MTTKRP(mode, factors, out)
	e.rec.close(id)
	return err
}

// tracedTransport times Send and Recv of the transport it wraps, attributed
// to the sending and receiving process, and counts messages and payload
// bytes by kind. The counters are only read after the run has joined.
type tracedTransport struct {
	dist.Transport
	rec        *recorder
	op, parent int
	weight     float64

	mu                      sync.Mutex
	msgs                    int64
	foldB, expandB, reduceB int64
}

func (t *tracedTransport) Send(m *dist.Message) error {
	id := t.rec.openProc(t.op, t.parent, "dist.send", m.From, m.Mode, t.weight)
	b := int64(len(m.Data)) * 8
	t.mu.Lock()
	t.msgs++
	switch m.Kind {
	case dist.MsgFold:
		t.foldB += b
	case dist.MsgExpand:
		t.expandB += b
	default:
		t.reduceB += b
	}
	t.mu.Unlock()
	err := t.Transport.Send(m)
	t.rec.close(id)
	return err
}

func (t *tracedTransport) Recv(proc int) (*dist.Message, error) {
	id := t.rec.openProc(t.op, t.parent, "dist.recv", proc, -1, t.weight)
	m, err := t.Transport.Recv(proc)
	t.rec.close(id)
	return m, err
}
