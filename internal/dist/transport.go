package dist

import (
	"errors"
	"fmt"
	"sync"
)

// MsgKind labels the protocol phase a Message belongs to. The distributed
// ALS loop (see run.go) exchanges four kinds of traffic: fold partials
// (touching process → row owner), expand updates (row owner → touching
// process), reduce partials (every process → process 0), and broadcast
// results (process 0 → every process).
type MsgKind uint8

const (
	MsgFold MsgKind = iota
	MsgExpand
	MsgReduce
	MsgBcast
)

func (k MsgKind) String() string {
	switch k {
	case MsgFold:
		return "fold"
	case MsgExpand:
		return "expand"
	case MsgReduce:
		return "reduce"
	case MsgBcast:
		return "bcast"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Reduce/broadcast phase tags (Message.Tag): one mode step performs two
// all-reduces (column sums-of-squares, then the partial Gram matrix) and
// each iteration ends with a scalar fit reduce. The tag disambiguates them
// so selective receive never depends on arrival order.
const (
	TagNorm uint8 = iota
	TagGram
	TagFit
)

// Message is one unit of protocol traffic. Rows names the factor-matrix
// rows the payload covers (fold/expand); Data is the row-major payload
// (len(Rows)×rank values for fold/expand, a flat vector for reduce/bcast).
// Mode is −1 for iteration-scoped phases (the fit reduce).
type Message struct {
	From, To int
	Kind     MsgKind
	Tag      uint8
	Mode     int
	Iter     int
	Rows     []int32
	Data     []float64
}

// ErrClosed is returned by Send/Recv once the transport has been closed —
// either explicitly or because a peer aborted the run.
var ErrClosed = errors.New("dist: transport closed")

// Transport moves Messages between the P processes of a cluster. Send
// blocks until the message is durably handed to the destination (for the
// TCP transport: acknowledged, possibly after retries); Recv blocks until
// a message for proc arrives or the transport closes. Implementations must
// preserve per-(sender,receiver) FIFO order for delivered messages and
// deliver each accepted message exactly once — the solver's determinism
// argument (DESIGN.md §2j) builds on those two guarantees. Send must be
// done with m's buffers when it returns: the sender reuses them.
type Transport interface {
	// Name identifies the implementation ("chan", "tcp") for metrics labels.
	Name() string
	// P returns the number of processes the transport connects.
	P() int
	Send(m *Message) error
	Recv(proc int) (*Message, error)
	Close() error
}

// mailbox is an unbounded FIFO queue with blocking receive. Unbounded is a
// correctness requirement, not a convenience: the SPMD protocol has phases
// where every process sends before any receives, so a bounded queue could
// deadlock the send side.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*Message
	closed bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m *Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.q = append(b.q, m)
	b.cond.Signal()
	return nil
}

func (b *mailbox) get() (*Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.q) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.q) == 0 {
		return nil, ErrClosed
	}
	m := b.q[0]
	b.q[0] = nil
	b.q = b.q[1:]
	return m, nil
}

// close wakes every blocked get and drops any queued messages: after
// close, get returns ErrClosed immediately. An aborting run must unblock
// fast, not replay stale traffic.
func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.q = nil
	b.cond.Broadcast()
	b.mu.Unlock()
}

// ChanTransport is the deterministic in-process transport: one unbounded
// mailbox per process, Send copies the payload (no memory sharing between
// sender and receiver, mirroring real network semantics). Delivery is
// immediate and loss-free.
type ChanTransport struct {
	boxes []*mailbox
	once  sync.Once
}

// NewChanTransport builds an in-process transport connecting p processes.
func NewChanTransport(p int) *ChanTransport {
	if p <= 0 {
		p = 1
	}
	t := &ChanTransport{boxes: make([]*mailbox, p)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

func (t *ChanTransport) Name() string { return "chan" }
func (t *ChanTransport) P() int       { return len(t.boxes) }

func (t *ChanTransport) Send(m *Message) error {
	if m.To < 0 || m.To >= len(t.boxes) {
		return fmt.Errorf("dist: send to invalid process %d (P=%d)", m.To, len(t.boxes))
	}
	// Deep-copy the payload: the sender is free to reuse its buffers the
	// moment Send returns, exactly as with a real wire.
	c := *m
	if len(m.Rows) > 0 {
		c.Rows = append([]int32(nil), m.Rows...)
	}
	if len(m.Data) > 0 {
		c.Data = append([]float64(nil), m.Data...)
	}
	return t.boxes[m.To].put(&c)
}

func (t *ChanTransport) Recv(proc int) (*Message, error) {
	if proc < 0 || proc >= len(t.boxes) {
		return nil, fmt.Errorf("dist: recv on invalid process %d (P=%d)", proc, len(t.boxes))
	}
	return t.boxes[proc].get()
}

func (t *ChanTransport) Close() error {
	t.once.Do(func() {
		for _, b := range t.boxes {
			b.close()
		}
	})
	return nil
}
