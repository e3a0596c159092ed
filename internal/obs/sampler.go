package obs

import (
	"runtime"
	"sync"
	"time"
)

// ResourceSample is one point of the background resource timeline: the
// process's heap footprint, cumulative GC activity, and goroutine count at
// an instant. Samples are small and fixed-size so a long-lived ring stays
// cheap; rates (GC pauses per second, heap growth) are derived by the
// consumer from consecutive samples.
type ResourceSample struct {
	UnixNano       int64  `json:"t"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
	NumGC          uint32 `json:"num_gc"`
	Goroutines     int    `json:"goroutines"`
}

// Default sampler cadence and ring capacity: 100 ms × 4096 samples ≈ seven
// minutes of timeline, enough to cover a long run or explain a noisy
// window post hoc without unbounded growth.
const (
	defaultSampleInterval = 100 * time.Millisecond
	defaultSamplerCap     = 4096
)

// Sampler records a ring-buffered timeline of process resource samples on a
// fixed cadence in a background goroutine. It exists to explain performance
// measurements after the fact: a slow stretch of a run that coincided with a
// GC cycle or a goroutine spike is visible in the timeline window that
// brackets it (see the /timeseries endpoint).
//
// A nil *Sampler is valid: every method no-ops.
type Sampler struct {
	interval time.Duration

	mu    sync.Mutex
	buf   []ResourceSample // ring storage
	n     int              // total samples ever written
	stop  chan struct{}
	done  chan struct{}
	state int // 0 new, 1 started, 2 stopped
}

// NewSampler builds a sampler with the given cadence and ring capacity
// (<= 0 selects the defaults: 100 ms, 4096 samples).
func NewSampler(interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = defaultSampleInterval
	}
	if capacity <= 0 {
		capacity = defaultSamplerCap
	}
	return &Sampler{
		interval: interval,
		buf:      make([]ResourceSample, capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the sampling cadence.
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Start launches the background sampling goroutine and records an immediate
// first sample, so even a window shorter than one interval has data. Start
// is idempotent; starting a stopped sampler is a no-op.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.state != 0 {
		s.mu.Unlock()
		return
	}
	s.state = 1
	s.mu.Unlock()
	s.record()
	go s.loop()
}

// Stop halts the background goroutine and waits for it to exit. Idempotent;
// safe on a sampler that was never started.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	switch s.state {
	case 0:
		s.state = 2
		s.mu.Unlock()
		return
	case 2:
		s.mu.Unlock()
		<-s.done
		return
	}
	s.state = 2
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			s.record() // final sample closes the timeline at the stop instant
			return
		case <-t.C:
			s.record()
		}
	}
}

// record appends one sample to the ring. ReadMemStats stops the world
// briefly; at the default 100 ms cadence that overhead is ~negligible and,
// critically, identical for every bench scenario it runs alongside.
func (s *Sampler) record() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := ResourceSample{
		UnixNano:       time.Now().UnixNano(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		GCPauseTotalNS: ms.PauseTotalNs,
		NumGC:          ms.NumGC,
		Goroutines:     runtime.NumGoroutine(),
	}
	s.mu.Lock()
	s.buf[s.n%len(s.buf)] = sample
	s.n++
	s.mu.Unlock()
}

// Snapshot returns the retained samples in chronological order.
func (s *Sampler) Snapshot() []ResourceSample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	size := len(s.buf)
	start := 0
	if n > size {
		start = n - size
	}
	out := make([]ResourceSample, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, s.buf[i%size])
	}
	return out
}
