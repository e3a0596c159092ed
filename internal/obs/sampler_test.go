package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestSamplerRecordsAndStops(t *testing.T) {
	s := NewSampler(time.Millisecond, 64)
	s.Start()
	// Start records an immediate sample, so even a zero-length window has one.
	if got := len(s.Snapshot()); got < 1 {
		t.Fatalf("no immediate sample after Start (got %d)", got)
	}
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	samples := s.Snapshot()
	if len(samples) < 2 {
		t.Fatalf("got %d samples after 20ms at 1ms cadence, want >= 2", len(samples))
	}
	for i, sm := range samples {
		if sm.UnixNano == 0 {
			t.Fatalf("sample %d has zero timestamp", i)
		}
		if sm.HeapAllocBytes == 0 {
			t.Fatalf("sample %d has zero heap", i)
		}
		if i > 0 && sm.UnixNano < samples[i-1].UnixNano {
			t.Fatalf("samples not chronological at %d", i)
		}
	}
	n := len(samples)
	time.Sleep(5 * time.Millisecond)
	if got := len(s.Snapshot()); got != n {
		t.Fatalf("sampler still recording after Stop: %d -> %d", n, got)
	}
	s.Stop() // idempotent
}

func TestSamplerRingWraps(t *testing.T) {
	s := NewSampler(time.Hour, 4) // manual records only
	for i := 0; i < 10; i++ {
		s.record()
	}
	got := s.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring kept %d samples, want capacity 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].UnixNano < got[i-1].UnixNano {
			t.Fatalf("wrapped ring not chronological at %d", i)
		}
	}
}

func TestSamplerSnapshot(t *testing.T) {
	s := NewSampler(time.Hour, 16)
	s.record()
	s.record()
	s.record()
	if got := len(s.Snapshot()); got != 3 {
		t.Fatalf("Snapshot returned %d samples, want 3", got)
	}
}

func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	if s.Snapshot() != nil || s.Interval() != 0 {
		t.Fatal("nil sampler must no-op")
	}
}

func TestSamplerStopBeforeStart(t *testing.T) {
	s := NewSampler(time.Millisecond, 8)
	s.Stop()
	s.Start() // must not launch after Stop
	time.Sleep(5 * time.Millisecond)
	if got := len(s.Snapshot()); got != 0 {
		t.Fatalf("stopped-before-start sampler recorded %d samples", got)
	}
}

// TestTimeseriesEndpoint checks the /timeseries envelope with and without an
// attached sampler.
func TestTimeseriesEndpoint(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() timeseriesPayload {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/timeseries")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var p timeseriesPayload
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("invalid /timeseries JSON: %v\n%s", err, body)
		}
		return p
	}

	// No sampler attached: empty but well-formed.
	if p := get(); len(p.Samples) != 0 || p.IntervalNS != 0 {
		t.Fatalf("detached /timeseries = %+v, want empty", p)
	}

	s := NewSampler(time.Millisecond, 128)
	s.Start()
	defer s.Stop()
	srv.SetSampler(s)
	time.Sleep(10 * time.Millisecond)

	p := get()
	if p.IntervalNS != int64(time.Millisecond) {
		t.Fatalf("interval_ns = %d, want %d", p.IntervalNS, time.Millisecond)
	}
	if len(p.Samples) < 2 {
		t.Fatalf("got %d timeline samples, want >= 2", len(p.Samples))
	}
	if p.Samples[0].HeapAllocBytes == 0 || p.Samples[0].Goroutines == 0 {
		t.Fatalf("timeline sample missing fields: %+v", p.Samples[0])
	}
}

// TestTimeseriesRace hammers /timeseries from many goroutines while the
// sampler records and is swapped in and out — run under -race alongside the
// other server tests, this pins the Sampler/Server handoff as data-race
// free.
func TestTimeseriesRace(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	s := NewSampler(time.Millisecond, 64)
	s.Start()
	defer s.Stop()
	srv.SetSampler(s)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + srv.Addr() + "/timeseries")
				if err != nil {
					continue // server shutting down
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	// Direct snapshot readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Snapshot()
			}
		}
	}()
	// Attach/detach churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				srv.SetSampler(nil)
			} else {
				srv.SetSampler(s)
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// ExampleSampler documents the timeline lifecycle.
func ExampleSampler() {
	s := NewSampler(10*time.Millisecond, 256)
	s.Start()
	// ... workload ...
	s.Stop()
	fmt.Println(len(s.Snapshot()) > 0)
	// Output: true
}
