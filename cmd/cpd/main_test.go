package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adatm"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"":        0,
		"1024":    1024,
		"1KiB":    1 << 10,
		"512MiB":  512 << 20,
		"2GiB":    2 << 30,
		"1kb":     1000,
		"1.5MiB":  3 << 19,
		"0.5GiB":  1 << 29,
		" 10KiB ": 10 << 10,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("%q: got %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"abc", "12XB", "MiB"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestWriteMatrixAndVector(t *testing.T) {
	dir := t.TempDir()
	m := &adatm.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	mpath := filepath.Join(dir, "m.txt")
	if err := writeMatrix(mpath, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "1 2" || lines[1] != "3 4" {
		t.Errorf("matrix file: %q", string(data))
	}

	vpath := filepath.Join(dir, "v.txt")
	if err := writeVector(vpath, []float64{0.5, -1}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(vpath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "0.5\n-1" {
		t.Errorf("vector file: %q", string(data))
	}
}

// Every solver mode rejects the flags its code path never reads, naming the
// first one; standard CP-ALS reads them all.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		procs    int
		set      []string
		wantFlag string // "" = accepted
	}{
		{"apr drops outputs", 1, []string{"apr", "model", "json", "checkpoint", "health", "timeout"}, "-json"},
		{"complete drops model", 1, []string{"complete", "model", "nonneg", "health"}, "-model"},
		{"dist drops single-node flags", 2, []string{"procs", "budget", "progress", "accum"}, "-budget"},
		{"dist drops progress", 2, []string{"procs", "progress"}, "-progress"},
		{"dist drops accum", 2, []string{"procs", "accum"}, "-accum"},
		{"apr drops complete", 1, []string{"apr", "complete"}, "-complete"},
		{"dist drops apr", 2, []string{"procs", "apr"}, "-apr"},
		{"dist drops checkpoint", 2, []string{"procs", "checkpoint"}, "-checkpoint"},
		{"apr accepts its options", 1, []string{"apr", "rank", "iters", "tol", "seed", "workers", "fittrace", "out", "pprof"}, ""},
		{"complete accepts ridge", 1, []string{"complete", "rank", "ridge", "fittrace", "out", "runtimetrace"}, ""},
		{"dist accepts reporting", 2, []string{"procs", "engine", "partition", "transport", "json", "model", "listen", "hold", "auditfile", "tracefile"}, ""},
		{"cp-als accepts everything", 1, []string{"budget", "accum", "json", "model", "checkpoint", "health", "timeout", "progress", "nonneg", "ridge"}, ""},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range c.set {
			set[f] = true
		}
		err := checkFlags(solverMode(c.procs, set["apr"], set["complete"]), set)
		switch {
		case c.wantFlag == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantFlag != "" && err == nil:
			t.Errorf("%s: accepted, want %s rejected", c.name, c.wantFlag)
		case c.wantFlag != "" && !strings.HasPrefix(err.Error(), c.wantFlag+" "):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.wantFlag)
		}
	}
}
