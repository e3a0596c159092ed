package perf

import (
	"runtime"
	"testing"
)

// Every benchmark result carries this fingerprint, so each field must be
// filled from the running process.
func TestFingerprint(t *testing.T) {
	e := Fingerprint()
	if e.OS != runtime.GOOS || e.Arch != runtime.GOARCH {
		t.Errorf("os/arch = %s/%s, want %s/%s", e.OS, e.Arch, runtime.GOOS, runtime.GOARCH)
	}
	if e.CPUs != runtime.NumCPU() || e.CPUs <= 0 {
		t.Errorf("cpus = %d, want %d", e.CPUs, runtime.NumCPU())
	}
	if e.MaxProcs != runtime.GOMAXPROCS(0) || e.MaxProcs <= 0 {
		t.Errorf("maxprocs = %d, want %d", e.MaxProcs, runtime.GOMAXPROCS(0))
	}
	if e.GoVersion != runtime.Version() || e.GoVersion == "" {
		t.Errorf("go version = %q, want %q", e.GoVersion, runtime.Version())
	}
	if e.Revision == "" {
		t.Error("revision is empty, want a VCS revision or \"unknown\"")
	}
}
