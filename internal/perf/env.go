// Package perf holds the environment fingerprint that e2ebench stamps on
// every benchmark result, so two measurements can be told apart by the
// machine and toolchain that produced them.
package perf

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Env is the environment fingerprint: the facts that make two measurements
// comparable (or explain why they aren't). A CPU or GOMAXPROCS change is the
// most common benign explanation for a wholesale shift.
type Env struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUModel  string `json:"cpu_model,omitempty"`
	CPUs      int    `json:"cpus"`
	MaxProcs  int    `json:"maxprocs"`
	GoVersion string `json:"go_version"`
	// Revision is the VCS revision of the binary when built from a checkout
	// ("unknown" under `go run` / `go test`, where build info has no VCS
	// stamp).
	Revision string `json:"revision"`
}

// Fingerprint captures the current process environment.
func Fingerprint() Env {
	e := Env{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUModel:  cpuModel(),
		CPUs:      runtime.NumCPU(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
		Revision:  "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				e.Revision = s.Value
			}
		}
	}
	return e
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux); other
// platforms report "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
