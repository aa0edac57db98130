package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository root
// equal to what the metric tables render, and inside the limits the
// benchmark contract sets on names, units and reasons.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the tables in defs.go; regenerate it with: go run ./bench -print-benchmark-json > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the allowed form", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		if d.Home == "" || d.Moves == "" {
			t.Errorf("per-layer metric %s must name its home workloads and what it moves", d.Name)
		}
	}
}

// TestQuickRun drives the whole benchmark at -quick size, every workload
// untraced and traced through the same code as a real run, so the benchmark
// itself cannot rot. It builds and spawns the real inspectord.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns inspectord")
	}
	if code := run([]string{"-all", "-quick", "-seconds", "0.3", "-seed", "5"}); code != 0 {
		t.Fatalf("bench -all -quick exited %d", code)
	}
	root, _ := moduleRoot()
	out := filepath.Join(root, "bench", "out")
	data, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Host      hostInfo                   `json:"host"`
		Workloads map[string]*workloadResult `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Host.Quick || doc.Host.NProc < 1 || doc.Host.GoVersion == "" {
		t.Errorf("host metadata incomplete: %+v", doc.Host)
	}
	for _, w := range workloads {
		r := doc.Workloads[w.Name]
		if r == nil {
			t.Errorf("%s missing from result.json", w.Name)
			continue
		}
		if r.Failed != 0 || r.Attempted < 1 || len(r.EndToEnd) != len(endToEnd) || len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d attempted, %d failed, %d end-to-end and %d per-layer metrics; failures %v",
				w.Name, r.Attempted, r.Failed, len(r.EndToEnd), len(r.PerLayer), r.Failures)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// Teardown: no run directory and no daemon left behind.
	if left, _ := filepath.Glob(filepath.Join(out, "run-*")); len(left) != 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}
