package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileWithinLimits(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, specs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
	}
}

// TestQuickRunsEmitEveryMetric runs all four workloads at the -quick size,
// untraced and traced, and requires each run to emit every metric
// BENCHMARK.json names for that mode exactly once with its unit, no other
// metric, no failed op, and a passing output check.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	endToEnd, perLayer := make(map[string]string), make(map[string]string)
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	// The run writes under .bench_build in the current directory.
	dir := t.TempDir()
	t.Chdir(dir)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			rep, err := run(&out, options{workload: w.Name, seed: 3, seconds: 1, quick: true, trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: output check failed: %v", w.Name, traced, rep.CheckErr)
			}
			for k := range rep.Attempted {
				if rep.Failed[k] != 0 {
					t.Errorf("%s traced=%v: %d of %d %s ops failed", w.Name, traced, rep.Failed[k], rep.Attempted[k], opKind(k))
				}
			}
			want, got := endToEnd, rep.EndToEnd
			if traced {
				want, got = perLayer, rep.PerLayer
			}
			emitted := make(map[string]bool)
			for _, m := range got {
				if emitted[m.Name] {
					t.Errorf("%s traced=%v: %s emitted twice", w.Name, traced, m.Name)
				}
				emitted[m.Name] = true
				if unit, ok := want[m.Name]; !ok {
					t.Errorf("%s traced=%v: emits %s, which BENCHMARK.json does not name", w.Name, traced, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, m.Unit, unit)
				}
			}
			for n := range want {
				if !emitted[n] {
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, n)
				}
			}
			if !traced {
				for _, m := range got {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, m.Value)
					}
				}
			}
			// The last line is the object the driver parses.
			var buf bytes.Buffer
			if err := writeResultLine(&buf, rep); err != nil {
				t.Fatal(err)
			}
			line, err := lastLine(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(want) || line.Attempted < 1 || !line.Correct {
				t.Errorf("%s traced=%v: result line has %d metrics (want %d), attempted %d, correct %v",
					w.Name, traced, len(line.Metrics), len(want), line.Attempted, line.Correct)
			}
		}
	}
}
