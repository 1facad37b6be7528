package bench

import (
	"strings"
	"testing"
	"time"
)

// tinyRunner runs every experiment end to end at miniature scale — the
// smoke test that keeps the whole harness wired.
func tinyRunner(t testing.TB) (*Runner, *strings.Builder) {
	t.Helper()
	var sb strings.Builder
	r := NewRunner(Config{
		Scale:              0.02,
		K:                  5,
		Alpha:              0.8,
		Partitions:         2,
		Workers:            2,
		QueriesPerInterval: 2,
		Timeout:            30 * time.Second,
	}, &sb)
	return r, &sb
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	r, sb := tinyRunner(t)
	for _, exp := range Experiments() {
		if err := r.Run(exp); err != nil {
			t.Fatalf("experiment %s: %v", exp, err)
		}
	}
	out := sb.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV", "Table V",
		"Fig. 5a", "Fig. 5b,c", "Fig. 5d", "Fig. 6a", "Fig. 7a",
		"Fig. 7b", "Fig. 7c", "Fig. 7d", "Fig. 8", "SilkMoth", "Ablation",
		"restart/recovery", "results identical ✓",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	// Table I rows must carry the four dataset names.
	for _, kind := range []string{"dblp", "opendata", "twitter", "wdc"} {
		if !strings.Contains(out, kind) {
			t.Fatalf("output missing dataset %q", kind)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	r, _ := tinyRunner(t)
	if err := r.Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestKnownExperiments(t *testing.T) {
	for _, e := range Experiments() {
		if !Known(e) {
			t.Fatalf("listed experiment %q not Known", e)
		}
	}
	if Known("bogus") || Known("all") {
		t.Fatal("Known accepted a non-experiment name")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != 1 || cfg.K != 10 || cfg.Alpha != 0.8 || cfg.Partitions != 10 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestHelpers(t *testing.T) {
	if avgInt(nil) != 0 || avgFloat(nil) != 0 || avgDuration(nil) != 0 {
		t.Fatal("empty averages not 0")
	}
	if avgInt([]int{1, 2, 3}) != 2 {
		t.Fatal("avgInt wrong")
	}
	if avgFloat([]float64{1, 3}) != 2 {
		t.Fatal("avgFloat wrong")
	}
	if avgDuration([]time.Duration{time.Second, 3 * time.Second}) != 2*time.Second {
		t.Fatal("avgDuration wrong")
	}
	if mb(1<<20) != 1 {
		t.Fatal("mb wrong")
	}
}
