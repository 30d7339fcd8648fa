package loadgen

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func f64(v float64) *float64 { return &v }

// TestSLOEvaluation covers the gate arithmetic: within-budget passes,
// each dimension violates independently, nil dimensions are ignored.
func TestSLOEvaluation(t *testing.T) {
	rep := &LoadReport{
		Requests: 200,
		Errors:   1,
		P99:      40 * time.Millisecond,
		WriteP99: 900 * time.Millisecond,
	}
	ok := rep.SLO(SLOBudget{ReadP99Ms: f64(50), WriteP99Ms: f64(1000), ErrorRate: f64(0.01)})
	if !ok.Pass || len(ok.Violations) != 0 {
		t.Errorf("within-budget run failed: %+v", ok)
	}
	if ok.ReadP99Ms != 40 || ok.WriteP99Ms != 900 || ok.ErrorRate != 0.005 {
		t.Errorf("measured values wrong: %+v", ok)
	}

	bad := rep.SLO(SLOBudget{ReadP99Ms: f64(39.9), WriteP99Ms: f64(899), ErrorRate: f64(0)})
	if bad.Pass || len(bad.Violations) != 3 {
		t.Errorf("over-budget run passed: %+v", bad)
	}

	// Nil dimensions stay unchecked: a read-only budget ignores writes.
	readOnly := rep.SLO(SLOBudget{ReadP99Ms: f64(50)})
	if !readOnly.Pass {
		t.Errorf("read-only budget flagged write latency: %+v", readOnly)
	}
	if rep.SLO(SLOBudget{}).Pass != true {
		t.Error("empty budget must pass")
	}
}

// TestLoadSLOBudget round-trips the committed SLO.json shape and
// rejects unknown keys (a typoed budget must not silently un-gate CI).
func TestLoadSLOBudget(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "SLO.json")
	if err := os.WriteFile(good, []byte(`{"read_p99_ms": 250, "write_p99_ms": 5000, "error_rate": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadSLOBudget(good)
	if err != nil {
		t.Fatal(err)
	}
	if b.ReadP99Ms == nil || *b.ReadP99Ms != 250 || b.WriteP99Ms == nil || *b.WriteP99Ms != 5000 ||
		b.ErrorRate == nil || *b.ErrorRate != 0 {
		t.Errorf("budget decoded wrong: %+v", b)
	}
	if b.Empty() {
		t.Error("populated budget reported Empty")
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"read_p99_msec": 250}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSLOBudget(bad); err == nil {
		t.Error("unknown budget key accepted")
	}

	// The committed repo budget must itself parse and be non-empty.
	repoBudget, err := LoadSLOBudget("../../SLO.json")
	if err != nil {
		t.Fatalf("committed SLO.json: %v", err)
	}
	if repoBudget.Empty() {
		t.Error("committed SLO.json budgets nothing")
	}
}

// TestRunLoadDuration: a Duration keeps the load replaying past Repeat
// and the report carries the scraped /metrics (so the exposition
// format parsed).
func TestRunLoadDuration(t *testing.T) {
	rep, err := RunLoad(LoadConfig{
		BaseURLs: []string{gridServerURL(t, 8, 8, 4, 256)},
		Requests: 5,
		Parallel: 2,
		Nodes:    64,
		Repeat:   1,
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes < 2 {
		t.Errorf("duration run made %d passes, want > 1", rep.Passes)
	}
	if rep.Requests != 5*rep.Passes {
		t.Errorf("requests = %d, want %d", rep.Requests, 5*rep.Passes)
	}
	if rep.Mismatches != 0 || rep.Errors != 0 {
		t.Errorf("replay oracle tripped under duration mode: %+v", rep)
	}
	if len(rep.Metrics) < 10 {
		t.Errorf("report scraped %d metric series, want >= 10", len(rep.Metrics))
	}
	if rep.Metrics["tc_legcache_hits_total"] <= 0 {
		t.Errorf("scrape shows no cache hits after replay passes")
	}
}
