package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The smoke test runs every workload the harness knows — those
// BENCHMARK.json declares and those run by hand — at tiny scale, both
// trace modes, and holds the output to what BENCHMARK.json declares.
func TestSmokeTiny(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := run(config{workload: wl.name, seed: 7, seconds: 0.3, trace: trace, scale: "tiny", out: out, commit: "test"})
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d, want a clean run", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, d := range m.EndToEnd {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range m.PerLayer {
					want[d.Name] = d.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", wl.name, trace, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				got, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace %d: declared metric %s not emitted", wl.name, trace, n)
				case got.Unit != unit:
					t.Errorf("%s %s: unit %q, declared %q", wl.name, n, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s %s: value %v is not a number", wl.name, n, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s %s: end-to-end value %v, want > 0 on every workload", wl.name, n, got.Value)
				}
				if !name.MatchString(n) {
					t.Errorf("metric name %q is outside the manifest's alphabet", n)
				}
			}
			if trace == 1 {
				if res.Metrics["client.failed_share"].Value != 0 {
					t.Errorf("%s: client.failed_share = %v, want 0", wl.name, res.Metrics["client.failed_share"].Value)
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+wl.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", wl.name, err)
				}
			}
		}
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("run left the store directory %s behind", e.Name())
		}
	}
}

// What the code emits and what BENCHMARK.json declares are written
// twice; this keeps them the same.
func TestManifestMatchesCode(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("manifest workload: %v", err)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, code %d", len(m.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		if m.EndToEnd[i].metricDef != d {
			t.Errorf("end_to_end %d: manifest %+v, code %+v", i, m.EndToEnd[i].metricDef, d)
		}
		b := m.EndToEnd[i].Bound
		if b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, b)
		}
		maxBound = math.Max(maxBound, b)
		if d.Name == "setup_s" {
			setupBound = b
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v; it must have the largest (%v)", setupBound, maxBound)
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, code %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m.PerLayer[i] != d {
			t.Errorf("per_layer %d: manifest %+v, code %+v", i, m.PerLayer[i], d)
		}
	}
}

func opBodies(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	sc := scales["tiny"]
	g, sets, err := w.generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := w.fragmentGraph(sc, g, sets)
	if err != nil {
		t.Fatal(err)
	}
	lists := w.makeOps(sc, seed, fr)
	var buf bytes.Buffer
	for _, list := range [][]op{lists.warm, lists.timed, lists.probe} {
		for _, o := range list {
			buf.WriteString(o.path)
			buf.Write(o.body)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func TestOpListsFollowTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, again, other := opBodies(t, w, 3), opBodies(t, w, 3), opBodies(t, w, 4)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed gave two different op lists", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 3 and 4 gave the same op list", w.name)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"median odd", median([]float64{3, 1, 2}), 2},
		{"median even", median(ten), 5.5},
		{"median empty", median(nil), 0},
		{"p95 of ten is the largest", percentile(ten, 0.95), 10},
		{"p90 of ten", percentile(ten, 0.90), 9},
		{"p50 nearest rank", percentile(ten, 0.50), 5},
		{"p100", percentile(ten, 1), 10},
		{"p95 of 200 leaves ten beyond", percentile(seq(200), 0.95), 190},
		{"mean", mean(ten), 5.5},
	}
	for _, c := range cases {
		if !near(c.got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0].
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10: %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3}); !near(q1, 1) || !near(q3, 3) {
		t.Errorf("quartiles of 1..3: %v, %v; want 1, 3", q1, q3)
	}
	if s := spread(ten); !near(s, 1) {
		t.Errorf("spread of 1..10: %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestSelfTimes(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		// op 0: a 100us request holding a 70us handler holding two legs.
		{Name: "net", Op: 0, Parent: "", Start: 0, End: us(100), Speed: 1},
		{Name: "handler", Op: 0, Parent: "net", Start: us(200), End: us(270), Speed: 1},
		{Name: "leg", Op: 0, Parent: "handler", Start: us(300), End: us(320), Speed: 1},
		{Name: "leg", Op: 0, Parent: "handler", Start: us(320), End: us(350), Speed: 1},
		// op 1: no leg at all, and the handler's pass ran on a machine at
		// half speed: its 60us on the wall clock are 30us of reference time.
		{Name: "net", Op: 1, Parent: "", Start: us(400), End: us(440), Speed: 1},
		{Name: "handler", Op: 1, Parent: "net", Start: us(500), End: us(560), Speed: 0.5},
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"net":     {30, 10},
		"handler": {20, 30},
		"leg":     {50, 0}, // an op without the span counts 0
	}
	for name, vals := range want {
		if len(got[name]) != len(vals) {
			t.Fatalf("%s: %v, want %v", name, got[name], vals)
		}
		for i := range vals {
			if !near(got[name][i], vals[i]) {
				t.Errorf("%s op %d: self %v, want %v", name, i, got[name][i], vals[i])
			}
		}
	}
	// The parts add up per op by construction; the residual compares
	// the median of the whole with the sum of the medians of the parts.
	self := map[string][]float64{layerNet: {30, 10}, layerCodec: {20, 30}, layerFilter: {50, 0}}
	if r := residualPct(70, self); !near(r, 100*math.Abs(70-(20+25+25))/70) {
		t.Errorf("residual %v", r)
	}
	if r := residualPct(100, self); !near(r, 30) {
		t.Errorf("residual %v, want 30", r)
	}
}

func TestJudge(t *testing.T) {
	steady := func(x float64) []float64 { return []float64{x * 0.99, x, x * 1.01, x, x} }
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady(100), steady(100), "lower", 0.1, verdictOK},
		{"latency up 20%", steady(100), steady(120), "lower", 0.1, verdictRegressed},
		{"latency down 20%", steady(100), steady(80), "lower", 0.1, verdictOK},
		{"throughput down 20%", steady(100), steady(80), "higher", 0.1, verdictRegressed},
		{"throughput up 20%", steady(100), steady(120), "higher", 0.1, verdictOK},
		{"within the bound", steady(100), steady(108), "lower", 0.1, verdictOK},
		{"too noisy to tell", []float64{60, 80, 100, 120, 140}, steady(100), "lower", 0.1, verdictUnresolved},
		{"noisy and worse is still unresolved", steady(100), []float64{90, 120, 150, 180, 210}, "lower", 0.1, verdictUnresolved},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if w := worsening(200, 150, "higher"); !near(w, 0.25) {
		t.Errorf("worsening of a throughput from 200 to 150: %v, want 0.25", w)
	}
}

func TestCostMatches(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		reachable  bool
		cost, want float64
		ok         bool
	}{
		{true, 45, 45, true},
		{true, 45.0000000001, 45, true},
		{true, 46, 45, false},
		{false, inf, 45, false},
		{false, inf, inf, true},
		{true, 3, inf, false},
		{true, 3, nan, true}, // not sampled: any finite answer
		{false, inf, nan, false},
	}
	for _, c := range cases {
		if got := costMatches(c.reachable, c.cost, c.want); got != c.ok {
			t.Errorf("costMatches(%v, %v, %v) = %v, want %v", c.reachable, c.cost, c.want, got, c.ok)
		}
	}
}
